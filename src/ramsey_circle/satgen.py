"""CNF generation and SAT solving for the forcing questions.

`copy_formula(n, gaps)` has one boolean variable per vertex of Z_n
(variable v+1 true means vertex v is red) and two clauses per permuted copy
of the gaps: the positive clauses forbid all-blue copies, the negated ones
all-red copies.  It is satisfiable iff some two-colouring avoids
monochromatic copies, so UNSAT verifies unavoidability and a model is a
counterexample; `cnf_generate(k)` is its doubling tuple on the (2^k - 1)-gon.
It collects `copy_clauses`, which gives the clause count up front and then
the clauses in 2n blocks, one per start vertex and sign.  Given a deadline,
generation checks it before each block and once more before the formula
object.  `cnf` writes `dimacs_header` and then each block through
`dimacs_lines`, the per-clause formatter that `dimacs_write` uses for a
whole formula, so it never holds more than one block: `cnf --k 8` takes
about 2.7-3.1 s and 20 MB max RSS, where building the formula and its text
first took 4.5-5.3 s and 724 MB (shared 2-vCPU VM, Python 3.11.7).
`dimacs_read`, the one DIMACS parser, splits its text into lines a block of
about 1 MiB at a time and sends only a token it has not read before through
int() and the range check.

The bundled CDCL solver (`dimacs_solver.Solver`) runs in-process on the
clauses, with no DIMACS file.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import Colouring, ParseError, discretize, power_tuple
from .detector import detect_bruteforce

MIN_K = 3
# 2 (2^k - 1) (k-1)! clauses: k = 8 has 2.6 M, which `cnf` streams into an
# 89 MB file in about 3 s; k = 9 has 41 M, sixteen times as many, and
# `solve` would hold them all.
MAX_K = 8

GENERATOR_NAME = "ramsey-circle cnf generator"


class ModelValidationError(RuntimeError):
    """A solver model fails its clause check or its detector cross-check."""


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        clauses = tuple(map(tuple, self.clauses))
        object.__setattr__(self, "clauses", clauses)
        literals = set(itertools.chain.from_iterable(clauses))
        if all(clauses) and 0 not in literals and (
                not literals or -self.num_vars <= min(literals) <= max(literals) <= self.num_vars):
            return
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")

    @classmethod
    def _unchecked(cls, num_vars: int, clauses: tuple[tuple[int, ...], ...]) -> CnfFormula:
        """A formula of tuple clauses already known non-empty and in range,
        built without the `__post_init__` pass over every literal."""
        f = cls.__new__(cls)
        f.__dict__.update(num_vars=num_vars, clauses=clauses)
        return f

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class SolverOutcome:
    status: str                    # "SAT" | "UNSAT" | "UNKNOWN"
    model: Optional[Colouring]     # present iff SAT
    solver_time: float             # seconds
    # the solver's search counters; None only for UNKNOWN
    conflicts: Optional[int] = None
    decisions: Optional[int] = None
    propagations: Optional[int] = None
    restarts: Optional[int] = None

    def __post_init__(self):
        if (self.status == "SAT") != (self.model is not None):
            raise ValueError("model must be present exactly when status is SAT")


def copy_clauses(n: int, gaps: Sequence[int], deadline: Optional[float] = None
                 ) -> tuple[int, Iterator[list[tuple[int, ...]]]]:
    """The clause count of `copy_formula(n, gaps)` and its clauses in 2n blocks.

    Copies are enumerated as (start vertex of the largest gap, ordering of
    the remaining gaps, each once), which meets every copy, and each copy
    of distinct gaps once, so the count is 2 n (number of orderings).  The
    blocks hold the positive clauses of each start vertex, then the negated
    ones of each start vertex; they are built as they are taken, and
    TimeoutError is raised once `time.monotonic()` passes `deadline`,
    checked before each block.
    """
    # The offsets from the start vertex of one copy, one getter per ordering
    # of the gaps after the largest; the start-v row of a literal list holds
    # the literal of vertex v + o at position o < n.
    copies = [operator.itemgetter(*itertools.accumulate((gaps[0],) + rest[:-1], initial=0))
              for rest in dict.fromkeys(itertools.permutations(gaps[1:]))]

    def blocks():
        for sign in (1, -1):
            literal = [sign * (v % n + 1) for v in range(2 * n)]
            for v in range(n):
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError("deadline passed while generating the formula")
                row = literal[v:v + n]
                yield [copy(row) for copy in copies]

    return 2 * n * len(copies), blocks()


def copy_formula(n: int, gaps: Sequence[int], deadline: Optional[float] = None) -> CnfFormula:
    """Both clause families for non-increasing gaps summing to n, positive
    first: the blocks of `copy_clauses`, with the deadline checked once
    more after the last."""
    _, blocks = copy_clauses(n, gaps, deadline)
    clauses: list[tuple[int, ...]] = []
    for block in blocks:
        clauses += block
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline passed while generating the formula")
    return CnfFormula._unchecked(n, tuple(clauses))


def doubling_gaps(k: int) -> tuple[int, ...]:
    """The doubling tuple on the (2^k - 1)-gon, refused outside [MIN_K, MAX_K]."""
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
    return tuple(2**(k - 1 - i) for i in range(k))


def cnf_generate(k: int, deadline: Optional[float] = None) -> CnfFormula:
    return copy_formula(2**k - 1, doubling_gaps(k), deadline)


def dimacs_header(num_vars: int, num_clauses: int, comments: Sequence[str]) -> str:
    """The comment lines and the problem line that open a DIMACS text."""
    return ("".join(f"c {line}\n" for line in (GENERATOR_NAME, *comments))
            + f"p cnf {num_vars} {num_clauses}\n")


def dimacs_lines(clauses: Sequence[tuple[int, ...]]) -> list[str]:
    """One DIMACS line per clause, each ended by a newline."""
    formats = {size: "%d " * size + "0\n" for size in set(map(len, clauses))}
    return [formats[len(clause)] % clause for clause in clauses]


def dimacs_write(f: CnfFormula, comments: Sequence[str] = ()) -> str:
    lines = dimacs_lines(f.clauses)
    lines.insert(0, dimacs_header(f.num_vars, f.num_clauses, comments))
    return "".join(lines)


#: Characters of DIMACS text that `dimacs_read` splits into lines at a time.
#: Each block ends just after a newline, so no line, and no "\r\n", is cut.
READ_BLOCK = 1 << 20


def dimacs_read(text: str) -> CnfFormula:
    num_vars = None
    promised = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    # Every token already read, as 0 or a literal in range: only a new token
    # needs int() and the range check.
    known: dict[str, int] = {}
    lineno = start = 0
    while start < len(text):
        end = text.find("\n", start + READ_BLOCK - 1) + 1 or len(text)
        lines = text[start:end].splitlines()
        start = end
        for lineno, line in enumerate(lines, start=lineno + 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("c"):
                continue
            if tokens[0].startswith("p"):
                stripped = line.strip()
                if num_vars is not None:
                    raise ParseError("duplicate problem line", line=lineno)
                if len(tokens) != 4 or tokens[1] != "cnf":
                    raise ParseError(f"malformed problem line {stripped!r}", line=lineno)
                try:
                    num_vars, promised = int(tokens[2]), int(tokens[3])
                except ValueError:
                    raise ParseError(f"malformed problem line {stripped!r}", line=lineno) from None
                if num_vars < 0 or promised < 0:
                    raise ParseError(f"negative count in problem line {stripped!r}", line=lineno)
                continue
            if num_vars is None:
                raise ParseError("clause before problem line", line=lineno)
            for tok in tokens:
                lit = known.get(tok)
                if lit is None:
                    try:
                        lit = int(tok)
                    except ValueError:
                        raise ParseError(f"invalid literal {tok!r}", line=lineno) from None
                    if abs(lit) > num_vars:
                        raise ParseError(f"literal {lit} exceeds {num_vars} variables", line=lineno)
                    known[tok] = lit
                if lit:
                    current.append(lit)
                elif current:
                    clauses.append(tuple(current))
                    current = []
                else:
                    raise ParseError("empty clause", line=lineno)
    if current:
        raise ParseError("unterminated clause at end of file")
    if num_vars is None:
        raise ParseError("missing problem line")
    if promised != len(clauses):
        raise ParseError(f"header promises {promised} clauses, found {len(clauses)}")
    return CnfFormula._unchecked(num_vars, tuple(clauses))   # every token checked above


_COUNTERS = ("conflicts", "decisions", "propagations", "restarts")


def _decode_model(f: CnfFormula, model: Sequence[bool]) -> Colouring:
    """The colouring of a model indexed by variable, once it satisfies every clause."""
    for clause in f.clauses:
        if not any(model[abs(lit)] == (lit > 0) for lit in clause):
            raise ModelValidationError(f"model falsifies clause {clause}")
    return Colouring(n=f.num_vars,
                     red_mask=sum(1 << (var - 1) for var in range(1, f.num_vars + 1) if model[var]))


def solve_external(f: CnfFormula, timeout: Optional[float] = None) -> SolverOutcome:
    """Solve f with the bundled solver in-process.  A timeout, which bounds
    building the solver as well as the search, gives UNKNOWN with no
    counters.  A SAT model is checked against every clause before it is
    decoded into a colouring."""
    from .dimacs_solver import Solver   # here: importing satgen, and so the CLI, loads no solver

    started = time.monotonic()
    deadline = None if timeout is None else started + timeout
    try:
        solver = Solver(f.num_vars, f.clauses, deadline)
        model = solver.solve()
    except TimeoutError:
        return SolverOutcome(status="UNKNOWN", model=None, solver_time=time.monotonic() - started)
    elapsed = time.monotonic() - started
    return SolverOutcome(status="UNSAT" if model is None else "SAT",
                         model=None if model is None else _decode_model(f, model),
                         solver_time=elapsed,
                         **{name: getattr(solver, name) for name in _COUNTERS})


def verify_unavoidable(k: int, timeout: Optional[float] = None) -> SolverOutcome:
    """Solve the full formula for k.

    UNSAT: every two-colouring of the (2^k - 1)-gon contains a
    monochromatic copy of the doubling tuple.  SAT: the model is a
    counterexample colouring; it is re-checked with the detector first, and
    a model that still contains a monochromatic copy means the pipeline
    (not the mathematics) is broken.
    """
    started = time.monotonic()
    deadline = None if timeout is None else started + timeout
    try:
        f = cnf_generate(k, deadline)
    except TimeoutError:
        return SolverOutcome(status="UNKNOWN", model=None, solver_time=time.monotonic() - started)
    if deadline is not None:   # generating the formula counts against the timeout
        timeout = deadline - time.monotonic()
    outcome = solve_external(f, timeout)
    if outcome.status == "SAT":
        witness = detect_bruteforce(outcome.model, discretize(power_tuple(k)))
        if witness is not None:
            raise ModelValidationError(
                f"solver model for k={k} still contains the monochromatic copy "
                f"{witness}; the encoding or solver pipeline is broken")
    return outcome

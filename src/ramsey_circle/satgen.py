"""CNF generation and SAT solving for the forcing questions.

`copy_formula(n, gaps)` has one boolean variable per vertex of Z_n
(variable v+1 true means vertex v is red) and two clauses per permuted copy
of the gaps: the positive clauses forbid all-blue copies, the negated ones
all-red copies.  It is satisfiable iff some two-colouring avoids
monochromatic copies, so UNSAT verifies unavoidability and a model is a
counterexample; `cnf_generate(k)` is its doubling tuple on the (2^k - 1)-gon.
Given a deadline, generation stops before the next start vertex or the
formula object once it has passed.  `dimacs_write` gives the DIMACS text
that `cnf` writes for any solver run by hand; `dimacs_read`, the one DIMACS
parser, sends only a token it has not read before through int() and the
range check.

The bundled CDCL solver (`dimacs_solver.Solver`) runs in-process on the
clauses, with no DIMACS file.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Colouring, ParseError, discretize, power_tuple
from .detector import detect_bruteforce

MIN_K = 3
# 2 (2^k - 1) (k-1)! clauses: k = 8 has 2.6 M and takes about 1 GB and
# 18 s to generate and write; k = 9 has 41 M, sixteen times as many.
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


def copy_formula(n: int, gaps: Sequence[int], deadline: Optional[float] = None) -> CnfFormula:
    """Both clause families for non-increasing gaps summing to n, positive first.

    Copies are enumerated as (start vertex of the largest gap, ordering of
    the remaining gaps, each once), which meets every copy, and each copy
    of distinct gaps once: 2 n (k-1)! clauses.  Raises TimeoutError once
    `time.monotonic()` passes `deadline`, checked before each start vertex
    and once after the last.
    """
    # The offsets from the start vertex of one copy, one getter per ordering
    # of the gaps after the largest; the start-v row of `literal` holds the
    # literal (v + o) mod n + 1 of vertex v + o at position o < n.
    copies = [operator.itemgetter(*itertools.accumulate((gaps[0],) + rest[:-1], initial=0))
              for rest in dict.fromkeys(itertools.permutations(gaps[1:]))]
    literal = list(range(1, n + 1)) * 2
    negated = [-lit for lit in literal]
    positive: list[tuple[int, ...]] = []
    negative: list[tuple[int, ...]] = []
    for v in range(n):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("deadline passed while generating the formula")
        row, negated_row = literal[v:v + n], negated[v:v + n]
        positive += [copy(row) for copy in copies]
        negative += [copy(negated_row) for copy in copies]
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline passed while generating the formula")
    return CnfFormula._unchecked(n, tuple(positive + negative))


def cnf_generate(k: int, deadline: Optional[float] = None) -> CnfFormula:
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
    return copy_formula(2**k - 1, tuple(2**(k - 1 - i) for i in range(k)), deadline)


def dimacs_write(f: CnfFormula, comments: Sequence[str] = ()) -> str:
    lines = [f"c {GENERATOR_NAME}"]
    lines.extend(f"c {comment}" for comment in comments)
    lines.append(f"p cnf {f.num_vars} {f.num_clauses}")
    formats = {size: "%d " * size + "0" for size in set(map(len, f.clauses))}
    lines.extend(formats[len(clause)] % clause for clause in f.clauses)
    return "\n".join(lines) + "\n"


def dimacs_read(text: str) -> CnfFormula:
    num_vars = None
    promised = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    # Every token already read, as 0 or a literal in range: only a new token
    # needs int() and the range check.
    known: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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

"""CNF generation and SAT solving for the forcing questions.

`copy_formula(n, gaps)` has one boolean variable per vertex of Z_n
(variable v+1 true means vertex v is red) and two clauses per permuted copy
of the gaps: the positive clauses forbid all-blue copies, the negated ones
all-red copies.  It is satisfiable iff some two-colouring avoids
monochromatic copies, so UNSAT verifies unavoidability and a model is a
counterexample; `cnf_generate(k)` is its doubling tuple on the (2^k - 1)-gon.
Given a deadline, generation stops before the next start vertex or the
formula object once it has passed.  `dimacs_read`, the one DIMACS parser,
sends only a token it has not read before through int() and the range check.

By default the bundled CDCL solver (`dimacs_solver.Solver`) runs
in-process on the clauses, with no DIMACS file and no subprocess.  A solver
command, given as an argument or in RAMSEY_SAT_SOLVER, runs instead as a
subprocess on a DIMACS file; any tool emitting SAT-competition output
("s SATISFIABLE" / "s UNSATISFIABLE" plus "v" model lines) works.
"""

from __future__ import annotations

import itertools
import operator
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import Colouring, ParseError, discretize, power_tuple
from .detector import detect_bruteforce

MIN_K = 3
# 2 (2^k - 1) (k-1)! clauses: k = 8 has 2.6 M and takes about 1 GB and
# 18 s to generate and write; k = 9 has 41 M, sixteen times as many.
MAX_K = 8

GENERATOR_NAME = "ramsey-circle cnf generator"


class SolverError(RuntimeError):
    """Base class for failures of the solver pipeline."""


class SolverNotFoundError(SolverError):
    pass


class SolverOutputError(SolverError):
    """The subprocess output has no status line, more than one, an unknown
    status, or a model line with a token that is not an integer."""


class ModelValidationError(SolverError):
    """The reported model does not satisfy the formula it came from."""


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

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class SolverOutcome:
    status: str                    # "SAT" | "UNSAT" | "UNKNOWN"
    model: Optional[Colouring]     # present iff SAT
    solver_time: float             # seconds
    # the solver's search counters; None when its output does not report them
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
    f = CnfFormula.__new__(CnfFormula)   # in range by construction: no __post_init__ pass
    f.__dict__.update(num_vars=n, clauses=tuple(positive + negative))
    return f


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
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def default_solver_command() -> Optional[str]:
    """The RAMSEY_SAT_SOLVER command, or None for the bundled solver in-process."""
    return os.environ.get("RAMSEY_SAT_SOLVER") or None


def _solver_env() -> dict[str, str]:
    """The caller's environment with this package's parent directory first on
    PYTHONPATH, so the bundled solver starts whatever the caller's own path."""
    env = dict(os.environ)
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (pkg_parent, env.get("PYTHONPATH"))))
    return env


_STATUS = {"SATISFIABLE": "SAT", "UNSATISFIABLE": "UNSAT", "UNKNOWN": "UNKNOWN"}
_COUNTERS = ("conflicts", "decisions", "propagations", "restarts")


def _parse_solver_output(stdout: str, returncode: int, stderr: str,
                         ) -> tuple[str, list[int], dict[str, int]]:
    """The status, the model literals without their closing 0, and the
    counters among `c <counter> N` lines."""
    status = None
    model_lits: list[int] = []
    counters: dict[str, int] = {}
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            token = line[2:].strip()
            if status is not None:
                raise SolverOutputError(f"second status line {line!r} in solver output")
            status = _STATUS.get(token)
            if status is None:
                raise SolverOutputError(f"unknown status {token!r} in solver output")
        elif line.startswith("v "):
            for tok in line[2:].split():
                try:
                    model_lits.append(int(tok))
                except ValueError:
                    raise SolverOutputError(
                        f"invalid literal {tok!r} in solver model line") from None
        elif line.startswith("c "):
            tokens = line.split()
            if len(tokens) == 3 and tokens[1] in _COUNTERS and tokens[2].isdigit():
                counters[tokens[1]] = int(tokens[2])
    if status is None:
        raise SolverOutputError(
            f"no status line in solver output (exit code {returncode}); "
            f"stderr: {stderr.strip()[:200]!r}")
    if model_lits and model_lits[-1] == 0:
        model_lits.pop()
    return status, model_lits, counters


def _decode_model(f: CnfFormula, lits: Sequence[int]) -> Colouring:
    assignment: dict[int, bool] = {}
    for lit in lits:
        var = abs(lit)
        if not 1 <= var <= f.num_vars:
            raise ModelValidationError(
                f"model variable {var} is out of range for {f.num_vars} variables")
        if assignment.setdefault(var, lit > 0) != (lit > 0):
            raise ModelValidationError(f"model assigns variable {var} both ways")
    missing = [v for v in range(1, f.num_vars + 1) if v not in assignment]
    if missing:
        raise ModelValidationError(f"model leaves variables unassigned: {missing[:5]}")
    for clause in f.clauses:
        if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
            raise ModelValidationError(f"model falsifies clause {clause}")
    return Colouring(n=f.num_vars,
                     red_mask=sum(1 << (var - 1) for var, red in assignment.items() if red))


def solve_external(f: CnfFormula, solver_command: Union[str, Sequence[str], None] = None,
                   timeout: Optional[float] = None) -> SolverOutcome:
    """Solve f with `solver_command`, else the RAMSEY_SAT_SOLVER command, as a
    subprocess on a DIMACS file, or with neither by the bundled solver
    in-process.  A timeout, which bounds building the solver as well as the
    search, gives UNKNOWN with no counters.  SAT models are checked against
    every clause before being decoded into a colouring."""
    command = solver_command if solver_command is not None else default_solver_command()
    started = time.monotonic()
    if command is None:
        from .dimacs_solver import Solver   # here: the solver module imports this one

        deadline = None if timeout is None else started + timeout
        try:
            solver = Solver(f.num_vars, f.clauses, deadline)
            model = solver.solve()
        except TimeoutError:
            return SolverOutcome(status="UNKNOWN", model=None,
                                 solver_time=time.monotonic() - started)
        status = "UNSAT" if model is None else "SAT"
        lits = [v if model[v] else -v for v in range(1, f.num_vars + 1)] if model else []
        counters = {name: getattr(solver, name) for name in _COUNTERS}
    else:
        import shlex   # here, not at the top: only a solver command needs them
        import subprocess
        import tempfile

        argv = shlex.split(command) if isinstance(command, str) else list(command)
        with tempfile.TemporaryDirectory(prefix="ramsey-cnf-") as tmp:
            path = os.path.join(tmp, "formula.cnf")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dimacs_write(f))
            try:
                proc = subprocess.run(argv + [path], capture_output=True, text=True,
                                      timeout=timeout, env=_solver_env())
            except FileNotFoundError:
                raise SolverNotFoundError(f"solver command not found: {argv[0]!r}") from None
            except subprocess.TimeoutExpired:
                return SolverOutcome(status="UNKNOWN", model=None,
                                     solver_time=time.monotonic() - started)
        status, lits, counters = _parse_solver_output(proc.stdout, proc.returncode, proc.stderr)
    elapsed = time.monotonic() - started
    model = _decode_model(f, lits) if status == "SAT" else None
    return SolverOutcome(status=status, model=model, solver_time=elapsed, **counters)


def verify_unavoidable(k: int, solver_command: Union[str, Sequence[str], None] = None,
                       timeout: Optional[float] = None) -> SolverOutcome:
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
    outcome = solve_external(f, solver_command, timeout)
    if outcome.status == "SAT":
        witness = detect_bruteforce(outcome.model, discretize(power_tuple(k)))
        if witness is not None:
            raise ModelValidationError(
                f"solver model for k={k} still contains the monochromatic copy "
                f"{witness}; the encoding or solver pipeline is broken")
    return outcome

"""CNF generation and external SAT solving for the doubling-tuple question.

For each k the formula has one boolean variable per vertex of the regular
(2^k - 1)-gon (variable v+1 true means vertex v is red) and two clauses per
permuted copy of the doubling gaps: the positive clauses forbid all-blue
copies, the negated ones all-red copies.  The formula is satisfiable iff
some two-colouring avoids monochromatic copies entirely, so UNSAT verifies
unavoidability at that k and a model is a counterexample colouring.

Solving is delegated to an external solver run as a subprocess on a DIMACS
file; any tool emitting SAT-competition output ("s SATISFIABLE" /
"s UNSATISFIABLE" plus "v" model lines) works.  The default command is the
bundled reference solver, overridable with RAMSEY_SAT_SOLVER.
"""

from __future__ import annotations

import itertools
import os
import shlex
import subprocess
import sys
import tempfile
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
    """Base class for failures of the external-solver pipeline."""


class SolverNotFoundError(SolverError):
    pass


class SolverOutputError(SolverError):
    """The subprocess produced no parseable status line."""


class ModelValidationError(SolverError):
    """The reported model does not satisfy the formula it came from."""


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for clause in self.clauses:
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

    def __post_init__(self):
        if (self.status == "SAT") != (self.model is not None):
            raise ValueError("model must be present exactly when status is SAT")


def cnf_generate(k: int) -> CnfFormula:
    """Both clause families over the canonical copy enumeration.

    Copies are enumerated once each as (start vertex of the largest gap,
    permutation of the remaining gaps), giving 2 (2^k - 1) (k-1)! clauses
    of k same-sign literals.
    """
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
    n = 2**k - 1
    gaps = tuple(2**(k - 1 - i) for i in range(k))
    positive = []
    for v in range(n):
        for rest in itertools.permutations(gaps[1:]):
            vertices = [v]
            for g in (gaps[0],) + rest[:-1]:
                vertices.append((vertices[-1] + g) % n)
            positive.append(tuple(u + 1 for u in vertices))
    negative = [tuple(-lit for lit in clause) for clause in positive]
    return CnfFormula(num_vars=n, clauses=tuple(positive + negative))


def dimacs_write(f: CnfFormula, comments: Sequence[str] = ()) -> str:
    lines = [f"c {GENERATOR_NAME}"]
    lines.extend(f"c {comment}" for comment in comments)
    lines.append(f"p cnf {f.num_vars} {f.num_clauses}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in f.clauses)
    return "\n".join(lines) + "\n"


def dimacs_read(text: str) -> CnfFormula:
    num_vars = None
    promised = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate problem line", line=lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed problem line {stripped!r}", line=lineno)
            try:
                num_vars, promised = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line {stripped!r}", line=lineno) from None
            if num_vars < 0 or promised < 0:
                raise ParseError(f"negative count in problem line {stripped!r}", line=lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before problem line", line=lineno)
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"invalid literal {tok!r}", line=lineno) from None
            if lit == 0:
                if not current:
                    raise ParseError("empty clause", line=lineno)
                clauses.append(tuple(current))
                current = []
            elif abs(lit) > num_vars:
                raise ParseError(f"literal {lit} exceeds {num_vars} variables", line=lineno)
            else:
                current.append(lit)
    if current:
        raise ParseError("unterminated clause at end of file")
    if num_vars is None:
        raise ParseError("missing problem line")
    if promised != len(clauses):
        raise ParseError(f"header promises {promised} clauses, found {len(clauses)}")
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def default_solver_command() -> str:
    env = os.environ.get("RAMSEY_SAT_SOLVER")
    if env:
        return env
    return f"{shlex.quote(sys.executable)} -m ramsey_circle.dimacs_solver"


def _solver_env() -> dict[str, str]:
    """The caller's environment with this package's parent directory first on
    PYTHONPATH, so the bundled solver starts whatever the caller's own path."""
    env = dict(os.environ)
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (pkg_parent, env.get("PYTHONPATH"))))
    return env


def _parse_solver_output(stdout: str, returncode: int, stderr: str,
                         ) -> tuple[str, Optional[dict[int, bool]]]:
    status = None
    model_lits: list[int] = []
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            token = line[2:].strip()
            if token == "SATISFIABLE":
                status = "SAT"
            elif token == "UNSATISFIABLE":
                status = "UNSAT"
            elif token == "UNKNOWN":
                status = "UNKNOWN"
        elif line.startswith("v "):
            model_lits.extend(int(tok) for tok in line[2:].split())
    if status is None:
        raise SolverOutputError(
            f"no status line in solver output (exit code {returncode}); "
            f"stderr: {stderr.strip()[:200]!r}")
    if status != "SAT":
        return status, None
    assignment: dict[int, bool] = {}
    for lit in model_lits:
        if lit == 0:
            continue
        var = abs(lit)
        value = lit > 0
        if assignment.get(var, value) != value:
            raise ModelValidationError(f"model assigns variable {var} both ways")
        assignment[var] = value
    return status, assignment


def solve_external(f: CnfFormula, solver_command: Union[str, Sequence[str], None] = None,
                   timeout: Optional[float] = None) -> SolverOutcome:
    """Run the solver on f and parse the outcome; SAT models are checked
    against every clause before being decoded into a colouring."""
    command = solver_command if solver_command is not None else default_solver_command()
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    started = time.monotonic()
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
    elapsed = time.monotonic() - started
    status, assignment = _parse_solver_output(proc.stdout, proc.returncode, proc.stderr)
    if status != "SAT":
        return SolverOutcome(status=status, model=None, solver_time=elapsed)
    missing = [v for v in range(1, f.num_vars + 1) if v not in assignment]
    if missing:
        raise ModelValidationError(f"model leaves variables unassigned: {missing[:5]}")
    for clause in f.clauses:
        if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
            raise ModelValidationError(f"model falsifies clause {clause}")
    red_mask = 0
    for var, value in assignment.items():
        if value:
            red_mask |= 1 << (var - 1)
    model = Colouring(n=f.num_vars, red_mask=red_mask)
    return SolverOutcome(status="SAT", model=model, solver_time=elapsed)


def verify_unavoidable(k: int, solver_command: Union[str, Sequence[str], None] = None,
                       timeout: Optional[float] = None) -> SolverOutcome:
    """Solve the full formula for k.

    UNSAT: every two-colouring of the (2^k - 1)-gon contains a
    monochromatic copy of the doubling tuple.  SAT: the model is a
    counterexample colouring; it is re-checked with the detector first, and
    a model that still contains a monochromatic copy means the pipeline
    (not the mathematics) is broken.
    """
    outcome = solve_external(cnf_generate(k), solver_command, timeout)
    if outcome.status == "SAT":
        witness = detect_bruteforce(outcome.model, discretize(power_tuple(k)))
        if witness is not None:
            raise ModelValidationError(
                f"solver model for k={k} still contains the monochromatic copy "
                f"{witness}; the encoding or solver pipeline is broken")
    return outcome

"""CNF generation and SAT solving for the forcing questions.

`copy_formula(n, gaps)` has one boolean variable per vertex of Z_n
(variable v+1 true means vertex v is red) and two clauses per permuted copy
of the gaps: the positive clauses forbid all-blue copies, the negated ones
all-red copies.  It is satisfiable iff some two-colouring avoids
monochromatic copies, so UNSAT verifies unavoidability and a model is a
counterexample; `cnf_generate(k)` is its doubling tuple on the (2^k - 1)-gon.
A `CnfFormula` holds its clauses as one literal stream, an array of the
clauses in order, each ended by a 0 (after MiniSat's clause region), whose
items are as narrow as its variable count allows: `literal_stream` gives 1
byte a slot up to 127 variables, 2 up to 32 767 and 4 up to `MAX_VARS`, so
k = 7 takes 1.5 MB.  `copy_clauses` gives the clause count up front and
then the stream in 2n blocks, one per start vertex and sign, each made as
it is taken.  `dimacs_text`, the one DIMACS writer, gives the text a block
at a time: `cnf` writes it as the blocks are generated, so it never holds
more than one, and `dimacs_write` joins it over a whole formula's stream.
`dimacs_read`, the one DIMACS parser, splits its text into lines a block of
about 64 KiB at a time and appends each literal to the stream; only a token
it has not read before goes through int() and the range check.

The bundled CDCL solver (`dimacs_solver.Solver`) runs in-process on the
clause lists `clause_lists` splits from a literal stream: a formula's, or
the blocks of `copy_clauses` as they are made.  `forcing`, the one query
behind `solve` and `nearly-ramsey`, builds no formula; a SAT model is
checked against the stream made again and then by the detector.  The
search uses the formulas' symmetries: `_solve` sets the least variable
true when the clauses are closed under colour swap, and `forcing` gives the
solver the `multipliers` of the gaps, under which it adds the images of
its short learnt clauses.  `cnf` and `dimacs_write` write the plain formula.
"""

from __future__ import annotations

import itertools
import operator
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import Colouring, DiscreteInstance, ParseError
from .detector import detect_bruteforce

MIN_K = 3
# 2 (2^k - 1) (k-1)! clauses: k = 8 has 2.6 M, which `cnf` streams into an
# 89 MB file in about 1.3 s, and whose literal stream takes 46 MB; k = 9
# has 41 M, sixteen times as many, and the solver `solve` builds would hold
# a list for each.
MAX_K = 8

GENERATOR_NAME = "ramsey-circle cnf generator"

#: Most variables a formula may have: its literals are at most 32-bit array items.
MAX_VARS = 2**31 - 1


def literal_stream(num_vars: int) -> array:
    """An empty literal stream for num_vars <= MAX_VARS variables, in the
    narrowest signed array items that hold -num_vars..num_vars."""
    return array("b" if num_vars <= 0x7F else "h" if num_vars <= 0x7FFF else "i")


class ModelValidationError(RuntimeError):
    """A solver model fails its clause check or its detector cross-check."""


class _LiteralTable(dict):
    """A table indexed by literal that makes the entry of a literal when it
    is first met, so it grows with the literals of a stream and not with a
    header's variable count."""

    __slots__ = ("entry",)

    def __init__(self, entry: Callable[[int], object]):
        super().__init__()
        self.entry = entry

    def __missing__(self, lit: int):
        self[lit] = value = self.entry(lit)
        return value


def clause_lists(literals: Iterable[int]) -> Iterator[list[int]]:
    """The clauses of a 0-terminated literal stream as lists, each literal
    one int shared by all its occurrences: reading an array makes a new int
    for every item outside -5..256, and a solver keeps each one it is given.
    Every 0 ends a clause, an empty one too, and a last one may lack its 0."""
    shared = _LiteralTable(lambda lit: lit)
    clause: list[int] = []
    for lit in map(shared.__getitem__, literals):
        if lit:
            clause.append(lit)
        else:
            yield clause
            clause = []
    if clause:
        yield clause


class CnfFormula:
    """A CNF formula held as one stream of literals: `literals` is a
    `literal_stream(num_vars)` of the clauses in order, each ended by a 0,
    so a literal slot costs 1, 2 or 4 bytes and no clause is a Python object."""

    __slots__ = ("num_vars", "num_clauses", "literals")

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]]):
        clauses = tuple(map(tuple, clauses))
        if num_vars > MAX_VARS:
            raise ValueError(f"{num_vars} variables are above the limit {MAX_VARS}")
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} out of range for {num_vars} variables")
        self.num_vars = num_vars
        self.num_clauses = len(clauses)
        self.literals = literal_stream(num_vars)
        self.literals.extend(itertools.chain.from_iterable(c + (0,) for c in clauses))

    @classmethod
    def _unchecked(cls, num_vars: int, literals: array, num_clauses: int) -> CnfFormula:
        """A formula of a stream already known to hold num_clauses non-empty
        clauses of literals in range, built without the constructor's pass."""
        f = cls.__new__(cls)
        f.num_vars, f.literals, f.num_clauses = num_vars, literals, num_clauses
        return f

    def __eq__(self, other):
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self.num_vars == other.num_vars and self.literals == other.literals

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """Every clause as a tuple, built anew on each read."""
        return tuple(map(tuple, clause_lists(self.literals)))


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


def copy_clauses(n: int, gaps: Sequence[int]) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The clause count of `copy_formula(n, gaps)` and its literal stream in
    2n blocks.

    Copies are enumerated as (start vertex of the largest gap, ordering of
    the remaining gaps, each once), which meets every copy, and each copy
    of distinct gaps once, so the count is 2 n (number of orderings).  The
    blocks hold the positive clauses of each start vertex, then the negated
    ones of each start vertex, each clause ended by a 0, and are made as
    they are taken."""
    # One getter for a whole block: per ordering of the gaps after the
    # largest, the offsets of the copy's vertices from the start vertex and
    # then n.  The start-v row holds the literal of vertex v + o at position
    # o < n and the 0 that ends a clause at n.
    orderings = dict.fromkeys(itertools.permutations(gaps[1:]))
    block = operator.itemgetter(*itertools.chain.from_iterable(
        (*itertools.accumulate(((gaps[0],) + rest)[:-1], initial=0), n) for rest in orderings))

    def blocks():
        for sign in (1, -1):
            literal = [sign * (v % n + 1) for v in range(2 * n)]
            for v in range(n):
                yield block(literal[v:v + n] + [0])

    return 2 * n * len(orderings), blocks()


def copy_formula(n: int, gaps: Sequence[int]) -> CnfFormula:
    """Both clause families for non-increasing gaps summing to n, positive
    first: the blocks of `copy_clauses` in one array."""
    num_clauses, blocks = copy_clauses(n, gaps)
    literals = literal_stream(n)
    for block in blocks:
        literals.fromlist(list(block))
    return CnfFormula._unchecked(n, literals, num_clauses)


def doubling_gaps(k: int) -> tuple[int, ...]:
    """The doubling tuple on the (2^k - 1)-gon, refused outside [MIN_K, MAX_K]."""
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
    return tuple(2**(k - 1 - i) for i in range(k))


def cnf_generate(k: int) -> CnfFormula:
    return copy_formula(2**k - 1, doubling_gaps(k))


def dimacs_text(num_vars: int, num_clauses: int, blocks: Iterable[Iterable[int]],
                comments: Sequence[str] = ()) -> Iterator[str]:
    """The DIMACS text of a formula whose literal stream comes in blocks:
    the comment lines and the problem line, then each block's lines as one
    string, "v " or "-v " for each literal and "0\n" for each 0.  The text
    of a literal is made when it is first met and kept."""
    for line in (GENERATOR_NAME, *comments):
        yield f"c {line}\n"
    yield f"p cnf {num_vars} {num_clauses}\n"
    text = _LiteralTable(lambda lit: f"{lit} " if lit else "0\n")
    for block in blocks:
        yield "".join(map(text.__getitem__, block))


def dimacs_write(f: CnfFormula) -> str:
    # joined 2^16 literal slots at a time: joining them all at once would
    # first list a pointer per slot, twice the size of the array.  Viewed,
    # not copied: copied slices put the k = 7 write-then-read 2 MB higher.
    step = 1 << 16
    slots = memoryview(f.literals)
    return "".join(dimacs_text(f.num_vars, f.num_clauses,
                               (slots[i:i + step] for i in range(0, len(slots), step))))


#: Characters of DIMACS text that `dimacs_read` splits into lines at a time.
#: Each block ends just after a newline, so no line, and no "\r\n", is cut.
#: A block's lines and literals are held while it is read: 0.6 MB above the
#: formula on the k = 7 text at 64 KiB, 7.6 MB at 1 MiB.
READ_BLOCK = 1 << 16


def dimacs_read(text: str) -> CnfFormula:
    num_vars = None
    promised = None
    literals = None   # made at the problem line, as wide as its variable count
    num_clauses = 0
    last = 0   # the literal read last, 0 when no clause is open
    # Every token already read, as 0 or a literal in range: only a new token
    # needs int() and the range check.
    known: dict[str, int] = {}
    lineno = start = 0
    while start < len(text):
        end = text.find("\n", start + READ_BLOCK - 1) + 1 or len(text)
        lines = text[start:end].splitlines()
        start = end
        read: list[int] = []   # the block's literals, into the array at its end
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
                if num_vars > MAX_VARS:
                    raise ParseError(f"{num_vars} variables are above the limit {MAX_VARS}",
                                     line=lineno)
                literals = literal_stream(num_vars)
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
                if not (lit or last):
                    raise ParseError("empty clause", line=lineno)
                read.append(lit)
                last = lit
        if read:   # so the problem line came first
            literals.fromlist(read)
            num_clauses += read.count(0)
    if last:
        raise ParseError("unterminated clause at end of file")
    if num_vars is None:
        raise ParseError("missing problem line")
    if promised != num_clauses:
        raise ParseError(f"header promises {promised} clauses, found {num_clauses}")
    return CnfFormula._unchecked(num_vars, literals, num_clauses)   # every token checked above


def _solve(num_vars: int, stream: Callable[[], Iterable[int]], timeout: Optional[float],
           black: Optional[int] = None, symmetries: Sequence[Sequence[int]] = ()) -> SolverOutcome:
    """Solve the literal stream `stream()` with the bundled solver
    in-process.  The solver's timeout, bounding its build (which draws the
    stream) and its check of the clauses as well as the search, gives
    UNKNOWN with no counters.  A SAT model is checked against every clause
    of a second `stream()`, then decoded.

    With no `black` vertex, when the clauses held are closed under negating
    every literal, the least variable v that occurs is set true: the colour
    swap of a model is a model, so F and F with the unit (v) are SAT
    together.  Each of `symmetries`, variable permutations indexed by
    variable, must map F (less the black literal) onto itself and fix v;
    then it maps every clause F and (v) imply to one they imply, and the
    solver holds the images of its short learnt clauses.

    A `black` vertex matches both colours: its literal leaves every clause,
    its bit of the model is clear, and each decision sets false (blue) the
    highest unassigned variable.  So the model M is the least red mask: an
    x true in M was implied after decisions above x only; a model agreeing
    with M above x meets them, the formula and the learnt clauses and
    images (which follow from it: there is no unit), so propagation sets x
    true in it too, whatever the restarts and backjumps.
    """
    from .dimacs_solver import Solver   # here: importing satgen, and so the CLI, loads no solver

    order = None
    if black is not None:
        order, source, dropped = range(num_vars, 0, -1), stream, {black + 1, -black - 1}
        stream = lambda: itertools.filterfalse(dropped.__contains__, source())
    started = time.monotonic()
    try:
        solver = Solver(num_vars, clause_lists(stream()), timeout, order, symmetries)
        if black is None and solver.negation_closed():
            solver.add_unit(next(v for v in range(1, num_vars + 1) if solver.occ[v]))
        model = solver.solve()
    except TimeoutError:
        return SolverOutcome(status="UNKNOWN", model=None, solver_time=time.monotonic() - started)
    elapsed = time.monotonic() - started
    colouring = None
    if model is not None:
        for clause in clause_lists(stream()):
            if not any(model[abs(lit)] == (lit > 0) for lit in clause):
                raise ModelValidationError(f"model falsifies clause {tuple(clause)}")
        colouring = Colouring(n=num_vars, red_mask=sum(
            1 << v for v in range(num_vars) if model[v + 1] and v != black), black=black)
    return SolverOutcome(status="UNSAT" if model is None else "SAT", model=colouring,
                         solver_time=elapsed, **{name: getattr(solver, name) for name in (
                             "conflicts", "decisions", "propagations", "restarts")})


def solve_external(f: CnfFormula) -> SolverOutcome:
    """Solve f with the bundled solver in-process (see `_solve`)."""
    return _solve(f.num_vars, lambda: f.literals, None)


def multipliers(n: int, gaps: Sequence[int]) -> list[int]:
    """The units u mod n with u * gaps = +-(a permutation of gaps) mod n, a
    group: the vertex map v -> u v fixes 0 and maps every copy of gaps on
    Z_n to a copy (with the gaps reversed for -), so it maps the clauses of
    `copy_formula(n, gaps)` onto themselves."""
    from math import gcd

    target = sorted(gaps)
    return [u for u in range(1, n) if gcd(u, n) == 1 and any(
        sorted(sign * u * g % n for g in gaps) == target for sign in (1, -1))]


def forcing(inst: DiscreteInstance, *, black: Optional[int] = None,
            timeout: Optional[float] = None) -> SolverOutcome:
    """Whether every two-colouring of Z_n, with a `black` vertex matching
    both colours, holds a monochromatic copy of inst: UNSAT if so, else SAT
    with a colouring that holds none (the least, with `black`).  The
    `copy_clauses` blocks go to `_solve` as they are made, and its model is
    re-checked with the detector: one holding a copy is a broken pipeline.
    The solver is given the `multipliers` that fix the black vertex as
    permutations of the variables.
    """
    n = inst.n
    symmetries = [[0, *(u * v % n + 1 for v in range(n))] for u in multipliers(n, inst.gaps)
                  if u != 1 and (black is None or u * black % n == black)]
    outcome = _solve(n, lambda: itertools.chain.from_iterable(copy_clauses(n, inst.gaps)[1]),
                     timeout, black, symmetries)
    if outcome.model is not None and (witness := detect_bruteforce(outcome.model, inst)):
        raise ModelValidationError(f"solver model on Z_{inst.n} holds the copy {witness}: "
                                   "the encoding or solver pipeline is broken")
    return outcome


def verify_unavoidable(k: int, timeout: Optional[float] = None) -> SolverOutcome:
    """`forcing` on the doubling tuple for k: UNSAT means every
    two-colouring of the (2^k - 1)-gon contains a monochromatic copy."""
    return forcing(DiscreteInstance(2**k - 1, doubling_gaps(k)), timeout=timeout)

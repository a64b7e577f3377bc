"""Test-only reference routes, kept independent of the code they check."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import ramsey_circle
from ramsey_circle.beatty import (BalanceVerdict, BeattyPair, FraenkelReport,
                                  PartitionError, PartitionVerdict)
from ramsey_circle.core import (Colouring, DiscreteInstance, DistanceTuple,
                                ParseError, power_tuple, rotate_mask)
from ramsey_circle.detector import find_copy_in_class
from ramsey_circle.doubling import DoublingBoundaryError, DoublingOrbit
from ramsey_circle.robust import FiniteCheckResult
from ramsey_circle.satgen import CnfFormula


def rotated(c: Colouring, r: int) -> Colouring:
    """Rotate counterclockwise: new vertex v has the colour of v - r."""
    black = None if c.black is None else (c.black + r) % c.n
    return Colouring(n=c.n, red_mask=rotate_mask(c.red_mask, r, c.n), black=black)


def swapped(c: Colouring) -> Colouring:
    return Colouring(n=c.n, red_mask=c.blue_mask, black=c.black)


def uniform_colouring(t: int, grid: int) -> Colouring:
    """The alternating 2t-arc colouring on Z_grid, starting red at vertex 0.

    Vertex v is red iff floor(v * 2t / grid) is even; 2t must divide grid.
    The mask is read from one binary string, vertex 0 as its last digit.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if grid < 1 or grid % (2 * t):
        raise ValueError(f"grid {grid} is not a positive multiple of 2t = {2 * t}")
    block = grid // (2 * t)
    return Colouring(n=grid, red_mask=int(("0" * block + "1" * block) * t, 2))


def uniform_instance(d: DistanceTuple, t: int) -> tuple[Colouring, DiscreteInstance]:
    """c_t and d on the least grid holding both."""
    grid = math.lcm(2 * t, d.lcm_denominator())
    return uniform_colouring(t, grid), d.on(grid)


def uniform_grid_copy(d: DistanceTuple, t: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The least red copy of d in c_t on the least grid holding both, found
    by the bitset kernel; by colour-swap symmetry red suffices."""
    c, inst = uniform_instance(d, t)
    return find_copy_in_class(c.red_mask, c.n, inst.gaps)


def nearly_ramsey_exhaustive(d: DistanceTuple, N: int) -> FiniteCheckResult:
    """Walk the two-colourings of Z_N with vertex 0 black in ascending red
    mask and stop at the first where no copy of d is all red-or-black or all
    blue-or-black; 2^(N-1) colourings when every one has such a copy."""
    gaps = d.on(N).gaps
    masks = sorted({sum(1 << (v + o) % N for o in itertools.accumulate(order[:-1], initial=0))
                    for v in range(N) for order in itertools.permutations(gaps)})
    full_rest = (1 << N) - 2   # vertices 1..N-1
    for bits in range(1 << (N - 1)):
        red = bits << 1
        red_class = red | 1
        blue_class = (full_rest ^ red) | 1
        for mask in masks:
            if mask & red_class == mask or mask & blue_class == mask:
                break
        else:
            return FiniteCheckResult(verified=False,
                                     counterexample=Colouring(n=N, red_mask=red, black=0),
                                     colourings_checked=bits + 1)
    return FiniteCheckResult(verified=True, counterexample=None,
                             colourings_checked=1 << (N - 1))


def dfs_copy_in_class(class_mask: int, n: int, gaps: Sequence[int],
                      ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Depth-first search for the least copy lying entirely inside a class.

    Scans starts in order, choosing gaps in ascending value; exhaustive, so
    a None verdict is a proof of absence.  Returns (vertices, gap_order)
    presented from the copy's smallest vertex.
    """
    k = len(gaps)
    gaps_sorted = sorted(gaps)
    used = [False] * k
    path: list[int] = []

    def extend(u: int) -> bool:
        if len(path) == k - 1:
            return True
        prev = None
        for i in range(k):
            if used[i] or gaps_sorted[i] == prev:
                continue
            g = gaps_sorted[i]
            v = (u + g) % n
            if class_mask >> v & 1:
                used[i] = True
                path.append(g)
                if extend(v):
                    return True
                path.pop()
                used[i] = False
            prev = g
        return False

    for v0 in range(n):
        if not (class_mask >> v0 & 1):
            continue
        if extend(v0):
            last = next(gaps_sorted[i] for i in range(k) if not used[i])
            order = tuple(path) + (last,)
            vertices = [v0]
            for g in order[:-1]:
                vertices.append((vertices[-1] + g) % n)
            shift = vertices.index(min(vertices))
            return (tuple(vertices[shift:] + vertices[:shift]),
                    order[shift:] + order[:shift])
    return None


@dataclass(frozen=True)
class JumpResult:
    """Nearest-integer jump counts round(t * d_i), or the first blocked index.

    t * d_i being exactly a half-integer blocks index i (1-based): an arc of
    that length cannot have both endpoints the same colour in c_t, so no
    monochromatic copy exists at this t.
    """

    t: int
    counts: Optional[tuple[int, ...]]
    blocked_index: Optional[int] = None

    @property
    def blocked(self) -> bool:
        return self.blocked_index is not None

    @property
    def identity_holds(self) -> bool:
        return self.counts is not None and sum(self.counts) == self.t


def jump_counts(d: DistanceTuple, t: int) -> JumpResult:
    """Round each t * d_i to the nearest integer, exactly, from each
    fraction's own numerator and denominator; shares no code with
    `uniform.uniform_steps`."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    counts = []
    for i, di in enumerate(d.distances, start=1):
        p, q = di.numerator, di.denominator
        num = 2 * t * p + q
        if num % (2 * q) == 0:
            return JumpResult(t=t, counts=None, blocked_index=i)
        counts.append(num // (2 * q))
    return JumpResult(t=t, counts=tuple(counts))


def prefix_order(values: Sequence[Fraction]) -> Optional[tuple[int, ...]]:
    """The lexicographically least permutation (1-based) of zero-sum values
    whose prefix sums all lie in [0, 1), or None.

    Backtracking over positions on the values scaled by their common
    denominator, each value tried once per position and the used subset
    memoised; shares no code with `uniform.window_order`.
    """
    values = [Fraction(x) for x in values]
    assert values and sum(values) == 0
    denom = math.lcm(*(x.denominator for x in values))
    ints = [int(x * denom) for x in values]
    k = len(ints)
    failed: set[int] = set()
    out: list[int] = []

    def extend(total: int, used_bits: int) -> bool:
        if len(out) == k:
            return True
        if used_bits in failed:
            return False
        tried: set[int] = set()
        for i in range(k):
            if used_bits >> i & 1 or ints[i] in tried:
                continue
            tried.add(ints[i])
            if 0 <= total + ints[i] < denom:
                out.append(i)
                if extend(total + ints[i], used_bits | (1 << i)):
                    return True
                out.pop()
        failed.add(used_bits)
        return False

    return tuple(i + 1 for i in out) if extend(0, 0) else None


def run_sweep_item_in_subprocess(argv: Sequence[str], spec_dir: Path) -> int:
    """Exit code of one sweep item run as `python -m ramsey_circle` in a fresh
    interpreter, its `@/` paths resolved against spec_dir; a route to the
    batch verdicts that shares no state with the in-process runner."""
    resolved = [str(spec_dir / arg[2:]) if arg.startswith("@/") else arg
                for arg in argv]
    env = dict(os.environ)
    pkg_parent = str(Path(ramsey_circle.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_parent + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "ramsey_circle", *resolved],
                          capture_output=True, env=env, timeout=300)
    return proc.returncode


def mark_owners(pair: BeattyPair, M: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Owner (1-based sequence index, 0 = none) per value in [0, M), plus
    any collisions as (value, earlier_owner, later_owner); marks every term
    below M, with no use of periodicity."""
    owners = [0] * M
    collisions = []
    for i, (alpha, beta) in enumerate(zip(pair.alphas, pair.betas), start=1):
        a = alpha.numerator * beta.denominator
        b = beta.numerator * alpha.denominator
        den = alpha.denominator * beta.denominator
        n = 0
        while True:
            value = (a * n + b) // den
            if value >= M:
                break
            if value >= 0:
                if owners[value]:
                    collisions.append((value, owners[value], i))
                else:
                    owners[value] = i
            n += 1
    return owners, collisions


def partition_verdict(pair: BeattyPair, M: int) -> PartitionVerdict:
    """The partition verdict on [0, M) read off the full O(M) marking."""
    owners, collisions = mark_owners(pair, M)
    if collisions:
        value, i, j = min(collisions)
        return PartitionVerdict(kind="collision", value=value, sequences=(i, j))
    for value, owner in enumerate(owners):
        if not owner:
            return PartitionVerdict(kind="gap", value=value)
    return PartitionVerdict(kind="ok")


def owner_word(pair: BeattyPair, M: int) -> tuple[int, ...]:
    """The owner word of [0, M) from the full marking; PartitionError when
    the pair does not partition [0, M)."""
    verdict = partition_verdict(pair, M)
    if not verdict.ok:
        raise PartitionError(verdict)
    return tuple(mark_owners(pair, M)[0])


def fraenkel_report(pair: BeattyPair, M: int) -> FraenkelReport:
    """The diagnostics of a half-shifted pair (strictly increasing alphas,
    M >= 2p) computed on the whole owner word of [0, M)."""
    p = pair.common_numerator()
    word = owner_word(pair, M)
    period = word[:p]

    def consecutive(letter):
        at = [j for j in range(2 * p) if word[j] == letter]
        return any(max(word[a + 1:b], default=0) <= letter for a, b in zip(at, at[1:]))

    dens = tuple(Fraction(period.count(a), p) for a in range(1, pair.k + 1))
    return FraenkelReport(period_length=p, period=period,
                          exact=all(word[j] == word[j % p] for j in range(M)),
                          symmetric=period == period[::-1],
                          consecutive_ok=tuple(consecutive(a) for a in range(1, pair.k + 1)),
                          densities=dens,
                          power_flag=pair.k >= 3 and dens == power_tuple(pair.k).distances)


def window_balance(period: Sequence[int]) -> BalanceVerdict:
    """Quadratic balance check of a periodic word over {1, ..., k}: compare
    the windows of each length l in [1, p] starting in [0, p), and report
    the first violating (length, letter) with a maximal and a minimal
    window start."""
    p = len(period)
    k = max(period)
    ext = tuple(period) * 2
    prefixes = {}
    for a in range(1, k + 1):
        pref = [0] * (2 * p + 1)
        for j, s in enumerate(ext):
            pref[j + 1] = pref[j] + (s == a)
        prefixes[a] = pref
    for length in range(1, p + 1):
        for a in range(1, k + 1):
            pref = prefixes[a]
            counts = [pref[s + length] - pref[s] for s in range(p)]
            hi = max(counts)
            lo = min(counts)
            if hi - lo > 1:
                return BalanceVerdict(balanced=False, letter=a, window_length=length,
                                      positions=(counts.index(hi), counts.index(lo)))
    return BalanceVerdict(balanced=True)


def doubling_step(x: Fraction) -> Fraction:
    """2x pulled back into (-1, 1), in Fractions; 2x = +-1 is the boundary."""
    y = 2 * x
    if abs(y) == 1:
        raise DoublingBoundaryError(f"2 * {x} = {y} is on the boundary")
    return y - 2 if y > 1 else y + 2 if y < -1 else y


def orbit_from_seed(x1: Fraction, k: int) -> Optional[DoublingOrbit]:
    """Iterate the map k times from x1; the orbit if it closes, else None."""
    xs = [Fraction(x1)]
    for _ in range(k):
        xs.append(doubling_step(xs[-1]))
    if xs[k] != xs[0]:
        return None
    denom = xs[0].denominator
    return DoublingOrbit(tuple(int(x * denom) for x in xs[:k]), denom)


def beatty_term(alpha: Fraction, beta: Fraction, n: int) -> int:
    """floor(alpha * n + beta), computed in integer arithmetic."""
    num = alpha.numerator * beta.denominator * n + beta.numerator * alpha.denominator
    return num // (alpha.denominator * beta.denominator)


def dimacs_plain(text: str) -> CnfFormula:
    """The DIMACS reader with int() and the range check on every token, and
    the same checks, messages and line numbers as `satgen.dimacs_read`."""
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


def dpll_sat(clauses: Sequence[Sequence[int]], true: frozenset = frozenset()) -> bool:
    """Plain recursive DPLL: simplify by the literals in `true`, propagate
    units, then split on the first literal of a shortest open clause."""
    while True:
        open_clauses = []
        unit = None
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            rest = [lit for lit in clause if -lit not in true]
            if not rest:
                return False
            if len(rest) == 1:
                unit = rest[0]
            open_clauses.append(rest)
        if unit is None:
            break
        true = true | {unit}
        clauses = open_clauses
    if not open_clauses:
        return True
    lit = min(open_clauses, key=len)[0]
    return dpll_sat(open_clauses, true | {lit}) or dpll_sat(open_clauses, true | {-lit})

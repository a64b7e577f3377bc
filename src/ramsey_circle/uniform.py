"""Uniform colourings and the residue test for red copies inside them.

The uniform colouring with parameter t splits the circle into 2t equal
arcs coloured alternately red and blue, each arc containing its clockwise
endpoint.  Rotating it by one arc swaps the colours, so it contains a
monochromatic copy of a tuple iff it contains a red one.  Questions about
c_t are answered on the least grid holding its arcs and the tuple,
`core.common_grid`, which refuses grids above `core.GRID_LIMIT`.

For the doubling tuple on the grid 2t(2^k - 1), reducing vertex indices
modulo 2^(k+1) - 2 turns red-copy existence into a purely arithmetic
question: order the k jump residues 2t, 4t, ..., 2^k t so that every
partial position stays inside the red residue window {0, ..., 2^k - 2}.
Because the position after a prefix depends only on the set of jumps used,
a memoised search over the 2^k subsets, `window_order`, decides this
without touching k! orderings.  It is the only prefix-window search:
`doubling.prefix_permutation` calls it too, on the signed jumps themselves
with 2^k - 1 as the window, since its orbit holds them over that denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Optional

from .core import Colouring, DistanceTuple, RefutationError, common_grid
from .detector import find_copy_in_class


def uniform_colouring(t: int, grid: int) -> Colouring:
    """The alternating 2t-arc colouring on Z_grid, starting red at vertex 0.

    Vertex v is red iff floor(v * 2t / grid) is even; 2t must divide grid.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if grid < 1 or grid % (2 * t):
        raise ValueError(f"grid {grid} is not a positive multiple of 2t = {2 * t}")
    block = grid // (2 * t)
    return Colouring.from_arcs((block, block), repeat=t)


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
    """Round each t * d_i to the nearest integer, exactly."""
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


@dataclass(frozen=True)
class ResidueInstance:
    """The modular data of the red-copy question for the doubling tuple.

    jumps are the residues 2t, 4t, ..., 2^k t modulo m = 2^(k+1) - 2; the
    signed values fold residues above 2^k - 1 into negatives, and describe
    how a vertex moves inside the red window {0, ..., 2^k - 2}.
    """

    k: int
    t: int

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        if self.t < 1:
            raise ValueError("t must be a positive integer")

    @property
    def m(self) -> int:
        return 2 ** (self.k + 1) - 2

    @property
    def window(self) -> int:
        """Red residues are exactly {0, ..., window - 1}."""
        return 2 ** self.k - 1

    @cached_property
    def jumps(self) -> tuple[int, ...]:
        return tuple((2 ** i * self.t) % self.m for i in range(1, self.k + 1))

    @cached_property
    def signed(self) -> tuple[int, ...]:
        if self.window in self.jumps:
            # Impossible: jumps are even, 2^k - 1 is odd and m is even.
            raise RefutationError(
                f"jump residue {self.window} equals 2^k - 1 for k={self.k}, t={self.t}")
        signed = tuple(u if u < self.window else u - self.m for u in self.jumps)
        if sum(signed) != 0:
            raise RefutationError(
                f"signed jumps {signed} do not sum to 0 for k={self.k}, t={self.t}")
        return signed


@dataclass(frozen=True)
class ResidueWitness:
    """An order of the jumps keeping every position in the red window."""

    start_residue: int
    jump_order: tuple[int, ...]   # 0-based indices into ResidueInstance.jumps
    positions: tuple[int, ...]    # residue after each jump, mod m
    instance: ResidueInstance


@lru_cache(maxsize=65536)
def window_order(values: tuple[int, ...], window: int) -> Optional[tuple[int, ...]]:
    """Order a zero-sum list so every prefix sum lies in [0, window).

    Returns the lexicographically least sequence of 0-based indices into
    values that does so, or None.  Equal values are tried once per position
    (the lowest unused index stands for them all), and failures are
    memoised on the used subset: the prefix sum after a subset is the same
    for every ordering of it.
    """
    k = len(values)
    failed: set[int] = set()
    out: list[int] = []

    def extend(total: int, used_bits: int) -> bool:
        if len(out) == k:
            return True
        if used_bits in failed:
            return False
        tried: set[int] = set()
        for i in range(k):
            v = values[i]
            if used_bits >> i & 1 or v in tried:
                continue
            tried.add(v)
            if 0 <= total + v < window:
                out.append(i)
                if extend(total + v, used_bits | (1 << i)):
                    return True
                out.pop()
        failed.add(used_bits)
        return False

    return tuple(out) if extend(0, 0) else None


def residue_check(k: int, t: int) -> Optional[ResidueWitness]:
    """Decide red-copy existence in the uniform colouring arithmetically.

    A start residue r and a growing chain of jump subsets keep all positions
    red iff some ordering of the signed jumps has all prefix sums in
    [0, 2^k - 1): any red walk, restarted at its minimal position, yields
    one, so r = 0 can be reported whenever a witness exists at all.  The
    jumps are searched in stable by-value order, so the witness is the least
    value sequence, each value taking its lowest unused jump index.
    """
    inst = ResidueInstance(k=k, t=t)
    by_value = sorted(range(k), key=inst.signed.__getitem__)
    order = window_order(tuple(inst.signed[i] for i in by_value), inst.window)
    if order is None:
        return None
    jump_order = tuple(by_value[i] for i in order)
    positions = tuple(p % inst.m for p in accumulate(inst.jumps[i] for i in jump_order))
    return ResidueWitness(start_residue=0, jump_order=jump_order,
                          positions=positions, instance=inst)


def uniform_contains_mono_copy(d: DistanceTuple, t: int) -> bool:
    """Whether c_t contains a monochromatic copy of d, on the least grid
    holding both; by colour-swap symmetry, checking red suffices."""
    grid = common_grid(2 * t, *d.denominators)
    red = uniform_colouring(t, grid).red_mask
    return find_copy_in_class(red, grid, d.on(grid).gaps) is not None


def nonpower_witness(d: DistanceTuple, max_t: int) -> Optional[int]:
    """Smallest t <= max_t whose uniform colouring has no monochromatic copy.

    The jump identity gives a fast negative: a blocked index or a count sum
    differing from t already rules out monochromatic copies at this t.  For
    the doubling tuple no witness exists at any bound; finding one would
    overturn the verified small cases, so it is raised, never returned.
    """
    is_power = d.is_power()
    for t in range(1, max_t + 1):
        jr = jump_counts(d, t)
        if jr.blocked or not jr.identity_holds:
            no_copy = True
        else:
            no_copy = not uniform_contains_mono_copy(d, t)
        if no_copy:
            if is_power:
                raise RefutationError(
                    f"uniform colouring c_{t} contains no monochromatic copy of "
                    f"the k={d.k} doubling tuple; this contradicts the verified "
                    "small cases and should be treated as a bug until proven")
            return t
    return None

"""Uniform colourings and the residue test for monochromatic copies in them.

The uniform colouring c_t splits the circle into 2t equal arcs coloured
alternately red and blue from vertex 0, each arc containing its clockwise
endpoint: x is red iff 2t x mod 2 lies in [0, 1).  Every question about c_t
is arithmetic: over the least common denominator q of the tuple, each gap
moves a vertex by an integer step (`uniform_steps`), and a copy is an order
of the steps that keeps every partial position in the red window
{0, ..., q - 1} (`red_order`, for any tuple; `residue_check` is the doubling
case).  Because the position after a prefix depends only on the set of
steps used, a memoised search over the 2^k subsets, `window_order`, decides
this without touching k! orderings; `doubling.prefix_permutation` calls it
too.  Every sweep over t is `least_suitable_t`, which stops at
min(max_t, q), since every step depends only on t mod q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Optional, Sequence

from .core import DistanceTuple, RefutationError


def uniform_steps(gaps: Sequence[int], t: int) -> Optional[tuple[int, ...]]:
    """How each gap moves the position in c_t, folded into (-q, q).

    gaps are integer numerators over q = sum(gaps).  Gap g moves the position
    q (2t x mod 2) by 2t g mod 2q; a move of exactly q, that is 2t g / q an
    odd integer, swaps red and blue and blocks the gap, and gives None.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    q = sum(gaps)
    steps = []
    for g in gaps:
        u = 2 * t * g % (2 * q)
        if u == q:
            return None
        steps.append(u if u < q else u - 2 * q)
    return tuple(steps)


@dataclass(frozen=True)
class ResidueInstance:
    """The modular data of the red-copy question for the doubling tuple.

    The signed jumps are `uniform_steps` of the doubling tuple over
    q = 2^k - 1, in reverse index order: the gap 2^i / q moves a vertex by
    2^(i+1) t.  jumps are the same moves as residues 2t, 4t, ..., 2^k t
    modulo m = 2^(k+1) - 2, and the red window is {0, ..., 2^k - 2}.
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
        return tuple(s % self.m for s in self.signed)

    @cached_property
    def signed(self) -> tuple[int, ...]:
        signed = uniform_steps(tuple(2 ** i for i in range(self.k)), self.t)
        if signed is None:
            # Impossible: jumps are even, 2^k - 1 is odd and m is even.
            raise RefutationError(f"a jump residue equals 2^k - 1 for k={self.k}, t={self.t}")
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


def red_order(steps: Sequence[int], q: int) -> Optional[tuple[int, ...]]:
    """A walk by `uniform_steps` over q from position 0 that keeps every
    partial position in {0, ..., q - 1}, as 0-based gap indices, or None:
    the least sequence of step values, each taking its lowest unused index.
    Steps that do not sum to 0 (the jump identity) have none."""
    if sum(steps) != 0:
        return None
    by_value = sorted(range(len(steps)), key=steps.__getitem__)
    order = window_order(tuple(steps[i] for i in by_value), q)
    return None if order is None else tuple(by_value[i] for i in order)


def residue_check(k: int, t: int) -> Optional[ResidueWitness]:
    """Decide red-copy existence for the doubling tuple arithmetically.

    This is `red_order` on the doubling tuple's steps, with the walk kept as
    a witness from residue 0.
    """
    inst = ResidueInstance(k=k, t=t)
    jump_order = red_order(inst.signed, inst.window)
    if jump_order is None:
        return None
    positions = tuple(p % inst.m for p in accumulate(inst.jumps[i] for i in jump_order))
    return ResidueWitness(start_residue=0, jump_order=jump_order,
                          positions=positions, instance=inst)


def suitability(d: DistanceTuple, t: int) -> tuple[bool, bool]:
    """Whether t is suitable for d, and whether it is strongly suitable.

    Suitable: c_t has no monochromatic copy of d.  Rotating c_t by one arc
    swaps its colours, so red suffices.  Over q = d.lcm_denominator(),
    vertex x sits at P(x) = q (2t x mod 2) in [0, 2q) and is red iff
    P(x) < q; gap d_i moves P by u_i = 2t d_i q mod 2q.
    - A gap with u_i = q, that is 2 t d_i an odd integer, joins a red vertex
      to a blue one: t is suitable, but not strongly (the parity half).
    - Otherwise fold each u_i into (-q, q).  Along a red copy both ends of
      every gap lie in [0, q), so P moves by exactly the folded step, not by
      it plus or minus 2q; going once round the circle, the steps sum to 0
      (the jump identity, sum of round(t d_i) = t).
    - Restart a red walk at its lowest position: every partial sum of its
      steps then lies in [0, q), an order that `red_order` finds.
      Conversely such an order, walked from x = 0, is a red copy.
    """
    steps = uniform_steps(d.numerators, t)
    if steps is None:
        return True, False
    free = red_order(steps, d.lcm_denominator()) is None
    return free, free


def uniform_contains_mono_copy(d: DistanceTuple, t: int) -> bool:
    """Whether c_t contains a monochromatic copy of d, decided without a grid."""
    return not suitability(d, t)[0]


def least_suitable_t(d: DistanceTuple, max_t: int, strong: bool = False) -> Optional[int]:
    """The least suitable t <= max_t for d, or with strong the least strongly
    suitable t in T = {t : no denominator q_i of d divides 2t}; or None.

    Only t <= min(max_t, q) is tried, q = d.lcm_denominator().  If t = t'
    mod q, then 2t g - 2t' g is a multiple of 2q, so every step 2t g mod 2q
    is the same at t and t'; so is 2t mod q_i, since each q_i divides q.
    The verdict thus depends only on t mod q, which 1..q runs through, so
    the least t, if any exists, is at most q.
    """
    denominators = d.denominators
    for t in range(1, min(max_t, d.lcm_denominator()) + 1):
        if strong and not all(2 * t % p for p in denominators):
            continue
        suitable, strongly = suitability(d, t)
        if strongly if strong else suitable:
            return t
    return None


def nonpower_witness(d: DistanceTuple, max_t: int) -> Optional[int]:
    """Smallest t <= max_t whose uniform colouring has no monochromatic copy.

    For the doubling tuple no witness exists at any bound; finding one would
    overturn the verified small cases, so it is raised, never returned.
    """
    t = least_suitable_t(d, max_t)
    if t is not None and d.is_power():
        raise RefutationError(
            f"uniform colouring c_{t} contains no monochromatic copy of "
            f"the k={d.k} doubling tuple; this contradicts the verified "
            "small cases and should be treated as a bug until proven")
    return t

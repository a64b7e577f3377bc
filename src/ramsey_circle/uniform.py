"""Uniform colourings and the residue test for monochromatic copies in them.

The uniform colouring c_t splits the circle into 2t equal arcs coloured
alternately red and blue from vertex 0, each arc containing its clockwise
endpoint: x is red iff 2t x mod 2 lies in [0, 1).  Every question about c_t
is arithmetic: over the least common denominator q of the tuple, each gap
moves a vertex by an integer step (`uniform_steps`), and a copy is an order
of the steps that keeps every partial position in the red window
{0, ..., q - 1} (`red_order`, for any tuple; `residue_check` is the doubling
case, over `doubling_steps`).  Because the position after a prefix depends
only on the set of steps used, a memoised search over the 2^k subsets,
`window_order`, decides this without touching k! orderings;
`doubling.prefix_permutation` calls it too.  Every sweep over t is
`suitable_ts`: every step depends only on t mod q, so it decides
t <= min(max_t, q) and repeats those verdicts by period q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Optional, Sequence

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


def doubling_steps(k: int, t: int) -> tuple[int, ...]:
    """The doubling tuple's `uniform_steps` in c_t over q = 2^k - 1, with
    the gap 2^i / q at index i: the move 2^(i+1) t mod 2q, folded into
    (-q, q); these are the signed jumps 2t, 4t, ..., 2^k t."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    steps = uniform_steps(tuple(2**i for i in range(k)), t)
    if steps is None:
        # Impossible: every move is even and q is odd.
        raise RefutationError(f"a jump residue equals 2^k - 1 for k={k}, t={t}")
    if sum(steps) != 0:
        raise RefutationError(f"signed jumps {steps} do not sum to 0 for k={k}, t={t}")
    return steps


@dataclass(frozen=True)
class ResidueWitness:
    """An order of the doubling steps keeping every position in the red window."""

    jump_order: tuple[int, ...]   # 0-based indices into doubling_steps(k, t)
    positions: tuple[int, ...]    # position after each step, in [0, 2^k - 1)


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
    # One frame per placed step: the prefix sum, used subset and tried
    # values before it, and its index, after which the search resumes.
    stack: list[tuple[int, int, set[int], int]] = []
    total = used_bits = start = 0
    tried: set[int] = set()
    while len(stack) < k:
        for i in range(start, k):
            v = values[i]
            if used_bits >> i & 1 or v in tried:
                continue
            tried.add(v)
            if 0 <= total + v < window and used_bits | 1 << i not in failed:
                stack.append((total, used_bits, tried, i))
                total += v
                used_bits |= 1 << i
                start = 0
                tried = set()
                break
        else:
            failed.add(used_bits)
            if not stack:
                return None
            total, used_bits, tried, start = stack.pop()
            start += 1
    return tuple(frame[3] for frame in stack)


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

    This is `red_order` on `doubling_steps`, with the walk kept as a witness
    from position 0.
    """
    steps = doubling_steps(k, t)
    order = red_order(steps, 2**k - 1)
    if order is None:
        return None
    return ResidueWitness(order, tuple(accumulate(steps[i] for i in order)))


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


def suitable_ts(d: DistanceTuple, max_t: int, strong: bool = False) -> Iterator[int]:
    """The suitable t <= max_t for d in increasing order, or with strong the
    strongly suitable t in T = {t : no denominator q_i of d divides 2t}.

    Only t <= min(max_t, q) is decided, q = d.lcm_denominator(); those
    verdicts then repeat by period q up to max_t.  If t = t' mod q, then
    2t g - 2t' g is a multiple of 2q, so every step 2t g mod 2q is the same
    at t and t'; so is 2t mod q_i, since each q_i divides q.  The verdict
    thus depends only on t mod q, which 1..q runs through.
    """
    q = d.lcm_denominator()
    denominators = d.denominators
    period = []
    for t in range(1, min(max_t, q) + 1):
        if strong and not all(2 * t % p for p in denominators):
            continue
        suitable, strongly = suitability(d, t)
        if strongly if strong else suitable:
            period.append(t)
            yield t
    for base in range(q, max_t, q):
        for t in period:
            if base + t > max_t:
                return
            yield base + t


def nonpower_witness(d: DistanceTuple, max_t: int) -> Optional[int]:
    """Smallest t <= max_t whose uniform colouring has no monochromatic copy.

    For the doubling tuple no witness exists at any bound; finding one would
    overturn the verified small cases, so it is raised, never returned.
    """
    t = next(suitable_ts(d, max_t), None)
    if t is not None and d.is_power():
        raise RefutationError(
            f"uniform colouring c_{t} contains no monochromatic copy of "
            f"the k={d.k} doubling tuple; this contradicts the verified "
            "small cases and should be treated as a bug until proven")
    return t

"""The ten-interval denser-red colouring and its red-copy verification.

For k >= 6 and a small window of eps values there is a colouring whose red
class is denser by exactly 1/8 - 10 eps yet contains no red copy of the
k-part doubling tuple.  The construction splits the circle into ten
intervals with lengths drawn from {1/16 - eps, 1/16 + eps, 1/8 - eps,
1/8 + eps}, coloured alternately starting red, each interval containing
its clockwise endpoint.  `majority_verify` discretises it exactly and
decides whether the red class holds a copy with the detector's kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Colouring
from .detector import CopyWitness, find_copy_in_class

# Largest discretisation the verifier will attempt before asking for an
# eps with smaller denominator.
_GRID_LIMIT = 10_000_000


@dataclass(frozen=True)
class MajorityParams:
    """k and eps with 2^(k-1)/(2^k - 1) - 1/2 < eps < 1/80 (k >= 6)."""

    k: int
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.k < 6:
            raise ValueError(f"k must be >= 6, got {self.k} (the eps window is empty below 6)")
        low = Fraction(2 ** (self.k - 1), 2 ** self.k - 1) - Fraction(1, 2)
        high = Fraction(1, 80)
        if not (low < self.eps < high):
            raise ValueError(f"eps = {self.eps} outside the open window ({low}, {high}) for k = {self.k}")

    @property
    def density_gap(self) -> Fraction:
        """Red measure minus blue measure: exactly 1/8 - 10 eps."""
        return Fraction(1, 8) - 10 * self.eps


def interval_lengths(eps: Fraction) -> tuple[Fraction, ...]:
    """The ten interval lengths in circle order; eps terms cancel to sum 1."""
    s, e = Fraction(1, 16), Fraction(eps)
    eighth = Fraction(1, 8)
    return (s - e, eighth + e, eighth - e, s + e, eighth - e,
            s + e, eighth - e, s + e, eighth - e, eighth + e)


def majority_colouring(params: MajorityParams, grid: int) -> Colouring:
    """Realize the ten intervals exactly on Z_grid, alternating from red.

    grid must be a common multiple of all interval-endpoint denominators.
    """
    lengths = interval_lengths(params.eps)
    units = []
    for length in lengths:
        u = length * grid
        if u.denominator != 1:
            raise ValueError(f"grid {grid} does not discretise interval length {length}")
        units.append(int(u))
    mask = 0
    start = 0
    for j, u in enumerate(units):
        end = start + u
        if j % 2 == 0:
            mask |= (1 << end) - (1 << start)
        start = end
    assert start == grid
    return Colouring(n=grid, red_mask=mask)


@dataclass(frozen=True)
class MajorityVerdict:
    no_red_copy: bool
    witness: Optional[CopyWitness]
    grid: int
    density_gap: Fraction


def _grid_for(params: MajorityParams) -> int:
    length_denoms = math.lcm(*(length.denominator for length in interval_lengths(params.eps)))
    grid = math.lcm(length_denoms, 2 ** params.k - 1)
    if grid > _GRID_LIMIT:
        raise ValueError(
            f"grid {grid} too large to discretise; choose an eps with a smaller denominator")
    return grid


def _red_instance(params: MajorityParams) -> tuple[Colouring, tuple[int, ...]]:
    """The discretised colouring and the doubling gaps scaled to its grid."""
    grid = _grid_for(params)
    scale = grid // (2 ** params.k - 1)
    gaps = tuple(2 ** (params.k - 1 - i) * scale for i in range(params.k))
    return majority_colouring(params, grid), gaps


def majority_verify(params: MajorityParams) -> MajorityVerdict:
    """Search the red class for a copy of the k-part doubling tuple.

    Exact over every red start vertex; a witness disproves the claimed
    construction (for the red class only: blue copies are out of scope).
    """
    c, gaps = _red_instance(params)
    found = find_copy_in_class(c.red_mask, c.n, gaps)
    witness = None
    if found is not None:
        vertices, order = found
        witness = CopyWitness(vertices=vertices, gap_order=order, colour="Red")
    return MajorityVerdict(no_red_copy=found is None, witness=witness,
                           grid=c.n, density_gap=params.density_gap)


def red_copy_exists_dp(params: MajorityParams) -> bool:
    """Whether the red class holds a copy, as a bare verdict.

    The same kernel query as `majority_verify`, so it is not an independent
    check; the tests compare it with a depth-first search and brute force.
    """
    c, gaps = _red_instance(params)
    return find_copy_in_class(c.red_mask, c.n, gaps) is not None

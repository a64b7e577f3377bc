"""The ten-interval denser-red colouring and its red-copy verification.

For k >= 6 and a small window of eps values there is a colouring whose red
class is denser by exactly 1/8 - 10 eps yet contains no red copy of the
k-part doubling tuple.  The construction splits the circle into ten
intervals with lengths drawn from {1/16 - eps, 1/16 + eps, 1/8 - eps,
1/8 + eps}, coloured alternately starting red, each interval containing
its clockwise endpoint.  `majority_verify` realises it exactly on the
least grid holding the intervals and the tuple (`core.common_grid`, refused
above `core.GRID_LIMIT`) and decides whether the red class holds a copy
with the detector's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Colouring, common_grid, grid_units, power_tuple
from .detector import CopyWitness, find_copy_in_class


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
    return Colouring.from_arcs(grid_units(interval_lengths(params.eps), grid))


@dataclass(frozen=True)
class MajorityVerdict:
    no_red_copy: bool
    witness: Optional[CopyWitness]
    grid: int
    density_gap: Fraction


def majority_verify(params: MajorityParams) -> MajorityVerdict:
    """Search the red class for a copy of the k-part doubling tuple.

    Exact over every red start vertex; a witness disproves the claimed
    construction (for the red class only: blue copies are out of scope).
    """
    lengths = interval_lengths(params.eps)
    grid = common_grid(*(length.denominator for length in lengths), 2 ** params.k - 1)
    c = majority_colouring(params, grid)
    found = find_copy_in_class(c.red_mask, grid, power_tuple(params.k).on(grid).gaps)
    witness = None
    if found is not None:
        vertices, order = found
        witness = CopyWitness(vertices=vertices, gap_order=order, colour="Red")
    return MajorityVerdict(no_red_copy=found is None, witness=witness,
                           grid=grid, density_gap=params.density_gap)


def red_copy_exists_dp(params: MajorityParams) -> bool:
    """Whether the red class holds a copy, as a bare verdict.

    The same kernel query as `majority_verify`, so it is not an independent
    check; the tests compare it with a depth-first search and brute force.
    """
    return not majority_verify(params).no_red_copy

"""Closed orbits of the doubling map on (-1, 1), and prefix-balanced orders.

The map sends x to 2x, pulled back into (-1, 1) by adding or subtracting 2
when 2x leaves it; 2x = +-1 exactly is left undefined and treated as an
error.  The signed jump residues of a uniform colouring, as numerators over
2^k - 1, form exactly such a closed orbit, and red-copy existence becomes:
can the orbit be ordered so every prefix sum lies in [0, 1)?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import RefutationError
from .uniform import doubling_steps, window_order


class DoublingBoundaryError(ValueError):
    """An iterate hit 2x = +-1 exactly, where the map is undefined."""


def _double(num: int, denom: int) -> int:
    """The numerator over denom of the image of num / denom."""
    y = 2 * num
    if y > denom:
        return y - 2 * denom
    if y < -denom:
        return y + 2 * denom
    if abs(y) == denom:
        raise DoublingBoundaryError(f"2 * {Fraction(num, denom)} = {y // denom} is on the boundary")
    return y


@dataclass(frozen=True)
class DoublingOrbit:
    """Reals nums[i] / denom in (-1, 1), cyclically closed under the map."""

    nums: tuple[int, ...]
    denom: int

    def __post_init__(self):
        object.__setattr__(self, "nums", tuple(self.nums))
        if not self.nums:
            raise ValueError("orbit must be non-empty")
        if any(abs(v) >= self.denom for v in self.nums):   # also rejects denom <= 0
            raise ValueError("orbit values must lie strictly inside (-1, 1)")
        k = len(self.nums)
        for i in range(k):
            if _double(self.nums[i], self.denom) != self.nums[(i + 1) % k]:
                raise ValueError(
                    f"x_{i + 2} = {self.xs[(i + 1) % k]} does not follow from "
                    f"x_{i + 1} = {self.xs[i]} under the doubling map")
        if sum(self.nums) != 0:
            # Forced by closure; a violation means the closure argument fails.
            raise RefutationError(f"closed orbit {self.xs} does not sum to 0")

    @property
    def xs(self) -> tuple[Fraction, ...]:
        """The orbit values as reduced fractions."""
        return tuple(Fraction(v, self.denom) for v in self.nums)


def orbit_from_uniform(k: int, t: int) -> DoublingOrbit:
    """The orbit v_i / (2^k - 1) built from the signed jump residues."""
    return DoublingOrbit(doubling_steps(k, t), 2**k - 1)


def prefix_permutation(xs: Union[DoublingOrbit, Sequence[Fraction]],
                       ) -> Optional[tuple[int, ...]]:
    """The lexicographically least permutation pi (1-based) with every
    prefix sum of x_pi in [0, 1); None when no ordering works.

    This is `uniform.window_order` on integer numerators with their
    denominator as the window, which scales with them.  A plain sequence
    must sum to exactly 0 and is scaled over its common denominator.
    """
    if isinstance(xs, DoublingOrbit):
        nums, denom = xs.nums, xs.denom
    else:
        values = tuple(Fraction(x) for x in xs)
        if not values:
            raise ValueError("need at least one value")
        if sum(values) != 0:
            raise ValueError(f"values must sum to 0, got {sum(values)}")
        denom = math.lcm(*(x.denominator for x in values))
        nums = tuple(int(x * denom) for x in values)
    order = window_order(nums, denom)
    return None if order is None else tuple(i + 1 for i in order)

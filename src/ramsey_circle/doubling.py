"""Closed orbits of the doubling map on (-1, 1), and prefix-balanced orders.

The map sends x to 2x, pulled back into (-1, 1) by adding or subtracting 2
when 2x leaves it; 2x = +-1 exactly is left undefined and treated as an
error.  The signed jump residues of a uniform colouring, divided by
2^k - 1, form exactly such a closed orbit, and red-copy existence becomes:
can the orbit be ordered so every prefix sum lies in [0, 1)?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import RefutationError
from .uniform import ResidueInstance, window_order


class DoublingBoundaryError(ValueError):
    """An iterate hit 2x = +-1 exactly, where the map is undefined."""


def doubling_step(x: Fraction) -> Fraction:
    y = 2 * x
    if y > 1:
        return y - 2
    if y < -1:
        return y + 2
    if abs(y) == 1:
        raise DoublingBoundaryError(f"2 * {x} = {y} is on the boundary")
    return y


@dataclass(frozen=True)
class DoublingOrbit:
    """k reals in (-1, 1), cyclically closed under the doubling map."""

    xs: tuple[Fraction, ...]

    def __post_init__(self):
        xs = tuple(Fraction(x) for x in self.xs)
        object.__setattr__(self, "xs", xs)
        if not xs:
            raise ValueError("orbit must be non-empty")
        if any(abs(x) >= 1 for x in xs):
            raise ValueError("orbit values must lie strictly inside (-1, 1)")
        k = len(xs)
        for i in range(k):
            if doubling_step(xs[i]) != xs[(i + 1) % k]:
                raise ValueError(
                    f"x_{i + 2} = {xs[(i + 1) % k]} does not follow from "
                    f"x_{i + 1} = {xs[i]} under the doubling map")
        if sum(xs) != 0:
            # Forced by closure; a violation means the closure argument fails.
            raise RefutationError(f"closed orbit {xs} does not sum to 0")

    @property
    def k(self) -> int:
        return len(self.xs)


def orbit_from_seed(x1: Fraction, k: int) -> Optional[DoublingOrbit]:
    """Iterate the map k times from x1; the orbit if it closes, else None."""
    x1 = Fraction(x1)
    if not -1 < x1 < 1:
        raise ValueError(f"seed {x1} must lie in (-1, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = [x1]
    for _ in range(k):
        xs.append(doubling_step(xs[-1]))
    if xs[k] != x1:
        return None
    return DoublingOrbit(tuple(xs[:k]))


def orbit_from_uniform(k: int, t: int) -> DoublingOrbit:
    """The orbit v_i / (2^k - 1) built from the signed jump residues."""
    signed = ResidueInstance(k=k, t=t).signed
    denom = 2**k - 1
    return DoublingOrbit(tuple(Fraction(v, denom) for v in signed))


def prefix_permutation(xs: Union[DoublingOrbit, Sequence[Fraction]],
                       ) -> Optional[tuple[int, ...]]:
    """The lexicographically least permutation pi (1-based) with every
    prefix sum of x_pi in [0, 1); None when no ordering works.

    Requires the values to sum to exactly 0.  Scaled to integers over their
    common denominator, this is `uniform.window_order` with that denominator
    as the window.
    """
    values = tuple(Fraction(x) for x in (xs.xs if isinstance(xs, DoublingOrbit) else xs))
    if not values:
        raise ValueError("need at least one value")
    if sum(values) != 0:
        raise ValueError(f"values must sum to 0, got {sum(values)}")
    denom = math.lcm(*(x.denominator for x in values))
    order = window_order(tuple(int(x * denom) for x in values), denom)
    return None if order is None else tuple(i + 1 for i in order)

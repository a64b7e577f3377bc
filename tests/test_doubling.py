"""Doubling orbits and prefix-balanced permutations."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from _reference import doubling_step, orbit_from_seed, prefix_order
from ramsey_circle.doubling import (DoublingBoundaryError, DoublingOrbit,
                                    orbit_from_uniform, prefix_permutation)
from ramsey_circle.uniform import residue_check


def brute_prefix_order(values):
    """Factorial-time oracle for small lists."""
    import itertools
    denom = math.lcm(*(v.denominator for v in values))
    ints = [int(v * denom) for v in values]
    for perm in itertools.permutations(range(len(ints))):
        total = 0
        if all(0 <= (total := total + ints[i]) < denom for i in perm):
            return perm
    return None


def test_orbit_from_seed_two_sevenths():
    orbit = orbit_from_seed(F(2, 7), 3)
    assert orbit.xs == (F(2, 7), F(4, 7), F(-6, 7))
    assert sum(orbit.xs) == 0


def test_orbit_fixed_point_zero():
    assert orbit_from_seed(F(0), 6).xs == (F(0),) * 6


def test_orbit_non_closure():
    assert orbit_from_seed(F(1, 3), 1) is None


def test_orbit_boundary_error():
    with pytest.raises(DoublingBoundaryError):
        orbit_from_seed(F(1, 2), 4)


def test_orbit_validation_rejects_bad_sequences():
    with pytest.raises(ValueError, match="does not follow"):
        DoublingOrbit((1, 1, 1), 3)
    with pytest.raises(ValueError, match="strictly inside"):
        DoublingOrbit((3, -3), 3)
    with pytest.raises(ValueError, match="strictly inside"):
        DoublingOrbit((0,), 0)


def test_orbit_from_uniform_examples():
    assert orbit_from_uniform(4, 5).nums == (10, -10, 10, -10)
    assert orbit_from_uniform(4, 5).denom == 15
    assert orbit_from_uniform(3, 1).xs == (F(2, 7), F(4, 7), F(-6, 7))
    assert orbit_from_uniform(3, 7).xs == (F(0), F(0), F(0))
    assert orbit_from_uniform(4, 1).xs == (F(2, 15), F(4, 15), F(8, 15), F(-14, 15))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_orbit_from_uniform_always_closes_and_sums_zero(k):
    m = 2 ** (k + 1) - 2
    for t in range(1, m + 1):
        orbit = orbit_from_uniform(k, t)   # __post_init__ checks the map
        assert sum(orbit.xs) == 0
        assert doubling_step(orbit.xs[-1]) == orbit.xs[0]


def test_prefix_permutation_examples():
    assert prefix_permutation([F(2, 7), F(4, 7), F(-6, 7)]) == (1, 2, 3)
    assert prefix_permutation([F(3, 5), F(3, 5), F(3, 5), F(-9, 10), F(-9, 10)]) is None
    assert prefix_permutation([F(0)] * 4) == (1, 2, 3, 4)


def test_prefix_permutation_requires_zero_sum():
    with pytest.raises(ValueError):
        prefix_permutation([F(1, 2), F(1, 4)])


def test_prefix_permutation_accepts_orbit():
    orbit = orbit_from_uniform(3, 1)
    pi = prefix_permutation(orbit)
    assert pi is not None
    prefix = F(0)
    for i in pi:
        prefix += orbit.xs[i - 1]
        assert 0 <= prefix < 1


def test_prefix_permutation_matches_factorial_oracle():
    rng = random.Random(41)
    for _ in range(200):
        k = rng.randint(2, 6)
        values = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(k - 1)]
        values.append(-sum(values))
        if abs(values[-1]) >= 1 or any(abs(v) >= 1 for v in values):
            continue
        got = prefix_permutation(values)
        expected = brute_prefix_order(values)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got == tuple(i + 1 for i in expected)


small = st.fractions(min_value=F(-3, 8), max_value=F(3, 8), max_denominator=8)


@given(st.lists(small, min_size=1, max_size=7))
def test_small_values_always_orderable(values):
    # |x_i| < 1/2 with zero sum always admits an ordering
    total = sum(values)
    values = list(values) + [-total]
    if abs(values[-1]) >= F(1, 2):
        return
    pi = prefix_permutation(values)
    assert pi is not None
    prefix = F(0)
    for i in pi:
        prefix += values[i - 1]
        assert 0 <= prefix < 1


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_equivalence_with_residue_check(k):
    m = 2 ** (k + 1) - 2
    for t in range(1, m + 1):
        orbit = orbit_from_uniform(k, t)
        pi = prefix_permutation(orbit)
        assert pi == prefix_order(orbit.xs)
        assert (pi is not None) == (residue_check(k, t) is not None)

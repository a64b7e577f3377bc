"""The ten-interval denser-red construction and its red-copy check."""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from ramsey_circle import detector
from ramsey_circle.cli import EXIT_ERROR, dispatch
from ramsey_circle.core import DiscreteInstance
from ramsey_circle.detector import count_copies
from ramsey_circle.majority import (MajorityParams, interval_lengths,
                                    majority_colouring, majority_verify,
                                    red_copy_exists_dp)


def test_eps_window_validation():
    MajorityParams(6, F(1, 100))
    with pytest.raises(ValueError):
        MajorityParams(5, F(1, 100))      # window empty below k = 6
    with pytest.raises(ValueError):
        MajorityParams(6, F(1, 80))       # upper endpoint excluded
    with pytest.raises(ValueError):
        MajorityParams(6, F(1, 126))      # lower endpoint excluded
    with pytest.raises(ValueError):
        MajorityParams(7, F(1, 1000))     # below the k = 7 lower bound


def test_interval_lengths_sum_to_one():
    for eps in (F(1, 100), F(1, 96), F(1, 112)):
        lengths = interval_lengths(eps)
        assert len(lengths) == 10
        assert sum(lengths) == 1


def test_interval_lengths_on_grid_400():
    units = [int(length * 400) for length in interval_lengths(F(1, 100))]
    assert units == [21, 54, 46, 29, 46, 29, 46, 29, 46, 54]
    assert sum(units) == 400


def test_density_gap_exact():
    params = MajorityParams(6, F(1, 100))
    assert params.density_gap == F(1, 40)
    c = majority_colouring(params, 400)
    red = c.red_mask.bit_count()
    blue = 400 - red
    assert red - blue == 400 * F(1, 40)


def test_density_identity_across_grids():
    for k, eps, grid in [(6, F(1, 100), 400), (6, F(1, 112), 1008),
                         (7, F(1, 96), 2016), (8, F(1, 100), 25200)]:
        params = MajorityParams(k, eps)
        c = majority_colouring(params, grid)
        assert c.red_mask.bit_count() - (grid - c.red_mask.bit_count()) == grid * params.density_gap


def test_colouring_starts_red_and_alternates():
    params = MajorityParams(6, F(1, 112))
    c = majority_colouring(params, 112 * 9)
    units = [int(length * c.n) for length in interval_lengths(params.eps)]
    pos = 0
    for j, u in enumerate(units):
        # interval contains its clockwise endpoint
        assert c.is_red(pos) == (j % 2 == 0)
        assert c.is_red(pos + u - 1) == (j % 2 == 0)
        pos += u


def test_colouring_matches_the_per_vertex_definition():
    # vertex v is red iff the interval holding v / grid has an even index,
    # the intervals taken as exact fractions
    rng = random.Random(37)
    checked = 0
    while checked < 40:
        k = rng.randint(6, 8)
        eps = F(rng.randint(1, 40), rng.randint(100, 4000))
        try:
            params = MajorityParams(k, eps)
        except ValueError:
            continue
        lengths = interval_lengths(eps)
        grid = math.lcm(*(x.denominator for x in lengths)) * rng.randint(1, 3)
        ends = list(itertools.accumulate(lengths))
        c = majority_colouring(params, grid)
        assert c.n == grid
        for v in rng.sample(range(grid), min(grid, 500)):
            j = next(j for j, end in enumerate(ends) if F(v, grid) < end)
            assert c.is_red(v) == (j % 2 == 0), (k, eps, grid, v)
        checked += 1


def test_colouring_needs_compatible_grid():
    with pytest.raises(ValueError):
        majority_colouring(MajorityParams(6, F(1, 100)), 63)


def test_verify_small_grid_no_red_copy():
    params = MajorityParams(6, F(1, 112))
    verdict = majority_verify(params)
    assert verdict.no_red_copy
    assert verdict.grid == 1008
    assert verdict.witness is None
    assert red_copy_exists_dp(params) is False
    # independent route: brute-force count of red copies on the same grid
    c = majority_colouring(params, 1008)
    gaps = tuple(2**(5 - i) * 16 for i in range(6))
    assert count_copies(c, DiscreteInstance(n=1008, gaps=gaps))[0] == 0


def test_verify_three_eps_values():
    # the construction holds across the window, not just at one eps
    for eps in (F(1, 112), F(1, 96), F(1, 120)):
        assert majority_verify(MajorityParams(6, eps)).no_red_copy


def test_red_class_alone_would_contain_copies_without_blue_gaps():
    # sanity for the search itself: an all-red colouring has a red copy
    from ramsey_circle.detector import find_copy_in_class
    found = find_copy_in_class((1 << 63) - 1, 63, tuple(2**(5 - i) for i in range(6)))
    assert found is not None


def test_k14_at_eps_one_hundredth_is_refused_before_the_kernel_allocates(capsys):
    # 2^14 reach masks of 6553200 bits would need about 13 GB
    started = time.perf_counter()
    with pytest.raises(ValueError, match="above the detector budget"):
        majority_verify(MajorityParams(14, F(1, 100)))
    assert dispatch(["--json", "majority", "--k", "14", "--eps", "1/100"]) == EXIT_ERROR
    assert "detector budget" in capsys.readouterr().err
    assert time.perf_counter() - started < 1.0


def test_k13_at_eps_one_hundredth_is_within_the_budget(monkeypatch):
    # building the first state means the budget let the pass through; the
    # pass itself (2.7e10 bits, several seconds) is not run here
    class Admitted(Exception):
        pass

    def rotate_mask(mask, r, n):
        raise Admitted

    monkeypatch.setattr(detector, "rotate_mask", rotate_mask)
    with pytest.raises(Admitted):
        majority_verify(MajorityParams(13, F(1, 100)))

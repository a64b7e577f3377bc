"""Suitability of uniform parameters and finite wildcard forcing."""

import itertools
import random
from fractions import Fraction as F

import pytest

from _reference import nearly_ramsey_exhaustive
from ramsey_circle import dimacs_solver, satgen
from ramsey_circle.core import DistanceTuple, power_tuple
from ramsey_circle.robust import (MAX_N, nearly_ramsey_finite_check,
                                  strongly_suitable_search, t_set_empty)
from ramsey_circle.satgen import ModelValidationError
from ramsey_circle.uniform import suitability

HALF_THIRD_SIXTH = DistanceTuple((F(1, 2), F(1, 3), F(1, 6)))
EQUILATERAL = DistanceTuple((F(1, 3), F(1, 3), F(1, 3)))
NEARLY_RAMSEY = [
    DistanceTuple((F(5, 8), F(1, 4), F(1, 8))),
    DistanceTuple((F(3, 4), F(1, 6), F(1, 12))),
    DistanceTuple((F(7, 12), F(1, 4), F(1, 6))),
]


def is_suitable(d, t):
    return suitability(d, t)[0]


def is_strongly_suitable(d, t):
    return suitability(d, t)[1]


def in_t_set(d, t):
    """t is in T: no denominator divides 2t."""
    return all(2 * t % q for q in d.denominators)


def test_suitable_examples():
    assert is_suitable(HALF_THIRD_SIXTH, 1)
    assert not is_suitable(power_tuple(3), 1)
    assert is_suitable(EQUILATERAL, 1)


def test_strongly_suitable_examples():
    assert is_strongly_suitable(EQUILATERAL, 1)
    assert not is_strongly_suitable(DistanceTuple((F(1, 2), F(1, 4), F(1, 4))), 1)


def test_power_never_suitable_small_sweep():
    d = power_tuple(3)
    for t in range(1, 40):
        assert not is_suitable(d, t)
        assert not is_strongly_suitable(d, t)


def test_strong_equals_suitable_and_parity():
    # the two sides of the equivalence, computed independently
    rng = random.Random(53)
    pool = [EQUILATERAL, HALF_THIRD_SIXTH, power_tuple(3),
            DistanceTuple((F(2, 5), F(2, 5), F(1, 5))),
            DistanceTuple((F(5, 12), F(1, 3), F(1, 4))),
            DistanceTuple((F(5, 9), F(1, 3), F(1, 9)))]
    for d in pool:
        for t in rng.sample(range(1, 101), 25):
            parity_ok = all((2 * t * di).denominator > 1 or (2 * t * di).numerator % 2 == 0
                            for di in d.distances)
            assert is_strongly_suitable(d, t) == (is_suitable(d, t) and parity_ok)


def test_t_set_empty_for_half_denominator():
    assert t_set_empty(HALF_THIRD_SIXTH)
    assert not any(in_t_set(HALF_THIRD_SIXTH, t) for t in range(1, 13))
    assert not t_set_empty(EQUILATERAL)
    assert strongly_suitable_search(HALF_THIRD_SIXTH, 100) is None


def test_search_finds_t_for_two_fifths_triple():
    d = DistanceTuple((F(2, 5), F(2, 5), F(1, 5)))
    t = strongly_suitable_search(d, 100)
    assert t == 1
    assert in_t_set(d, t)
    assert is_strongly_suitable(d, t)


def test_search_cross_validates_against_per_t_checks():
    d = DistanceTuple((F(5, 9), F(1, 3), F(1, 9)))
    found = strongly_suitable_search(d, 30)
    by_hand = next((t for t in range(1, 31)
                    if in_t_set(d, t) and is_strongly_suitable(d, t)), None)
    assert found == by_hand


def test_strong_search_needs_a_triple():
    with pytest.raises(ValueError):
        strongly_suitable_search(power_tuple(4), 10)


def test_nearly_ramsey_triples_have_no_strongly_suitable_t_small():
    # full range to 500 lives in the acceptance suite
    for d in NEARLY_RAMSEY + [power_tuple(3)]:
        assert strongly_suitable_search(d, 60) is None


def test_finite_check_eighth_gon():
    result = nearly_ramsey_finite_check(NEARLY_RAMSEY[0], 8)
    assert result.verified
    assert result.colourings_checked == 128


def test_finite_check_twelve_gons():
    for d in NEARLY_RAMSEY[1:]:
        result = nearly_ramsey_finite_check(d, 12)
        assert result.verified
        assert result.colourings_checked == 2048


@pytest.mark.parametrize("d,n", [
    (NEARLY_RAMSEY[0], 64),
    (NEARLY_RAMSEY[2], 72),
])
def test_finite_check_verifies_at_large_n(d, n):
    # 2^63 and 2^71 colourings: decided by one UNSAT formula
    result = nearly_ramsey_finite_check(d, n)
    assert result.verified and result.counterexample is None
    assert result.colourings_checked == 2**(n - 1)


def test_finite_check_needs_fitting_grid(monkeypatch):
    with pytest.raises(ValueError):
        nearly_ramsey_finite_check(NEARLY_RAMSEY[0], 9)

    def never(*args):
        raise AssertionError("the clauses were generated")

    monkeypatch.setattr(satgen, "copy_clauses", never)
    # a fitting N above the limit is refused before any work
    with pytest.raises(ValueError, match=f"above the limit {MAX_N}"):
        nearly_ramsey_finite_check(DistanceTuple((F(1, 2), F(1, 4), F(1, 4))), 260)


def test_finite_check_rejects_a_counterexample_holding_a_copy(monkeypatch):
    # a broken encoding that keeps only the clauses forbidding all-red copies
    # yields the all-blue colouring, which the detector re-check refuses
    real = satgen.copy_clauses

    def negated_half(n, gaps, deadline=None):
        count, blocks = real(n, gaps, deadline)
        return count // 2, itertools.islice(blocks, n, None)

    monkeypatch.setattr(satgen, "copy_clauses", negated_half)
    with pytest.raises(ModelValidationError, match="holds the copy"):
        nearly_ramsey_finite_check(NEARLY_RAMSEY[0], 8)


def small_triples():
    """Every (d, N) with d a triple that discretises on Z_N, 3 <= N <= 16:
    123 pairs, one per partition of N into three parts."""
    for n in range(3, 17):
        for a in range(n - 2, 0, -1):
            for b in range(min(a, n - a - 1), 0, -1):
                if n - a - b <= b:
                    yield DistanceTuple((F(a, n), F(b, n), F(n - a - b, n))), n


def test_finite_check_matches_the_exhaustive_oracle():
    pairs = list(small_triples())
    assert len(pairs) == 123
    # counterexamples on larger N, where the walk stops after at most 4096
    # colourings (1024 for the equilateral triple on Z_30)
    pairs += [(DistanceTuple(tuple(F(g, n) for g in gaps)), n) for gaps, n in [
        ((10, 10, 10), 30), ((6, 6, 5), 17), ((7, 6, 4), 17), ((10, 9, 9), 28),
        ((12, 11, 5), 28), ((11, 10, 9), 30), ((11, 11, 10), 32)]]
    verdicts = set()
    for d, n in pairs:
        expected = nearly_ramsey_exhaustive(d, n)
        assert nearly_ramsey_finite_check(d, n) == expected, (d.distances, n)
        verdicts.add(expected.verified)
    assert verdicts == {True, False}
    assert nearly_ramsey_exhaustive(EQUILATERAL, 30).colourings_checked == 1024


def red_runs(*runs):
    return sum((1 << b) - (1 << a) for a, b in runs)


@pytest.mark.parametrize("gaps,n,red", [
    ((F(2, 5), F(2, 5), F(1, 5)), 250, red_runs((1, 101))),
    ((F(3, 5), F(1, 5), F(1, 5)), 250, red_runs((1, 51), (101, 151))),
    ((F(3, 8), F(3, 8), F(1, 4)), 248, red_runs((1, 94))),
], ids=["two-fifths-250", "three-fifths-250", "three-eighths-248"])
def test_finite_check_least_counterexamples_at_large_n(gaps, n, red):
    # beyond the exhaustive oracle: the least red masks the minimising walk
    # over all 2^(N-1) masks would meet, as found by one solve per vertex
    result = nearly_ramsey_finite_check(DistanceTuple(gaps), n)
    assert not result.verified
    assert result.counterexample.red_mask == red and result.counterexample.black == 0
    assert result.colourings_checked == red // 2 + 1


def test_finite_check_builds_one_solver_and_solves_once(monkeypatch):
    built, solves = [], []

    class Counting(dimacs_solver.Solver):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

        def solve(self):
            solves.append(self)
            return super().solve()

    monkeypatch.setattr(dimacs_solver, "Solver", Counting)
    result = nearly_ramsey_finite_check(DistanceTuple((F(2, 5), F(2, 5), F(1, 5))), 250)
    assert not result.verified
    assert built == [250] and len(solves) == 1


def test_finite_check_reports_counterexamples():
    # (1/3, 1/3, 1/3) is not nearly-Ramsey: both triangles of Z_6 can
    # avoid a colour even with a wildcard at 0
    result = nearly_ramsey_finite_check(EQUILATERAL, 6)
    assert not result.verified
    c = result.counterexample
    assert c is not None and c.black == 0
    gaps = (2, 2, 2)
    for start in range(6):
        vertices = [start, (start + 2) % 6, (start + 4) % 6]
        red_ok = all(c.class_mask("R") >> v & 1 for v in vertices)
        blue_ok = all(c.class_mask("B") >> v & 1 for v in vertices)
        assert not red_ok and not blue_ok


@pytest.mark.parametrize("d,n", [
    ((F(1, 2), F(1, 3), F(1, 6)), 6),
    ((F(1, 2), F(1, 4), F(1, 4)), 4),
    ((F(1, 2), F(2, 5), F(1, 10)), 10),
    ((F(1, 2), F(3, 10), F(1, 5)), 10),
    ((F(1, 2), F(5, 12), F(1, 12)), 12),
])
def test_half_family_verified_on_minimal_grid(d, n):
    # d1 = 1/2: the four-point pigeonhole argument, checked exhaustively
    result = nearly_ramsey_finite_check(DistanceTuple(d), n)
    assert result.verified

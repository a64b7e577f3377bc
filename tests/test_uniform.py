"""Uniform colourings, jump counts, residue orderings, witness sweeps."""

import io
import itertools
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from _reference import (jump_counts, prefix_order, uniform_colouring,
                        uniform_grid_copy, uniform_instance)
from ramsey_circle.cli import dispatch
from ramsey_circle.core import (DistanceTuple, RefutationError, discretize,
                                power_tuple)
from ramsey_circle.detector import detect_bruteforce, detect_dp
from ramsey_circle.robust import strongly_suitable_search
from ramsey_circle.uniform import (doubling_steps, nonpower_witness,
                                   red_order, residue_check, suitability,
                                   uniform_steps, window_order)


def uniform_contains_mono_copy(d, t):
    """The window search's verdict read as "c_t holds a copy of d"."""
    return not suitability(d, t)[0]


def test_uniform_colouring_halves():
    assert uniform_colouring(1, 14).to_string() == "R" * 7 + "B" * 7


def test_uniform_colouring_blocks_of_two():
    assert uniform_colouring(2, 8).to_string() == "RRBBRRBB"


def test_uniform_colouring_alternating():
    assert uniform_colouring(3, 6).to_string() == "RBRBRB"


def test_uniform_colouring_matches_the_per_vertex_definition():
    # vertex v is red iff floor(v * 2t / grid) is even; the large cases are
    # sampled, and lay millions of blocks
    rng = random.Random(29)
    cases = [(t, 2 * t * rng.randint(1, 12)) for t in rng.sample(range(1, 80), 60)]
    cases += [(3_000_000, 6_000_000), (1_000_003, 2_000_006 * 3), (2, 4_000_000)]
    for t, grid in cases:
        c = uniform_colouring(t, grid)
        assert c.n == grid
        vertices = range(grid) if grid < 5000 else rng.sample(range(grid), 1000)
        for v in vertices:
            assert c.is_red(v) == (v * 2 * t // grid % 2 == 0), (t, grid, v)


def test_uniform_colouring_needs_divisibility():
    with pytest.raises(ValueError):
        uniform_colouring(3, 8)


def test_jump_counts_power_t3():
    jr = jump_counts(power_tuple(3), 3)
    assert jr.counts == (2, 1, 0)
    assert jr.identity_holds


def test_jump_counts_power_t1():
    jr = jump_counts(power_tuple(3), 1)
    assert jr.counts == (1, 0, 0)
    assert jr.identity_holds


def test_jump_counts_blocked():
    jr = jump_counts(DistanceTuple((F(1, 2), F(1, 4), F(1, 4))), 2)
    assert jr.blocked and jr.blocked_index == 2
    assert not jr.identity_holds


def test_jump_counts_oracle_against_fractions():
    # Independent rounding oracle: floor(t d + 1/2) on exact fractions.
    rng = random.Random(5)
    tuples = [power_tuple(4), DistanceTuple((F(1, 2), F(1, 3), F(1, 6))),
              DistanceTuple((F(5, 12), F(1, 3), F(1, 4)))]
    for d in tuples:
        for t in range(1, 60):
            jr = jump_counts(d, t)
            halves = [i + 1 for i, di in enumerate(d.distances)
                      if (t * di - F(1, 2)).denominator == 1]
            if halves:
                assert jr.blocked_index == halves[0]
            else:
                assert jr.counts == tuple((t * di + F(1, 2)).__floor__()
                                          for di in d.distances)


def test_jump_identity_for_powers_small():
    for k in (3, 4, 5):
        d = power_tuple(k)
        for t in range(1, 200):
            jr = jump_counts(d, t)
            assert not jr.blocked
            assert jr.identity_holds


def jumps(k, t):
    """The jump residues 2^(i+1) t mod 2^(k+1) - 2, gap 2^i at index i."""
    m = 2 ** (k + 1) - 2
    return tuple(2 ** (i + 1) * t % m for i in range(k))


def test_doubling_steps_signed_values():
    steps = doubling_steps(3, 1)
    assert jumps(3, 1) == (2, 4, 8)
    assert tuple(s % 14 for s in steps) == jumps(3, 1)
    assert steps == (2, 4, -6)
    assert all(-7 < s < 7 for s in steps)


def test_doubling_steps_refuse_bad_parameters():
    with pytest.raises(ValueError, match="k must be >= 3, got 2"):
        doubling_steps(2, 1)
    with pytest.raises(ValueError, match="t must be a positive integer"):
        doubling_steps(3, 0)


def test_residue_check_k3_t1():
    w = residue_check(3, 1)
    assert tuple(jumps(3, 1)[i] for i in w.jump_order) == (2, 4, 8)
    assert w.positions == (2, 6, 0)
    assert all(p < 7 for p in w.positions)
    chain = [frozenset(w.jump_order[:j]) for j in range(1, len(w.jump_order) + 1)]
    assert [len(s) for s in chain] == [1, 2, 3]
    assert chain[0] < chain[1] < chain[2]


def test_residue_check_all_t_k3():
    for t in range(1, 15):
        w = residue_check(3, t)
        assert w is not None
        pos = 0
        for i, position in zip(w.jump_order, w.positions):
            pos = (pos + jumps(3, t)[i]) % 14
            assert pos < 7
            assert position == pos


def first_window_permutation(values, window):
    """Factorial oracle: the first index permutation, in lexicographic
    order, whose prefix sums all lie in [0, window)."""
    for perm in itertools.permutations(range(len(values))):
        total = 0
        for i in perm:
            total += values[i]
            if not 0 <= total < window:
                break
        else:
            return perm
    return None


def test_window_order_is_the_least_index_sequence():
    # zero-sum integer tuples in arbitrary order, most with repeated values:
    # the exact index sequence must equal the first feasible permutation in
    # lexicographic order and the test-only backtracking search
    rng = random.Random(73)
    found = missing = repeated = 0
    for _ in range(400):
        window = rng.randint(1, 12)
        pool = [rng.randint(-window, window) for _ in range(rng.randint(1, 4))]
        values = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        values.append(-sum(values))
        rng.shuffle(values)
        values = tuple(values)
        expected = first_window_permutation(values, window)
        got = window_order(values, window)
        assert got == expected, (values, window)
        reference = prefix_order([F(v, window) for v in values])
        assert reference == (None if got is None else tuple(i + 1 for i in got))
        found += got is not None
        missing += got is None
        repeated += len(set(values)) < len(values)
    assert found >= 100 and missing >= 100 and repeated >= 200


@pytest.mark.parametrize("k", [3, 4, 5])
def test_residue_check_agrees_with_detector(k):
    d = power_tuple(k)
    for t in range(1, 13):
        found = residue_check(k, t) is not None
        assert found == uniform_contains_mono_copy(d, t)
        c, inst = uniform_instance(d, t)
        w = detect_dp(c, inst)
        assert found == (w is not None)
        if w is not None:
            # the detector's least witness in c_t is always the red one
            assert w.colour == "Red"


def test_uniform_search_with_repeated_gaps_matches_full_detector():
    # repeated gaps go through the same window search as distinct ones; the
    # brute-force detector on the grid is the oracle
    tuples = [DistanceTuple((F(1, 3), F(1, 3), F(1, 3))),
              DistanceTuple((F(1, 2), F(1, 4), F(1, 4))),
              DistanceTuple((F(2, 5), F(2, 5), F(1, 5))),
              DistanceTuple((F(3, 7), F(2, 7), F(2, 7)))]
    for d in tuples:
        for t in range(1, 13):
            c, inst = uniform_instance(d, t)
            assert uniform_contains_mono_copy(d, t) == \
                (detect_bruteforce(c, inst) is not None), (d.distances, t)


def random_tuple(rng, k, q):
    """A non-increasing k-tuple of positive fractions over q summing to 1."""
    cuts = sorted(rng.sample(range(1, q), k - 1))
    parts = sorted((b - a for a, b in zip([0] + cuts, cuts + [q])), reverse=True)
    return DistanceTuple(tuple(F(p, q) for p in parts))


def test_window_search_matches_the_grid_kernel_on_random_tuples():
    # seeded (d, t) with k = 3..6, denominators up to 60 and t up to 40; the
    # grid kernel on c_t is the oracle, and both verdicts, repeated gaps and
    # blocked gaps must each occur often
    rng = random.Random(20251)
    found = missing = repeated = blocked = 0
    for _ in range(1200):
        k = rng.randint(3, 6)
        d = random_tuple(rng, k, rng.randint(k, 60))
        t = rng.randint(1, 40)
        expected = uniform_grid_copy(d, t) is not None
        assert uniform_contains_mono_copy(d, t) == expected, (d.distances, t)
        found += expected
        missing += not expected
        repeated += len(set(d.distances)) < k
        blocked += uniform_steps(discretize(d).gaps, t) is None
    assert found >= 300 and missing >= 300
    assert repeated >= 300 and blocked >= 50


def test_uniform_steps_carry_the_jump_counts():
    # a step is blocked exactly at a half-integer t d_i, and the folded steps
    # sum to 0 exactly when the rounded counts sum to t
    rng = random.Random(41)
    for _ in range(500):
        k = rng.randint(3, 6)
        d = random_tuple(rng, k, rng.randint(k, 60))
        t = rng.randint(1, 200)
        steps = uniform_steps(discretize(d).gaps, t)
        jr = jump_counts(d, t)
        assert (steps is None) == jr.blocked, (d.distances, t)
        if steps is not None:
            q = d.lcm_denominator()
            assert all(-q < s < q for s in steps)
            assert (sum(steps) == 0) == jr.identity_holds, (d.distances, t)


def test_nonpower_witness_examples():
    assert nonpower_witness(DistanceTuple((F(1, 2), F(1, 3), F(1, 6))), 10) == 1
    assert nonpower_witness(DistanceTuple((F(1, 2), F(1, 4), F(1, 4))), 10) == 1
    assert nonpower_witness(power_tuple(3), 25) is None


def test_nonpower_witness_verdicts_match_detector():
    # the sweep must agree with the grid kernel verdict at every t
    tuples = [DistanceTuple((F(5, 12), F(1, 3), F(1, 4))),
              DistanceTuple((F(3, 7), F(2, 7), F(2, 7))),
              DistanceTuple((F(2, 5), F(2, 5), F(1, 5)))]
    for d in tuples:
        by_sweep = nonpower_witness(d, 20)
        by_detector = next((t for t in range(1, 21)
                            if uniform_grid_copy(d, t) is None), None)
        assert by_sweep == by_detector


def test_power_tuple_witness_raises_refutation_if_found(monkeypatch):
    import ramsey_circle.uniform as umod
    monkeypatch.setattr(umod, "suitability", lambda d, t: (True, True))
    with pytest.raises(RefutationError):
        nonpower_witness(power_tuple(3), 5)


def least_red_walk(d, t):
    """The least red walk from vertex 0 of c_t on the grid, by brute force
    over the k! gap orders: least by folded step values 2t d_i mod 2 in
    (-1, 1), then by gap indices."""
    c, inst = uniform_instance(d, t)
    values = [(2 * t * di) % 2 for di in d.distances]
    values = [u if u < 1 else u - 2 for u in values]
    best = None
    for perm in itertools.permutations(range(d.k)):
        x = 0
        for i in perm:
            x = (x + inst.gaps[i]) % inst.n
            if not c.is_red(x):
                break
        else:
            key = (tuple(values[i] for i in perm), perm)
            best = key if best is None else min(best, key)
    return None if best is None else best[1]


def test_red_order_is_the_least_red_walk_for_any_tuple():
    # the doubling witness generalised over (d, t), with the grid walk as
    # the oracle; repeated gaps and blocked steps included
    rng = random.Random(67)
    found = missing = repeated = 0
    for _ in range(300):
        k = rng.randint(3, 5)
        d = random_tuple(rng, k, rng.randint(k, 30))
        t = rng.randint(1, 30)
        steps = uniform_steps(d.numerators, t)
        got = None if steps is None else red_order(steps, d.lcm_denominator())
        assert got == least_red_walk(d, t), (d.distances, t)
        found += got is not None
        missing += got is None
        repeated += len(set(d.distances)) < k
    assert found >= 50 and missing >= 50 and repeated >= 50


def reference_sweeps(d, bound):
    """Per-t loops over the grid oracle for t <= bound: the least suitable t,
    and for a triple the least strongly suitable t in T."""
    witness = strong = None
    for t in range(1, bound + 1):
        if uniform_grid_copy(d, t) is not None:
            continue
        witness = witness or t
        in_t = all(2 * t % q for q in d.denominators)
        if strong is None and in_t and not jump_counts(d, t).blocked:
            strong = t
    return witness, strong


def first_upto(t, max_t):
    return t if t is not None and t <= max_t else None


def test_sweeps_stop_at_the_period_and_match_unbounded_loops():
    # the verdict depends only on t mod q, so sweeping to min(max_t, q)
    # answers as a per-t loop to max_t does, at and around q
    rng = random.Random(89)
    tuples = [DistanceTuple((F(3, 7), F(2, 7), F(2, 7))), power_tuple(3), power_tuple(4)]
    tuples += [random_tuple(rng, rng.randint(3, 5), rng.randint(5, 40)) for _ in range(60)]
    witnesses = strongs = repeated = 0
    for d in tuples:
        q = d.lcm_denominator()
        ref_witness, ref_strong = reference_sweeps(d, 3 * q + 2)
        witnesses += ref_witness is not None
        strongs += ref_strong is not None
        repeated += len(set(d.distances)) < d.k
        for max_t in (1, q - 1, q, 3 * q + 2):
            assert nonpower_witness(d, max_t) == first_upto(ref_witness, max_t), (d.distances, max_t)
            if d.k == 3:
                assert strongly_suitable_search(d, max_t) == first_upto(ref_strong, max_t), \
                    (d.distances, max_t)
    assert witnesses >= 20 and strongs >= 3 and repeated >= 10


def test_sweep_on_a_period_seven_tuple_tries_at_most_seven_t(monkeypatch):
    import ramsey_circle.uniform as umod
    tried = []
    per_t = umod.suitability

    def counted(d, t):
        tried.append(t)
        return per_t(d, t)

    monkeypatch.setattr(umod, "suitability", counted)
    # the only tuple over 7 that no t <= 7 is suitable for
    assert nonpower_witness(power_tuple(3), 100_000) is None
    assert tried == [1, 2, 3, 4, 5, 6, 7]
    tried.clear()
    assert strongly_suitable_search(power_tuple(3), 100_000) is None
    assert tried == [1, 2, 3, 4, 5, 6]   # 7 divides 2 * 7, so t = 7 is outside T
    tried.clear()
    with redirect_stdout(io.StringIO()):
        assert dispatch(["uniform-check", "--k", "3", "--max-t", "100000"]) == 0
    assert tried == [1, 2, 3, 4, 5, 6, 7]


def test_sweeps_scale_each_tuple_once(monkeypatch):
    # the numerators over q are computed once per tuple, never per t
    import ramsey_circle.core as cmod
    calls = []
    scale = cmod.grid_units

    def counted(values, n):
        calls.append(n)
        return scale(values, n)

    monkeypatch.setattr(cmod, "grid_units", counted)
    assert nonpower_witness(power_tuple(3), 1000) is None
    assert len(calls) <= 1
    calls.clear()
    assert strongly_suitable_search(DistanceTuple((F(5, 8), F(1, 4), F(1, 8))), 500) is None
    assert len(calls) <= 1


def test_signed_jumps_sum_zero_sweep():
    for k in range(3, 9):
        m = 2 ** (k + 1) - 2
        for t in range(1, m + 1):
            steps = doubling_steps(k, t)
            assert sum(steps) == 0
            assert tuple(s % m for s in steps) == jumps(k, t)


def test_residue_verdict_periodic_in_t():
    # jumps depend on t only through t mod m, so verdicts repeat
    for k in (3, 4):
        m = 2 ** (k + 1) - 2
        for t in range(1, m + 1):
            assert jumps(k, t) == jumps(k, t + m)
            assert doubling_steps(k, t) == doubling_steps(k, t + m)
            assert (residue_check(k, t) is None) == (residue_check(k, t + m) is None)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  A long opt-in extension
(the depth-first cross-check of the k = 7 majority grid) is enabled with
RAMSEY_ACCEPT_K7_MAJORITY=1.
"""

import json
import os
import random
import time
from fractions import Fraction as F
from pathlib import Path

from _reference import (dfs_copy_in_class, jump_counts, prefix_order,
                        uniform_grid_copy)
from ramsey_circle.beatty import (BalancedWord, BeattyPair, densities,
                                  fraenkel_diagnostics, partition_check,
                                  power_pair, word_from_pair)
from ramsey_circle.cli import dispatch
from ramsey_circle.core import Colouring, DistanceTuple, discretize, power_tuple
from ramsey_circle.detector import count_copies, detect_bruteforce, detect_dp
from ramsey_circle.doubling import orbit_from_uniform, prefix_permutation
from ramsey_circle.majority import (MajorityParams, majority_colouring,
                                    majority_verify, red_copy_exists_dp)
from ramsey_circle.robust import (nearly_ramsey_finite_check,
                                  strongly_suitable_search)
from ramsey_circle.satgen import verify_unavoidable
from ramsey_circle.uniform import nonpower_witness, residue_check

SWEEP = Path(__file__).resolve().parent.parent / "sweeps" / "acceptance.sweep"


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS  {text}")


def test_criterion_01_sat_verification():
    started = time.monotonic()
    for k in (3, 4, 5, 6):
        outcome = verify_unavoidable(k)
        assert outcome.status == "UNSAT", f"k={k} expected UNSAT, got {outcome.status}"
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"solving k=3..6 took {elapsed:.1f}s, budget 60s"
    report(1, f"bundled solver: UNSAT for k=3,4,5,6 in {elapsed:.1f}s; k=6 in "
              f"{outcome.conflicts} conflicts, "
              f"{outcome.conflicts / outcome.solver_time:.0f} per second")


def test_criterion_02_oracle_equivalence():
    combos = [(3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]   # n = 7,14,15,31,63
    rng = random.Random(20)
    checked = 0
    for k, mult in combos:
        inst = discretize(power_tuple(k), mult)
        for _ in range(200):
            c = Colouring.random(inst.n, rng)
            wd = detect_dp(c, inst)
            wb = detect_bruteforce(c, inst)
            assert (wd is None) == (wb is None), f"verdicts differ on n={inst.n}"
            if wd is not None:
                assert wd == wb
                assert wd.revalidates(c, inst)
            checked += 1
    assert checked == 1000
    report(2, "detect_dp = detect_bruteforce on 1000 colourings, n in {7,14,15,31,63}")


def test_criterion_03_residue_sweep():
    started = time.monotonic()
    for k in range(3, 15):
        m = 2 ** (k + 1) - 2
        for t in range(1, m + 1):
            assert residue_check(k, t) is not None, f"no ordering for k={k}, t={t}"
    sweep_elapsed = time.monotonic() - started
    mismatches = 0
    for k in range(3, 7):
        d = power_tuple(k)
        for t in range(1, 51):
            arithmetic = residue_check(k, t) is not None
            detector = uniform_grid_copy(d, t) is not None
            mismatches += arithmetic != detector
    assert mismatches == 0
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"residue sweep took {elapsed:.1f}s, budget 600s"
    report(3, f"residue orderings exist for k in [3,14], all t; detector agrees "
              f"for k<=6, t<=50 ({elapsed:.1f}s)")


# Deterministic sample for criterion 4 (random.Random(0) over all valid
# tuples with denominators <= 12), witnesses verified at build time.
SAMPLED_TUPLES = [
    ("1/2", "2/5", "1/10"), ("1/2", "1/3", "1/6"), ("4/5", "1/10", "1/10"),
    ("3/5", "1/5", "1/5"), ("4/9", "4/9", "1/9"), ("5/11", "3/11", "3/11"),
    ("1/2", "3/8", "1/8"), ("5/9", "1/3", "1/9"), ("5/11", "4/11", "2/11"),
    ("6/11", "3/11", "2/11"),
    ("5/11", "4/11", "1/11", "1/11"), ("3/10", "3/10", "3/10", "1/10"),
    ("5/9", "1/6", "1/6", "1/9"), ("5/12", "2/5", "1/10", "1/12"),
    ("2/7", "2/7", "2/7", "1/7"), ("7/12", "1/6", "1/6", "1/12"),
    ("4/9", "2/9", "2/9", "1/9"), ("1/3", "1/3", "1/4", "1/12"),
    ("3/7", "2/7", "1/7", "1/7"), ("2/5", "3/8", "1/8", "1/10"),
]


def test_criterion_04_nonpower_witnesses():
    assert len(SAMPLED_TUPLES) == 20
    for raw in SAMPLED_TUPLES:
        d = DistanceTuple(tuple(F(s) for s in raw))
        assert not d.is_power()
        t = nonpower_witness(d, 50)
        assert t is not None, f"no witness t <= 50 for {raw}"
    assert nonpower_witness(DistanceTuple((F(1, 2), F(1, 3), F(1, 6))), 50) == 1
    assert nonpower_witness(power_tuple(3), 50) is None
    assert nonpower_witness(power_tuple(4), 50) is None
    report(4, "all 20 sampled non-power tuples have a witness t <= 50; "
              "the doubling tuples have none")


def test_criterion_05_beatty_suite():
    for k in range(3, 11):
        assert partition_check(power_pair(k), 100_000).ok, f"k={k}"
    word = word_from_pair(power_pair(3), 7)
    assert word == (1, 2, 1, 3, 1, 2, 1)
    assert densities(BalancedWord(word)) == (F(4, 7), F(2, 7), F(1, 7))
    for k in range(3, 11):
        rep = fraenkel_diagnostics(power_pair(k), 2 * (2**k - 1))
        assert rep.symmetric and all(rep.consecutive_ok) and rep.power_flag
    # randomized k = 3 sweep: no partitioning half-shifted pair but the
    # canonical one (a hit here would be a refutation and must fail loudly)
    rng = random.Random(50)
    power = power_pair(3)
    hits = []
    trials = 0
    while trials < 400:
        alphas = sorted(F(rng.randint(1, 16), rng.randint(1, 8)) for _ in range(3))
        if len(set(alphas)) < 3 or alphas[0] <= 0:
            continue
        trials += 1
        pair = BeattyPair.half_shift(tuple(alphas))
        p = pair.common_numerator()
        if partition_check(pair, 2 * p).ok:
            hits.append(pair)
    assert partition_check(power, 2 * 7).ok
    assert all(h.alphas == power.alphas for h in hits), \
        f"REFUTATION: unexpected partitioning pairs {hits}"
    report(5, "power pairs partition [0, 1e5) for k in [3,10]; diagnostics hold; "
              f"random sweep found no other pair in {trials} trials")


def test_criterion_06_jump_identity():
    for k in range(3, 11):
        d = power_tuple(k)
        for t in range(1, 10_001):
            jr = jump_counts(d, t)
            assert not jr.blocked, f"blocked at k={k}, t={t}"
            assert jr.identity_holds, f"identity fails at k={k}, t={t}"
    report(6, "jump counts never blocked and sum to t for k in [3,10], t <= 1e4")


def test_criterion_07_doubling_equivalence():
    for k in range(3, 13):
        m = 2 ** (k + 1) - 2
        for t in range(1, m + 1):
            orbit = orbit_from_uniform(k, t)
            pi = prefix_permutation(orbit)
            assert pi == prefix_order(orbit.xs), f"k={k}, t={t}"
            assert (pi is not None) == (residue_check(k, t) is not None), f"k={k}, t={t}"
    assert prefix_permutation([F(3, 5), F(3, 5), F(3, 5),
                               F(-9, 10), F(-9, 10)]) is None
    report(7, "prefix orderings match residue verdicts and the reference search "
              "for k in [3,12], all t; the five-value counterexample has none")


def test_criterion_08_parity():
    inst3 = discretize(power_tuple(3))
    assert count_copies(Colouring.from_string("R" * 7), inst3) == (14, 0)
    rng = random.Random(80)
    for k in (3, 4, 5):
        inst = discretize(power_tuple(k))
        for _ in range(10_000):
            c = Colouring.random(inst.n, rng)
            red, blue = count_copies(c, inst)
            assert (red + blue) % 2 == 0, f"odd copy count on {c.to_string()}"
    report(8, "copy counts even on 10^4 random colourings for each k in {3,4,5}; "
              "all-red 7-gon counts (14, 0)")


def test_criterion_09_robustness():
    checks = [((F(5, 8), F(1, 4), F(1, 8)), 8),
              ((F(3, 4), F(1, 6), F(1, 12)), 12),
              ((F(7, 12), F(1, 4), F(1, 6)), 12)]
    for raw, n in checks:
        started = time.monotonic()
        result = nearly_ramsey_finite_check(DistanceTuple(raw), n)
        elapsed = time.monotonic() - started
        assert result.verified, f"finite check failed for {raw} at N={n}"
        assert elapsed < 1.0, f"finite check for {raw} took {elapsed:.2f}s"
    triples = [power_tuple(3)] + [DistanceTuple(raw) for raw, _ in checks]
    for d in triples:
        t = strongly_suitable_search(d, 500)
        assert t is None, (f"REFUTATION: strongly-suitable t={t} for "
                           f"{d.distances}, contradicting the forcing result")
    report(9, "finite wildcard checks verified (N=8, 12, 12) under 1s each; "
              "no strongly-suitable t <= 500 for the four triples")


def _dfs_red_copy(params, grid):
    """The test-only depth-first search over the red class of the grid."""
    c = majority_colouring(params, grid)
    scale = grid // (2**params.k - 1)
    gaps = tuple(2**(params.k - 1 - i) * scale for i in range(params.k))
    return dfs_copy_in_class(c.red_mask, grid, gaps)


def test_criterion_10_majority():
    started = time.monotonic()
    params = MajorityParams(6, F(1, 100))
    verdict = majority_verify(params)
    elapsed = time.monotonic() - started
    assert verdict.grid == 25200
    assert verdict.no_red_copy, "REFUTATION: red copy in the majority colouring"
    assert verdict.density_gap == F(1, 40)
    assert elapsed < 300, f"majority verification took {elapsed:.1f}s, budget 300s"
    assert red_copy_exists_dp(params) is False
    assert _dfs_red_copy(params, 25200) is None   # independent route
    params7 = MajorityParams(7, F(1, 100))
    verdict7 = majority_verify(params7)
    assert verdict7.no_red_copy and verdict7.grid == 50800
    if os.environ.get("RAMSEY_ACCEPT_K7_MAJORITY") == "1":
        assert _dfs_red_copy(params7, 50800) is None
    report(10, f"no red copy on grid 25200 (k=6, eps=1/100) in {elapsed:.1f}s, "
               "nor on grid 50800 (k=7); density gap exactly 1/40")


def test_criterion_11_batch_determinism(tmp_path):
    reports = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"report-{workers}.json"
        code = dispatch(["--parallel", str(workers), "batch", str(SWEEP),
                         "--report", str(out)])
        assert code == 0, f"sweep failed at {workers} workers"
        reports[workers] = out.read_bytes()
    assert reports[1] == reports[4] == reports[8]
    body = json.loads(reports[1])
    assert body["failed"] == 0 and body["total"] >= 20
    report(11, f"batch sweep: {body['total']} items pass, byte-identical "
               "reports at 1, 4 and 8 workers")

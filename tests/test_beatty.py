"""Beatty partition checks, owner words, balance, and diagnostics."""

import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

from _reference import (beatty_term, fraenkel_report, owner_word,
                        partition_verdict, window_balance)
from ramsey_circle import beatty
from ramsey_circle.beatty import (BalancedWord, BeattyPair, PartitionError,
                                  PartitionVerdict, _mark_prefix, balanced_check,
                                  densities, fraenkel_diagnostics,
                                  partition_check, power_pair, word_from_pair)
from ramsey_circle.core import power_tuple


def brute_owners(pair, M):
    """Set-based oracle: explicit term sets per sequence."""
    hits = {}
    for i, (a, b) in enumerate(zip(pair.alphas, pair.betas), start=1):
        n = 0
        while True:
            v = (a * n + b).__floor__()
            if v >= M:
                break
            hits.setdefault(v, []).append(i)
            n += 1
    return hits


def test_beatty_term_examples():
    assert beatty_term(F(7, 4), F(7, 8), 0) == 0
    assert beatty_term(F(7), F(7, 2), 0) == 3
    assert beatty_term(F(1), F(0), 5) == 5


def test_beatty_term_matches_fraction_floor():
    rng = random.Random(11)
    for _ in range(300):
        alpha = F(rng.randint(1, 40), rng.randint(1, 12))
        beta = F(rng.randint(-30, 30), rng.randint(1, 12))
        n = rng.randint(0, 50)
        assert beatty_term(alpha, beta, n) == (alpha * n + beta).__floor__()


def test_partition_power_pair_ok():
    assert partition_check(power_pair(3), 10_000).ok


def test_partition_collision_reported_before_gap():
    # 0 is uncovered here, but the collision at 1 is what gets reported.
    verdict = partition_check(BeattyPair.half_shift((F(2), F(3), F(6))), 100)
    assert verdict.kind == "collision"
    assert verdict.value == 1
    assert verdict.sequences == (1, 2)


def test_partition_shifted_even_odd_split():
    pair = BeattyPair(alphas=(F(2), F(2)), betas=(F(1), F(0)))
    assert partition_check(pair, 100).ok
    assert word_from_pair(pair, 6) == (2, 1, 2, 1, 2, 1)


def test_partition_uncovered_zero_is_a_gap():
    pair = BeattyPair(alphas=(F(2), F(2)), betas=(F(1), F(2)))
    verdict = partition_check(pair, 100)
    assert verdict.kind == "gap" and verdict.value == 0
    with pytest.raises(PartitionError) as exc:
        word_from_pair(pair, 100)
    assert exc.value.verdict.value == 0


def test_partition_matches_brute_oracle():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(1, 3)
        alphas = sorted({F(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(k)})
        if not alphas:
            continue
        pair = BeattyPair.half_shift(tuple(alphas))
        M = 60
        hits = brute_owners(pair, M)
        verdict = partition_check(pair, M)
        clean = all(len(hits.get(v, [])) == 1 for v in range(M))
        assert verdict.ok == clean


def test_word_power_pair_period():
    assert word_from_pair(power_pair(3), 7) == (1, 2, 1, 3, 1, 2, 1)


def test_word_single_sequence():
    pair = BeattyPair(alphas=(F(1),), betas=(F(0),))
    assert word_from_pair(pair, 5) == (1, 1, 1, 1, 1)


def test_balanced_examples():
    assert balanced_check(BalancedWord((1, 2, 1, 3, 1, 2, 1))).balanced
    assert balanced_check(BalancedWord((1,))).balanced
    verdict = balanced_check(BalancedWord((1, 1, 2, 2)))
    assert not verdict.balanced
    assert verdict.letter == 1 and verdict.window_length == 2
    s1, s2 = verdict.positions
    # the two windows really do differ by 2 in letter-1 count
    ext = (1, 1, 2, 2) * 2
    count = lambda s: sum(1 for x in ext[s:s + 2] if x == 1)
    assert abs(count(s1) - count(s2)) == 2


def brute_balanced(period, max_len=None):
    """Window-by-window oracle over a few unrolled periods."""
    p = len(period)
    ext = period * 4
    for length in range(1, (max_len or p) + 1):
        for a in set(period):
            counts = {sum(1 for x in ext[s:s + length] if x == a)
                      for s in range(2 * p)}
            if max(counts) - min(counts) > 1:
                return False
    return True


def test_balanced_matches_brute_oracle():
    rng = random.Random(31)
    for _ in range(150):
        p = rng.randint(1, 8)
        period = [rng.randint(1, 3) for _ in range(p)]
        letters = sorted(set(period))
        relabel = {x: i + 1 for i, x in enumerate(letters)}
        period = tuple(relabel[x] for x in period)
        assert balanced_check(BalancedWord(period)).balanced == brute_balanced(period)


def test_balanced_complement_window_symmetry():
    # windows of length l and p - l violate together
    rng = random.Random(37)
    for _ in range(100):
        p = rng.randint(2, 9)
        period = tuple(sorted(rng.randint(1, 2) for _ in range(p)))
        if len(set(period)) < 2:
            continue
        w = BalancedWord(period)
        ext = period * 2
        for a in (1, 2):
            for length in range(1, p):
                counts = [sum(1 for x in ext[s:s + length] if x == a) for s in range(p)]
                co = [sum(1 for x in ext[s:s + p - length] if x == a) for s in range(p)]
                assert (max(counts) - min(counts) > 1) == (max(co) - min(co) > 1)


def test_densities_examples():
    assert densities(BalancedWord((1, 2, 1, 3, 1, 2, 1))) == (F(4, 7), F(2, 7), F(1, 7))
    assert densities(BalancedWord((1,))) == (F(1),)
    assert densities(BalancedWord((1, 2))) == (F(1, 2), F(1, 2))


def test_fraenkel_diagnostics_power3():
    report = fraenkel_diagnostics(power_pair(3), 100)
    assert report.period_length == 7
    assert report.period == (1, 2, 1, 3, 1, 2, 1)
    assert report.symmetric
    assert report.consecutive_ok == (True, True, True)
    assert report.densities == (F(4, 7), F(2, 7), F(1, 7))
    assert report.power_flag
    assert report.exact


def test_fraenkel_diagnostics_power4():
    report = fraenkel_diagnostics(power_pair(4), 2 * 15)
    assert report.period_length == 15
    assert report.power_flag and report.symmetric


def test_fraenkel_diagnostics_requires_half_shift():
    pair = BeattyPair(alphas=(F(2), F(3), F(7)), betas=(F(0), F(0), F(0)))
    with pytest.raises(ValueError):
        fraenkel_diagnostics(pair, 100)


def test_k3_period_is_palindrome():
    period = (1, 2, 1, 3, 1, 2, 1)
    assert period == period[::-1]


@pytest.mark.parametrize("k", range(3, 11))
def test_power_pairs_partition_and_balance(k):
    pair = power_pair(k)
    p = 2**k - 1
    assert partition_check(pair, 4 * p).ok
    word = word_from_pair(pair, 2 * p)
    assert word[:p] == word[p:]
    w = BalancedWord(word[:p])
    assert balanced_check(w).balanced
    assert densities(w) == power_tuple(k).distances
    # density of letter i is 1 / alpha_i
    assert densities(w) == tuple(1 / a for a in pair.alphas)


def test_word_density_consistency_on_random_partitioning_pairs():
    # partitioning pairs found by shifting an even/odd style split
    pair = BeattyPair(alphas=(F(2), F(2)), betas=(F(1), F(0)))
    word = word_from_pair(pair, 100)
    for letter, alpha in zip((1, 2), pair.alphas):
        freq = F(sum(1 for s in word if s == letter), len(word))
        assert freq == 1 / alpha


def outcome(f, pair, M):
    """A result, or the verdict of the PartitionError it raised."""
    try:
        return f(pair, M)
    except PartitionError as exc:
        return ("PartitionError", exc.verdict)


def shifted_partition(alphas, betas, c):
    """The partition of the naturals left by dropping the values below c of a
    partitioning pair and shifting the rest down by c: betas move to
    beta_i + alpha_i t_i - c, with t_i terms of sequence i below c."""
    new_betas = []
    for a, b in zip(alphas, betas):
        t = 0
        while (a * t + b).__floor__() < c:
            t += 1
        new_betas.append(b + a * t - c)
    return BeattyPair(alphas, tuple(new_betas))


def periodic_start(pair):
    return max(0, max(b.__floor__() for b in pair.betas) + 1)


def test_exact_prefix_matches_full_marking():
    rng = random.Random(41)
    bases = [power_pair(k) for k in range(1, 6)]
    bases += [BeattyPair((F(2), F(2)), (F(1), F(0))),
              BeattyPair((F(3),) * 3, (F(2), F(0), F(1))),
              BeattyPair((F(5, 2), F(5, 2), F(5)), (F(0), F(5, 4), F(5, 2)))]
    seen = {"ok": 0, "collision": 0, "gap": 0, "below": 0, "above": 0,
            "negative": 0, "equal": 0, "small": 0}
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.4:
            base = rng.choice(bases)
            pair = shifted_partition(base.alphas, base.betas, rng.randint(0, 40))
            if rng.random() < 0.25:
                i = rng.randrange(pair.k)
                betas = list(pair.betas)
                betas[i] += F(rng.randint(-3, 3), rng.randint(2, 9))
                pair = BeattyPair(pair.alphas, tuple(betas))
        else:
            k = rng.randint(1, 4)
            alphas = sorted(F(rng.randint(1, 16), rng.randint(1, 6)) for _ in range(k))
            if k > 1 and rng.random() < 0.3:
                alphas[1] = alphas[0]
            if roll < 0.6:
                pair = BeattyPair.half_shift(alphas)
            else:
                pair = BeattyPair(alphas, tuple(F(rng.randint(-30, 30), rng.randint(1, 6))
                                                for _ in range(k)))
        M = rng.randint(1, 400)
        expected = partition_verdict(pair, M)
        assert partition_check(pair, M) == expected, (pair, M)
        assert outcome(word_from_pair, pair, M) == outcome(owner_word, pair, M), (pair, M)
        seen[expected.kind] += 1
        bound = periodic_start(pair) + pair.common_numerator()
        seen["below" if M < bound else "above"] += 1
        seen["negative"] += any(b < 0 for b in pair.betas)
        seen["equal"] += len(set(pair.alphas)) < pair.k
        seen["small"] += pair.alphas[0] < 1
    assert min(seen.values()) >= 100, seen


def test_fraenkel_diagnostics_matches_full_word():
    rng = random.Random(43)
    pairs = [power_pair(k) for k in range(2, 6)]
    for _ in range(300):
        k = rng.randint(1, 4)
        alphas = sorted({F(rng.randint(1, 16), rng.randint(1, 6)) for _ in range(k)})
        pairs.append(BeattyPair.half_shift(alphas))
    compared = 0
    for pair in pairs:
        p = pair.common_numerator()
        if p > 100:
            continue
        for M in {2 * p, 2 * p + rng.randint(0, 3 * p), periodic_start(pair) + p + 7}:
            if M >= 2 * p:
                assert (outcome(fraenkel_diagnostics, pair, M)
                        == outcome(fraenkel_report, pair, M)), (pair, M)
                compared += 1
    assert compared >= 300


def test_partition_verdict_does_not_depend_on_a_huge_limit():
    M = 3 * 10**18
    assert partition_check(power_pair(3), M).ok
    verdict = partition_check(BeattyPair.half_shift((F(2), F(3), F(6))), M)
    assert (verdict.kind, verdict.value, verdict.sequences) == ("collision", 1, (1, 2))
    # terms n = 3 * 10^12, +1, +2 all hit 0; the terms before them are skipped
    slow = BeattyPair((F(1, 3),), (F(-10**12),))
    assert partition_check(slow, M) == PartitionVerdict("collision", 0, (1, 1))
    report = fraenkel_diagnostics(power_pair(3), M)
    assert report.exact and report == fraenkel_report(power_pair(3), 100)


def test_balanced_check_refuses_walks_above_its_budget(monkeypatch):
    # p distinct letters are charged p^2 steps for the range test, so 3163
    # of them are refused before a walk is built; two letters failing it
    # over p letters add 2 p^2 for the window search, so p = 2236 is refused
    # after the range test
    assert beatty.MAX_BALANCE_STEPS == 10**7
    assert balanced_check(BalancedWord(tuple(range(1, 3163)))).balanced
    verdict = balanced_check(BalancedWord((1,) * 1117 + (2,) * 1117))
    assert (verdict.letter, verdict.window_length) == (1, 2)
    with pytest.raises(ValueError, match="2236-letter period takes up to 10003864 walk steps, "
                                         "above the budget 10000000"):
        balanced_check(BalancedWord((1,) * 1118 + (2,) * 1118))
    monkeypatch.setattr(beatty, "accumulate", lambda *args, **kwargs: pytest.fail("walked"))
    with pytest.raises(ValueError, match="3163-letter period takes up to 10004569 walk steps"):
        balanced_check(BalancedWord(tuple(range(1, 3164))))


def test_balanced_check_matches_window_search():
    rng = random.Random(47)
    unbalanced = 0
    for _ in range(3000):
        p = rng.randint(1, 14)
        period = [rng.randint(1, 3) for _ in range(p)]
        relabel = {x: i + 1 for i, x in enumerate(sorted(set(period)))}
        period = tuple(relabel[x] for x in period)
        expected = window_balance(period)
        assert balanced_check(BalancedWord(period)) == expected, period
        unbalanced += not expected.balanced
    assert 300 <= unbalanced <= 2700


def letters_with_bad_windows(period):
    """The letters whose count differs by more than 1 over some two windows
    of one length, by counting every window of one unrolled period."""
    p = len(period)
    ext = tuple(period) * 2
    return [a for a in range(1, max(period) + 1)
            if any(max(c) - min(c) > 1 for c in
                   ([ext[s:s + l].count(a) for s in range(p)] for l in range(1, p + 1)))]


def test_balanced_check_matches_window_search_on_four_and_five_letters():
    # several letters fail the range test at once, and the first violating
    # length is often a later letter's: the walks keep the window search's
    # order, length outer and letter inner
    rng = random.Random(53)
    seen = {"balanced": 0, "several": 0, "later letter": 0}
    for _ in range(1500):
        p = rng.randint(4, 16)
        k = rng.choice((4, 5))
        period = [rng.randint(1, k) for _ in range(p)]
        relabel = {x: i + 1 for i, x in enumerate(sorted(set(period)))}
        period = tuple(relabel[x] for x in period)
        expected = window_balance(period)
        assert balanced_check(BalancedWord(period)) == expected, period
        bad = letters_with_bad_windows(period)
        seen["balanced"] += expected.balanced
        seen["several"] += len(bad) >= 2
        seen["later letter"] += not expected.balanced and expected.letter != bad[0]
    assert seen["balanced"] >= 50 and seen["several"] >= 600 and seen["later letter"] >= 150, seen


def test_marking_equal_sequences_holds_only_the_owner_list():
    # five copies of one sequence: the last four meet a marked value at
    # every term, and the marking holds no entry per collision
    pair = BeattyPair((F(100_001, 100_000),) * 5, (F(0),) * 5)
    L = periodic_start(pair) + pair.common_numerator()
    tracemalloc.start()
    try:
        verdict = partition_check(pair, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == PartitionVerdict("collision", 0, (1, 2))
    assert peak < 2 * sys.getsizeof([0] * L)


def marking_lines(pair, M):
    """Lines of `_mark_prefix` run while checking pair on [0, M): a count
    of the work done that does not depend on the clock."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace if frame.f_code is _mark_prefix.__code__ else None)
    try:
        partition_check(pair, M)
    finally:
        sys.settrace(previous)
    return lines


def test_a_sequence_stops_marking_at_its_first_collision():
    # the four copies of sequence 1 each stop at value 0: barely more lines
    # than marking sequence 1 alone, not five times as many
    alpha = F(1001, 1000)
    one = marking_lines(BeattyPair((alpha,), (F(0),)), 10**6)
    five = marking_lines(BeattyPair((alpha,) * 5, (F(0),) * 5), 10**6)
    assert one > 3000 and five < one + 100, (one, five)


def test_power_word_k10_matches_full_marking():
    pair = power_pair(10)
    p = pair.common_numerator()
    M = 3 * p + 5
    word = word_from_pair(pair, M)
    assert word == owner_word(pair, M)
    assert partition_check(pair, M) == partition_verdict(pair, M)
    assert fraenkel_diagnostics(pair, M) == fraenkel_report(pair, M)
    assert balanced_check(BalancedWord(word[:p])) == window_balance(word[:p])

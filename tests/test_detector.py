"""Detectors: oracle agreement, witnesses, counting, parity, symmetries."""

import itertools
import random
import time
import tracemalloc

import pytest

from _reference import dfs_copy_in_class, rotated, swapped
from ramsey_circle import detector
from ramsey_circle.core import Colouring, DiscreteInstance, discretize, power_tuple
from ramsey_circle.detector import (CopyWitness, count_copies, cyclic_canonical,
                                    detect_bruteforce, detect_dp,
                                    find_copy_in_class)


def oracle_copies(c: Colouring, inst: DiscreteInstance):
    """Independent enumeration used as the test oracle: walk every start and
    every permutation, deduplicate by vertex set, classify by colour."""
    seen = set()
    red, blue = [], []
    red_class = c.class_mask("R")
    blue_class = c.class_mask("B")
    for v in range(inst.n):
        for perm in itertools.permutations(inst.gaps):
            vertices = [v]
            for g in perm[:-1]:
                vertices.append((vertices[-1] + g) % inst.n)
            key = frozenset(vertices)
            if key in seen:
                continue
            seen.add(key)
            if all(red_class >> u & 1 for u in vertices):
                red.append(key)
            if all(blue_class >> u & 1 for u in vertices):
                blue.append(key)
    return red, blue


def oracle_witness(c: Colouring, inst: DiscreteInstance, restriction=None):
    """The least witness by modular walks: every start, every distinct gap
    order in lexicographic order, a walk that dips below its start skipped."""
    orders = sorted(set(itertools.permutations(inst.gaps)))
    if restriction is not None:
        allowed = {cyclic_canonical(r) for r in restriction}
        orders = [o for o in orders if cyclic_canonical(o) in allowed]
    classes = (("Red", c.class_mask("R")), ("Blue", c.class_mask("B")))
    for v in range(inst.n):
        for order in orders:
            vertices = [v]
            for g in order[:-1]:
                vertices.append((vertices[-1] + g) % inst.n)
            if min(vertices) < v:
                continue
            for name, cls in classes:
                if all(cls >> u & 1 for u in vertices):
                    suffix = "OrBlack" if c.black in vertices else ""
                    return CopyWitness(tuple(vertices), order, name + suffix)
    return None


def random_restriction(rng, gaps):
    """One to three cyclic orders of the gaps, some of them rotated."""
    orders = sorted(set(itertools.permutations(gaps)))
    chosen = rng.sample(orders, rng.randint(1, min(3, len(orders))))
    return [o[i:] + o[:i] for o in chosen for i in [rng.randrange(len(o))]]


P3 = discretize(power_tuple(3))


def test_all_red_has_witness():
    c = Colouring.from_string("R" * 7)
    w = detect_bruteforce(c, P3)
    assert w is not None and w.colour == "Red"
    assert w.revalidates(c, P3)


def test_split_colouring_witness_is_smallest():
    c = Colouring.from_string("RRRRBBB")
    w = detect_bruteforce(c, P3)
    assert w == CopyWitness(vertices=(0, 1, 3), gap_order=(1, 2, 4), colour="Red")


def test_no_copy_in_even_split_hexagon():
    c = Colouring.from_string("RRRBBB")
    inst = DiscreteInstance(n=6, gaps=(3, 2, 1))
    # {3} and {2, 1} share a sum; the DP indexes sub-multisets, not lengths
    assert detect_dp(c, inst) is None
    assert detect_bruteforce(c, inst) is None


def test_dp_agrees_on_split_colouring():
    c = Colouring.from_string("RRRRBBB")
    assert detect_dp(c, P3) == detect_bruteforce(c, P3)


def test_dp_duplicate_gaps_match_bruteforce():
    inst = DiscreteInstance(n=7, gaps=(2, 2, 3))
    c = Colouring.from_string("RRRRBBB")
    assert detect_dp(c, inst) == detect_bruteforce(c, inst) is None
    c = Colouring.from_string("RRRRRBB")
    assert detect_dp(c, inst) == detect_bruteforce(c, inst) == CopyWitness(
        vertices=(0, 2, 4), gap_order=(2, 2, 3), colour="Red")
    c = Colouring.from_string("RRRRBBB", black=6)
    assert detect_dp(c, inst) == detect_bruteforce(c, inst) == CopyWitness(
        vertices=(1, 3, 6), gap_order=(2, 3, 2), colour="RedOrBlack")


def test_dp_on_uniform_fourteen_gon():
    c = Colouring.from_string("R" * 7 + "B" * 7)
    inst = discretize(power_tuple(3), 2)
    w = detect_dp(c, inst)
    assert w == CopyWitness(vertices=(0, 2, 6), gap_order=(2, 4, 8), colour="Red")


def test_dp_matches_bruteforce_on_every_small_colouring():
    # distinct sums, a repeated gap, and colliding subset sums; every
    # colouring, without and with each black vertex
    for inst in (P3, DiscreteInstance(n=7, gaps=(3, 2, 2)),
                 DiscreteInstance(n=6, gaps=(3, 2, 1))):
        for mask in range(1 << inst.n):
            for black in (None, *range(inst.n)):
                c = Colouring(inst.n, mask, black=black)
                assert detect_dp(c, inst) == detect_bruteforce(c, inst), (inst, c)


def test_count_all_red():
    assert count_copies(Colouring.from_string("R" * 7), P3) == (14, 0)


def test_count_all_blue():
    assert count_copies(Colouring.from_string("B" * 7), P3) == (0, 14)


def test_count_split_frozen():
    # Exhaustive enumeration of all 14 copies gives 2 red, 0 blue.
    c = Colouring.from_string("RRRRBBB")
    assert count_copies(c, P3) == (2, 0)
    red, blue = oracle_copies(c, P3)
    assert (len(red), len(blue)) == (2, 0)


def test_count_rejects_duplicate_gaps_and_black():
    with pytest.raises(ValueError, match=r"got 3 gaps in which 3 appears 2 times$"):
        count_copies(Colouring.from_string("RRRRBBB"), DiscreteInstance(7, (3, 3, 1)))
    with pytest.raises(ValueError):
        count_copies(Colouring(7, 0b1010101, black=0), P3)


def test_total_copies_formula():
    # every copy is red on the all-red colouring: n (k-1)! for distinct gaps
    for k in (3, 4, 5):
        inst = discretize(power_tuple(k))
        expected = (2**k - 1)
        for i in range(2, k):
            expected *= i
        assert count_copies(Colouring.from_string("R" * inst.n), inst) == (expected, 0)


@pytest.mark.parametrize("n,k,mult", [(7, 3, 1), (14, 3, 2), (15, 4, 1), (31, 5, 1)])
def test_detectors_match_oracle(n, k, mult):
    inst = discretize(power_tuple(k), mult)
    rng = random.Random(n * 1000 + k)
    for _ in range(60):
        c = Colouring.random(n, rng)
        red, blue = oracle_copies(c, inst)
        expected = bool(red or blue)
        wb = detect_bruteforce(c, inst)
        wd = detect_dp(c, inst)
        assert (wb is not None) == expected
        assert (wd is not None) == expected
        if expected:
            assert wb == wd
            assert wb.revalidates(c, inst)
            assert frozenset(wb.vertices) in (red + blue)


def distinct_subset_sum_instances(rng, count):
    """Random gap tuples whose subsets all have different sums, including
    shapes with unrealizable intermediate arc lengths."""
    out = []
    while len(out) < count:
        k = rng.randint(3, 5)
        gaps = sorted(rng.sample(range(1, 14), k), reverse=True)
        sums = [sum(g for i, g in enumerate(gaps) if bits >> i & 1)
                for bits in range(1 << k)]
        if len(set(sums)) == len(sums):
            out.append(DiscreteInstance(n=sum(gaps), gaps=tuple(gaps)))
    return out


def repeated_gap_instances(rng, count):
    """Random gap tuples with at least one repeated value."""
    out = []
    while len(out) < count:
        gaps = tuple(rng.randint(1, 5) for _ in range(rng.randint(3, 5)))
        if len(set(gaps)) < len(gaps):
            out.append(DiscreteInstance(n=sum(gaps), gaps=gaps))
    return out


def test_detectors_match_oracle_on_general_instances():
    rng = random.Random(12)
    instances = distinct_subset_sum_instances(rng, 25) + repeated_gap_instances(rng, 15)
    restricted = 0
    for inst in instances:
        distinct = len(set(inst.gaps)) == inst.k
        for _ in range(40):
            black = rng.randrange(inst.n) if rng.random() < 0.3 else None
            c = Colouring(inst.n, rng.getrandbits(inst.n), black=black)
            red, blue = oracle_copies(c, inst)
            expected = bool(red or blue)
            wb = detect_bruteforce(c, inst)
            wd = detect_dp(c, inst)
            assert (wb is not None) == expected, (inst, c.to_string())
            assert wd == wb == oracle_witness(c, inst), (inst, c.to_string())
            if expected:
                assert wb.revalidates(c, inst)
            if distinct and black is None:
                assert count_copies(c, inst) == (len(red), len(blue)), (inst, c.to_string())
            if rng.random() < 0.3:
                restriction = random_restriction(rng, inst.gaps)
                assert (detect_bruteforce(c, inst, restriction)
                        == oracle_witness(c, inst, restriction)), (inst, c, restriction)
                restricted += 1
    assert restricted > 300


def test_detectors_match_oracle_with_black():
    inst = discretize(power_tuple(3))
    rng = random.Random(99)
    for _ in range(80):
        c = Colouring(7, rng.getrandbits(7), black=rng.randrange(7))
        red, blue = oracle_copies(c, inst)
        expected = bool(red or blue)
        wb = detect_bruteforce(c, inst)
        assert (wb is not None) == expected
        assert detect_dp(c, inst) == wb
        if wb is not None:
            assert wb.revalidates(c, inst)
            if c.black in wb.vertices:
                assert wb.colour.endswith("OrBlack")


def test_rotation_equivariance():
    inst = discretize(power_tuple(4))
    rng = random.Random(7)
    for _ in range(25):
        c = Colouring.random(15, rng)
        w = detect_bruteforce(c, inst)
        for r in (1, 4, 11):
            wr = detect_bruteforce(rotated(c, r), inst)
            assert (w is None) == (wr is None)
            if w is not None:
                assert wr.revalidates(rotated(c, r), inst)
                # rotating the found witness by r gives a copy of the
                # rotated colouring with the same colour
                shifted = CopyWitness(tuple((v + r) % 15 for v in w.vertices),
                                      w.gap_order, w.colour)
                assert shifted.revalidates(rotated(c, r), inst)


def test_colour_swap_symmetry():
    inst = discretize(power_tuple(3))
    rng = random.Random(8)
    for _ in range(50):
        c = Colouring.random(7, rng)
        assert count_copies(c, inst) == count_copies(swapped(c), inst)[::-1]
        w = detect_bruteforce(c, inst)
        ws = detect_bruteforce(swapped(c), inst)
        assert (w is None) == (ws is None)
        if w is not None:
            assert w.vertices == ws.vertices and w.gap_order == ws.gap_order
            assert {w.colour, ws.colour} == {"Red", "Blue"}


def test_restriction_limits_orders():
    c = Colouring.from_string("RRRRBBB")
    # Only the cyclic order starting 4,2,1 is allowed: the smallest witness
    # under it differs from the unrestricted one.
    w = detect_bruteforce(c, P3, restriction=[(4, 2, 1)])
    assert w is not None
    assert cyclic_canonical(w.gap_order) == (1, 4, 2)
    none = detect_bruteforce(Colouring.from_string("RRBRBBR"), P3,
                             restriction=[(4, 2, 1)])
    full = detect_bruteforce(Colouring.from_string("RRBRBBR"), P3)
    assert none is None or full is not None


def test_restriction_monotonicity():
    inst = P3
    rng = random.Random(17)
    small = [(4, 2, 1)]
    large = [(4, 2, 1), (4, 1, 2)]
    for _ in range(60):
        c = Colouring.random(7, rng)
        w_small = detect_bruteforce(c, inst, restriction=small)
        w_large = detect_bruteforce(c, inst, restriction=large)
        w_all = detect_bruteforce(c, inst)
        if w_small is not None:
            assert w_large is not None and w_all is not None


def test_order_plan_presents_exactly_the_modular_walks():
    # the plan's walk from v < order[-1], shifted by v, is the modular walk
    # from v that never dips below v, and v >= order[-1] always dips
    rng = random.Random(3)
    for _ in range(40):
        gaps = tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 5))))
        n = sum(gaps)
        plan = detector._orders(gaps)
        assert [order for order, _, _ in plan] == sorted(set(itertools.permutations(gaps)))
        for order, offsets, mask in plan:
            assert mask == sum(1 << o for o in offsets)
            for v in range(n):
                walk = [v]
                for g in order[:-1]:
                    walk.append((walk[-1] + g) % n)
                assert (min(walk) == v) == (v < order[-1]), (gaps, order, v)
                if v < order[-1]:
                    assert walk == [v + o for o in offsets]


def test_find_copy_in_class_matches_detector():
    # the class query against the test-only depth-first search, and against
    # brute force whenever the least monochromatic copy is red
    inst = discretize(power_tuple(3))
    rng = random.Random(4)
    for _ in range(60):
        c = Colouring.random(7, rng)
        red_found = find_copy_in_class(c.red_mask, 7, inst.gaps)
        assert red_found == dfs_copy_in_class(c.red_mask, 7, inst.gaps)
        w = detect_bruteforce(c, inst)
        if w is not None and w.colour == "Red":
            assert red_found == (w.vertices, w.gap_order)
        if red_found is not None:
            vertices, order = red_found
            assert all(c.is_red(v) for v in vertices)
            assert sorted(order) == sorted(inst.gaps)
            assert vertices[0] == min(vertices)


def test_dp_matches_bruteforce_on_repeated_and_colliding_gaps():
    rng = random.Random(2025)
    repeated = colliding = black_used = 0
    for _ in range(600):
        k = rng.randint(3, 5)
        gaps = tuple(rng.randint(1, 6) for _ in range(k))
        inst = DiscreteInstance(n=sum(gaps), gaps=gaps)
        sums = [sum(g for i, g in enumerate(gaps) if bits >> i & 1)
                for bits in range(1 << k)]
        repeated += len(set(gaps)) < k
        colliding += len(set(sums)) < len(sums)
        black = rng.randrange(inst.n) if rng.random() < 0.5 else None
        black_used += black is not None
        c = Colouring(inst.n, rng.getrandbits(inst.n), black=black)
        w = detect_dp(c, inst)
        assert w == detect_bruteforce(c, inst) == oracle_witness(c, inst), (gaps, c)
        if rng.random() < 0.3:
            restriction = random_restriction(rng, gaps)
            assert (detect_bruteforce(c, inst, restriction)
                    == oracle_witness(c, inst, restriction)), (gaps, c, restriction)
        red = c.class_mask("R")
        assert find_copy_in_class(red, inst.n, gaps) == dfs_copy_in_class(red, inst.n, gaps)
        if w is not None:
            assert w.revalidates(c, inst)
    assert min(repeated, colliding, black_used) > 100


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        detect_bruteforce(Colouring.from_string("RRRB"), P3)
    with pytest.raises(ValueError):
        detect_dp(Colouring.from_string("RRRB"), P3)


def test_many_distinct_gaps_are_refused_before_the_plan(monkeypatch):
    # 27 distinct gaps: 2^27 sub-multiset states; the kernel's first state
    # rotates the class mask, so the refusal comes before any state is built
    monkeypatch.setattr(detector, "rotate_mask", lambda *args: pytest.fail("state built"))
    gaps = tuple(range(1, 28))
    n = sum(gaps)
    with pytest.raises(ValueError, match="above the detector budget"):
        find_copy_in_class((1 << n) - 1, n, gaps)
    with pytest.raises(ValueError, match="above the detector budget"):
        detect_dp(Colouring(n=n, red_mask=(1 << n) - 1), DiscreteInstance(n, gaps))


def test_repeated_gaps_are_budgeted_by_their_sub_multisets():
    # forty equal gaps have 41 sub-multisets, far below the 2^40 bound
    n = 40
    assert find_copy_in_class((1 << n) - 1, n, (1,) * n) == (tuple(range(n)), (1,) * n)


@pytest.mark.parametrize("top, admitted", [(21, True), (22, False)])
def test_the_budget_charges_each_distinct_gap_value(monkeypatch, top, admitted):
    # 1..21: 2^21 states of 231 + 512 * 21 bits, 2.3e10; 1..22 needs 4.8e10.
    # The n-bit masks alone (6e8 and 1.1e9 bits) would admit both.
    class Admitted(Exception):
        pass

    def rotate_mask(mask, r, n):
        raise Admitted

    monkeypatch.setattr(detector, "rotate_mask", rotate_mask)
    gaps = tuple(range(1, top + 1))
    n = sum(gaps)
    with pytest.raises(Admitted if admitted else ValueError):
        find_copy_in_class((1 << n) - 1, n, gaps)


def test_many_distinct_gaps_keep_no_table_per_state():
    # 4096 states of a 78-bit mask; a table of predecessor tuples took 2.6 MB
    gaps = tuple(range(1, 13))
    n = sum(gaps)
    tracemalloc.start()
    try:
        assert find_copy_in_class((1 << n) - 1, n, gaps) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_eight_hundred_repeated_gaps_are_answered():
    # 401 * 401 states of 1200 + 2 * 512 bits, far below the budget; charged
    # 512 bits per gap rather than per distinct value it was refused
    n, gaps = 1200, (2,) * 400 + (1,) * 400
    inst = DiscreteInstance(n, gaps)
    full = (1 << n) - 1
    w = detect_dp(Colouring(n, full), inst)
    assert w.vertices[:401] == tuple(range(401)) and w.gap_order == (1,) * 400 + (2,) * 400
    assert w.revalidates(Colouring(n, full), inst)
    # without vertex 600 a step of 2 crosses it; no step of 1 or 2 crosses
    # both 600 and 601, and every copy goes once round the circle
    holed = Colouring(n, full ^ 1 << 600)
    vertices, order = find_copy_in_class(holed.red_mask, n, gaps)
    assert CopyWitness(vertices, order, "Red").revalidates(holed, inst)
    assert find_copy_in_class(full ^ 3 << 600, n, gaps) is None


def test_bruteforce_on_a_large_circle_keeps_no_colouring_sized_table():
    # n = 66666 with three distinct gaps: the plan holds 6 orders, whatever n is
    n = 66666
    c = Colouring(n, int("01" * (n // 2), 2))
    inst = DiscreteInstance(n, (33333, 22222, 11111))
    tracemalloc.start()
    try:
        assert count_copies(c, inst) == (0, 0)
        assert detect_bruteforce(c, inst) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def test_bruteforce_scan_above_the_word_budget_is_refused():
    # three gaps on n = 300006: 600012 copies, each shifting a 4688-word
    # mask, a scan of seconds; refused before it starts
    n = 300006
    c = Colouring(n, int("01" * (n // 2), 2))
    inst = DiscreteInstance(n, (150003, 100002, 50001))
    started = time.perf_counter()
    for restriction in (None, [inst.gaps]):
        with pytest.raises(ValueError, match="above the brute-force scan budget"):
            detect_bruteforce(c, inst, restriction)
    assert time.perf_counter() - started < 1.0
    assert count_copies(c, inst) == (0, 0)   # m k n-bit operations: on the copy budget


@pytest.mark.parametrize("gaps", [tuple(range(1, 10)), (1, 2, 3, 4, 5, 6, 7, 8, 100)])
def test_bruteforce_above_the_budget_is_refused_before_the_plan(gaps):
    # 9 distinct gaps: 362880 orders (about 1.4 s to build) and 362880 n / 9
    # copies, refused before any is built
    started = time.perf_counter()
    inst = DiscreteInstance(sum(gaps), gaps)
    c = Colouring(inst.n, 0)
    with pytest.raises(ValueError, match="above the brute-force budget"):
        detect_bruteforce(c, inst)
    with pytest.raises(ValueError, match="above the brute-force budget"):
        detect_bruteforce(c, inst, restriction=[gaps])
    with pytest.raises(ValueError, match="above the brute-force budget"):
        count_copies(c, inst)
    assert time.perf_counter() - started < 1.0


def test_bruteforce_budget_admits_the_sat_recheck_and_counts_distinct_orders():
    # the SAT re-check at k = 8 on Z_255: 40320 orders, 1285200 copies
    inst = discretize(power_tuple(8))
    assert len(detector._orders(inst.gaps)) == 40320
    w = detect_bruteforce(Colouring(255, 0), inst)
    assert w == CopyWitness((0, 1, 3, 7, 15, 31, 63, 127), tuple(sorted(inst.gaps)), "Blue")
    # forty equal gaps have one order, however many permutations they have
    n = 40
    w = detect_bruteforce(Colouring(n, (1 << n) - 1), DiscreteInstance(n, (1,) * n))
    assert w == CopyWitness(tuple(range(n)), (1,) * n, "Red")


def test_bruteforce_budget_charges_the_plans_gap_slots(monkeypatch):
    # (3, 2) and 98 ones on Z_103: 9900 orders give only 10197 copies, but
    # the plan would hold 990000 gap slots; refused before it is built
    monkeypatch.setattr(detector, "BRUTE_LIMIT", 100_000)
    with pytest.raises(ValueError, match="990000 plan slots of 9900 gap orders are above "
                                         "the brute-force budget of 100000"):
        detector._orders.__wrapped__((3, 2) + (1,) * 98)

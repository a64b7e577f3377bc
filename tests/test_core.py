"""Data model: exact tuples, discretisation, colouring file format."""

import random
from fractions import Fraction as F

import pytest
from _reference import rotated, swapped
from hypothesis import given, strategies as st

from ramsey_circle.core import (GRID_LIMIT, Colouring, DiscreteInstance,
                                DistanceTuple, ParseError, common_grid,
                                discretize, grid_units, parse_colouring,
                                parse_fraction, parse_fraction_list,
                                power_tuple, serialize_colouring)


def test_power_tuple_k3():
    assert power_tuple(3).distances == (F(4, 7), F(2, 7), F(1, 7))


def test_power_tuple_k4():
    assert power_tuple(4).distances == (F(8, 15), F(4, 15), F(2, 15), F(1, 15))


def test_power_tuple_k10_sums_to_one_exactly():
    assert sum(power_tuple(10).distances) == 1


def test_power_tuple_rejects_small_k():
    with pytest.raises(ValueError):
        power_tuple(2)


@pytest.mark.parametrize("k", range(3, 21))
def test_power_tuples_sum_to_one_and_decrease(k):
    d = power_tuple(k).distances
    assert sum(d) == 1
    assert all(a > b for a, b in zip(d, d[1:]))


def test_discretize_power3():
    inst = discretize(power_tuple(3))
    assert (inst.n, inst.gaps) == (7, (4, 2, 1))


def test_discretize_multiplier():
    inst = discretize(power_tuple(3), 2)
    assert (inst.n, inst.gaps) == (14, (8, 4, 2))


def test_discretize_mixed_denominators():
    inst = discretize(DistanceTuple((F(1, 2), F(1, 3), F(1, 6))))
    assert (inst.n, inst.gaps) == (6, (3, 2, 1))


def random_tuple(rng):
    """A random distance tuple whose reduced denominators differ."""
    k = rng.randint(3, 6)
    q = rng.randint(k, 60)
    cuts = sorted(rng.sample(range(1, q), k - 1))
    parts = sorted((b - a for a, b in zip([0, *cuts], [*cuts, q])), reverse=True)
    return DistanceTuple(tuple(F(p, q) for p in parts))


def test_on_matches_exact_scaling_and_refuses_misfits():
    # the integer scaling against int(d_i * n) on exact fractions; an n that
    # some denominator does not divide is refused, never rounded
    rng = random.Random(11)
    fitted = refused = 0
    for _ in range(400):
        d = random_tuple(rng)
        lcm = d.lcm_denominator()
        n = rng.choice((lcm * rng.randint(1, 3), rng.randint(1, 3 * lcm)))
        if any(n % q for q in d.denominators):
            with pytest.raises(ValueError):
                d.on(n)
            refused += 1
            continue
        inst = d.on(n)
        assert (inst.n, inst.gaps) == (n, tuple(int(x * n) for x in d.distances))
        assert grid_units(d.distances, n) == inst.gaps
        assert d.numerators == d.on(lcm).gaps and sum(d.numerators) == lcm
        fitted += 1
        assert discretize(d, n // lcm) == inst
    assert fitted >= 100 and refused >= 100


def test_common_grid_is_the_lcm_within_the_budget():
    assert common_grid(6, 4, 2**6 - 1) == 252
    assert common_grid(2 * 5_000_000, 5) == GRID_LIMIT
    for over in ((GRID_LIMIT + 1,), (2 * 6_000_000, 6), (16 * 100_000_000, 63)):
        with pytest.raises(ValueError, match="above the limit"):
            common_grid(*over)


def arc_colour(arcs, v):
    """Per-vertex definition: v is red iff the arc holding it has an even
    index."""
    for j, length in enumerate(arcs):
        if v < length:
            return j % 2 == 0
        v -= length


def test_from_arcs_matches_the_per_vertex_definition():
    rng = random.Random(19)
    for _ in range(300):
        arcs = [rng.randint(1, 9) for _ in range(rng.randint(1, 10))]
        c = Colouring.from_arcs(arcs)
        assert c.n == sum(arcs) and c.black is None
        assert [c.is_red(v) for v in range(c.n)] == [arc_colour(arcs, v) for v in range(c.n)]


@pytest.mark.parametrize("arcs", [(), (3, 0, 2), (2, -1)])
def test_from_arcs_refuses_bad_arcs(arcs):
    with pytest.raises(ValueError):
        Colouring.from_arcs(arcs)


def test_to_string_matches_the_per_vertex_colours():
    # one character per vertex, vertex 0 first, including masks whose high
    # bits are clear (leading B) and n = 1
    rng = random.Random(23)
    cases = [Colouring(n=1, red_mask=0), Colouring(n=1, red_mask=1),
             Colouring(n=9, red_mask=0b101), Colouring(n=64, red_mask=1)]
    for _ in range(300):
        n = rng.randint(1, 300)
        cases.append(Colouring(n=n, red_mask=rng.getrandbits(n) >> rng.randint(0, n)))
    for c in cases:
        assert c.to_string() == "".join("RB"[not c.is_red(v)] for v in range(c.n)), c


@pytest.mark.parametrize("k", range(3, 11))
def test_power_instance_subset_sums_distinct(k):
    inst = discretize(power_tuple(k))
    assert inst.n == 2**k - 1
    assert inst.gaps == tuple(2**(k - 1 - i) for i in range(k))
    sums = set()
    for bits in range(1 << k):
        s = sum(g for i, g in enumerate(inst.gaps) if bits >> i & 1)
        assert s not in sums
        sums.add(s)
    assert sums == set(range(2**k))


def test_distance_tuple_validation():
    with pytest.raises(ValueError):
        DistanceTuple((F(1, 2), F(1, 2)))                      # k < 3
    with pytest.raises(ValueError):
        DistanceTuple((F(1, 3), F(1, 3), F(1, 4)))             # sum != 1
    with pytest.raises(ValueError):
        DistanceTuple((F(1, 6), F(1, 3), F(1, 2)))             # not sorted
    with pytest.raises(ValueError):
        DistanceTuple((F(3, 2), F(-1, 4), F(-1, 4)))           # not positive


def test_discrete_instance_validation():
    with pytest.raises(ValueError):
        DiscreteInstance(n=7, gaps=(4, 2))
    with pytest.raises(ValueError):
        DiscreteInstance(n=7, gaps=(4, 2, 0, 1))


def test_parse_fraction():
    assert parse_fraction("4/7") == F(4, 7)
    assert parse_fraction("-9/10") == F(-9, 10)
    assert parse_fraction("3") == 3
    assert parse_fraction_list("4/7,2/7,1/7") == (F(4, 7), F(2, 7), F(1, 7))


@pytest.mark.parametrize("bad", ["0.5", "1/0", "sqrt2", "", "1/2/3"])
def test_parse_fraction_rejects_inexact(bad):
    with pytest.raises(ParseError):
        parse_fraction(bad)


def test_parse_colouring_basic():
    c = parse_colouring("7\nRRRRBBB\n")
    assert c.n == 7
    assert [c.is_red(v) for v in range(7)] == [True] * 4 + [False] * 3
    assert c.black is None


def test_parse_colouring_black_marker():
    c = parse_colouring("6\nRRRBBB\nblack 0\n")
    assert c.black == 0
    assert c.class_mask("R") & 1
    assert c.class_mask("B") & 1


def test_parse_colouring_length_mismatch():
    with pytest.raises(ParseError) as exc:
        parse_colouring("7\nRRRRBB\n")
    assert exc.value.line == 2


def test_parse_colouring_bad_character():
    with pytest.raises(ParseError) as exc:
        parse_colouring("3\nRXB\n")
    assert (exc.value.line, exc.value.column) == (2, 2)


def per_vertex_mask(chars):
    """Per-vertex definition: bit v is set iff character v is R; the first
    character that is neither R nor B gives its 1-based column."""
    mask = 0
    for v, ch in enumerate(chars):
        if ch == "R":
            mask |= 1 << v
        elif ch != "B":
            return None, v + 1
    return mask, None


def test_colour_strings_parse_as_the_per_vertex_definition():
    # both readers share one linear mask conversion: leading and trailing
    # blue, n = 1, and the column of the first bad character
    rng = random.Random(31)
    strings = ["R", "B", "BBR", "RBB", "RB" * 40, "x", "RRB\r", "R B", "BRRé"]
    for _ in range(300):
        chars = [rng.choice("RB") for _ in range(rng.randint(1, 200))]
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 3)):
                chars[rng.randrange(len(chars))] = rng.choice("rbX0 -_+")
        strings.append("".join(chars))
    bad = 0
    for chars in strings:
        mask, column = per_vertex_mask(chars)
        if column is None:
            assert Colouring.from_string(chars).red_mask == mask, chars
            c = parse_colouring(f"{len(chars)}\n{chars}\n")
            assert (c.n, c.red_mask) == (len(chars), mask), chars
            continue
        bad += 1
        with pytest.raises(ValueError, match="invalid colour character"):
            Colouring.from_string(chars)
        with pytest.raises(ParseError) as exc:
            parse_colouring(f"{len(chars)}\n{chars}\n")
        assert (exc.value.line, exc.value.column) == (2, column), chars
        assert str(exc.value) == (f"invalid colour character {chars[column - 1]!r} "
                                  f"(line 2, column {column})")
    assert bad >= 50


def test_colour_string_parse_at_a_large_n():
    # a size where a per-vertex shift-or into the mask took seconds
    n = 800_000
    chars = "RB" * (n // 2)
    c = parse_colouring(f"{n}\n{chars}\n")
    assert c.red_mask == int("01" * (n // 2), 2)
    assert c.to_string() == chars


def test_parse_colouring_bad_n():
    with pytest.raises(ParseError) as exc:
        parse_colouring("0\n\n")
    assert exc.value.line == 1


def test_round_trip_all_sizes():
    rng = random.Random(0)
    for n in range(1, 1001):
        c = Colouring.random(n, rng)
        assert parse_colouring(serialize_colouring(c)) == c


@given(st.integers(min_value=1, max_value=200), st.randoms(use_true_random=False))
def test_round_trip_with_black(n, rng):
    c = Colouring(n=n, red_mask=rng.getrandbits(n), black=rng.randrange(n))
    assert parse_colouring(serialize_colouring(c)) == c


def test_rotation_composes():
    rng = random.Random(1)
    c = Colouring.random(40, rng)
    assert rotated(rotated(c, 13), 27) == c
    assert rotated(c, 0) == c


def test_swap_involution():
    rng = random.Random(2)
    c = Colouring.random(17, rng)
    assert swapped(swapped(c)) == c
    assert swapped(c).red_mask == c.blue_mask

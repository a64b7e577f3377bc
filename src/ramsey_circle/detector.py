"""Monochromatic-copy detection in colourings of Z_n.

`detect_bruteforce` and `count_copies` scan every (start, gap order) pair
directly and are the independent oracle.  Their plan, `_orders`, is cached
per gap tuple: every distinct gap order in lexicographic order, with the
offsets of its walk from vertex 0 and their mask.  The walk of an order from
v reaches its highest vertex, v + n - order[-1], last, so it presents a copy
from the copy's smallest vertex exactly when v < order[-1]; its mask is then
the plan's mask shifted by v, with no reduction mod n.

Every other copy question goes through one kernel, a reachability DP
indexed by the sub-multiset of gaps a path uses: `find_copy_in_class` is the
single-class query, and `detect_dp` calls it once per colour class.
Sub-multisets are mixed-radix indices over (distinct gap value,
multiplicity), so repeated gaps and colliding subset sums need no special
case, and each state's predecessors and sum follow from its index by
arithmetic, with no table kept between calls.  Each state is one n-bit
integer holding every start vertex at once, so a pass costs
prod(multiplicity + 1) rotations of an n-bit mask, 2^k for distinct gaps.

Both routes return the same witness on the same input: the copy whose
presentation (smallest vertex, then gap order, then Red before Blue) is
lexicographically least.  A black vertex, when present, matches both colour
classes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .core import Colouring, DiscreteInstance, rotate_mask

#: Copies, (start, order) pairs with start < order[-1], that one brute-force
#: scan may visit, and gap slots its plan may hold, each refused above before
#: the plan is built.  k gaps with m distinct orders give m * n / k copies,
#: never fewer than m, and m * k slots.  The SAT re-check at k = 8 (n = 255)
#: has 1 285 200 copies and 322 560 slots; 9 distinct gaps at least
#: 1 814 400 copies (362 880 orders).
BRUTE_LIMIT = 1_500_000

#: 64-bit words one `detect_bruteforce` scan may touch, copies times
#: ceil(n / 64) since each copy shifts and tests an n-bit mask, refused above
#: before the scan starts.  Three distinct gaps on n = 66 666 need 1.4e8;
#: the SAT re-check at k = 8 5.1e6.
BRUTE_WORD_LIMIT = 200_000_000

#: Bits one kernel pass may charge, refused above before any state is built:
#: per sub-multiset state an n-bit reach mask plus 512 bits per distinct gap
#: value, the length of the pass's inner loop.  k = 13 on the eps = 1/100
#: majority grid needs 2.7e10, k = 14 1.1e11; 22 distinct gaps 4.8e10.
STATE_BIT_LIMIT = 2**35


@dataclass(frozen=True)
class CopyWitness:
    """A monochromatic permuted copy: k vertices in counterclockwise order.

    Consecutive differences mod n realize gap_order, a permutation of the
    instance's gaps.  colour is Red/Blue, with an OrBlack suffix when the
    black wildcard vertex participates.
    """

    vertices: tuple[int, ...]
    gap_order: tuple[int, ...]
    colour: str

    def revalidates(self, c: Colouring, inst: DiscreteInstance) -> bool:
        k = inst.k
        if len(self.vertices) != k or len(set(self.vertices)) != k:
            return False
        diffs = tuple((self.vertices[(i + 1) % k] - self.vertices[i]) % inst.n
                      for i in range(k))
        if diffs != self.gap_order:
            return False
        if sorted(self.gap_order) != sorted(inst.gaps):
            return False
        base = self.colour.removesuffix("OrBlack")
        cls = c.class_mask("R" if base == "Red" else "B")
        return all(cls >> v & 1 for v in self.vertices)


def _colour_name(base: str, vertices: Sequence[int], black: Optional[int]) -> str:
    name = "Red" if base == "R" else "Blue"
    if black is not None and black in vertices:
        name += "OrBlack"
    return name


def cyclic_canonical(order: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically least rotation, used to compare cyclic orders."""
    t = tuple(order)
    return min(t[i:] + t[:i] for i in range(len(t)))


@lru_cache(maxsize=64)
def _orders(gaps: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """(order, offsets, mask) for each distinct order of the gaps, in
    lexicographic order: offsets are the walk's vertices from 0, mask their
    bits.  Refused above `BRUTE_LIMIT` before anything is built.
    """
    k, n, order = len(gaps), sum(gaps), sorted(gaps)
    orders = math.factorial(k)
    for _, run in itertools.groupby(order):
        orders //= math.factorial(len(list(run)))
    copies, slots = orders * n // k, orders * k
    if max(copies, slots) > BRUTE_LIMIT:
        charged = f"{copies} copies" if copies > BRUTE_LIMIT else f"{slots} plan slots"
        raise ValueError(f"{charged} of {orders} gap orders are above "
                         f"the brute-force budget of {BRUTE_LIMIT}")
    plan = []
    while True:
        offsets = tuple(itertools.accumulate(order[:-1], initial=0))
        plan.append((tuple(order), offsets, sum(map((1).__lshift__, offsets))))
        # the next distinct order: swap the last ascent up, reverse the tail
        i = k - 2
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return tuple(plan)
        j = k - 1
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1:] = order[:i:-1]


def detect_bruteforce(c: Colouring, inst: DiscreteInstance,
                      restriction: Optional[Iterable[Sequence[int]]] = None,
                      ) -> Optional[CopyWitness]:
    """Scan all permuted copies; return the lexicographically least witness.

    With `restriction` given, only copies whose cyclic gap order is in the
    set are considered.  Starts run outermost and the plan is in order, so
    the scan meets copies sorted by (smallest vertex, gap order).
    """
    if c.n != inst.n:
        raise ValueError(f"colouring has n={c.n} but instance has n={inst.n}")
    plan = _orders(inst.gaps)
    if restriction is not None:
        allowed = {cyclic_canonical(r) for r in restriction}
        plan = [p for p in plan if cyclic_canonical(p[0]) in allowed]
    copies = sum(order[-1] for order, _, _ in plan)
    if copies * -(-c.n // 64) > BRUTE_WORD_LIMIT:
        raise ValueError(f"{copies} copies of {c.n} bits are above the brute-force "
                         f"scan budget of {BRUTE_WORD_LIMIT} words")
    red = c.class_mask("R")
    blue = c.class_mask("B")
    for start, g in itertools.pairwise([0, *sorted(set(inst.gaps))]):
        for v in range(start, g):
            for order, offsets, mask in plan:
                shifted = mask << v
                if shifted & red == shifted or shifted & blue == shifted:
                    vertices = tuple(v + o for o in offsets)
                    base = "R" if shifted & red == shifted else "B"
                    return CopyWitness(vertices, order, _colour_name(base, vertices, c.black))
        # from start g on, the orders ending in g present no copy
        plan = [p for p in plan if p[0][-1] > g]
    return None


def detect_dp(c: Colouring, inst: DiscreteInstance) -> Optional[CopyWitness]:
    """Sub-multiset DP detector; identical verdict and witness to brute force.

    One kernel pass per colour class; the least copy of each class competes
    on (smallest vertex, gap order), Red before Blue on a tie.
    """
    if c.n != inst.n:
        raise ValueError(f"colouring has n={c.n} but instance has n={inst.n}")
    candidates = []
    for rank, colour in enumerate("RB"):
        found = find_copy_in_class(c.class_mask(colour), inst.n, inst.gaps)
        if found is not None:
            vertices, order = found
            candidates.append((vertices[0], order, rank, vertices, colour))
    if not candidates:
        return None
    _, order, _, vertices, colour = min(candidates)
    return CopyWitness(vertices, order, _colour_name(colour, vertices, c.black))


def find_copy_in_class(class_mask: int, n: int, gaps: Sequence[int],
                       ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The lexicographically least copy lying entirely inside a colour class.

    Exact for any gaps summing to n, repeated values and colliding subset
    sums included, so a None verdict is a proof of absence.  Returns
    (vertices, gap_order) presented from the copy's smallest vertex.

    Bit i of reach[S] says an all-in-class counterclockwise path starts at i
    and uses exactly the sub-multiset S of gaps:
    reach[S] = rot(class, -sum S) & OR_{g in S} reach[S - g].  State i holds
    count a_j of the j-th distinct gap value g_j as a mixed-radix digit of
    radix r_j = multiplicity_j + 1 and weight w_j, so S - g_j is i - w_j
    whenever a_j = i // w_j % r_j is non-zero.  reach[full] marks the start
    vertices of copies.  From the lowest one, the walk forward takes the
    smallest g whose landing vertex still reaches the start with the
    remaining gaps, which gives the least gap order.
    """
    digits = []   # (g_j, w_j, r_j) in ascending g
    states = 1
    for g, run in itertools.groupby(sorted(gaps)):
        radix = len(list(run)) + 1
        digits.append((g, states, radix))
        states *= radix
    bits = n + 512 * len(digits)
    if states * bits > STATE_BIT_LIMIT:
        raise ValueError(f"{states} sub-multiset states of {bits} bits are "
                         f"above the detector budget of {STATE_BIT_LIMIT} bits")
    sums = [0]
    reach = [class_mask]
    for i in range(1, states):
        acc = 0
        for g, w, r in digits:
            if i // w % r:
                acc |= reach[i - w]
                total = sums[i - w] + g
        sums.append(total)
        reach.append(rotate_mask(class_mask, -total, n) & acc)
    hits = reach[-1]
    if not hits:
        return None
    u = (hits & -hits).bit_length() - 1
    vertices, order = [u], []
    rest = states - 1
    while rest:
        g, w = next((g, w) for g, w, r in digits
                    if rest // w % r and reach[rest - w] >> (u + g) % n & 1)
        rest -= w
        u = (u + g) % n
        vertices.append(u)
        order.append(g)
    return tuple(vertices[:-1]), tuple(order)


def count_copies(c: Colouring, inst: DiscreteInstance) -> tuple[int, int]:
    """Exact (red, blue) counts of monochromatic permuted copies.

    Requires pairwise-distinct gaps (each copy then has one canonical
    enumeration) and no black vertex.
    """
    if c.n != inst.n:
        raise ValueError(f"colouring has n={c.n} but instance has n={inst.n}")
    [(gap, times)] = Counter(inst.gaps).most_common(1)
    if times > 1:   # not the whole tuple, which may run to thousands of gaps
        raise ValueError(f"count_copies needs pairwise-distinct gaps, got {len(inst.gaps)} "
                         f"gaps in which {gap} appears {times} times")
    if c.black is not None:
        raise ValueError("count_copies does not support a black vertex")
    red_mask = c.red_mask
    blue_mask = c.blue_mask
    red = blue = 0
    for order, offsets, _ in _orders(inst.gaps):
        # bit v is set while the walk from start v < order[-1] stays in class
        red_hits = blue_hits = (1 << order[-1]) - 1
        for o in offsets:
            red_hits &= red_mask >> o
            blue_hits &= blue_mask >> o
        red += red_hits.bit_count()
        blue += blue_hits.bit_count()
    return red, blue

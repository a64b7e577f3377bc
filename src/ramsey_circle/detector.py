"""Monochromatic-copy detection in colourings of Z_n.

`detect_bruteforce` scans every permuted copy of the gap tuple directly and
is the independent oracle.  Every other copy question goes through one
kernel, a reachability DP indexed by the sub-multiset of gaps a path uses:
`detect_dp` runs it once per colour class, and `find_copy_in_class` is the
single-class query.  Sub-multisets are mixed-radix indices over (distinct
gap value, multiplicity), so repeated gaps and colliding subset sums need
no special case.  Each state is one n-bit integer holding every start
vertex at once, so a pass costs prod(multiplicity + 1) rotations of an
n-bit mask, 2^k for distinct gaps.

Both routes return the same witness on the same input: the copy whose
presentation (smallest vertex, then gap order, then Red before Blue) is
lexicographically least.  A black vertex, when present, matches both colour
classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .core import Colouring, DiscreteInstance, rotate_mask

# Above this many (start, order) walks the copy table is not cached and
# detection streams instead; verdicts and witnesses are identical.
_CACHE_WALK_LIMIT = 400_000

#: Bits one kernel pass may hold, refused above before any table is built:
#: per sub-multiset state an n-bit reach mask plus about 512 bits per gap of
#: plan.  k = 13 on the eps = 1/100 majority grid needs 2.7e10, k = 14 1.1e11.
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


def _distinct_orders(gaps: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(gaps)))


def cyclic_canonical(order: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically least rotation, used to compare cyclic orders."""
    t = tuple(order)
    return min(t[i:] + t[:i] for i in range(len(t)))


def _normalize_restriction(restriction) -> Optional[frozenset]:
    if restriction is None:
        return None
    return frozenset(cyclic_canonical(r) for r in restriction)


def _iter_copies(n: int, gaps: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int]]:
    """Yield each distinct copy once as (v0, gap_order, vertices, mask).

    v0 is the smallest vertex of the copy and the walk starts there, so the
    stream is sorted by (v0, gap_order); a walk whose vertices dip below its
    start is a non-canonical presentation of a copy already yielded.
    """
    orders = _distinct_orders(gaps)
    for v in range(n):
        for order in orders:
            vertices = [v]
            mask = 1 << v
            u = v
            ok = True
            for g in order[:-1]:
                u = (u + g) % n
                if u < v:
                    ok = False
                    break
                vertices.append(u)
                mask |= 1 << u
            if ok:
                yield v, order, tuple(vertices), mask


@lru_cache(maxsize=32)
def _copy_table(n: int, gaps: tuple[int, ...]):
    return tuple(_iter_copies(n, gaps))


def _walk_budget(n: int, gaps: tuple[int, ...]) -> int:
    return n * math.factorial(len(gaps))


def _copies(n: int, gaps: tuple[int, ...]):
    """Every copy in `_iter_copies` order: the cached table when its walk
    count is within `_CACHE_WALK_LIMIT`, else a fresh stream."""
    if _walk_budget(n, gaps) <= _CACHE_WALK_LIMIT:
        return _copy_table(n, gaps)
    return _iter_copies(n, gaps)


def detect_bruteforce(c: Colouring, inst: DiscreteInstance,
                      restriction: Optional[Iterable[Sequence[int]]] = None,
                      ) -> Optional[CopyWitness]:
    """Scan all permuted copies; return the lexicographically least witness.

    With `restriction` given, only copies whose cyclic gap order is in the
    set are considered.
    """
    if c.n != inst.n:
        raise ValueError(f"colouring has n={c.n} but instance has n={inst.n}")
    rset = _normalize_restriction(restriction)
    red = c.class_mask("R")
    blue = c.class_mask("B")
    for v0, order, vertices, mask in _copies(inst.n, tuple(inst.gaps)):
        if rset is not None and cyclic_canonical(order) not in rset:
            continue
        if mask & red == mask:
            return CopyWitness(vertices, order, _colour_name("R", vertices, c.black))
        if mask & blue == mask:
            return CopyWitness(vertices, order, _colour_name("B", vertices, c.black))
    return None


@lru_cache(maxsize=64)
def _plan(gaps: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """Sum and predecessors of every sub-multiset of the gap tuple.

    Index i holds count a_j of the j-th distinct gap value as a mixed-radix
    digit of base (multiplicity_j + 1), so removing one gap g from i gives a
    smaller index.  preds[i] lists (g, j) for each value g present in i, in
    ascending g, where j indexes i with one g removed; the last index is the
    full multiset.
    """
    values = sorted(set(gaps))
    radices = [gaps.count(g) + 1 for g in values]
    weights = [math.prod(radices[:j]) for j in range(len(values))]
    sums, preds = [], []
    for i in range(math.prod(radices)):
        digits = [i // w % r for w, r in zip(weights, radices)]
        sums.append(sum(a * g for a, g in zip(digits, values)))
        preds.append(tuple((g, i - w) for a, g, w in zip(digits, values, weights) if a))
    return tuple(sums), tuple(preds)


def _least_copy(class_mask: int, n: int, gaps: tuple[int, ...],
                ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The kernel behind both public queries.  Callers sort the gaps, so
    every order of one multiset shares a cached plan.

    Bit i of reach[S] says an all-in-class counterclockwise path starts at i
    and uses exactly the sub-multiset S of gaps:
    reach[S] = rot(class, -sum S) & OR_{g in S} reach[S - g].  reach[full]
    marks the start vertices of copies.  From the lowest one, the walk
    forward takes the smallest g whose landing vertex still reaches the
    start with the remaining gaps, which gives the least gap order.
    """
    bits = n + 512 * len(gaps)
    # 2^k bounds the state count, so only a tuple near the budget counts them
    if bits << len(gaps) > STATE_BIT_LIMIT:
        states = math.prod(len(list(run)) + 1 for _, run in itertools.groupby(gaps))
        if states * bits > STATE_BIT_LIMIT:
            raise ValueError(f"{states} sub-multiset states of {bits} bits are "
                             f"above the detector budget of {STATE_BIT_LIMIT} bits")
    sums, preds = _plan(gaps)
    reach = [class_mask]
    for total, ps in zip(sums[1:], preds[1:]):
        acc = 0
        for _, p in ps:
            acc |= reach[p]
        reach.append(rotate_mask(class_mask, -total, n) & acc)
    hits = reach[-1]
    if not hits:
        return None
    u = (hits & -hits).bit_length() - 1
    vertices, order = [u], []
    rest = len(reach) - 1
    while rest:
        g, rest = next((g, p) for g, p in preds[rest] if reach[p] >> (u + g) % n & 1)
        u = (u + g) % n
        vertices.append(u)
        order.append(g)
    return tuple(vertices[:-1]), tuple(order)


def detect_dp(c: Colouring, inst: DiscreteInstance) -> Optional[CopyWitness]:
    """Sub-multiset DP detector; identical verdict and witness to brute force.

    One kernel pass per colour class; the least copy of each class competes
    on (smallest vertex, gap order), Red before Blue on a tie.
    """
    if c.n != inst.n:
        raise ValueError(f"colouring has n={c.n} but instance has n={inst.n}")
    gaps = tuple(sorted(inst.gaps))
    candidates = []
    for rank, colour in enumerate("RB"):
        found = _least_copy(c.class_mask(colour), inst.n, gaps)
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
    """
    return _least_copy(class_mask, n, tuple(sorted(gaps)))


def count_copies(c: Colouring, inst: DiscreteInstance) -> tuple[int, int]:
    """Exact (red, blue) counts of monochromatic permuted copies.

    Requires pairwise-distinct gaps (each copy then has one canonical
    enumeration) and no black vertex.
    """
    if c.n != inst.n:
        raise ValueError(f"colouring has n={c.n} but instance has n={inst.n}")
    if len(set(inst.gaps)) != len(inst.gaps):
        raise ValueError(f"count_copies needs pairwise-distinct gaps, got {inst.gaps}")
    if c.black is not None:
        raise ValueError("count_copies does not support a black vertex")
    red_mask = c.red_mask
    blue_mask = c.blue_mask
    red = blue = 0
    for _, _, _, mask in _copies(inst.n, tuple(inst.gaps)):
        if mask & red_mask == mask:
            red += 1
        elif mask & blue_mask == mask:
            blue += 1
    return red, blue

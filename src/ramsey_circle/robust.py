"""Suitable parameters for triples, and finite wildcard forcing checks.

t is suitable for a triple when the uniform colouring c_t contains no
monochromatic copy of it, and strongly suitable when additionally no
2 t d_i is an odd integer (the parity condition that keeps copies away
from the arc endpoints, where both colours accumulate).  The search space
is restricted to T = {t : no denominator q_i divides 2t}; a denominator of
2 empties T outright.  The search is the first answer of the one sweep
`uniform.suitable_ts`, which decides only t <= min(max_t, q), q the lcm of
the denominators: every step of c_t, and membership in T, depends only on
t mod q.

`nearly_ramsey_finite_check` decides the finite core of the forcing
arguments for the nearly-Ramsey triples with `satgen.forcing`, the query
`solve` asks, with vertex 0 black.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Colouring, DistanceTuple
from .uniform import suitable_ts

#: Largest N the finite check accepts, refused above before any work: each
#: N costs one formula of at most 4 N clauses and one search, verified or not.
MAX_N = 256


def t_set_empty(d: DistanceTuple) -> bool:
    """A denominator 2 divides every 2t (none is 1: each d_i < 1)."""
    return 2 in d.denominators


def strongly_suitable_search(d: DistanceTuple, max_t: int) -> Optional[int]:
    """Smallest strongly-suitable t <= max_t within T, or None.

    None is returned both when T is empty (see `t_set_empty`) and when the
    sweep is exhausted.
    """
    if d.k != 3:
        raise ValueError(f"triple analysis needs k = 3, got k = {d.k}")
    if t_set_empty(d):
        return None
    return next(suitable_ts(d, max_t, strong=True), None)


@dataclass(frozen=True)
class FiniteCheckResult:
    verified: bool
    counterexample: Optional[Colouring]
    colourings_checked: int


#: The triples known to be nearly-Ramsey: the k=3 doubling tuple, three
#: sporadic triples, and everything with d1 = 1/2.
KNOWN_NEARLY_RAMSEY = (
    (Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)),
    (Fraction(5, 8), Fraction(1, 4), Fraction(1, 8)),
    (Fraction(3, 4), Fraction(1, 6), Fraction(1, 12)),
    (Fraction(7, 12), Fraction(1, 4), Fraction(1, 6)),
)


def is_claimed_nearly_ramsey(d: DistanceTuple) -> bool:
    """Whether the finite forcing check is expected to verify for d.

    For these triples a counterexample at any fitting N contradicts the
    forcing argument (the base polygon embeds in every valid grid), so it
    must be reported as a refutation, not a routine negative.
    """
    if d.k != 3:
        return False
    return d.distances[0] == Fraction(1, 2) or d.distances in KNOWN_NEARLY_RAMSEY


def nearly_ramsey_finite_check(d: DistanceTuple, N: int) -> FiniteCheckResult:
    """Decide every two-colouring of Z_N with vertex 0 black, N <= MAX_N.

    Verified means every such colouring contains a copy of d whose vertices
    are all red-or-black or all blue-or-black.  Fixing the black vertex at 0
    loses nothing: rotations act transitively on Z_N.  d must discretise on
    Z_N exactly.  This is one `satgen.forcing` query: UNSAT verifies, and
    otherwise its model, the least red mask, is the first counterexample an
    ascending walk over the 2^(N-1) masks would meet.
    """
    from .satgen import forcing   # here: importing robust loads no SAT code

    if d.k != 3:
        raise ValueError(f"finite check is defined for triples, got k = {d.k}")
    if N > MAX_N:
        raise ValueError(f"N = {N} is above the limit {MAX_N}")
    counterexample = forcing(d.on(N), black=0).model
    if counterexample is None:
        return FiniteCheckResult(True, None, 1 << (N - 1))
    return FiniteCheckResult(False, counterexample, counterexample.red_mask // 2 + 1)

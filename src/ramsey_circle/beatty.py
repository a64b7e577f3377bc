"""Beatty sequences, partition checking, and balanced periodic words.

A pair of tuples (alphas, betas) induces the integer sequences
floor(alpha_i * n + beta_i) for n = 0, 1, 2, ...; the central question is
whether the k sequences together hit every natural number exactly once.
When they do, reading off which sequence owns each integer yields a word
over {1, ..., k} that is balanced: equal-length windows contain each letter
a number of times differing by at most one.

Both notions concern infinite objects.  Every alpha is a Fraction, so with
p the common numerator of the alphas the owners of v and v + p agree once v
is past the sequences' starts (see `partition_check`): the verdict on any
range [0, M) is read from the exact prefix [0, min(M, V0 + p)), whatever M
is, and the owner word is that prefix extended by its last period.  The
prefix's owner list is all the marking holds.  A periodic word is balanced
exactly when each letter's walk passes a range test over one period, and
the walks of the letters that fail give the witness (see `balanced_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .core import power_tuple

#: Longest owner list or word the module builds, refused above before it is
#: allocated: the prefix that `partition_check` marks (the only O(L) state
#: it holds), the word of `word_from_pair`, and so the 2p-long word of
#: `fraenkel_diagnostics` (p <= 10^6).  Marking 2 * 10^6 owners: ~0.4 s.
MAX_WORD_LENGTH = 2 * 10**6

#: Most walk steps `balanced_check` may take on one period of p letters: k p
#: for the range test of its k letters, then p^2 for each letter that fails
#: it, the most the window search can take.  Each charge is refused with
#: ValueError before its work starts.  10^7 steps take about 1 s; the
#: search over a 5168-letter period with two failing letters took 2.6 s.
MAX_BALANCE_STEPS = 10**7


@dataclass(frozen=True)
class BeattyPair:
    """Parameters of k Beatty sequences; alphas positive, non-decreasing.

    Equal alphas are allowed (shifted splits such as alphas (2, 2) with
    betas (1, 0) partition perfectly well); the strictly-increasing setting
    of the uniqueness question is enforced by `fraenkel_diagnostics`.
    """

    alphas: tuple[Fraction, ...]
    betas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(Fraction(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(Fraction(b) for b in self.betas))
        if not self.alphas:
            raise ValueError("need at least one alpha")
        if len(self.alphas) != len(self.betas):
            raise ValueError("alphas and betas must have the same length")
        if self.alphas[0] <= 0:
            raise ValueError("alphas must be positive")
        if any(self.alphas[i] > self.alphas[i + 1] for i in range(len(self.alphas) - 1)):
            raise ValueError("alphas must be non-decreasing")

    @classmethod
    def half_shift(cls, alphas: Sequence[Fraction]) -> "BeattyPair":
        """The special case beta_i = alpha_i / 2."""
        alphas = tuple(Fraction(a) for a in alphas)
        return cls(alphas=alphas, betas=tuple(a / 2 for a in alphas))

    @property
    def k(self) -> int:
        return len(self.alphas)

    def is_half_shift(self) -> bool:
        return all(b == a / 2 for a, b in zip(self.alphas, self.betas))

    def common_numerator(self) -> int:
        """lcm of the reduced alpha numerators: the word period length."""
        return math.lcm(*(a.numerator for a in self.alphas))


def power_pair(k: int) -> BeattyPair:
    """The half-shifted pair with alpha_i = (2^k - 1) / 2^(k-i)."""
    denom = 2**k - 1
    return BeattyPair.half_shift(tuple(Fraction(denom, 2**(k - i)) for i in range(1, k + 1)))


@dataclass(frozen=True)
class PartitionVerdict:
    """Outcome of a bounded partition check.

    kind is "ok", "collision" (value hit by sequences `sequences`, 1-based)
    or "gap" (value hit by nothing).  Collisions are reported in preference
    to gaps; within a kind the smallest value wins.
    """

    kind: str
    value: Optional[int] = None
    sequences: Optional[tuple[int, int]] = None

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


class PartitionError(ValueError):
    """A word was requested from a pair that does not partition [0, M)."""

    def __init__(self, verdict: PartitionVerdict):
        self.verdict = verdict
        if verdict.kind == "collision":
            i, j = verdict.sequences
            msg = f"value {verdict.value} is hit by sequences {i} and {j}"
        else:
            msg = f"value {verdict.value} is hit by no sequence"
        super().__init__(msg)


def _check_length(length: int) -> None:
    if length > MAX_WORD_LENGTH:
        raise ValueError(f"{length} owners are above the word limit {MAX_WORD_LENGTH}")


def _mark_prefix(pair: BeattyPair, M: int) -> tuple[list[int], PartitionVerdict]:
    """Owners (1-based, 0 = none) of the exact prefix [0, min(M, V0 + p))
    and the partition verdict on [0, M); see `partition_check`.  Only the
    least collision is held: a sequence's values never decrease, so it
    stops marking at its first one."""
    if M < 1:
        raise ValueError("M must be >= 1")
    v0 = max(0, max(math.floor(b) for b in pair.betas) + 1)
    L = min(M, v0 + pair.common_numerator())
    _check_length(L)
    owners = [0] * L
    least = (L, 0, 0)   # above every collision
    for i, (alpha, beta) in enumerate(zip(pair.alphas, pair.betas), start=1):
        a = alpha.numerator * beta.denominator
        b = beta.numerator * alpha.denominator
        den = alpha.denominator * beta.denominator
        # n runs over the terms with 0 <= (a n + b) // den < L, in order
        for n in range(max(0, -(b // a)), -((b - L * den) // a)):
            value = (a * n + b) // den
            if owners[value]:
                least = min(least, (value, owners[value], i))
                break
            owners[value] = i
    if least[0] < L:
        value, i, j = least
        return owners, PartitionVerdict(kind="collision", value=value, sequences=(i, j))
    if 0 in owners:
        return owners, PartitionVerdict(kind="gap", value=owners.index(0))
    return owners, PartitionVerdict(kind="ok")


def partition_check(pair: BeattyPair, M: int) -> PartitionVerdict:
    """Check the sequences hit every integer in [0, M) exactly once.

    Only the prefix [0, L), L = min(M, V0 + p), is marked.  Here
    alpha_i = a_i / b_i in lowest terms, p = lcm(a_i) and
    V0 = max(0, max_i floor(beta_i) + 1).  Proof that the least collision
    and the least gap in [0, M) both lie below L:

    - d_i = p b_i / a_i is an integer, and n -> n + d_i adds exactly p to
      alpha_i n + beta_i, so it maps the terms of sequence i equal to v
      onto those equal to v + p.
    - For v >= V0 this map is onto: a term n' < d_i has value at most
      floor(alpha_i d_i + beta_i) = floor(beta_i) + p < V0 + p.  So every
      preimage of v + p is n + d_i for a preimage n >= 0 of v.
    - Hence from V0 on each value's list of owners, with multiplicity and
      in marking order (sequence, then n), is p-periodic.  That covers the
      self-collisions (i, i) of alphas below 1 too.
    - A collision or gap at v >= V0 + p repeats at v - p >= V0, so the
      least one in [0, M) lies below V0 + p.  Values below L are marked in
      full, so the earliest pair of owners reported is the same as when
      marking all of [0, M).

    Collisions are reported in preference to gaps, as `PartitionVerdict`
    says; the cost is O(L) whatever M is, and L above `MAX_WORD_LENGTH` is
    refused with ValueError.
    """
    return _mark_prefix(pair, M)[1]


def word_from_pair(pair: BeattyPair, M: int) -> tuple[int, ...]:
    """The owner word s_0 ... s_{M-1}; raises PartitionError when the pair
    does not partition [0, M).

    The exact prefix [0, L) of `partition_check` is marked.  When M > L,
    L = V0 + p and the owners are p-periodic from V0 = L - p on, so the
    word continues with repeats of owners[L - p:L] up to length M.  M above
    `MAX_WORD_LENGTH` is refused with ValueError.
    """
    _check_length(M)
    owners, verdict = _mark_prefix(pair, M)
    if not verdict.ok:
        raise PartitionError(verdict)
    L = len(owners)
    if L < M:
        p = pair.common_numerator()
        owners += owners[L - p:] * -((L - M) // p)
    return tuple(owners[:M])


@dataclass(frozen=True)
class BalancedWord:
    """A periodic word over {1, ..., k}, stored as one period."""

    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "period", tuple(int(s) for s in self.period))
        if not self.period:
            raise ValueError("period must be non-empty")
        letters = set(self.period)
        if min(letters) != 1 or len(letters) != max(letters):   # one letter may be 10^8
            raise ValueError(f"letters must be contiguous from 1, got {sorted(letters)}")

    @property
    def k(self) -> int:
        return max(self.period)

    @property
    def period_length(self) -> int:
        return len(self.period)


@dataclass(frozen=True)
class BalanceVerdict:
    balanced: bool
    letter: Optional[int] = None
    window_length: Optional[int] = None
    positions: Optional[tuple[int, int]] = None


def balanced_check(w: BalancedWord) -> BalanceVerdict:
    """Check the balance condition on the periodic word.

    A periodic word is balanced exactly when it is mechanical (Lothaire,
    Algebraic Combinatorics on Words, ch. 2; Altman, Gaujal and Hordijk,
    JACM 2000), which one walk per letter decides.  With q occurrences of
    letter a per period p, the walk f(j) = p * #a(s_0 ... s_{j-1}) - q * j
    has f(p) = f(0) = 0, so it is p-periodic, and p times the count of a in
    the window of length l at s is f(s + l) - f(s) + q l.  Those counts
    average q l / p over the starts, so they take at most two adjacent
    values exactly when they all lie in {floor(q l / p), ceil(q l / p)},
    that is when every difference f(x) - f(y) is below p in absolute
    value: the range test max f - min f < p over one period.

    A letter that passes has no bad window.  The walk of each letter that
    fails is extended to two periods; length l in [1, p] outer and letter
    inner, l violates when f(s + l) - f(s) over the starts s in [0, p)
    spreads by more than p, and the first violation is reported with the
    first starts of a window holding the most and the fewest a.  The range
    test and the search are charged against `MAX_BALANCE_STEPS` first.
    """
    def charge(steps: int) -> int:
        if steps > MAX_BALANCE_STEPS:
            raise ValueError(f"balance check of a {p}-letter period takes up to {steps} "
                             f"walk steps, above the budget {MAX_BALANCE_STEPS}")
        return steps

    p = w.period_length
    charged = charge(w.k * p)
    walks = {}
    for a in range(1, w.k + 1):
        q = w.period.count(a)
        f = list(accumulate(((p if s == a else 0) - q for s in w.period), initial=0))
        if max(f) - min(f) >= p:
            walks[a] = f + f[1:]
    if not walks:
        return BalanceVerdict(balanced=True)
    charge(charged + len(walks) * p * p)
    for length in range(1, p + 1):
        for a, f in walks.items():
            steps = [f[s + length] - f[s] for s in range(p)]
            hi = max(steps)
            lo = min(steps)
            if hi - lo > p:
                return BalanceVerdict(balanced=False, letter=a, window_length=length,
                                      positions=(steps.index(hi), steps.index(lo)))
    raise AssertionError("range test and window search disagree")


def densities(w: BalancedWord) -> tuple[Fraction, ...]:
    """Exact per-period letter frequencies, in letter order; they sum to 1."""
    p = w.period_length
    return tuple(Fraction(w.period.count(a), p) for a in range(1, w.k + 1))


@dataclass(frozen=True)
class FraenkelReport:
    """Structural diagnostics of a partitioning half-shifted pair."""

    period_length: int
    period: tuple[int, ...]
    exact: bool                # verdict covers the whole infinite word
    symmetric: bool            # s_m = s_(p-1-m) for all m
    consecutive_ok: tuple[bool, ...]   # per letter: two consecutive
                                       # occurrences with nothing larger between
    densities: tuple[Fraction, ...]
    power_flag: bool           # densities equal the doubling tuple


def _consecutive_condition(word: Sequence[int], letter: int) -> bool:
    positions = [j for j, s in enumerate(word) if s == letter]
    for a, b in zip(positions, positions[1:]):
        if all(word[j] <= letter for j in range(a + 1, b)):
            return True
    return False


def fraenkel_diagnostics(pair: BeattyPair, M: int) -> FraenkelReport:
    """Verify the period structure of a half-shifted partitioning pair.

    Needs beta_i = alpha_i / 2, M >= 2p and 2p <= MAX_WORD_LENGTH where
    p is the common numerator of the alphas; partition failures propagate
    as PartitionError.  The report on [0, M) is read from the prefix
    [0, 2p): each alpha_i is at most its numerator, hence at most p, so
    V0 <= floor(p / 2) + 1 <= p.  The word is p-periodic from V0 on (see
    `partition_check`), so s_j = s_(j mod p) for all j < M once it holds
    for j < V0 + p <= 2p.
    """
    if not pair.is_half_shift():
        raise ValueError("diagnostics require betas = alphas / 2")
    if any(pair.alphas[i] == pair.alphas[i + 1] for i in range(pair.k - 1)):
        raise ValueError("diagnostics require strictly increasing alphas")
    p = pair.common_numerator()
    if M < 2 * p:
        raise ValueError(f"M={M} too small: need at least 2p = {2 * p}")
    word = word_from_pair(pair, 2 * p)
    period = word[:p]
    periodic = all(word[j] == word[j % p] for j in range(2 * p))
    symmetric = period == period[::-1]
    consecutive = tuple(_consecutive_condition(word, a)
                        for a in range(1, pair.k + 1))
    dens = densities(BalancedWord(period))
    power = pair.k >= 3 and dens == power_tuple(pair.k).distances
    return FraenkelReport(period_length=p, period=period,
                          exact=bool(periodic), symmetric=symmetric,
                          consecutive_ok=consecutive, densities=dens,
                          power_flag=power)

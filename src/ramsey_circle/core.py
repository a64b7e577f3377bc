"""Exact data model shared by every checker in the toolkit.

Distance tuples live on the circle of unit perimeter and are always exact
rationals; their integer discretisations live on Z_n (the vertices of a
regular n-gon).  Two-colourings of Z_n are stored as red bit masks, with an
optional single black vertex that acts as a wildcard matching both colour
classes.  No verdict-producing code anywhere in the package touches
floating point: the scalar type is `fractions.Fraction`, which is arbitrary
precision and always stored reduced with a positive denominator, so integer
overflow cannot occur.

Orientation convention: vertex 0 sits at angle 0 and indices increase
counterclockwise; arcs are measured counterclockwise.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence

_FRACTION_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


class ParseError(ValueError):
    """Input text could not be parsed; carries a 1-based line/column."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class RefutationError(AssertionError):
    """A computation contradicted a published result.

    Raised loudly instead of returning an ordinary negative verdict, so a
    genuine mathematical discovery (or, far more likely, a bug) can never
    be mistaken for a routine failure.
    """


def parse_fraction(text: str) -> Fraction:
    """Parse an exact fraction like ``4/7`` or ``-9/10`` (or an integer).

    Decimal notation is rejected: only exact rationals are supported, since
    irrational distance tuples are never Ramsey and the toolkit refuses to
    approximate them.
    """
    m = _FRACTION_RE.match(text.strip())
    if not m:
        raise ParseError(
            f"{text!r} is not an exact fraction; write p/q with integers "
            "(irrational or decimal values are not supported)")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError(f"{text!r} has a zero denominator")
    return Fraction(num, den)


def parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated fraction list like ``4/7,2/7,1/7``."""
    items = [part for part in text.split(",") if part.strip() != ""]
    if not items:
        raise ParseError("empty fraction list")
    return tuple(parse_fraction(part) for part in items)


@dataclass(frozen=True)
class DistanceTuple:
    """A k-tuple of arc lengths d1 >= d2 >= ... >= dk > 0 summing to 1."""

    distances: tuple[Fraction, ...]

    def __post_init__(self):
        ds = tuple(Fraction(d) for d in self.distances)
        object.__setattr__(self, "distances", ds)
        if len(ds) < 3:
            raise ValueError(f"need at least 3 distances, got {len(ds)}")
        if any(d <= 0 for d in ds):
            raise ValueError("all distances must be positive")
        if any(ds[i] < ds[i + 1] for i in range(len(ds) - 1)):
            raise ValueError("distances must be sorted non-increasing")
        if sum(ds) != 1:
            raise ValueError(f"distances must sum to exactly 1, got {sum(ds)}")

    @property
    def k(self) -> int:
        return len(self.distances)

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(d.denominator for d in self.distances)

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        """Each d_i as an integer over q = lcm_denominator(), computed once;
        they sum to q."""
        return grid_units(self.distances, math.lcm(*self.denominators))

    def lcm_denominator(self) -> int:
        return sum(self.numerators)

    def on(self, n: int) -> "DiscreteInstance":
        """The tuple scaled onto Z_n; n must be a multiple of every denominator."""
        return DiscreteInstance(n=n, gaps=grid_units(self.distances, n))

    def is_power(self) -> bool:
        return self == power_tuple(self.k)


@dataclass(frozen=True)
class DiscreteInstance:
    """Integer gaps over Z_n: a discretised distance tuple, sum(gaps) = n."""

    n: int
    gaps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gaps", tuple(int(g) for g in self.gaps))
        if self.n <= 0:
            raise ValueError("n must be positive")
        if not self.gaps:
            raise ValueError("need at least one gap")
        if any(g < 1 for g in self.gaps):
            raise ValueError("all gaps must be >= 1")
        if sum(self.gaps) != self.n:
            raise ValueError(f"gaps {self.gaps} sum to {sum(self.gaps)}, not n={self.n}")

    @property
    def k(self) -> int:
        return len(self.gaps)


def power_tuple(k: int) -> DistanceTuple:
    """The k-tuple with d_i = 2^(k-i) / (2^k - 1), the doubling tuple."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    denom = 2**k - 1
    return DistanceTuple(tuple(Fraction(2**(k - i), denom) for i in range(1, k + 1)))


#: Largest grid Z_n a continuous colouring is realised on; a larger one is
#: refused before any work.
GRID_LIMIT = 10_000_000


def common_grid(*denominators: int) -> int:
    """The least grid all the denominators divide, refused above GRID_LIMIT."""
    grid = math.lcm(*denominators)
    if grid > GRID_LIMIT:
        raise ValueError(f"grid {grid} is above the limit {GRID_LIMIT}; "
                         "choose fractions with smaller denominators")
    return grid


def grid_units(values: Iterable[Fraction], n: int) -> tuple[int, ...]:
    """Each exact rational v as v * n steps of Z_n; n must be a multiple of
    every denominator, so nothing is rounded."""
    units = []
    for v in values:
        if n % v.denominator:
            raise ValueError(f"{v} does not fit Z_{n}: {n} is not a multiple of {v.denominator}")
        units.append(v.numerator * (n // v.denominator))
    return tuple(units)


def discretize(d: DistanceTuple, multiplier: int = 1) -> DiscreteInstance:
    """Scale a rational tuple onto Z_n with n = lcm(denominators) * multiplier."""
    if multiplier < 1:
        raise ValueError("multiplier must be a positive integer")
    return d.on(d.lcm_denominator() * multiplier)


def _validate_mask(n: int, mask: int) -> None:
    if n <= 0:
        raise ValueError("n must be positive")
    if mask < 0 or mask >> n:
        raise ValueError(f"colour mask does not fit {n} vertices")


_BITS_TO_COLOURS = str.maketrans("01", "BR")
_COLOURS_TO_BITS = str.maketrans("BR", "01")
_NOT_A_COLOUR = re.compile("[^RB]")


def _red_mask(chars: str, line: Optional[int] = None) -> int:
    """The red mask of an R/B string, vertex 0 first, linear in n like
    `Colouring.to_string`; any other character is a ParseError."""
    bad = _NOT_A_COLOUR.search(chars)
    if bad:
        raise ParseError(f"invalid colour character {bad.group()!r}",
                         line=line, column=bad.start() + 1)
    return int(chars[::-1].translate(_COLOURS_TO_BITS), 2) if chars else 0


@dataclass(frozen=True)
class Colouring:
    """A two-colouring of Z_n. Bit v of red_mask set means vertex v is Red.

    `black`, when present, designates one wildcard vertex that detection
    treats as belonging to both colour classes.
    """

    n: int
    red_mask: int
    black: Optional[int] = None

    def __post_init__(self):
        _validate_mask(self.n, self.red_mask)
        if self.black is not None and not (0 <= self.black < self.n):
            raise ValueError(f"black vertex {self.black} out of range [0, {self.n})")

    @classmethod
    def from_string(cls, chars: str, black: Optional[int] = None) -> "Colouring":
        return cls(n=len(chars), red_mask=_red_mask(chars), black=black)

    @classmethod
    def from_arcs(cls, arcs: Sequence[int]) -> "Colouring":
        """Arcs of the given lengths from vertex 0, alternately red and blue."""
        if not arcs or any(a < 1 for a in arcs):
            raise ValueError(f"need positive arc lengths, got {tuple(arcs)}")
        mask = laid = 0
        for j, length in enumerate(arcs):
            if j % 2 == 0:
                mask |= ((1 << length) - 1) << laid
            laid += length
        return cls(n=laid, red_mask=mask)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "Colouring":
        return cls(n=n, red_mask=rng.getrandbits(n))

    def is_red(self, v: int) -> bool:
        return bool(self.red_mask >> v & 1)

    def to_string(self) -> str:
        # one binary formatting of the mask, vertex 0 first: linear in n
        return format(self.red_mask, f"0{self.n}b")[::-1].translate(_BITS_TO_COLOURS)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def blue_mask(self) -> int:
        return self.full_mask ^ self.red_mask

    def class_mask(self, colour: str) -> int:
        """Vertices matching a colour class; black matches both."""
        base = self.red_mask if colour == "R" else self.blue_mask
        if self.black is not None:
            base |= 1 << self.black
        return base


def parse_colouring(text: str) -> Colouring:
    """Parse the colouring file format.

    Line 1: decimal n.  Line 2: exactly n characters over {R, B}.
    Optional line 3: ``black <index>``.
    """
    lines = text.split("\n")
    # A single trailing newline is part of the format, not an extra line.
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty colouring file", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"expected vertex count, got {lines[0]!r}", line=1) from None
    if n <= 0:
        raise ParseError(f"vertex count must be positive, got {n}", line=1)
    if len(lines) < 2:
        raise ParseError("missing colour line", line=2)
    chars = lines[1]
    if len(chars) != n:
        raise ParseError(f"colour line has length {len(chars)}, expected {n}", line=2)
    mask = _red_mask(chars, line=2)
    black = None
    if len(lines) >= 3 and lines[2].strip():
        m = re.match(r"^black\s+(\d+)$", lines[2].strip())
        if not m:
            raise ParseError(f"expected 'black <index>', got {lines[2]!r}", line=3)
        black = int(m.group(1))
        if not (0 <= black < n):
            raise ParseError(f"black index {black} out of range [0, {n})", line=3)
    if len(lines) > 3 and any(ln.strip() for ln in lines[3:]):
        raise ParseError("unexpected trailing content", line=4)
    return Colouring(n=n, red_mask=mask, black=black)


def serialize_colouring(c: Colouring) -> str:
    lines = [str(c.n), c.to_string()]
    if c.black is not None:
        lines.append(f"black {c.black}")
    return "\n".join(lines) + "\n"


def rotate_mask(mask: int, r: int, n: int) -> int:
    """Rotate an n-bit mask so bit v of the result is bit (v - r) mod n."""
    r %= n
    full = (1 << n) - 1
    return ((mask << r) | (mask >> (n - r))) & full if r else mask

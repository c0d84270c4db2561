"""Origamis (square-tiled surfaces) given by a pair of permutations.

An origami with d unit squares is encoded by two permutations on {1..d}:
p1 sends a square to its right neighbor, p2 to its upper neighbor.  The
group generated by (p1, p2) must act transitively (the surface is
connected).  All arithmetic here is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .freegroup import Word, parse_word

__all__ = [
    "NotBijective",
    "NotTransitive",
    "ParityViolation",
    "BadParameters",
    "BadDirection",
    "BadFormat",
    "Permutation",
    "Origami",
    "Cylinder",
    "OrigamiCurve",
    "AffineChange",
    "new_origami",
    "cylinders",
    "vertex_orbits",
    "genus",
    "l_origami",
    "x_origami",
    "wollmilchsau",
    "o14",
    "trace_curve",
    "is_closed",
    "horizontal_multiplier",
    "vertical_multiplier",
    "shear",
    "parse_origami",
    "format_origami",
    "random_origami",
    "act_word",
]


class NotBijective(ValueError):
    pass


class NotTransitive(ValueError):
    pass


class ParityViolation(AssertionError):
    pass


class BadParameters(ValueError):
    pass


class BadDirection(ValueError):
    pass


class BadFormat(ValueError):
    pass


class Permutation:
    """A permutation of {1..d}, stored as an image table."""

    __slots__ = ("size", "_img", "_pre")

    def __init__(self, images: Sequence[int]):
        d = len(images)
        img = tuple(images)
        if sorted(img) != list(range(1, d + 1)):
            raise NotBijective(f"not a permutation of 1..{d}: {img}")
        pre = [0] * (d + 1)
        for s, t in enumerate(img, start=1):
            pre[t] = s
        self.size = d
        self._img = img
        self._pre = tuple(pre)

    @staticmethod
    def from_cycles(d: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        img = list(range(1, d + 1))
        seen = set()
        for cyc in cycles:
            for s in cyc:
                if not (1 <= s <= d):
                    raise NotBijective(f"entry {s} out of range 1..{d}")
                if s in seen:
                    raise NotBijective(f"entry {s} repeated across cycles")
                seen.add(s)
            for i, s in enumerate(cyc):
                img[s - 1] = cyc[(i + 1) % len(cyc)]
        return Permutation(img)

    def __call__(self, s: int) -> int:
        assert 1 <= s <= self.size, f"square {s} out of range"
        return self._img[s - 1]

    def inverse_of(self, s: int) -> int:
        assert 1 <= s <= self.size, f"square {s} out of range"
        return self._pre[s]

    def power(self, s: int, k: int) -> int:
        """Image of s under the k-th power (k may be negative)."""
        if k >= 0:
            for _ in range(k):
                s = self._img[s - 1]
        else:
            for _ in range(-k):
                s = self._pre[s]
        return s

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self, then other: squares act on the left, as words do."""
        return Permutation([other._img[t - 1] for t in self._img])

    def __pow__(self, k: int) -> "Permutation":
        """The k-th power, each orbit shifted by k: O(d) for any k."""
        img = [0] * self.size
        for orbit in self.orbits():
            for i, s in enumerate(orbit):
                img[s - 1] = orbit[(i + k) % len(orbit)]
        return Permutation(img)

    def orbits(self) -> list[list[int]]:
        """Orbits, each starting at its smallest element, ordered by that
        element, traversed forward under the permutation."""
        seen = [False] * (self.size + 1)
        out = []
        for s in range(1, self.size + 1):
            if seen[s]:
                continue
            orbit = []
            t = s
            while not seen[t]:
                seen[t] = True
                orbit.append(t)
                t = self._img[t - 1]
            out.append(orbit)
        return out

    def images(self) -> tuple[int, ...]:
        return self._img

    def cycles(self) -> list[list[int]]:
        return [orb for orb in self.orbits() if len(orb) > 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __repr__(self) -> str:
        return f"Permutation({list(self._img)})"


@dataclass(frozen=True)
class Origami:
    """d unit squares glued by right-neighbor p1 and upper-neighbor p2.

    Its cylinders, the cylinder and position of each square, its corner
    permutation and orbits and its genus are cached properties, each
    derived once."""

    d: int
    p1: Permutation
    p2: Permutation

    def __post_init__(self):
        if self.p1.size != self.d or self.p2.size != self.d:
            raise NotBijective("permutation size differs from square count")
        # connectedness: <p1, p2> transitive on {1..d}
        seen = {1}
        stack = [1]
        while stack:
            s = stack.pop()
            for t in (self.p1(s), self.p2(s)):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != self.d:
            raise NotTransitive(
                f"squares {sorted(set(range(1, self.d + 1)) - seen)} unreachable"
            )

    # Derived on first use rather than in __post_init__: `veech-check` and
    # the rejection loop of `random_origami` need none of these.

    @cached_property
    def horizontal_cylinders(self) -> tuple[Cylinder, ...]:
        """Orbits of p1, ordered by smallest square."""
        return tuple(Cylinder(tuple(orb)) for orb in self.p1.orbits())

    @cached_property
    def cylinder_at(self) -> tuple[tuple[int, int], ...]:
        """Square s -> (index of its cylinder, position of s in it);
        entry 0, no square, is (-1, -1)."""
        at = [(-1, -1)] * (self.d + 1)
        for i, z in enumerate(self.horizontal_cylinders):
            for k, s in enumerate(z.squares):
                at[s] = (i, k)
        return tuple(at)

    @cached_property
    def corner(self) -> Permutation:
        """The corner permutation s -> p2(p1(p2^-1(p1^-1(s)))), which
        cycles the bottom-left corners around each vertex."""
        return Permutation([vertex_permutation(self, s)
                            for s in range(1, self.d + 1)])

    @cached_property
    def corner_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the corner permutation, one per vertex."""
        return tuple(map(tuple, self.corner.orbits()))

    @cached_property
    def surface_genus(self) -> int:
        """From the Euler characteristic: #vertices - d = 2 - 2g."""
        v = len(self.corner_orbits)
        if (self.d - v) % 2 != 0:
            raise ParityViolation(f"d - #vertices = {self.d - v} is odd")
        g = (self.d - v) // 2 + 1
        assert g >= 1
        return g


def new_origami(d: int, p1: Permutation, p2: Permutation) -> Origami:
    return Origami(d, p1, p2)


@dataclass(frozen=True)
class Cylinder:
    """An orbit of p1: a maximal horizontal band of squares."""

    squares: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.squares)

    @property
    def base(self) -> int:
        return min(self.squares)


def cylinders(o: Origami) -> list[Cylinder]:
    """Horizontal cylinders, ordered by smallest square."""
    return list(o.horizontal_cylinders)


def vertex_permutation(o: Origami, s: int) -> int:
    """s -> p2(p1(p2^-1(p1^-1(s)))): cycles around the bottom-left corner."""
    return o.p2(o.p1(o.p2.inverse_of(o.p1.inverse_of(s))))


def vertex_orbits(o: Origami) -> list[list[int]]:
    """Orbits of the corner permutation; one per vertex of the surface."""
    return [list(orb) for orb in o.corner_orbits]


def genus(o: Origami) -> int:
    return o.surface_genus


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def wollmilchsau() -> Origami:
    p1 = Permutation.from_cycles(8, [[1, 2, 3, 4], [5, 6, 7, 8]])
    p2 = Permutation.from_cycles(8, [[1, 7, 3, 5], [2, 6, 4, 8]])
    return Origami(8, p1, p2)


def o14() -> Origami:
    p1 = Permutation([2, 3, 4, 1, 6, 7, 5, 9, 10, 11, 12, 13, 14, 8])
    p2 = Permutation([13, 14, 11, 9, 8, 10, 12, 5, 3, 4, 1, 2, 6, 7])
    return Origami(14, p1, p2)


def l_origami(m: int, n: int) -> Origami:
    """L-shaped origami: a row of m squares plus a column of n squares
    sharing square 1.  Has m+n-1 squares and genus 2 for m,n >= 2."""
    if m < 2 or n < 2:
        raise BadParameters("l_origami requires m, n >= 2")
    d = m + n - 1
    p1 = Permutation.from_cycles(d, [list(range(1, m + 1))])
    p2 = Permutation.from_cycles(d, [[1] + list(range(m + 1, m + n))])
    return Origami(d, p1, p2)


def x_origami(n: int) -> Origami:
    """A single horizontal cylinder of 2n squares with vertical gluings
    (1 2)(3 4)...(2n-1 2n); genus n."""
    if n < 1:
        raise BadParameters("x_origami requires n >= 1")
    d = 2 * n
    p1 = Permutation.from_cycles(d, [list(range(1, d + 1))])
    p2 = Permutation.from_cycles(d, [[2 * k + 1, 2 * k + 2] for k in range(n)])
    return Origami(d, p1, p2)


# ---------------------------------------------------------------------------
# curves as (start square, word)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrigamiCurve:
    """A lattice path on the origami: start square plus a rank-2 word read
    left to right, x a unit step right and y a unit step up."""

    start: int
    word: Word

    def __post_init__(self):
        assert self.word.rank == 2, "curve words live in rank 2"


def act_letter(o: Origami, s: int, g: int, e: int) -> int:
    """Image of square s under one letter: generator g in {1: x, 2: y},
    exponent e in {1, -1}."""
    if g == 1:
        return o.p1(s) if e == 1 else o.p1.inverse_of(s)
    if g == 2:
        return o.p2(s) if e == 1 else o.p2.inverse_of(s)
    raise AssertionError(f"bad generator {g}")


def act_word(o: Origami, s: int, w: Word) -> int:
    """Image of square s under the word, letters applied left to right."""
    for g, e in w.letters:
        s = act_letter(o, s, g, e)
    return s


def trace_curve(o: Origami, c: OrigamiCurve) -> list[int]:
    """Successive squares visited; first entry is the start square."""
    assert 1 <= c.start <= o.d, "start square out of range"
    out = [c.start]
    for g, e in c.word.letters:
        out.append(act_letter(o, out[-1], g, e))
    return out


def is_closed(o: Origami, c: OrigamiCurve) -> bool:
    return act_word(o, c.start, c.word) == c.start


def horizontal_multiplier(o: Origami) -> tuple[int, tuple[int, int, int, int]]:
    """lcm of cylinder lengths m, with the matrix (1, m; 0, 1)."""
    m = math.lcm(*(z.length for z in o.horizontal_cylinders))
    return m, (1, m, 0, 1)


def vertical_multiplier(o: Origami) -> tuple[int, tuple[int, int, int, int]]:
    """lcm of vertical cylinder lengths c, with the matrix (1, 0; c, 1)."""
    c = math.lcm(*(len(orb) for orb in o.p2.orbits()))
    return c, (1, 0, c, 1)


# ---------------------------------------------------------------------------
# direction-(p,q) shear
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineChange:
    """Exact rational 2x2 coordinate change, row-major."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "AffineChange":
        det = self.det()
        assert det != 0
        return AffineChange(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def matmul(self, other: "AffineChange") -> "AffineChange":
        return AffineChange(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    @staticmethod
    def from_ints(a, b, c, d) -> "AffineChange":
        return AffineChange(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


AFFINE_ID = AffineChange.from_ints(1, 0, 0, 1)


def shear(o: Origami, p: int, q: int) -> tuple[Origami, AffineChange]:
    """Re-square the surface along direction (p, q).

    Each square is sliced into the q parallelograms spanned by (1/q, 0)
    and (p/q, 1), based at x = j/q on the bottom edge; the coordinate
    change g = (1/q, p/q; 0, 1) maps the resquared unit squares back onto
    them.  Requires gcd(p, q) = 1.  For q = 0 (the horizontal direction
    itself) the origami is returned unchanged with the identity change.
    """
    if math.gcd(p, q) != 1:
        raise BadDirection(f"gcd({p}, {q}) != 1")
    if q == 0:
        return o, AFFINE_ID
    if q < 0:
        p, q = -p, -q

    def sq(s: int, j: int) -> int:
        return (s - 1) * q + j + 1

    d2 = o.d * q
    img1 = [0] * d2
    img2 = [0] * d2
    for s in range(1, o.d + 1):
        for j in range(q):
            # right neighbor: next strip, wrapping into p1(s)
            if j + 1 < q:
                img1[sq(s, j) - 1] = sq(s, j + 1)
            else:
                img1[sq(s, j) - 1] = sq(o.p1(s), 0)
            # upper neighbor: crossing the top edge lands in p2(s),
            # shifted right by the accumulated direction offset
            k, j2 = divmod(j + p, q)
            img2[sq(s, j) - 1] = sq(o.p1.power(o.p2(s), k), j2)
    sheared = Origami(d2, Permutation(img1), Permutation(img2))
    change = AffineChange(Fraction(1, q), Fraction(p, q), Fraction(0), Fraction(1))
    return sheared, change


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str, label: str) -> list[list[int]]:
    body = text.strip()
    if body in ("()", "id", ""):
        return []
    rest = _CYCLE_RE.sub("", body).strip()
    if rest:
        raise BadFormat(f"{label}: stray text {rest!r} outside cycles")
    cycles = []
    for m in _CYCLE_RE.finditer(body):
        entries = m.group(1).replace(",", " ").split()
        if not entries:
            continue
        try:
            cycles.append([int(e) for e in entries])
        except ValueError as exc:
            raise BadFormat(f"{label}: non-integer cycle entry") from exc
    return cycles


def parse_origami(text: str) -> Origami:
    """Parse the origami text format:

        # optional comments
        squares: 8
        p1: (1 2 3 4)(5 6 7 8)
        p2: (1 7 3 5)(2 6 4 8)
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise BadFormat(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in ("squares", "p1", "p2"):
            raise BadFormat(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise BadFormat(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    for key in ("squares", "p1", "p2"):
        if key not in fields:
            raise BadFormat(f"missing key {key!r}")
    try:
        d = int(fields["squares"])
    except ValueError as exc:
        raise BadFormat("squares: expected an integer") from exc
    if d < 1:
        raise BadFormat("squares: must be >= 1")
    cycles = {key: _parse_cycles(fields[key], key) for key in ("p1", "p2")}
    # for d >= 2 a transitive pair moves every square, so every square is
    # a cycle entry; checked before anything of size d is built
    entries = sum(len(c) for key in cycles for c in cycles[key])
    if d > max(1, entries):
        raise BadFormat(f"squares: {d} exceeds the {entries} cycle entries")
    perms = []
    for key in ("p1", "p2"):
        try:
            perms.append(Permutation.from_cycles(d, cycles[key]))
        except NotBijective as exc:
            raise BadFormat(f"{key}: {exc}") from exc
    return Origami(d, *perms)


def _format_cycles(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "id"
    return "".join("(" + " ".join(str(s) for s in cyc) + ")" for cyc in cycles)


def format_origami(o: Origami) -> str:
    return (
        f"squares: {o.d}\n"
        f"p1: {_format_cycles(o.p1)}\n"
        f"p2: {_format_cycles(o.p2)}\n"
    )


# ---------------------------------------------------------------------------
# random generation (rejection sampling for transitivity)
# ---------------------------------------------------------------------------


def random_origami(rng, d: int) -> Origami:
    """A uniformly random transitive origami with d squares, by rejection."""
    assert d >= 1
    while True:
        a = list(range(1, d + 1))
        b = list(range(1, d + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        try:
            return Origami(d, Permutation(a), Permutation(b))
        except NotTransitive:
            continue


def curve(start: int, text: str) -> OrigamiCurve:
    """Convenience: curve from a word in the default x/y alphabet."""
    return OrigamiCurve(start, parse_word(text))

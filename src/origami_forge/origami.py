"""Origamis (square-tiled surfaces) given by a pair of permutations.

An origami with d unit squares is encoded by two permutations on {1..d}:
p1 sends a square to its right neighbor, p2 to its upper neighbor.  The
group generated by (p1, p2) must act transitively (the surface is
connected).  All arithmetic here is exact.

A `Permutation` keeps its image and preimage tables indexed by square,
with an unused entry 0 that maps to 0.  The square graph joins each
square s to p1(s) and p2(s); it is the Schreier graph of the stabilizer
of a square in F_2 = <x, y>.  Two helpers walk it, reading the tables
directly: `square_tree`, the breadth-first tree from a base square, and
`letter_edges`, the edges a word runs along.  `letter_edges` and
`act_word` step a word through the tables one private helper hands them,
which holds the one check that the word has rank 2 and starts on a
square.  The connectedness check, the Schreier transversal, the covering
test, edge chains and Reidemeister-Schreier rewriting all read them.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .freegroup import RankMismatch, Word

__all__ = [
    "NotBijective",
    "NotTransitive",
    "BadParameters",
    "BadDirection",
    "BadFormat",
    "Permutation",
    "Origami",
    "Cylinder",
    "OrigamiCurve",
    "AffineChange",
    "cylinders",
    "vertex_orbits",
    "genus",
    "l_origami",
    "x_origami",
    "wollmilchsau",
    "o14",
    "is_closed",
    "horizontal_multiplier",
    "vertical_multiplier",
    "shear",
    "MAX_SHEAR_SQUARES",
    "parse_origami",
    "format_origami",
    "random_origami",
    "act_word",
    "square_tree",
    "letter_edges",
]


class NotBijective(ValueError):
    pass


class NotTransitive(ValueError):
    pass


class BadParameters(ValueError):
    pass


class BadDirection(ValueError):
    pass


class BadFormat(ValueError):
    pass


class Permutation:
    """A permutation of {1..d}, stored as an image table and a preimage
    table, both indexed by square: entry s is the image (preimage) of
    square s, and the unused entry 0 maps 0 to 0.  The square-graph walks
    read the tables directly.  `Permutation(images)` checks that images
    is a permutation; products, powers and inverses are permutations by
    construction and skip that check (`_of`)."""

    __slots__ = ("size", "_img", "_pre")

    def __init__(self, images: Sequence[int]):
        img = tuple(images)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise NotBijective(f"not a permutation of 1..{len(img)}: {img}")
        self._fill((0, *img))

    @classmethod
    def _of(cls, img: tuple[int, ...]) -> "Permutation":
        """The permutation with image table img (indexed by square, entry
        0 being 0), which must be one."""
        p = object.__new__(cls)
        p._fill(img)
        return p

    def _fill(self, img: tuple[int, ...]) -> None:
        pre = [0] * len(img)
        for s, t in enumerate(img):
            pre[t] = s
        self.size = len(img) - 1
        self._img = img
        self._pre = tuple(pre)

    @staticmethod
    def from_cycles(d: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Disjoint cycles in 1..d, checked entry by entry; the table they
        give is then a permutation without a further check."""
        img = list(range(d + 1))
        seen = set()
        for cyc in cycles:
            for s in cyc:
                if not (1 <= s <= d):
                    raise NotBijective(f"entry {s} out of range 1..{d}")
                if s in seen:
                    raise NotBijective(f"entry {s} repeated across cycles")
                seen.add(s)
            for i, s in enumerate(cyc):
                img[s] = cyc[(i + 1) % len(cyc)]
        return Permutation._of(tuple(img))

    def __call__(self, s: int) -> int:
        if not 1 <= s <= self.size:
            raise BadParameters(f"square {s} out of range")
        return self._img[s]

    def inverse_of(self, s: int) -> int:
        if not 1 <= s <= self.size:
            raise BadParameters(f"square {s} out of range")
        return self._pre[s]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self, then other: squares act on the left, as words do."""
        img = other._img
        return Permutation._of(tuple([img[t] for t in self._img]))

    def __pow__(self, k: int) -> "Permutation":
        """The k-th power: the operand itself for k = 1, the preimage
        table for k = -1, and otherwise each orbit shifted by k, O(d) for
        any k."""
        if k == 1:
            return self
        if k == -1:
            return Permutation._of(self._pre)
        img = [0] * (self.size + 1)
        for orbit in self.orbits():
            for i, s in enumerate(orbit):
                img[s] = orbit[(i + k) % len(orbit)]
        return Permutation._of(tuple(img))

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
                t = self._img[t]
            out.append(orbit)
        return out

    def images(self) -> tuple[int, ...]:
        return self._img[1:]

    def cycles(self) -> list[list[int]]:
        return [orb for orb in self.orbits() if len(orb) > 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self.images())

    def __repr__(self) -> str:
        return f"Permutation({list(self.images())})"


class Origami(namedtuple("Origami", "d p1 p2")):
    """d unit squares glued by right-neighbor p1 and upper-neighbor p2,
    checked on construction: d >= 1, both permutations of size d, and the
    pair transitive.

    The fields are immutable and decide equality and the hash.  Its
    cylinders, the cylinder and position of each square, its corner
    permutation and orbits and its genus are cached properties, each
    derived once and kept in the instance dict."""

    def __new__(cls, d: int, p1: Permutation, p2: Permutation):
        if d < 1:
            raise BadParameters(f"an origami needs at least one square, not {d}")
        if p1.size != d or p2.size != d:
            raise NotBijective("permutation size differs from square count")
        self = super().__new__(cls, d, p1, p2)
        # connectedness: <p1, p2> transitive on {1..d}
        tree = square_tree(self, 1)
        if len(tree) != d - 1:
            seen = {1, *(u for _, _, u in tree)}
            raise NotTransitive(
                f"squares {sorted(set(range(1, d + 1)) - seen)} unreachable"
            )
        return self

    # Derived on first use rather than on construction: `veech-check` and
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
        # d - #vertices is even: the corner permutation is a commutator
        return (self.d - len(self.corner_orbits)) // 2 + 1


class Cylinder(NamedTuple):
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


class OrigamiCurve(namedtuple("OrigamiCurve", "start word")):
    """A lattice path on the origami: start square plus a rank-2 word read
    left to right, x a unit step right and y a unit step up."""

    __slots__ = ()

    def __new__(cls, start: int, word: Word):
        if word.rank != 2:
            raise BadParameters("curve words live in rank 2")
        return super().__new__(cls, start, word)


def square_tree(o: Origami, base: int) -> list[tuple[int, int, int]]:
    """The breadth-first tree of the square graph from base: one edge
    (t, g, u) per square u reached, where u = p_g(t) is first reached
    from t, in the order reached.  Each square tries its x-neighbour
    before its y-neighbour.  d - 1 edges iff the origami is connected."""
    p1, p2 = o.p1._img, o.p2._img
    seen = [False] * (o.d + 1)
    seen[base] = True
    order = [base]
    tree = []
    for t in order:
        u = p1[t]
        if not seen[u]:
            seen[u] = True
            order.append(u)
            tree.append((t, 1, u))
        u = p2[t]
        if not seen[u]:
            seen[u] = True
            order.append(u)
            tree.append((t, 2, u))
    return tree


def _word_tables(o: Origami, s: int, w: Word) -> tuple:
    """The tables a word steps through from square s: entry g is the
    (image, preimage) pair of generator g's permutation, p1 for g = 1 and
    p2 for g = 2.  The one check of a word's rank and start square on
    the square graph: RankMismatch unless w has rank 2, ValueError unless
    s is a square."""
    if w.rank != 2:
        raise RankMismatch(f"words on squares have rank 2, not {w.rank}")
    if not 1 <= s <= o.d:
        raise ValueError("start square out of range")
    return (None, (o.p1._img, o.p1._pre), (o.p2._img, o.p2._pre))


def letter_edges(o: Origami, s: int,
                 w: Word) -> Iterator[tuple[int, int, int]]:
    """The square-graph edges that the word's letters run along from
    square s, as (t, g, e) per letter (g, e): the letter crosses the
    g-side of square t, forward from t when e = 1 and back into t when
    e = -1, so t is the square before the letter or after it."""
    tables = _word_tables(o, s, w)
    for g, e in w.letters:
        img, pre = tables[g]
        if e == 1:
            yield s, g, 1
            s = img[s]
        else:
            s = pre[s]
            yield s, g, -1


def act_word(o: Origami, s: int, w: Word) -> int:
    """Image of square s under the word, letters applied left to right."""
    tables = _word_tables(o, s, w)
    for g, e in w.letters:
        img, pre = tables[g]
        s = img[s] if e == 1 else pre[s]
    return s


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


class AffineChange(NamedTuple):
    """Exact rational 2x2 coordinate change, row-major."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "AffineChange":
        det = self.det()
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


# The most squares `shear` builds: its output has d * |q| squares.
MAX_SHEAR_SQUARES = 10 ** 6


def shear(o: Origami, p: int, q: int) -> tuple[Origami, AffineChange]:
    """Re-square the surface along direction (p, q).

    Each square is sliced into the q parallelograms spanned by (1/q, 0)
    and (p/q, 1), based at x = j/q on the bottom edge; the coordinate
    change g = (1/q, p/q; 0, 1) maps the resquared unit squares back onto
    them.  Requires gcd(p, q) = 1 and d * |q| <= MAX_SHEAR_SQUARES.  For
    q = 0 (the horizontal direction itself) the origami is returned
    unchanged with the identity change.
    """
    if math.gcd(p, q) != 1:
        raise BadDirection(f"gcd({p}, {q}) != 1")
    if o.d * abs(q) > MAX_SHEAR_SQUARES:
        raise BadParameters(f"shear would build {o.d} * {abs(q)} squares, "
                            f"more than {MAX_SHEAR_SQUARES}")
    if q == 0:
        return o, AFFINE_ID
    if q < 0:
        p, q = -p, -q

    def sq(s: int, j: int) -> int:
        return (s - 1) * q + j + 1

    # crossing the top edge at strip j shifts right by k = (j + p) div q,
    # which is p div q or one more, since 0 <= j < q
    k0 = p // q
    lo = o.p1 ** k0
    hi = lo * o.p1
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
            shift = lo if k == k0 else hi
            img2[sq(s, j) - 1] = sq(shift(o.p2(s)), j2)
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
    """A uniformly random transitive origami with d squares, by rejection;
    BadParameters for d < 1."""
    while True:
        a = list(range(1, d + 1))
        b = list(range(1, d + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        try:
            return Origami(d, Permutation(a), Permutation(b))
        except NotTransitive:
            continue

"""Reduced words in free groups, F_2 endomorphisms and the exponent-sum
homomorphism to GL_2(Z).

Words are immutable sequences of (generator, +-1) letters, kept freely
reduced at all times.  Generators are numbered 1..rank; in rank 2 the
generators are written x and y.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, List, Optional, Sequence, Tuple


class RankMismatch(ValueError):
    pass


class IndexOutOfRange(ValueError):
    pass


class NotUnimodular(ValueError):
    pass


class AllTrivial(ValueError):
    pass


class Word:
    """A freely reduced word.  Value-immutable."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: Iterable[Tuple[int, int]] = ()):
        if rank < 1:
            raise RankMismatch(f"rank {rank} is below 1")
        self.rank = rank
        self.letters = _reduce(rank, letters)

    @classmethod
    def _of(cls, rank: int, letters: Tuple[Tuple[int, int], ...]) -> "Word":
        """The word of the given rank with these letters, a tuple of
        letters (g, +-1) with 1 <= g <= rank that must be freely reduced:
        inverses, end slices and curve words are so by construction and
        skip `_reduce`."""
        w = object.__new__(cls)
        w.rank = rank
        w.letters = letters
        return w

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        if not other.letters:
            return self
        if not self.letters:
            return other
        return Word(self.rank, self.letters + other.letters)

    def inv(self) -> "Word":
        return Word._of(self.rank,
                        tuple([(g, -e) for g, e in reversed(self.letters)]))

    def __pow__(self, n: int) -> "Word":
        if n == 1:
            return self
        base = self if n >= 0 else self.inv()
        return Word(self.rank, base.letters * abs(n))

    def substitute(self, images: Sequence["Word"], rank: int) -> "Word":
        """The image under generator i -> images[i - 1] (words of the given
        rank), concatenated and reduced once: free reduction is confluent."""
        letters: List[Tuple[int, int]] = []
        for g, e in self.letters:
            img = images[g - 1]
            letters += (img if e == 1 else img.inv()).letters
        return Word(rank, letters)

    def conj(self, g: "Word") -> "Word":
        """g * self * g^-1."""
        return g * self * g.inv()

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        return f"Word({self.rank}, {format_word(self)!r})"

    def __str__(self):
        return format_word(self)


def _reduce(rank: int, letters: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Freely reduce a sequence of letters (g, e), where a run x_g^e with
    |e| > 1 stands for |e| letters and e = 0 for none: the run cancels
    against the reduced tail, and what is left of it is appended at once."""
    out: List[Tuple[int, int]] = []
    for g, e in letters:
        if not (1 <= g <= rank):
            raise IndexOutOfRange(f"generator {g} out of range 1..{rank}")
        if e == 1 or e == -1:
            if out and out[-1] == (g, -e):
                out.pop()
            else:
                out.append((g, e))
        elif e:
            step = 1 if e > 0 else -1
            n, inverse = e * step, (g, -step)
            while n and out and out[-1] == inverse:
                out.pop()
                n -= 1
            out += [(g, step)] * n
    return tuple(out)


def gen(rank: int, i: int, e: int = 1) -> Word:
    return Word(rank, [(i, e)])


# ---------------------------------------------------------------------------
# text format: space separated tokens `x`, `y^-3`, `g3^2`


def default_names(rank: int) -> List[str]:
    if rank == 2:
        return ["x", "y"]
    return [f"g{i}" for i in range(1, rank + 1)]


def format_word(w: Word) -> str:
    names = default_names(w.rank)
    if not w.letters:
        return "1"
    parts = []
    run_g, run_e = w.letters[0]
    count = run_e
    for g, e in w.letters[1:]:
        if g == run_g and (e > 0) == (count > 0):
            count += e
        else:
            parts.append(_token(names[run_g - 1], count))
            run_g, count = g, e
    parts.append(_token(names[run_g - 1], count))
    return " ".join(parts)


def _token(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


# The most letters `parse_word` reads: the sum of |e| over its tokens.
MAX_WORD_LETTERS = 10 ** 6


def parse_word(text: str, rank: int = 2, names: Optional[Sequence[str]] = None) -> Word:
    """Parse the space separated token format, e.g. `x^-3 y^-1 x y`.
    ValueError for a word of more than MAX_WORD_LETTERS letters, raised
    before any letter is built."""
    if names is None:
        names = default_names(rank)
    index = {n: i + 1 for i, n in enumerate(names)}
    letters: List[Tuple[int, int]] = []
    text = text.strip()
    if text in ("", "1"):
        return Word(rank)
    count = 0
    for tok in text.split():
        if "^" in tok:
            name, _, exp = tok.partition("^")
            e = int(exp)
        else:
            name, e = tok, 1
        if name not in index:
            raise ValueError(f"unknown generator token {name!r}")
        count += abs(e)
        if count > MAX_WORD_LETTERS:
            raise ValueError(
                f"word has more than {MAX_WORD_LETTERS} letters")
        letters.append((index[name], e))
    return Word(rank, letters)


# ---------------------------------------------------------------------------
# exponent sums, conjugacy


def exponent_sums(w: Word) -> Tuple[int, ...]:
    out = [0] * w.rank
    for g, e in w.letters:
        out[g - 1] += e
    return tuple(out)


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1
    and core cyclically reduced: k end pairs cancel, and the conjugator is
    the first k letters."""
    letters = w.letters
    k, j = 0, len(letters) - 1
    while k < j and letters[k] == (letters[j][0], -letters[j][1]):
        k, j = k + 1, j - 1
    return Word._of(w.rank, letters[k:j + 1]), Word._of(w.rank, letters[:k])


def is_conjugate(u: Word, v: Word) -> Optional[Word]:
    """Return g with v = g * u * g^-1, or None."""
    if u.rank != v.rank:
        raise RankMismatch("ranks differ")
    cu, pu = cyclic_reduce(u)
    cv, pv = cyclic_reduce(v)
    core, target = cu.letters, cv.letters
    if len(core) != len(target):
        return None
    for k in range(max(len(core), 1)):
        if core[k:] + core[:k] == target:
            # the rotation is prefix^-1 * cu * prefix, so g * u * g^-1 = v
            return pv * Word._of(u.rank, core[:k]).inv() * pu.inv()
    return None


def primitive_root(u: Word) -> Word:
    """The generator of the centralizer of a non-trivial u."""
    core, p = cyclic_reduce(u)
    letters = core.letters
    n = len(letters)
    if n == 0:
        raise AllTrivial("the trivial word has no primitive root")
    for k in range(1, n):
        if n % k == 0 and letters[:k] * (n // k) == letters:
            return Word._of(core.rank, letters[:k]).conj(p)
    return core.conj(p)


def simultaneous_conjugacy(pairs: Sequence[Tuple[Word, Word]]) -> Optional[Word]:
    """A single g with v_i = g * u_i * g^-1 for all pairs, or None.

    The solution set, if non-empty, is g0 * <root(u1)> for the first
    non-trivial u1; candidates are scanned with a length bound after which
    conjugates only grow.
    """
    pairs = list(pairs)
    if not pairs:
        return Word(1)
    rank = pairs[0][0].rank
    nontrivial = [(u, v) for u, v in pairs if not u.is_identity()]
    if not nontrivial:
        if any(not v.is_identity() for _, v in pairs):
            raise AllTrivial("every u is trivial but some v is not")
        return Word(rank)
    # trivial u forces trivial v
    for u, v in pairs:
        if u.is_identity() and not v.is_identity():
            return None
    u1, v1 = nontrivial[0]
    g0 = is_conjugate(u1, v1)
    if g0 is None:
        return None
    root = primitive_root(u1)

    def ok(g: Word) -> bool:
        return all(u.conj(g) == v for u, v in pairs)

    max_len = max(len(v) for _, v in pairs) + max(len(u) for u, _ in pairs)
    bound = 2 + (max_len + 2 * len(g0)) // max(len(root), 1)
    for k in range(0, bound + 1):
        for sk in ((k,) if k == 0 else (k, -k)):
            g = g0 * root ** sk
            if ok(g):
                return g
    return None


# ---------------------------------------------------------------------------
# horizontal words


def is_conjugate_horizontal(w: Word) -> bool:
    """True iff some conjugate of w is horizontal.  The conjugates' y-sign
    sequences are the rotations of the cyclic core's, and one of those
    rotations alternates with sum 0 iff the sequence alternates cyclically."""
    if w.rank != 2:
        raise RankMismatch("horizontality is defined for rank 2")
    core, _ = cyclic_reduce(w)
    ysigns = [e for g, e in core.letters if g == 2]
    return all(a != b for a, b in zip(ysigns, ysigns[1:] + ysigns[:1]))


# ---------------------------------------------------------------------------
# F_2 endomorphisms and beta_hat


class F2Endo(namedtuple("F2Endo", "image_x image_y is_automorphism",
                         defaults=(False,))):
    """The endomorphism x -> image_x, y -> image_y of F_2; both images are
    rank-2 words."""

    __slots__ = ()

    def __new__(cls, image_x: Word, image_y: Word,
                is_automorphism: bool = False):
        if image_x.rank != 2 or image_y.rank != 2:
            raise RankMismatch("images must be rank-2 words")
        return super().__new__(cls, image_x, image_y, is_automorphism)

    def __call__(self, w: Word) -> Word:
        if w.rank != 2:
            raise RankMismatch("apply expects a rank-2 word")
        return w.substitute((self.image_x, self.image_y), 2)

    def __repr__(self):
        return f"F2Endo(x -> {self.image_x}, y -> {self.image_y})"


IntMatrix2 = Tuple[int, int, int, int]  # (a, b, c, d) for ((a, b), (c, d))


def mat_det(A: IntMatrix2) -> int:
    a, b, c, d = A
    return a * d - b * c


def beta_hat(phi: F2Endo) -> IntMatrix2:
    sx = exponent_sums(phi.image_x)
    sy = exponent_sums(phi.image_y)
    return (sx[0], sy[0], sx[1], sy[1])


def horizontal_twist_lift(m: int) -> F2Endo:
    """x -> x, y -> x^m y; beta_hat is ((1, m), (0, 1))."""
    return F2Endo(gen(2, 1), Word(2, [(1, m), (2, 1)]), True)


SWAP: IntMatrix2 = (0, 1, 1, 0)
NEG_X: IntMatrix2 = (-1, 0, 0, 1)
NEG_Y: IntMatrix2 = (1, 0, 0, -1)


def nielsen_factors(A: IntMatrix2) -> List[IntMatrix2]:
    """Factors SWAP, NEG_X, NEG_Y and T^q = (1, q; 0, 1) with product A, by a
    Euclidean column reduction: O(log max|entry|) of them.  Deterministic."""
    if mat_det(A) not in (1, -1):
        raise NotUnimodular(f"det {mat_det(A)} is not +-1")
    factors: List[IntMatrix2] = []
    a, b, c, d = A
    while c != 0:
        if a == 0 or abs(a) < abs(c):
            # A = SWAP * (SWAP*A)
            factors.append(SWAP)
            a, b, c, d = c, d, a, b
            continue
        # (a, b; c, d) = T^q * (a - q*c, b - q*d; c, d)
        q = a // c
        factors.append((1, q, 0, 1))
        a, b = a - q * c, b - q * d
    # c == 0 and det = a d = +-1, so a, d in {1, -1}
    if a == -1:
        factors.append(NEG_X)
        b = -b
    if d == -1:
        factors.append(NEG_Y)
    if b != 0:
        factors.append((1, b, 0, 1))
    return factors


def apply_factors(A: IntMatrix2, X, Y):
    """(X, Y) moved through `nielsen_factors(A)` in order: each factor
    (a, b; c, d) lifts to the automorphism x -> x^a y^c, y -> x^b y^d, so
    it sends the images (X, Y) of x and y to (X^a Y^c, X^b Y^d).  X and Y
    may lie in any group with * and **, such as words or permutations,
    where ** returns its operand for exponent 1.

    A zero exponent is skipped, so SWAP costs nothing, NEG_X and NEG_Y
    one inverse each, and T^q one power and one product.  On permutations
    of d squares each of these is O(d), so k factors cost O(d k) beside
    the big-integer arithmetic of Euclid's algorithm."""
    for a, b, c, d in nielsen_factors(A):
        X, Y = _monomial(X, a, Y, c), _monomial(X, b, Y, d)
    return X, Y


def _monomial(X, a: int, Y, c: int):
    """X^a Y^c for exponents that are not both 0."""
    if c == 0:
        return X ** a
    if a == 0:
        return Y ** c
    return X ** a * Y ** c


def lift_matrix(A: IntMatrix2) -> F2Endo:
    """A preimage of A under beta_hat: the composite of the Nielsen
    automorphisms lifting `nielsen_factors(A)`, as long as A's entries."""
    phi = F2Endo(*apply_factors(A, gen(2, 1), gen(2, 2)), True)
    if beta_hat(phi) != A:
        raise NotUnimodular(f"lift of {A} maps to {beta_hat(phi)}")
    return phi

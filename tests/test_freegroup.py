"""Free group words, conjugacy, horizontality, and the exponent-sum map."""

import functools
import math
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_forge.freegroup import (
    MAX_WORD_LETTERS,
    AllTrivial,
    IndexOutOfRange,
    NotUnimodular,
    RankMismatch,
    Word,
    _reduce,
    beta_hat,
    cyclic_reduce,
    exponent_sums,
    format_word,
    gen,
    horizontal_twist_lift,
    is_conjugate,
    is_conjugate_horizontal,
    lift_matrix,
    mat_det,
    nielsen_factors,
    parse_word,
    primitive_root,
    simultaneous_conjugacy,
)

from oracles import (
    compose,
    composed_lift,
    identity_endo,
    inner,
    is_horizontal,
    letter_reduce,
    mat2_mul,
    power_root,
    rotation_conjugator,
    rotations,
    word_cyclic_reduce,
)

letters = st.lists(
    st.tuples(st.integers(1, 2), st.sampled_from([-1, 1])), max_size=12
)
words = letters.map(lambda ls: Word(2, ls))
words3 = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([-1, 1])), max_size=6
).map(lambda ls: Word(3, ls))


x = gen(2, 1)
y = gen(2, 2)


def _bezout(a, c):
    """(g, s, t) with s*a + t*c = g = gcd(a, c)."""
    if c == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, s, t = _bezout(c, a % c)
    return g, t, s - (a // c) * t


class TestWordAlgebra:
    def test_reduction(self):
        w = Word(2, [(1, 1), (1, -1), (2, 1)])
        assert w == y

    def test_runs_reduce_like_single_letters(self):
        """_reduce cancels a run x^e against the reduced tail and appends
        what is left at once; letter_reduce pushes |e| single letters.
        Short runs over few generators make long cancellations common."""
        rng = random.Random(1920)
        for _ in range(2000):
            rank = rng.randint(1, 4)
            letters = [(rng.randint(1, rank), rng.randint(-5, 5))
                       for _ in range(rng.randint(0, 12))]
            assert _reduce(rank, letters) == letter_reduce(rank, letters), \
                letters

    @pytest.mark.parametrize("g", [0, 5])
    def test_out_of_range_generator_raises(self, g):
        letters = [(1, 3), (g, -2), (1, -3)]
        for reduce in (_reduce, letter_reduce):
            with pytest.raises(IndexOutOfRange, match="out of range 1..4"):
                reduce(4, letters)

    def test_rank_below_one_and_mixed_ranks_raise(self):
        with pytest.raises(RankMismatch, match="^rank 0 is below 1$"):
            Word(0)
        with pytest.raises(RankMismatch, match="^rank 2 vs 3$"):
            Word(2) * Word(3)

    def test_power_and_inverse(self):
        w = parse_word("x y^-1")
        assert w * w.inv() == Word(2)
        assert w ** 3 == w * w * w
        assert w ** -2 == (w.inv()) ** 2

    @given(words, words)
    def test_inverse_of_product(self, u, v):
        assert (u * v).inv() == v.inv() * u.inv()

    @given(words, st.lists(words3, min_size=2, max_size=2))
    def test_substitute_is_product_of_images(self, w, images):
        folded = Word(3)
        for g, e in w.letters:
            img = images[g - 1]
            folded = folded * (img if e == 1 else img.inv())
        assert w.substitute(images, 3) == folded

    @given(words, st.integers(-6, 6))
    def test_power_is_repeated_product(self, w, n):
        folded = Word(2)
        for _ in range(abs(n)):
            folded = folded * (w if n >= 0 else w.inv())
        assert w ** n == folded

    @given(words)
    def test_format_parse_roundtrip(self, w):
        assert parse_word(format_word(w)) == w

    def test_parse_identity_token(self):
        assert parse_word("1") == Word(2)

    def test_exponent_sums(self):
        assert exponent_sums(parse_word("x^3 y^-1 x^-1 y^2")) == (2, 1)


class TestParseWordBound:
    @pytest.mark.parametrize("text", [
        "x^1000000000000",
        "y x^-1000000000000",
        f"x^{MAX_WORD_LETTERS} y",
        f"x^{MAX_WORD_LETTERS // 2 + 1} x^-{MAX_WORD_LETTERS // 2}",
    ])
    def test_long_word_is_refused_before_it_is_built(self, text):
        """The letter count is the sum of |e| over the tokens as written,
        checked token by token before any letter exists."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=f"more than {MAX_WORD_LETTERS} letters"):
                parse_word(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_word_at_the_bound_parses(self):
        w = parse_word(f"y x^{MAX_WORD_LETTERS - 1}")
        assert len(w) == MAX_WORD_LETTERS

    @pytest.mark.parametrize("name", ["l22.words", "flat64.words"])
    def test_shipped_word_fixtures_parse(self, name):
        from origami_forge.cli import fixture_dir
        from origami_forge.homology import parse_word_fixture

        with open(os.path.join(fixture_dir(), name), encoding="utf-8") as fh:
            wf = parse_word_fixture(fh.read())
        assert wf.names and wf.images


class TestConjugacy:
    @given(words)
    def test_cyclic_reduce_decomposition(self, w):
        core, conj = cyclic_reduce(w)
        assert conj * core * conj.inv() == w
        if len(core):
            first, last = core.letters[0], core.letters[-1]
            assert not (first[0] == last[0] and first[1] == -last[1])

    @given(words, words)
    def test_is_conjugate_witness(self, u, g):
        v = u.conj(g)
        witness = is_conjugate(u, v)
        assert witness is not None
        assert witness * u * witness.inv() == v

    def test_non_conjugate(self):
        assert is_conjugate(x, y) is None

    def test_primitive_root(self):
        w = parse_word("x y x y x y")
        assert primitive_root(w) == parse_word("x y")

    def test_simultaneous_conjugacy(self):
        g = parse_word("x y^-1 x")
        pairs = [(x, x.conj(g)), (y, y.conj(g)), (x * y, (x * y).conj(g))]
        witness = simultaneous_conjugacy(pairs)
        assert witness is not None
        for u, v in pairs:
            assert u.conj(witness) == v

    def test_simultaneous_conjugacy_failure(self):
        assert simultaneous_conjugacy([(x, x), (y, y.conj(x) * y)]) is None

    def test_simultaneous_conjugacy_all_trivial(self):
        assert simultaneous_conjugacy(
            [(Word(2), Word(2))]
        ) == Word(2)
        with pytest.raises(AllTrivial):
            simultaneous_conjugacy([(Word(2), x)])


class TestKnownReducedWords:
    """`Word._of` skips the reduction for letters reduced by construction:
    inverses, the end slices of `cyclic_reduce`, and the slices of a
    cyclic core that `is_conjugate` and `primitive_root` build on.  Each
    equals the word `Word(rank, letters)` reduces from the same letters,
    letter tuple and all; `TestCyclicWordsMatchReferences` checks the
    witnesses and roots built from the slices."""

    def test_seeded_reduced_words(self):
        rng = random.Random(3939)
        for _ in range(2000):
            rank = rng.randint(1, 3)
            w = Word(rank, [(rng.randint(1, rank), rng.choice((-1, 1)))
                            for _ in range(rng.randint(0, 40))])
            letters = w.letters
            assert Word._of(rank, letters) == Word(rank, letters)
            assert w.inv() == Word(rank, [(g, -e) for g, e in
                                          reversed(letters)])
            core, conj = cyclic_reduce(w)
            k = len(conj)
            assert conj == Word(rank, letters[:k])
            assert core == Word(rank, letters[k:len(letters) - k])
            for part in (w.inv(), core, conj):
                assert type(part.letters) is tuple
                assert part.letters == _reduce(rank, part.letters)
            for j in range(len(core)):
                assert Word._of(rank, core.letters[:j]) == Word(
                    rank, core.letters[:j])


class TestCyclicWordsMatchReferences:
    """The letter-tuple cyclic-word algebra against the Word-building
    references of `tests/oracles.py`: the same cores and conjugators, the
    same witness g (not just some g), and the same primitive roots."""

    @given(st.one_of(words, words3))
    def test_cyclic_reduce(self, w):
        assert cyclic_reduce(w) == word_cyclic_reduce(w)

    @given(words, words)
    def test_conjugate_witness(self, u, g):
        v = u.conj(g)
        assert is_conjugate(u, v) == rotation_conjugator(u, v)

    @given(words, words)
    def test_unrelated_pair(self, u, v):
        assert is_conjugate(u, v) == rotation_conjugator(u, v)

    @given(words, st.integers(1, 4), words)
    def test_primitive_root(self, r, m, g):
        w = (r ** m).conj(g)
        if not w.is_identity():
            assert primitive_root(w) == power_root(w)

    def test_seeded_long_words(self):
        """Long words and long powers, where end pairs, rotations and
        roots of every length occur."""
        rng = random.Random(3434)
        for _ in range(1500):
            rank = rng.randint(1, 3)
            r, g = (Word(rank, [(rng.randint(1, rank), rng.choice((-1, 1)))
                                for _ in range(rng.randint(0, n))])
                    for n in (8, 12))
            u = (r ** rng.randint(1, 6)).conj(g)
            v = u.conj(Word(rank, [(rng.randint(1, rank), 1)]) * g)
            assert cyclic_reduce(u) == word_cyclic_reduce(u)
            assert is_conjugate(u, v) == rotation_conjugator(u, v)
            assert is_conjugate(v, u) == rotation_conjugator(v, u)
            if not u.is_identity():
                assert primitive_root(u) == power_root(u)


class TestHorizontality:
    @pytest.mark.parametrize(
        "text, flag",
        [
            ("x^4", True),
            ("x y^-1 x y", True),
            ("x^-1 y^-1 x^-1 y", True),
            ("x^2 y x^-1 y^-1", True),
            ("y x y x^-1", False),  # y-signs do not alternate
            ("y", False),
            ("y x y^-1 x", True),
            ("x y x y x^-1 y^-1 x y^-1", False),
        ],
    )
    def test_is_horizontal(self, text, flag):
        assert is_horizontal(parse_word(text)) == flag

    @given(words)
    def test_conjugates_of_horizontal_words(self, g):
        w = parse_word("x^2 y^-1 x y")
        assert is_conjugate_horizontal(w.conj(g))

    @given(words)
    def test_conjugate_horizontal_matches_rotation_scan(self, w):
        assert is_conjugate_horizontal(w) == rotation_scan(w)

    def test_conjugate_horizontal_matches_rotation_scan_seeded(self):
        # long words, and conjugates of horizontal words so that both
        # answers occur often
        rng = random.Random(9)
        seen = set()
        for _ in range(3000):
            w = Word(2, [(rng.randint(1, 2), rng.choice((-1, 1)))
                         for _ in range(rng.randint(0, 30))])
            if rng.random() < 0.5:
                h = Word(2)
                for _ in range(rng.randint(0, 4)):
                    e = rng.choice((-1, 1))
                    h = (h * x ** rng.randint(-3, 3) * gen(2, 2, e)
                         * x ** rng.randint(-3, 3) * gen(2, 2, -e))
                w = h.conj(w)
            seen.add(rotation_scan(w))
            assert is_conjugate_horizontal(w) == rotation_scan(w), w
        assert seen == {True, False}

    def test_conjugate_horizontal_needs_rank_two(self):
        with pytest.raises(ValueError):
            is_conjugate_horizontal(gen(3, 1))


def rotation_scan(w):
    """Reference: is some rotation of the cyclic core horizontal?  The
    O(n^2) scan `is_conjugate_horizontal` was first written as."""
    core, _ = cyclic_reduce(w)
    return any(is_horizontal(rot) for _, rot, _ in rotations(core))


class TestExponentMap:
    def test_identity_endo(self):
        assert beta_hat(identity_endo()) == (1, 0, 0, 1)

    def test_inner_in_kernel(self):
        assert beta_hat(inner(parse_word("x y^-1"))) == (1, 0, 0, 1)

    def test_twist_lift(self):
        phi = horizontal_twist_lift(3)
        assert phi(x) == x
        assert phi(y) == parse_word("x^3 y")
        assert beta_hat(phi) == (1, 3, 0, 1)

    def test_composition_is_matrix_product(self):
        a = lift_matrix((1, 1, 0, 1))
        b = lift_matrix((1, 0, 1, 1))
        assert beta_hat(compose(a, b)) == mat2_mul((1, 1, 0, 1), (1, 0, 1, 1))

    def test_nielsen_factors_multiply_to_the_matrix(self):
        rng = random.Random(7)
        for digits in (1, 3, 30):
            for _ in range(50):
                a, c = (rng.randrange(-10 ** digits, 10 ** digits)
                        for _ in range(2))
                if math.gcd(a, c) != 1:
                    continue
                _, d, b = _bezout(a, c)
                A = rng.choice(((a, -b, c, d), (a, b, c, -d)))
                factors = nielsen_factors(A)
                assert functools.reduce(mat2_mul, factors, (1, 0, 0, 1)) == A
                assert len(factors) <= 12 * digits + 4

    def test_lift_matrix_matches_composed_lifts(self):
        """Folding the factors with apply_factors gives the same words as
        composing one Nielsen automorphism per factor."""
        rng = random.Random(22)
        for digits in (1, 2, 3):
            for _ in range(60):
                a, c = (rng.randrange(-10 ** digits, 10 ** digits)
                        for _ in range(2))
                if math.gcd(a, c) != 1:
                    continue
                _, d, b = _bezout(a, c)
                A = rng.choice(((a, -b, c, d), (a, b, c, -d)))
                assert lift_matrix(A) == composed_lift(A), A

    def test_lift_matrix_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            lift_matrix((2, 0, 0, 1))

    def test_lift_matrix_section_on_random_matrices(self):
        rng = random.Random(11)
        count = 0
        while count < 500:
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            c, d = rng.randint(-20, 20), rng.randint(-20, 20)
            A = (a, b, c, d)
            if mat_det(A) != 1:
                continue
            count += 1
            assert beta_hat(lift_matrix(A)) == A

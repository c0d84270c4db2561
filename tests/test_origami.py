"""Origami combinatorics: permutations, cylinders, singularities, genus,
monodromy traces, shears, and the text format."""

import glob
import math
import os
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import origami_forge
from origami_forge.freegroup import RankMismatch, Word, parse_word
from origami_forge.homology import class_of, edge_cycle, h1_model
from origami_forge.origami import (
    AffineChange,
    BadDirection,
    BadFormat,
    BadParameters,
    MAX_SHEAR_SQUARES,
    NotBijective,
    NotTransitive,
    Origami,
    OrigamiCurve,
    Permutation,
    act_word,
    cylinders,
    format_origami,
    genus,
    horizontal_multiplier,
    is_closed,
    l_origami,
    letter_edges,
    o14,
    parse_origami,
    random_origami,
    shear,
    square_tree,
    vertex_orbits,
    vertical_multiplier,
    wollmilchsau,
    x_origami,
)
from origami_forge.subgroup import CosetAction, rewrite, schreier_system

from oracles import corner_of, power, trace_curve

FIXTURE_DIR = os.path.join(os.path.dirname(origami_forge.__file__), "fixtures")


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(NotBijective):
            Permutation([1, 1, 3])

    def test_call_and_inverse_refuse_squares_off_the_range(self):
        p = Permutation([2, 1])
        with pytest.raises(BadParameters, match="^square 3 out of range$"):
            p(3)
        with pytest.raises(BadParameters, match="^square 0 out of range$"):
            p.inverse_of(0)

    def test_from_cycles_and_call(self):
        p = Permutation.from_cycles(4, [[1, 2, 3]])
        assert [p(s) for s in (1, 2, 3, 4)] == [2, 3, 1, 4]
        assert p.inverse_of(1) == 3
        assert power(p, 1, -2) == 2

    @pytest.mark.parametrize("cycles, message", [
        ([[1, 5]], "entry 5 out of range 1..4"),
        ([[0, 1]], "entry 0 out of range 1..4"),
        ([[1, 2], [2, 3]], "entry 2 repeated across cycles"),
        ([[1, 2, 1]], "entry 1 repeated across cycles"),
    ])
    def test_from_cycles_rejects_bad_entries(self, cycles, message):
        """These checks are all that stands between parsed cycles and a
        table that is not a permutation: from_cycles builds it unchecked."""
        with pytest.raises(NotBijective) as exc:
            Permutation.from_cycles(4, cycles)
        assert str(exc.value) == message

    def test_power_shifts_along_orbits(self):
        p = Permutation.from_cycles(7, [[1, 2, 3], [4, 5], [7, 6]])
        for k in range(-7, 8):
            expected = tuple(power(p, s, k) for s in range(1, 8))
            assert (p ** k).images() == expected
        assert p ** (6 * 10 ** 30 + 1) == p

    def test_unchecked_algebra_matches_checked(self):
        """Products, powers, inverses and cycle tables skip the bijectivity
        check; each must equal the checked `Permutation(list(...))` of its
        images, preimage table included, and step as the oracle does."""

        def checked(r):
            c = Permutation(list(r.images()))
            assert (r, r.size, r._pre) == (c, c.size, c._pre)
            return r

        rng = random.Random(23)
        for d in range(1, 21):
            for _ in range(3):
                a, b = list(range(1, d + 1)), list(range(1, d + 1))
                rng.shuffle(a)
                rng.shuffle(b)
                p, q = Permutation(a), Permutation(b)
                assert checked(Permutation.from_cycles(d, p.cycles())) == p
                product = checked(p * q).images()
                assert product == tuple(q(p(s)) for s in range(1, d + 1))
                order = math.lcm(*map(len, p.orbits()))
                for k in [*range(-7, 8), order, -order, order + 1,
                          -order - 1, 10 ** 30 + 1]:
                    r = checked(p ** k)
                    assert r.images() == tuple(power(p, s, k % order)
                                               for s in range(1, d + 1))

    def test_orbits_sorted_by_minimum(self):
        p = Permutation.from_cycles(5, [[4, 5], [1, 3]])
        assert p.orbits() == [[1, 3], [2], [4, 5]]


class TestGeometry:
    def test_transitivity_required(self):
        with pytest.raises(NotTransitive, match=r"^squares \[2\] unreachable$"):
            Origami(2, Permutation([1, 2]), Permutation([1, 2]))
        with pytest.raises(NotTransitive,
                           match=r"^squares \[3, 4, 5\] unreachable$"):
            Origami(5, Permutation([2, 1, 4, 5, 3]), Permutation([1, 2, 5, 3, 4]))

    @pytest.mark.parametrize("o", [
        wollmilchsau(), o14(), l_origami(3, 4), x_origami(3),
        *(random_origami(random.Random(d), d) for d in (2, 5, 12, 31)),
    ], ids=["wollmilchsau", "o14", "l34", "x3", "r2", "r5", "r12", "r31"])
    def test_square_tree_is_breadth_first(self, o):
        """From every base: d - 1 edges (t, g, u) with u = p_g(t), each
        square's parent edge is its first in-edge in (reach order of t,
        x before y), and squares are reached in the order of those edges."""
        for base in range(1, o.d + 1):
            tree = square_tree(o, base)
            order = [base, *(u for _, _, u in tree)]
            assert sorted(order) == list(range(1, o.d + 1))
            pos = {s: i for i, s in enumerate(order)}
            keys = [(pos[t], g) for t, g, _ in tree]
            assert keys == sorted(keys)
            for t, g, u in tree:
                assert u == (o.p1 if g == 1 else o.p2)(t)
                assert pos[t] < pos[u]
                assert (pos[t], g) == min(
                    (pos[s], h) for s in order for h, p in ((1, o.p1), (2, o.p2))
                    if p(s) == u)

    @pytest.mark.parametrize("build", [
        lambda: Origami(0, Permutation([]), Permutation([])),
        lambda: Origami(-1, Permutation([]), Permutation([])),
        lambda: random_origami(random.Random(0), 0),
    ], ids=["empty", "negative", "random"])
    def test_no_squares_is_refused(self, build):
        with pytest.raises(BadParameters, match="at least one square"):
            build()

    def test_permutation_sizes_must_match_the_squares(self):
        with pytest.raises(NotBijective, match="size differs"):
            Origami(2, Permutation([1]), Permutation([2, 1]))

    def test_four_cylinder_invariants(self):
        o = wollmilchsau()
        zs = cylinders(o)
        assert [sorted(z.squares) for z in zs] == [
            [1, 2, 3, 4],
            [5, 6, 7, 8],
        ]
        assert [z.length for z in zs] == [4, 4]
        assert vertex_orbits(o) == [[1, 3], [2, 4], [5, 7], [6, 8]]
        assert genus(o) == 3

    def test_fourteen_square_invariants(self):
        o = o14()
        assert sorted(z.length for z in cylinders(o)) == [3, 4, 7]
        assert vertex_orbits(o) == [
            [1],
            [2],
            [3, 6],
            [4],
            [5],
            [7],
            [8, 11, 12, 9, 10, 13],
            [14],
        ]
        assert genus(o) == 4

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("n", range(2, 7))
    def test_l_shape_genus_two(self, m, n):
        o = l_origami(m, n)
        assert o.d == m + n - 1
        assert genus(o) == 2
        assert sorted(z.length for z in cylinders(o)) == [1] * (n - 1) + [m]

    def test_l_shape_parameter_validation(self):
        with pytest.raises(BadParameters):
            l_origami(1, 3)

    def test_staircase_parameter_validation(self):
        with pytest.raises(BadParameters, match="n >= 1"):
            x_origami(0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_staircase_family_genus(self, n):
        o = x_origami(n)
        assert o.d == 2 * n
        assert genus(o) == n
        assert len(cylinders(o)) == 1

    def test_vertex_count_has_the_parity_of_d(self, fixture_origamis,
                                              random_sample):
        """The corner permutation is a commutator, hence even, so d minus
        its number of cycles is even and the genus is an integer."""
        for _, o in fixture_origamis + random_sample:
            assert (o.d - len(o.corner_orbits)) % 2 == 0

    def test_corner_matches_the_square_by_square_composition(
            self, fixture_origamis, random_sample):
        """The corner permutation, one product of permutations, sends each
        square where the four steps p1^-1, p2^-1, p1, p2 take it."""
        for _, o in fixture_origamis + random_sample:
            assert o.corner.images() == tuple(
                corner_of(o, s) for s in range(1, o.d + 1)), o

    def test_returned_lists_do_not_reach_the_cache(self):
        o = o14()
        zs, orbits = cylinders(o), vertex_orbits(o)
        zs.reverse()
        zs.pop()
        orbits[0].append(99)
        orbits.pop()
        assert [z.squares for z in cylinders(o)] == [
            (1, 2, 3, 4), (5, 6, 7), (8, 9, 10, 11, 12, 13, 14)]
        assert vertex_orbits(o) == [
            [1], [2], [3, 6], [4], [5], [7], [8, 11, 12, 9, 10, 13], [14]]

    def test_derived_once_and_outside_equality(self):
        o = o14()
        assert o.horizontal_cylinders is o.horizontal_cylinders
        assert o.corner is o.corner
        assert o.corner_orbits is o.corner_orbits
        assert o == o14() and hash(o) == hash(o14())

    @pytest.mark.parametrize("o", [wollmilchsau(), o14(), x_origami(3)],
                             ids=["wollmilchsau", "o14", "x3"])
    def test_cylinder_table(self, o):
        zs = cylinders(o)
        assert o.cylinder_at[0] == (-1, -1)
        for s in range(1, o.d + 1):
            i, k = o.cylinder_at[s]
            assert zs[i].squares[k] == s
            assert zs[i].squares[(k + 1) % zs[i].length] == o.p1(s)

    def test_multipliers(self):
        m, mat = horizontal_multiplier(wollmilchsau())
        assert (m, mat) == (4, (1, 4, 0, 1))
        assert horizontal_multiplier(o14())[0] == 84
        c, cmat = vertical_multiplier(l_origami(2, 2))
        assert cmat == (1, 0, c, 1)


class TestMonodromy:
    def test_act_word_left_to_right(self):
        o = wollmilchsau()
        assert act_word(o, 1, parse_word("x y")) == 6

    def test_trace_and_closure(self):
        o = wollmilchsau()
        c = OrigamiCurve(1, parse_word("x y^-1 x y"))
        trace = trace_curve(o, c)
        assert trace[0] == trace[-1] == 1
        assert is_closed(o, c)
        assert not is_closed(o, OrigamiCurve(1, parse_word("x")))

    def test_steppers_match_the_trace_oracle(self, fixture_origamis):
        """act_word's end square and letter_edges' crossed edges agree with
        the letter-by-letter `trace_curve`, for random reduced rank-2 words
        of length 0..40 from every square of the fixtures and of seeded
        origamis with d = 2..40."""
        rng = random.Random(28)
        origamis = [o for _, o in fixture_origamis]
        origamis += [random_origami(random.Random(d), d) for d in range(2, 41)]
        lengths = set()
        for o in origamis:
            for s in range(1, o.d + 1):
                for _ in range(2):
                    letters = []
                    for _ in range(rng.randint(0, 40)):
                        g, e = rng.randint(1, 2), rng.choice((1, -1))
                        if letters and letters[-1] == (g, -e):
                            e = -e
                        letters.append((g, e))
                    w = Word(2, letters)
                    assert len(w) == len(letters)
                    lengths.add(len(w))
                    trace = trace_curve(o, OrigamiCurve(s, w))
                    assert act_word(o, s, w) == trace[-1], (o, s, w)
                    assert list(letter_edges(o, s, w)) == [
                        (trace[i] if e == 1 else trace[i + 1], g, e)
                        for i, (g, e) in enumerate(w.letters)], (o, s, w)
        assert lengths == set(range(41))


class TestWordChecks:
    """One check of a word's rank and start square guards every public
    entry that steps a word across the squares."""

    ENTRIES = {
        "act_word": act_word,
        # OrigamiCurve itself refuses words of another rank
        "is_closed": lambda o, s, w: is_closed(
            o, SimpleNamespace(start=s, word=w)),
        "edge_cycle": edge_cycle,
        "class_of": lambda o, s, w: class_of(o, h1_model(o), w, base=s),
        "rewrite": lambda o, s, w: rewrite(
            schreier_system(CosetAction(o, s)), w),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_rank_other_than_two(self, entry):
        o = wollmilchsau()
        for w in (Word(3, [(3, 1)]), Word(1, [(1, 1)]), Word(3), Word(1)):
            with pytest.raises(RankMismatch,
                               match=f"^words on squares have rank 2, "
                                     f"not {w.rank}$"):
                self.ENTRIES[entry](o, 1, w)

    @pytest.mark.parametrize(
        "entry", ["act_word", "is_closed", "edge_cycle", "class_of"])
    def test_start_off_the_squares(self, entry):
        o = wollmilchsau()
        for s in (0, -1, o.d + 1):
            for w in (Word(2), parse_word("x")):
                with pytest.raises(ValueError,
                                   match="^start square out of range$"):
                    self.ENTRIES[entry](o, s, w)


class TestShear:
    def test_requires_coprime_direction(self):
        with pytest.raises(BadDirection):
            shear(wollmilchsau(), 2, 4)

    def test_square_count_is_bounded(self):
        o = l_origami(2, 2)
        q = MAX_SHEAR_SQUARES // o.d + 1
        for p, q in ((1, q), (-1, -q), (1, 10 ** 40)):
            with pytest.raises(BadParameters, match="squares"):
                shear(o, p, q)

    def test_horizontal_direction_is_identity(self):
        o = wollmilchsau()
        sheared, change = shear(o, 1, 0)
        assert sheared == o and change == AffineChange.from_ints(1, 0, 0, 1)

    def test_square_count_scales_with_q(self):
        rng = random.Random(3)
        for _ in range(10):
            o = random_origami(rng, rng.randint(2, 8))
            p = rng.randint(-3, 3)
            q = rng.randint(1, 4)
            while math.gcd(p, q) != 1:
                p += 1
            sheared, change = shear(o, p, q)
            assert sheared.d == o.d * q
            assert genus(sheared) == genus(o)
            assert change.det() == Fraction(1, q)

    def test_known_three_square_shear(self):
        sheared, change = shear(l_origami(2, 2), 1, 1)
        assert sheared.d == 3
        assert change == AffineChange.from_ints(1, 1, 0, 1)

    def test_upper_neighbors_against_stepping(self):
        """Strip j of square s lies below strip (j + p) mod q of p2(s)
        moved (j + p) div q squares right, stepped one square at a time."""
        rng = random.Random(5)
        for _ in range(40):
            o = random_origami(rng, rng.randint(2, 8))
            q = rng.randint(1, 5)
            p = rng.randint(-20, 20)
            while math.gcd(p, q) != 1:
                p += 1
            sheared = shear(o, p, q)[0]
            expected = []
            for s in range(1, o.d + 1):
                for j in range(q):
                    k, j2 = divmod(j + p, q)
                    t = power(o.p1, o.p2(s), k)
                    expected.append((t - 1) * q + j2 + 1)
            assert sheared.p2.images() == tuple(expected)

    @pytest.mark.parametrize("o", [l_origami(2, 2), o14(), x_origami(3)],
                             ids=["l22", "o14", "x3"])
    def test_huge_p_in_time_polynomial_in_its_bits(self, o):
        """p1^m is the identity for m the lcm of the horizontal cylinder
        lengths, so adding q m to p leaves the shear unchanged.  With
        p = 10^30 + 1 a shear that steps p times would never finish."""
        m = horizontal_multiplier(o)[0]
        start = time.perf_counter()
        for q in (1, 2, 3):
            p = 10 ** 30 + 1
            while math.gcd(p, q) != 1:
                p += 1
            assert shear(o, p + q * m, q)[0] == shear(o, p, q)[0]
        assert time.perf_counter() - start < 0.5


class TestTextFormat:
    def test_parse_example(self):
        o = parse_origami(
            "# comment\nsquares: 8\n"
            "p1: (1 2 3 4)(5 6 7 8)\n"
            "p2: (1 7 3 5)(2 6 4 8)\n"
        )
        assert o == wollmilchsau()

    def test_roundtrip(self):
        rng = random.Random(1)
        for _ in range(20):
            o = random_origami(rng, rng.randint(2, 10))
            assert parse_origami(format_origami(o)) == o

    @pytest.mark.parametrize(
        "text",
        [
            "p1: (1 2)\np2: (1 2)\n",  # missing squares
            "squares: 2\np1: (1 2)\np1: (1 2)\np2: (1 2)\n",  # duplicate
            "squares: 2\np1: (1 2)\np3: (1 2)\n",  # unknown key
            "squares: x\np1: (1 2)\np2: (1 2)\n",  # non-integer
            "squares: 2\np1: (1 3)\np2: (1 2)\n",  # out of range
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(BadFormat):
            parse_origami(text)


    def test_squares_bounded_by_cycle_entries(self):
        with pytest.raises(BadFormat, match="cycle entries"):
            parse_origami("squares: 1000000000\np1: id\np2: id\n")
        with pytest.raises(BadFormat, match="cycle entries"):
            parse_origami("squares: 5\np1: (1 2)\np2: (2 3)\n")
        assert parse_origami("squares: 1\np1: id\np2: id\n").d == 1

    def test_shipped_fixtures_parse(self):
        ori = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.ori")))
        assert len(ori) == 7
        for path in ori:
            with open(path, encoding="utf-8") as fh:
                assert parse_origami(fh.read()).d >= 3


class TestRandomGeneration:
    @given(st.integers(0, 10_000), st.integers(2, 10))
    def test_transitive_and_deterministic(self, seed, d):
        a = random_origami(random.Random(seed), d)
        b = random_origami(random.Random(seed), d)
        assert a == b
        assert a.d == d
        Origami(a.d, a.p1, a.p2)  # transitivity re-validated on build

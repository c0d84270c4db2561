"""Origami combinatorics: permutations, cylinders, singularities, genus,
monodromy traces, shears, and the text format."""

import glob
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import origami_forge
from origami_forge.freegroup import parse_word
from origami_forge.origami import (
    AFFINE_ID,
    AffineChange,
    BadDirection,
    BadFormat,
    BadParameters,
    NotBijective,
    NotTransitive,
    Origami,
    Permutation,
    act_word,
    curve,
    cylinders,
    format_origami,
    genus,
    horizontal_multiplier,
    is_closed,
    l_origami,
    new_origami,
    o14,
    parse_origami,
    random_origami,
    shear,
    trace_curve,
    vertex_orbits,
    vertical_multiplier,
    wollmilchsau,
    x_origami,
)

FIXTURE_DIR = os.path.join(os.path.dirname(origami_forge.__file__), "fixtures")


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(NotBijective):
            Permutation([1, 1, 3])

    def test_from_cycles_and_call(self):
        p = Permutation.from_cycles(4, [[1, 2, 3]])
        assert [p(s) for s in (1, 2, 3, 4)] == [2, 3, 1, 4]
        assert p.inverse_of(1) == 3
        assert p.power(1, -2) == 2

    def test_power_shifts_along_orbits(self):
        p = Permutation.from_cycles(7, [[1, 2, 3], [4, 5], [7, 6]])
        for k in range(-7, 8):
            expected = tuple(p.power(s, k) for s in range(1, 8))
            assert (p ** k).images() == expected
        assert p ** (6 * 10 ** 30 + 1) == p

    def test_orbits_sorted_by_minimum(self):
        p = Permutation.from_cycles(5, [[4, 5], [1, 3]])
        assert p.orbits() == [[1, 3], [2], [4, 5]]


class TestGeometry:
    def test_transitivity_required(self):
        with pytest.raises(NotTransitive):
            new_origami(
                2, Permutation([1, 2]), Permutation([1, 2])
            )

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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_staircase_family_genus(self, n):
        o = x_origami(n)
        assert o.d == 2 * n
        assert genus(o) == n
        assert len(cylinders(o)) == 1

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
        c = curve(1, "x y^-1 x y")
        trace = trace_curve(o, c)
        assert trace[0] == trace[-1] == 1
        assert is_closed(o, c)
        assert not is_closed(o, curve(1, "x"))


class TestShear:
    def test_requires_coprime_direction(self):
        with pytest.raises(BadDirection):
            shear(wollmilchsau(), 2, 4)

    def test_horizontal_direction_is_identity(self):
        o = wollmilchsau()
        sheared, change = shear(o, 1, 0)
        assert sheared == o and change == AFFINE_ID

    def test_square_count_scales_with_q(self):
        rng = random.Random(3)
        for _ in range(10):
            o = random_origami(rng, rng.randint(2, 8))
            p = rng.randint(-3, 3)
            q = rng.randint(1, 4)
            while __import__("math").gcd(p, q) != 1:
                p += 1
            sheared, change = shear(o, p, q)
            assert sheared.d == o.d * q
            assert genus(sheared) == genus(o)
            assert change.det() == Fraction(1, q)

    def test_known_three_square_shear(self):
        sheared, change = shear(l_origami(2, 2), 1, 1)
        assert sheared.d == 3
        assert change == AffineChange.from_ints(1, 1, 0, 1)


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

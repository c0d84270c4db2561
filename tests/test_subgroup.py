"""The index-d subgroup attached to an origami: Schreier generators,
rewriting, puncture relations, and automorphism stabilization."""

import math
import random
from types import SimpleNamespace

import pytest

from origami_forge.freegroup import (
    NotUnimodular,
    Word,
    apply_factors,
    gen,
    horizontal_twist_lift,
    lift_matrix,
    parse_word,
)
from origami_forge.origami import (
    Permutation,
    act_word,
    cylinders,
    horizontal_multiplier,
    l_origami,
    o14,
    random_origami,
    vertex_orbits,
    vertical_multiplier,
    wollmilchsau,
    x_origami,
)
from origami_forge.subgroup import (
    CosetAction,
    NotInSubgroup,
    SchreierSystemError,
    _cover,
    rewrite,
    schreier_system,
    veech_contains,
    veech_witness,
)

from oracles import (
    COMMUTATOR,
    aut_stabilizes,
    contains,
    identity_endo,
    inner,
    mat2_mul,
    puncture_relations,
    rescan_cover,
)


def fixture_origamis():
    return [wollmilchsau(), o14(), l_origami(2, 2), l_origami(2, 3),
            l_origami(3, 2), x_origami(3), x_origami(4)]


def sample_origamis():
    """The fixtures plus seeded random origamis with d <= 14."""
    rng = random.Random(2004)
    return fixture_origamis() + [random_origami(rng, rng.randint(2, 14))
                                 for _ in range(60)]


T, T_INV = (1, 1, 0, 1), (1, -1, 0, 1)
S, MINUS_I = (0, -1, 1, 0), (-1, 0, 0, -1)


def random_sl2(rng, max_factors=10):
    """A seeded random product of T^+-1, S = (0, -1; 1, 0) and -I."""
    A = (1, 0, 0, 1)
    for _ in range(rng.randint(0, max_factors)):
        A = mat2_mul(A, rng.choice((T, T_INV, S, MINUS_I)))
    return A


def schreier_scan(cs, phi):
    """Reference: the first s such that the phi-image of every Schreier
    generator of H fixes s, evaluated on the image words."""
    o = cs.origami
    generators = schreier_system(cs).generators
    for s in range(1, o.d + 1):
        if all(act_word(o, s, phi(h)) == s for h in generators):
            return s
    return None


def theta_member(A):
    """The Veech group of the 3-square L is the theta group: the matrices
    congruent to I or (0 1; 1 0) mod 2."""
    return tuple(x % 2 for x in A) in ((1, 0, 0, 1), (0, 1, 1, 0))


def big_sl2(rng, digits):
    """A random SL_2(Z) matrix with entries of up to `digits` digits."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    while True:
        a, c = rng.randrange(lo, hi), rng.randrange(lo, hi)
        if math.gcd(a, c) == 1:
            break
    d = pow(a, -1, c)
    A = (a, (a * d - 1) // c, c, d)
    # spread the signs and the shape over SL_2(Z)
    for _ in range(rng.randrange(4)):
        A = mat2_mul(A, S)
    return A


class TestCosetAction:
    def test_membership(self):
        cs = CosetAction(wollmilchsau())
        assert contains(cs, parse_word("x^4"))
        assert not contains(cs, parse_word("x"))
        assert contains(cs, parse_word("x y^-1 x y"))

    def test_index_equals_square_count(self):
        o = o14()
        cs = CosetAction(o)
        reps = schreier_system(cs).reps
        images = {act_word(o, cs.base, r) for r in reps.values()}
        assert images == set(range(1, o.d + 1))


class TestSchreierSystem:
    @pytest.mark.parametrize("d", [2, 5, 9])
    def test_generator_count(self, d):
        rng = random.Random(d)
        o = random_origami(rng, d)
        ss = schreier_system(CosetAction(o))
        assert ss.rank == d + 1

    def test_generators_lie_in_subgroup(self):
        cs = CosetAction(wollmilchsau())
        ss = schreier_system(cs)
        for h in ss.generators:
            assert contains(cs, h)

    def test_rewrite_roundtrip(self):
        rng = random.Random(4)
        for _ in range(30):
            o = random_origami(rng, rng.randint(2, 9))
            cs = CosetAction(o)
            ss = schreier_system(cs)
            # random element of H: a product of generators
            w = Word(2)
            for _ in range(rng.randint(1, 5)):
                h = ss.generators[rng.randrange(ss.rank)]
                w = w * (h if rng.random() < 0.5 else h.inv())
            encoded = rewrite(ss, w)
            assert encoded.substitute(ss.generators, 2) == w

    def test_rewrite_rejects_outside_words(self):
        cs = CosetAction(wollmilchsau())
        ss = schreier_system(cs)
        with pytest.raises(NotInSubgroup):
            rewrite(ss, parse_word("x"))

    def test_one_not_in_subgroup(self):
        """homology.class_of raises the exception subgroup defines, so one
        except clause catches a word outside H from either module."""
        from origami_forge import homology

        assert homology.NotInSubgroup is NotInSubgroup
        o = wollmilchsau()
        with pytest.raises(NotInSubgroup, match="does not fix"):
            homology.class_of(o, homology.h1_model(o), parse_word("x"))

    def test_gen_index_lookup(self):
        cs = CosetAction(l_origami(2, 2))
        ss = schreier_system(cs)
        assert ss.gen_index(ss.generators[0]) == 1
        with pytest.raises(NotInSubgroup):
            ss.gen_index(parse_word("y^9"))

    def test_intransitive_action_is_named_error(self):
        # two separate tori: Origami refuses them, a bare action does not
        one = Permutation([1, 2])
        cs = CosetAction(SimpleNamespace(d=2, p1=one, p2=one))
        with pytest.raises(SchreierSystemError, match="not transitive"):
            schreier_system(cs)


class TestPunctureRelations:
    def test_one_relation_per_singularity(self):
        for o in (wollmilchsau(), o14(), l_origami(3, 2)):
            cs = CosetAction(o)
            pd = puncture_relations(cs)
            orbits = vertex_orbits(o)
            assert len(pd.relations) == len(orbits)
            assert list(pd.exponents) == [len(v) for v in orbits]
            for c, e, r in zip(pd.conjugators, pd.exponents, pd.relations):
                assert r == (COMMUTATOR ** e).conj(c)
                assert contains(cs, r)


class TestAutStabilizes:
    def test_identity_fixes_base(self):
        cs = CosetAction(wollmilchsau())
        assert aut_stabilizes(cs, identity_endo()) == 1

    def test_inner_automorphisms_move_the_witness(self):
        o = o14()
        cs = CosetAction(o)
        for text in ("x", "y", "x y^-1"):
            w = parse_word(text)
            s = aut_stabilizes(cs, inner(w))
            assert s is not None
            # conjugating H by w moves its fixed square along w^-1
            assert act_word(o, s, w) == cs.base

    def test_twist_lift_with_wrong_power_fails(self):
        cs = CosetAction(l_origami(2, 2))
        assert aut_stabilizes(cs, horizontal_twist_lift(1)) is None
        assert aut_stabilizes(cs, horizontal_twist_lift(2)) is not None


class TestVeechContains:
    def test_identity_member(self):
        assert veech_contains(CosetAction(wollmilchsau()), (1, 0, 0, 1))

    def test_horizontal_twists(self):
        assert veech_contains(CosetAction(l_origami(2, 2)), (1, 2, 0, 1))
        assert not veech_contains(CosetAction(o14()), (1, 1, 0, 1))

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            veech_contains(CosetAction(wollmilchsau()), (2, 0, 0, 2))


class TestDifferential:
    """The covering test against the word-level lift and the Schreier
    generator scan it replaced."""

    def test_veech_witness_matches_word_lift(self):
        rng = random.Random(13)
        members = non_members = 0
        for o in sample_origamis():
            cs = CosetAction(o)
            for _ in range(20):
                A = random_sl2(rng)
                w = veech_witness(cs, A)
                assert w == aut_stabilizes(cs, lift_matrix(A)), (o, A)
                members += w is not None
                non_members += w is None
        assert members > 50 and non_members > 50

    def test_word_and_permutation_images_agree(self):
        """apply_factors moves the words (x, y) and the monodromy pair
        alike: each word image acts on every square as the permutation
        image does.  A lift's words are as long as the matrix entries, so
        5-digit entries run on the 3-square fixture only."""
        rng = random.Random(606)
        x, y = gen(2, 1), gen(2, 2)
        for o in fixture_origamis():
            for digits in (1, 1, 2, 2, 3, 3, 4) + ((5,) if o.d <= 3 else ()):
                A = big_sl2(rng, digits)
                X, Y = apply_factors(A, x, y)
                P, Q = apply_factors(A, o.p1, o.p2)
                for s in range(1, o.d + 1):
                    assert act_word(o, s, X) == P(s), (o, A, s)
                    assert act_word(o, s, Y) == Q(s), (o, A, s)

    def test_cover_matches_rescan_on_fixtures(self):
        """One spanning tree against a search per candidate, from every
        base square: on lifted matrices, on the monodromy pair conjugated
        by a random permutation (an isomorphic F_2-set, so a cover exists
        whose witness is rarely the base), and on random pairs."""
        rng = random.Random(31)
        members = non_members = 0
        for o in fixture_origamis():
            pairs = [apply_factors(random_sl2(rng), o.p1, o.p2)
                     for _ in range(8)]
            pairs += [apply_factors(big_sl2(rng, 6), o.p1, o.p2)
                      for _ in range(2)]
            for _ in range(4):
                images = list(range(1, o.d + 1))
                rng.shuffle(images)
                sigma = Permutation(images)
                pairs.append((sigma ** -1 * o.p1 * sigma,
                              sigma ** -1 * o.p2 * sigma))
                rng.shuffle(images)
                P = Permutation(images)
                rng.shuffle(images)
                pairs.append((P, Permutation(images)))
            for base in range(1, o.d + 1):
                cs = CosetAction(o, base)
                for P, Q in pairs:
                    w = _cover(cs, P, Q)
                    assert w == rescan_cover(cs, P, Q), (o, base, P, Q)
                    members += w is not None
                    non_members += w is None
        assert members > 250 and non_members > 250

    def test_cover_matches_rescan_on_random_sample(self, random_sample):
        """Multitwists, which are members, and seeded random matrices on
        the shared sample, from the base 1 and from a random base."""
        rng = random.Random(37)
        members = non_members = 0
        for _, o in random_sample:
            matrices = [horizontal_multiplier(o)[1], vertical_multiplier(o)[1]]
            matrices += [random_sl2(rng) for _ in range(6)]
            for base in (1, rng.randint(1, o.d)):
                cs = CosetAction(o, base)
                for A in matrices:
                    P, Q = apply_factors(A, o.p1, o.p2)
                    w = _cover(cs, P, Q)
                    assert w == rescan_cover(cs, P, Q), (o, base, A)
                    members += w is not None
                    non_members += w is None
        assert members > 1000 and non_members > 1000

    def test_aut_stabilizes_matches_schreier_scan(self):
        rng = random.Random(17)
        for o in sample_origamis():
            cs = CosetAction(o)
            m = math.lcm(*(z.length for z in cylinders(o)))
            phis = [identity_endo(), horizontal_twist_lift(m)]
            phis += [horizontal_twist_lift(k) for k in (-2, -1, 1, 2, 3)]
            for _ in range(4):
                letters = [(rng.randint(1, 2), rng.choice((-1, 1)))
                           for _ in range(rng.randint(1, 6))]
                phis.append(inner(Word(2, letters)))
            phis += [lift_matrix(random_sl2(rng, 6)) for _ in range(4)]
            for phi in phis:
                assert aut_stabilizes(cs, phi) == schreier_scan(cs, phi), (
                    o, phi)

    def test_thirty_digit_entries(self):
        rng = random.Random(30)
        matrices = [big_sl2(rng, 30) for _ in range(30)]
        matrices += [(100000, 99999, 1, 1), (1, 10 ** 30, 0, 1),
                     (1, 10 ** 30 + 1, 0, 1)]
        w8 = CosetAction(wollmilchsau())
        l22 = CosetAction(l_origami(2, 2))
        verdicts = set()
        for A in matrices:
            assert veech_contains(w8, A)
            member = veech_contains(l22, A)
            assert member == theta_member(A), A
            verdicts.add(member)
        assert verdicts == {True, False}

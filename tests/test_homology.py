"""Cellular homology of the squared surface: boundary conventions, the
intersection form, symplectic completions, induced matrices, and the
word-level mapping-class checks."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from origami_forge import homology, linalg
from origami_forge.freegroup import (
    F2Endo,
    Word,
    horizontal_twist_lift,
    parse_word,
)
from origami_forge.homology import (
    AlphaSpec,
    CertificateError,
    ConventionViolation,
    NotLagrangian,
    NotPrimitive,
    UnknownGenerator,
    action_matrix_from_images,
    alpha_eval,
    block_form_check,
    charpoly,
    charpoly_divides,
    class_of,
    edge_cycle,
    f2_independent,
    h1_model,
    intersection_form,
    modg_alpha_check,
    modg_alpha_conjugator,
    parse_symplectic,
    parse_word_fixture,
    standard_j,
    symplectic_completion,
    symplectic_names,
    twist_membership_certificate,
)
from origami_forge.hss import dual_curves, find_hss_detailed
from origami_forge.origami import (
    BadFormat,
    Origami,
    OrigamiCurve,
    Permutation,
    act_word,
    cylinders,
    genus,
    is_closed,
    l_origami,
    o14,
    random_origami,
    wollmilchsau,
    x_origami,
)
from origami_forge.subgroup import CosetAction, schreier_system

from oracles import (
    DenseH1,
    DoesNotStabilize,
    basis_cycles,
    coord_rows,
    d1,
    d2,
    identity_endo,
    induced_matrix,
    mat_mul,
    mat_vec,
    rotation_of,
    smith_normal_form,
    snf_symplectic_completion,
    spliced_order,
    transpose,
    vertex_index,
)

FIXTURES = [
    wollmilchsau(),
    o14(),
    l_origami(2, 2),
    l_origami(2, 3),
    x_origami(3),
    x_origami(4),
]


def torus():
    return x_origami(1)


def cycle_torus(d):
    """p1 one d-cycle and p2 the identity: a torus of d squares in one
    cylinder, with d vertices."""
    return Origami(d, Permutation(list(range(2, d + 1)) + [1]),
                   Permutation(list(range(1, d + 1))))


def kernel_snf_model(o):
    """Reference: the H1 model built from Smith forms, before the
    tree-cotree decomposition.  The kernel of d1 is a 2d x k matrix K with
    its own Smith form; the boundaries are solved into kernel coordinates
    column by column, and U B V = D for that boundary matrix B.  A cycle's
    H1 coordinates are the last k - rank rows of U times its solution
    against K; the basis is K times the last columns of U^-1, each solved
    against U's own Smith form.  Returns the basis, the coordinate map and
    the chord-support Gram matrix of the basis."""
    n = 2 * o.d
    s1 = smith_normal_form(d1(o))
    K = [row[s1.rank:] for row in s1.V]
    k = len(K[0])
    kernel_snf = smith_normal_form(K)
    D2 = d2(o)
    cols = [kernel_snf.solve([D2[i][j] for i in range(n)])
            for j in range(o.d)]
    B = [[c[i] for c in cols] for i in range(k)]
    snf = smith_normal_form(B)
    rho = snf.rank
    proj = snf.U[rho:]
    u_snf = smith_normal_form(snf.U)
    basis = [
        mat_vec(K, u_snf.solve([int(i == j) for i in range(k)]))
        for j in range(rho, k)
    ]

    def coords(z):
        c = kernel_snf.solve(z)
        assert c is not None, "chain is not a cycle"
        return mat_vec(proj, c)

    return basis, coords, chord_support_gram(o, basis)


def rotation(o):
    """The rotation system that `h1_model` reads off o's boundary table."""
    return homology._rotation(
        [homology._boundary(o, s) for s in range(1, o.d + 1)])


def chord_support_gram(o, basis):
    """Reference Gram matrix: Z X Z^T, with X the crossing matrix of every
    edge outside the spanning tree on the contracted ribbon graph, and the
    rows of Z the basis cycles' coefficients on those edges."""
    tree = homology._spanning_tree(len(o.corner_orbits), h1_model(o).ends)
    in_tree = set(tree)
    outside = [e for e in range(2 * o.d) if e not in in_tree]
    X = intersection_form(rotation(o), tree, outside)
    Z = [[z[e] for e in outside] for z in basis]
    return mat_mul(mat_mul(Z, X), transpose(Z))


def coordinate_sample():
    """The named fixtures, random_origami(Random(d), d) for d = 2..24,
    and 60 seeded origamis with d <= 16."""
    named = FIXTURES + [l_origami(3, 2)]
    series = [random_origami(random.Random(d), d) for d in range(2, 25)]
    rng = random.Random(5)
    seeded = [random_origami(rng, rng.randint(2, 16)) for _ in range(60)]
    return named + series + seeded


class TestCellComplex:
    @pytest.mark.parametrize("o", FIXTURES, ids=lambda o: f"d{o.d}")
    def test_boundary_square_zero(self, o):
        D1, D2 = d1(o), d2(o)
        assert mat_mul(D1, D2) == linalg.zeros(len(D1), len(D2[0]))

    def test_boundary_check_sees_a_wrong_sign(self, monkeypatch):
        real = homology._boundary

        def flipped(o, s):
            (e, sign), *rest = real(o, s)
            return ((e, -sign), *rest)

        # the Wollmilchsau has four vertices, and h_s joins two of them
        monkeypatch.setattr(homology, "_boundary", flipped)
        with pytest.raises(ConventionViolation, match="d1 \\* d2"):
            h1_model(wollmilchsau())

    def test_edge_cycle_boundaries_vanish(self):
        o = wollmilchsau()
        z = edge_cycle(o, 1, parse_word("x y^-1 x y"))
        assert mat_vec(d1(o), z) == [0] * len(o.corner_orbits)
        # random words, inverse letters included: the chain runs from the
        # start's corner to the end's, and the inverse word runs it back
        rng = random.Random(27)
        for o in FIXTURES:
            D, vertex_of = d1(o), vertex_index(o)
            for _ in range(20):
                w = Word(2, [(rng.randint(1, 2), rng.choice((1, -1)))
                             for _ in range(rng.randint(1, 16))])
                start = rng.randint(1, o.d)
                end = act_word(o, start, w)
                z = edge_cycle(o, start, w)
                want = [0] * len(o.corner_orbits)
                want[vertex_of[end]] += 1
                want[vertex_of[start]] -= 1
                assert mat_vec(D, z) == want, (o, start, w)
                assert edge_cycle(o, end, w.inv()) == [-x for x in z]


class TestH1Model:
    @pytest.mark.parametrize("o", FIXTURES, ids=lambda o: f"d{o.d}")
    def test_rank_and_form(self, o):
        model = h1_model(o)
        g = genus(o)
        assert model.rank == 2 * g
        gram = model.gram
        assert all(
            gram[i][j] == -gram[j][i]
            for i in range(2 * g)
            for j in range(2 * g)
        )
        assert abs(linalg.det_int(gram)) == 1

    def test_torus_pairing(self):
        o = torus()
        model = h1_model(o)
        h = model.coords(edge_cycle(o, 1, parse_word("x^2")))
        v = model.coords(edge_cycle(o, 1, parse_word("x^-1 y")))
        assert abs(model.pair(h, v)) == 1
        v2 = model.coords(edge_cycle(o, 1, parse_word("y^2")))
        assert abs(model.pair(h, v2)) == 2  # wraps the vertical twice

    def test_class_of_is_additive_on_products(self):
        from origami_forge.subgroup import CosetAction, schreier_system

        o = o14()
        model = h1_model(o)
        ss = schreier_system(CosetAction(o))
        u, v = ss.generators[0], ss.generators[5]
        cu, cv = class_of(o, model, u), class_of(o, model, v)
        cuv = class_of(o, model, u * v)
        assert cuv == [a + b for a, b in zip(cu, cv)]

    @pytest.mark.parametrize("d", [128, 160])
    def test_entries_stay_small(self, d):
        """Each edge bounds exactly two square sides, and the cotree peel
        only adds +-1 multiples of child columns, so an edge's coordinates
        count chords on two sides: |entry| <= 2.  The Gram matrix is a
        crossing matrix of chords, with entries in {-1, 0, 1}."""
        model = h1_model(random_origami(random.Random(d), d))
        assert all(abs(x) <= 2 for col in model.columns for _, x in col)
        assert all(x in (-1, 0, 1) for row in model.gram for x in row)

    def test_non_skew_form_is_convention_violation(self, monkeypatch):
        monkeypatch.setattr(
            homology, "intersection_form",
            lambda succ, tree, chords: linalg.eye(len(chords))
        )
        with pytest.raises(ConventionViolation, match="not skew"):
            h1_model(l_origami(2, 2))

    def test_boundary_read_once_per_square(self, monkeypatch):
        real = homology._boundary
        calls = []

        def counted(o, s):
            calls.append(s)
            return real(o, s)

        monkeypatch.setattr(homology, "_boundary", counted)
        for o in FIXTURES + [cycle_torus(50)]:
            calls.clear()
            h1_model(o)
            assert sorted(calls) == list(range(1, o.d + 1)), o

    def test_torus_of_5000_squares_within_budget(self):
        """5,000 vertices: one dense 10,000-entry path per vertex would
        hold 5 * 10^7 entries, while T holds one edge per vertex.  Each
        call gets a fresh origami, so deriving its corner orbits and genus
        counts too."""
        o = cycle_torus(5000)
        start = time.perf_counter()
        model = h1_model(o)
        assert time.perf_counter() - start < 0.5
        assert model.rank == 2 and abs(model.gram[0][1]) == 1
        o = cycle_torus(5000)
        tracemalloc.start()
        try:
            h1_model(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestCoordinatesAgainstKernelSmithForm:
    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_same_basis_and_coordinates(self, o):
        """The tree-cotree model against the Smith-form one: the new
        coordinates S of the reference basis are unimodular, carry the new
        Gram matrix to the reference one, and map reference coordinates to
        new ones on every cycle the program pairs."""
        from origami_forge.hss import find_hss

        model = h1_model(o)
        basis, oracle, gram = kernel_snf_model(o)
        S = transpose([model.coords(z) for z in basis])
        assert abs(linalg.det_int(S)) == 1
        assert mat_mul(
            mat_mul(transpose(S), model.gram), S
        ) == gram
        cycles = basis + basis_cycles(model)
        cycles += [edge_cycle(o, c.start, c.word) for c in find_hss(o)]
        cs = CosetAction(o)
        cycles += [
            edge_cycle(o, cs.base, h) for h in schreier_system(cs).generators
        ]
        for z in cycles:
            assert mat_vec(S, oracle(z)) == model.coords(z), (o, z)
        n = model.rank
        assert [model.coords(z) for z in basis_cycles(model)] == linalg.eye(n)

    def test_non_cycle_rejected(self):
        o = wollmilchsau()
        model = h1_model(o)
        # an edge joining two distinct singularities has a nonzero boundary
        e = next(e for e in range(len(model.ends))
                 if len(set(model.ends[e])) == 2)
        z = [0] * len(model.ends)
        z[e] = 1
        with pytest.raises(ValueError, match="not a cycle"):
            model.coords(z)


def check_against_dense(o, rng):
    """The sparse model's coords, pair and Lagrangian rows against dense
    products through d1, coord_rows and the Gram matrix, on the basis,
    the cut curves, their duals, integer combinations of these plus square
    boundaries, and random chains, cycles or not."""
    model = h1_model(o)
    dense = DenseH1(model)
    result = find_hss_detailed(o)
    cuts = [edge_cycle(o, c.start, c.word) for c in result.curves]
    chains = cuts + [edge_cycle(o, c.start, c.word)
                     for c in dual_curves(result)] + basis_cycles(model)
    n = len(model.ends)
    D2 = d2(o)
    for _ in range(4):
        z = [0] * n
        for c in rng.sample(chains, min(3, len(chains))):
            k = rng.randint(-3, 3)
            z = [x + k * y for x, y in zip(z, c)]
        for f in rng.sample(range(o.d), min(3, o.d)):
            k = rng.randint(-3, 3)
            z = [x + k * row[f] for x, row in zip(z, D2)]
        chains.append(z)
    classes = [model.coords(z) for z in chains]
    assert classes == [dense.coords(z) for z in chains]
    some = rng.sample(classes, min(10, len(classes)))
    for u in some:
        for v in some:
            assert model.pair(u, v) == dense.pair(u, v)
    A = classes[:len(cuts)]
    assert homology._check_lagrangian(model, A) == dense.lagrangian_rows(A)
    for _ in range(4):
        z = [rng.choice((-1, 0, 0, 0, 1)) for _ in range(n)]
        try:
            want = dense.coords(z)
        except ValueError:
            with pytest.raises(ValueError, match="not a cycle"):
                model.coords(z)
        else:
            assert model.coords(z) == want
    loose = [e for e in range(n) if len(set(model.ends[e])) == 2]
    if loose:
        z = list(cuts[0])
        z[rng.choice(loose)] += 1
        with pytest.raises(ValueError, match="not a cycle"):
            model.coords(z)
        with pytest.raises(ValueError, match="not a cycle"):
            dense.coords(z)


def assert_walk_matches_splice(o):
    model = h1_model(o)
    tree = homology._spanning_tree(len(o.corner_orbits), model.ends)
    walk = homology._contracted_order(rotation(o), tree)
    spliced = spliced_order(o, tree)
    assert len(walk) == 2 * (len(model.ends) - len(tree))
    k = spliced.index(walk[0])
    assert walk == spliced[k:] + spliced[:k]


class TestContractionAgainstSplice:
    """One walk of the rotation system against the union-find splice it
    replaced: the same cyclic order of the darts outside T."""

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_coordinate_sample(self, o):
        assert_walk_matches_splice(o)

    def test_random_sample(self, random_sample):
        for _, o in random_sample:
            assert_walk_matches_splice(o)

    def test_tree_short_of_spanning_is_convention_violation(self):
        """The Wollmilchsau has four vertices; three of its tree's edges
        contract them to two."""
        o = wollmilchsau()
        model = h1_model(o)
        assert len(model.tree) == 3
        with pytest.raises(ConventionViolation, match="more than one vertex"):
            intersection_form(rotation(o), model.tree[:-1], model.chords)


class TestRotationAgainstCornerWalk:
    """The rotation read off the boundary table against the corner walk
    through p1, p2 and the corner permutation that it replaced: the same
    successor for every dart."""

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_coordinate_sample(self, o):
        assert rotation(o) == rotation_of(o)

    def test_random_sample(self, random_sample):
        for _, o in random_sample:
            assert rotation(o) == rotation_of(o)

    @pytest.mark.parametrize("d", [64, 128, 192])
    def test_large(self, d):
        o = random_origami(random.Random(d), d)
        assert rotation(o) == rotation_of(o)


class TestSparseAgainstDense:
    """The sparse H1 model against the dense matrices it replaced."""

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_coordinate_sample(self, o):
        check_against_dense(o, random.Random(f"{o.d}:{o.p1}:{o.p2}"))

    def test_random_sample(self, random_sample):
        rng = random.Random(19)
        for _, o in random_sample:
            check_against_dense(o, rng)

    @pytest.mark.parametrize("o", FIXTURES, ids=lambda o: f"d{o.d}")
    def test_columns_are_the_dense_rows(self, o):
        """coord_rows solves for the cotree columns by a Smith form; the
        sparse columns come from peeling the cotree."""
        model = h1_model(o)
        R = coord_rows(model)
        assert [[(i, x) for i, x in enumerate(col) if x]
                for col in transpose(R)] == [sorted(c) for c in model.columns]
        assert model.gram_rows == [
            [(j, x) for j, x in enumerate(row) if x] for row in model.gram]


class TestWordSystemGram:
    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_l_shape_words_give_standard_form(self, m, n):
        o = l_origami(m, n)
        model = h1_model(o)
        a1 = parse_word(f"x^-{m}")
        a2 = parse_word("y x y^-1")
        b1 = parse_word("x y x^-1")
        b2 = parse_word(f"y x^-1 y^-1 x y x^-1 y^-{n}")
        classes = [class_of(o, model, w) for w in (a1, a2, b1, b2)]
        gram = [
            [model.pair(u, v) for v in classes] for u in classes
        ]
        assert gram == standard_j(2)


class TestIndependenceOracle:
    def test_detects_dependence(self):
        assert not f2_independent([[1, 0], [1, 2]])
        assert f2_independent([[1, 0], [0, 1]])


class TestSymplecticCompletion:
    @pytest.mark.parametrize("o", FIXTURES, ids=lambda o: f"d{o.d}")
    def test_cut_classes_complete_to_standard_form(self, o):
        from origami_forge.hss import find_hss

        model = h1_model(o)
        classes = [
            model.coords(edge_cycle(o, c.start, c.word))
            for c in find_hss(o)
        ]
        S = symplectic_completion(model, classes)
        n = model.rank
        StJS = [
            [
                model.pair(
                    [S[i][a] for i in range(n)],
                    [S[i][b] for i in range(n)],
                )
                for b in range(n)
            ]
            for a in range(n)
        ]
        assert StJS == standard_j(n // 2)

    def test_random_sweep(self):
        from origami_forge.hss import find_hss

        rng = random.Random(31)
        for _ in range(40):
            o = random_origami(rng, rng.randint(2, 12))
            model = h1_model(o)
            classes = [
                model.coords(edge_cycle(o, c.start, c.word))
                for c in find_hss(o)
            ]
            S = symplectic_completion(model, classes)
            StGS = mat_mul(
                mat_mul(transpose(S), model.gram), S
            )
            assert StGS == standard_j(model.g)


def cut_classes(o):
    """The H1 model of o and the classes of its cut system's curves."""
    from origami_forge.hss import find_hss

    model = h1_model(o)
    classes = [
        model.coords(edge_cycle(o, c.start, c.word)) for c in find_hss(o)
    ]
    return model, classes


class TestSymplecticCompletionErrors:
    """The completion rejects classes that are not a primitive Lagrangian
    system: a multiple or a repeat of a class spans no direct summand, and
    a class meeting another is not isotropic."""

    @pytest.mark.parametrize("o", [l_origami(2, 2), o14()], ids=["l22", "o14"])
    def test_multiple_of_a_class_is_not_primitive(self, o):
        model, (a0, *rest) = cut_classes(o)
        with pytest.raises(NotPrimitive, match="direct summand"):
            symplectic_completion(model, [[2 * x for x in a0], *rest])

    @pytest.mark.parametrize("o", [l_origami(2, 2), o14()], ids=["l22", "o14"])
    def test_repeated_class_is_not_primitive(self, o):
        model, (a0, _a1, *rest) = cut_classes(o)
        with pytest.raises(NotPrimitive, match="direct summand"):
            symplectic_completion(model, [a0, a0, *rest])

    @pytest.mark.parametrize("o", [l_origami(2, 2), o14()], ids=["l22", "o14"])
    def test_class_meeting_another_is_not_lagrangian(self, o):
        model, classes = cut_classes(o)
        S = symplectic_completion(model, classes)
        b0 = [row[model.g] for row in S]  # <A_0, B_0> = 1
        with pytest.raises(NotLagrangian, match="classes 0 and 1 intersect"):
            symplectic_completion(model, [classes[0], b0, *classes[2:]])

    def test_wrong_class_count_is_not_lagrangian(self):
        model, classes = cut_classes(l_origami(2, 2))
        with pytest.raises(NotLagrangian, match="exactly g classes"):
            symplectic_completion(model, classes[:1])


def unimodular(rng, g):
    """A random g x g integer matrix of determinant +-1: the identity under
    random row additions and sign flips."""
    T = linalg.eye(g)
    for _ in range(2 * g):
        if g > 1:
            i, j = rng.sample(range(g), 2)
            c = rng.choice((-2, -1, 1, 2))
            T[i] = [x + c * y for x, y in zip(T[i], T[j])]
        if rng.random() < 0.3:
            k = rng.randrange(g)
            T[k] = [-x for x in T[k]]
    return T


def completions(model, classes):
    """Both completions of the classes: each S, or NotPrimitive's message."""
    out = []
    for complete in (symplectic_completion, snf_symplectic_completion):
        try:
            out.append(complete(model, classes))
        except NotPrimitive as exc:
            out.append(str(exc))
    return out


def check_symplectic_basis(model, classes, S):
    g = model.g
    assert [[row[j] for row in S] for j in range(g)] == classes
    StGS = mat_mul(mat_mul(transpose(S), model.gram), S)
    assert StGS == standard_j(g)


def check_against_smith_form(o, rng):
    """The cut classes and their images under random g x g matrices T:
    both completions give a symplectic basis that starts with the classes
    when det T = +-1, and both reject the classes otherwise."""
    model, A = cut_classes(o)
    g = model.g
    Ts = [linalg.eye(g), unimodular(rng, g), unimodular(rng, g)]
    Ts += [[[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
           for _ in range(2)]
    for T in Ts:
        classes = [
            [sum(t * a[r] for t, a in zip(row, A)) for r in range(2 * g)]
            for row in T
        ]
        new, old = completions(model, classes)
        if abs(linalg.det_int(T)) == 1:
            check_symplectic_basis(model, classes, new)
            check_symplectic_basis(model, classes, old)
        else:
            assert new == old == "classes do not span a direct summand"


class TestCompletionAgainstSmithForm:
    """The column-reduction completion against the Smith-form one it
    replaced, on the cut classes and on their images under random integer
    matrices T, unimodular or not."""

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_coordinate_sample(self, o):
        check_against_smith_form(o, random.Random(f"{o.d}:{o.p1}:{o.p2}"))

    def test_random_sample(self, random_sample):
        rng = random.Random(17)
        for _, o in random_sample:
            check_against_smith_form(o, rng)

    def test_entries_stay_near_the_oracles(self):
        """The reduction keeps S's entries within a factor 10 of the Smith
        form's at d = 32...96."""
        for d in (32, 64, 96):
            model, classes = cut_classes(random_origami(random.Random(d), d))
            new, old = completions(model, classes)
            big = [max(abs(x) for row in S for x in row) for S in (new, old)]
            assert big[0] <= 10 * big[1], (d, big)


class TestInducedMatrix:
    @pytest.mark.parametrize("o", FIXTURES, ids=lambda o: f"d{o.d}")
    def test_twist_block_form(self, o):
        cert = twist_membership_certificate(o)
        g = genus(o)
        M = cert["action_matrix"]
        assert cert["block"] is not None
        assert [row[:g] for row in M[:g]] == linalg.eye(g)
        assert [row[:g] for row in M[g:]] == linalg.zeros(g, g)
        assert cert["charpoly_divides"]
        assert cert["projection_fixed"]
        assert cert["witness_square"] == 1

    def test_known_multipliers(self):
        assert twist_membership_certificate(wollmilchsau())["multiplier"] == 4
        assert twist_membership_certificate(o14())["multiplier"] == 84
        assert twist_membership_certificate(l_origami(2, 2))["multiplier"] == 2

    def test_identity_automorphism_acts_trivially(self):
        o = l_origami(2, 2)
        M = induced_matrix(o, identity_endo())
        assert M == linalg.eye(2 * genus(o))

    def test_non_stabilizing_automorphism_rejected(self):
        with pytest.raises(DoesNotStabilize):
            induced_matrix(l_origami(2, 2), horizontal_twist_lift(1))


class TestTwistAction:
    """The certificate's matrix, read off the cores' coordinates in the cut
    classes, against the word lift's action in the completed basis."""

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_matches_induced_matrix(self, o):
        from origami_forge.hss import find_hss

        model = h1_model(o)
        curves = find_hss(o)
        cert = twist_membership_certificate(o, model, curves)
        S = symplectic_completion(model, [
            model.coords(edge_cycle(o, c.start, c.word)) for c in curves
        ])
        m = cert["multiplier"]
        expected = induced_matrix(o, horizontal_twist_lift(m), model, S)
        assert cert["action_matrix"] == expected

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_charpoly_divides_action(self, o):
        cert = twist_membership_certificate(o)
        assert charpoly_divides(cert["matrix"], cert["action_matrix"])

    def test_multiplier_must_be_a_period_of_p1(self, monkeypatch):
        from origami_forge import homology

        # l22 has cylinders of lengths 2 and 1
        for m in (1, 3):
            monkeypatch.setattr(
                homology, "horizontal_multiplier", lambda o: (m, (1, m, 0, 1))
            )
            with pytest.raises(CertificateError, match="does not stabilize"):
                twist_membership_certificate(l_origami(2, 2))


class TestPicardLefschetzPremises:
    """The certificate reads the twist off the cylinder cores: the twist
    about the core c_Z of Z moves a cycle b by (m / l_Z) <b, c_Z> c_Z."""

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_core_pairing_counts_vertical_edges(self, o):
        from origami_forge.hss import find_hss

        model = h1_model(o)
        cycles = basis_cycles(model)
        cycles += [edge_cycle(o, c.start, c.word) for c in find_hss(o)]
        cycles += [edge_cycle(o, 1, h)
                   for h in schreier_system(CosetAction(o)).generators]
        for z in cylinders(o):
            c = core_class(o, model, z)
            for b in cycles:
                v_count = sum(b[o.d + s - 1] for s in z.squares)
                assert model.pair(model.coords(b), c) == v_count

    @pytest.mark.parametrize(
        "o", coordinate_sample(), ids=lambda o: f"d{o.d}"
    )
    def test_block_is_minus_sum_of_core_squares(self, o):
        from origami_forge.hss import find_hss

        model = h1_model(o)
        curves = find_hss(o)
        cert = twist_membership_certificate(o, model, curves)
        g, m, A = model.g, cert["multiplier"], cert["block"]
        assert A == transpose(A)
        S = symplectic_completion(model, [
            model.coords(edge_cycle(o, c.start, c.word)) for c in curves
        ])
        expected = linalg.zeros(g, g)
        for z in cylinders(o):
            c = core_class(o, model, z)
            # <c_Z, B_j> is the A_j-coordinate of c_Z
            a = [model.pair(c, [row[g + j] for row in S]) for j in range(g)]
            k = m // len(z.squares)
            for i in range(g):
                for j in range(g):
                    expected[i][j] -= k * a[i] * a[j]
        assert A == expected


def vertical_cores(o):
    """The core of each vertical cylinder: y^|z| from the least square of
    each orbit z of p2."""
    y = parse_word("y")
    return [OrigamiCurve(min(z), y ** len(z)) for z in o.p2.orbits()]


def with_curves(make_curves):
    """find_hss_detailed with its curves replaced by make_curves(o); the
    duals stay those of the real cut system."""
    real = homology.find_hss_detailed

    def patched(o):
        return real(o)._replace(curves=make_curves(o))

    return patched


def core_class(o, model, z):
    """H1 coordinates of the core of the cylinder z: the sum of its h_s."""
    chain = [0] * (2 * o.d)
    for s in z.squares:
        chain[s - 1] = 1
    return model.coords(chain)


class TestBlockForm:
    def test_accepts_unipotent_upper_blocks(self):
        M = [
            [1, 0, 3, 1],
            [0, 1, 2, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        assert block_form_check(M) == [[3, 1], [2, 0]]

    def test_rejects_other_shapes(self):
        assert block_form_check([[1, 0], [1, 1]]) is None
        assert block_form_check([[2, 0], [0, 1]]) is None


class TestCharPoly:
    def test_divisibility(self):
        M = [
            [1, 4, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        assert charpoly_divides((1, 4, 0, 1), M)
        assert not charpoly_divides((9, 2, 4, 1), M)

    def test_charpoly_of_shift(self):
        p = charpoly([[0, 1], [0, 0]])
        assert p.all_coeffs() == [1, 0, 0]

    def test_matches_determinant_at_integer_points(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(0, 8)
            M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            coeffs = charpoly(M).all_coeffs()
            assert len(coeffs) == n + 1 and coeffs[0] == 1
            for t in range(-(n // 2), n - n // 2 + 1):
                value = 0
                for c in coeffs:
                    value = value * t + c
                tI_minus_M = [
                    [(t if i == j else 0) - M[i][j] for j in range(n)]
                    for i in range(n)
                ]
                assert value == linalg.det_int(tI_minus_M)


class TestCertificateChecks:
    def test_block_form_failure_raises_named_error(self, monkeypatch):
        # every horizontal core crosses a vertical core, and the vertical
        # cores pair to zero with each other, so no horizontal core lies in
        # their span
        monkeypatch.setattr(homology, "find_hss_detailed",
                            with_curves(vertical_cores))
        with pytest.raises(CertificateError, match="not in block form"):
            twist_membership_certificate(l_origami(2, 2))
        assert issubclass(CertificateError, ValueError)

    @pytest.mark.parametrize("o", [l_origami(2, 2), o14()], ids=["l22", "o14"])
    def test_cubed_curve_is_not_primitive(self, o):
        from origami_forge.hss import find_hss

        c0, *rest = find_hss(o)
        curves = [OrigamiCurve(c0.start, c0.word ** 3), *rest]
        with pytest.raises(NotPrimitive, match="direct summand"):
            twist_membership_certificate(o, curves=curves)

    @pytest.mark.parametrize("o", [l_origami(2, 2), o14()], ids=["l22", "o14"])
    def test_too_few_curves_are_not_lagrangian(self, o):
        from origami_forge.hss import find_hss

        curves = find_hss(o)[:genus(o) - 1]
        with pytest.raises(NotLagrangian, match="exactly g classes"):
            twist_membership_certificate(o, curves=curves)

    @pytest.mark.parametrize("o", [l_origami(2, 2), o14()], ids=["l22", "o14"])
    def test_vertical_core_meets_a_cut_curve(self, o):
        from origami_forge.hss import find_hss

        c0, _c1, *rest = find_hss(o)
        curves = [c0, vertical_cores(o)[0], *rest]
        with pytest.raises(NotLagrangian, match="classes 0 and 1 intersect"):
            twist_membership_certificate(o, curves=curves)

    def test_non_stabilizing_lift_is_certificate_error(self, monkeypatch):
        from origami_forge import homology

        # l22 needs the square of the twist; its first power is no member
        monkeypatch.setattr(
            homology, "horizontal_multiplier", lambda o: (1, (1, 1, 0, 1))
        )
        with pytest.raises(CertificateError, match="does not stabilize"):
            twist_membership_certificate(l_origami(2, 2))

    def test_non_symplectic_basis_rejected(self):
        o = l_origami(2, 2)
        with pytest.raises(ValueError, match="not symplectic"):
            induced_matrix(o, identity_endo(), basis=linalg.eye(4))


def dual_pairing(o, model, curves, duals):
    """P[k][j] = <beta_k, A_j> for the duals beta_k and the curves A_j."""
    A = [model.coords(edge_cycle(o, c.start, c.word)) for c in curves]
    B = [model.coords(edge_cycle(o, c.start, c.word)) for c in duals]
    return [[model.pair(b, a) for a in A] for b in B], A


class TestDualCurves:
    """The cut system's dual curves certify it: the k-th dual meets the
    k-th cut curve once and misses every earlier one."""

    @pytest.mark.parametrize(
        "o",
        coordinate_sample()
        + [random_origami(random.Random(d), d) for d in (32, 48, 64)],
        ids=lambda o: f"d{o.d}",
    )
    def test_unit_triangular_pairing_gives_core_coordinates(self, o):
        model = h1_model(o)
        result = find_hss_detailed(o)
        duals = dual_curves(result)
        assert len(duals) == len(result.curves) == model.g
        assert all(is_closed(o, c) for c in duals)
        P, A = dual_pairing(o, model, result.curves, duals)
        for k, row in enumerate(P):
            assert row[k] in (1, -1)
            assert not any(row[:k])
        # <beta_k, c_Z> is the count of beta_k's vertical edges in Z
        chains = [edge_cycle(o, c.start, c.word) for c in duals]
        for z in cylinders(o):
            r = [sum(b[o.d + s - 1] for s in z.squares) for b in chains]
            a = homology._back_substitute(P, r)
            spanned = [sum(ai * col[i] for ai, col in zip(a, A))
                       for i in range(2 * model.g)]
            assert spanned == core_class(o, model, z)

    def test_reversed_duals_are_not_primitive(self):
        o = o14()
        result = find_hss_detailed(o)
        duals = dual_curves(result)
        with pytest.raises(NotPrimitive, match="direct summand"):
            twist_membership_certificate(o, duals=duals[::-1])
        # both reversed, o14's pairing is lower triangular with a non-zero
        # entry below the diagonal
        with pytest.raises(NotPrimitive, match="direct summand"):
            twist_membership_certificate(
                o, curves=result.curves[::-1], duals=duals[::-1])

    def test_back_substitution_divides_by_the_diagonal(self):
        rng = random.Random(13)
        for n in range(1, 8):
            P = [[rng.choice((1, -1)) if j == k else
                  rng.randint(-3, 3) if j > k else 0 for j in range(n)]
                 for k in range(n)]
            x = [rng.randint(-5, 5) for _ in range(n)]
            assert homology._back_substitute(P, mat_vec(P, x)) == x

    @pytest.mark.parametrize("d", [128, 160])
    def test_certificate_integers_stay_small(self, d, monkeypatch):
        """Every entry of P, every partial sum of the back substitution and
        every coordinate a_Z is at most L, the total letter count of the
        curves and the duals.  The right-hand sides and the step-1 rows of
        P count one word's vertical letters in one cylinder, so they are at
        most L.  Every other entry of P is the intersection number of two
        of the words; pushed off the edges, each letter of one crosses one
        edge, so it is at most a product of letter counts, a polynomial
        bound.  a_Z is the output's own coordinate vector: block[i][i] is
        -sum k_Z a_Z[i]^2 with every k_Z >= 1.  Back substitution divides
        only by +-1, so it multiplies no sizes.  Measured: |P| <= 42 and
        |a_Z| <= 1, far below L."""
        o = random_origami(random.Random(d), d)
        result = find_hss_detailed(o)
        duals = dual_curves(result)
        L = sum(len(c.word) for c in result.curves + duals)
        seen = []
        real = homology._back_substitute

        def recorded(P, r):
            x = real(P, r)
            seen.append((P, r, x))
            return x

        monkeypatch.setattr(homology, "_back_substitute", recorded)
        twist_membership_certificate(o, h1_model(o), result.curves, duals)
        assert len(seen) == len(cylinders(o))
        P = seen[0][0]
        assert max(abs(x) for row in P for x in row) <= L
        for _, r, x in seen:
            assert max(map(abs, x)) <= L
            for k in range(len(r)):
                t = r[k]
                assert abs(t) <= L
                for j in range(k + 1, len(r)):
                    t -= P[k][j] * x[j]
                    assert abs(t) <= L


class TestAlphaMembership:
    def test_standard_alpha_kills_a_part(self):
        alpha = AlphaSpec.standard(2)
        names = symplectic_names(2)
        assert alpha_eval(alpha, parse_symplectic("a1 a2", 2)).is_identity()
        w = alpha_eval(alpha, parse_symplectic("b1 b2", 2))
        assert w == parse_word("x y")

    def test_pattern_spec(self):
        alpha = AlphaSpec.from_pattern(2, [1, 2, 0, 0])
        assert alpha_eval(alpha, parse_symplectic("a1", 2)) == parse_word("x")
        assert alpha_eval(alpha, parse_symplectic("b1", 2)).is_identity()

    def test_action_matrix(self):
        images = [parse_symplectic(t, 2) for t in ("a1", "a2", "b1", "b2")]
        assert action_matrix_from_images(2, images) == linalg.eye(4)

    def test_wrong_image_count_in_membership(self):
        images = [parse_symplectic(t, 2) for t in ("a1", "a2", "b1")]
        with pytest.raises(UnknownGenerator, match="3 images"):
            modg_alpha_check(AlphaSpec.standard(2), images)
        with pytest.raises(UnknownGenerator, match="3 images"):
            modg_alpha_conjugator(AlphaSpec.standard(2), images)

    def test_wrong_image_count_in_action_matrix(self):
        images = [parse_symplectic(t, 2) for t in ("a1", "a2", "b1")]
        with pytest.raises(UnknownGenerator, match="3 images"):
            action_matrix_from_images(2, images)

    def test_bad_alpha_spec(self):
        with pytest.raises(UnknownGenerator, match="3 images"):
            AlphaSpec(2, (Word(2),) * 3)
        with pytest.raises(UnknownGenerator, match="not a word over F_2"):
            AlphaSpec(2, (Word(3),) * 4)


class TestWordFixtures:
    def test_parse_and_shape(self):
        text = (
            "alphabet a1 b1\n"
            "gen a1 = x^-2\n"
            "gen b1 = x y x^-1\n"
            "image f a1 = a1\n"
            "image f b1 = a1^-1 b1\n"
        )
        wf = parse_word_fixture(text)
        assert wf.g == 1
        assert wf.gens["a1"] == parse_word("x^-2")
        assert len(wf.image_list("f")) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("gen a1 x^-2\n", "line 1: expected '='"),
            ("gen a1 = x\ngen a1 = y\n", "line 2: duplicate gen a1"),
            ("alphabet a1 b1\nalphabet a1 b1\n",
             "line 2: alphabet declared twice"),
            ("gen a1 = x\nimage f c1 = a1\n",
             "image of unknown generator c1"),
            ("gen a1 = x\nrelation a1 = a1\n", "line 2: unknown directive"),
            ("= x\n", "line 1: unknown directive"),
        ],
        ids=["no-equals", "duplicate-gen", "second-alphabet",
             "unknown-image", "unknown-directive", "empty-head"],
    )
    def test_bad_input_is_bad_format(self, text, message):
        with pytest.raises(BadFormat, match=message):
            parse_word_fixture(text)

    def test_odd_alphabet_is_bad_format(self):
        wf = parse_word_fixture("alphabet a1 a2 b1\n")
        with pytest.raises(BadFormat, match="odd number"):
            wf.g

    def test_shipped_l_shape_fixture(self):
        import os

        from origami_forge.cli import fixture_dir

        with open(os.path.join(fixture_dir(), "l22.words")) as fh:
            wf = parse_word_fixture(fh.read())
        assert wf.g == 2
        alpha = AlphaSpec.standard(2)
        values = [str(alpha_eval(alpha, w)) for w in wf.image_list("f")]
        assert values == ["1", "1", "x", "y"]
        assert modg_alpha_check(alpha, wf.image_list("f"))
        # the generator words close up on the 3-square L-origami
        from origami_forge.origami import act_word

        o = l_origami(2, 2)
        for w in wf.gens.values():
            assert act_word(o, 1, w) == 1

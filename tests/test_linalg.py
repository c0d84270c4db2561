"""Exact integer linear algebra: determinants and mod-2 rank from
`origami_forge.linalg`, and the reference Smith form of `tests/oracles.py`
with its two transforms, kernels and linear solves."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from origami_forge import linalg

from oracles import mat_mul, mat_vec, smith_normal_form

small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_smith_form_transforms(A):
    snf = smith_normal_form(A)
    m, n = len(A), len(A[0])
    assert mat_mul(mat_mul(snf.U, A), snf.V) == snf.D
    factors = [snf.D[i][i] for i in range(snf.rank)]
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    # off-diagonal zero
    for i in range(m):
        for j in range(n):
            if i != j:
                assert snf.D[i][j] == 0


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_kernel_basis_annihilated(A):
    """The last n - r columns of V lie in ker A."""
    snf = smith_normal_form(A)
    r, n = snf.rank, len(A[0])
    K = [row[r:] for row in snf.V]
    assert mat_mul(A, K) == linalg.zeros(len(A), n - r)


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_solve_int_on_solvable_systems(A, rng):
    x = [rng.randint(-4, 4) for _ in A[0]]
    b = mat_vec(A, x)
    sol = smith_normal_form(A).solve(b)
    assert sol is not None
    assert mat_vec(A, sol) == b


def test_solve_int_unsolvable():
    assert smith_normal_form([[2, 0], [0, 2]]).solve([1, 0]) is None
    assert smith_normal_form([[1, 0], [1, 0]]).solve([0, 1]) is None


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_one_smith_form_solves_every_right_hand_side(A, rng):
    snf = smith_normal_form(A)
    for _ in range(3):
        b = mat_vec(A, [rng.randint(-4, 4) for _ in A[0]])
        sol = snf.solve(b)
        assert sol is not None
        assert mat_vec(A, sol) == b


def test_det_matches_cofactor_expansion():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        assert linalg.det_int([[a, b], [c, d]]) == a * d - b * c


def leibniz_det(A):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


def test_det_matches_leibniz_formula():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 5)
        # small entries and many zeros, so singular matrices and zero
        # pivots (row swaps) come up often
        A = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(n)]
             for _ in range(n)]
        assert linalg.det_int(A) == leibniz_det(A)


def test_det_unimodular_product():
    rng = random.Random(8)
    for _ in range(20):
        A = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        snf = smith_normal_form(A)
        assert abs(linalg.det_int(snf.U)) == 1
        assert abs(linalg.det_int(snf.V)) == 1


def test_gf2_rank():
    assert linalg.gf2_rank([[1, 0], [0, 1]]) == 2
    assert linalg.gf2_rank([[1, 1], [1, 1]]) == 1
    assert linalg.gf2_rank([[2, 4], [6, 8]]) == 0
    assert linalg.gf2_rank([[1, 2, 3], [0, 1, 1], [1, 3, 4]]) == 2

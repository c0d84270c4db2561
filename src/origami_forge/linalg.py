"""Exact integer linear algebra.

Matrices are lists of rows of ints.  The Smith normal form keeps the two
unimodular transforms U and V, which is what its callers read: one
factorisation answers any number of solves.  No command runs it: its
callers are the oracle `homology.symplectic_completion` and the tests'
own oracles, which check the command paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

Matrix = List[List[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def eye(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    m, k, n = len(A), len(B), len(B[0]) if B else 0
    out = zeros(m, n)
    for i in range(m):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(n):
                    row[j] += a * Bt[j]
    return out


def mat_vec(A: Matrix, v: list) -> list:
    nz = [(j, x) for j, x in enumerate(v) if x]  # chains are mostly zero
    return [sum(row[j] * x for j, x in nz) for row in A]


def transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)] if A else []


@dataclass
class SmithForm:
    """D = U * A * V with U, V unimodular; D diagonal with d_i | d_{i+1}."""

    D: Matrix
    U: Matrix
    V: Matrix

    @property
    def rank(self) -> int:
        r = 0
        for i in range(min(len(self.D), len(self.D[0]) if self.D else 0)):
            if self.D[i][i] != 0:
                r += 1
        return r

    def solve(self, b: list) -> Optional[list]:
        """One integer solution x of A x = b, or None."""
        D = self.D
        m, n = len(D), len(self.V)
        c = mat_vec(self.U, b)
        y = [0] * n
        for i in range(m):
            d = D[i][i] if i < n else 0
            if d == 0:
                if c[i] != 0:
                    return None
            elif c[i] % d != 0:
                return None
            else:
                y[i] = c[i] // d
        return mat_vec(self.V, y)


def smith_normal_form(A: Matrix) -> SmithForm:
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U, V = eye(m), eye(n)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def row_add(i, j, c):  # row_i += c * row_j
        for t in range(n):
            D[i][t] += c * D[j][t]
        for t in range(m):
            U[i][t] += c * U[j][t]

    def row_neg(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):  # col_i += c * col_j
        for r in D:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    k = 0
    while k < min(m, n):
        # find a pivot
        piv = None
        for i in range(k, m):
            for j in range(k, n):
                if D[i][j] != 0:
                    if piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != k:
            row_swap(k, i)
        if j != k:
            col_swap(k, j)
        if D[k][k] < 0:
            row_neg(k)
        # clear column and row; restart if a remainder shrinks the pivot
        dirty = False
        for i in range(k + 1, m):
            if D[i][k]:
                q = D[i][k] // D[k][k]
                row_add(i, k, -q)
                if D[i][k]:
                    dirty = True
        for j in range(k + 1, n):
            if D[k][j]:
                q = D[k][j] // D[k][k]
                col_add(j, k, -q)
                if D[k][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_k | D[i][j]
        fixed = True
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if D[i][j] % D[k][k] != 0:
                    row_add(k, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            k += 1
    return SmithForm(D, U, V)


def det_int(A: Matrix) -> int:
    """Determinant by Bareiss's fraction-free elimination: every division
    is exact, so all intermediate entries stay integers."""
    n = len(A)
    M = [list(row) for row in A]
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            p = next((r for r in range(k + 1, n) if M[r][k]), None)
            if p is None:
                return 0
            M[k], M[p] = M[p], M[k]
            sign = -sign
        pivot, Mk = M[k][k], M[k]
        for i in range(k + 1, n):
            Mi = M[i]
            f = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pivot - f * Mk[j]) // prev
        prev = pivot
    return sign * M[n - 1][n - 1] if n else 1


def gf2_rank(vectors: List[list]) -> int:
    """Rank over the two-element field."""
    basis: List[int] = []
    rank = 0
    for v in vectors:
        bits = 0
        for i, x in enumerate(v):
            if x % 2:
                bits |= 1 << i
        for b in basis:
            low = b & -b
            if bits & low:
                bits ^= b
        if bits:
            basis.append(bits)
            rank += 1
    return rank

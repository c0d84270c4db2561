"""Exact integer linear algebra.

Matrices are lists of rows of ints.  The program needs only Bareiss
determinants and ranks mod 2 here; its sparse products and triangular
solves sit beside their callers in `homology`.
"""

from __future__ import annotations

from typing import List

Matrix = List[List[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def eye(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


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

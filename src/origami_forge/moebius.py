"""Moebius transformations and their fixed-point/multiplier coordinates.

This is the only floating-point module in the package.  Tests of a single
quantity (a trace, the distance of two fixed points) use an absolute
tolerance of 1e-9.  `MoebiusMap.approx_eq` scales its tolerance by the
largest entry of either map, never below 1: a map like diag(1e8, 1e-8) has
entries whose last digits are rounding noise, and an absolute test would
reject it.  The pole test of `MoebiusMap.__call__` is relative, and a
multiplier is rejected only when it is exactly zero: diag(1e5, 1e-5) has
multiplier 1e-10, far below the tolerance, and is a valid loxodromic.

A fixed point is a point [p : q] of the Riemann sphere, an eigenvector of
the matrix.  q = 0 is the point at infinity, held as complex("inf"), so a
map with c = 0 takes the same path as any other.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

TOL = 1e-9
# A denominator c z + d smaller than this against |c z| + |d| is zero up to
# the digits lost computing z, so the point maps to infinity
POLE_TOL = 1e-12


class DegenerateInput(ValueError):
    pass


class NotLoxodromic(ValueError):
    pass


class MoebiusMap(NamedTuple):
    """z -> (a z + b) / (c z + d), normalized to a d - b c = 1.

    Maps are identified up to a global sign of the four entries.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    @staticmethod
    def from_entries(a: complex, b: complex, c: complex, d: complex) -> "MoebiusMap":
        det = a * d - b * c
        if not cmath.isfinite(det):
            raise DegenerateInput("determinant is not finite")
        if abs(det) < TOL * TOL:
            raise DegenerateInput("determinant is zero")
        s = cmath.sqrt(det)
        return MoebiusMap(a / s, b / s, c / s, d / s)

    def __call__(self, z: complex) -> complex:
        den = self.c * z + self.d
        if abs(den) <= POLE_TOL * (abs(self.c * z) + abs(self.d)):
            return complex("inf")
        return (self.a * z + self.b) / den

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def conjugate_by(self, g: "MoebiusMap") -> "MoebiusMap":
        """g * self * g^-1."""
        return g.compose(self).compose(g.inverse())

    def trace(self) -> complex:
        return self.a + self.d

    def approx_eq(self, other: "MoebiusMap", tol: float = TOL) -> bool:
        """Equal up to sign, each entry within tol times the largest entry
        of either map (or within tol, if no entry exceeds 1)."""
        mine = (self.a, self.b, self.c, self.d)
        theirs = (other.a, other.b, other.c, other.d)
        bound = tol * max(1.0, *map(abs, mine), *map(abs, theirs))
        for sign in (1, -1):
            if all(abs(x - sign * y) <= bound for x, y in zip(mine, theirs)):
                return True
        return False


IDENTITY = MoebiusMap(1, 0, 0, 1)


class FixedPointData(NamedTuple):
    z: complex       # attracting fixed point
    w: complex       # repelling fixed point
    multiplier: complex  # 0 < |multiplier| < 1

    def validate(self) -> "FixedPointData":
        if self.z == self.w or abs(self.z - self.w) <= TOL:
            raise DegenerateInput("fixed points coincide")
        m = abs(self.multiplier)
        if not (0 < m < 1):
            if m >= 1:
                raise DegenerateInput("|multiplier| must be < 1")
            raise DegenerateInput("multiplier must be non-zero")
        return self


def classify(m: MoebiusMap) -> str:
    """One of identity | parabolic | elliptic | loxodromic."""
    if m.approx_eq(IDENTITY):
        return "identity"
    try:
        tr2 = m.trace() ** 2
    except OverflowError:
        raise DegenerateInput("trace too large to square") from None
    if abs(tr2 - 4) <= TOL:
        return "parabolic"
    if abs(tr2.imag) <= TOL and -TOL <= tr2.real < 4:  # tr real in (-2, 2)
        return "elliptic"
    return "loxodromic"


def fixed_data(m: MoebiusMap) -> FixedPointData:
    """Attracting/repelling fixed points and the multiplier of a loxodromic
    map; a fixed point at infinity is complex("inf").

    The fixed points are the eigenvectors [p : q] of the matrix.  Its
    eigenvalues are lam and 1/lam with |lam| >= 1; lam's point is the
    attracting one, and its multiplier is 1/lam^2.  For an eigenvalue ev,
    (b, ev - a) and (ev - d, c) are both eigenvectors, and the one with the
    larger q is used; q = 0 is the point at infinity."""
    kind = classify(m)
    if kind != "loxodromic":
        raise NotLoxodromic(f"map is {kind}")
    a, b, c, d = m.a, m.b, m.c, m.d
    # s = lam - 1/lam.  Its square is taken as (a - d)^2 + 4 b c rather
    # than t^2 - 4: that form does not change when the matrix is scaled,
    # so the rounding of the normalised determinant does not enter it
    t, delta = a + d, a - d
    s = cmath.sqrt(delta * delta + 4 * (b * c))
    if s == 0:
        raise DegenerateInput("fixed points coincide")
    if abs(t + s) < abs(t - s):
        s = -s
    lam = (t + s) / 2
    # u = lam - a and v = lam - d.  For 1/lam the differences are -v and
    # -u, and u v = b c.  The larger of u and v cannot cancel; the smaller
    # one is taken from the product
    u, v = (s - delta) / 2, (s + delta) / 2
    if abs(u) >= abs(v):
        v = b * c / u
    else:
        u = b * c / v
    z = _point(b, u) if abs(u) >= abs(c) else _point(v, c)
    w = _point(b, -v) if abs(v) >= abs(c) else _point(-u, c)
    r = 1 / lam
    return FixedPointData(z, w, r * r).validate()


def _point(p: complex, q: complex) -> complex:
    """The point [p : q] of the Riemann sphere."""
    return p / q if q else complex("inf")


def _column(z: complex) -> tuple[complex, complex]:
    """A representative of z with entries of modulus at most 1."""
    if not cmath.isfinite(z):
        return 1, 0
    if abs(z) <= 1:
        return z, 1
    return 1, 1 / z


def from_fixed_data(f: FixedPointData) -> MoebiusMap:
    """The normalized map with the given fixed points and multiplier.

    With lam = 1 / sqrt(multiplier), the map is V diag(lam, 1/lam) V^-1,
    where the columns of V represent z and w: (z, 1) for a point with
    |z| <= 1, (1, 1/z) for a farther one and (1, 0) for infinity.  Every
    entry of V has modulus at most 1, so fixed points near 1e200 do not
    overflow the products.
    """
    f.validate()
    lam = 1 / cmath.sqrt(f.multiplier)
    (p1, q1), (p2, q2) = _column(f.z), _column(f.w)
    det = p1 * q2 - p2 * q1
    k = (lam - 1 / lam) / det
    a = (lam * p1 * q2 - p2 * q1 / lam) / det
    d = (p1 * q2 / lam - lam * q1 * p2) / det
    b = -p1 * (p2 * k)
    c = q1 * (q2 * k)
    return MoebiusMap(a, b, c, d)

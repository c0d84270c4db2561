"""Moebius transformations and their fixed-point/multiplier coordinates.

This is the only floating-point module in the package.  Tests of a single
quantity (a trace, the entry c, the distance of two fixed points) use an
absolute tolerance of 1e-9.  Comparisons of computed maps scale their
tolerance by the magnitude of the compared values, never below 1:
`MoebiusMap.approx_eq` by the largest entry of either map, and the branch
check of `from_fixed_data` by the size of the products in the determinant
and of the fixed points.  A map conjugated into general position can have
entries near 1e9 whose last digits are rounding noise, and an absolute
test would reject it.  The pole test of `MoebiusMap.__call__` is relative,
and a multiplier is rejected only when it is exactly zero: a map like
diag(1e5, 1e-5) has multiplier 1e-10, far below the tolerance, and is a
valid loxodromic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

TOL = 1e-9
# A denominator c z + d smaller than this against |c z| + |d| is zero up to
# the digits lost computing z, so the point maps to infinity
POLE_TOL = 1e-12


class DegenerateForm(ValueError):
    pass


class DegenerateInput(ValueError):
    pass


class NotLoxodromic(ValueError):
    pass


@dataclass(frozen=True)
class MoebiusMap:
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

# A fixed rational map with no real fixed point and c != 0; used by callers
# to conjugate degenerate placements (fixed point at infinity) into general
# position before reading off fixed-point data.
GENERIC_CONJUGATOR = MoebiusMap.from_entries(1, 1, 2, 3)


@dataclass(frozen=True)
class FixedPointData:
    z: complex       # attracting fixed point
    w: complex       # repelling fixed point
    multiplier: complex  # 0 < |multiplier| < 1

    def validate(self) -> "FixedPointData":
        if abs(self.z - self.w) <= TOL:
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
    if abs(tr2.imag) <= TOL and tr2.real < 4:
        return "elliptic"
    return "loxodromic"


def fixed_data(m: MoebiusMap) -> FixedPointData:
    """Attracting/repelling fixed points and the multiplier of a loxodromic
    map with c != 0 and finite fixed points."""
    kind = classify(m)
    if kind != "loxodromic":
        raise NotLoxodromic(f"map is {kind}")
    if abs(m.c) <= TOL:
        raise DegenerateForm("c = 0: a fixed point lies at infinity")
    # the fixed points solve c p^2 + (d - a) p - b = 0.  Of the numerators
    # (a - d) +- disc, the larger one cannot cancel; its root is computed
    # as ((a - d) +- disc) / 2c, and the other one from p1 p2 = -b / c
    disc = cmath.sqrt((m.a + m.d) ** 2 - 4)
    plus, minus = (m.a - m.d) + disc, (m.a - m.d) - disc
    if abs(plus) >= abs(minus):
        p1, p2 = plus / (2 * m.c), -2 * m.b / plus
    else:
        p1, p2 = -2 * m.b / minus, minus / (2 * m.c)
    # the multiplier at p is 1 / (c p + d)^2, and the two values of c p + d
    # are inverse; the attracting point's is the larger, and the other one
    # can round to 0, so it is never inverted
    n1, n2 = m.c * p1 + m.d, m.c * p2 + m.d
    if abs(n1) > abs(n2):
        return FixedPointData(p1, p2, 1 / n1 ** 2).validate()
    return FixedPointData(p2, p1, 1 / n2 ** 2).validate()


def from_fixed_data(f: FixedPointData) -> MoebiusMap:
    """The normalized map with the given fixed points and multiplier.

    Uses r = z + w, s = z w, t = lambda + 1/lambda:
    c = sqrt((t - 2) / (r^2 - 4 s)) with the branch Im(c) > 0,
    a = (r c + sqrt(t + 2)) / 2, d = (-r c + sqrt(t + 2)) / 2, b = -s c.
    Of a and d, the smaller can cancel away, so it is taken from
    a d = 1 + b c instead.
    """
    f.validate()
    lam = f.multiplier
    r = f.z + f.w
    s = f.z * f.w
    t = lam + 1 / lam
    denom = (f.z - f.w) ** 2  # = r^2 - 4 s, which cancels when z is near w
    c = cmath.sqrt((t - 2) / denom)
    if c.imag < 0 or (abs(c.imag) <= TOL and c.real < 0):
        c = -c
    b = -s * c
    for tr in (cmath.sqrt(t + 2), -cmath.sqrt(t + 2)):
        a = (r * c + tr) / 2
        d = (-r * c + tr) / 2
        if abs(a) >= abs(d):
            d = (1 + b * c) / a
        else:
            a = (1 + b * c) / d
        m = MoebiusMap(a, b, c, d)
        got = fixed_data(m)
        span = 1e-6 * max(1.0, abs(f.z), abs(f.w))
        if (
            abs(got.z - f.z) <= span
            and abs(got.w - f.w) <= span
            and abs(got.multiplier - lam) <= 1e-6
        ):
            return m
    raise DegenerateInput("no branch reproduces the requested fixed data")

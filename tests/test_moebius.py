"""Moebius transformations: trace classification and the loxodromic
fixed-point/multiplier coordinates, at 1e-9 tolerance (scaled by the
entries' magnitude when whole maps are compared)."""

import cmath
import json
import random

import pytest

from origami_forge.moebius import (
    IDENTITY,
    TOL,
    DegenerateInput,
    FixedPointData,
    MoebiusMap,
    NotLoxodromic,
    classify,
    fixed_data,
    from_fixed_data,
)


def random_map(rng) -> MoebiusMap:
    while True:
        entries = [
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)
        ]
        if abs(entries[0] * entries[3] - entries[1] * entries[2]) > 1e-3:
            return MoebiusMap.from_entries(*entries)


def random_loxodromic(rng) -> MoebiusMap:
    while True:
        m = random_map(rng)
        if classify(m) == "loxodromic" and abs(m.c) > 1e-3:
            return m


class TestClassification:
    def test_identity(self):
        assert classify(IDENTITY) == "identity"
        assert classify(MoebiusMap.from_entries(-1, 0, 0, -1)) == "identity"

    def test_parabolic(self):
        assert classify(MoebiusMap.from_entries(1, 1, 0, 1)) == "parabolic"

    def test_loxodromic(self):
        assert classify(MoebiusMap.from_entries(2, 0, 0, 0.5)) == "loxodromic"

    def test_elliptic(self):
        assert classify(MoebiusMap.from_entries(0, 1, -1, 0)) == "elliptic"

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for _ in range(1000):
            m = random_map(rng)
            g = random_map(rng)
            assert classify(m.conjugate_by(g)) == classify(m)


class TestNormalization:
    def test_unit_determinant(self):
        m = MoebiusMap.from_entries(3, 1, 2, 4)
        assert abs(m.a * m.d - m.b * m.c - 1) < TOL

    def test_approx_eq_up_to_sign(self):
        m = MoebiusMap.from_entries(3, 1, 2, 4)
        flipped = MoebiusMap(-m.a, -m.b, -m.c, -m.d)
        assert m.approx_eq(flipped)

    def test_approx_eq_scales_with_the_entries(self):
        m = MoebiusMap(6e5, -2e5, 1.2e6, -4e5)
        assert m.approx_eq(MoebiusMap(6e5 + 1e-9, -2e5, 1.2e6, -4e5 - 1e-9))
        assert not m.approx_eq(MoebiusMap(6e5 + 1e-2, -2e5, 1.2e6, -4e5))

    def test_approx_eq_is_absolute_below_one(self):
        assert not IDENTITY.approx_eq(MoebiusMap(1 + 2e-9, 0, 0, 1))
        assert IDENTITY.approx_eq(MoebiusMap(1 + 5e-10, 0, 5e-10, 1))

    def test_finite_determinant_is_taken_unscaled(self):
        """Where a d - b c is finite the entries are divided by its root
        as they come, so no map that normalised before changes a bit."""
        rng = random.Random(154)
        checked = 0
        for _ in range(3000):
            entries = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       * 10.0 ** rng.randint(-160, 160) for _ in range(4)]
            det = entries[0] * entries[3] - entries[1] * entries[2]
            if not cmath.isfinite(det) or abs(det) < TOL * TOL:
                continue
            s = cmath.sqrt(det)
            assert MoebiusMap.from_entries(*entries) == tuple(
                x / s for x in entries), entries
            checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("big", [1e154, 1e200, 1e300, 1.7e308])
    def test_overflowing_determinant_is_rescaled(self, big):
        """Entries whose a d - b c overflows normalise to determinant 1,
        in proportion to the entries given."""
        entries = (big, big / 3, -big / 7, big / 2)
        m = MoebiusMap.from_entries(*entries)
        assert abs(m.a * m.d - m.b * m.c - 1) < TOL
        for x, y in zip(m, entries):
            assert cmath.isclose(x * entries[0], y * m.a, rel_tol=1e-12)

    def test_infinite_entry_is_degenerate_input(self):
        with pytest.raises(DegenerateInput, match="not finite"):
            MoebiusMap.from_entries(complex("inf"), 0, 0, 1)

    def test_compose_inverse(self):
        m = MoebiusMap.from_entries(3, 1, 2, 4)
        assert m.compose(m.inverse()).approx_eq(IDENTITY)

    def test_evaluation(self):
        m = MoebiusMap.from_entries(1, 1, 0, 1)
        assert abs(m(1 + 2j) - (2 + 2j)) < TOL

    def test_pole_goes_to_infinity(self):
        """z / (z + 1) sends its pole -1, and a point within rounding of
        it relative to |c z| + |d|, to infinity; a point farther off goes
        to a large finite value."""
        m = MoebiusMap.from_entries(1, 0, 1, 1)
        for z in (-1, -1 + 1e-17, -1 + 1e-17j, -1 + 1e-13):
            assert m(z) == complex("inf"), z
        assert cmath.isfinite(m(-1 + 1e-9)) and abs(m(-1 + 1e-9)) > 1e8


class TestFixedData:
    def test_rejects_non_loxodromic(self):
        with pytest.raises(NotLoxodromic):
            fixed_data(MoebiusMap.from_entries(1, 1, 0, 1))

    def test_fixed_point_at_infinity(self):
        """diag(2, 0.5) attracts to infinity and repels from 0."""
        fd = fixed_data(MoebiusMap.from_entries(2, 0, 0, 0.5))
        assert fd.z == complex("inf")
        assert fd.w == 0
        assert abs(fd.multiplier - 0.25) <= 1e-9

    def test_tiny_c_is_not_degenerate(self):
        """Only c = 0 puts a fixed point at infinity: diag(2, 0.5) with
        c = 1e-12 fixes 0 and a point near 1.5e12."""
        fd = fixed_data(MoebiusMap.from_entries(2, 0, 1e-12, 0.5))
        assert abs(fd.z - 1.5e12) <= 1e-9 * 1.5e12
        assert abs(fd.w) <= 1e-9
        assert abs(fd.multiplier - 0.25) <= 1e-9

    def test_c_zero_maps_round_trip(self):
        """With c = 0 the fixed points are infinity and b / (d - a).
        Infinity attracts when |a| > |d|, with multiplier d / a."""
        rng = random.Random(11)
        maps = [MoebiusMap.from_entries(2, 0, 0, 0.5)]
        while len(maps) < 200:
            a, b, d = (complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                       for _ in range(3))
            if abs(a * d) > 1e-3:
                m = MoebiusMap.from_entries(a, b, 0, d)
                if classify(m) == "loxodromic":
                    maps.append(m)
        inf = complex("inf")
        for m in maps:
            fd = fixed_data(m)
            finite = m.b / (m.d - m.a)
            if abs(m.a) > abs(m.d):
                assert fd.z == inf
                assert abs(fd.w - finite) <= 1e-9 * max(abs(finite), 1)
                assert abs(fd.multiplier - m.d / m.a) <= 1e-9
            else:
                assert fd.w == inf
                assert abs(fd.z - finite) <= 1e-9 * max(abs(finite), 1)
                assert abs(fd.multiplier - m.a / m.d) <= 1e-9
            assert from_fixed_data(fd).approx_eq(m)

    def test_c_zero_with_a_near_d(self):
        """The normalised trace is near 2, so t^2 - 4 cancels to about
        1.7e-5 and loses five digits; the discriminant (a - d)^2 + 4 b c
        loses none when c = 0.  The repelling point is mpmath's at 50
        digits."""
        m = MoebiusMap.from_entries(
            complex(4.324438280677054, -0.0002343630491551624),
            complex(-0.8516749152893697, -610.438151887467),
            0,
            complex(4.306723008749075, -2.5313690424163526e-13),
        )
        fd = fixed_data(m)
        want = complex(-407.71675439678338, 34452.905980058355)
        assert fd.z == complex("inf")
        assert abs(fd.w - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("z, w", [
        (1e200, 2e200),
        (1e200, -1e-200),
        (3e150 + 1e150j, 1e-3),
        (complex("inf"), 1e250),
        (1e-250, complex("inf")),
        (1e300, -1e300),
    ])
    def test_extreme_fixed_points_round_trip(self, z, w):
        lam = 0.3 + 0.1j
        fd = fixed_data(from_fixed_data(FixedPointData(z, w, lam)))
        for got, want in ((fd.z, z), (fd.w, w)):
            if cmath.isfinite(want):
                assert abs(got - want) <= 1e-9 * abs(want)
            else:
                assert got == want
        assert abs(fd.multiplier - lam) <= 1e-9

    def test_multiplier_contracts(self):
        rng = random.Random(7)
        for _ in range(200):
            m = random_loxodromic(rng)
            fd = fixed_data(m)
            assert abs(fd.multiplier) < 1
            # z is attracting for the inverse iteration, w repelling
            assert abs(m(fd.w) - fd.w) < 1e-6
            assert abs(m(fd.z) - fd.z) < 1e-6

    def test_roundtrip(self):
        rng = random.Random(9)
        for _ in range(1000):
            m = random_loxodromic(rng)
            fd = fixed_data(m)
            back = from_fixed_data(fd)
            assert back.approx_eq(m, tol=1e-7), (m, back)

    def test_reverse_roundtrip(self):
        rng = random.Random(13)
        for _ in range(300):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z - w) < 1e-2:
                continue
            lam = rng.uniform(0.05, 0.9) * cmath.exp(
                1j * rng.uniform(0, 6.28)
            )
            fd = FixedPointData(z, w, lam).validate()
            m = from_fixed_data(fd)
            fd2 = fixed_data(m)
            assert abs(fd2.multiplier - lam) < 1e-7
            assert abs(fd2.z - z) < 1e-6
            assert abs(fd2.w - w) < 1e-6


class TestSmallMultiplier:
    """The multiplier's zero test is exact, not an absolute floor: the
    multiplier of diag(1e5, 1e-5) is 1e-10, below the 1e-9 tolerance."""

    def test_cli_accepts_tiny_multiplier(self, capsys):
        from origami_forge import cli

        code = cli.run(["moebius", "1e5,0", "0,0", "0,0", "1e-5,0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out["classification"] == "loxodromic"
        assert out["multiplier"] == [pytest.approx(1e-10, rel=1e-9), 0.0]

    def test_tiny_multiplier_validates(self):
        fd = FixedPointData(0j, 1 + 0j, 1e-10).validate()
        assert fd.multiplier == 1e-10

    def test_two_points_at_infinity_coincide(self):
        with pytest.raises(DegenerateInput, match="coincide"):
            FixedPointData(complex("inf"), complex("inf"), 0.5).validate()

    def test_zero_multiplier_is_rejected(self):
        with pytest.raises(DegenerateInput, match="non-zero"):
            FixedPointData(0j, 1 + 0j, 0).validate()

    def test_expanding_multiplier_is_rejected(self):
        with pytest.raises(DegenerateInput,
                           match=r"\|multiplier\| must be < 1"):
            from_fixed_data(FixedPointData(0j, 1 + 0j, 2.0))

"""Moebius transformations: trace classification and the loxodromic
fixed-point/multiplier coordinates, at 1e-9 tolerance (scaled by the
entries' magnitude when whole maps are compared)."""

import cmath
import json
import random

import pytest

from origami_forge.moebius import (
    GENERIC_CONJUGATOR,
    IDENTITY,
    TOL,
    DegenerateForm,
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

    def test_compose_inverse(self):
        m = MoebiusMap.from_entries(3, 1, 2, 4)
        assert m.compose(m.inverse()).approx_eq(IDENTITY)

    def test_evaluation(self):
        m = MoebiusMap.from_entries(1, 1, 0, 1)
        assert abs(m(1 + 2j) - (2 + 2j)) < TOL


class TestFixedData:
    def test_rejects_non_loxodromic(self):
        with pytest.raises(NotLoxodromic):
            fixed_data(MoebiusMap.from_entries(1, 1, 0, 1))

    def test_rejects_fixed_point_at_infinity(self):
        with pytest.raises(DegenerateForm):
            fixed_data(MoebiusMap.from_entries(2, 0, 0, 0.5))

    def test_degenerate_maps_recoverable_by_conjugation(self):
        m = MoebiusMap.from_entries(2, 0, 0, 0.5)
        probe = m.conjugate_by(GENERIC_CONJUGATOR)
        fd = fixed_data(probe)
        assert abs(fd.multiplier - 0.25) < 1e-9
        assert from_fixed_data(fd).approx_eq(probe)

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

    def test_zero_multiplier_is_rejected(self):
        with pytest.raises(DegenerateInput, match="non-zero"):
            FixedPointData(0j, 1 + 0j, 0).validate()

"""The command-line front end: JSON contracts, exit codes, fixture
registry resolution, tracing, and output determinism."""

import cmath
import contextlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys

import pytest

from origami_forge import cli, hss, moebius
from origami_forge.origami import (
    cylinders,
    format_origami,
    parse_origami,
    random_origami,
    wollmilchsau,
)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def ori_file(tmp_path):
    path = tmp_path / "w.ori"
    path.write_text(format_origami(wollmilchsau()))
    return str(path)


class TestAnalyze:
    def test_four_cylinder_report(self, capsys, ori_file):
        data = run_json(capsys, "analyze", ori_file)
        assert data == {
            "schema": 1,
            "d": 8,
            "genus": 3,
            "cylinders": [[1, 2, 3, 4], [5, 6, 7, 8]],
            "vertex_orbits": [[1, 3], [2, 4], [5, 7], [6, 8]],
        }

    def test_registry_name_resolution(self, capsys):
        data = run_json(capsys, "analyze", "o14")
        assert data["genus"] == 4

    def test_missing_file_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "/no/such/file.ori")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["schema"] == 1
        assert payload["error"]["type"] == "BadFormat"

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ori"
        bad.write_text("squares: 2\np1: (1 3)\np2: (1 2)\n")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "BadFormat"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["no-such-command"])
        assert exc.value.code == 2


class TestHss:
    def test_walkthrough_curves(self, capsys):
        data = run_json(capsys, "hss", "o14")
        words = [c["word"] for c in data["curves"]]
        assert "x^-3 y^-1 x y" in words
        assert data["step1_cuts"] == [
            {"start": 1, "word": "x^4"},
            {"start": 5, "word": "x^3"},
        ]

    def test_hss_builds_no_dual_curves(self, capsys, monkeypatch):
        """Only the twist certificate needs the dual curves: `hss`
        backtracks once per round, for alpha alone."""
        from origami_forge import hss

        real, calls = hss.backtrack, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hss, "backtrack", counted)
        run_json(capsys, "hss", "o14")
        assert len(calls) == 2  # o14 has two backtracking rounds

    def test_trace_emits_json_lines(self, capsys):
        code, out, err = run_cli(capsys, "hss", "wollmilchsau", "--trace")
        assert code == 0
        events = [json.loads(line) for line in err.splitlines()]
        assert any(e["event"] == "merge" for e in events)
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "final"

    def test_verify_reports_all_invariants(self, capsys):
        data = run_json(capsys, "verify-hss", "wollmilchsau")
        assert data["ok"]
        assert data["curve_count"] == data["genus"] == 3
        assert data["closed"] and data["conjugate_horizontal"]
        assert data["independent"]

    def test_every_registry_fixture_verifies(self, capsys):
        for name in cli.FIXTURES:
            data = run_json(capsys, "verify-hss", name)
            assert data["ok"], name


class TestVeechCheck:
    def test_member(self, capsys):
        data = run_json(capsys, "veech-check", "l22", "--matrix", "1,2,0,1")
        assert data["member"] is True
        assert data["witness_square"] == 1

    def test_non_member(self, capsys):
        data = run_json(capsys, "veech-check", "o14", "--matrix", "1,1,0,1")
        assert data["member"] is False
        assert data["witness_square"] is None

    def test_non_unimodular_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "veech-check", "l22", "--matrix", "2,0,0,2"
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "NotUnimodular"


class TestShearAndHomology:
    def test_shear_change_matrix(self, capsys):
        data = run_json(capsys, "shear", "l22", "--p", "1", "--q", "1")
        assert data["d"] == 3
        assert data["change"] == [["1", "1"], ["0", "1"]]

    def test_homology_report(self, capsys):
        data = run_json(capsys, "homology", "wollmilchsau")
        assert data["rank"] == 6
        assert len(data["intersection_matrix"]) == 6

    def test_twist_certificate(self, capsys):
        data = run_json(capsys, "homology", "l22", "--twist")
        cert = data["certificate"]
        assert cert["multiplier"] == 2
        assert cert["charpoly_divides"] is True

    def test_failed_certificate_check_is_domain_error(self, capsys, monkeypatch):
        from origami_forge import homology
        from origami_forge.freegroup import parse_word
        from origami_forge.origami import OrigamiCurve

        # l22's vertical cores: a Lagrangian the twist does not fix
        y = parse_word("y")
        real = homology.find_hss_detailed

        def vertical_cores(o):
            result = real(o)
            result.curves = [
                OrigamiCurve(min(z), y ** len(z)) for z in o.p2.orbits()
            ]
            return result

        monkeypatch.setattr(homology, "find_hss_detailed", vertical_cores)
        code, out, err = run_cli(capsys, "homology", "l22", "--twist")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == {
            "type": "CertificateError",
            "message": "twist action is not in block form",
        }


@contextlib.contextmanager
def counting_calls(*names):
    """Calls of every Python function with one of these names, wherever it
    is defined, while the block runs."""
    calls = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in calls:
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


class TestH1PathAndSchema:
    """H1 comes from one tree-cotree decomposition, and the twist
    certificate proves primitivity by the cut system's dual curves, so no
    command's path runs a Smith form.  The package carries none: the Smith
    form and the matrix product live in `tests/oracles.py`.  `homology`
    prints its intersection matrix in the tree-cotree basis, at schema 2."""

    @pytest.fixture()
    def calls(self):
        """Calls of every Python function named smith_normal_form or
        mat_mul, wherever it is defined, while the test runs."""
        with counting_calls("smith_normal_form", "mat_mul") as calls:
            yield calls

    def test_call_counter_sees_the_oracle(self, calls):
        from oracles import smith_normal_form

        smith_normal_form([[2, 4], [6, 8]])
        assert calls == {"smith_normal_form": 1, "mat_mul": 0}

    def test_h1_model_runs_no_smith_form(self, calls):
        from origami_forge import homology

        for make in cli.FIXTURES.values():
            homology.h1_model(make())
        assert calls == {"smith_normal_form": 0, "mat_mul": 0}

    @pytest.mark.parametrize("argv, smith_forms", [
        (["verify-hss", "o14"], 0),
        (["homology", "o14"], 0),
        (["homology", "o14", "--twist"], 0),
        (["sweep", "--count", "5", "--max-d", "16"], 0),
    ])
    def test_smith_forms_per_command(self, capsys, calls, argv, smith_forms):
        run_json(capsys, *argv)
        assert calls == {"smith_normal_form": smith_forms, "mat_mul": 0}

    @pytest.mark.parametrize("argv, origamis", [
        (["sweep", "--count", "5", "--max-d", "16"], 5),
        (["homology", "o14", "--twist"], 1),
    ])
    def test_each_origami_is_derived_once(self, capsys, argv, origamis):
        """Cylinders, the corner permutation, its orbits and the genus are
        derived once per origami and read from its cache after that; each
        orbit derivation walks one permutation's orbits, and the corner
        permutation takes one `vertex_permutation` call per square."""
        names = ("horizontal_cylinders", "corner", "corner_orbits",
                 "surface_genus", "orbits", "vertex_permutation")
        with counting_calls(*names) as calls:
            out = run_json(capsys, *argv)
        if argv[0] == "sweep":
            squares = sum(r["d"] for r in out["results"])
        else:
            squares = cli.load_origami(argv[1]).d
        assert calls == {"horizontal_cylinders": origamis,
                         "corner": origamis,
                         "corner_orbits": origamis,
                         "surface_genus": origamis,
                         "orbits": 2 * origamis,
                         "vertex_permutation": squares}

    def test_no_module_carries_a_smith_form(self):
        import origami_forge

        names = {"smith_normal_form", "SmithForm", "mat_mul"}
        modules = [info.name
                   for info in pkgutil.iter_modules(origami_forge.__path__)]
        assert "linalg" in modules and "homology" in modules
        for name in modules:
            module = importlib.import_module(f"origami_forge.{name}")
            assert not names & set(vars(module)), name

    def test_no_source_file_names_smith_normal_form(self):
        root = pathlib.Path(cli.__file__).parent
        files = [p for p in root.rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts]
        assert any(p.name == "linalg.py" for p in files)
        assert [p.name for p in files
                if b"smith_normal_form" in p.read_bytes()] == []

    def test_homology_at_schema_2(self, capsys):
        assert run_json(capsys, "homology", "o14")["schema"] == 2
        assert run_json(capsys, "homology", "l22", "--twist")["schema"] == 2

    @pytest.mark.parametrize("argv", [
        ["analyze", "o14"],
        ["hss", "o14"],
        ["sweep", "--count", "2", "--max-d", "8"],
    ])
    def test_other_commands_at_schema_1(self, capsys, argv):
        assert run_json(capsys, *argv)["schema"] == 1

    @pytest.mark.parametrize("argv", [
        ["homology", "/no/such/file.ori"],
        ["homology", "/no/such/file.ori", "--twist"],
        ["analyze", "/no/such/file.ori"],
        ["veech-check", "l22", "--matrix", "1,2,3"],
        ["moebius", "x,0", "0,0", "0,0", "1,0"],
    ])
    def test_error_payloads_at_schema_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["schema"] == 1


# c is about -2.1e-7 as given and 7e-12 after normalisation
TINY_C_ENTRIES = ("0,0", "-7615262321.288272,2147683305334608.8",
                  "-2.1259530000031886e-07,0",
                  "5.94238648618487e-14,-946604788.4949151")


class TestMoebius:
    def test_loxodromic_with_degenerate_form(self, capsys):
        data = run_json(capsys, "moebius", "2,0", "0,0", "0,0", "0.5,0")
        assert data["classification"] == "loxodromic"
        assert data["conjugated"] is True
        assert data["roundtrip"] is True
        assert abs(data["multiplier"][0] - 0.25) < 1e-9

    def test_elliptic(self, capsys):
        data = run_json(capsys, "moebius", "--", "0,0", "1,0", "-1,0", "0,0")
        assert data["classification"] == "elliptic"

    def test_overflowing_trace_is_degenerate_input(self, capsys):
        code, out, err = run_cli(
            capsys, "moebius", "1e200,0", "0,0", "0,0", "1e-200,0"
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DegenerateInput",
            "message": "trace too large to square",
        }

    @pytest.mark.parametrize("entries", [
        ("1e200,0", "0,0", "0,0", "1e200,0"),
        ("1e300,0", "1,0", "0,0", "1e10,0"),
        ("1e308,0", "1e308,0", "1e308,0", "1e308,0"),
    ])
    def test_infinite_determinant_is_degenerate_input(self, capsys, entries):
        code, out, err = run_cli(capsys, "moebius", *entries)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DegenerateInput",
            "message": "determinant is not finite",
        }

    def test_nan_entry_is_bad_format(self, capsys):
        code, out, err = run_cli(capsys, "moebius", "nan,0", "0,0", "0,0", "1,0")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "BadFormat",
            "message": "non-finite complex entry 'nan,0'",
        }

    @pytest.mark.parametrize("a", ["10,0", "1e4,0", "1e5,0"])
    def test_attracting_fixed_point_at_infinity(self, capsys, a):
        data = run_json(capsys, "moebius", a, "0,0", "0,0", "1,0")
        assert data["classification"] == "loxodromic"
        assert data["fixed_point_z"] is None
        assert data["fixed_point_w"] is not None
        assert abs(complex(*data["fixed_point_w"])) < 1e-9

    @pytest.mark.parametrize("entries", [
        ("1e5,0", "0,0", "0,0", "1e-5,0"),
        ("1e8,0", "0,0", "0,0", "1e-8,0"),
        ("1e10,0", "0,0", "0,0", "1e-10,0"),
        ("1e12,0", "0,0", "0,0", "1e-12,0"),
        ("1e15,0", "0,0", "0,0", "1e-15,0"),
        ("0.1160934793566741,0", "-2701428392374802.5,0",
         "0.48821338339011044,0", "1.1702513964189196e+16,0"),
    ])
    def test_large_entries_round_trip(self, capsys, entries):
        """The conjugated probe of diag(1e8, 1e-8) has entries near 6e8,
        so the round trip is checked relative to them.  From diag(1e10,
        1e-10) on, c p + d rounds to 0 at the repelling fixed point, so
        the multiplier is read at the attracting one only.  The last map
        has c != 0 and fixed points near -0.23 and -2.4e16: the smaller
        one is taken from their product, since (a - d) - disc cancels to
        0, and so is the smaller of a and d when the map is rebuilt."""
        data = run_json(capsys, "moebius", "--", *entries)
        assert data["classification"] == "loxodromic"
        # only a map with c = 0 is conjugated into general position
        assert data["conjugated"] is (entries[2] == "0,0")
        assert data["roundtrip"] is True
        if not data["conjugated"]:
            z, w = (complex(*data[k])
                    for k in ("fixed_point_z", "fixed_point_w"))
            assert abs(z + 0.23084171492052305) < 1e-12
            assert abs(w / -2.3970080219694052e16 - 1) < 1e-12

    def test_tiny_c_has_finite_fixed_points(self, capsys):
        """c is about 7e-12 after normalisation, below the 1e-9 tolerance
        but not 0, so both fixed points are finite and are read off the
        map itself; the far one lies near 4.5e15 (mpmath, 50 digits)."""
        data = run_json(capsys, "moebius", "--", *TINY_C_ENTRIES)
        assert data["classification"] == "loxodromic"
        assert data["conjugated"] is False
        assert data["roundtrip"] is True
        for key, want in (
            ("fixed_point_z",
             complex(-2268827.8481555064, -8.0436609475870608)),
            ("fixed_point_w",
             complex(2268827.8481557859, -4452613903004881.3028)),
        ):
            got = complex(*data[key])
            assert abs(got - want) <= 1e-9 * abs(want), key

    def test_far_fixed_points_round_trip(self, capsys):
        """Maps built from fixed data whose repelling point lies 1e6 to
        1e15 from 0 have c near 1e-8 down to 1e-16; the CLI reads back
        both fixed points and the multiplier without conjugating."""
        rng = random.Random(2020)
        for _ in range(40):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = 10 ** rng.uniform(6, 15) * cmath.exp(1j * rng.uniform(0, 7))
            lam = rng.uniform(0.05, 0.9) * cmath.exp(1j * rng.uniform(0, 7))
            m = moebius.from_fixed_data(moebius.FixedPointData(z, w, lam))
            data = run_json(capsys, "moebius", "--", *(
                f"{x.real!r},{x.imag!r}" for x in (m.a, m.b, m.c, m.d)))
            assert data["conjugated"] is False and data["roundtrip"] is True
            got_z, got_w, got_lam = (
                complex(*data[k])
                for k in ("fixed_point_z", "fixed_point_w", "multiplier"))
            assert abs(got_z - z) <= 1e-9 * max(abs(z), 1)
            assert abs(got_w - w) <= 1e-9 * abs(w)
            assert abs(got_lam - lam) <= 1e-9

    @pytest.mark.parametrize("c", ["1e-300,0", "1e-320,0", "5e-324,0"])
    def test_extreme_c_is_conjugated(self, capsys, c):
        """With c this small the direct formulas overflow (1e-300) or
        underflow the multiplier to 0 (1e-320), or c normalises to 0
        (5e-324), so the map is conjugated into general position."""
        data = run_json(capsys, "moebius", "--", "3,0", "1,0", c, "2,0")
        assert data["conjugated"] is True
        assert data["roundtrip"] is True
        assert data["fixed_point_z"] is None
        assert data["fixed_point_w"] == [-1.0, 0.0]

    def test_direct_failure_is_reported(self, capsys):
        """The fixed points 0 and -2.9e-17 coincide within the tolerance.
        The conjugated map fails too, as elliptic after rounding, but the
        error names the direct failure."""
        code, out, err = run_cli(
            capsys, "moebius", "--", "0.022471940671470583,0", "0,0",
            "-766442638479415.4,0", "8.889975994724545e-05,0")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DegenerateInput",
            "message": "fixed points coincide",
        }

    def test_bad_entry_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "moebius", "x", "0,0", "0,0", "1,0")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "BadFormat"


class TestFixtures:
    def test_registry_listing(self, capsys):
        data = run_json(capsys, "fixtures")
        names = {e["name"] for e in data["origamis"]}
        assert {"wollmilchsau", "o14", "l22"} <= names
        assert all(e["present"] for e in data["origamis"])
        assert all(w["present"] for w in data["word_fixtures"])

    def test_environment_override(self, capsys, tmp_path, monkeypatch):
        custom = tmp_path / "w2.ori"
        custom.write_text(format_origami(wollmilchsau()))
        monkeypatch.setenv("ORIGAMI_FORGE_FIXTURES", str(tmp_path))
        data = run_json(capsys, "fixtures")
        assert data["directory"] == str(tmp_path)
        present = [e for e in data["origamis"] if e["present"]]
        assert present == []  # no registry files in the override dir


class TestSweepAndDeterminism:
    def test_small_sweep_passes(self, capsys):
        data = run_json(
            capsys, "sweep", "--count", "12", "--seed", "3", "--max-d", "10"
        )
        assert data["ok"] is True
        assert len(data["results"]) == 12
        assert [r["index"] for r in data["results"]] == list(range(12))

    def test_identical_invocations_byte_identical(self, capsys):
        argv = ["sweep", "--count", "6", "--seed", "11"]
        code1 = cli.run(argv)
        out1 = capsys.readouterr().out
        code2 = cli.run(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    @staticmethod
    def sweep_origami(seed, max_d, index):
        rng = random.Random(f"{seed}:{index}")
        return random_origami(rng, rng.randint(2, max_d))

    def test_bridging_order_check_is_not_vacuous(self, monkeypatch):
        """With a bridging pass whose cut count depends on the order, every
        item with two or more cylinders reads cut_count_invariant false."""
        multi = [i for i in range(10)
                 if len(cylinders(self.sweep_origami(3, 16, i))) >= 2]
        assert len(multi) >= 3
        assert all(cli.sweep_one(3, 16, i)["cut_count_invariant"]
                   for i in multi)
        real = hss.step1_cuts

        def by_order(graph, order=None):
            cuts, bridged = real(graph, order)
            if order is not None and list(order) != sorted(order)[::-1]:
                cuts = cuts[1:]
            return cuts, bridged

        monkeypatch.setattr(hss, "step1_cuts", by_order)
        for i in multi:
            item = cli.sweep_one(3, 16, i)
            assert item["cut_count_invariant"] is False
            assert item["ok"] is False

    def test_failure_report_reproduces_the_item(self, capsys, monkeypatch):
        """A sweep item that raises is reported with its seed, its index
        and its origami as .ori text, and nothing goes to stdout."""
        from origami_forge import homology

        real = homology.twist_membership_certificate
        seen = []

        def fail_third(o, *args):
            seen.append(o)
            if len(seen) == 3:
                raise homology.CertificateError("forced failure")
            return real(o, *args)

        monkeypatch.setattr(homology, "twist_membership_certificate",
                            fail_third)
        code, out, err = run_cli(
            capsys, "sweep", "--count", "5", "--seed", "7", "--max-d", "10")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error == {
            "type": "CertificateError",
            "message": "forced failure",
            "seed": 7,
            "index": 2,
            "origami": format_origami(seen[2]),
        }
        assert parse_origami(error["origami"]) == self.sweep_origami(7, 10, 2)

    def test_installed_entry_point(self, ori_file):
        proc = subprocess.run(
            [sys.executable, "-m", "origami_forge.cli", "analyze", ori_file],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["genus"] == 3


class TestParser:
    """The argument parser is built once per process and reused."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "l23", "--twist"],
            ["veech-check", "l22", "--matrix", "1,2,0,1"],
            ["hss", "x3", "--trace"],
        ],
    )
    def test_repeat_call_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first

    def test_argument_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["veech-check", "l22"])
        assert exc.value.code == 2
        assert "--matrix" in capsys.readouterr().err
        data = run_json(capsys, "veech-check", "l22", "--matrix", "1,2,0,1")
        assert data["member"] is True

    def test_command_looked_up_when_called(self, capsys, monkeypatch):
        run_json(capsys, "fixtures")
        monkeypatch.setattr(cli, "cmd_fixtures", lambda args: {"patched": 1})
        assert run_json(capsys, "fixtures") == {"patched": 1}


class TestEmit:
    """`emit` encodes with json.dumps; the text must be what the streaming
    json.dump wrote, since the goldens pin only hss, homology and sweep."""

    @pytest.mark.parametrize("obj", [
        {"schema": 1, "classification": "loxodromic",
         "fixed_point_z": None,
         "fixed_point_w": [5e-324, -1.7976931348623157e308],
         "multiplier": [1.8062434881375886e-15, -5.095496482693849e-10],
         "conjugated": False, "roundtrip": True, "trace": [0.1, -0.0]},
        {"schema": 1, "matrix": [1, -2, 0, 1], "member": False,
         "witness_square": None},
        {"schema": 1, "error": {
            "type": "BadFormat",
            "message": "non-finite entry 'ζ≠0', \"ü\"\n"}},
        {"b": {"z": [], "a": {}}, "a": [True, False, None, 2.5e-300]},
    ])
    def test_same_text_as_json_dump(self, obj):
        streamed, emitted = io.StringIO(), io.StringIO()
        json.dump(obj, streamed, sort_keys=True, separators=(", ", ": "))
        streamed.write("\n")
        cli.emit(obj, emitted)
        assert emitted.getvalue() == streamed.getvalue()

    def test_error_object_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "moebius", "x,0", "0,0", "0,0", "1,0")
        assert code == 1 and out == ""
        obj = json.loads(err)
        streamed = io.StringIO()
        json.dump(obj, streamed, sort_keys=True, separators=(", ", ": "))
        assert err == streamed.getvalue() + "\n"


def src_env():
    """The environment with this checkout's package first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_cli_import_leaves_out_sympy():
    env = src_env()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, origami_forge.cli; print('sympy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["veech-check", "l22", "--matrix", "1,2,0,1"],
        ["veech-check", "o14", "--matrix", "1,1,0,1"],
        ["veech-check", "l22", "--matrix", "2,0,0,2"],
        ["homology", "l23", "--twist"],
        ["sweep", "--count", "5", "--max-d", "12", "--seed", "1"],
        ["verify-hss", "o14"],
        ["hss", "o14", "--trace"],
        ["homology", "o14", "--twist"],
        ["moebius", "1e5,0", "0,0", "0,0", "1,0"],
        ["moebius", "1e200,0", "0,0", "0,0", "1e200,0"],
        ["moebius", "--", *TINY_C_ENTRIES],
    ],
)
def test_same_answers_without_asserts(argv):
    """python -O strips assert statements; no answer may depend on one."""
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "origami_forge.cli", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        for flags in ([], ["-O"])
    )
    assert plain.returncode in (0, 1), plain.stderr
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert optimized.stderr == plain.stderr


def test_library_errors_without_asserts():
    """Under python -O the word-fixture parser, the membership check, the
    coset action, the Schreier substitution, the edge cycle and the
    symplectic completion still raise their named errors."""
    script = (
        "from origami_forge.freegroup import parse_word\n"
        "from origami_forge.homology import AlphaSpec, edge_cycle,"
        " h1_model, modg_alpha_check, parse_symplectic,"
        " parse_word_fixture, symplectic_completion\n"
        "from origami_forge.hss import find_hss\n"
        "from origami_forge.origami import l_origami\n"
        "from origami_forge.subgroup import CosetAction, schreier_system,"
        " substitute\n"
        "o = l_origami(2, 2)\n"
        "model = h1_model(o)\n"
        "a0, *rest = [model.coords(edge_cycle(o, c.start, c.word))"
        " for c in find_hss(o)]\n"
        "for call in (\n"
        "    lambda: parse_word_fixture('gen a1 x'),\n"
        "    lambda: modg_alpha_check(AlphaSpec.standard(2),"
        " [parse_symplectic(t, 2) for t in ('a1', 'a2', 'b1')]),\n"
        "    lambda: CosetAction(o, base=0),\n"
        "    lambda: substitute(schreier_system(CosetAction(o)),"
        " parse_word('x y')),\n"
        "    lambda: edge_cycle(o, 0, parse_word('x')),\n"
        "    lambda: symplectic_completion(model,"
        " [[2 * x for x in a0], *rest]),\n"
        "):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "BadFormat line 1: expected '='",
        "UnknownGenerator 3 images for the 2g = 4 generators",
        "ValueError base square out of range",
        "ValueError word rank must equal the generator count",
        "ValueError start square out of range",
        "NotPrimitive classes do not span a direct summand",
    ]

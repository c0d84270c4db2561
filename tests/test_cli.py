"""The command-line front end: JSON contracts, exit codes, fixture
registry resolution, tracing, and output determinism."""

import argparse
import ast
import cmath
import contextlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import random
import shlex
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from origami_forge import cli, hss, moebius
from origami_forge.origami import (
    cylinders,
    format_origami,
    l_origami,
    parse_origami,
    random_origami,
    wollmilchsau,
    x_origami,
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

    def test_resolution_order(self, capsys, tmp_path, monkeypatch):
        """A path first, then the registry constructor: o14 has 14
        squares and the x-origami of order 3 fewer."""
        monkeypatch.chdir(tmp_path)
        assert run_json(capsys, "analyze", "o14")["d"] == 14
        # a file in the cwd named like a fixture wins over the constructor
        (tmp_path / "o14").write_text(format_origami(x_origami(3)))
        assert run_json(capsys, "analyze", "o14")["d"] == x_origami(3).d < 14

    def test_directory_argument_is_an_os_error(self, capsys, tmp_path,
                                               monkeypatch):
        """A directory is a path that exists, also one named like a
        fixture, so it is opened and fails rather than falling back."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o14").mkdir()
        for ref in (str(tmp_path), "o14"):
            code, out, err = run_cli(capsys, "analyze", ref)
            assert code == 1 and out == ""
            assert json.loads(err)["error"]["type"] == "IsADirectoryError"

    def test_dangling_symlink_falls_back_to_the_constructor(
            self, capsys, tmp_path, monkeypatch):
        """A link in the cwd named like a fixture whose target is missing
        is no file: the constructor builds the origami, as for a missing
        path."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o14").symlink_to(tmp_path / "nowhere")
        assert run_json(capsys, "analyze", "o14")["d"] == 14

    def test_path_gone_before_open_falls_back(self, tmp_path, monkeypatch):
        """A path the probe finds but the open does not, as when the file
        is removed in between, falls back to the registry constructor."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: True)
        assert cli.load_origami("l22") == l_origami(2, 2)

    @pytest.mark.parametrize("fixture_file", [True, False],
                             ids=["fixture-file", "constructor"])
    def test_fixture_name_raises_nothing(self, tmp_path, monkeypatch,
                                         fixture_file):
        """The path is probed before it is opened: resolving a fixture
        name raises no exception inside `load_origami`, whether a file of
        that name in the cwd is read or the constructor builds it."""
        monkeypatch.chdir(tmp_path)
        if fixture_file:
            shipped = pathlib.Path(cli.fixture_dir(), "o14.ori")
            (tmp_path / "o14").write_bytes(shipped.read_bytes())
        raised = []

        def local(frame, event, arg):
            if event == "exception":
                raised.append(arg[0].__name__)
            return local

        def probe(frame, event, arg):
            return local if frame.f_code is cli.load_origami.__code__ else None

        old = sys.gettrace()
        sys.settrace(probe)
        try:
            o = cli.load_origami("o14")
        finally:
            sys.settrace(old)
        assert o.d == 14
        assert raised == []

    @pytest.mark.parametrize("name", sorted(cli.FIXTURES))
    def test_registry_name_opens_no_file(self, tmp_path, monkeypatch, name):
        """A registry name is built by its constructor: in an empty cwd
        `load_origami` opens no file, not even the shipped .ori one."""
        monkeypatch.chdir(tmp_path)
        opened = []
        real_open = open

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        o = cli.load_origami(name)
        assert opened == []
        assert o == cli.FIXTURES[name]()

    def test_bytes_decode_as_text_mode_read(self, capsys, tmp_path):
        """The file is read as bytes and decoded once: CR LF and CR end
        lines as in text mode, and a byte that is no UTF-8 fails with the
        error a text-mode read raises."""
        text = format_origami(wollmilchsau())
        path = tmp_path / "w.ori"
        for newline in ("\r\n", "\r"):
            path.write_bytes(("# crlf\n" + text).replace("\n", newline)
                             .encode())
            assert run_json(capsys, "analyze", str(path))["d"] == 8
        path.write_bytes(b"# \xff\n" + text.encode())
        with pytest.raises(UnicodeDecodeError) as exc:
            path.read_text(encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "UnicodeDecodeError", "message": str(exc.value)}

    def test_path_through_a_file_is_no_such_file(self, capsys, ori_file):
        code, out, err = run_cli(capsys, "analyze", ori_file + "/w.ori")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "BadFormat"

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

    @pytest.mark.parametrize("text, message", [
        ("squares: 2\np1: (1 2)x\np2: id\n",
         "p1: stray text 'x' outside cycles"),
        ("squares: 2\np1: (1 2)\np2: (1 b)\n", "p2: non-integer cycle entry"),
        ("squares 2\np1: (1 2)\np2: id\n", "line 1: expected 'key: value'"),
        ("squares: 0\np1: id\np2: id\n", "squares: must be >= 1"),
    ])
    def test_bad_format_messages(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.ori"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {"type": "BadFormat",
                                            "message": message}

    def test_empty_cycle_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "empty.ori"
        path.write_text("squares: 2\np1: (1 2)()\np2: id\n")
        data = run_json(capsys, "analyze", str(path))
        assert (data["d"], data["cylinders"]) == (2, [[1, 2]])

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

    def test_failed_verification_reports_the_sorted_report(self, capsys,
                                                           monkeypatch):
        """A failed check exits 1 with the report as the message, in the
        text json.dumps(report, sort_keys=True) gives."""
        data = run_json(capsys, "verify-hss", "wollmilchsau")
        report = {k: v for k, v in data.items() if k not in ("schema", "ok")}
        report["conjugate_horizontal"] = False
        monkeypatch.setattr(cli, "is_conjugate_horizontal", lambda w: False)
        code, out, err = run_cli(capsys, "verify-hss", "wollmilchsau")
        message = json.dumps(report, sort_keys=True)
        assert (code, out) == (1, "")
        assert err == json.dumps(
            {"schema": cli.SCHEMA,
             "error": {"type": "VerificationFailed", "message": message}},
            sort_keys=True) + "\n"


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

    def test_fibonacci_matrix_within_budget(self, capsys):
        """(F(n+1), F(n); F(n), F(n-1)) for even n has det 1; at 4,000
        digits Euclid's algorithm splits it into 38,276 Nielsen factors,
        and each call must still answer within 0.75 s, in-process."""
        a, b = 0, 1
        for _ in range(19138):
            a, b = b, a + b
        A = (b, a, a, b - a)
        assert len(str(b)) == 4000
        threads = threading.active_count()
        for ref, member in (("wollmilchsau", True), ("o14", False)):
            start = time.perf_counter()
            data = run_json(capsys, "veech-check", ref,
                            "--matrix", ",".join(map(str, A)))
            assert time.perf_counter() - start < 0.75, ref
            assert data["member"] is member and data["matrix"] == list(A)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("entries", [
        "1{zeros},1,{nines},1",
        "1,-{nines},0,1",
        "1,0,{nines}_9,1",
    ])
    def test_entry_beyond_digit_limit_names_the_bound(self, capsys, entries):
        """int() refuses a literal of more digits than the interpreter's
        limit; the error names that limit rather than calling the entry
        no integer.  The first matrix, (10^4400, 1; 10^4400 - 1, 1), has
        det 1."""
        limit = sys.get_int_max_str_digits()
        text = entries.format(zeros="0" * (limit + 100),
                              nines="9" * (limit + 100))
        code, out, err = run_cli(capsys, "veech-check", "l22",
                                 "--matrix", text)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "BadFormat",
            "message": f"--matrix entries may have at most {limit} digits"}

    @pytest.mark.parametrize("entries", ["1,2,x,1", "1,0,1_,1", "1,0,+-1,1"])
    def test_entry_not_an_integer(self, capsys, entries):
        code, _, err = run_cli(capsys, "veech-check", "l22",
                               "--matrix", entries)
        assert code == 1
        assert json.loads(err)["error"] == {
            "type": "BadFormat", "message": "--matrix entries must be integers"}


class TestShearAndHomology:
    def test_shear_change_matrix(self, capsys):
        data = run_json(capsys, "shear", "l22", "--p", "1", "--q", "1")
        assert data["d"] == 3
        assert data["change"] == [["1", "1"], ["0", "1"]]

    def test_negative_q_flips_both_signs(self, capsys):
        """Direction (p, q) is direction (-p, -q): the same output."""
        code, out, _ = run_cli(capsys, "shear", "l22", "--p", "1",
                               "--q", "-3")
        assert code == 0
        assert out == run_cli(capsys, "shear", "l22", "--p", "-1",
                              "--q", "3")[1]
        assert json.loads(out)["change"] == [["1/3", "-1/3"], ["0", "1"]]

    def test_shear_of_the_one_square_torus(self, capsys, tmp_path):
        """The torus's permutations are the identity, printed as `id`."""
        path = tmp_path / "torus.ori"
        path.write_text("squares: 1\np1: id\np2: id\n")
        code, out, _ = run_cli(capsys, "shear", str(path), "--p", "1",
                               "--q", "1")
        assert code == 0
        data = json.loads(out)
        assert data["origami"] == "squares: 1\np1: id\np2: id\n"

    def test_shear_q_bound(self, capsys):
        """d * q = 3 * 10^12 squares is refused before any is built."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "shear", "l22", "--p", "1",
                                 "--q", str(10 ** 12))
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "BadParameters"

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
            return real(o)._replace(curves=[
                OrigamiCurve(min(z), y ** len(z)) for z in o.p2.orbits()
            ])

        monkeypatch.setattr(homology, "find_hss_detailed", vertical_cores)
        code, out, err = run_cli(capsys, "homology", "l22", "--twist")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == {
            "type": "CertificateError",
            "message": "twist action is not in block form",
        }


@pytest.fixture()
def no_new_process(monkeypatch):
    """Fail the test as soon as it tries to start a process.  pytest.fail
    raises a BaseException, which `cli.run` does not turn into exit 1."""

    def refuse(*args, **kwargs):
        pytest.fail("a process was started")

    for name in ("fork", "posix_spawn", "posix_spawnp"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


MAX_FLOAT = "1.7976931348623157e308"


class TestExtremeInputBudget:
    """Every command that reads one origami answers within 0.5 s on the
    5,000-square torus, in-process and with no thread started: p1 is one
    5,000-cycle and p2 the identity, so the surface has genus 1 and 5,000
    vertices.  `sweep` refuses an out-of-range --max-d or --count, and
    `moebius`
    answers extreme floats within the same budget, starting no thread or
    process."""

    @pytest.fixture(scope="class")
    def torus_file(self, tmp_path_factory):
        d = 5000
        path = tmp_path_factory.mktemp("torus") / "torus5000.ori"
        squares = " ".join(map(str, range(1, d + 1)))
        path.write_text(f"squares: {d}\np1: ({squares})\np2: id\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["hss"], ["verify-hss"], ["homology"],
        ["homology", "--twist"],
    ], ids=" ".join)
    def test_torus_within_budget(self, capsys, torus_file, argv):
        threads = threading.active_count()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv[0], torus_file, *argv[1:])
        assert time.perf_counter() - start < 0.5
        assert code == 0, err
        assert threading.active_count() == threads
        data = json.loads(out)
        if argv[0] == "homology":
            assert data["rank"] == 2
        elif argv[0] == "verify-hss":
            assert data["ok"] is True and data["genus"] == 1
        elif argv[0] == "analyze":
            assert data["genus"] == 1 and len(data["vertex_orbits"]) == 5000
        else:
            assert data["curves"] == [{"start": 1, "word": "x^5000"}]

    @pytest.mark.parametrize("max_d", ["1", "1000000000000"])
    def test_sweep_max_d_out_of_range_is_refused(self, capsys, no_new_process,
                                                 max_d):
        """--max-d 1 leaves random no degree to draw, and 10^12 would let
        an origami's permutations take 10^12 entries; both are refused
        before any origami is drawn."""
        threads = threading.active_count()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--count", "1",
                                 "--max-d", max_d)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "BadParameters",
            "message": f"--max-d must lie in 2..{cli.MAX_SWEEP_SQUARES}, "
                       f"not {max_d}"}
        assert threading.active_count() == threads

    def test_sweep_max_d_of_two_is_accepted(self, capsys):
        data = run_json(capsys, "sweep", "--count", "3", "--max-d", "2")
        assert data["ok"] is True and data["max_d"] == 2
        assert {r["d"] for r in data["results"]} == {2}

    @pytest.mark.parametrize("count", ["-1", "10001"])
    def test_sweep_count_out_of_range_is_refused(self, capsys,
                                                 no_new_process, count):
        """A negative count used to exit 0 with no results, and a count
        past the bound would run that many items; both are refused before
        any item is drawn."""
        threads = threading.active_count()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--count", count,
                                 "--max-d", "4")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "BadParameters",
            "message": f"--count must lie in 0..{cli.MAX_SWEEP_COUNT}, "
                       f"not {count}"}
        assert threading.active_count() == threads

    def test_sweep_count_of_zero_is_accepted(self, capsys):
        data = run_json(capsys, "sweep", "--count", "0", "--max-d", "4")
        assert data["ok"] is True and data["results"] == []

    @pytest.mark.parametrize("entries", [
        (f"{MAX_FLOAT},{MAX_FLOAT}", f"-{MAX_FLOAT},{MAX_FLOAT}",
         f"{MAX_FLOAT},-{MAX_FLOAT}", f"-{MAX_FLOAT},-{MAX_FLOAT}"),
        ("5e-324,5e-324",) * 4,
        ("1e154,0", "1e154,0", "1e154,0", "2e154,0"),
        ("1e200,0", "1,0", "0,0", "1e-200,0"),
        ("0,0", "1e300,0", "-1e-300,0", "0,0"),
    ], ids=["max", "subnormal", "det-1e308", "det-1", "elliptic"])
    def test_moebius_extreme_floats_within_budget(self, capsys,
                                                  no_new_process, entries):
        """Only the shape of the answer is checked: exit 0 with one JSON
        object on stdout, or exit 1 with one on stderr."""
        threads = threading.active_count()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "moebius", "--", *entries)
        assert time.perf_counter() - start < 0.5
        assert code in (0, 1)
        text, other = (out, err) if code == 0 else (err, out)
        assert other == "" and text.count("\n") == 1
        assert isinstance(json.loads(text), dict)
        assert threading.active_count() == threads


def readme_cli_examples():
    """The `origami-forge ...` lines of README.md's CLI block, each as an
    argument list without the program name and the trailing comment."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines()
            if line.startswith("origami-forge ")]


class TestReadmeExamples:
    """The documented usage keeps running: every example exits 0 and
    prints one JSON object on stdout."""

    def test_block_is_found(self):
        assert len(readme_cli_examples()) >= 10

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_example_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out.endswith("}\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)


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
        orbit derivation walks one permutation's orbits."""
        names = ("horizontal_cylinders", "corner", "corner_orbits",
                 "surface_genus", "orbits")
        with counting_calls(*names) as calls:
            run_json(capsys, *argv)
        assert calls == {"horizontal_cylinders": origamis,
                         "corner": origamis,
                         "corner_orbits": origamis,
                         "surface_genus": origamis,
                         "orbits": 2 * origamis}

    def test_no_module_carries_a_smith_form(self):
        import origami_forge

        names = {"smith_normal_form", "SmithForm", "mat_mul"}
        modules = [info.name
                   for info in pkgutil.iter_modules(origami_forge.__path__)]
        assert "linalg" in modules and "homology" in modules
        for name in modules:
            module = importlib.import_module(f"origami_forge.{name}")
            assert not names & set(vars(module)), name

    def test_every_exported_name_resolves(self):
        """Each module's __all__ names only what the module defines, and
        hss exports the driver that cli and homology import."""
        import origami_forge

        exported = 0
        for info in pkgutil.iter_modules(origami_forge.__path__):
            module = importlib.import_module(f"origami_forge.{info.name}")
            names = getattr(module, "__all__", ())
            assert [n for n in names if not hasattr(module, n)] == [], info
            exported += len(names)
        assert exported
        assert {"find_hss_detailed", "HssResult"} <= set(hss.__all__)

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

# c = 0, with fixed points infinity, which attracts, and about -1.05e9
FAR_C0_ENTRIES = ("-13439.370303184452,0",
                  "-14058651593862.508,7.567382060251522e-13", "0,0",
                  "-0.004795380193680534,0")
# c = 0, with a finite fixed point near 5.5e16 that attracts
FAR_C0_ATTRACTING_ENTRIES = ("0.00010286831087499253,0",
                             "1563544456298580.5,0", "0,0",
                             "0.0006845308069205363,0.028586801182535006")


class TestMoebius:
    def test_loxodromic_with_degenerate_form(self, capsys):
        data = run_json(capsys, "moebius", "2,0", "0,0", "0,0", "0.5,0")
        assert data["classification"] == "loxodromic"
        assert data["conjugated"] is False
        assert data["roundtrip"] is True
        assert abs(data["multiplier"][0] - 0.25) < 1e-9

    def test_elliptic(self, capsys):
        data = run_json(capsys, "moebius", "--", "0,0", "1,0", "-1,0", "0,0")
        assert data["classification"] == "elliptic"

    @pytest.mark.parametrize("entries", [
        ("0,1.5", "1,0", "-3.25,0", "0,1.5"),  # trace 3i
        ("0,0.1", "1,0", "-1.01,0", "0,0.1"),  # trace 0.2i
    ])
    def test_imaginary_trace_is_loxodromic(self, capsys, entries):
        """tr^2 is real and below 4 but negative: the trace is not real,
        so the eigenvalues differ in modulus."""
        data = run_json(capsys, "moebius", "--", *entries)
        assert data["classification"] == "loxodromic"
        assert data["roundtrip"] is True

    def test_overflowing_trace_is_degenerate_input(self, capsys):
        """A trace whose square overflows puts the multiplier 1/lambda^2
        below the smallest normal float, and the message says so."""
        for b in ("0,0", "1,0"):
            code, out, err = run_cli(
                capsys, "moebius", "1e200,0", b, "0,0", "1e-200,0"
            )
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == {
                "type": "DegenerateInput",
                "message": "multiplier 1/lambda^2 is below the smallest "
                           "normal float",
            }

    @pytest.mark.parametrize("entries, kind, matrix", [
        (("1e200,0", "0,0", "0,0", "1e200,0"), "identity", (1, 0, 0, 1)),
        (("1e300,0", "1,0", "0,0", "1e10,0"), "loxodromic",
         (1e145, 1e-155, 0, 1e-145)),
        (("1e154,0", "1e154,0", "1e154,0", "2e154,0"), "loxodromic",
         (1, 1, 1, 2)),
    ], ids=["1e200", "1e300", "1e154"])
    def test_overflowing_determinant_is_rescaled(self, capsys, entries,
                                                 kind, matrix):
        """a d - b c overflows a float, but the map is fine: the entries
        are divided by a power of two first, and the normalised matrix
        comes out up to rounding."""
        data = run_json(capsys, "moebius", "--", *entries)
        assert data["classification"] == kind
        for got, want in zip(data["matrix"], matrix):
            assert cmath.isclose(complex(*got), want, rel_tol=1e-12), data
        assert data.get("roundtrip", True) is True

    def test_singular_overflowing_matrix_is_degenerate_input(self, capsys):
        """Rescaled, a d - b c of four equal entries near the largest
        float is exactly zero."""
        code, out, err = run_cli(capsys, "moebius", *["1e308,0"] * 4)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DegenerateInput",
            "message": "determinant is zero",
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
        """Maps up to diag(1e15, 1e-15) round trip, compared relative to
        their largest entry.  The last map has c != 0 and fixed points
        near -0.23 and -2.4e16: of lam - a and lam - d the smaller one
        cancels and is taken from their product b c, and so is the
        smaller of a and d when the map is rebuilt."""
        data = run_json(capsys, "moebius", "--", *entries)
        assert data["classification"] == "loxodromic"
        assert data["conjugated"] is False
        assert data["roundtrip"] is True
        if entries[2] != "0,0":
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
        both fixed points and the multiplier."""
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
    def test_extreme_c(self, capsys, c):
        """The attracting fixed point of (3, 1; c, 2) is 1/c: about 1e300
        for c = 1e-300, beyond float range for c = 1e-320, and infinity
        when c normalises to 0 (5e-324).  The repelling one is -1."""
        data = run_json(capsys, "moebius", "--", "3,0", "1,0", c, "2,0")
        assert data["conjugated"] is False
        assert data["roundtrip"] is True
        if c == "1e-300,0":
            z = complex(*data["fixed_point_z"])
            assert abs(z - 1e300) <= 1e-9 * 1e300
        else:
            assert data["fixed_point_z"] is None
        w = complex(*data["fixed_point_w"])
        assert abs(w + 1) <= 1e-15

    @pytest.mark.parametrize("entries, want", [
        (FAR_C0_ENTRIES, {
            "fixed_point_z": None,
            "fixed_point_w": complex(-1046080009.1863436, 5.63e-17),
            "multiplier": complex(3.5681583924689322e-7, 0),
        }),
        (FAR_C0_ATTRACTING_ENTRIES, {
            "fixed_point_z": complex(1112424151494633.3,
                                     -54671993235983564.0),
            "fixed_point_w": None,
            "multiplier": complex(8.6118118501514277e-5,
                                  -0.0035963926048730204),
        }),
    ], ids=["infinity_attracts", "infinity_repels"])
    def test_far_fixed_points_with_c_zero(self, capsys, entries, want):
        """Both maps are loxodromic with distinct fixed points, one of
        them infinity; the values are mpmath's at 50 digits."""
        data = run_json(capsys, "moebius", "--", *entries)
        assert data["classification"] == "loxodromic"
        assert data["conjugated"] is False
        assert data["roundtrip"] is True
        for key, value in want.items():
            if value is None:
                assert data[key] is None, key
            else:
                got = complex(*data[key])
                assert abs(got - value) <= 1e-9 * abs(value), key

    def test_direct_failure_is_reported(self, capsys):
        """The fixed points 0 and -2.9e-17 coincide within the tolerance,
        and the error says so."""
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
        """ORIGAMI_FORGE_FIXTURES no longer moves the listed directory:
        `fixtures` lists the shipped files wherever the variable points."""
        monkeypatch.setenv("ORIGAMI_FORGE_FIXTURES", str(tmp_path))
        data = run_json(capsys, "fixtures")
        assert data["directory"] == cli.fixture_dir() != str(tmp_path)
        assert all(e["present"] for e in data["origamis"])

    @pytest.mark.parametrize("name", sorted(cli.FIXTURES))
    def test_shipped_file_is_the_constructor_origami(self, name):
        """Each shipped <name>.ori holds the origami its registry
        constructor builds.  No command reads these files, but clibench
        derives its expected answers from them."""
        path = os.path.join(cli.fixture_dir(), name + ".ori")
        with open(path, encoding="utf-8") as fh:
            assert parse_origami(fh.read()) == cli.FIXTURES[name]()


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
            cuts = real(graph, order)
            if order is not None and list(order) != sorted(order)[::-1]:
                cuts = cuts[1:]
            return cuts

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

    @pytest.mark.parametrize("argv", [
        # every command with valid arguments
        ["analyze", "o14"],
        ["hss", "o14", "--trace"],
        ["verify-hss", "l22"],
        ["veech-check", "l22", "--matrix", "1,2,0,1"],
        ["shear", "l22", "--p", "-1", "--q=2"],
        ["homology", "l23", "--twist"],
        ["moebius", "2,0", "0,0", "0,0", "0.5,0"],
        ["fixtures"],
        ["sweep", "--count", "1", "--max-d", "6", "--seed", "3"],
        # help, for every command and at the top
        ["analyze", "-h"],
        ["hss", "--help"],
        ["verify-hss", "-h"],
        ["veech-check", "l22", "--matrix", "1,2,0,1", "-h"],
        ["shear", "-h"],
        ["homology", "--he"],
        ["moebius", "-h"],
        ["fixtures", "-h"],
        ["sweep", "-h"],
        ["-h"],
        ["--help", "analyze"],
        # option abbreviations
        ["veech-check", "l22", "--mat", "1,2,0,1"],
        ["hss", "o14", "--tr"],
        ["homology", "l23", "--t"],
        ["sweep", "--cou", "2", "--max", "4", "--se", "1"],
        # missing, repeated and malformed options
        ["veech-check", "l22"],
        ["shear", "l22", "--p", "1"],
        ["analyze"],
        ["moebius", "1,0", "2,0"],
        ["veech-check", "l22", "--matrix", "1,2,0,1", "--matrix", "1,0,0,1"],
        ["sweep", "--seed", "1", "--seed", "2", "--count", "0"],
        ["shear", "l22", "--p", "x", "--q", "1"],
        ["sweep", "--count", "1.5"],
        # extra positionals and unknown options
        ["analyze", "o14", "l22"],
        ["fixtures", "extra"],
        ["moebius", "1,0", "0,0", "0,0", "1,0", "2,0"],
        ["analyze", "o14", "--bogus"],
        ["veech-check", "l22", "--matrix", "1,2,0,1", "--twist", "x"],
        ["fixtures", "--x=1", "-z"],
        # no command, an unknown one, and options before the command
        [],
        ["no-such-command"],
        ["Analyze", "o14"],
        ["-x", "analyze", "o14"],
        ["--", "analyze", "o14"],
        # "--" after the command, and negative matrix entries
        ["analyze", "--", "o14"],
        ["analyze", "--", "-o14"],
        ["veech-check", "l22", "--", "--matrix", "1,2,0,1"],
        ["veech-check", "l22", "--matrix=-1,0,0,-1"],
        ["veech-check", "--matrix=-1,2,0,-1", "l22"],
        ["veech-check", "l22", "--matrix", "-1,0,0,-1"],
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_dispatch_matches_the_full_parser(self, capsys, monkeypatch,
                                              argv):
        """`run` hands an argv that starts with a command name straight
        to that command's parser.  The arguments each command is called
        with are the full parser's Namespace; an exit has the full
        parser's code, stdout and stderr."""
        def outcome(call):
            try:
                result = call()
            except SystemExit as exc:
                result = ("exit", exc.code)
            captured = capsys.readouterr()
            return result, captured.out, captured.err

        seen = []
        for name in cli.build_parser().commands:
            monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"),
                                lambda args: seen.append(args) or {})
        full = outcome(lambda: cli.build_parser().parse_args(list(argv)))
        dispatched = outcome(lambda: cli.run(list(argv)))
        if isinstance(full[0], argparse.Namespace):
            assert dispatched == (0, "{}\n", "")
            assert seen == [full[0]]
        else:
            assert dispatched == full
            assert seen == []


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


ENGINES = ("hss", "homology", "linalg", "subgroup", "moebius")
SUBMODULES = ("cli", "freegroup", "homology", "hss", "linalg", "moebius",
              "origami", "subgroup")


def run_isolated(code: str) -> list:
    """Run code in a fresh `python -S` interpreter, so that no .pth hook
    of the environment imports anything, and read the JSON it prints."""
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_out_sympy():
    """Importing the front end loads no engine, no dataclasses and no
    sympy; each submodule is an attribute of the package, imported on
    first access."""
    loaded, resolved = run_isolated(
        "import json, sys\n"
        "import origami_forge, origami_forge.cli\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m in ('sympy', 'dataclasses')\n"
        "                or m.startswith('origami_forge.'))\n"
        f"names = {SUBMODULES!r}\n"
        "resolved = [getattr(origami_forge, m)\n"
        "            is sys.modules['origami_forge.' + m] for m in names]\n"
        "print(json.dumps([loaded, resolved]))\n")
    assert loaded == ["origami_forge.cli", "origami_forge.freegroup",
                      "origami_forge.origami"]
    assert resolved == [True] * len(SUBMODULES)


def test_package_refuses_unknown_attributes():
    import origami_forge

    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        origami_forge.nosuch


HOMOLOGY_ENGINES = ["homology", "hss", "linalg", "subgroup"]
COMMAND_ENGINES = [
    (["analyze", "o14"], []),
    (["hss", "o14"], ["hss"]),
    (["verify-hss", "l22"], HOMOLOGY_ENGINES),
    (["veech-check", "l22", "--matrix", "1,2,0,1"], ["subgroup"]),
    (["shear", "l22", "--p", "1", "--q", "2"], []),
    (["homology", "l23", "--twist"], HOMOLOGY_ENGINES),
    (["moebius", "2,0", "0,0", "0,0", "0.5,0"], ["moebius"]),
    (["fixtures"], []),
    (["sweep", "--count", "1", "--max-d", "6"], HOMOLOGY_ENGINES),
]


@pytest.mark.parametrize("argv,engines", COMMAND_ENGINES,
                         ids=[argv[0] for argv, _ in COMMAND_ENGINES])
def test_each_command_loads_only_its_engines(argv, engines):
    """A command adds only the engine modules it runs to what importing
    the front end loaded, and none loads dataclasses; only `shear` loads
    fractions, and with it decimal."""
    code, added, dataclasses_loaded, numeric = run_isolated(
        "import contextlib, io, json, sys\n"
        "from origami_forge import cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run({argv!r})\n"
        "added = sorted(m.split('.')[1] for m in set(sys.modules) - before\n"
        "               if m.startswith('origami_forge.'))\n"
        "numeric = sorted({'fractions', 'decimal'} & set(sys.modules))\n"
        "print(json.dumps([code, added, 'dataclasses' in sys.modules,\n"
        "                  numeric]))\n")
    assert code == 0
    assert added == engines
    assert not dataclasses_loaded
    assert numeric == (["decimal", "fractions"] if argv[0] == "shear" else [])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "o14"],
        ["hss", "o14", "--trace"],
        ["verify-hss", "wollmilchsau"],
        ["veech-check", "l22", "--matrix", "1001,500,2,1"],
        ["shear", "l22", "--p", "1", "--q", "3"],
        ["homology", "l23", "--twist"],
        ["moebius", "2,0", "1,0", "1,0", "1,0"],
        ["fixtures"],
        ["sweep", "--count", "2", "--max-d", "10", "--seed", "3"],
        ["veech-check", "l22", "--matrix", "1,2,3"],
        ["veech-check", "l22"],
        ["hss", "x3", "--bogus"],
    ],
    ids=lambda argv: "-".join(argv[:2]).replace(",", "_"),
)
def test_fresh_interpreter_gives_the_in_process_answer(capsys, argv):
    """The engines a command imports inside its function are found in a
    new interpreter, where nothing else loaded them: stdout, stderr and
    the exit code equal the in-process answer, for an exit 0, an exit 1
    (a malformed matrix) and an exit 2 (a missing option, and an unknown
    one, which the top-level parser refuses)."""
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "origami_forge.cli", *argv],
        capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out, captured.err)


def test_no_source_file_imports_dataclasses():
    """The record classes are named tuples or slotted classes; building a
    dataclass costs the import of dataclasses and inspect at start-up."""
    src = pathlib.Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_cli_imports_no_engine_at_module_level():
    """Only origami and freegroup are imported by the front end's module
    body; each engine is imported by the command that runs it."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    own = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            own.add(node.module or "")
            own.update(a.name for a in node.names if not node.module)
    assert own == {"origami", "freegroup"}


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
        ["moebius", "--", *FAR_C0_ENTRIES],
        ["moebius", "--", *FAR_C0_ATTRACTING_ENTRIES],
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
    coset action, the edge cycle and the symplectic completion still
    raise their named errors."""
    script = (
        "from origami_forge.freegroup import parse_word\n"
        "from origami_forge.homology import AlphaSpec, edge_cycle,"
        " h1_model, modg_alpha_check, parse_symplectic,"
        " parse_word_fixture, symplectic_completion\n"
        "from origami_forge.hss import find_hss\n"
        "from origami_forge.origami import l_origami\n"
        "from origami_forge.subgroup import CosetAction\n"
        "o = l_origami(2, 2)\n"
        "model = h1_model(o)\n"
        "a0, *rest = [model.coords(edge_cycle(o, c.start, c.word))"
        " for c in find_hss(o)]\n"
        "for call in (\n"
        "    lambda: parse_word_fixture('gen a1 x'),\n"
        "    lambda: modg_alpha_check(AlphaSpec.standard(2),"
        " [parse_symplectic(t, 2) for t in ('a1', 'a2', 'b1')]),\n"
        "    lambda: CosetAction(o, base=0),\n"
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
        "ValueError start square out of range",
        "NotPrimitive classes do not span a direct summand",
    ]


def _names_assertion_error(node) -> bool:
    """node is `raise AssertionError`, `raise AssertionError(...)` or a
    class whose bases name AssertionError."""
    if isinstance(node, ast.ClassDef):
        return any(isinstance(base, ast.Name) and base.id == "AssertionError"
                   for base in node.bases)
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    """python -O strips assert statements, so the library holds none: every
    check that guards an input or decides an answer is a raise.  Nor does
    it raise a bare AssertionError or define a subclass of it: each check
    raises a named error, which `run` catches as a ValueError."""
    package = pathlib.Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or _names_assertion_error(node)
    ]
    assert len(list(package.glob("*.py"))) >= 9
    assert found == []


def test_every_library_error_is_a_value_error():
    """Every exception class the package defines is a ValueError, so a
    library caller catches each refusal as one."""
    import origami_forge

    errors = [
        cls
        for info in pkgutil.iter_modules(origami_forge.__path__)
        for cls in vars(importlib.import_module(
            f"origami_forge.{info.name}")).values()
        if isinstance(cls, type) and issubclass(cls, BaseException)
        and cls.__module__ == f"origami_forge.{info.name}"
    ]
    assert len(errors) >= 20
    assert [cls for cls in errors if not issubclass(cls, ValueError)] == []


def test_every_module_level_name_is_used():
    """Each module-level function, class and constant of the package is
    named somewhere in `src/` outside its own definition and `__all__`,
    or imported by the acceptance gate.  Dunder names are exempt, and so
    is each `cmd_*`, which `run` looks up in `globals()`."""
    package = pathlib.Path(cli.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(package.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(a.name for a in node.names)
    gate = ast.parse(
        (pathlib.Path(__file__).parent / "test_acceptance.py").read_text(
            encoding="utf-8"))
    named.update(a.name for node in ast.walk(gate)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").startswith("origami_forge")
                 for a in node.names)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target.id]
            else:
                continue
            defined += [(name, t) for t in targets]
    assert len(defined) > 100
    unused = [f"{name}:{t}" for name, t in defined
              if t not in named and not t.startswith(("__", "cmd_"))]
    assert unused == []


def _attributes(node) -> Counter:
    """How often each name is read or written as an attribute in node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def test_every_method_is_used():
    """Each function defined in a class body of the package, dunders
    aside, is named as an attribute somewhere in `src/` outside its own
    definition, or as an attribute in the acceptance gate."""
    package = pathlib.Path(cli.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(package.glob("*.py"))}
    named = sum(map(_attributes, trees.values()), Counter())
    gate = _attributes(ast.parse(
        (pathlib.Path(__file__).parent / "test_acceptance.py").read_text(
            encoding="utf-8")))
    methods = [(name, cls.name, node)
               for name, tree in trees.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("__")]
    assert len(methods) > 30
    unused = [f"{name}:{cls}.{node.name}" for name, cls, node in methods
              if named[node.name] <= _attributes(node)[node.name]
              and not gate[node.name]]
    assert unused == []


def _frozen_records():
    """Zero-argument builders of each immutable record class; two calls
    give equal, distinct instances."""
    from origami_forge.freegroup import F2Endo, gen, parse_word
    from origami_forge.homology import AlphaSpec, h1_model
    from origami_forge.hss import find_hss_detailed, step1_graph
    from origami_forge.moebius import FixedPointData, MoebiusMap
    from origami_forge.origami import (AffineChange, Cylinder, OrigamiCurve,
                                       l_origami)
    from origami_forge.subgroup import CosetAction, schreier_system

    return {
        "Origami": lambda: l_origami(2, 3),
        "Cylinder": lambda: Cylinder((1, 2)),
        "OrigamiCurve": lambda: OrigamiCurve(1, parse_word("x y")),
        "AffineChange": lambda: AffineChange.from_ints(1, 2, 0, 1),
        "F2Endo": lambda: F2Endo(gen(2, 1), gen(2, 2)),
        "CosetAction": lambda: CosetAction(l_origami(2, 3)),
        "SchreierSystem": lambda: schreier_system(
            CosetAction(l_origami(2, 3))),
        "HalfCylinderGraph": lambda: step1_graph(l_origami(2, 3)),
        "MergeHistory": lambda: find_hss_detailed(wollmilchsau()).histories[0],
        "H1Model": lambda: h1_model(l_origami(2, 3)),
        "AlphaSpec": lambda: AlphaSpec.standard(2),
        "MoebiusMap": lambda: MoebiusMap(1, 2, 0, 1),
        "FixedPointData": lambda: FixedPointData(0j, 1 + 0j, 0.5),
    }


class TestRecordClasses:
    @pytest.mark.parametrize("name", sorted(_frozen_records()))
    def test_immutable_fields_and_value_equality(self, name):
        build = _frozen_records()[name]
        a, b = build(), build()
        assert a == b and a is not b
        for field in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, field, None)
        try:
            hash(a)
        except TypeError:  # a list or dict field, as in a frozen dataclass
            return
        assert hash(a) == hash(b)

    def test_defaults(self):
        from origami_forge.freegroup import F2Endo, gen
        from origami_forge.origami import l_origami
        from origami_forge.subgroup import CosetAction

        assert F2Endo(gen(2, 1), gen(2, 2)).is_automorphism is False
        assert CosetAction(l_origami(2, 2)).base == 1

    def test_validation_on_construction(self):
        from origami_forge.freegroup import F2Endo, RankMismatch, gen
        from origami_forge.homology import AlphaSpec, UnknownGenerator
        from origami_forge.origami import (BadParameters, OrigamiCurve,
                                           l_origami)
        from origami_forge.subgroup import CosetAction

        with pytest.raises(BadParameters):
            OrigamiCurve(1, gen(3, 1))
        with pytest.raises(RankMismatch):
            F2Endo(gen(3, 1), gen(2, 2))
        with pytest.raises(ValueError, match="base square"):
            CosetAction(l_origami(2, 2), 4)
        with pytest.raises(UnknownGenerator):
            AlphaSpec(2, (gen(2, 1),) * 3)

    def test_filled_in_records_are_slotted(self):
        from origami_forge.hss import (LabeledList, MergeHistory,
                                       find_hss_detailed)
        from origami_forge.origami import o14

        result = find_hss_detailed(o14())
        records = [result, result.histories[0],
                   next(iter(result.pool.lists.values()))]
        assert [type(r) for r in records] == [
            hss.HssResult, MergeHistory, LabeledList]
        for record in records:
            assert not hasattr(record, "__dict__")

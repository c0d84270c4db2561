"""Closed-loop benchmark of the origami-forge command line.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 clibench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

One client in one process calls ``origami_forge.cli.run(argv)`` in-process,
one call after another, so interpreter start-up is paid once per run and is
measured on its own as ``setup_s``.  Every answer is checked against a
reference of the benchmark's own (see ``workloads.py``); a wrong answer
counts as a failed call and is reported on stderr with what reproduces it.

Host speed drifts on a shared machine while the program does the same
work, within a run as well as between runs.  A fixed pure-Python reference
loop runs between calls (and between set-up starts), with the collector
paused; every timed interval is reported as raw x R0 / R, where R is the
mean of the two loops around it and R0 is the constant below.  The
collector stays on during program calls, since its cost is part of what
the program costs; ``gc.collect()`` runs between calls, outside the timed
interval.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a shorter
prefix of the call list once plain and once with spans around the
program's public functions, and prints the per-layer metrics.  The last
line of stdout is the JSON result; the lines before it are a readable
report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracer import MODULES, Tracer
from workloads import ORI, HssLarge, SweepSmall, VeechEntries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".clibench_work")

# A reference-loop time on the machine the bounds were set on (Python 3.11,
# 2 cores, where it ran from 0.02 to 0.04 s); it only fixes the unit of the
# normalised times.
R0 = 0.0200
REF_ITERATIONS = 75_000
SETUP_STARTS = 7
IMPORTTIME_STARTS = 3
TAIL_BEYOND = 10  # calls beyond the tail percentile

PER_LAYER = (
    "hss.self_s", "hss.step1.self_s", "hss.merge_all.self_s",
    "hss.find_separating_pair.self_s", "hss.backtrack.self_s",
    "hss.step3_update.self_s", "hss.find_hss.calls", "hss.rounds",
    "hss.merge_events", "hss.cancel_events",
    "linalg.self_s", "linalg.smith_normal_form.calls",
    "linalg.smith_normal_form.self_s", "linalg.solve_int.calls",
    "linalg.solve_rational.calls", "linalg.solve_rational.self_s",
    "linalg.det_int.self_s",
    "homology.self_s", "homology.h1_model.calls", "homology.h1_model.self_s",
    "homology.induced_matrix.self_s", "homology.charpoly_divides.self_s",
    "homology.twist_membership_certificate.calls",
    "freegroup.self_s", "freegroup.lift_matrix.self_s",
    "freegroup.apply_endo.self_s", "freegroup.apply_endo.calls",
    "freegroup.max_word_len",
    "subgroup.self_s", "subgroup.aut_stabilizes.self_s",
    "subgroup.aut_stabilizes.calls", "subgroup.schreier_system.self_s",
    "origami.self_s", "origami.act_word.calls",
    "cli.self_s", "cli.run.calls",
    "import.origami_forge_s", "import.sympy_s",
    "bench.host_ref_s", "bench.raw_wall_s", "bench.traced_call_s",
    "bench.trace_overhead_ratio",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"freegroup.max_word_len": "letters",
            "bench.trace_overhead_ratio": "ratio"}.get(name, "count")


def reference_loop() -> float:
    """Seconds for a fixed loop over small tuples, lists and dicts that
    touches no program object; the collector is paused meanwhile."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(REF_ITERATIONS):
            key = i & 255
            row = [(i, key), i ^ 0x5A, key]
            table[key] = row
            acc += len(table.get((i * 7) & 255, ()))
            acc ^= row[1]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("ORIGAMI_FORGE_FIXTURES", None)
    return env


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)$")


class Bench:
    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.workload = {
            "sweep-small": SweepSmall,
            "hss-large": HssLarge,
            "veech-entries": lambda: VeechEntries(
                os.path.join(SRC, "origami_forge", "fixtures")),
        }[args.workload]()
        self.ref = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.cli = None

    # -- timing ------------------------------------------------------------

    def timed(self, jobs) -> tuple[list, list]:
        """Run each job between two reference loops.  Returns the jobs'
        results and, for each, the host factor R0 / R, with R the mean of
        the loops just before and just after it: host speed drifts within
        a run, and the adjacent loops track it better than a run-wide
        median."""
        refs = [reference_loop()]
        results = []
        for job in jobs:
            results.append(job())
            refs.append(reference_loop())
        self.ref.extend(refs)
        factors = [2 * R0 / (refs[i] + refs[i + 1]) for i in range(len(results))]
        return results, factors

    # -- set-up ------------------------------------------------------------

    def start_interpreter(self, *extra: str) -> tuple[float, str]:
        """Seconds for a fresh interpreter to ``import origami_forge.cli``,
        and its stderr."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *extra, "-c", "import origami_forge.cli"],
            cwd=ROOT, env=subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        return time.perf_counter() - t0, proc.stderr

    def setup_times(self) -> tuple[list, list]:
        """Raw and normalised start-up seconds; one untimed start first
        writes the bytecode caches."""
        self.start_interpreter()
        starts, factors = self.timed(
            self.start_interpreter for _ in range(SETUP_STARTS))
        raw = [t for t, _ in starts]
        return raw, [t * f for t, f in zip(raw, factors)]

    def import_times(self) -> tuple[float, float]:
        """Median normalised seconds of ``-X importtime``: origami_forge's
        own modules (self time) and sympy (cumulative)."""
        starts, factors = self.timed(
            lambda: self.start_interpreter("-X", "importtime")
            for _ in range(IMPORTTIME_STARTS))
        own, sympy = [], []
        for (_, stderr), f in zip(starts, factors):
            o = s = 0
            for line in stderr.splitlines():
                m = _IMPORTTIME.match(line)
                if m is None:
                    continue
                self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(3)
                if name == "origami_forge" or name.startswith("origami_forge."):
                    o += self_us
                elif name == "sympy":
                    s = cum_us
            own.append(o * 1e-6 * f)
            sympy.append(s * 1e-6 * f)
        return statistics.median(own), statistics.median(sympy)

    def import_cli(self) -> None:
        sys.path.insert(0, SRC)
        os.environ.pop("ORIGAMI_FORGE_FIXTURES", None)
        self.cli = importlib.import_module("origami_forge.cli")
        if not os.path.abspath(self.cli.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"imported {self.cli.__file__}, not the checkout's")

    # -- calls -------------------------------------------------------------

    def make_round(self, r: int) -> list:
        return self.workload.round(
            random.Random(f"{self.workload.name}/{self.args.seed}/{r}"))

    def call(self, c, where: str) -> float:
        """One timed CLI call, then its check; ``where`` names the call in
        failure reports."""
        path = None
        if ORI in c.argv:
            path = os.path.join(self.workdir, where + ".ori")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(c.ori)
        argv = c.resolve(path)
        gc.collect()
        cache = sys.modules.get("sympy.core.cache")
        if cache is not None:
            cache.clear_cache()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed call, not the end of the run
                code = exc
            dt = time.perf_counter() - t0
        if isinstance(code, Exception):
            reason = "".join(traceback.format_exception(code)).strip()
        elif code != 0:
            reason = f"exit code {code}"
        else:
            try:
                reason = self.workload.check(c, json.loads(out.getvalue()))
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable answer: {exc!r}"
        self.attempted += 1
        self.digest.update(json.dumps([c.argv, c.ori]).encode())
        if reason is not None:
            self.failed += 1
            print(json.dumps({"failure": {
                "workload": self.workload.name, "seed": self.args.seed,
                "call": where, "argv": c.argv, "ori": c.ori,
                "reason": reason, "stderr": err.getvalue()[-2000:],
            }}), file=sys.stderr)
        return dt

    def run_calls(self, calls: list, tag: str) -> tuple[list, list]:
        """Raw and normalised seconds of each call."""
        raw, factors = self.timed(
            (lambda c=c, i=i: self.call(c, f"{tag}-{i}")) for i, c in enumerate(calls))
        return raw, [t * f for t, f in zip(raw, factors)]

    def warm_up(self, c) -> None:
        """One untimed call, so that lazy imports inside the program are
        done before timing; it is not counted."""
        attempted, failed = self.attempted, self.failed
        self.call(c, "warmup")
        self.attempted, self.failed = attempted, failed

    # -- runs --------------------------------------------------------------

    def report_header(self, extra: str) -> None:
        print(f"workload {self.workload.name}, seed {self.args.seed}: "
              f"{self.attempted} calls attempted, {self.failed} failed; {extra}")
        print(f"inputs sha256 {self.digest.hexdigest()[:16]}")
        print(f"bench.host_ref_s {statistics.median(self.ref):.5f} s (median of "
              f"{len(self.ref)} reference loops); times are host-normalised, "
              f"raw x R0/R with R0 = {R0} s")

    def run_plain(self) -> dict:
        """The fixed call list (the first ``rounds`` rounds), then more
        rounds while the next one is expected to end within ``--seconds``.
        wall_s is the list's total, taken as ``rounds`` times the mean
        round total over every round run."""
        setup_raw, setup = self.setup_times()
        self.import_cli()
        first = self.make_round(0)
        self.warm_up(first[0])
        n_list = self.workload.rounds * len(first)
        tail_p = math.floor(100 * (n_list - TAIL_BEYOND) / n_list)
        raw, norm, round_raw, round_norm = [], [], [], []
        start = time.perf_counter()
        r = 0
        while True:
            t_round = time.perf_counter()
            rr, rn = self.run_calls(first if r == 0 else self.make_round(r), f"r{r}")
            raw += rr
            norm += rn
            round_raw.append(sum(rr))
            round_norm.append(sum(rn))
            r += 1
            now = time.perf_counter()
            if r >= self.workload.rounds and now - start + (now - t_round) > self.args.seconds:
                break

        def list_total(sums):
            return self.workload.rounds * statistics.mean(sums)

        rows = [
            ("wall_s", round_norm, round_raw, list_total,
             f"list of {n_list} calls, from {r} rounds"),
            ("call_p50_s", norm, raw, statistics.median, f"over {len(raw)} calls"),
            ("call_tail_s", norm, raw, lambda v: percentile(v, tail_p),
             f"p{tail_p} over {len(raw)} calls"),
            ("setup_s", setup, setup_raw, statistics.median,
             f"median of {len(setup)} starts"),
        ]
        metrics = {}
        self.report_header(f"{r} rounds of {len(first)} calls")
        for name, values, raw_values, stat, note in rows:
            metrics[name] = {"value": stat(values), "unit": "s"}
            print(f"  {name:12s} {stat(values):10.4f} s  "
                  f"(raw {stat(raw_values):.4f} s; {note})")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        print(f"  {'peak_rss_mb':12s} {rss:10.1f} MB")
        return metrics

    def run_trace(self) -> dict:
        own_import, sympy_import = self.import_times()
        self.import_cli()
        calls = [c for r in range(self.workload.trace_rounds)
                 for c in self.make_round(r)]
        self.warm_up(calls[0])
        # The same inputs twice, plain then traced, so that their ratio is
        # the tracing overhead; nothing in the program persists across calls.
        plain_raw, plain = self.run_calls(calls, "plain")
        tracer = Tracer(sys.modules["origami_forge"])
        tracer.install()
        try:
            traced_raw, traced = self.run_calls(calls, "traced")
        finally:
            tracer.uninstall()
        calls_by_fn, self_by_fn, counts = tracer.totals()
        f = sum(traced) / sum(traced_raw)  # the traced calls' mean host factor
        values = dict(counts)
        for fn, n in calls_by_fn.items():
            values[fn + ".calls"] = n
        for fn, s in self_by_fn.items():
            values[fn + ".self_s"] = s * f
        for mod in MODULES:
            values[mod + ".self_s"] = f * sum(
                s for fn, s in self_by_fn.items() if fn.split(".")[0] == mod)
        values.update({
            "import.origami_forge_s": own_import,
            "import.sympy_s": sympy_import,
            "bench.host_ref_s": statistics.median(self.ref),
            "bench.raw_wall_s": sum(plain_raw),
            "bench.traced_call_s": sum(traced),
            "bench.trace_overhead_ratio": sum(traced) / sum(plain),
        })
        self.report_header(f"{len(calls)} calls run plain, then traced")
        metrics = {}
        for name in PER_LAYER:
            value = values.get(name, 0)
            metrics[name] = {"value": value, "unit": unit_of(name)}
            print(f"  {name:44s} {value:12.5g} {unit_of(name)}")
        return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-small", "hss-large", "veech-entries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "origami_forge", "cli.py")):
        print(f"clibench: no program source at {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    try:
        bench = Bench(args, workdir)
        metrics = bench.run_trace() if args.trace else bench.run_plain()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

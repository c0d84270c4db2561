"""The three workloads: how each builds its CLI calls from the seed, and how
each call's answer is checked against a reference the program did not
produce.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned.  Calls come in rounds; each round covers the
workload's size schedule once, in a seed-shuffled order, so every round
holds the same mix of input sizes for every seed while the inputs
themselves differ.  The workload's fixed call list is its first ``rounds``
rounds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from surfaces import (
    genus,
    lcm_of_cycles,
    ori_text,
    parse_ori,
    random_transitive,
    sweep_degree,
    sweep_origami,
    walk,
)

ORI = "{ori}"  # stands in argv for the call's generated .ori file


@dataclass
class Call:
    argv: list
    ori: str  # the origami in .ori text, for the check and failure reports
    expect: dict

    def resolve(self, ori_path: str) -> list:
        return [ori_path if a == ORI else a for a in self.argv]


class SweepSmall:
    """``sweep --count 1 --max-d 16``: one origami through every property
    suite per call, mostly homology and exact linear algebra.

    Call time grows steeply with d and with the genus, so each round takes
    one sweep seed for every d in 2..16, found by drawing seeds until
    ``sweep`` would pick that d with the most common number v of vertices
    for random origamis of that degree (v = 2 for even d, 3 for odd d >= 5,
    1 for d = 3), which fixes the genus (d - v)/2 + 1.  Every round then
    holds the same mix of degrees and genera.  ``--jobs`` is left at its
    default.
    """

    name = "sweep-small"
    max_d = 16
    rounds = 4
    trace_rounds = 1

    @staticmethod
    def vertices(d: int) -> int:
        if d % 2 == 0:
            return 2
        return 1 if d == 3 else 3

    def round(self, rng: random.Random) -> list:
        degrees = list(range(2, self.max_d + 1))
        rng.shuffle(degrees)
        calls = []
        for d in degrees:
            while True:
                seed = rng.randrange(1 << 31)
                if sweep_degree(seed, self.max_d) != d:
                    continue
                p1, p2 = sweep_origami(seed, self.max_d)
                g = genus(p1, p2)
                if d - 2 * (g - 1) == self.vertices(d):
                    break
            argv = ["sweep", "--count", "1", "--max-d", str(self.max_d),
                    "--seed", str(seed)]
            expect = {"d": d, "genus": g, "multiplier": lcm_of_cycles(p1)}
            calls.append(Call(argv, ori_text(p1, p2), expect))
        return calls

    def check(self, call: Call, out: dict) -> Optional[str]:
        exp = call.expect
        results = out.get("results")
        if not isinstance(results, list) or len(results) != 1:
            return "expected exactly one sweep result"
        r = results[0]
        if out.get("ok") is not True or r.get("ok") is not True:
            return "sweep result not ok"
        for key in ("d", "genus", "multiplier"):
            if r.get(key) != exp[key]:
                return f"{key} is {r.get(key)!r}, expected {exp[key]!r}"
        if len(r.get("curves", ())) != exp["genus"]:
            return f"{len(r.get('curves', ()))} curves for genus {exp['genus']}"
        return None


class HssLarge:
    """``hss <file.ori>`` on random transitive origamis of 40 squares:
    essentially all time is in the cut-system stages, with no homology or
    Veech work.  Call time varies about twofold between origamis of one size
    and grows steeply with the size, so the workload keeps one size and runs
    many calls rather than a few huge ones; that keeps the totals and the
    per-call quantiles steady across seeds.
    """

    name = "hss-large"
    degree = 40
    calls_per_round = 5
    rounds = 20
    trace_rounds = 5

    def round(self, rng: random.Random) -> list:
        calls = []
        for _ in range(self.calls_per_round):
            p1, p2 = random_transitive(rng, self.degree)
            calls.append(Call(["hss", ORI], ori_text(p1, p2),
                              {"genus": genus(p1, p2)}))
        return calls

    def check(self, call: Call, out: dict) -> Optional[str]:
        p1, p2 = parse_ori(call.ori)
        curves = out.get("curves")
        g = call.expect["genus"]
        if not isinstance(curves, list) or len(curves) != g:
            return f"expected {g} curves"
        for c in curves:
            end, y_sum = walk(p1, p2, c["start"], c["word"])
            if end != c["start"]:
                return f"curve {c} is not closed"
            if y_sum != 0:
                return f"curve {c} has y-exponent sum {y_sum}"
        return None


class VeechEntries:
    """``veech-check <origami> --matrix a,b,c,d`` with A = T^q V^s, where
    T = (1 1; 0 1) and V = (1 0; 1 1), so A = (1 + qs, q; s, 1), with q from
    500 to 1000 and s = 2 on the Wollmilchsau and on ``l22``, so that their
    largest entry runs from 10^3 to 2*10^3.  Lifting A to Aut(F_2) builds
    words of about q letters, and the free-group work grows with q squared;
    each round runs every origami once and spreads q over them by strata of
    its range, so every round costs about the same.

    The references: every SL_2(Z) matrix lies in the Veech group of the
    Eierlegende Wollmilchsau; for the 3-square L (``l22``) exactly the
    matrices congruent mod 2 to I or (0 1; 1 0) do (the theta group), which
    here means q even; on any other origami, with m and c the lcm of the
    horizontal and vertical cylinder lengths, T^(m i) V^c is a product of
    multitwists and so a member.
    """

    name = "veech-entries"
    fixtures = ("wollmilchsau", "l22", "o14", "l23", "l32", "x3", "x4")
    q_range = (500, 1000)
    rounds = 10
    trace_rounds = 2

    def __init__(self, fixture_dir: str):
        self.fixture_perms = {}
        for name in self.fixtures:
            with open(os.path.join(fixture_dir, name + ".ori"), encoding="utf-8") as fh:
                self.fixture_perms[name] = parse_ori(fh.read())

    def round(self, rng: random.Random) -> list:
        origamis = [(name, self.fixture_perms[name]) for name in self.fixtures]
        origamis.append((ORI, random_transitive(rng, rng.randint(5, 9))))
        lo, hi = self.q_range
        n = len(origamis)
        targets = [lo + int((k + rng.random()) * (hi - lo) / n) for k in range(n)]
        rng.shuffle(targets)
        calls = []
        for (ref, (p1, p2)), target in zip(origamis, targets):
            if ref in ("wollmilchsau", "l22"):
                q, s = target, 2
            else:
                m, s = lcm_of_cycles(p1), lcm_of_cycles(p2)
                q = m * max(1, round(target / m))
            A = (1 + q * s, q, s, 1)
            if ref == "l22":
                member = tuple(x % 2 for x in A) in ((1, 0, 0, 1), (0, 1, 1, 0))
            else:
                member = True
            argv = ["veech-check", ref, "--matrix", ",".join(map(str, A))]
            calls.append(Call(argv, ori_text(p1, p2),
                              {"matrix": list(A), "member": member, "d": len(p1)}))
        return calls

    def check(self, call: Call, out: dict) -> Optional[str]:
        exp = call.expect
        if out.get("matrix") != exp["matrix"]:
            return f"matrix echoed as {out.get('matrix')!r}"
        if out.get("member") is not exp["member"]:
            return f"member is {out.get('member')!r}, expected {exp['member']!r}"
        w = out.get("witness_square")
        if exp["member"] and not (isinstance(w, int) and 1 <= w <= exp["d"]):
            return f"bad witness square {w!r}"
        return None

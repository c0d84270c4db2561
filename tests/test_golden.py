"""Golden outputs: byte equality of CLI stdout against recorded files.

The files under ``tests/golden/`` hold the stdout of ``homology --twist``
on the seven fixtures and on ``random_origami(random.Random(d), d)`` for
d = 2..24, 32, 48, 64 and 96, and of ``sweep --count 30 --max-d 16 --seed 0``.
They are the differential test for any change of the homology and
linear-algebra algorithms: the H1 basis is the tree-cotree basis of
``h1_model`` (BFS trees from vertex 0 and square 1), so a replacement
must reproduce every byte, and a change of basis is a ``schema`` change.  The ``hss_*`` files hold the stdout of ``hss`` and the stderr of
``hss --trace`` (the merge history, one event per line) on the seven
fixtures and on ``random_origami(random.Random(d), d)`` for d = 24 and 40;
they pin the cut-system curves and the event stream of every merge round.
Regenerate them only for a deliberate, ``schema``-versioned output
change, with ``python tests/test_golden.py``.
"""

import contextlib
import io
import os
import random
import sys
import tempfile

import pytest

from origami_forge import cli
from origami_forge.origami import format_origami, random_origami

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

FIXTURE_NAMES = ("wollmilchsau", "o14", "l22", "l23", "l32", "x3", "x4")
RANDOM_DEGREES = (*range(2, 25), 32, 48, 64, 96)
SWEEP_ARGV = ("sweep", "--count", "30", "--max-d", "16", "--seed", "0")
HSS_DEGREES = (24, 40)


def random_ori(d: int) -> str:
    return format_origami(random_origami(random.Random(d), d))


def cases():
    """(golden file name, argv, .ori text or None) for the stdout files; an
    argv entry of None stands for the path of the written .ori file."""
    out = [(f"homology_{n}.json", ("homology", n, "--twist"), None)
           for n in FIXTURE_NAMES]
    for d in RANDOM_DEGREES:
        out.append((f"homology_random_d{d}.json", ("homology", None, "--twist"),
                    random_ori(d)))
    out.append(("sweep_c30_d16_s0.json", SWEEP_ARGV, None))
    out += [(f"hss_{tag}.json", ("hss", arg), ori)
            for tag, arg, ori in hss_inputs()]
    return out


def trace_cases():
    """(golden file name, argv, .ori text or None) for the stderr files."""
    return [(f"hss_trace_{tag}.jsonl", ("hss", arg, "--trace"), ori)
            for tag, arg, ori in hss_inputs()]


def hss_inputs():
    return ([(n, n, None) for n in FIXTURE_NAMES]
            + [(f"random_d{d}", None, random_ori(d)) for d in HSS_DEGREES])


def render(argv, ori) -> tuple[str, str]:
    """Stdout and stderr of one in-process CLI call; raises if the call
    fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "o.ori")
        if ori is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ori)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([path if a is None else a for a in argv])
    assert code == 0, (argv, err.getvalue())
    return out.getvalue(), err.getvalue()


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv,ori", cases(), ids=[c[0] for c in cases()])
def test_stdout_matches_golden(name, argv, ori):
    assert render(argv, ori)[0] == golden(name)


@pytest.mark.parametrize("name,argv,ori", trace_cases(),
                         ids=[c[0] for c in trace_cases()])
def test_trace_matches_golden(name, argv, ori):
    assert render(argv, ori)[1] == golden(name)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for stream, table in ((0, cases()), (1, trace_cases())):
        for name, argv, ori in table:
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
                fh.write(render(argv, ori)[stream])
            print(name, file=sys.stderr)

"""Golden outputs: byte equality of CLI stdout against recorded files.

The files under ``tests/golden/`` hold the stdout of ``homology --twist``
on the seven fixtures and on ``random_origami(random.Random(d), d)`` for
d = 2..24, and of ``sweep --count 30 --max-d 16 --seed 0``.  They are the
differential test for any change of the homology and linear-algebra
algorithms: the H1 basis is fixed, so a replacement must reproduce every
byte.  Regenerate them only for a deliberate, ``schema``-versioned output
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
RANDOM_DEGREES = range(2, 25)
SWEEP_ARGV = ("sweep", "--count", "30", "--max-d", "16", "--seed", "0")


def cases():
    """(golden file name, argv, .ori text or None); an argv entry of None
    stands for the path of the written .ori file."""
    out = [(f"homology_{n}.json", ("homology", n, "--twist"), None)
           for n in FIXTURE_NAMES]
    for d in RANDOM_DEGREES:
        ori = format_origami(random_origami(random.Random(d), d))
        out.append((f"homology_random_d{d}.json", ("homology", None, "--twist"), ori))
    out.append(("sweep_c30_d16_s0.json", SWEEP_ARGV, None))
    return out


def render(argv, ori) -> str:
    """Stdout of one in-process CLI call; raises if the call fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "o.ori")
        if ori is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ori)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([path if a is None else a for a in argv])
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name,argv,ori", cases(), ids=[c[0] for c in cases()])
def test_stdout_matches_golden(name, argv, ori):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert render(argv, ori) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv, ori in cases():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(render(argv, ori))
        print(name, file=sys.stderr)

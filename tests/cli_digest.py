"""One hash over the output of a fixed set of CLI calls, to compare two
checkouts byte for byte.

    python tests/cli_digest.py [ROOT]

ROOT is a checkout (default: the one holding this file); its ``src/`` is
imported.  Each argv runs in-process through ``origami_forge.cli.run``,
with stdout and stderr captured.  The script prints the number of calls
and one sha256 over each call's exit code, stdout and stderr, in order.
The random origamis are written as ``.ori`` files to a temporary
directory, whose path is masked in the output before it is hashed.

The calls: ``analyze``, ``hss --trace``, ``verify-hss``, ``homology
--twist`` and ``veech-check --matrix 1,2,0,1`` on the seven registry
names; ``hss --trace``, ``verify-hss`` and ``homology --twist`` on
``random_origami(Random(4040 + i), d)``, d = 40 for i < 40 and d = 12
for 40 <= i < 60; ``homology --twist`` and ``hss --trace`` on
``random_origami(Random(d), d)`` for d = 64 and 96; ``sweep --count
200 --max-d 16 --seed 3``; ``shear --p 1 --q 2`` on the seven names, and
``shear`` on ``l22`` with (p, q) = (1, -3) and on ``o14`` with (-2, 3);
and ``moebius`` on the six ordinary maps of ``MAPS``; then seven
refusals that exit 1 with a JSON error on stderr: ``veech-check l22
--matrix 1,2,3`` and ``--matrix 2,0,0,2``, ``analyze no-such-origami``,
``sweep --max-d 1``, ``shear l22 --p 2 --q 4``, ``moebius`` on the zero
matrix, and ``hss`` on a ``.ori`` file with stray text; then
``homology`` without ``--twist`` on the seven names, and three
``veech-check`` calls with entries near 10^3: ``wollmilchsau`` and
``l22`` with ``--matrix 1001,500,2,1``, which are members, and ``l22``
with ``--matrix 1003,501,2,1``, which is not; and last ``hss --trace`` on
``random_origami(Random(128), 128)``, 59 rounds of up to 2,046 pool
lists, the size where stage 3's pool order is longest.  Usage errors,
which exit 2, are left out, as argparse wraps their text to the terminal
width.  That is 253 calls: the first 220 were the whole set until shear
and moebius joined, the first 235 until the refusals did, the first 242
until the next ten did, and the first 252 until the d = 128 trace did.
The file is not named ``test_*``, so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

NAMES = ("wollmilchsau", "o14", "l22", "l23", "l32", "x3", "x4")
# loxodromic, elliptic, parabolic, identity and a non-real trace; entries
# of ordinary size
MAPS = (("2,0", "0,0", "0,0", "0.5,0"), ("3,1", "1,0", "2,0", "4,-1"),
        ("0,0", "1,0", "-1,0", "0,0"), ("1,0", "1,0", "0,0", "1,0"),
        ("-1,0", "0,0", "0,0", "-1,0"), ("0,1.5", "1,0", "-3.25,0", "0,1.5"))


def argvs(tmp, random_origami, format_origami):
    """The fixed argv list; writes the random origamis' files under tmp."""

    def ori(name, seed, d):
        path = os.path.join(tmp, name + ".ori")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_origami(random_origami(random.Random(seed), d)))
        return path

    calls = []
    for name in NAMES:
        calls += [["analyze", name], ["hss", name, "--trace"],
                  ["verify-hss", name], ["homology", name, "--twist"],
                  ["veech-check", name, "--matrix", "1,2,0,1"]]
    for i in range(60):
        path = ori(f"r{i}", 4040 + i, 40 if i < 40 else 12)
        calls += [["hss", path, "--trace"], ["verify-hss", path],
                  ["homology", path, "--twist"]]
    for d in (64, 96):
        path = ori(f"d{d}", d, d)
        calls += [["homology", path, "--twist"], ["hss", path, "--trace"]]
    calls.append(["sweep", "--count", "200", "--max-d", "16", "--seed", "3"])
    calls += [["shear", name, "--p", "1", "--q", "2"] for name in NAMES]
    calls += [["shear", "l22", "--p", "1", "--q", "-3"],
              ["shear", "o14", "--p", "-2", "--q", "3"]]
    calls += [["moebius", "--", *entries] for entries in MAPS]
    stray = os.path.join(tmp, "stray.ori")
    with open(stray, "w", encoding="utf-8") as fh:
        fh.write("squares: 2\np1: (1 2)x\np2: id\n")
    calls += [["veech-check", "l22", "--matrix", "1,2,3"],
              ["veech-check", "l22", "--matrix", "2,0,0,2"],
              ["analyze", "no-such-origami"],
              ["sweep", "--max-d", "1"],
              ["shear", "l22", "--p", "2", "--q", "4"],
              ["moebius", "--", "0,0", "0,0", "0,0", "0,0"],
              ["hss", stray]]
    calls += [["homology", name] for name in NAMES]
    calls += [["veech-check", "wollmilchsau", "--matrix", "1001,500,2,1"],
              ["veech-check", "l22", "--matrix", "1001,500,2,1"],
              ["veech-check", "l22", "--matrix", "1003,501,2,1"]]
    calls.append(["hss", ori("d128", 128, 128), "--trace"])
    return calls


def main(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from origami_forge import cli
    from origami_forge.origami import format_origami, random_origami

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package in {src}")
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        calls = argvs(tmp, random_origami, format_origami)
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:
                    code = exc.code
            record = [code] + [s.getvalue().replace(tmp, "<tmp>")
                               for s in (out, err)]
            digest.update((json.dumps(record) + "\n").encode("utf-8"))
    print(len(calls), digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

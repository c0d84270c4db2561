"""Origami arithmetic of the benchmark's own.

The benchmark generates its inputs and checks the program's answers with
these functions, so no reference value comes from the program under test.
A permutation of {1..d} is a tuple of images: ``p[s - 1]`` is the image
of square ``s``.
"""

from __future__ import annotations

import math
import random
import re


def is_transitive(p1: tuple, p2: tuple) -> bool:
    d = len(p1)
    seen = {1}
    todo = [1]
    while todo:
        s = todo.pop()
        for t in (p1[s - 1], p2[s - 1]):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen) == d


def random_transitive(rng: random.Random, d: int) -> tuple[tuple, tuple]:
    """Shuffle p1, then p2, until the pair acts transitively.

    This is also the draw ``origami-forge sweep`` documents for item i of
    ``--seed s``: ``Random(f"{s}:{i}")`` gives d = randint(2, max_d), then
    these shuffles.  ``sweep_origami`` relies on that to know which origami
    a sweep call checks.
    """
    while True:
        a = list(range(1, d + 1))
        b = list(range(1, d + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        if is_transitive(a, b):
            return tuple(a), tuple(b)


def sweep_degree(seed: int, max_d: int) -> int:
    return random.Random(f"{seed}:0").randint(2, max_d)


def sweep_origami(seed: int, max_d: int) -> tuple[tuple, tuple]:
    """The origami of item 0 of ``sweep --count 1 --seed <seed>``."""
    rng = random.Random(f"{seed}:0")
    d = rng.randint(2, max_d)
    return random_transitive(rng, d)


def cycles(p: tuple) -> list[list[int]]:
    seen = set()
    out = []
    for s in range(1, len(p) + 1):
        if s in seen:
            continue
        cyc = []
        t = s
        while t not in seen:
            seen.add(t)
            cyc.append(t)
            t = p[t - 1]
        out.append(cyc)
    return out


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for s, t in enumerate(p, start=1):
        inv[t - 1] = s
    return tuple(inv)


def genus(p1: tuple, p2: tuple) -> int:
    """From the Euler characteristic: d squares, 2d edges, one vertex per
    cycle of the commutator p1 p2 p1^-1 p2^-1 (any form has the same cycle
    count)."""
    d = len(p1)
    q1, q2 = inverse(p1), inverse(p2)
    comm = tuple(p1[p2[q1[q2[s - 1] - 1] - 1] - 1] for s in range(1, d + 1))
    vertices = len(cycles(comm))
    return (d - vertices) // 2 + 1


def lcm_of_cycles(p: tuple) -> int:
    return math.lcm(*(len(c) for c in cycles(p)))


def ori_text(p1: tuple, p2: tuple) -> str:
    def fmt(p):
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles(p))

    return f"squares: {len(p1)}\np1: {fmt(p1)}\np2: {fmt(p2)}\n"


def parse_ori(text: str) -> tuple[tuple, tuple]:
    """The two permutations of an ``.ori`` text (cycle notation, fixed
    points optional, ``id`` for the identity)."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    d = int(fields["squares"])

    def perm(body):
        img = list(range(1, d + 1))
        for m in re.finditer(r"\(([^()]*)\)", body):
            cyc = [int(e) for e in m.group(1).replace(",", " ").split()]
            for i, s in enumerate(cyc):
                img[s - 1] = cyc[(i + 1) % len(cyc)]
        return tuple(img)

    return perm(fields["p1"]), perm(fields["p2"])


_TOKEN = re.compile(r"^([xy])(?:\^(-?\d+))?$")


def walk(p1: tuple, p2: tuple, start: int, word: str) -> tuple[int, int]:
    """Walk a word such as ``x^3 y^-1 x`` from ``start``, letters acting
    left to right; returns the end square and the y-exponent sum."""
    q1, q2 = inverse(p1), inverse(p2)
    s = start
    y_sum = 0
    for tok in word.split():
        if tok == "1":
            continue
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad word token {tok!r}")
        e = int(m.group(2) or 1)
        fwd, back = (p1, q1) if m.group(1) == "x" else (p2, q2)
        if m.group(1) == "y":
            y_sum += e
        step = fwd if e > 0 else back
        for _ in range(abs(e)):
            s = step[s - 1]
    return s, y_sum

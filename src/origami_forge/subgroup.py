"""The finite-index subgroup of F_2 attached to an origami.

F_2 = <x, y> acts on the squares through the monodromy (x by p1, y by p2,
words applied left to right); H is the stabilizer of the base square.
This module provides a Schreier generating system with
Reidemeister-Schreier rewriting, and Veech-group membership by the
covering test on the monodromy pair of a lifted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .freegroup import (
    IntMatrix2,
    NotUnimodular,
    Word,
    apply_factors,
    gen,
    mat_det,
)
from .origami import Origami, Permutation, act_word

__all__ = [
    "NotInSubgroup",
    "SchreierSystemError",
    "CosetAction",
    "SchreierSystem",
    "schreier_system",
    "rewrite",
    "veech_witness",
    "veech_contains",
]


class NotInSubgroup(ValueError):
    pass


class SchreierSystemError(ValueError):
    """A check that decides the Schreier system failed."""


@dataclass(frozen=True)
class CosetAction:
    """The monodromy action of F_2 on squares, with a base square whose
    stabilizer is the subgroup H (index d)."""

    origami: Origami
    base: int = 1

    def __post_init__(self):
        if not 1 <= self.base <= self.origami.d:
            raise ValueError("base square out of range")


@dataclass(frozen=True)
class SchreierSystem:
    """A Schreier transversal and free generating set for H.

    reps[s] is the coset representative word carrying the base to square s;
    generators are the d+1 free generators of H in discovery order;
    edge_gen maps each forward edge (square, generator letter) to its
    generator index, or None for spanning-tree edges.
    """

    action: CosetAction
    reps: dict[int, Word]
    generators: tuple[Word, ...]
    edge_gen: dict[tuple[int, int], Optional[int]]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def gen_index(self, w: Word) -> int:
        """Index (1-based) of a word among the generators."""
        for i, h in enumerate(self.generators, start=1):
            if h == w:
                return i
        raise NotInSubgroup(f"{w} is not a Schreier generator")


def schreier_system(cs: CosetAction) -> SchreierSystem:
    """Breadth-first transversal from the base, x-edges before y-edges,
    squares processed in discovery order (FIFO)."""
    o = cs.origami
    reps: dict[int, Word] = {cs.base: Word(2)}
    tree_edges: set[tuple[int, int]] = set()
    queue = [cs.base]
    head = 0
    order = [cs.base]
    while head < len(queue):
        s = queue[head]
        head += 1
        for g, p in ((1, o.p1), (2, o.p2)):
            t = p(s)
            if t not in reps:
                reps[t] = reps[s] * gen(2, g)
                tree_edges.add((s, g))
                queue.append(t)
                order.append(t)
    if len(reps) != o.d:
        raise SchreierSystemError("action not transitive")
    generators: list[Word] = []
    edge_gen: dict[tuple[int, int], Optional[int]] = {}
    for s in order:
        for g, p in ((1, o.p1), (2, o.p2)):
            t = p(s)
            if (s, g) in tree_edges:
                edge_gen[(s, g)] = None
            else:
                h = reps[s] * gen(2, g) * reps[t].inv()
                if act_word(o, cs.base, h) != cs.base:
                    raise SchreierSystemError("Schreier generator escaped H")
                generators.append(h)
                edge_gen[(s, g)] = len(generators)
    if len(generators) != o.d + 1:
        raise SchreierSystemError("Nielsen-Schreier count violated")
    return SchreierSystem(cs, reps, tuple(generators), edge_gen)


def rewrite(ss: SchreierSystem, w: Word) -> Word:
    """Express w in H as a word over the Schreier generators h_1..h_{d+1}
    (returned as a Word of rank d+1)."""
    cs = ss.action
    o = cs.origami
    if act_word(o, cs.base, w) != cs.base:
        raise NotInSubgroup(f"{w} does not fix the base square")
    out = []
    s = cs.base
    for g, e in w.letters:
        if e == 1:
            idx = ss.edge_gen[(s, g)]
            if idx is not None:
                out.append((idx, 1))
            s = o.p1(s) if g == 1 else o.p2(s)
        else:
            s = o.p1.inverse_of(s) if g == 1 else o.p2.inverse_of(s)
            idx = ss.edge_gen[(s, g)]
            if idx is not None:
                out.append((idx, -1))
    assert s == cs.base
    return Word(ss.rank, out)


def _cover(cs: CosetAction, P: Permutation, Q: Permutation) -> Optional[int]:
    """The first square s that H = Stab(base) fixes under (P, Q), or None:
    the first s such that base -> s extends to a map f of F_2-sets,
    f(p1(t)) = P(f(t)) and f(p2(t)) = Q(f(t)).  One breadth-first spanning
    tree is built from the base; for each s, f is filled along its d - 1
    edges and then checked on all 2d edges: O(d) per s, O(d^2) in all."""
    o = cs.origami
    # Image tables with a leading 0, so that square t sits at index t and
    # the unused entry 0 of f maps to 0 under every table.
    p1, p2 = (0, *o.p1.images()), (0, *o.p2.images())
    P, Q = (0, *P.images()), (0, *Q.images())
    tree = []  # (t, u, R): u is first reached from t, so f(u) = R[f(t)]
    seen = [False] * (o.d + 1)
    seen[cs.base] = True
    order = [cs.base]
    for t in order:
        for p, R in ((p1, P), (p2, Q)):
            u = p[t]
            if not seen[u]:
                seen[u] = True
                order.append(u)
                tree.append((t, u, R))
    f = [0] * (o.d + 1)
    for s in range(1, o.d + 1):
        f[cs.base] = s
        for t, u, R in tree:
            f[u] = R[f[t]]
        if ([f[u] for u in p1] == [P[v] for v in f]
                and [f[u] for u in p2] == [Q[v] for v in f]):
            return s
    return None


def veech_witness(cs: CosetAction, A: IntMatrix2) -> Optional[int]:
    """A square s with phi(H) = Stab(s) for phi = lift_matrix(A), or None;
    not None iff A is in the Veech group.  The k = O(log|A|) Nielsen
    factors of A act on the monodromy pair directly (`apply_factors`:
    SWAP costs nothing, NEG_X and NEG_Y one inverse, T^q one power and one
    product), and the covering test builds one spanning tree: O(d k + d^2)
    beside Euclid's big-integer arithmetic."""
    if mat_det(A) != 1:
        raise NotUnimodular(f"det {mat_det(A)} != 1")
    return _cover(cs, *apply_factors(A, cs.origami.p1, cs.origami.p2))


def veech_contains(cs: CosetAction, A: IntMatrix2) -> bool:
    """True iff A lies in the origami's Veech group (inside SL_2(Z))."""
    return veech_witness(cs, A) is not None

"""The finite-index subgroup of F_2 attached to an origami.

F_2 = <x, y> acts on the squares through the monodromy (x by p1, y by p2,
words applied left to right); H is the stabilizer of the base square.
This module provides a Schreier generating system with
Reidemeister-Schreier rewriting, and Veech-group membership by the
covering test on the monodromy pair of a lifted matrix.  The transversal
and the covering test both read the breadth-first tree
`origami.square_tree`, and rewriting follows `origami.letter_edges`.  The
covering test reads the permutations' image tables directly: they are
indexed by square, with an entry 0 that maps to 0.
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
from .origami import Origami, Permutation, act_word, letter_edges, square_tree

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
    """The transversal along `square_tree` from the base (breadth-first,
    x-edges before y-edges); generators in the order squares are reached,
    the x-edge of each square before its y-edge."""
    o = cs.origami
    tree = square_tree(o, cs.base)
    reps: dict[int, Word] = {cs.base: Word(2)}
    for t, g, u in tree:
        reps[u] = reps[t] * gen(2, g)
    if len(reps) != o.d:
        raise SchreierSystemError("action not transitive")
    tree_edges = {(t, g) for t, g, _ in tree}
    order = [cs.base, *(u for _, _, u in tree)]
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
    for t, g, e in letter_edges(o, cs.base, w):
        idx = ss.edge_gen[(t, g)]
        if idx is not None:
            out.append((idx, e))
    return Word(ss.rank, out)


def _cover(cs: CosetAction, P: Permutation, Q: Permutation) -> Optional[int]:
    """The first square s that H = Stab(base) fixes under (P, Q), or None:
    the first s such that base -> s extends to a map f of F_2-sets,
    f(p1(t)) = P(f(t)) and f(p2(t)) = Q(f(t)).  For each s, f is filled
    along the d - 1 edges of `square_tree` from the base and then checked
    on all 2d edges: O(d) per s, O(d^2) in all."""
    o = cs.origami
    # The image tables are indexed by square, and their unused entry 0
    # maps the unused entry 0 of f to 0.
    p1, p2, P, Q = o.p1._img, o.p2._img, P._img, Q._img
    # (t, u, R): u is first reached from t, so f(u) = R[f(t)]
    tree = [(t, u, P if g == 1 else Q) for t, g, u in square_tree(o, cs.base)]
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

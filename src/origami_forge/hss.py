"""Horizontal Schottky cut systems.

Produces, for any origami of genus g, a system of g closed horizontal
curves that is independent in homology.  The construction runs in three
stages:

1. a maximal system of cylinder cuts, found on a graph with two nodes
   per cylinder (its lower and upper boundary) joined by the vertical
   gluings; cylinders whose two nodes get bridged are not cut;
2. boundary labels of the cut surface are collected into lists, spliced
   into a single list P, and a separating pair of labels in P yields one
   further curve via backtracking through the splice history;
3. the lists are split along the new curve and stage 2 repeats until
   g curves exist.

``dual_curves`` adds, on demand, one dual curve per cut curve: a vertical
transversal for each step-1 cut, and each later round's separating partner
beta traced back like alpha.  The k-th dual meets the k-th cut curve once
and misses every earlier one, which is what the twist certificate reads.

All policies (bridging order, splice partner and label selection,
cancellation, tie-breaks) are fixed and deterministic.

Stages 2 and 3 look things up by index instead of rescanning.  A side is
an int into flat arrays of its label id, boundary half, cylinder and the
(cylinder, position) of its underlying square (``Pool.lab``,
``Pool.half``, ``Pool.cyl``, ``Pool.place``), and every label is
interned to a small int when its side is created, so all label equality
tests compare ints.  A pool list never changes once made, so its label
ids and its square-label ids are computed once per list; a side's index
in a list is found by ``tuple.index``, since pool lists are short and
each split replaces its list anyway.  ``merge_all`` is one loop over the
round, with one mutable accumulator (its sides and their label ids): a
splice or a cancellation edits it in place and logs an event under a
fresh list id, and only the round's final list P is stored.  The next
splice partner is found through an inverted index from label id to the
remaining pool lists that hold it, a count of the label ids in the
accumulator and a min-heap that holds each candidate pool position at
most once; it is the smallest position that still shares a label, which
is the list a front-to-back rescan would pick.  Cancellation resumes one
position left of the last hit, because everything before it was already
checked clean; as the accumulator is itself clean, a splice checks only
the pairs from the first junction to the start of the accumulator's
tail.  The wrap-around pair is checked last.  The events, their order
and the list numbering are those of a full rescan after every removal.

Each merge hangs the absorbed pool list below the pool list that holds
the accumulator's glued side, so a round's merges form a tree on its
pool lists, which ``merge_all`` records with each side's pool list.
Backtracking walks this tree from the lists of alpha's two occurrences up
to where they meet, in time linear in the chain, and never replays the
event log; ``dual_curves`` backtracks old rounds the same way.  Stage 3
keeps a side -> pool list map, finds sides by their index in that list,
and rebuilds the pool order once per round.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple, Optional, Sequence, Union

from .freegroup import Word
from .origami import Cylinder, Origami, OrigamiCurve, act_word, cylinders, genus

__all__ = [
    "NoCommonLabel",
    "Disconnected",
    "NoPairFound",
    "InconsistentChain",
    "SLabel",
    "Sentinel",
    "HalfCylinderGraph",
    "LabeledList",
    "MergeHistory",
    "ChainPair",
    "PairChain",
    "Pool",
    "step1",
    "step1_graph",
    "step1_cuts",
    "init_lists",
    "merge_all",
    "find_separating_pair",
    "backtrack",
    "emit_curve",
    "step3_update",
    "find_hss",
    "dual_curves",
    "format_label",
]


class NoCommonLabel(ValueError):
    pass


class Disconnected(AssertionError):
    pass


class NoPairFound(ValueError):
    pass


class InconsistentChain(AssertionError):
    pass


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


class SLabel(NamedTuple):
    """A square label, possibly decorated by split marks (1 = ', 2 = ")."""

    square: int
    marks: tuple = ()


class Sentinel(NamedTuple):
    """The a_Z marker of an uncut cylinder, namespaced by the cylinder."""

    cyl: int


Label = Union[SLabel, Sentinel]


def format_label(label: Label) -> str:
    if isinstance(label, Sentinel):
        return f"a{label.cyl}"
    return str(label.square) + "".join("'" if m == 1 else '"' for m in label.marks)


def _label_key(label):
    """Deterministic order on square labels: square first, then marks."""
    if isinstance(label, SLabel):
        return (label.square, label.marks)
    if isinstance(label, int):
        return (label, ())
    raise AssertionError(f"not a square label: {label}")


def _is_square(label) -> bool:
    return not isinstance(label, Sentinel)


# ---------------------------------------------------------------------------
# stage 1: maximal cylinder cut system
# ---------------------------------------------------------------------------


@dataclass
class HalfCylinderGraph:
    """Two nodes per cylinder i, the upper 2i and the lower 2i + 1; the
    p2-gluing edges, plus the bridges chosen in stage 1."""

    cyls: list[Cylinder]
    edges: set[tuple[int, int]]      # (index of upper node's cylinder, lower's)
    bridges: list[int]               # cylinder indices that received a bridge
    roots: list[int]                 # node -> its component's root under
                                     # the edges alone, before any bridge


class _UnionFind:
    def __init__(self, parent: list[int]):
        self.parent = parent

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def step1_graph(o: Origami) -> HalfCylinderGraph:
    """The half of stage 1 that no bridging order changes: the cylinders,
    an edge z_i^o -- z_j^u whenever p2 carries a square of Z_i into Z_j,
    and the components those edges join.  It has no bridges yet."""
    cyls = cylinders(o)
    at = o.cylinder_at
    edges = set()
    for i, z in enumerate(cyls):
        for s in z.squares:
            edges.add((i, at[o.p2(s)][0]))
    uf = _UnionFind(list(range(2 * len(cyls))))
    for i, j in edges:
        uf.union(2 * i, 2 * j + 1)
    return HalfCylinderGraph(cyls, edges, [],
                             [uf.find(v) for v in range(2 * len(cyls))])


def step1_cuts(
    graph: HalfCylinderGraph, order: Optional[Sequence[int]] = None
) -> tuple[list[Cylinder], HalfCylinderGraph]:
    """The bridging pass of stage 1 on a graph from `step1_graph`, whose
    own bridges it ignores: scanning the cylinders in the given order (by
    default in descending index), it bridges z_i^o -- z_i^u whenever the
    two nodes are still in different components.  The cut cylinders are
    exactly the bridge-less ones; returns them and the bridged graph."""
    ncyl = len(graph.cyls)
    if order is None:
        order = range(ncyl - 1, -1, -1)
    elif sorted(order) != list(range(ncyl)):
        raise ValueError("order must permute cylinders")
    uf = _UnionFind(list(graph.roots))
    bridges = []
    for i in order:
        if uf.union(2 * i, 2 * i + 1):
            bridges.append(i)
    if len({uf.find(v) for v in range(2 * ncyl)}) != 1:
        raise Disconnected("surface not connected after bridging")
    bridged = set(bridges)
    cuts = [z for i, z in enumerate(graph.cyls) if i not in bridged]
    return cuts, HalfCylinderGraph(graph.cyls, graph.edges, bridges,
                                   graph.roots)


def step1(
    o: Origami, order: Optional[Sequence[int]] = None
) -> tuple[list[Cylinder], HalfCylinderGraph]:
    """Maximal cylinder cut system: `step1_cuts` on `step1_graph(o)`.

    Nodes z_i^o (upper boundary) and z_i^u (lower boundary) per cylinder;
    an edge z_i^o -- z_j^u whenever p2 carries a square of Z_i into Z_j.
    Bridges z_i^o -- z_i^u are added while scanning cylinders (by default
    in descending index) whenever the two nodes are still in different
    components.  Cut cylinders are exactly the bridge-less ones.  Only
    the bridges depend on the order, so a caller that tries several
    orders builds the graph once and runs `step1_cuts` for each.
    """
    return step1_cuts(step1_graph(o), order)


# ---------------------------------------------------------------------------
# labeled lists over side objects
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LabeledList:
    """A list of sides with a cyclic flag; a stored list never changes.

    kind: 'u' / 'o' for boundary lists, 'lz' for an uncut cylinder's
    combined list [a_Z, lower..., a_Z, upper...], 'm' for a round's final
    list P.
    """

    lid: int
    sides: tuple[int, ...]
    cyclic: bool
    kind: str
    cyl: int

    def __len__(self) -> int:
        return len(self.sides)


@dataclass
class MergeHistory:
    """Splice / cancellation log of one merge_all run.

    Events:
      ('merge', result, left, right, glued_left_side, glued_right_side)
      ('cancel', result, parent, removed_side_a, removed_side_b)

    The right operand of a merge is always one of the initial lists; the
    results of the events are not stored, except the final one.

    The merges form a tree on the initial lists, rooted at the first: each
    absorbed list hangs below the initial list that held the accumulator's
    glued side.  ``tree`` maps an absorbed list to (that parent, the glued
    side of the accumulator, the glued side of the list, the merge's
    result), the last ordering the absorptions; ``home`` maps each side to
    its initial list.
    """

    initial: list[int]
    events: list[tuple] = field(default_factory=list)
    final: Optional[int] = None
    tree: dict[int, tuple[int, int, int, int]] = field(default_factory=dict)
    home: dict[int, int] = field(default_factory=dict)


class ChainPair(NamedTuple):
    side_a: int
    side_b: int
    lid: int
    half: str
    cyl: int


PairChain = list  # of ChainPair


class Pool:
    """Mutable state of one cut-system computation: the side registry,
    the stored lists and the current pool sections.

    Sides are ids into flat arrays: ``lab[sid]`` is the label id of side
    sid, ``half[sid]`` its boundary ('u' lower, 'o' upper, None for a
    sentinel), ``cyl[sid]`` the base square of its cylinder and
    ``place[sid]`` the (cylinder index, position) of the square of that
    cylinder that carries the side: the label's square on the lower
    boundary, its p2-preimage on the upper (None for a sentinel).  Labels
    are interned: ``label_ids`` and ``label_at`` map a label to its id and
    back, ``square`` / ``unprimed`` say per id whether it is a square label
    and whether it carries no marks, and ``order`` holds the sort key of
    each square label.  ``home`` maps every side of a current pool list to
    that list's lid.  Per stored list, ``labs`` holds its label ids and
    ``own`` its square-label ids, the same list for a 'u' / 'o' list,
    which holds no sentinel.  ``exponents`` keeps each chain pair's
    x-exponent.
    """

    def __init__(self, o: Origami):
        self.o = o
        self.lists: dict[int, LabeledList] = {}
        self.labs: dict[int, list[int]] = {}
        self.own: dict[int, list[int]] = {}
        self.exponents: dict[tuple[int, int, int], int] = {}
        self.lab: list[int] = []
        self.half: list[Optional[str]] = []
        self.cyl: list[int] = []
        self.place: list[Optional[tuple[int, int]]] = []
        self.label_ids: dict[Label, int] = {}
        self.square: list[bool] = []
        self.unprimed: list[bool] = []
        self.order: list[Optional[tuple]] = []
        self.label_at: list[Label] = []
        self.home: dict[int, int] = {}
        self._next_list = 0
        # sections hold (cylinder base, lid), kept sorted by cylinder
        self.u_section: list[tuple[int, int]] = []
        self.o_section: list[tuple[int, int]] = []
        self.lz_section: list[tuple[int, int]] = []
        self.second_sentinel: dict[int, int] = {}  # uncut cylinder -> side

    # -- registry helpers --------------------------------------------------

    def intern(self, label: Label) -> int:
        """The id of label, minted on first sight with one dict probe."""
        new = len(self.label_at)
        lab = self.label_ids.setdefault(label, new)
        if lab == new:
            self.label_at.append(label)
            sq = isinstance(label, SLabel)
            self.square.append(sq)
            self.unprimed.append(sq and not label.marks)
            # an SLabel is the tuple (square, marks), its own sort key
            self.order.append(label if sq else None)
        return lab

    def new_side(self, label: Label, half: Optional[str], cyl: int) -> int:
        self.lab.append(self.intern(label))
        self.half.append(half)
        self.cyl.append(cyl)
        if isinstance(label, SLabel):
            sq = label.square
            if half != "u":
                sq = self.o.p2.inverse_of(sq)
            self.place.append(self.o.cylinder_at[sq])
        else:
            self.place.append(None)
        return len(self.lab) - 1

    def primed(self, lab: int, mark: int) -> int:
        """The id of label lab with one more mark."""
        square, marks = self.label_at[lab]
        return self.intern(SLabel._make((square, marks + (mark,))))

    def split_sides(self, a: int, b: int, mark_0: int, mark_1: int) -> range:
        """Four new sides like a, b, a, b, whose labels carry one more
        mark: mark_0, mark_1, mark_1 and mark_0."""
        lab, half, cyl, place = self.lab, self.half, self.cyl, self.place
        la, lb = lab[a], lab[b]
        n = len(lab)
        lab += (self.primed(la, mark_0), self.primed(lb, mark_1),
                self.primed(la, mark_1), self.primed(lb, mark_0))
        half += (half[a], half[b]) * 2
        cyl += (cyl[a], cyl[b]) * 2
        place += (place[a], place[b]) * 2
        return range(n, n + 4)

    def new_list(self, sides, cyclic: bool, kind: str, cyl: int) -> int:
        lid = self._next_list
        self._next_list += 1
        return self.put_list(lid, sides, cyclic, kind, cyl)

    def put_list(self, lid: int, sides, cyclic: bool, kind: str,
                 cyl: int) -> int:
        """Store a list under a lid that no list has taken."""
        sides = tuple(sides)
        self.lists[lid] = LabeledList(lid, sides, cyclic, kind, cyl)
        labs = self.labs[lid] = list(map(self.lab.__getitem__, sides))
        if kind == "u" or kind == "o":  # no sentinel
            self.own[lid] = labs
        else:
            self.own[lid] = list(compress(labs,
                                          map(self.square.__getitem__, labs)))
        return lid

    def label_of(self, sid: int) -> Label:
        return self.label_at[self.lab[sid]]

    def settle(self, lid: int) -> None:
        """Record lid as the pool list holding each of its sides."""
        self.home.update(dict.fromkeys(self.lists[lid].sides, lid))

    def labels(self, lid: int) -> list[Label]:
        return [self.label_at[l] for l in self.labs[lid]]

    def pool_lids(self) -> list[int]:
        return [lid for _, lid in self.u_section + self.o_section + self.lz_section]

    # -- stage 2 initialization --------------------------------------------

    def init_lists(self, cuts: list[Cylinder]) -> None:
        cut_bases = {z.base for z in cuts}
        for z in self.o.horizontal_cylinders:
            base = z.base
            lower = z.squares
            upper = [self.o.p2(s) for s in reversed(lower)]
            u_sides = [self.new_side(SLabel(s), "u", base) for s in lower]
            o_sides = [self.new_side(SLabel(s), "o", base) for s in upper]
            if base in cut_bases:
                ul = self.new_list(u_sides, True, "u", base)
                ol = self.new_list(o_sides, True, "o", base)
                self.u_section.append((base, ul))
                self.o_section.append((base, ol))
                self.settle(ul)
                self.settle(ol)
            else:
                a1 = self.new_side(Sentinel(base), None, base)
                a2 = self.new_side(Sentinel(base), None, base)
                self.second_sentinel[base] = a2
                lz = self.new_list([a1] + u_sides + [a2] + o_sides, True, "lz", base)
                self.lz_section.append((base, lz))
                self.settle(lz)
        for section in (self.u_section, self.o_section, self.lz_section):
            section.sort(key=lambda pair: pair[0])


def init_lists(o: Origami, cuts: list[Cylinder]) -> Pool:
    pool = Pool(o)
    pool.init_lists(cuts)
    return pool


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------


def merge_all(pool: Pool) -> tuple[int, MergeHistory]:
    """Splice the whole pool into a single list P.

    Policy: the accumulator starts as the first pool list; each round it
    is spliced with the first remaining list sharing a label, at the first
    common label in that list's stored order, unprimed labels preferred.
    The splice [a.., at, b..] + [c.., at, d..] -> [a.., d.., c.., b..] is
    made at the first occurrence of `at` in each.  Then the first adjacent
    pair of equal labels, else the wrap-around pair, is removed until
    neither exists.  The accumulator is edited in place, and each splice
    and each removal logs an event under a fresh lid.

    The first sharing list is found through an index: `holders` maps a
    label id to the pool positions holding it, `count` counts the label
    ids in the accumulator, and `heap` holds every remaining position
    that shares a label, each at most once: a position is pushed when the
    accumulator gains one of its labels while it is `waiting`, and a
    popped position that no longer shares one goes back to waiting.

    Only the pairs (j, j+1) with k <= j < clean_from can be equal: the
    ones before k were checked, the ones from clean_from on lie in a clean
    suffix.  After the first splice the accumulator is clean, so a splice
    checks from one left of the junction to the start of its tail b; after
    removing (k, k+1) the scan resumes at k-1.
    """
    remaining = pool.pool_lids()
    if not remaining:
        raise ValueError("empty pool")
    home = pool.home
    history = MergeHistory(initial=list(remaining), home=home.copy())
    events, tree = history.events, history.tree
    lists, labs_of = pool.lists, pool.labs
    square, unprimed = pool.square, pool.unprimed
    own = list(map(pool.own.__getitem__, remaining))
    holders: dict[int, list[int]] = {}
    for pos in range(1, len(remaining)):
        for l in own[pos]:
            holders.setdefault(l, []).append(pos)
    waiting = [True] * len(remaining)
    count = [0] * len(square)
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    pos = 0
    acc = remaining[0]
    sides, labs = list(lists[acc].sides), list(labs_of[acc])
    rid = pool._next_list
    for r in range(len(remaining)):
        if r:  # r = 0 only absorbs the first list, the accumulator
            at = None
            while at is None:
                if not heap:
                    raise Disconnected("pool does not splice to a single list")
                pos = pop(heap)
                for l in own[pos]:
                    if count[l]:
                        if unprimed[l]:
                            at = l
                            break
                        if at is None:
                            at = l
                if at is None:
                    waiting[pos] = True
        # absorb the list at pos: push every waiting position that holds a
        # label the accumulator gains
        for l in own[pos]:
            if not count[l]:
                for p in holders.get(l, ()):
                    if waiting[p]:
                        waiting[p] = False
                        push(heap, p)
            count[l] += 1
        if not r:
            continue
        mid = remaining[pos]
        M, lab_m = lists[mid].sides, labs_of[mid]
        try:
            i, j = labs.index(at), lab_m.index(at)
        except ValueError:
            raise NoCommonLabel(
                f"label {format_label(pool.label_at[at])} missing") from None
        gl, gm = sides[i], M[j]
        tree[mid] = (home[gl], gl, gm, rid)
        b = len(labs) - i - 1
        if len(M) == 2:  # the commonest list: the splice renames a side
            sides[i], labs[i] = M[1 - j], lab_m[1 - j]
        else:
            sides[i:i + 1] = M[j + 1:] + M[:j]
            labs[i:i + 1] = lab_m[j + 1:] + lab_m[:j]
        count[at] -= 2
        events.append(("merge", rid, acc, mid, gl, gm))
        acc, rid = rid, rid + 1
        n = len(labs)
        # the first splice (r = 1) starts from a pool list, maybe unclean;
        # conditional expressions stand in for max and min below, which
        # cost a builtin call each
        if r > 1:
            k, clean_from = i - 1 if i else 0, n - b
        else:
            k, clean_from = 0, n
        while True:
            stop = clean_from if clean_from < n else n - 1
            while k < stop and labs[k] != labs[k + 1]:
                k += 1
            if k < stop:
                l = labs[k]
                s1, s2 = sides[k], sides[k + 1]
                del sides[k:k + 2], labs[k:k + 2]
                clean_from = clean_from - 2 if clean_from - 2 > k else k
                k = k - 1 if k else 0
            elif n >= 2 and labs[-1] == labs[0]:
                l = labs[0]
                s1, s2 = sides[-1], sides[0]
                del sides[-1], sides[0], labs[-1], labs[0]
                k = n - 3 if n > 3 else 0
            else:
                break
            n -= 2
            if square[l]:
                count[l] -= 2
            events.append(("cancel", rid, acc, s1, s2))
            acc, rid = rid, rid + 1
    pool._next_list = rid
    if events:
        pool.put_list(acc, sides, True, "m", 0)
    history.final = acc
    return acc, history


# ---------------------------------------------------------------------------
# separating pairs
# ---------------------------------------------------------------------------


def find_separating_pair(labels: Sequence) -> tuple:
    """In a cyclic label sequence where every square label occurs twice,
    find (alpha, beta): the two alpha occurrences split the sequence into
    two arcs each holding exactly one beta.  Deterministic: smallest alpha
    first, then smallest beta; sentinels are never selected."""
    ids: dict = {}
    for l in labels:
        ids.setdefault(l, len(ids))
    distinct = list(ids)
    square = [_is_square(l) for l in distinct]
    order = [_label_key(l) if sq else None for l, sq in zip(distinct, square)]
    alpha, beta = _separating_pair([ids[l] for l in labels], square, order)
    return distinct[alpha], distinct[beta]


def _separating_pair(labs: Sequence[int], square: Sequence[bool],
                     order: Sequence) -> tuple[int, int]:
    """find_separating_pair on label ids, ordered by order[id].

    One pass per alpha: beta separates iff it occurs once strictly
    between the two alphas and twice in all."""
    occ: dict[int, list[int]] = {}
    for k, l in enumerate(labs):
        if square[l]:
            occ.setdefault(l, []).append(k)
    key = order.__getitem__
    for alpha in sorted(occ, key=key):
        if len(occ[alpha]) != 2:
            continue
        i, j = occ[alpha]
        arc = labs[i + 1:j]
        inside = Counter(compress(arc, map(square.__getitem__, arc)))
        betas = [b for b, c in inside.items()
                 if c == 1 and len(occ[b]) == 2 and b != alpha]
        if betas:
            return alpha, min(betas, key=key)
    raise NoPairFound("no separating pair of labels")


# ---------------------------------------------------------------------------
# backtracking
# ---------------------------------------------------------------------------


def backtrack(pool: Pool, history: MergeHistory, alpha: Label) -> PairChain:
    """Trace the pair (alpha, alpha) of the final list back through the
    merge history to a chain of pairs, each inside one initial list.

    A merge splits a pair that straddles it into (.., gl) in the
    accumulator and (gm, ..) in the absorbed list, so the chain follows the
    merge tree's path from the list of alpha's first occurrence to that of
    its second.  Each end climbs to its parent, the one absorbed later
    first (a parent is absorbed before its children), until they meet; the
    pairs in each list run from entry to exit side.
    """
    labs = pool.labs[history.final]
    aid = pool.label_ids.get(alpha)
    if labs.count(aid) != 2:
        raise InconsistentChain("alpha must occur exactly twice")
    # x is the earlier occurrence in stored order
    i = labs.index(aid)
    sides = pool.lists[history.final].sides
    x, y = sides[i], sides[labs.index(aid, i + 1)]
    tree = history.tree
    root = (None, None, None, -1)  # the first list is never absorbed
    a, b = history.home[x], history.home[y]
    head: list[tuple[int, int, int]] = []  # pairs from x's end, in order
    tail: list[tuple[int, int, int]] = []  # pairs from y's end, reversed
    while a != b:
        up_a, up_b = tree.get(a, root), tree.get(b, root)
        if up_a[3] > up_b[3]:
            parent, gl, gm, _ = up_a
            head.append((x, gm, a))
            x, a = gl, parent
        else:
            parent, gl, gm, _ = up_b
            tail.append((gm, y, b))
            y, b = gl, parent
    head.append((x, y, a))
    head.extend(reversed(tail))
    half, cyl = pool.half, pool.cyl
    chain: PairChain = []
    for sa, sb, lid in head:
        h = half[sa]
        if h != half[sb] or h is None:
            raise InconsistentChain("pair straddles list halves")
        chain.append(ChainPair._make((sa, sb, lid, h, cyl[sa])))
    # emission starts with a lower-boundary pair when possible
    if chain[0].half == "o" and chain[-1].half == "u":
        chain = [
            ChainPair._make((p.side_b, p.side_a, p.lid, p.half, p.cyl))
            for p in reversed(chain)
        ]
    return chain


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _half_bounds(pool: Pool, lid: int, half: str) -> tuple[int, int, bool]:
    """The span lo:hi of list lid's sides relevant to a pair, and whether
    it is cyclic: the whole list for 'u'/'o' lists, the matching half
    (always cyclic) for an uncut cylinder's combined list
    [a_Z, lower..., a_Z, upper...]."""
    lst = pool.lists[lid]
    if lst.kind == "lz":
        k = lst.sides.index(pool.second_sentinel[lst.cyl])
        return (1, k, True) if half == "u" else (k + 1, len(lst.sides), True)
    if lst.kind != half:
        raise InconsistentChain(f"{half!r} pair in a {lst.kind!r} list")
    return 0, len(lst.sides), lst.cyclic


def _pair_exponent(pool: Pool, pair: ChainPair) -> int:
    """Signed x-exponent of the pair's syllable.

    Cyclic lists: minimal |t| with p1^t carrying the first underlying
    square (`Pool.place`) to the second (ties at half the cylinder length
    resolve positive).  Non-cyclic lists: the directed step count given by
    the sides' order in the stored list (lower-boundary lists run with p1,
    upper against it).

    It depends only on the pair's list, which never changes, so it is
    computed once per pair: emission and the next round's split share it.
    """
    key = (pair.lid, pair.side_a, pair.side_b)
    e = pool.exponents.get(key)
    if e is None:
        e = pool.exponents[key] = _exponent(pool, pair)
    return e


def _exponent(pool: Pool, pair: ChainPair) -> int:
    side_a, side_b, lid, half, base = pair
    _, _, cyclic = _half_bounds(pool, lid, half)
    place = pool.place
    a, b = place[side_a], place[side_b]
    if a == b:
        raise InconsistentChain("pair joins a square to itself")
    # the forward steps 0 <= t0 < n with p1^t0(a) = b in the pair's cylinder
    z, ka = a
    zb, kb = b
    if z != pool.o.cylinder_at[base][0] or zb != z:
        raise InconsistentChain("squares not in the pair's cylinder")
    n = pool.o.horizontal_cylinders[z].length
    t0 = (kb - ka) % n
    if cyclic:
        if 2 * t0 < n or 2 * t0 == n:
            return t0
        return t0 - n
    sides = pool.lists[lid].sides
    if (half == "u") == (sides.index(side_a) < sides.index(side_b)):
        return t0
    return t0 - n


def emit_curve(pool: Pool, chain: PairChain) -> OrigamiCurve:
    """Turn a pair chain into a closed horizontal curve: each lower-half
    pair contributes x^t y^-1, each upper-half pair x^t y."""
    if not chain:
        raise InconsistentChain("empty chain")
    first = chain[0]
    alpha0 = pool.label_of(first.side_a).square
    start = alpha0 if first.half == "u" else pool.o.p2.inverse_of(alpha0)
    letters = []
    for pair in chain:
        e = _pair_exponent(pool, pair)
        letters.append((1, e))
        letters.append((2, -1 if pair.half == "u" else 1))
    return OrigamiCurve(start, Word(2, letters))


# ---------------------------------------------------------------------------
# stage 3: splitting along the new curve
# ---------------------------------------------------------------------------


def step3_update(pool: Pool, chain: PairChain) -> None:
    """Split, for every chain pair in order, the pool list holding it.

    With roles ordered along the curve's sweep direction in stored order,
    the list [a.., r_s, b.., r_{s+1}, c..] becomes
      L0 = [a.., r_s', r_{s+1}'', c..]  and  L1 = (r_s'', b.., r_{s+1}')
    on the lower boundary (primes swapped on the upper); L0 keeps the
    parent's kind and cyclicity, L1 is non-cyclic.  L0 and L1 take the
    parent's place in its section; an uncut cylinder's combined list keeps
    L0 embedded, and its L1 joins the matching section after the lists of
    its cylinder.  The sections are rebuilt once, after the last split.
    """
    replaced: dict[int, tuple[int, ...]] = {}  # split list -> its successors
    joining: dict[str, dict[int, list[int]]] = {"u": {}, "o": {}}
    home = pool.home
    for pair in chain:
        side_a, side_b, _, half, cyl = pair
        lid = home.get(side_a)
        if lid is None:
            raise InconsistentChain(f"side {side_a} not in any pool list")
        if home.get(side_b) != lid:
            raise InconsistentChain("chain pair torn across lists")
        lst = pool.lists[lid]
        lo, hi, cyclic = _half_bounds(pool, lid, half)
        e = _pair_exponent(pool, pair)
        forward = (e > 0) if half == "u" else (e < 0)
        role_a, role_b = (side_a, side_b) if forward else (side_b, side_a)
        sides = lst.sides
        ia, ib = sides.index(role_a), sides.index(role_b)
        if ia < ib:
            between = sides[ia + 1:ib]
        elif cyclic:
            between = sides[ia + 1:hi] + sides[lo:ib]
        else:
            raise InconsistentChain(
                "sweep must run forward in a non-cyclic list")

        marks = (1, 2) if half == "u" else (2, 1)
        a_l0, b_l0, a_l1, b_l1 = pool.split_sides(role_a, role_b, *marks)
        l1 = pool.new_list((a_l1,) + between + (b_l1,), False, half, cyl)
        pool.settle(l1)
        del home[role_a], home[role_b]  # replaced by primed copies
        if ia < ib:
            kept = sides[:ia] + (a_l0, b_l0) + sides[ib + 1:]
        else:
            kept = sides[:lo] + (b_l0,) + sides[ib + 1:ia] + (a_l0,) + sides[hi:]
        l0 = pool.new_list(kept, lst.cyclic, lst.kind, lst.cyl)
        pool.settle(l0)
        if lst.kind == "lz":
            replaced[lid] = (l0,)
            joining[half].setdefault(cyl, []).append(l1)
        else:
            replaced[lid] = (l0, l1)
    pool.u_section = _resection(pool.u_section, replaced, joining["u"])
    pool.o_section = _resection(pool.o_section, replaced, joining["o"])
    pool.lz_section = _resection(pool.lz_section, replaced, {})


def _resection(section: list[tuple[int, int]], replaced: dict,
               joining: dict[int, list[int]]) -> list[tuple[int, int]]:
    """The section with every split list replaced, recursively, by its
    successors in order, and the lists joining[c] placed after the last
    list of cylinder c."""
    if not section and not joining:
        return section
    out: list[tuple[int, int]] = []

    def put(cyl: int, lid: int) -> None:
        stack = [lid]
        while stack:
            lid = stack.pop()
            successors = replaced.get(lid)
            if successors is None:
                out.append((cyl, lid))
            else:
                stack.extend(reversed(successors))

    joins = sorted(joining.items())
    k = 0
    for entry in section:
        cyl, lid = entry
        while k < len(joins) and joins[k][0] < cyl:
            for l in joins[k][1]:
                put(joins[k][0], l)
            k += 1
        if lid in replaced:
            put(cyl, lid)
        else:
            out.append(entry)
    for c, lids in joins[k:]:
        for l in lids:
            put(c, l)
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class HssResult:
    o: Origami
    curves: list[OrigamiCurve]
    cut_cylinders: list[Cylinder]
    graph: HalfCylinderGraph
    histories: list[MergeHistory] = field(default_factory=list)
    # the lists of every round and each round's separating partner beta;
    # dual_curves traces the betas back through them
    pool: Optional[Pool] = None
    betas: list[Label] = field(default_factory=list)


def find_hss_detailed(o: Origami) -> HssResult:
    g = genus(o)
    cuts, graph = step1(o)
    curves = [
        OrigamiCurve(z.base, Word(2, [(1, z.length)])) for z in cuts
    ]
    if len(curves) > g:
        raise InconsistentChain("more cylinder cuts than the genus allows")
    if len(curves) == g:
        return HssResult(o, curves, cuts, graph)
    pool = init_lists(o, cuts)
    chain: Optional[PairChain] = None
    histories: list[MergeHistory] = []
    betas: list[Label] = []
    while len(curves) < g:
        if chain is not None:
            step3_update(pool, chain)
        final, history = merge_all(pool)
        histories.append(history)
        alpha, beta = _separating_pair(pool.labs[final], pool.square,
                                       pool.order)
        betas.append(pool.label_at[beta])
        chain = backtrack(pool, history, pool.label_at[alpha])
        curves.append(emit_curve(pool, chain))
    return HssResult(o, curves, cuts, graph, histories, pool, betas)


def find_hss(o: Origami) -> list[OrigamiCurve]:
    """A horizontal Schottky cut system: g closed horizontal curves."""
    return find_hss_detailed(o).curves


# ---------------------------------------------------------------------------
# dual curves
# ---------------------------------------------------------------------------

# Steps of the walk in the surface cut along the step-1 cores, from the
# corner at the bottom left of square t: along the bottom of t; up through
# t, crossing its core; down through the square below t, crossing that
# square's core; or along the top of the square below t, written y^-1 x y,
# whose two crossings of that square's core cancel.
_ALONG_BOTTOM = (Word(2, [(1, 1)]), Word(2, [(1, -1)]))
_UP, _DOWN = Word(2, [(2, 1)]), Word(2, [(2, -1)])
_ALONG_TOP = (Word(2, [(2, -1), (1, 1), (2, 1)]),
              Word(2, [(2, -1), (1, -1), (2, 1)]))


def _transversal(o: Origami, z: Cylinder, cut: set[int]) -> OrigamiCurve:
    """A closed curve from the base s of the cut cylinder z that crosses
    z's core once upward and every other cut core net zero times: y from s,
    the shortest walk (BFS, steps in the order above) from the corner p2(s)
    back to a square of z whose steps cross no cut core net, then x-steps
    along z to s."""
    s = z.base
    inside = set(z.squares)
    start = o.p2(s)
    prev: dict[int, Optional[tuple[int, Word]]] = {start: None}
    queue = [start]
    for t in queue:
        if t in inside:
            break
        steps = list(_ALONG_BOTTOM)
        if t not in cut:
            steps.append(_UP)
        steps += _ALONG_TOP if o.p2.inverse_of(t) in cut else [_DOWN]
        for w in steps:
            u = act_word(o, t, w)
            if u not in prev:
                prev[u] = (t, w)
                queue.append(u)
    else:
        raise Disconnected("no walk back to the cut cylinder")
    walk = []
    u = t
    while prev[u] is not None:
        u, w = prev[u]
        walk.append(w)
    letters = [(2, 1)]
    for w in reversed(walk):
        letters += w.letters
    while t != s:
        letters.append((1, 1))
        t = o.p1(t)
    return OrigamiCurve(s, Word(2, letters))


def dual_curves(result: HssResult) -> list[OrigamiCurve]:
    """One closed dual curve per cut curve of the result, in the same order.

    The dual of a step-1 cut is its transversal.  The dual of a later
    round's curve is that round's beta, traced back like alpha: it lies in
    the round's list P, so it misses the step-1 cores and the earlier
    curves, and its two occurrences lie on opposite arcs of alpha's pair,
    so it crosses alpha once.  So the k-th dual pairs to +-1 with the k-th
    cut curve and to 0 with every earlier one."""
    cut = {s for z in result.cut_cylinders for s in z.squares}
    duals = [_transversal(result.o, z, cut) for z in result.cut_cylinders]
    for history, beta in zip(result.histories, result.betas):
        duals.append(emit_curve(result.pool,
                                backtrack(result.pool, history, beta)))
    return duals

"""Horizontal Schottky cut systems.

Produces, for any origami of genus g, a system of g closed horizontal
curves that is independent in homology.  The construction runs in three
stages:

1. a maximal system of cylinder cuts, found on a graph with two nodes
   per cylinder (its lower and upper boundary) joined by the vertical
   gluings; cylinders whose two nodes get bridged are not cut.  The graph
   does not depend on the bridging order: ``step1_graph`` builds it and
   ``step1_cuts`` runs the bridging pass on it, returning only the cuts.
   Both run on one parent array (``_root`` finds a node's root).  Each
   bridge joins two components, so the surface is connected iff the
   edges alone leave one more component than there are bridges;
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
cancellation, tie-breaks) are fixed and deterministic.  Each function of
stages 2 and 3 either returns its finished value or refuses its input and
leaves the pool as it found it: ``merge_all`` writes the pool only at its
end, ``step3_update`` checks the whole chain before its first split, and
``backtrack`` and ``emit_curve`` only read it.

Stages 2 and 3 look things up by index instead of rescanning.  A side is
nothing but its label id (``Pool.lab``), and every label is interned to a
small int when its side is created, so all label equality tests compare
ints.  Stages 2 and 3 rely on two facts of every round, which
``tests/test_hss.py::TestRoundsAreWellFormed`` checks on real rounds:
every label id lies on exactly two sides of the pool lists (a
sentinel's two in one 'lz' list), and a round's chain is a path in its
merge tree, so its pairs lie in distinct pool lists.  A side's boundary
half and cylinder are those of the pool list that holds it (in an uncut
cylinder's list, the half is the side's place relative to the second
a_Z), and the square under a side follows from its label and that half.
A pool list never changes once made, so it carries its label ids,
computed once; a side's index in a list is found by
``tuple.index``, since pool lists are short and each split replaces its
list anyway.  The pool holds only pool lists: 'u', 'o' and 'lz' lists
and the lists stage 3 splits them into.  ``merge_all`` is one loop over
the round, with one mutable accumulator (its sides, their label ids and
their origins, below): a splice or a cancellation edits it in place and
logs an event under a fresh list id, and the accumulator's lists become
the round's final list P in the ``MergeHistory`` it returns; no event's
result is stored in the pool.  The next splice partner is found through
an inverted index from label id to the remaining pool lists that hold
it, built from each list's label ids once per round, a count of
the label ids in the accumulator and a min-heap that holds each
candidate pool position at most once.  A pushed list keeps the label it
shares until it is absorbed, as that label's other side lies in the
accumulator, so each merge pops the heap once and takes the smallest
position, which is the list a front-to-back rescan would pick.
Cancellation resumes one position left of the last hit, because
everything before it was already checked clean; as the accumulator is
itself clean, a splice checks only the pairs from the first junction to
the start of the accumulator's tail.  The wrap-around pair is checked
last.  The events, their order and the list numbering are those of a
full rescan after every removal.

Beside each accumulator side, ``merge_all`` keeps the pool list it came
from, moved with the side by every splice and cancellation.  Each merge
hangs the absorbed pool list below the origin of the accumulator's glued
side, so a round's merges form a tree on its pool lists, which
``merge_all`` records with the origins of the final list P.
Backtracking walks this tree from the origins of alpha's two occurrences
up to where they meet, in time linear in the chain, and never replays
the event log; an old round, which ``dual_curves`` backtracks, is walked
the same way.  No side -> pool list map is kept.  Backtracking computes
each chain pair's x-exponent once, after fixing the chain's orientation,
and stores it in the pair, where emission and the next round's split
read it; a non-'lz' list's half is its kind.  Emission builds the curve
word letter by letter, already reduced, as its x-runs and y-letters
alternate.  Stage 3 splits each chain pair's own pool list once, finds
sides by their index in it, and rebuilds the pool order once per round:
the pool is one list of lids, sorted by each list's section (its kind,
'u', 'o' or 'lz', then its cylinder), in which every split list is
replaced in place by its L0 and L1, of its own section, so the order
stays sorted; each L1 list split off an uncut cylinder is inserted after
the last list of its section, found by bisection.  The order is never
re-sorted.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import Counter
from itertools import compress
from typing import NamedTuple, Optional, Sequence, Union

from .freegroup import Word
from .origami import Cylinder, Origami, OrigamiCurve, genus

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
    "Pool",
    "step1",
    "step1_graph",
    "step1_cuts",
    "init_lists",
    "merge_all",
    "backtrack",
    "emit_curve",
    "step3_update",
    "find_hss",
    "find_hss_detailed",
    "HssResult",
    "dual_curves",
]


class NoCommonLabel(ValueError):
    pass


class Disconnected(ValueError):
    pass


class NoPairFound(ValueError):
    pass


class InconsistentChain(ValueError):
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


# ---------------------------------------------------------------------------
# stage 1: maximal cylinder cut system
# ---------------------------------------------------------------------------


class HalfCylinderGraph(NamedTuple):
    """Two nodes per cylinder i, the upper 2i and the lower 2i + 1, joined
    by the p2-gluing edges; `step1_cuts` bridges each cylinder's two
    nodes on a copy of ``roots``."""

    cyls: tuple[Cylinder, ...]       # the origami's horizontal cylinders
    roots: list[int]                 # node -> its component's root under
                                     # the edges alone, before any bridge


def _root(parent: list[int], v: int) -> int:
    """The root of node v in a parent array, halving the path on the way;
    a union is ``parent[_root(parent, a)] = _root(parent, b)``."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def step1_graph(o: Origami) -> HalfCylinderGraph:
    """The half of stage 1 that no bridging order changes: the cylinders,
    an edge z_i^o -- z_j^u whenever p2 carries a square of Z_i into Z_j,
    and the components those edges join."""
    cyls = o.horizontal_cylinders
    at = o.cylinder_at
    parent = list(range(2 * len(cyls)))
    for i, z in enumerate(cyls):
        for s in z.squares:
            parent[_root(parent, 2 * i)] = _root(parent, 2 * at[o.p2(s)][0] + 1)
    return HalfCylinderGraph(
        cyls, [_root(parent, v) for v in range(2 * len(cyls))])


def step1_cuts(
    graph: HalfCylinderGraph, order: Optional[Sequence[int]] = None
) -> list[Cylinder]:
    """The bridging pass of stage 1 on a graph from `step1_graph`, which
    it leaves as it found it: scanning the cylinders in the given order
    (by default in descending index), it bridges z_i^o -- z_i^u whenever
    the two nodes are still in different components.  Returns the cut
    cylinders, exactly the bridge-less ones.  Each bridge joins two
    components into one, so the surface is connected iff the edges alone
    leave exactly one more component than there are bridges; otherwise
    `Disconnected` is raised."""
    ncyl = len(graph.cyls)
    if order is None:
        order = range(ncyl - 1, -1, -1)
    elif sorted(order) != list(range(ncyl)):
        raise ValueError("order must permute cylinders")
    parent, cut = list(graph.roots), []
    for i in order:
        a, b = _root(parent, 2 * i), _root(parent, 2 * i + 1)
        if a == b:
            cut.append(i)
        else:
            parent[a] = b
    if len(set(graph.roots)) != ncyl - len(cut) + 1:
        raise Disconnected("surface not connected after bridging")
    return [graph.cyls[i] for i in sorted(cut)]


def step1(
    o: Origami, order: Optional[Sequence[int]] = None
) -> tuple[list[Cylinder], HalfCylinderGraph]:
    """Maximal cylinder cut system: `step1_cuts` on `step1_graph(o)`, and
    that graph.

    Nodes z_i^o (upper boundary) and z_i^u (lower boundary) per cylinder;
    an edge z_i^o -- z_j^u whenever p2 carries a square of Z_i into Z_j.
    Bridges z_i^o -- z_i^u are added while scanning cylinders (by default
    in descending index) whenever the two nodes are still in different
    components.  Cut cylinders are exactly the bridge-less ones.  Only
    the bridges depend on the order, so a caller that tries several
    orders builds the graph once and runs `step1_cuts` for each.
    """
    graph = step1_graph(o)
    return step1_cuts(graph, order), graph


# ---------------------------------------------------------------------------
# labeled lists over side objects
# ---------------------------------------------------------------------------


class LabeledList:
    """A pool list: sides with a cyclic flag; a stored list never changes.

    kind: 'u' / 'o' for boundary lists, 'lz' for an uncut cylinder's
    combined list [a_Z, lower..., a_Z, upper...], which keeps a_Z at
    index 0.  cyl: the base square of the cylinder whose boundary the list
    runs along.  labs: the label id of each side.

    Slotted rather than a named tuple: the cut-system loops read its
    fields, and on CPython 3.11 a slot reads about three times faster
    than a named-tuple field.
    """

    __slots__ = ("sides", "cyclic", "kind", "cyl", "labs")

    def __init__(self, sides: tuple[int, ...], cyclic: bool, kind: str,
                 cyl: int, labs: list[int]):
        self.sides = sides
        self.cyclic = cyclic
        self.kind = kind
        self.cyl = cyl
        self.labs = labs

    def span(self, half: str) -> tuple[int, int]:
        """The span lo:hi of the sides on the given boundary half: the
        whole list for a 'u' / 'o' list of that half, the part between the
        two a_Z ('u') or after the second ('o') for an 'lz' list."""
        if self.kind == "lz":
            labs = self.labs
            k = labs.index(labs[0], 1)
            return (1, k) if half == "u" else (k + 1, len(labs))
        if self.kind != half:
            raise InconsistentChain(f"{half!r} pair in a {self.kind!r} list")
        return 0, len(self.sides)

    def half_of(self, sid: int) -> Optional[str]:
        """The boundary half of side sid: the list's kind, or in an 'lz'
        list 'u' before the second a_Z, 'o' after it and None for a_Z."""
        if self.kind != "lz":
            return self.kind
        k = self.sides.index(sid)
        _, second = self.span("u")
        if k == 0 or k == second:
            return None
        return "u" if k < second else "o"


class MergeHistory(NamedTuple):
    """Splice / cancellation log of one merge_all run, and its final list P.

    Events:
      ('merge', result, left, right, glued_left_side, glued_right_side)
      ('cancel', result, parent, removed_side_a, removed_side_b)

    The right operand of a merge is always one of the initial lists.  No
    event's result is a pool list: ``final`` is P's list id, the last
    result (or the only initial list if there were no events), and P
    itself is ``sides``, their label ids ``labs`` and, for each side, the
    initial list it came from, ``origin``.

    The merges form a tree on the initial lists, rooted at the first: each
    absorbed list hangs below the initial list that held the accumulator's
    glued side.  ``tree`` maps an absorbed list to (that parent, the glued
    side of the accumulator, the glued side of the list, the merge's
    result), the last ordering the absorptions.
    """

    initial: list[int]
    events: list[tuple]
    final: int
    tree: dict[int, tuple[int, int, int, int]]
    sides: list[int]
    labs: list[int]
    origin: list[int]


class ChainPair(NamedTuple):
    """Two sides of pool list lid on its boundary half, and the x-exponent
    of the syllable they contribute (`_exponent`)."""

    side_a: int
    side_b: int
    lid: int
    half: str
    exponent: int


_SECTION_RANK = {"u": 0, "o": 1, "lz": 2}


class Pool:
    """Mutable state of one cut-system computation: the side registry,
    every pool list ever made ('u', 'o', 'lz' and their stage-3 splits)
    and the current pool order.

    A side is an id whose only per-side datum is its label id,
    ``lab[sid]``; its boundary half and cylinder are those of the pool
    list that holds it.  Labels are interned: ``label_ids`` and
    ``label_at`` map a label to its id and back, and ``square`` /
    ``unprimed`` say per id whether it is a square label and whether it
    carries no marks.  ``pool_order`` holds the lids of the current pool
    lists, sorted by `section`: the 'u' lists, then the 'o' lists, then
    the 'lz' lists, each by cylinder; lists of one section keep the order
    in which stage 3 placed them.
    """

    def __init__(self, o: Origami):
        self.o = o
        self.lists: dict[int, LabeledList] = {}
        self.lab: list[int] = []
        self.label_ids: dict[Label, int] = {}
        self.square: list[bool] = []
        self.unprimed: list[bool] = []
        self.label_at: list[Label] = []
        self._next_list = 0
        self.pool_order: list[int] = []

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
        return lab

    def new_side(self, label: Label) -> int:
        self.lab.append(self.intern(label))
        return len(self.lab) - 1

    def primed(self, lab: int, mark: int) -> int:
        """The id of label lab with one more mark."""
        square, marks = self.label_at[lab]
        return self.intern(SLabel._make((square, marks + (mark,))))

    def split_sides(self, a: int, b: int, mark_0: int, mark_1: int) -> range:
        """Four new sides like a, b, a, b, whose labels carry one more
        mark: mark_0, mark_1, mark_1 and mark_0."""
        lab = self.lab
        la, lb = lab[a], lab[b]
        n = len(lab)
        lab += (self.primed(la, mark_0), self.primed(lb, mark_1),
                self.primed(la, mark_1), self.primed(lb, mark_0))
        return range(n, n + 4)

    def new_list(self, sides, cyclic: bool, kind: str, cyl: int) -> int:
        """The id of a new pool list of these sides; a tuple is kept as
        it is, any other sequence copied into one."""
        lid = self._next_list
        self._next_list += 1
        if type(sides) is not tuple:
            sides = tuple(sides)
        self.lists[lid] = LabeledList(
            sides, cyclic, kind, cyl, list(map(self.lab.__getitem__, sides)))
        return lid

    def section(self, lid: int) -> tuple[int, int]:
        """The place of list lid's part of the pool order: its kind's
        rank, then its cylinder."""
        lst = self.lists[lid]
        return _SECTION_RANK[lst.kind], lst.cyl


# ---------------------------------------------------------------------------
# stage 2 initialization
# ---------------------------------------------------------------------------


def init_lists(o: Origami, cuts: list[Cylinder]) -> Pool:
    """A pool with the boundary lists of every cylinder: a 'u' and an 'o'
    list for a cut cylinder, one 'lz' list for an uncut one."""
    pool = Pool(o)
    new_side, new_list = pool.new_side, pool.new_list
    cut_bases = {z.base for z in cuts}
    for z in o.horizontal_cylinders:
        base = z.base
        lower = z.squares
        u_sides = [new_side(SLabel(s)) for s in lower]
        o_sides = [new_side(SLabel(o.p2(s))) for s in reversed(lower)]
        if base in cut_bases:
            pool.pool_order += (new_list(u_sides, True, "u", base),
                                new_list(o_sides, True, "o", base))
        else:
            a1, a2 = new_side(Sentinel(base)), new_side(Sentinel(base))
            pool.pool_order.append(
                new_list([a1] + u_sides + [a2] + o_sides, True, "lz", base))
    pool.pool_order.sort(key=pool.section)
    return pool


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------


def merge_all(pool: Pool) -> MergeHistory:
    """Splice the whole pool into a single list P, which the returned
    history holds; the pool's lists stay as they were.

    Policy: the accumulator starts as the first pool list; each round it
    is spliced with the first remaining list sharing a label, at the first
    common label in that list's stored order, unprimed labels preferred.
    The splice [a.., at, b..] + [c.., at, d..] -> [a.., d.., c.., b..] is
    made at the first occurrence of `at` in each.  Then the first adjacent
    pair of equal labels, else the wrap-around pair, is removed until
    neither exists.  The accumulator is edited in place, and each splice
    and each removal logs an event under a fresh lid.

    The first sharing list is found through an index: `own` holds each
    pool list's label ids, `holders` maps a label id to the pool positions
    holding it, `count` counts the label ids in the accumulator, and
    `heap` holds every remaining position that shares a label, each at
    most once: a position is pushed when the accumulator gains one of its
    labels while it is `waiting`.  As every label lies on exactly two
    sides, a pushed list's shared label has its only other side in the
    accumulator, where neither a splice at another label nor a
    cancellation can remove it; so the popped position still shares a
    label, and a pool with a label on more sides that breaks this is
    refused with NoCommonLabel.  Sentinels need no filter: each sentinel
    label lies in one pool list only, so no other list can share it, and
    it enters `count` only with the list that holds it.

    Only the pairs (j, j+1) with k <= j < clean_from can be equal: the
    ones before k were checked, the ones from clean_from on lie in a clean
    suffix.  After the first splice the accumulator is clean, so a splice
    checks from one left of the junction to the start of its tail b; after
    removing (k, k+1) the scan resumes at k-1.  The event log, the merge
    tree and P are locals until the returned history is built at the end,
    and the pool's list counter is the one thing of the pool written, also
    at the end, so a refused pool is left as it was.
    """
    remaining = pool.pool_order
    if not remaining:
        raise ValueError("empty pool")
    events: list[tuple] = []
    tree: dict[int, tuple[int, int, int, int]] = {}
    lists = pool.lists
    unprimed = pool.unprimed
    own = [lists[lid].labs for lid in remaining]
    holders: dict[int, list[int]] = {}
    for pos in range(1, len(remaining)):
        for l in own[pos]:
            holders.setdefault(l, []).append(pos)
    waiting = [True] * len(remaining)
    count = [0] * len(unprimed)
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    pos = 0
    acc = remaining[0]
    sides, labs = list(lists[acc].sides), list(lists[acc].labs)
    origin = [acc] * len(sides)  # the initial list each side came from
    rid = pool._next_list
    for r in range(len(remaining)):
        if r:  # r = 0 only absorbs the first list, the accumulator
            if not heap:
                raise Disconnected("pool does not splice to a single list")
            pos = pop(heap)
            at = None
            for l in own[pos]:
                if count[l]:
                    if unprimed[l]:
                        at = l
                        break
                    if at is None:
                        at = l
            if at is None:
                raise NoCommonLabel(
                    f"list {remaining[pos]} lost its shared labels")
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
        M, lab_m = lists[mid].sides, lists[mid].labs
        i, j = labs.index(at), lab_m.index(at)
        gl, gm = sides[i], M[j]
        tree[mid] = (origin[i], gl, gm, rid)
        b = len(labs) - i - 1
        if len(M) == 2:  # the commonest list: the splice renames a side
            sides[i], labs[i], origin[i] = M[1 - j], lab_m[1 - j], mid
        else:
            sides[i:i + 1] = M[j + 1:] + M[:j]
            labs[i:i + 1] = lab_m[j + 1:] + lab_m[:j]
            origin[i:i + 1] = [mid] * (len(M) - 1)
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
                del sides[k:k + 2], labs[k:k + 2], origin[k:k + 2]
                clean_from = clean_from - 2 if clean_from - 2 > k else k
                k = k - 1 if k else 0
            elif n >= 2 and labs[-1] == labs[0]:
                l = labs[0]
                s1, s2 = sides[-1], sides[0]
                del sides[-1], sides[0], labs[-1], labs[0]
                del origin[-1], origin[0]
                k = n - 3 if n > 3 else 0
            else:
                break
            n -= 2
            count[l] -= 2
            events.append(("cancel", rid, acc, s1, s2))
            acc, rid = rid, rid + 1
    pool._next_list = rid
    return MergeHistory(list(remaining), events, acc, tree, sides, labs,
                        origin)


# ---------------------------------------------------------------------------
# separating pairs
# ---------------------------------------------------------------------------


def _separating_pair(labs: Sequence[int], square: Sequence[bool],
                     order: Sequence) -> tuple[int, int]:
    """In a cyclic sequence of label ids where every square label occurs
    twice, find (alpha, beta): the two alpha occurrences split the sequence
    into two arcs each holding exactly one beta.  Deterministic: smallest
    alpha first, then smallest beta, by order[id]; sentinels are never
    selected.

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


def backtrack(pool: Pool, history: MergeHistory,
              alpha: int) -> list[ChainPair]:
    """Trace the pair (alpha, alpha) of the final list, alpha a label id,
    back through the merge history to a chain of pairs, each inside one
    initial list.

    A merge splits a pair that straddles it into (.., gl) in the
    accumulator and (gm, ..) in the absorbed list, so the chain follows the
    merge tree's path from the origin of alpha's first occurrence to that
    of its second.  Each end climbs to its parent, the one absorbed later
    first (a parent is absorbed before its children), until they meet; the
    pairs in each list run from entry to exit side.  Each pair's exponent
    is computed once the chain's orientation is fixed.
    """
    labs, sides = history.labs, history.sides
    if labs.count(alpha) != 2:
        raise InconsistentChain("alpha must occur exactly twice")
    # x is the earlier occurrence in stored order
    i = labs.index(alpha)
    j = labs.index(alpha, i + 1)
    x, y = sides[i], sides[j]
    tree = history.tree
    root = (None, None, None, -1)  # the first list is never absorbed
    a, b = history.origin[i], history.origin[j]
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
    lists = pool.lists
    pairs = []
    for sa, sb, lid in head:
        lst = lists[lid]
        h = lst.kind
        if h == "lz":
            h = lst.half_of(sa)
            if h is None or h != lst.half_of(sb):
                raise InconsistentChain("pair straddles list halves")
        pairs.append((sa, sb, lid, h))
    # emission starts with a lower-boundary pair when possible
    if pairs[0][3] == "o" and pairs[-1][3] == "u":
        pairs = [(sb, sa, lid, h) for sa, sb, lid, h in reversed(pairs)]
    return [ChainPair(*p, _exponent(pool, *p)) for p in pairs]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _exponent(pool: Pool, side_a: int, side_b: int, lid: int,
              half: str) -> int:
    """Signed x-exponent of the syllable of the pair (side_a, side_b) on
    the given half of list lid, whose cylinder it must lie in.

    Cyclic lists ('lz' lists always are): minimal |t| with p1^t carrying
    the first underlying square to the second (ties at half the cylinder
    length resolve positive).  Non-cyclic lists: the directed step count
    given by the sides' order in the stored list (lower-boundary lists
    run with p1, upper against it).  The square under a side is its
    label's square on the lower boundary and that square's p2-preimage on
    the upper.
    """
    lst = pool.lists[lid]
    lst.span(half)  # the list has this half
    o, square = pool.o, pool.square
    la, lb = pool.lab[side_a], pool.lab[side_b]
    if not (square[la] and square[lb]):
        raise InconsistentChain("pair names an a_Z side")
    a, b = pool.label_at[la][0], pool.label_at[lb][0]
    if half != "u":
        a, b = o.p2._pre[a], o.p2._pre[b]
    if a == b:
        raise InconsistentChain("pair joins a square to itself")
    # the forward steps 0 <= t0 < n with p1^t0(a) = b in the pair's cylinder
    at = o.cylinder_at
    (z, ka), (zb, kb) = at[a], at[b]
    if z != at[lst.cyl][0] or zb != z:
        raise InconsistentChain("squares not in the pair's cylinder")
    n = len(o.horizontal_cylinders[z].squares)
    t0 = (kb - ka) % n
    if lst.cyclic:
        return t0 if 2 * t0 <= n else t0 - n
    sides = lst.sides
    if (half == "u") == (sides.index(side_a) < sides.index(side_b)):
        return t0
    return t0 - n


_X, _X_INV, _Y, _Y_INV = (1, 1), (1, -1), (2, 1), (2, -1)


def emit_curve(pool: Pool, chain: list[ChainPair]) -> OrigamiCurve:
    """Turn a pair chain into a closed horizontal curve: each lower-half
    pair contributes x^t y^-1, each upper-half pair x^t y.  Each t is
    nonzero (`_exponent` never returns 0, and a pair of exponent 0 is
    refused), so x-runs and y-letters alternate and nothing cancels: the
    word is built already reduced."""
    if not chain:
        raise InconsistentChain("empty chain")
    first = chain[0]
    lab = pool.lab[first.side_a]
    if not pool.square[lab]:
        raise InconsistentChain("pair names an a_Z side")
    square = pool.label_at[lab][0]
    start = square if first.half == "u" else pool.o.p2.inverse_of(square)
    letters = []
    for pair in chain:
        t = pair.exponent
        if not t:
            raise InconsistentChain("pair of exponent 0")
        letters += [_X if t > 0 else _X_INV] * abs(t)
        letters.append(_Y_INV if pair.half == "u" else _Y)
    return OrigamiCurve(start, Word._of(2, tuple(letters)))


# ---------------------------------------------------------------------------
# stage 3: splitting along the new curve
# ---------------------------------------------------------------------------


def step3_update(pool: Pool, chain: list[ChainPair]) -> None:
    """Split, for every chain pair in order, the pool list it names.  A
    round's chain is a path in its merge tree, so its pairs lie in
    distinct pool lists; a chain that names a list twice is refused, and
    so is a pair whose two sides are one side or do not both lie on its
    half of the list.
    Every pair is checked before the first split, so a refused chain
    leaves the pool as it was.

    With roles ordered along the curve's sweep direction in stored order,
    the list [a.., r_s, b.., r_{s+1}, c..] becomes
      L0 = [a.., r_s', r_{s+1}'', c..]  and  L1 = (r_s'', b.., r_{s+1}')
    on the lower boundary (primes swapped on the upper); L0 keeps the
    parent's kind and cyclicity, L1 is non-cyclic.  L0 and L1 take the
    parent's place in the pool order; an uncut cylinder's combined list
    keeps L0 embedded, and its L1 joins the pool order after the lists of
    its section, those of its half and cylinder.  The order is rebuilt
    once, after the last split, in one flat pass: each split list is
    replaced by its L0 and L1 (by its L0 alone for an 'lz' list), which
    have its section, so the order stays sorted by `Pool.section`; then
    each joining list, in chain order, is inserted after the last list of
    its section, found by bisection on the sorted order.  Nothing is
    re-sorted.
    """
    lists = pool.lists
    current = set(pool.pool_order)
    checked = []  # per pair: lid, list, half, roles, their indices, span
    for side_a, side_b, lid, half, e in chain:
        if lid not in current:
            raise InconsistentChain(f"list {lid} is not a pool list")
        current.remove(lid)
        lst = lists[lid]
        sides = lst.sides
        if side_a not in sides:
            raise InconsistentChain(f"side {side_a} not in list {lid}")
        if side_b not in sides:
            raise InconsistentChain("chain pair torn across lists")
        if side_a == side_b:
            raise InconsistentChain("pair joins a side to itself")
        lo, hi = lst.span(half)
        forward = (e > 0) if half == "u" else (e < 0)
        role_a, role_b = (side_a, side_b) if forward else (side_b, side_a)
        ia, ib = sides.index(role_a), sides.index(role_b)
        if ib <= ia and not lst.cyclic:
            raise InconsistentChain(
                "sweep must run forward in a non-cyclic list")
        if not (lo <= ia < hi and lo <= ib < hi):
            raise InconsistentChain("pair straddles list halves")
        checked.append((lid, lst, half, role_a, role_b, ia, ib, lo, hi))

    split: dict[int, tuple[int, ...]] = {}  # split list -> its place's lists
    joining: list[int] = []  # the L1 lists of uncut cylinders
    for lid, lst, half, role_a, role_b, ia, ib, lo, hi in checked:
        sides = lst.sides
        marks = (1, 2) if half == "u" else (2, 1)
        a_l0, b_l0, a_l1, b_l1 = pool.split_sides(role_a, role_b, *marks)
        if ia < ib:
            between = sides[ia + 1:ib]
            kept = sides[:ia] + (a_l0, b_l0) + sides[ib + 1:]
        else:
            between = sides[ia + 1:hi] + sides[lo:ib]
            kept = sides[:lo] + (b_l0,) + sides[ib + 1:ia] + (a_l0,) + sides[hi:]
        l1 = pool.new_list((a_l1,) + between + (b_l1,), False, half,
                           lst.cyl)
        l0 = pool.new_list(kept, lst.cyclic, lst.kind, lst.cyl)
        if lst.kind == "lz":
            split[lid] = (l0,)
            joining.append(l1)
        else:
            split[lid] = l0, l1

    order = [l for lid in pool.pool_order for l in split.get(lid, (lid,))]
    section = pool.section
    for l1 in joining:
        order.insert(bisect_right(order, section(l1), key=section), l1)
    pool.pool_order = order


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class HssResult(NamedTuple):
    """A cut system and how it was found: the step-1 cuts and their graph,
    one merge history and one separating partner beta (a label id) per
    later round, and the pool, which holds the origami and the lists of
    every round; dual_curves traces the betas back through them."""

    curves: list[OrigamiCurve]
    cut_cylinders: list[Cylinder]
    graph: HalfCylinderGraph
    histories: list[MergeHistory]
    pool: Pool
    betas: list[int]


def find_hss_detailed(o: Origami) -> HssResult:
    g = genus(o)
    cuts, graph = step1(o)
    curves = [OrigamiCurve(z.base, Word(2, [(1, z.length)])) for z in cuts]
    if len(curves) > g:
        raise InconsistentChain("more cylinder cuts than the genus allows")
    pool = init_lists(o, cuts)
    chain: Optional[list[ChainPair]] = None
    histories: list[MergeHistory] = []
    betas: list[int] = []
    while len(curves) < g:
        if chain is not None:
            step3_update(pool, chain)
        history = merge_all(pool)
        histories.append(history)
        alpha, beta = _separating_pair(history.labs, pool.square,
                                       pool.label_at)
        betas.append(beta)
        chain = backtrack(pool, history, alpha)
        curves.append(emit_curve(pool, chain))
    return HssResult(curves, cuts, graph, histories, pool, betas)


def find_hss(o: Origami) -> list[OrigamiCurve]:
    """A horizontal Schottky cut system: g closed horizontal curves."""
    return find_hss_detailed(o).curves


# ---------------------------------------------------------------------------
# dual curves
# ---------------------------------------------------------------------------

def _transversal(o: Origami, z: Cylinder, cut: set[int]) -> OrigamiCurve:
    """A closed curve from the base s of the cut cylinder z that crosses
    z's core once upward and every other cut core net zero times: y from s,
    the shortest walk (BFS) from the corner p2(s) back to a square of z
    whose steps cross no cut core net, then x-steps along z to s.

    The steps from the corner at the bottom left of square t, in this
    order: along the bottom of t, x and x^-1; up through t, y, crossing
    its core; and either down through the square below t, y^-1, crossing
    that square's core, or, when that core is cut, along the top of the
    square below t, y^-1 x y and y^-1 x^-1 y, whose two crossings of that
    core cancel."""
    s = z.base
    inside = set(z.squares)
    img1, pre1, img2, pre2 = o.p1._img, o.p1._pre, o.p2._img, o.p2._pre
    start = img2[s]
    prev: dict[int, Optional[tuple[int, tuple]]] = {start: None}
    queue = [start]
    for t in queue:
        if t in inside:
            break
        steps = [(img1[t], ((1, 1),)), (pre1[t], ((1, -1),))]
        if t not in cut:
            steps.append((img2[t], ((2, 1),)))
        below = pre2[t]
        if below in cut:
            steps += [(img2[img1[below]], ((2, -1), (1, 1), (2, 1))),
                      (img2[pre1[below]], ((2, -1), (1, -1), (2, 1)))]
        else:
            steps.append((below, ((2, -1),)))
        for u, letters in steps:
            if u not in prev:
                prev[u] = (t, letters)
                queue.append(u)
    else:
        raise Disconnected("no walk back to the cut cylinder")
    walk = []
    u = t
    while prev[u] is not None:
        u, letters = prev[u]
        walk.append(letters)
    letters = [(2, 1)]
    for step in reversed(walk):
        letters += step
    while t != s:
        letters.append((1, 1))
        t = img1[t]
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
    pool = result.pool
    duals = [_transversal(pool.o, z, cut) for z in result.cut_cylinders]
    for history, beta in zip(result.histories, result.betas):
        duals.append(emit_curve(pool, backtrack(pool, history, beta)))
    return duals

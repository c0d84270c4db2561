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

Stages 2 and 3 look things up by index instead of rescanning.  Every
label is interned to a small int when its side is created (``Pool.lab``),
so all label equality tests compare ints.  A pool list never changes once
made, so its label ids, its square-label ids and its side -> position map
are computed once per list.  ``merge_all`` keeps one mutable accumulator
(its sides and their label ids) for the whole round: a splice or a
cancellation edits it in place and logs an event under a fresh list id,
and only the round's final list P is stored.  The next splice partner is
found through an inverted index from label id to the remaining pool lists
that hold it, a count of the label ids in the accumulator and a min-heap
of candidate pool positions; it is the smallest position that still
shares a label, which is the list a front-to-back rescan would pick.
Cancellation resumes one position left of the last hit, because
everything before it was already checked clean; as the accumulator is
itself clean, a splice checks only the pairs from the first junction to
the start of the accumulator's tail.  The wrap-around pair is checked
last.  The events, their order and the list numbering are those of a full
rescan after every removal.  Backtracking tells the two operands of a
splice apart by a side -> initial-list map, and inserts split pairs into
a linked chain.  Stage 3 keeps a side -> pool list map, finds sides by
their stored positions, and rebuilds the pool order once per round.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SLabel:
    """A square label, possibly decorated by split marks (1 = ', 2 = ")."""

    square: int
    marks: tuple = ()


@dataclass(frozen=True)
class Sentinel:
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
    """Two nodes per cylinder (lower 'u', upper 'o'); p2-gluing edges plus
    the bridges chosen in stage 1."""

    cyls: list[Cylinder]
    edges: set[tuple[int, int]]      # (index of upper node's cylinder, lower's)
    bridges: list[int]               # cylinder indices that received a bridge


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

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


def step1(
    o: Origami, order: Optional[Sequence[int]] = None
) -> tuple[list[Cylinder], HalfCylinderGraph]:
    """Maximal cylinder cut system.

    Nodes z_i^o (upper boundary) and z_i^u (lower boundary) per cylinder;
    an edge z_i^o -- z_j^u whenever p2 carries a square of Z_i into Z_j.
    Bridges z_i^o -- z_i^u are added while scanning cylinders (by default
    in descending index) whenever the two nodes are still in different
    components.  Cut cylinders are exactly the bridge-less ones.
    """
    cyls = cylinders(o)
    ncyl = len(cyls)
    cyl_index = {}
    for i, z in enumerate(cyls):
        for s in z.squares:
            cyl_index[s] = i
    edges = set()
    for i, z in enumerate(cyls):
        for s in z.squares:
            edges.add((i, cyl_index[o.p2(s)]))
    if order is None:
        order = range(ncyl - 1, -1, -1)
    elif sorted(order) != list(range(ncyl)):
        raise ValueError("order must permute cylinders")
    uf = _UnionFind(2 * ncyl)
    for i, j in edges:
        uf.union(2 * i, 2 * j + 1)
    bridges = []
    for i in order:
        if uf.union(2 * i, 2 * i + 1):
            bridges.append(i)
    if len({uf.find(v) for v in range(2 * ncyl)}) != 1:
        raise Disconnected("surface not connected after bridging")
    cuts = [z for i, z in enumerate(cyls) if i not in bridges]
    return cuts, HalfCylinderGraph(cyls, edges, bridges)


# ---------------------------------------------------------------------------
# labeled lists over side objects
# ---------------------------------------------------------------------------


class _Side(NamedTuple):
    """One occurrence of a label on the cut boundary.  Identity matters:
    sides survive splicing and are tracked through the merge history."""

    label: Label
    half: Optional[str]      # 'u' (lower boundary), 'o' (upper), None sentinel
    cyl: int                 # base square of the owning cylinder


@dataclass(frozen=True)
class LabeledList:
    """An immutable list of sides with a cyclic flag.

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
    """

    initial: list[int]
    events: list[tuple] = field(default_factory=list)
    final: Optional[int] = None


@dataclass(frozen=True)
class ChainPair:
    side_a: int
    side_b: int
    lid: int
    half: str
    cyl: int


PairChain = list  # of ChainPair


class Pool:
    """Mutable state of one cut-system computation: the side registry,
    the stored lists and the current pool sections.

    Labels are interned: ``lab[sid]`` is the label id of side sid,
    ``label_ids`` and ``label_at`` map a label to its id and back,
    ``square`` / ``unprimed`` say per id whether it is a square label and
    whether it carries no marks, and ``order`` holds the sort key of each
    square label.  ``home`` maps every side of a current pool list to that
    list's lid.  Per stored list, ``labs`` holds its label ids and ``own``
    its square-label ids; ``positions`` holds a side -> position map, made
    on first use.  ``exponents`` keeps each chain pair's x-exponent.
    """

    def __init__(self, o: Origami):
        self.o = o
        self.sides: list[_Side] = []
        self.lists: dict[int, LabeledList] = {}
        self.labs: dict[int, list[int]] = {}
        self.own: dict[int, list[int]] = {}
        self.positions: dict[int, dict[int, int]] = {}
        self.exponents: dict[tuple[int, int, int], int] = {}
        self.lab: list[int] = []
        self.label_ids: dict[Label, int] = {}
        self.square: list[bool] = []
        self.unprimed: list[bool] = []
        self.order: list[Optional[tuple]] = []
        self.label_at: list[Label] = []
        self.primes: dict[tuple[int, int], int] = {}  # (label id, mark) -> id
        self.home: dict[int, int] = {}
        self._next_list = 0
        # sections hold (cylinder base, lid), kept sorted by cylinder
        self.u_section: list[tuple[int, int]] = []
        self.o_section: list[tuple[int, int]] = []
        self.lz_section: list[tuple[int, int]] = []
        self.second_sentinel: dict[int, int] = {}  # uncut cylinder -> side
        self.cyl_of: dict[int, Cylinder] = {}
        self.cyl_pos: dict[int, int] = {}    # square -> index in its cylinder
        for z in cylinders(o):
            for k, s in enumerate(z.squares):
                self.cyl_of[s] = z
                self.cyl_pos[s] = k

    # -- registry helpers --------------------------------------------------

    def intern(self, label: Label) -> int:
        lab = self.label_ids.get(label)
        if lab is None:
            lab = self.label_ids[label] = len(self.label_at)
            self.label_at.append(label)
            sq = _is_square(label)
            self.square.append(sq)
            self.unprimed.append(sq and not label.marks)
            self.order.append(_label_key(label) if sq else None)
        return lab

    def new_side(self, label: Label, half: Optional[str], cyl: int) -> int:
        return self._add_side(self.intern(label), half, cyl)

    def _add_side(self, lab: int, half: Optional[str], cyl: int) -> int:
        sid = len(self.sides)
        self.sides.append(_Side(self.label_at[lab], half, cyl))
        self.lab.append(lab)
        return sid

    def primed(self, sid: int, mark: int) -> int:
        """A new side like sid whose label carries one more mark."""
        key = (self.lab[sid], mark)
        lab = self.primes.get(key)
        side = self.sides[sid]
        if lab is None:
            label = SLabel(side.label.square, side.label.marks + (mark,))
            lab = self.primes[key] = self.intern(label)
        return self._add_side(lab, side.half, side.cyl)

    def new_lid(self) -> int:
        lid = self._next_list
        self._next_list += 1
        return lid

    def new_list(self, sides, cyclic: bool, kind: str, cyl: int) -> int:
        return self.put_list(self.new_lid(), sides, cyclic, kind, cyl)

    def put_list(self, lid: int, sides, cyclic: bool, kind: str,
                 cyl: int) -> int:
        """Store a list under a lid taken before with new_lid."""
        lst = self.lists[lid] = LabeledList(lid, tuple(sides), cyclic, kind, cyl)
        lab, square = self.lab, self.square
        labs = self.labs[lid] = [lab[s] for s in lst.sides]
        self.own[lid] = [l for l in labs if square[l]]
        return lid

    def position(self, lid: int) -> dict[int, int]:
        """Side -> index in the stored list lid."""
        pos = self.positions.get(lid)
        if pos is None:
            pos = self.positions[lid] = {
                s: k for k, s in enumerate(self.lists[lid].sides)}
        return pos

    def label_of(self, sid: int) -> Label:
        return self.sides[sid].label

    def settle(self, lid: int) -> None:
        """Record lid as the pool list holding each of its sides."""
        for s in self.lists[lid].sides:
            self.home[s] = lid

    def labels(self, lid: int) -> list[Label]:
        return [self.label_at[l] for l in self.labs[lid]]

    def pool_lids(self) -> list[int]:
        return [lid for _, lid in self.u_section + self.o_section + self.lz_section]

    # -- stage 2 initialization --------------------------------------------

    def init_lists(self, cuts: list[Cylinder]) -> None:
        cut_bases = {z.base for z in cuts}
        for z in cylinders(self.o):
            base = z.base
            n = z.length
            lower = [base]
            s = base
            for _ in range(n - 1):
                s = self.o.p1(s)
                lower.append(s)
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


def _splice(pool: Pool, lid: int, sides: list[int], labs: list[int],
            mid: int, at: int, events: list[tuple], clean: bool) -> int:
    """Splice pool list mid into the accumulator (lid, sides, labs) at the
    first occurrence of label id `at` in each,
    [a.., at, b..] + [c.., at, d..] -> [a.., d.., c.., b..], in place, then
    cancel; returns the accumulator's new lid.

    When `clean`, no two adjacent labels of the accumulator are equal (it
    is a cancellation result), so the pairs inside a and inside b need no
    check."""
    M, lab_m = pool.lists[mid].sides, pool.labs[mid]
    try:
        i, j = labs.index(at), lab_m.index(at)
    except ValueError:
        raise NoCommonLabel(
            f"label {format_label(pool.label_at[at])} missing") from None
    glued = sides[i]
    b = len(labs) - i - 1
    sides[i:i + 1] = M[j + 1:] + M[:j]
    labs[i:i + 1] = lab_m[j + 1:] + lab_m[:j]
    rid = pool.new_lid()
    events.append(("merge", rid, lid, mid, glued, M[j]))
    if clean:
        return _cancel_all(pool, rid, sides, labs, events, max(i - 1, 0),
                           len(labs) - b)
    return _cancel_all(pool, rid, sides, labs, events, 0, len(labs))


def _cancel_all(pool: Pool, lid: int, sides: list[int], labs: list[int],
                events: list[tuple], k: int, clean_from: int) -> int:
    """Remove the first adjacent pair of equal labels, else the wrap-around
    pair, until neither exists.  The accumulator is edited in place and
    each removal logs an event under a fresh lid; returns the last lid.

    Only the pairs (j, j+1) with k <= j < clean_from can be equal: the
    ones before k were checked, the ones from clean_from on lie in a clean
    suffix.  After removing (k, k+1) the scan resumes at k-1."""
    while True:
        n = len(labs)
        stop = min(clean_from, n - 1)
        while k < stop and labs[k] != labs[k + 1]:
            k += 1
        if k < stop:
            s1, s2 = sides[k], sides[k + 1]
            del sides[k:k + 2], labs[k:k + 2]
            clean_from = max(clean_from - 2, k)
            k = max(k - 1, 0)
        elif n >= 2 and labs[-1] == labs[0]:
            s1, s2 = sides[-1], sides[0]
            del sides[-1], sides[0], labs[-1], labs[0]
            k = max(n - 3, 0)
        else:
            return lid
        rid = pool.new_lid()
        events.append(("cancel", rid, lid, s1, s2))
        lid = rid


def merge_all(pool: Pool) -> tuple[int, MergeHistory]:
    """Splice the whole pool into a single list P.

    Policy: the accumulator starts as the first pool list; each round it
    is spliced with the first remaining list sharing a label, at the first
    common label in that list's stored order, unprimed labels preferred.

    The first sharing list is found through an index: `holders` maps a
    label id to the pool positions holding it, `count` counts the label
    ids in the accumulator, and `heap` holds every remaining position
    that shares a label (pushed when the accumulator gains one of its
    labels; entries that no longer share are dropped when popped).
    """
    remaining = pool.pool_lids()
    if not remaining:
        raise ValueError("empty pool")
    history = MergeHistory(initial=list(remaining))
    events = history.events
    lab, square, unprimed = pool.lab, pool.square, pool.unprimed
    own = [pool.own[lid] for lid in remaining]
    holders: dict[int, list[int]] = {}
    for pos in range(1, len(remaining)):
        for l in own[pos]:
            holders.setdefault(l, []).append(pos)
    alive = [pos > 0 for pos in range(len(remaining))]
    count = [0] * len(square)
    heap: list[int] = []

    def absorb(pos: int) -> None:
        alive[pos] = False
        for l in own[pos]:
            if not count[l]:
                for p in holders.get(l, ()):
                    if alive[p]:
                        heapq.heappush(heap, p)
            count[l] += 1

    absorb(0)
    acc = remaining[0]
    sides, labs = list(pool.lists[acc].sides), list(pool.labs[acc])
    for r in range(len(remaining) - 1):
        at = None
        while heap and at is None:
            pos = heapq.heappop(heap)
            if alive[pos]:
                for l in own[pos]:
                    if count[l]:
                        if unprimed[l]:
                            at = l
                            break
                        if at is None:
                            at = l
        if at is None:
            raise Disconnected("pool does not splice to a single list")
        absorb(pos)
        logged = len(events)
        acc = _splice(pool, acc, sides, labs, remaining[pos], at, events, r > 0)
        for ev in events[logged:]:
            l = lab[ev[-1]]  # the glued or cancelled pair shares one label
            if square[l]:
                count[l] -= 2
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
        inside = Counter(l for l in labs[i + 1:j] if square[l])
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
    merge history to a chain of pairs, each inside one original pool list."""
    final = pool.lists[history.final]
    aid = pool.label_ids.get(alpha)
    occ = [s for s in final.sides if pool.lab[s] == aid]
    if len(occ) != 2:
        raise InconsistentChain("alpha must occur exactly twice")
    a1, a2 = occ  # a1 is the earlier occurrence in stored order
    # the right operand of a merge is an initial list, and each side lies
    # in exactly one initial list
    initial_of = {s: lid for lid in history.initial
                  for s in pool.lists[lid].sides}
    # pairs [side, side, lid of the list holding both], linked in chain
    # order by `after`; `tagged` indexes them by that lid, so an event that
    # touches none of them costs one dict lookup
    pairs: list[list[int]] = [[a1, a2, history.final]]
    after = [-1]
    tagged: dict[int, list[int]] = {history.final: [0]}
    for ev in reversed(history.events):
        group = tagged.pop(ev[1], None)
        if group is None:
            continue
        if ev[0] == "cancel":
            for k in group:
                pairs[k][2] = ev[2]
            tagged.setdefault(ev[2], []).extend(group)
            continue
        _, rid, lid, mid, gl, gm = ev
        for k in group:
            pair = pairs[k]
            sa, sb, _ = pair
            pa = mid if initial_of.get(sa) == mid else lid
            pb = mid if initial_of.get(sb) == mid else lid
            if pa == pb:
                pair[2] = pa
                tagged.setdefault(pa, []).append(k)
                continue
            if pa == lid:
                pair[:], rest = [sa, gl, lid], [gm, sb, mid]
            else:
                pair[:], rest = [sa, gm, mid], [gl, sb, lid]
            r = len(pairs)
            pairs.append(rest)
            after.append(after[k])
            after[k] = r
            tagged.setdefault(pair[2], []).append(k)
            tagged.setdefault(rest[2], []).append(r)
    initial = set(history.initial)
    chain: PairChain = []
    k = 0
    while k >= 0:
        sa, sb, tag = pairs[k]
        k = after[k]
        if tag not in initial:
            raise InconsistentChain(f"pair not traced to a pool list: {tag}")
        ha, hb = pool.sides[sa].half, pool.sides[sb].half
        if ha != hb or ha is None:
            raise InconsistentChain("pair straddles list halves")
        chain.append(ChainPair(sa, sb, tag, ha, pool.sides[sa].cyl))
    # emission starts with a lower-boundary pair when possible
    if chain and chain[0].half == "o" and chain[-1].half == "u":
        chain = [
            ChainPair(p.side_b, p.side_a, p.lid, p.half, p.cyl)
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
        k = pool.position(lid)[pool.second_sentinel[lst.cyl]]
        return (1, k, True) if half == "u" else (k + 1, len(lst.sides), True)
    if lst.kind != half:
        raise InconsistentChain(f"{half!r} pair in a {lst.kind!r} list")
    return 0, len(lst.sides), lst.cyclic


def _underlying(pool: Pool, sid: int) -> int:
    """The square of the pair's cylinder that carries this boundary label:
    the label itself on the lower boundary, its p2-preimage on the upper."""
    side = pool.sides[sid]
    sq = side.label.square
    return sq if side.half == "u" else pool.o.p2.inverse_of(sq)


def _p1_steps(pool: Pool, cyl: Cylinder, a: int, b: int) -> int:
    """Forward steps 0 <= t < length with p1^t(a) = b."""
    z = pool.cyl_of[a]
    t = (pool.cyl_pos[b] - pool.cyl_pos[a]) % z.length
    if pool.cyl_of[b] is not z or t > cyl.length:
        raise InconsistentChain("squares not in the same cylinder")
    return t


def _pair_exponent(pool: Pool, pair: ChainPair) -> int:
    """Signed x-exponent of the pair's syllable.

    Cyclic lists: minimal |t| with p1^t carrying the first underlying
    square to the second (ties at half the cylinder length resolve
    positive).  Non-cyclic lists: the directed step count given by the
    stored positions (lower-boundary lists run with p1, upper against it).

    It depends only on the pair's list, which never changes, so it is
    computed once per pair: emission and the next round's split share it.
    """
    key = (pair.lid, pair.side_a, pair.side_b)
    e = pool.exponents.get(key)
    if e is None:
        e = pool.exponents[key] = _exponent(pool, pair)
    return e


def _exponent(pool: Pool, pair: ChainPair) -> int:
    _, _, cyclic = _half_bounds(pool, pair.lid, pair.half)
    cyl = pool.cyl_of[pair.cyl]
    a = _underlying(pool, pair.side_a)
    b = _underlying(pool, pair.side_b)
    if a == b:
        raise InconsistentChain("pair joins a square to itself")
    t0 = _p1_steps(pool, cyl, a, b)
    n = cyl.length
    if cyclic:
        if 2 * t0 < n or 2 * t0 == n:
            return t0
        return t0 - n
    pos = pool.position(pair.lid)
    if (pair.half == "u") == (pos[pair.side_a] < pos[pair.side_b]):
        return t0
    return t0 - n


def emit_curve(pool: Pool, chain: PairChain) -> OrigamiCurve:
    """Turn a pair chain into a closed horizontal curve: each lower-half
    pair contributes x^t y^-1, each upper-half pair x^t y."""
    if not chain:
        raise InconsistentChain("empty chain")
    first = chain[0]
    alpha0 = pool.sides[first.side_a].label.square
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
    for pair in chain:
        lid = pool.home.get(pair.side_a)
        if lid is None:
            raise InconsistentChain(f"side {pair.side_a} not in any pool list")
        if pool.home.get(pair.side_b) != lid:
            raise InconsistentChain("chain pair torn across lists")
        lst = pool.lists[lid]
        lo, hi, cyclic = _half_bounds(pool, lid, pair.half)
        e = _pair_exponent(pool, pair)
        forward = (e > 0) if pair.half == "u" else (e < 0)
        role_a, role_b = (pair.side_a, pair.side_b) if forward else (
            pair.side_b, pair.side_a)
        pos = pool.position(lid)
        ia, ib = pos[role_a], pos[role_b]
        sides = lst.sides
        if ia < ib:
            between = sides[ia + 1:ib]
        elif cyclic:
            between = sides[ia + 1:hi] + sides[lo:ib]
        else:
            raise InconsistentChain(
                "sweep must run forward in a non-cyclic list")

        mark_0, mark_1 = (1, 2) if pair.half == "u" else (2, 1)
        a_l0, b_l0 = pool.primed(role_a, mark_0), pool.primed(role_b, mark_1)
        a_l1, b_l1 = pool.primed(role_a, mark_1), pool.primed(role_b, mark_0)
        l1 = pool.new_list((a_l1,) + between + (b_l1,), False, pair.half,
                           pair.cyl)
        pool.settle(l1)
        del pool.home[role_a], pool.home[role_b]  # replaced by primed copies
        if ia < ib:
            kept = sides[:ia] + (a_l0, b_l0) + sides[ib + 1:]
        else:
            kept = sides[:lo] + (b_l0,) + sides[ib + 1:ia] + (a_l0,) + sides[hi:]
        l0 = pool.new_list(kept, lst.cyclic, lst.kind, lst.cyl)
        pool.settle(l0)
        if lst.kind == "lz":
            replaced[lid] = (l0,)
            joining[pair.half].setdefault(pair.cyl, []).append(l1)
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

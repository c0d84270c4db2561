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

All policies (bridging order, splice partner and label selection,
cancellation, tie-breaks) are fixed and deterministic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .freegroup import Word
from .origami import Cylinder, Origami, OrigamiCurve, cylinders, genus

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
    "concatenate",
    "merge_all",
    "find_separating_pair",
    "backtrack",
    "emit_curve",
    "step3_update",
    "find_hss",
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

    def is_connected(self) -> bool:
        n = len(self.cyls)
        adj = {v: set() for v in range(2 * n)}
        for i, j in self.edges:
            adj[2 * i].add(2 * j + 1)   # z_i^o -- z_j^u
            adj[2 * j + 1].add(2 * i)
        for i in self.bridges:
            adj[2 * i].add(2 * i + 1)
            adj[2 * i + 1].add(2 * i)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == 2 * n


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
    else:
        assert sorted(order) == list(range(ncyl)), "order must permute cylinders"
    uf = _UnionFind(2 * ncyl)
    for i, j in edges:
        uf.union(2 * i, 2 * j + 1)
    bridges = []
    for i in order:
        if uf.union(2 * i, 2 * i + 1):
            bridges.append(i)
    graph = HalfCylinderGraph(cyls, edges, bridges)
    assert graph.is_connected(), "surface not connected after bridging"
    cuts = [z for i, z in enumerate(cyls) if i not in bridges]
    return cuts, graph


# ---------------------------------------------------------------------------
# labeled lists over side objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Side:
    """One occurrence of a label on the cut boundary.  Identity matters:
    sides survive splicing and are tracked through the merge history."""

    label: Label
    half: Optional[str]      # 'u' (lower boundary), 'o' (upper), None sentinel
    cyl: int                 # base square of the owning cylinder


@dataclass(frozen=True)
class LabeledList:
    """An immutable list of sides with a cyclic flag.

    kind: 'u' / 'o' for boundary lists, 'lz' for an uncut cylinder's
    combined list [a_Z, lower..., a_Z, upper...], 'm' for merge results.
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
    every list ever formed, and the current pool sections."""

    def __init__(self, o: Origami):
        self.o = o
        self.sides: dict[int, _Side] = {}
        self.lists: dict[int, LabeledList] = {}
        self._next_side = 0
        self._next_list = 0
        # sections hold (cylinder base, lid), kept sorted by cylinder
        self.u_section: list[tuple[int, int]] = []
        self.o_section: list[tuple[int, int]] = []
        self.lz_section: list[tuple[int, int]] = []
        self.cyl_of: dict[int, Cylinder] = {}
        for z in cylinders(o):
            for s in z.squares:
                self.cyl_of[s] = z

    # -- registry helpers --------------------------------------------------

    def new_side(self, label: Label, half: Optional[str], cyl: int) -> int:
        sid = self._next_side
        self._next_side += 1
        self.sides[sid] = _Side(label, half, cyl)
        return sid

    def new_list(self, sides, cyclic: bool, kind: str, cyl: int) -> int:
        lid = self._next_list
        self._next_list += 1
        self.lists[lid] = LabeledList(lid, tuple(sides), cyclic, kind, cyl)
        return lid

    def label_of(self, sid: int) -> Label:
        return self.sides[sid].label

    def labels(self, lid: int) -> list[Label]:
        return [self.label_of(s) for s in self.lists[lid].sides]

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
            else:
                a1 = self.new_side(Sentinel(base), None, base)
                a2 = self.new_side(Sentinel(base), None, base)
                lz = self.new_list([a1] + u_sides + [a2] + o_sides, True, "lz", base)
                self.lz_section.append((base, lz))
        for section in (self.u_section, self.o_section, self.lz_section):
            section.sort(key=lambda pair: pair[0])


def init_lists(o: Origami, cuts: list[Cylinder]) -> Pool:
    pool = Pool(o)
    pool.init_lists(cuts)
    return pool


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------


def concatenate(pool: Pool, lid: int, mid: int, at: Label,
                history: Optional[MergeHistory] = None) -> int:
    """Splice two lists at the first occurrence of `at` in each:
    [a.., at, b..] + [c.., at, d..] -> [a.., d.., c.., b..], followed by
    repeated cancellation of adjacent equal labels (with wrap-around).
    Returns the lid of the result."""
    assert lid != mid, "cannot splice a list with itself"
    L, M = pool.lists[lid], pool.lists[mid]
    try:
        i = next(k for k, s in enumerate(L.sides) if pool.label_of(s) == at)
        j = next(k for k, s in enumerate(M.sides) if pool.label_of(s) == at)
    except StopIteration:
        raise NoCommonLabel(f"label {format_label(at)} missing") from None
    a, b = L.sides[:i], L.sides[i + 1:]
    c, d = M.sides[:j], M.sides[j + 1:]
    rid = pool.new_list(a + d + c + b, True, "m", 0)
    if history is not None:
        history.events.append(("merge", rid, lid, mid, L.sides[i], M.sides[j]))
    return _cancel_all(pool, rid, history)


def _cancel_all(pool: Pool, lid: int, history: Optional[MergeHistory]) -> int:
    while True:
        sides = pool.lists[lid].sides
        n = len(sides)
        hit = None
        for k in range(n - 1):
            if pool.label_of(sides[k]) == pool.label_of(sides[k + 1]):
                hit = (k, k + 1)
                break
        if hit is None and n >= 2 and pool.label_of(sides[-1]) == pool.label_of(sides[0]):
            hit = (n - 1, 0)
        if hit is None:
            return lid
        k1, k2 = hit
        removed = {sides[k1], sides[k2]}
        rid = pool.new_list(
            [s for s in sides if s not in removed], True, "m", 0
        )
        if history is not None:
            history.events.append(("cancel", rid, lid, sides[k1], sides[k2]))
        lid = rid


def merge_all(pool: Pool) -> tuple[int, MergeHistory]:
    """Splice the whole pool into a single list P.

    Policy: the accumulator starts as the first pool list; each round it
    is spliced with the first remaining list sharing a label, at the first
    common label in that list's stored order, unprimed labels preferred.
    """
    remaining = pool.pool_lids()
    assert remaining, "empty pool"
    history = MergeHistory(initial=list(remaining))
    acc = remaining.pop(0)
    while remaining:
        acc_labels = {l for l in pool.labels(acc) if _is_square(l)}
        chosen = None
        for idx, mid in enumerate(remaining):
            m_order = [l for l in pool.labels(mid) if _is_square(l)]
            common = [l for l in m_order if l in acc_labels]
            if common:
                unprimed = [l for l in common if not l.marks]
                chosen = (idx, mid, unprimed[0] if unprimed else common[0])
                break
        if chosen is None:
            raise Disconnected("pool does not splice to a single list")
        idx, mid, at = chosen
        remaining.pop(idx)
        acc = concatenate(pool, acc, mid, at, history)
    history.final = acc
    return acc, history


def replay(pool: Pool, history: MergeHistory) -> tuple[int, ...]:
    """Re-run the logged events from the initial lists; returns the
    reconstructed final side sequence (for the replay invariant)."""
    state = {lid: list(pool.lists[lid].sides) for lid in history.initial}
    for ev in history.events:
        if ev[0] == "merge":
            _, rid, lid, mid, gl, gm = ev
            L, M = state.pop(lid), state.pop(mid)
            i, j = L.index(gl), M.index(gm)
            state[rid] = L[:i] + M[j + 1:] + M[:j] + L[i + 1:]
        else:
            _, rid, pid, s1, s2 = ev
            state[rid] = [s for s in state.pop(pid) if s not in (s1, s2)]
    assert set(state) == {history.final}
    return tuple(state[history.final])


# ---------------------------------------------------------------------------
# separating pairs
# ---------------------------------------------------------------------------


def find_separating_pair(labels: Sequence) -> tuple:
    """In a cyclic label sequence where every square label occurs twice,
    find (alpha, beta): the two alpha occurrences split the sequence into
    two arcs each holding exactly one beta.  Deterministic: smallest alpha
    first, then smallest beta; sentinels are never selected."""
    squares = [l for l in labels if _is_square(l)]
    occ: dict = {}
    for k, l in enumerate(labels):
        if _is_square(l):
            occ.setdefault(l, []).append(k)
    for alpha in sorted(set(squares), key=_label_key):
        if len(occ[alpha]) != 2:
            continue
        i, j = occ[alpha]
        inside = [l for l in labels[i + 1:j] if _is_square(l)]
        outside = [l for l in (list(labels[j + 1:]) + list(labels[:i])) if _is_square(l)]
        for beta in sorted(set(squares), key=_label_key):
            if beta == alpha:
                continue
            if inside.count(beta) == 1 and outside.count(beta) == 1:
                return alpha, beta
    raise NoPairFound("no separating pair of labels")


# ---------------------------------------------------------------------------
# backtracking
# ---------------------------------------------------------------------------


def backtrack(pool: Pool, history: MergeHistory, alpha: Label) -> PairChain:
    """Trace the pair (alpha, alpha) of the final list back through the
    merge history to a chain of pairs, each inside one original pool list."""
    final = pool.lists[history.final]
    occ = [s for s in final.sides if pool.label_of(s) == alpha]
    assert len(occ) == 2, "alpha must occur exactly twice"
    a1, a2 = occ  # a1 is the earlier occurrence in stored order
    pairs: list[tuple[int, int, int]] = [(a1, a2, history.final)]
    for ev in reversed(history.events):
        if ev[0] == "cancel":
            _, rid, pid, _, _ = ev
            pairs = [(sa, sb, pid if tag == rid else tag) for sa, sb, tag in pairs]
            continue
        _, rid, lid, mid, gl, gm = ev
        lset = set(pool.lists[lid].sides)
        out = []
        for sa, sb, tag in pairs:
            if tag != rid:
                out.append((sa, sb, tag))
                continue
            pa = lid if sa in lset else mid
            pb = lid if sb in lset else mid
            if pa == pb:
                out.append((sa, sb, pa))
            elif pa == lid:
                out.append((sa, gl, lid))
                out.append((gm, sb, mid))
            else:
                out.append((sa, gm, mid))
                out.append((gl, sb, lid))
        pairs = out
    initial = set(history.initial)
    chain: PairChain = []
    for sa, sb, tag in pairs:
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


def _half_entries(pool: Pool, lid: int, half: str) -> tuple[list[int], bool]:
    """The stored side sequence relevant to a pair in list lid, and whether
    it is cyclic: whole list for 'u'/'o' lists, the matching half (always
    cyclic) for an uncut cylinder's combined list."""
    lst = pool.lists[lid]
    if lst.kind == "lz":
        return [s for s in lst.sides if pool.sides[s].half == half], True
    assert lst.kind == half
    return list(lst.sides), lst.cyclic


def _underlying(pool: Pool, sid: int) -> int:
    """The square of the pair's cylinder that carries this boundary label:
    the label itself on the lower boundary, its p2-preimage on the upper."""
    side = pool.sides[sid]
    sq = side.label.square
    return sq if side.half == "u" else pool.o.p2.inverse_of(sq)


def _p1_steps(pool: Pool, cyl: Cylinder, a: int, b: int) -> int:
    """Forward steps 0 <= t < length with p1^t(a) = b."""
    t = 0
    s = a
    while s != b:
        s = pool.o.p1(s)
        t += 1
        assert t <= cyl.length, "squares not in the same cylinder"
    return t


def _pair_exponent(pool: Pool, pair: ChainPair) -> int:
    """Signed x-exponent of the pair's syllable.

    Cyclic lists: minimal |t| with p1^t carrying the first underlying
    square to the second (ties at half the cylinder length resolve
    positive).  Non-cyclic lists: the directed step count given by the
    stored positions (lower-boundary lists run with p1, upper against it).
    """
    entries, cyclic = _half_entries(pool, pair.lid, pair.half)
    cyl = pool.cyl_of[pair.cyl]
    a = _underlying(pool, pair.side_a)
    b = _underlying(pool, pair.side_b)
    assert a != b
    t0 = _p1_steps(pool, cyl, a, b)
    n = cyl.length
    if cyclic:
        if 2 * t0 < n or 2 * t0 == n:
            return t0
        return t0 - n
    i, j = entries.index(pair.side_a), entries.index(pair.side_b)
    if (pair.half == "u") == (i < j):
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


def _section_of(pool: Pool, half: str) -> list[tuple[int, int]]:
    return pool.u_section if half == "u" else pool.o_section


def _locate(pool: Pool, sid: int) -> int:
    for lid in pool.pool_lids():
        if sid in pool.lists[lid].sides:
            return lid
    raise InconsistentChain(f"side {sid} not in any pool list")


def step3_update(pool: Pool, chain: PairChain) -> None:
    """Split, for every chain pair in order, the pool list holding it.

    With roles ordered along the curve's sweep direction in stored order,
    the list [a.., r_s, b.., r_{s+1}, c..] becomes
      L0 = [a.., r_s', r_{s+1}'', c..]  and  L1 = (r_s'', b.., r_{s+1}')
    on the lower boundary (primes swapped on the upper); L0 keeps the
    parent's kind and cyclicity, L1 is non-cyclic.  An uncut cylinder's
    combined list keeps L0 embedded; every L1 joins the matching section.
    """
    for pair in chain:
        lid = _locate(pool, pair.side_a)
        lst = pool.lists[lid]
        assert pair.side_b in lst.sides, "chain pair torn across lists"
        entries, cyclic = _half_entries(pool, lid, pair.half)
        e = _pair_exponent(pool, pair)
        forward = (e > 0) if pair.half == "u" else (e < 0)
        role_a, role_b = (pair.side_a, pair.side_b) if forward else (
            pair.side_b, pair.side_a)
        ia, ib = entries.index(role_a), entries.index(role_b)
        if cyclic:
            if ia < ib:
                between = entries[ia + 1:ib]
            else:
                between = entries[ia + 1:] + entries[:ib]
        else:
            assert ia < ib, "sweep must run forward in a non-cyclic list"
            between = entries[ia + 1:ib]

        def primed(sid: int, mark: int) -> int:
            side = pool.sides[sid]
            label = SLabel(side.label.square, side.label.marks + (mark,))
            return pool.new_side(label, side.half, side.cyl)

        if pair.half == "u":
            a_l0, a_l1, b_l0, b_l1 = 1, 2, 2, 1
        else:
            a_l0, a_l1, b_l0, b_l1 = 2, 1, 1, 2
        sub = {role_a: primed(role_a, a_l0), role_b: primed(role_b, b_l0)}
        drop = set(between)
        l1_sides = [primed(role_a, a_l1)] + between + [primed(role_b, b_l1)]
        l1 = pool.new_list(l1_sides, False, pair.half, pair.cyl)

        if lst.kind == "lz":
            new_sides = [
                sub.get(s, s) for s in lst.sides if s not in drop
            ]
            new_lz = pool.new_list(new_sides, True, "lz", lst.cyl)
            k = pool.lz_section.index((lst.cyl, lid))
            pool.lz_section[k] = (lst.cyl, new_lz)
        else:
            l0_sides = [sub.get(s, s) for s in entries if s not in drop]
            l0 = pool.new_list(l0_sides, lst.cyclic, lst.kind, lst.cyl)
            section = _section_of(pool, pair.half)
            k = section.index((lst.cyl, lid))
            section[k] = (lst.cyl, l0)
            section.insert(k + 1, (lst.cyl, l1))
            continue
        # L1 from a combined list joins its section, ordered by cylinder
        section = _section_of(pool, pair.half)
        k = bisect.bisect_right([c for c, _ in section], pair.cyl)
        section.insert(k, (pair.cyl, l1))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class HssResult:
    curves: list[OrigamiCurve]
    cut_cylinders: list[Cylinder]
    graph: HalfCylinderGraph
    histories: list[MergeHistory] = field(default_factory=list)


def find_hss_detailed(o: Origami) -> HssResult:
    g = genus(o)
    cuts, graph = step1(o)
    curves = [
        OrigamiCurve(z.base, Word(2, [(1, z.length)])) for z in cuts
    ]
    assert len(curves) <= g, "more cylinder cuts than the genus allows"
    if len(curves) == g:
        return HssResult(curves, cuts, graph)
    pool = init_lists(o, cuts)
    chain: Optional[PairChain] = None
    histories: list[MergeHistory] = []
    while len(curves) < g:
        if chain is not None:
            step3_update(pool, chain)
        final, history = merge_all(pool)
        histories.append(history)
        alpha, _beta = find_separating_pair(pool.labels(final))
        chain = backtrack(pool, history, alpha)
        curves.append(emit_curve(pool, chain))
    return HssResult(curves, cuts, graph, histories)


def find_hss(o: Origami) -> list[OrigamiCurve]:
    """A horizontal Schottky cut system: g closed horizontal curves."""
    return find_hss_detailed(o).curves

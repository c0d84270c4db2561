"""Reference implementations that only the tests call.

``concatenate`` is the splice of the rescan engine: it finds the glued
labels by label equality, cancels by rescanning from the front after
every removal, and stores every intermediate list in the pool.  ``replay``
re-runs a merge history from its initial lists, and ``replay_backtrack``
traces a pair back by replaying the history's events in reverse from
the list P that ``replay`` rebuilds; it reads a side's half by
``side_half``, a scan of its list's labels.  They
check the indexed engine of ``origami_forge.hss`` from outside.
``pool_labels`` lists a pool list's labels, ``format_label`` prints one
(``hss`` prints none since its splice cannot miss its label), and
``find_separating_pair`` runs the separating-pair search on labels
instead of label ids.
``SectionPool`` keeps the pool order as three sections, rebuilt once per
round by ``resection``, as stage 3 did before it kept one list, and finds
each chain pair's list through its own side -> list map.

``smith_normal_form`` keeps both unimodular transforms, so one
factorisation answers any number of integer solves.  The H1 model, the
induced action and the symplectic completion are checked against Smith
forms: ``snf_symplectic_completion`` is the completion that
``homology.symplectic_completion`` replaced.  ``mat_vec``, ``transpose``
and ``mat_mul`` are dense integer matrix products, and ``mat2_mul``
multiplies the 2 x 2 matrices of ``freegroup``, kept as (a, b, c, d).

``d1``, ``d2`` and ``coord_rows`` are the dense boundary and coordinate
matrices that the sparse H1 model no longer stores, and ``basis_cycles``
rebuilds the basis cycles it does not store either; ``DenseH1`` computes
coordinates, pairings and Lagrangian rows by dense products through them.
They take the origami, or the model's, and number its vertices by
``vertex_index``, in the order of ``o.corner_orbits``.
``spliced_order`` contracts the spanning tree by splicing vertex circles
under a union-find, as ``homology`` did before it contracted in one walk,
and ``rotation_of`` works the rotation system out from p1, p2 and the
corner permutation, as ``homology`` did before it read it off the squares'
boundary table.

``compose`` and ``identity_endo`` build F_2 endomorphisms, and
``composed_lift`` lifts a matrix as ``lift_matrix`` did before it folded
the Nielsen factors with ``freegroup.apply_factors``: by composing one
Nielsen automorphism per factor.

``letter_reduce`` is the free reduction that ``freegroup._reduce``
replaced: it expands a run x^e into |e| letters and pushes them one at a
time.  ``word_cyclic_reduce``, ``rotations``, ``rotation_conjugator`` and
``power_root`` are the cyclic-word algebra as ``freegroup`` ran it before
it compared letter tuples: the core peeled off one end pair at a time,
each rotation and prefix built as a Word, and each candidate root raised
to a Word power.  ``corner_of`` composes the corner permutation square by
square, as ``Origami.corner`` did before it took one product of
permutations.  ``power`` steps a square k times along a permutation, against
which ``Permutation.__pow__`` is checked; ``trace_curve`` lists the
squares a curve visits, one ``Permutation`` call per letter, against which
``act_word`` and ``letter_edges`` are checked; and ``contains`` tests a
word for membership in the stabilizer H of the base square.

``induced_matrix`` computes the action of an automorphism of F_2 on H1
from a Schreier system and a Smith form; the twist certificate is checked
against it.  ``aut_stabilizes`` runs the covering test on the monodromy
pair of a lifted automorphism, which ``subgroup.veech_witness`` builds
from Nielsen factors instead.  ``rescan_cover`` is the covering test as
``subgroup._cover`` ran it before it built one spanning tree: a fresh
breadth-first search over dicts for every candidate square.  ``puncture_relations`` gives one relation
of H per vertex orbit.  ``inner`` is conjugation by a word, and
``is_horizontal`` tests a word for the block shape of horizontal words.
"""
from dataclasses import dataclass
from typing import Optional, Sequence

from origami_forge import linalg
from origami_forge.freegroup import (
    F2Endo,
    IndexOutOfRange,
    NEG_X,
    NEG_Y,
    SWAP,
    IntMatrix2,
    RankMismatch,
    Word,
    gen,
    horizontal_twist_lift,
    nielsen_factors,
)
from origami_forge.homology import (
    CertificateError,
    H1Model,
    NotPrimitive,
    _check_lagrangian,
    _dot,
    class_of,
    h1_model,
    standard_j,
)
from origami_forge.hss import (
    ChainPair,
    InconsistentChain,
    NoCommonLabel,
    Sentinel,
    SLabel,
    _exponent,
    _separating_pair,
)
from origami_forge.origami import (
    Origami,
    OrigamiCurve,
    Permutation,
    act_word,
    vertex_orbits,
)
from origami_forge.subgroup import CosetAction, _cover, schreier_system


def compose(phi: F2Endo, psi: F2Endo) -> F2Endo:
    """phi after psi."""
    return F2Endo(
        phi(psi.image_x),
        phi(psi.image_y),
        phi.is_automorphism and psi.is_automorphism,
    )


def identity_endo() -> F2Endo:
    return F2Endo(gen(2, 1), gen(2, 2), True)


def composed_lift(A: IntMatrix2) -> F2Endo:
    """The composite of the Nielsen automorphisms lifting
    `nielsen_factors(A)`: x <-> y for SWAP, x -> x^-1 for NEG_X,
    y -> y^-1 for NEG_Y and x -> x, y -> x^q y for T^q."""
    lifts = {SWAP: F2Endo(gen(2, 2), gen(2, 1), True),
             NEG_X: F2Endo(gen(2, 1, -1), gen(2, 2), True),
             NEG_Y: F2Endo(gen(2, 1), gen(2, 2, -1), True)}
    phi = identity_endo()
    for F in nielsen_factors(A):
        phi = compose(phi, lifts.get(F) or horizontal_twist_lift(F[1]))
    return phi


def letter_reduce(rank, letters):
    """Free reduction letter by letter: each letter (g, +-1) of the
    expanded runs cancels the last kept letter or is kept."""
    out = []
    for g, e in letters:
        if not (1 <= g <= rank):
            raise IndexOutOfRange(f"generator {g} out of range 1..{rank}")
        for _ in range(abs(e)):
            step = 1 if e > 0 else -1
            if out and out[-1] == (g, -step):
                out.pop()
            else:
                out.append((g, step))
    return tuple(out)


def word_cyclic_reduce(w: Word) -> tuple:
    """(core, conjugator) with w = conjugator * core * conjugator^-1,
    peeling one cancelling end pair at a time off a list and re-slicing
    it after each."""
    letters = list(w.letters)
    pre = []
    while (len(letters) >= 2 and letters[0][0] == letters[-1][0]
           and letters[0][1] == -letters[-1][1]):
        pre.append(letters[0])
        letters = letters[1:-1]
    return Word(w.rank, letters), Word(w.rank, pre)


def rotations(core: Word):
    """(k, the rotation by k, the prefix of k letters) of the cyclic core,
    each as a Word; k = 0 alone for the trivial word."""
    n = len(core.letters)
    for k in range(max(n, 1)):
        prefix = Word(core.rank, core.letters[:k])
        yield k, Word(core.rank, core.letters[k:] + core.letters[:k]), prefix


def rotation_conjugator(u: Word, v: Word) -> Optional[Word]:
    """g with v = g * u * g^-1 from the first rotation of u's core that
    equals v's core, compared as Words, or None."""
    if u.rank != v.rank:
        raise RankMismatch("ranks differ")
    cu, pu = word_cyclic_reduce(u)
    cv, pv = word_cyclic_reduce(v)
    if len(cu.letters) != len(cv.letters):
        return None
    for _, rot, prefix in rotations(cu):
        if rot == cv:
            return pv * prefix.inv() * pu.inv()
    return None


def power_root(u: Word) -> Word:
    """The primitive root of a non-trivial u: the shortest prefix r of its
    core, of length dividing the core's, whose power Word r^m is the core,
    conjugated back."""
    core, p = word_cyclic_reduce(u)
    n = len(core.letters)
    for d in range(1, n):
        if n % d == 0:
            r = Word(core.rank, core.letters[:d])
            if r ** (n // d) == core:
                return r.conj(p)
    return core.conj(p)


def corner_of(o: Origami, s: int) -> int:
    """s -> p2(p1(p2^-1(p1^-1(s)))), one range-checked permutation call
    per step: the corner permutation square by square."""
    return o.p2(o.p1(o.p2.inverse_of(o.p1.inverse_of(s))))


def power(p: Permutation, s: int, k: int) -> int:
    """Image of s under the k-th power of p (k may be negative), one step
    at a time."""
    for _ in range(abs(k)):
        s = p(s) if k > 0 else p.inverse_of(s)
    return s


def trace_curve(o: Origami, c: OrigamiCurve) -> list:
    """Successive squares visited; first entry is the start square.  Each
    letter steps through `Permutation.__call__` or `inverse_of`, not
    through the tables that `act_word` and `letter_edges` share."""
    out = [c.start]
    for g, e in c.word.letters:
        p = o.p1 if g == 1 else o.p2
        out.append(p(out[-1]) if e == 1 else p.inverse_of(out[-1]))
    return out


def contains(cs: CosetAction, w: Word) -> bool:
    """True iff w lies in H, i.e. its monodromy fixes the base square."""
    return act_word(cs.origami, cs.base, w) == cs.base


def format_label(label) -> str:
    """A label as printed: a_Z as ``a<cyl>``, a square label as its square
    followed by its marks (' for 1, " for 2)."""
    if isinstance(label, Sentinel):
        return f"a{label.cyl}"
    return str(label.square) + "".join("'" if m == 1 else '"' for m in label.marks)


def concatenate(pool, lid, mid, at, history=None):
    """Splice two pool lists at the first occurrence of label `at` in each:
    [a.., at, b..] + [c.., at, d..] -> [a.., d.., c.., b..], then cancel
    adjacent equal labels (with wrap-around).  Returns the result's lid."""
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
    return cancel_all(pool, rid, history)


def cancel_all(pool, lid, history):
    """Remove the first adjacent pair of equal labels, else the wrap-around
    pair, storing each intermediate list, until neither exists."""
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
        rid = pool.new_list([s for s in sides if s not in removed], True, "m", 0)
        if history is not None:
            history.events.append(("cancel", rid, lid, sides[k1], sides[k2]))
        lid = rid


def replay(pool, history):
    """Re-run the logged events from the initial lists; returns the
    reconstructed final side sequence."""
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
    if set(state) != {history.final}:
        raise AssertionError(f"history leaves lists {sorted(state)}")
    return tuple(state[history.final])


def replay_backtrack(pool, history, alpha):
    """backtrack by the event log: walk the events in reverse, and split
    every pair whose two sides a merge brings from different operands into
    (side, glued side) and (glued side, side).  The right operand of a
    merge is an initial list, so a side -> initial-list map tells the
    operands apart; split pairs are linked into chain order by `after`.
    The final list P comes from `replay`, not from the history's record
    of it."""
    aid = pool.label_ids.get(alpha)
    occ = [s for s in replay(pool, history) if pool.lab[s] == aid]
    if len(occ) != 2:
        raise InconsistentChain("alpha must occur exactly twice")
    a1, a2 = occ
    initial_of = {s: lid for lid in history.initial
                  for s in pool.lists[lid].sides}
    # pairs [side, side, lid of the list holding both]; `tagged` indexes
    # them by that lid
    pairs = [[a1, a2, history.final]]
    after = [-1]
    tagged = {history.final: [0]}
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
    chain = []
    k = 0
    while k >= 0:
        sa, sb, tag = pairs[k]
        k = after[k]
        if tag not in initial:
            raise InconsistentChain(f"pair not traced to a pool list: {tag}")
        ha, hb = side_half(pool, tag, sa), side_half(pool, tag, sb)
        if ha != hb or ha is None:
            raise InconsistentChain("pair straddles list halves")
        chain.append((sa, sb, tag, ha))
    if chain and chain[0][3] == "o" and chain[-1][3] == "u":
        chain = [(sb, sa, tag, h) for sa, sb, tag, h in reversed(chain)]
    return [ChainPair(*p, _exponent(pool, *p)) for p in chain]


def side_half(pool, lid, sid):
    """The boundary half of side sid in pool list lid, by a scan of the
    list's labels: the kind of a 'u' or 'o' list; in an uncut cylinder's
    list [a_Z, lower..., a_Z, upper...], 'u' between the two a_Z, 'o'
    after the second and None for an a_Z itself."""
    lst = pool.lists[lid]
    if lst.kind != "lz":
        return lst.kind
    half = None
    for s in lst.sides:
        sentinel = isinstance(pool.label_of(s), Sentinel)
        if sentinel:
            half = "o" if half else "u"
        if s == sid:
            return None if sentinel else half
    raise InconsistentChain(f"side {sid} not in list {lid}")


def half_span(pool, lid, half):
    """The span lo:hi of pool list lid's sides on the given half, found by
    `side_half`; a list without that half holds no pair of it."""
    lst = pool.lists[lid]
    on = [k for k, s in enumerate(lst.sides) if side_half(pool, lid, s) == half]
    if not on:
        raise InconsistentChain(f"{half!r} pair in a {lst.kind!r} list")
    return on[0], on[-1] + 1


def pool_labels(pool, lid):
    """The labels of stored list lid, in order."""
    return [pool.label_at[l] for l in pool.lists[lid].labs]


def _label_key(label):
    """Deterministic order on square labels: square first, then marks."""
    if isinstance(label, SLabel):
        return (label.square, label.marks)
    if isinstance(label, int):
        return (label, ())
    raise AssertionError(f"not a square label: {label}")


def _is_square(label) -> bool:
    return not isinstance(label, Sentinel)


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


class SectionPool:
    """The pool order of a pool as three sections, u, o and lz, each a list
    of (cylinder, lid) sorted by cylinder.  `step3_update` splits the pool
    lists as ``hss.step3_update`` does and rebuilds each section once by
    `resection`.  The pool's ``pool_order`` is set to the sections' lids
    after every update, so ``merge_all`` runs on this order.  Sides are
    found through ``home``, a map from every side of a pool list to that
    list, which ``hss.Pool`` no longer keeps."""

    def __init__(self, pool):
        self.sections = {"u": [], "o": [], "lz": []}
        self.home = {}
        for lid in sorted(pool.pool_order):
            lst = pool.lists[lid]
            self.sections[lst.kind].append((lst.cyl, lid))
            self.settle(pool, lid)
        for section in self.sections.values():
            section.sort(key=lambda pair: pair[0])
        pool.pool_order = self.lids()

    def lids(self):
        return [lid for kind in ("u", "o", "lz")
                for _, lid in self.sections[kind]]

    def settle(self, pool, lid):
        """Record lid as the pool list holding each of its sides."""
        self.home.update(dict.fromkeys(pool.lists[lid].sides, lid))

    def step3_update(self, pool, chain):
        replaced = {}  # split list -> its successors
        joining = {"u": {}, "o": {}}
        home = self.home
        for pair in chain:
            side_a, side_b, _, half, e = pair
            lid = home.get(side_a)
            if lid is None:
                raise InconsistentChain(f"side {side_a} not in any pool list")
            if home.get(side_b) != lid:
                raise InconsistentChain("chain pair torn across lists")
            lst = pool.lists[lid]
            lo, hi = half_span(pool, lid, half)
            forward = (e > 0) if half == "u" else (e < 0)
            role_a, role_b = (side_a, side_b) if forward else (side_b, side_a)
            sides = lst.sides
            ia, ib = sides.index(role_a), sides.index(role_b)
            if ia < ib:
                between = sides[ia + 1:ib]
            elif lst.cyclic:
                between = sides[ia + 1:hi] + sides[lo:ib]
            else:
                raise InconsistentChain(
                    "sweep must run forward in a non-cyclic list")
            marks = (1, 2) if half == "u" else (2, 1)
            a_l0, b_l0, a_l1, b_l1 = pool.split_sides(role_a, role_b, *marks)
            cyl = lst.cyl
            l1 = pool.new_list((a_l1,) + between + (b_l1,), False, half, cyl)
            self.settle(pool, l1)
            del home[role_a], home[role_b]
            if ia < ib:
                kept = sides[:ia] + (a_l0, b_l0) + sides[ib + 1:]
            else:
                kept = (sides[:lo] + (b_l0,) + sides[ib + 1:ia] + (a_l0,)
                        + sides[hi:])
            l0 = pool.new_list(kept, lst.cyclic, lst.kind, lst.cyl)
            self.settle(pool, l0)
            if lst.kind == "lz":
                replaced[lid] = (l0,)
                joining[half].setdefault(cyl, []).append(l1)
            else:
                replaced[lid] = (l0, l1)
        for kind, joins in (("u", joining["u"]), ("o", joining["o"]),
                            ("lz", {})):
            self.sections[kind] = resection(self.sections[kind], replaced,
                                            joins)
        pool.pool_order = self.lids()


def resection(section, replaced, joining):
    """The section with every split list replaced, recursively, by its
    successors in order, and the lists joining[c] placed after the last
    list of cylinder c."""
    if not section and not joining:
        return section
    out = []

    def put(cyl, lid):
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
# integer linear algebra
# ---------------------------------------------------------------------------


def mat_vec(A: linalg.Matrix, v: list) -> list:
    nz = [(j, x) for j, x in enumerate(v) if x]  # chains are mostly zero
    return [sum(row[j] * x for j, x in nz) for row in A]


def transpose(A: linalg.Matrix) -> linalg.Matrix:
    return [list(col) for col in zip(*A)] if A else []


def mat_mul(A: linalg.Matrix, B: linalg.Matrix) -> linalg.Matrix:
    m, k, n = len(A), len(B), len(B[0]) if B else 0
    out = linalg.zeros(m, n)
    for i in range(m):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(n):
                    row[j] += a * Bt[j]
    return out


@dataclass
class SmithForm:
    """D = U * A * V with U, V unimodular; D diagonal with d_i | d_{i+1}."""

    D: linalg.Matrix
    U: linalg.Matrix
    V: linalg.Matrix

    @property
    def rank(self) -> int:
        r = 0
        for i in range(min(len(self.D), len(self.D[0]) if self.D else 0)):
            if self.D[i][i] != 0:
                r += 1
        return r

    def solve(self, b: list) -> Optional[list]:
        """One integer solution x of A x = b, or None."""
        D = self.D
        m, n = len(D), len(self.V)
        c = mat_vec(self.U, b)
        y = [0] * n
        for i in range(m):
            d = D[i][i] if i < n else 0
            if d == 0:
                if c[i] != 0:
                    return None
            elif c[i] % d != 0:
                return None
            else:
                y[i] = c[i] // d
        return mat_vec(self.V, y)


def smith_normal_form(A: linalg.Matrix) -> SmithForm:
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U, V = linalg.eye(m), linalg.eye(n)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def row_add(i, j, c):  # row_i += c * row_j
        for t in range(n):
            D[i][t] += c * D[j][t]
        for t in range(m):
            U[i][t] += c * U[j][t]

    def row_neg(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):  # col_i += c * col_j
        for r in D:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    k = 0
    while k < min(m, n):
        # find a pivot
        piv = None
        for i in range(k, m):
            for j in range(k, n):
                if D[i][j] != 0:
                    if piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != k:
            row_swap(k, i)
        if j != k:
            col_swap(k, j)
        if D[k][k] < 0:
            row_neg(k)
        # clear column and row; restart if a remainder shrinks the pivot
        dirty = False
        for i in range(k + 1, m):
            if D[i][k]:
                q = D[i][k] // D[k][k]
                row_add(i, k, -q)
                if D[i][k]:
                    dirty = True
        for j in range(k + 1, n):
            if D[k][j]:
                q = D[k][j] // D[k][k]
                col_add(j, k, -q)
                if D[k][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_k | D[i][j]
        fixed = True
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if D[i][j] % D[k][k] != 0:
                    row_add(k, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            k += 1
    return SmithForm(D, U, V)


def snf_symplectic_completion(
    model: H1Model, lagrangian: Sequence[Sequence[int]]
) -> linalg.Matrix:
    """The completion by a Smith form of the g x 2g pairing matrix: each
    B_j is one integer solution of <A_i, B_j> = delta_ij, which exists for
    every j iff the A_i span a rank-g direct summand."""
    g = model.g
    A = [list(c) for c in lagrangian]
    C = smith_normal_form(_check_lagrangian(model, A))
    B = []
    for j in range(g):
        b = C.solve([1 if i == j else 0 for i in range(g)])
        if b is None:
            raise NotPrimitive("classes do not span a direct summand")
        B.append(b)
    GB = []
    for i in range(g):
        for j in range(i):
            c = _dot(B[i], GB[j])
            if c:
                B[i] = [x - c * y for x, y in zip(B[i], A[j])]
        GB.append(mat_vec(model.gram, B[i]))
    return [[(A + B)[j][i] for j in range(2 * g)] for i in range(2 * g)]


# ---------------------------------------------------------------------------
# dense H1 oracles
# ---------------------------------------------------------------------------


def vertex_index(o) -> list:
    """Square s -> index of its vertex orbit in o.corner_orbits."""
    vertex_of = [None] * (o.d + 1)
    for vi, orbit in enumerate(o.corner_orbits):
        for s in orbit:
            vertex_of[s] = vi
    return vertex_of


def d1(o) -> linalg.Matrix:
    """The V x 2d boundary matrix of the edges: h_s runs from the vertex
    of s to that of p1(s), v_s from the vertex of s to that of p2(s)."""
    vertex_of = vertex_index(o)
    d = o.d
    D = linalg.zeros(len(o.corner_orbits), 2 * d)
    for s in range(1, d + 1):
        D[vertex_of[o.p1(s)]][s - 1] += 1
        D[vertex_of[s]][s - 1] -= 1
        D[vertex_of[o.p2(s)]][d + s - 1] += 1
        D[vertex_of[s]][d + s - 1] -= 1
    return D


def d2(o) -> linalg.Matrix:
    """The 2d x d boundary matrix of the squares: square s is bounded by
    h_s + v_{p1(s)} - h_{p2(s)} - v_s."""
    d = o.d
    D = linalg.zeros(2 * d, d)
    for s in range(1, d + 1):
        D[s - 1][s - 1] += 1
        D[d + o.p1(s) - 1][s - 1] += 1
        D[o.p2(s) - 1][s - 1] -= 1
        D[d + s - 1][s - 1] -= 1
    return D


def basis_cycles(model: H1Model) -> list:
    """The model's basis cycles as dense edge vectors: the i-th is
    chords[i] plus the path in T from vertex 0 to its tail, minus the path
    to its head.  T's parent links are rebuilt from the tree's edges."""
    ends = model.ends
    adj = {}
    for e in model.tree:
        t, h = ends[e]
        adj.setdefault(t, []).append((h, e, 1))
        adj.setdefault(h, []).append((t, e, -1))
    parent = {0: None}  # vertex -> (parent vertex, edge, sign)
    stack = [0]
    while stack:
        v = stack.pop()
        for w, e, sign in adj.get(v, ()):
            if w not in parent:
                parent[w] = (v, e, sign)
                stack.append(w)
    cycles = []
    for chord in model.chords:
        z = [0] * len(ends)
        z[chord] = 1
        for v, step in zip(ends[chord], (1, -1)):
            while parent[v] is not None:
                v, e, sign = parent[v]
                z[e] += step * sign
        cycles.append(z)
    return cycles


def coord_rows(model: H1Model) -> linalg.Matrix:
    """The dense 2g x 2d coordinate matrix R, from what defines it rather
    than from the cotree peel: R sends the i-th chord to e_i and every
    tree edge to 0, and R d2 = 0.  The edges left, those of the cotree,
    form a spanning tree of the dual graph, so d2 restricted to them has
    full column rank and each row of R on them is the unique solution of
    one linear system, solved by a Smith form."""
    d = model.o.d
    n = 2 * d
    D = d2(model.o)
    known = set(model.tree) | set(model.chords)
    cotree = [e for e in range(n) if e not in known]
    snf = smith_normal_form([[D[e][f] for e in cotree] for f in range(d)])
    R = linalg.zeros(len(model.chords), n)
    for i, chord in enumerate(model.chords):
        R[i][chord] = 1
        x = snf.solve([-D[chord][f] for f in range(d)])
        if x is None:
            raise AssertionError("cotree columns have no integer solution")
        for e, xe in zip(cotree, x):
            R[i][e] = xe
    return R


def rotation_of(o) -> list:
    """The successor of each dart in the cyclic order around its vertex,
    worked out from p1, p2 and the corner permutation c, as
    `homology._rotation` did before it read the boundary table.  Dart
    2e + end is edge e's tail (end 0) or head (end 1).  Around a
    singularity the corner walk visits, for each square s of the orbit in
    commutator order: v_s out, h_{p1^-1(s)} in, v_{p1 p2^-1 p1^-1(s)} in,
    h_{c(s)} out, and then v_{c(s)} out."""
    d = o.d
    succ = [0] * (4 * d)
    corner = o.corner.images()
    for s in range(1, d + 1):
        c = corner[s - 1]
        left = o.p1.inverse_of(s)
        darts = (2 * (d + s - 1), 2 * (left - 1) + 1,
                 2 * (d + o.p1(o.p2.inverse_of(left)) - 1) + 1, 2 * (c - 1),
                 2 * (d + c - 1))
        for x, y in zip(darts, darts[1:]):
            succ[x] = y
    return succ


def spliced_order(o, tree: Sequence[int]) -> list:
    """The darts outside the spanning tree in their cyclic order around the
    contracted vertex, by the splice that `homology._contracted_order`
    replaced: one circle of darts per vertex, read off the corner walk of
    its orbit, and for each tree edge the circles at its two darts spliced
    under a union-find.  Dart 2e + end is edge e's tail (0) or head (1)."""
    d = o.d
    vertex_of = vertex_index(o)
    circles = []
    for orbit in o.corner_orbits:
        circle = []
        for s in orbit:
            left = o.p1.inverse_of(s)
            circle += [2 * (d + s - 1), 2 * (left - 1) + 1,
                       2 * (d + o.p1(o.p2.inverse_of(left)) - 1) + 1,
                       2 * (corner_of(o, s) - 1)]
        circles.append(circle)
    rep = list(range(len(circles)))

    def find(v):
        while rep[v] != v:
            v = rep[v]
        return v

    circ = dict(enumerate(circles))
    for e in tree:
        s = e % d + 1  # e is h_s or v_s
        t, h = vertex_of[s], vertex_of[(o.p1 if e < d else o.p2)(s)]
        rt, rh = find(t), find(h)
        if rt == rh:
            raise AssertionError("spanning tree edge closes a cycle")
        ca, cb = circ.pop(rt), circ.pop(rh)
        if 2 * e not in ca:
            ca, cb, rt, rh = cb, ca, rh, rt
        i, j = ca.index(2 * e), cb.index(2 * e + 1)
        rep[rh] = rt
        circ[rt] = ca[:i] + cb[j + 1:] + cb[:j] + ca[i + 1:]
    (final,) = circ.values()
    return final


class DenseH1:
    """Coordinates, pairings and Lagrangian rows of an H1 model by dense
    products through d1, coord_rows and the Gram matrix."""

    def __init__(self, model: H1Model):
        self.gram = model.gram
        self.d1 = d1(model.o)
        self.rows = coord_rows(model)

    def coords(self, z):
        if any(mat_vec(self.d1, z)):
            raise ValueError("chain is not a cycle")
        return mat_vec(self.rows, z)

    def pair(self, u, v):
        return _dot(u, mat_vec(self.gram, v))

    def lagrangian_rows(self, classes):
        Gt = transpose(self.gram)
        return [mat_vec(Gt, a) for a in classes]


# ---------------------------------------------------------------------------
# free-group oracles
# ---------------------------------------------------------------------------


def is_horizontal(w: Word) -> bool:
    """True iff w is a product of blocks x^{c_i} y x^{d_i} y^-1 (or the
    mirror with y and y^-1 swapped).  Pure powers of x count as the empty
    product."""
    if w.rank != 2:
        raise RankMismatch("horizontality is defined for rank 2")
    ysigns = [e for g, e in w.letters if g == 2]
    if not ysigns:
        return True
    if sum(ysigns) != 0:
        return False
    for a, b in zip(ysigns, ysigns[1:]):
        if a == b:
            return False
    return True


def inner(wrd: Word) -> F2Endo:
    """Conjugation by wrd."""
    return F2Endo(gen(2, 1).conj(wrd), gen(2, 2).conj(wrd), True)


def mat2_mul(A: IntMatrix2, B: IntMatrix2) -> IntMatrix2:
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# ---------------------------------------------------------------------------
# subgroup and homology oracles
# ---------------------------------------------------------------------------


class NotAutomorphism(ValueError):
    pass


class DoesNotStabilize(ValueError):
    pass


# x^-1 y^-1 x y, the loop around a vertex
COMMUTATOR = Word(2, [(1, -1), (2, -1), (1, 1), (2, 1)])


@dataclass(frozen=True)
class PunctureData:
    """One relation per vertex orbit: conjugates of powers of the
    commutator x^-1 y^-1 x y, exponent = orbit size."""

    conjugators: tuple[Word, ...]
    exponents: tuple[int, ...]
    relations: tuple[Word, ...]


def puncture_relations(cs: CosetAction) -> PunctureData:
    ss = schreier_system(cs)
    conjugators = []
    exponents = []
    relations = []
    for orbit in vertex_orbits(cs.origami):
        s = min(orbit)
        n = len(orbit)
        r = (COMMUTATOR ** n).conj(ss.reps[s])
        if not contains(cs, r):
            raise AssertionError("puncture relation escaped H")
        conjugators.append(ss.reps[s])
        exponents.append(n)
        relations.append(r)
    return PunctureData(tuple(conjugators), tuple(exponents), tuple(relations))


def aut_stabilizes(cs: CosetAction, phi: F2Endo) -> Optional[int]:
    """A square s with phi(H) = Stab(s), or None.

    s . phi(w) is s . w under the monodromy pair (P, Q) of phi(x), phi(y),
    so phi(H) <= Stab(s) iff H fixes s under (P, Q); for an automorphism
    both have index d."""
    if not phi.is_automorphism:
        raise NotAutomorphism("endomorphism is not marked as an automorphism")
    o = cs.origami
    P = Permutation([act_word(o, s, phi.image_x) for s in range(1, o.d + 1)])
    Q = Permutation([act_word(o, s, phi.image_y) for s in range(1, o.d + 1)])
    return _cover(cs, P, Q)


def rescan_cover(cs: CosetAction, P: Permutation, Q: Permutation) -> Optional[int]:
    """The first square s such that base -> s extends to a map f of
    F_2-sets from (p1, p2) to (P, Q), or None; f is built along a spanning
    tree searched again for every s, then checked on all 2d edges."""
    o = cs.origami
    for s in range(1, o.d + 1):
        f, order = {cs.base: s}, [cs.base]
        for t in order:
            for p, q in ((o.p1, P), (o.p2, Q)):
                if p(t) not in f:
                    f[p(t)] = q(f[t])
                    order.append(p(t))
        if all(f[o.p1(t)] == P(f[t]) and f[o.p2(t)] == Q(f[t]) for t in f):
            return s
    return None


def induced_matrix(
    o: Origami,
    phi: F2Endo,
    model: Optional[H1Model] = None,
    basis: Optional[linalg.Matrix] = None,
) -> linalg.Matrix:
    """The 2g x 2g matrix of the automorphism on H1, in the given
    symplectic basis (columns S in H1 coordinates with S^T G S = J, as
    `symplectic_completion` returns; identity basis when omitted)."""
    cs = CosetAction(o)
    if aut_stabilizes(cs, phi) != cs.base:
        raise DoesNotStabilize("phi(H) is not the stabilizer of the base")
    if model is None:
        model = h1_model(o)
    n = 2 * model.g
    ss = schreier_system(cs)
    # M0 z_h = w_h for every Schreier generator h, i.e. Z M0^T = W with the
    # classes as the rows of Z and W.  Z has rank n, so each row of M0 is
    # the unique solution of an overdetermined system; that every one
    # exists proves the action linear and integral.
    Z = smith_normal_form([class_of(o, model, h) for h in ss.generators])
    if Z.rank != n:
        raise CertificateError("generator classes do not span H1 over Q")
    W = [class_of(o, model, phi(h)) for h in ss.generators]
    M = []
    for r in range(n):
        row = Z.solve([w[r] for w in W])
        if row is None:
            raise CertificateError("action is not linear and integral on H1")
        M.append(row)
    if basis is not None:
        # S^T G S = J gives the exact inverse S^-1 = J^-1 S^T G, J^-1 = J^T
        Jinv = transpose(standard_j(model.g))
        Sinv = mat_mul(
            mat_mul(Jinv, transpose(basis)), model.gram
        )
        if mat_mul(Sinv, basis) != linalg.eye(n):
            raise ValueError("basis is not symplectic")
        M = mat_mul(mat_mul(Sinv, M), basis)
    if abs(linalg.det_int(M)) != 1:
        raise CertificateError("action is not invertible on H1")
    return M

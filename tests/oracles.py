"""Reference implementations that only the tests call.

``concatenate`` is the splice of the rescan engine: it finds the glued
labels by label equality, cancels by rescanning from the front after
every removal, and stores every intermediate list in the pool.  ``replay``
re-runs a merge history from its initial lists, and ``replay_backtrack``
traces a pair back by replaying the history's events in reverse.  They
check the indexed engine of ``origami_forge.hss`` from outside.

``smith_normal_form`` keeps both unimodular transforms, so one
factorisation answers any number of integer solves.  The H1 model, the
induced action and the symplectic completion are checked against Smith
forms: ``snf_symplectic_completion`` is the completion that
``homology.symplectic_completion`` replaced.  ``mat_vec``, ``transpose``
and ``mat_mul`` are dense integer matrix products, and ``mat2_mul``
multiplies the 2 x 2 matrices of ``freegroup``, kept as (a, b, c, d).

``d1``, ``d2`` and ``coord_rows`` are the dense boundary and coordinate
matrices that the sparse H1 model no longer stores; ``DenseH1`` computes
coordinates, pairings and Lagrangian rows by dense products through them.
``spliced_order`` contracts the spanning tree by splicing vertex circles
under a union-find, as ``homology`` did before it contracted in one walk.

``letter_reduce`` is the free reduction that ``freegroup._reduce``
replaced: it expands a run x^e into |e| letters and pushes them one at a
time.

``induced_matrix`` computes the action of an automorphism of F_2 on H1
from a Schreier system and a Smith form; the twist certificate is checked
against it.  ``aut_stabilizes`` runs the covering test on the monodromy
pair of a lifted automorphism, which ``subgroup.veech_witness`` builds
from Nielsen factors instead.  ``puncture_relations`` gives one relation
of H per vertex orbit.  ``inner`` is conjugation by a word, and
``is_horizontal`` tests a word for the block shape of horizontal words.
"""
from dataclasses import dataclass
from typing import Optional, Sequence

from origami_forge import linalg
from origami_forge.freegroup import (
    F2Endo,
    IndexOutOfRange,
    IntMatrix2,
    RankMismatch,
    Word,
    gen,
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
    format_label,
)
from origami_forge.origami import (
    Origami,
    Permutation,
    act_word,
    vertex_orbits,
    vertex_permutation,
)
from origami_forge.subgroup import CosetAction, _cover, contains, schreier_system


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
    operands apart; split pairs are linked into chain order by `after`."""
    final = pool.lists[history.final]
    aid = pool.label_ids.get(alpha)
    occ = [s for s in final.sides if pool.lab[s] == aid]
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
        ha, hb = pool.half[sa], pool.half[sb]
        if ha != hb or ha is None:
            raise InconsistentChain("pair straddles list halves")
        chain.append(ChainPair(sa, sb, tag, ha, pool.cyl[sa]))
    if chain and chain[0].half == "o" and chain[-1].half == "u":
        chain = [ChainPair(p.side_b, p.side_a, p.lid, p.half, p.cyl)
                 for p in reversed(chain)]
    return chain


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


def d1(cx) -> linalg.Matrix:
    """The V x 2d boundary matrix of the edges: h_s runs from the vertex
    of s to that of p1(s), v_s from the vertex of s to that of p2(s)."""
    o, vertex_of = cx.o, cx.vertex_of
    d = o.d
    D = linalg.zeros(len(cx.vertices), 2 * d)
    for s in range(1, d + 1):
        D[vertex_of[o.p1(s)]][s - 1] += 1
        D[vertex_of[s]][s - 1] -= 1
        D[vertex_of[o.p2(s)]][d + s - 1] += 1
        D[vertex_of[s]][d + s - 1] -= 1
    return D


def d2(cx) -> linalg.Matrix:
    """The 2d x d boundary matrix of the squares: square s is bounded by
    h_s + v_{p1(s)} - h_{p2(s)} - v_s."""
    o = cx.o
    d = o.d
    D = linalg.zeros(2 * d, d)
    for s in range(1, d + 1):
        D[s - 1][s - 1] += 1
        D[d + o.p1(s) - 1][s - 1] += 1
        D[o.p2(s) - 1][s - 1] -= 1
        D[d + s - 1][s - 1] -= 1
    return D


def coord_rows(model: H1Model) -> linalg.Matrix:
    """The dense 2g x 2d coordinate matrix R, from what defines it rather
    than from the cotree peel: R sends the i-th chord to e_i and every
    tree edge to 0, and R d2 = 0.  The edges left, those of the cotree,
    form a spanning tree of the dual graph, so d2 restricted to them has
    full column rank and each row of R on them is the unique solution of
    one linear system, solved by a Smith form."""
    cx = model.complex
    n, d = cx.edge_count, cx.o.d
    D = d2(cx)
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


def spliced_order(cx, tree: Sequence[int]) -> list:
    """The darts outside the spanning tree in their cyclic order around the
    contracted vertex, by the splice that `homology._contracted_order`
    replaced: one circle of darts per vertex, read off the corner walk of
    its orbit, and for each tree edge the circles at its two darts spliced
    under a union-find.  Dart 2e + end is edge e's tail (0) or head (1)."""
    o = cx.o
    d = o.d
    circles = []
    for orbit in cx.vertices:
        circle = []
        for s in orbit:
            left = o.p1.inverse_of(s)
            circle += [2 * (d + s - 1), 2 * (left - 1) + 1,
                       2 * (d + o.p1(o.p2.inverse_of(left)) - 1) + 1,
                       2 * (vertex_permutation(o, s) - 1)]
        circles.append(circle)
    rep = list(range(len(circles)))

    def find(v):
        while rep[v] != v:
            v = rep[v]
        return v

    circ = dict(enumerate(circles))
    for e in tree:
        t, h = cx.edge_ends(e)
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
        self.d1 = d1(model.complex)
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

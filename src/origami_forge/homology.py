"""Cellular homology of the origami surface and everything built on it:
intersection form, block-form and characteristic polynomial tests,
symplectic-homomorphism evaluation and membership checks.

The CW structure has one vertex per singularity orbit, edges h_s (bottom
side of square s) and v_s (left side), and one face per square.  Edges are
indexed h_s -> s-1 and v_s -> d+s-1 for s in 1..d; h_s runs from the
vertex of s to that of p1(s), v_s from the vertex of s to that of p2(s).
`h1_model` builds this complex itself and keeps only the ends of each
edge.  H1 is read off one tree-cotree decomposition (Eppstein, SODA
2003): a spanning tree T of the 1-skeleton, a spanning tree C of the dual
graph on the edges outside T, and the 2g chords left in neither.  The
basis of H1 is the chords' fundamental cycles in T, which are never
built: peeling C from its leaves gives every edge's coordinates in that
basis, and the Gram matrix is the chords' crossing matrix on the ribbon
graph with T contracted.  Each square's boundary is read once, and every
step reads that table, the rotation system of the ribbon graph included:
around a corner, the dart of the side that leaves it is followed by the
dart of the side that arrives there.  The quotient is free by
construction, so no diagonal form is needed.  All arithmetic is exact.

Nothing is stored dense.  Each edge's coordinate column and each row of
the Gram matrix is a list of (index, value) pairs: an edge's coordinates
count the chords on the two square sides it bounds, and the Gram matrix
is a crossing matrix, so both are mostly zero.  A cycle's coordinates are
the sum of its edges' columns, after its boundary is checked to vanish
from the ends of those edges; a pairing, a Lagrangian row <A_i, .> and
the check d1 d2 = 0 touch only non-zero entries.

The twist certificate diagonalises nothing either.  The cut system's dual
curves (`hss.dual_curves`) pair with its curves in an upper triangular
matrix with +-1 on the diagonal, which proves that the curves span a
direct summand and gives each cylinder core's coordinates by back
substitution.  `symplectic_completion`, which no command calls, finds its
dual classes from one column reduction of the pairing matrix, a Hermite
form: the classes span a direct summand iff every pivot is +-1.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .freegroup import (
    Word,
    default_names,
    exponent_sums,
    gen,
    parse_word,
    simultaneous_conjugacy,
)
from .hss import dual_curves, find_hss_detailed
from .origami import (
    BadFormat,
    Origami,
    OrigamiCurve,
    act_word,
    genus,
    horizontal_multiplier,
    letter_edges,
)
from .subgroup import NotInSubgroup

__all__ = [
    "CertificateError",
    "ConventionViolation",
    "NotInSubgroup",
    "NotLagrangian",
    "NotPrimitive",
    "UnknownGenerator",
    "H1Model",
    "AlphaSpec",
    "WordFixture",
    "edge_cycle",
    "h1_model",
    "class_of",
    "f2_independent",
    "intersection_form",
    "symplectic_completion",
    "block_form_check",
    "CharPoly",
    "charpoly",
    "charpoly_divides",
    "symplectic_names",
    "parse_symplectic",
    "alpha_eval",
    "modg_alpha_conjugator",
    "modg_alpha_check",
    "action_matrix_from_images",
    "twist_membership_certificate",
    "parse_word_fixture",
]


class ConventionViolation(ValueError):
    pass


class NotLagrangian(ValueError):
    pass


class NotPrimitive(ValueError):
    pass


class UnknownGenerator(ValueError):
    pass


class CertificateError(ValueError):
    """A check that decides the twist certificate failed."""


# ---------------------------------------------------------------------------
# CW structure
# ---------------------------------------------------------------------------


def _boundary(o: Origami, s: int) -> Tuple[Tuple[int, int], ...]:
    """(edge index, sign) for each side of square s: +h_s, +v_{p1(s)},
    -h_{p2(s)}, -v_s.  `h1_model` reads it once per square."""
    d = o.d
    return ((s - 1, 1), (d + o.p1(s) - 1, 1), (o.p2(s) - 1, -1), (d + s - 1, -1))


def edge_cycle(o: Origami, start: int, w: Word) -> List[int]:
    """The 1-chain traced by the word from the start square; a cycle iff
    the word's monodromy fixes the start."""
    d = o.d
    vec = [0] * (2 * d)
    for t, g, e in letter_edges(o, start, w):
        vec[(g - 1) * d + t - 1] += e
    return vec


# ---------------------------------------------------------------------------
# H1 and the intersection form
# ---------------------------------------------------------------------------


# a sparse integer vector: (index, value) for each non-zero entry
Sparse = List[Tuple[int, int]]


class H1Model(NamedTuple):
    """H1 in the basis of the chords' cycles in T, stored sparse:
    `columns` and `gram_rows` hold only non-zero entries, so `coords` and
    `pair` cost the entries they touch.  `gram` is the dense form, which
    the `homology` command prints.  The basis cycles themselves are not
    stored: the i-th is chords[i] closed up by the path in T between its
    ends."""

    o: Origami
    g: int
    ends: List[Tuple[int, int]]      # edge e -> (tail vertex, head vertex)
    columns: List[Sparse]            # edge e -> H1 coordinates of e
    gram: linalg.Matrix              # intersection form on the basis
    gram_rows: List[Sparse]          # the rows of gram
    tree: List[int]                  # edges of the spanning tree T, BFS order
    chords: List[int]                # edges in neither T nor C; basis
                                     # cycle i is the cycle of chords[i] in T

    @property
    def rank(self) -> int:
        return 2 * self.g

    def coords(self, z: Sequence[int]) -> List[int]:
        """H1 coordinates of a cycle given as an edge vector: the sum of
        its edges' columns, once its boundary is checked to be 0."""
        ends = self.ends
        at = [0] * len(self.o.corner_orbits)
        out = [0] * self.rank
        for e, x in enumerate(z):
            if x:
                t, h = ends[e]
                at[h] += x
                at[t] -= x
                for i, c in self.columns[e]:
                    out[i] += c * x
        if any(at):
            raise ValueError("chain is not a cycle")
        return out

    def form_row(self, u: Sequence[int]) -> List[int]:
        """The row <u, .> = u^T Gram of a class u in H1 coordinates."""
        out = [0] * self.rank
        for i, x in enumerate(u):
            if x:
                for j, c in self.gram_rows[i]:
                    out[j] += c * x
        return out

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Intersection number of two classes given in H1 coordinates."""
        return _dot(self.form_row(u), v)


def _spanning_tree(nv: int, ends: Sequence[Tuple[int, int]]) -> List[int]:
    """A BFS spanning tree T of the 1-skeleton on nv vertices from vertex
    0, given the ends of each edge: its edges in the order found."""
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(nv)]
    for e, (t, h) in enumerate(ends):
        adj[t].append((h, e))
        adj[h].append((t, e))
    seen = [True] + [False] * (nv - 1)
    tree, order = [], [0]
    for v in order:
        for w, e in adj[v]:
            if not seen[w]:
                seen[w] = True
                tree.append(e)
                order.append(w)
    if len(order) != nv:
        raise ConventionViolation("1-skeleton not connected")
    return tree


def h1_model(o: Origami) -> H1Model:
    d, n = o.d, 2 * o.d
    orbits = o.corner_orbits
    vertex_of = [0] * (d + 1)
    for vi, orbit in enumerate(orbits):
        for s in orbit:
            vertex_of[s] = vi
    ends = [(vertex_of[s], vertex_of[o.p1(s)]) for s in range(1, d + 1)]
    ends += [(vertex_of[s], vertex_of[o.p2(s)]) for s in range(1, d + 1)]
    # boundary[f - 1] is the boundary of square f.  Each edge bounds two
    # square sides, and sides[e] sums their squares
    boundary = [_boundary(o, s) for s in range(1, d + 1)]
    sides = [0] * n
    for s, bd in enumerate(boundary, 1):
        # d1 d2 = 0: the four sides of each square sum to 0 at every vertex
        at: Dict[int, int] = {}
        for e, sign in bd:
            sides[e] += s
            t, h = ends[e]
            at[h] = at.get(h, 0) + sign
            at[t] = at.get(t, 0) - sign
        if any(at.values()):
            raise ConventionViolation("d1 * d2 != 0")
    g = genus(o)
    tree = _spanning_tree(len(orbits), ends)
    in_tree = set(tree)
    # C: a BFS spanning tree of the dual graph on the edges outside T,
    # rooted at square 1; C reaches square f through the edge into[f]
    into = {1: None}
    order = [1]
    for f in order:
        for e, _ in boundary[f - 1]:
            other = sides[e] - f
            if e not in in_tree and other not in into:
                into[other] = e
                order.append(other)
    in_cotree = set(into.values())
    chords = [e for e in range(n) if e not in in_tree and e not in in_cotree]
    if len(chords) != 2 * g:
        raise ConventionViolation("rank of H1 differs from 2g")
    # col[e] holds the H1 coordinates of edge e as (index, value) pairs: a
    # unit vector for a chord, none for an edge of T, and for the edge e of
    # C into square f minus the rest of f's boundary, since that boundary
    # is 0 in H1.  Peeling C from its leaves reaches f after every other C
    # edge of f, each of which leads into a child of f.
    col: List[Sparse] = [[] for _ in range(n)]
    for i, e in enumerate(chords):
        col[e] = [(i, 1)]
    for f in reversed(order[1:]):
        e = into[f]
        rest: Dict[int, int] = {}
        for e2, sign2 in boundary[f - 1]:
            if e2 == e:
                sign = sign2
            else:
                for i, x in col[e2]:
                    rest[i] = rest.get(i, 0) + sign2 * x
        col[e] = [(i, -sign * x) for i, x in rest.items() if x]
    gram = intersection_form(_rotation(boundary), tree, chords)
    if any(
        gram[i][j] != -gram[j][i]
        for i in range(2 * g)
        for j in range(2 * g)
    ):
        raise ConventionViolation("intersection form not skew")
    if abs(linalg.det_int(gram)) != 1:
        raise ConventionViolation("intersection form not unimodular")
    gram_rows = [[(j, x) for j, x in enumerate(row) if x] for row in gram]
    return H1Model(o, g, ends, col, gram, gram_rows, tree, chords)


def class_of(o: Origami, model: H1Model, w: Word, base: int = 1) -> List[int]:
    if act_word(o, base, w) != base:
        raise NotInSubgroup("word does not fix the base square")
    return model.coords(edge_cycle(o, base, w))


def f2_independent(classes: Sequence[Sequence[int]]) -> bool:
    return linalg.gf2_rank([list(c) for c in classes]) == len(classes)


# -- ribbon graph rotation system -------------------------------------------


def _rotation(boundary: Sequence[Sequence[Tuple[int, int]]]) -> List[int]:
    """The successor of each dart in the cyclic order around its vertex,
    read off `h1_model`'s boundary table.  Dart 2e + end is edge e's tail
    (end 0) or head (end 1).  Walking a square's sides in order, each side
    arrives at the corner that the next side leaves, and around that
    corner's vertex the leaving dart is followed by the arriving one."""
    succ = [0] * (4 * len(boundary))
    for bd in boundary:
        for (e, s), (f, t) in zip(bd, bd[1:] + bd[:1]):
            succ[2 * f + (t < 0)] = 2 * e + (s > 0)
    return succ


def _contracted_order(succ: Sequence[int], tree: Sequence[int]) -> List[int]:
    """The darts outside the spanning tree T in their cyclic order around
    the one vertex left when T is contracted, found in one walk of the
    rotation succ: the successor of a dart is its successor around its own
    vertex, or, while that is a dart of T, the successor of that dart's
    partner.  This is the order that splicing the two circles at each edge
    of T gives.  If T does not contract to one vertex, the walk returns to
    its start before it has seen every dart outside T."""
    in_tree = [False] * len(succ)
    for e in tree:
        in_tree[2 * e] = in_tree[2 * e + 1] = True
    first = in_tree.index(False)
    order, x = [], first
    while True:
        order.append(x)
        x = succ[x]
        while in_tree[x]:
            x = succ[x ^ 1]
        if x == first:
            break
    if len(order) != len(succ) - 2 * len(tree):
        raise ConventionViolation("contracting T leaves more than one vertex")
    return order


def intersection_form(
    succ: Sequence[int], tree: Sequence[int], chords: Sequence[int]
) -> linalg.Matrix:
    """Gram matrix of the algebraic intersection pairing on the cycles of
    the chords in the spanning tree T, given the rotation succ
    (`_rotation`).  Contracting T leaves a one-vertex ribbon graph on which
    each such cycle is its chord alone, so the Gram matrix is the crossing
    matrix of the chords."""
    pos = {x: i for i, x in enumerate(_contracted_order(succ, tree))}
    ends = [(pos[2 * e], pos[2 * e + 1]) for e in chords]

    def crossings(lo: int, hi: int) -> List[int]:
        """The row of the chord lo -> hi: for each chord, +-1 when exactly
        one of its ends lies strictly inside the cyclic arc lo -> hi, else
        0.  The sign is calibrated so that the printed genus-2 symplectic
        word system pairs as i(a_i, b_j) = delta_ij."""

        def inside(x: int) -> bool:
            return lo < x < hi if lo < hi else x > lo or x < hi

        return [inside(head) - inside(tail) for tail, head in ends]

    return [crossings(*e) for e in ends]


# ---------------------------------------------------------------------------
# symplectic completion
# ---------------------------------------------------------------------------


def standard_j(g: int) -> linalg.Matrix:
    J = linalg.zeros(2 * g, 2 * g)
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    return J


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _check_lagrangian(
    model: H1Model, classes: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Raise NotLagrangian unless there are g pairwise non-intersecting
    classes; return the rows <A_i, .> = A_i^T * Gram."""
    g = model.g
    if len(classes) != g:
        raise NotLagrangian("need exactly g classes")
    GtA = [model.form_row(a) for a in classes]
    for i in range(g):
        for j in range(g):
            if _dot(GtA[i], classes[j]) != 0:
                raise NotLagrangian(f"classes {i} and {j} intersect")
    return GtA


def symplectic_completion(
    model: H1Model, lagrangian: Sequence[Sequence[int]]
) -> linalg.Matrix:
    """Extend g pairwise-non-intersecting primitive classes (H1 coords) to
    a basis (A_1..A_g, B_1..B_g) in which the form is the standard J.
    Returns its 2g x 2g column matrix S."""
    g = model.g
    A = [list(c) for c in lagrangian]
    GtA = _check_lagrangian(model, A)
    # B_j solves <A_i, B_j> = delta_ij.  The Gram matrix is unimodular, so
    # integral B_j exist iff the A_i span a rank-g direct summand.  Column
    # operations col_j -= q col_p, tracked in V, bring H = GtA V to one
    # pivot per row among the columns not yet pivoted (Kannan-Bachem);
    # the summand is direct iff every pivot is +-1.  H and V are stored
    # by columns.
    H, V = [list(col) for col in zip(*GtA)], linalg.eye(2 * g)
    free, rows, pivots = list(range(2 * g)), list(range(g)), []
    while rows:
        nonzero = [(i, j) for i in rows for j in free if H[j][i]]
        if not nonzero:
            raise NotPrimitive("classes do not span a direct summand")
        i, p = min(nonzero, key=lambda ij: abs(H[ij[1]][ij[0]]))
        while True:
            others = [j for j in free if j != p and H[j][i]]
            if not others:
                break
            for j in others:
                q = H[j][i] // H[p][i]
                H[j] = [x - q * y for x, y in zip(H[j], H[p])]
                V[j] = [x - q * y for x, y in zip(V[j], V[p])]
            p = min((j for j in free if H[j][i]), key=lambda j: abs(H[j][i]))
        if H[p][i] not in (1, -1):
            raise NotPrimitive("classes do not span a direct summand")
        rows.remove(i)
        free.remove(p)
        pivots.append((i, p))
    # H is lower triangular in pivot order, so upper triangular in reverse
    pivots.reverse()
    P = [[H[p][i] for _, p in pivots] for i, _ in pivots]
    B = []
    for j in range(g):
        y = _back_substitute(P, [int(i == j) for i, _ in pivots])
        b = [0] * (2 * g)
        for (_, p), yk in zip(pivots, y):
            if yk:
                b = [x + yk * v for x, v in zip(b, V[p])]
        B.append(b)
    # clear <B_i, B_j> for j < i using the A's.  Subtracting c A_j from B_i
    # changes only its pairing with B_j, as <A_j, B_k> = delta_jk, so every
    # c reads off the row <B_i, .> taken before the clearing
    for i in range(g):
        row = model.form_row(B[i])
        for j in range(i):
            c = _dot(row, B[j])
            if c:
                B[i] = [x - c * y for x, y in zip(B[i], A[j])]
    return [[(A + B)[j][i] for j in range(2 * g)] for i in range(2 * g)]


# ---------------------------------------------------------------------------
# block form and characteristic polynomials
# ---------------------------------------------------------------------------


def block_form_check(M: linalg.Matrix) -> Optional[linalg.Matrix]:
    """If M = [[I, A], [0, I]] in g x g blocks, return A, else None."""
    n = len(M)
    if n % 2:
        return None
    g = n // 2
    for i in range(g):
        for j in range(g):
            if M[i][j] != (1 if i == j else 0):
                return None
            if M[g + i][g + j] != (1 if i == j else 0):
                return None
            if M[g + i][j] != 0:
                return None
    return [[M[i][g + j] for j in range(g)] for i in range(g)]


class CharPoly(tuple):
    """Integer polynomial coefficients, highest degree first."""

    def all_coeffs(self) -> List[int]:
        return list(self)


def charpoly(M: linalg.Matrix) -> CharPoly:
    """det(x I - M) by Berkowitz's division-free algorithm.

    Going up from the bottom-right corner, the characteristic polynomial
    of the trailing block [[a, R], [C, A]] is T times that of A, where T
    is the lower-triangular Toeplitz matrix with first column
    1, -a, -R C, -R A C, ..., -R A^(m-2) C."""
    n = len(M)
    coeffs = [1]
    for k in range(n - 1, -1, -1):
        m = n - k
        R = M[k][k + 1:]
        A = [row[k + 1:] for row in M[k + 1:]]
        v = [row[k] for row in M[k + 1:]]
        items = [1, -M[k][k]]
        for _ in range(m - 1):
            items.append(-sum(r * x for r, x in zip(R, v)))
            v = [_dot(row, v) for row in A]
        coeffs = [
            sum(items[i - j] * coeffs[j] for j in range(min(i, m - 1) + 1))
            for i in range(m + 1)
        ]
    return CharPoly(coeffs)


def charpoly_divides(A2, M: linalg.Matrix) -> bool:
    """Exact test: does char(A2) divide char(M)?  Synthetic division by
    the monic x^2 - tr x + det."""
    a, b, c, d = A2
    tr, det = a + d, a * d - b * c
    r = list(charpoly(M))
    for i in range(len(r) - 2):
        r[i + 1] += tr * r[i]
        r[i + 2] -= det * r[i]
    return not any(r[-2:])


# ---------------------------------------------------------------------------
# symplectic homomorphisms alpha and Mod_g(alpha) membership
# ---------------------------------------------------------------------------


def symplectic_names(g: int) -> List[str]:
    return [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)]


def parse_symplectic(text: str, g: int) -> Word:
    return parse_word(text, rank=2 * g, names=symplectic_names(g))


class AlphaSpec(namedtuple("AlphaSpec", "g images")):
    """A homomorphism from the genus-g surface group (in a symplectic
    generating system a_1..a_g, b_1..b_g) onto the free group F_g, given
    by the image of each of the 2g generators: images is a tuple of 2g
    words of rank g."""

    __slots__ = ()

    def __new__(cls, g: int, images: tuple):
        _check_image_count(g, images)
        if any(w.rank != g for w in images):
            raise UnknownGenerator(f"an image is not a word over F_{g}")
        return super().__new__(cls, g, images)

    @staticmethod
    def standard(g: int) -> "AlphaSpec":
        ims = [Word(g)] * g + [gen(g, i) for i in range(1, g + 1)]
        return AlphaSpec(g, tuple(ims))

    @staticmethod
    def from_pattern(g: int, pattern: Sequence[int]) -> "AlphaSpec":
        """pattern[i] = 0 for the trivial image, k for the generator γ_k."""
        ims = [Word(g) if k == 0 else gen(g, k) for k in pattern]
        return AlphaSpec(g, tuple(ims))


def _check_image_count(g: int, images: Sequence[Word]) -> None:
    if len(images) != 2 * g:
        raise UnknownGenerator(
            f"{len(images)} images for the 2g = {2 * g} generators"
        )


def alpha_eval(alpha: AlphaSpec, w: Word) -> Word:
    """Apply alpha to a word over the symplectic alphabet."""
    if w.rank != 2 * alpha.g:
        raise UnknownGenerator(
            f"word rank {w.rank} does not match the 2g = {2 * alpha.g} alphabet"
        )
    return w.substitute(alpha.images, alpha.g)


def modg_alpha_conjugator(
    alpha: AlphaSpec, images: Sequence[Word]
) -> Optional[Word]:
    """A single c in F_g with alpha(image(x)) = c alpha(x) c^-1 for all 2g
    symplectic generators, or None."""
    _check_image_count(alpha.g, images)
    pairs = []
    for i, img in enumerate(images):
        pairs.append((alpha.images[i], alpha_eval(alpha, img)))
    return simultaneous_conjugacy(pairs)


def modg_alpha_check(alpha: AlphaSpec, images: Sequence[Word]) -> bool:
    return modg_alpha_conjugator(alpha, images) is not None


def action_matrix_from_images(g: int, images: Sequence[Word]) -> linalg.Matrix:
    """Exponent-sum matrix of a surface-group endomorphism given over the
    symplectic alphabet: column j holds the sums of image(gen j)."""
    _check_image_count(g, images)
    M = linalg.zeros(2 * g, 2 * g)
    for j, w in enumerate(images):
        sums = exponent_sums(w)
        for i in range(2 * g):
            M[i][j] = sums[i]
    return M


# ---------------------------------------------------------------------------
# the twist certificate
# ---------------------------------------------------------------------------


def _back_substitute(P: linalg.Matrix, r: Sequence[int]) -> List[int]:
    """The x with P x = r, for P upper triangular with +-1 on the diagonal:
    each step divides by +-1, so no entry outgrows the sums it is made of."""
    n = len(r)
    x = [0] * n
    for k in range(n - 1, -1, -1):
        t = r[k]
        for j in range(k + 1, n):
            t -= P[k][j] * x[j]
        x[k] = t * P[k][k]
    return x


def twist_membership_certificate(
    o: Origami,
    model: Optional[H1Model] = None,
    curves: Optional[Sequence[OrigamiCurve]] = None,
    duals: Optional[Sequence[OrigamiCurve]] = None,
) -> dict:
    """Machine-checkable evidence that the horizontal multitwist along the
    cylinder directions is affine with derivative (1, m; 0, 1) and acts on
    homology by a unipotent block matrix fixing the cut-system classes.
    `model` defaults to `h1_model(o)`; a missing `curves` or `duals` comes
    from one `find_hss_detailed(o)` and `hss.dual_curves` of its result."""
    m, mat = horizontal_multiplier(o)
    if model is None:
        model = h1_model(o)
    if curves is None or duals is None:
        result = find_hss_detailed(o)
        curves = result.curves if curves is None else curves
        duals = dual_curves(result) if duals is None else duals
    chains = [edge_cycle(o, c.start, c.word) for c in curves]
    GtA = _check_lagrangian(model, [model.coords(z) for z in chains])
    g, d = model.g, o.d
    cores = [z.squares for z in o.horizontal_cylinders]

    def meets(z: Sequence[int], core: Sequence[int]) -> int:
        """<z, c_Z> for the core c_Z of the cylinder: the signed count of
        z's vertical edges in it."""
        return sum(z[d + s - 1] for s in core)

    # By Picard-Lefschetz the lift x -> x, y -> x^m y twists each cylinder
    # Z, of length l, m / l times about its core c, the class of the sum of
    # its h_s.  With c = A a + B b in any completion (A, B) it acts by
    # [[I + sum k a b^T, -sum k a a^T], [sum k b b^T, I - sum k b a^T]],
    # k = m / l > 0: the block form holds iff every b = 0, i.e. every core
    # lies in span(A).  A primitive Lagrangian is its own orthogonal
    # complement, so that is every core pairing to 0 with every curve
    if any(meets(z, core) for z in chains for core in cores):
        raise CertificateError("twist action is not in block form")
    if any(m % len(core) for core in cores):
        raise CertificateError("twist lift does not stabilize the subgroup")
    # P[k][j] = <beta_k, A_j> = -<A_j, beta_k> for the duals beta_k.  Upper
    # triangular with +-1 on the diagonal, P is invertible over Z, so
    # P^-1 (<beta_k, .>)_k projects H1 onto span(A): the classes span a
    # direct summand
    dual_chains = [edge_cycle(o, c.start, c.word) for c in duals]
    P = [[-_dot(Ga, b) for Ga in GtA]
         for b in map(model.coords, dual_chains)]
    if len(P) != g or any(
        any(P[k][:k]) or P[k][k] not in (1, -1) for k in range(g)
    ):
        raise NotPrimitive(
            "the dual curves do not certify a direct summand")
    # then the core's coordinates a solve P a = (<beta_k, c>)_k, and the
    # block is -sum k a a^T
    A = linalg.zeros(g, g)
    for core in cores:
        a = _back_substitute(P, [meets(b, core) for b in dual_chains])
        k = m // len(core)
        for i, ai in enumerate(a):
            if ai:
                A[i] = [x - k * ai * y for x, y in zip(A[i], a)]
    eye = linalg.eye(g)
    M = [eye[i] + A[i] for i in range(g)] + [[0] * g + row for row in eye]
    # der(f) = (1, m; 0, 1) fixes the projection (sx, sy) of each curve
    # word iff the y-exponent sum vanishes
    proj_fixed = all(exponent_sums(c.word)[1] == 0 for c in curves)
    if not proj_fixed:
        raise CertificateError("cut-system word has a vertical drift")
    return {
        "multiplier": m,
        "matrix": list(mat),
        # the certificate raises unless p1^m = id, so the lift's monodromy
        # pair is (p1, p2) and phi(H) is the stabilizer of CosetAction's
        # base square 1
        "witness_square": 1,
        "curves": [
            {"start": c.start, "word": str(c.word)} for c in curves
        ],
        "block": A,
        "action_matrix": M,
        # M = [[I, A], [0, I]] has charpoly (x - 1)^2g, which
        # char(1, m; 0, 1) = (x - 1)^2 divides since g >= 1
        "charpoly_divides": True,
        "projection_fixed": proj_fixed,
    }


# ---------------------------------------------------------------------------
# word fixture files
# ---------------------------------------------------------------------------


class WordFixture(NamedTuple):
    """Parsed `gen name = <rank-2 word>` and `image <endo> <name> = <word
    over the gen alphabet>` lines."""

    names: List[str]
    gens: Dict[str, Word]
    images: Dict[str, Dict[str, Word]]

    @property
    def g(self) -> int:
        if len(self.names) % 2:
            raise BadFormat("the alphabet has an odd number of names")
        return len(self.names) // 2

    def image_list(self, endo: str) -> List[Word]:
        return [self.images[endo][n] for n in self.names]


def parse_word_fixture(text: str) -> WordFixture:
    """Lines: `alphabet a1 a2 b1 b2` (optional when `gen` lines declare
    the names), `gen a1 = x^-2`, `image f a1 = a1`, `#` comments."""
    names: List[str] = []
    gens: Dict[str, Word] = {}
    raw_images: List[Tuple[str, str, str]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet"):
            if names:
                raise BadFormat(f"line {lineno}: alphabet declared twice")
            names = line.split()[1:]
            continue
        if "=" not in line:
            raise BadFormat(f"line {lineno}: expected '='")
        head, body = line.split("=", 1)
        head, body = head.split(), body.strip()
        if len(head) == 2 and head[0] == "gen":
            name = head[1]
            if name in gens:
                raise BadFormat(f"line {lineno}: duplicate gen {name}")
            if name not in names:
                names.append(name)
            gens[name] = parse_word(body, rank=2, names=default_names(2))
        elif len(head) == 3 and head[0] == "image":
            raw_images.append((head[1], head[2], body))
        else:
            raise BadFormat(f"line {lineno}: unknown directive")
    images: Dict[str, Dict[str, Word]] = {}
    for endo, name, body in raw_images:
        if name not in names:
            raise BadFormat(f"image of unknown generator {name}")
        images.setdefault(endo, {})[name] = parse_word(
            body, rank=len(names), names=names
        )
    return WordFixture(names, gens, images)

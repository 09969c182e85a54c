"""Reference implementations that the tests compare the package with.

Each is the plain, slower way to compute a value that the package now
computes another way: exact linear algebra over Fraction (SparseRREF, an
incremental reduced echelon form, and solve_many), and the constructions
the package used before it kept to integers or made fewer calls (the
kernel step of the path model, the insertion walk of C+_k), and the
search for fusion-closed subsets.  None of them is used by the package itself.  It also holds the label lookups that the test files
share (_pos, _element_index).
"""

import math
from fractions import Fraction

import numpy as np

from adefusion.fusion import _Fail, _forced_rows, _long_branch
from adefusion.path_model import PathSpace, _weights


def _pos(d, label):
    return d.label_to_position(label)


def _element_index(qs, la, lb):
    """The basis element that the label pair la (x) lb is on its own, read
    off its normal form rather than through qs.element, which the tests
    check against it."""
    d = qs.diagram
    v = qs.nf[_pos(d, la), _pos(d, lb)]
    live = np.nonzero(v)[0]
    assert len(live) == 1 and v[live[0]] == 1, (la, lb)
    return int(live[0])


class SparseRREF:
    """Reduced row echelon form over Q, built incrementally.

    Rows are dicts {column: Fraction} with the pivot entry scaled to 1 and
    every other pivot column eliminated, so a row's off-pivot support lies
    entirely on free columns.  residue() is therefore a canonical
    representative of a vector modulo the row span.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}     # pivot column -> row dict
        self._by_col = {}  # column -> set of pivots whose rows touch it

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, vec):
        """Canonical representative of vec modulo the span (sparse dict)."""
        v = {c: Fraction(x) for c, x in vec.items() if x}
        for j in [c for c in v if c in self.rows]:
            coef = v.pop(j, None)
            if not coef:
                continue
            for c, x in self.rows[j].items():
                if c == j:
                    continue
                y = v.get(c, 0) - coef * x
                if y:
                    v[c] = y
                else:
                    v.pop(c, None)
        return v

    def insert(self, vec):
        """Add vec to the span.  Returns True if the rank grew."""
        r = self.residue(vec)
        if not r:
            return False
        p = min(r)
        inv = 1 / r[p]
        row = {c: x * inv for c, x in r.items()}
        # eliminate the new pivot from every existing row touching it
        for q in list(self._by_col.get(p, ())):
            old = self.rows[q]
            coef = old.pop(p)
            self._by_col[p].discard(q)
            for c, x in row.items():
                if c == p:
                    continue
                y = old.get(c, 0) - coef * x
                if y:
                    if c not in old:
                        self._by_col.setdefault(c, set()).add(q)
                    old[c] = y
                elif c in old:
                    del old[c]
                    self._by_col[c].discard(q)
        self.rows[p] = row
        for c in row:
            self._by_col.setdefault(c, set()).add(p)
        return True


def solve_many(a, bs):
    """Solve A x = b exactly over Q for every right-hand side b in bs.

    a: list of rows (list of int/Fraction); bs: list of right-hand sides,
    each a list with one entry per row of a.  Returns (solutions, nullity):
    one particular solution per b, None where that system is inconsistent,
    and the nullspace dimension of A.  One dense Gauss-Jordan pass over
    the matrix augmented by every right-hand side at once, for systems of
    at most a few dozen variables.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in bs]
         for i, row in enumerate(a)]
    nrows, ncols = len(m), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                coef = m[i][c]
                m[i] = [x - coef * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    sols = []
    for k in range(ncols, ncols + len(bs)):
        if any(m[i][k] for i in range(r, nrows)):
            sols.append(None)
            continue
        x = [Fraction(0)] * ncols
        for i, c in enumerate(pivots):
            x[c] = m[i][k]
        sols.append(x)
    return sols, ncols - len(pivots)


def cyclic_generators_over_q(n):
    """The vertices s, greedily from the generator 1, that make e_0 cyclic
    for the N_s of the table n, ranks taken exactly over Q in a SparseRREF.

    Closes span{e_0.w}, w a word in S, under right multiplication by every
    N_s; while the span falls short of Q^r, adds the first vertex a with
    e_0.N_a outside it.  The reference for fusion._ring_generators, which
    reads S from the diagram alone."""
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
        a = next(a for a in range(r)
                 if span.residue(dict(enumerate(n[a, 0].tolist()))))
        gens.append(a)
        todo += [times(v, a) for v in span.rows.values()]


def fork_splits_by_pinned_solve(d):
    """fusion._construct_d with the fork split found by solve_many: y.G =
    N_f[f1] solved over Q for every pin (y_0, y_f2) within the budget s.
    Returns the tables of every integer solution that keeps y, s - y and
    N_f2 nonnegative, with no ring check, or raises _Fail before the split
    as _construct_d does; it has no cap on the search space."""
    g = d.adjacency
    r = d.rank
    f = r - 3
    f1, f2 = r - 2, r - 1
    mats = list(_long_branch(g, f)[:f + 1])
    nf = mats[f]
    total = g @ nf - mats[f - 1]
    x = _forced_rows(d, nf, {0: np.eye(r, dtype=np.int64)[f1]})[:f1]
    if any(np.any(row < 0) for row in x):
        raise _Fail("negative forced row in fork matrix")
    if not np.array_equal(x[f], nf[f1]) or not np.array_equal(nf[f1], nf[f2]):
        raise _Fail("fork rows of the adjacent matrix disagree")
    s = nf[f] - x[f - 1]
    if np.any(s < 0):
        raise _Fail("negative fork row budget")
    pin = [[int(c == 0) for c in range(r)], [int(c == f2) for c in range(r)]]
    sols, nullity = solve_many(g.T.tolist() + pin,
                               [nf[f1].tolist() + [y0, y2]
                                for y0 in range(s[0] + 1)
                                for y2 in range(s[f2] + 1)])
    assert nullity == 0
    found = []
    for y in sols:
        if y is None or any(c.denominator != 1 for c in y):
            continue
        y = np.array([int(c) for c in y], dtype=np.int64)
        nf1 = np.vstack(x + [y, s - y])
        nf2 = total - nf1
        if np.any(y < 0) or np.any(y > s) or np.any(nf2 < 0):
            continue
        found.append(mats + [nf1, nf2])
    return found


def fusion_closed_subsets(algebra):
    """All vertex subsets containing 0 whose pairwise products stay
    inside the subset, sorted by size then lexicographically: the search
    that the ambichiral subset came from before the twist rule.

    Grown rather than enumerated, one vertex at a time from the closure
    of {0}.  Every closed T is reached: for a closed S inside T found
    already and any v of T outside S, the closure of S + {v} is a closed
    subset of T strictly larger than S."""
    support = algebra.n > 0

    def closure(sub):
        idx = sorted(sub)
        while True:
            prods = support[np.ix_(idx, idx)].any(axis=(0, 1))
            grown = sorted(set(idx).union(np.flatnonzero(prods).tolist()))
            if len(grown) == len(idx):
                return tuple(idx)
            idx = grown

    found, todo = set(), [(0,)]
    while todo:
        sub = closure(todo.pop())
        if sub not in found:
            found.add(sub)
            todo += [sub + (v,) for v in range(algebra.rank) if v not in sub]
    return sorted(found, key=lambda s: (len(s), s))


def walk_counts_exact(diagram, length):
    """G^length in Python ints (object dtype): row a counts the edge paths
    of that length from vertex a to each vertex, with no int64 bound."""
    return np.linalg.matrix_power(diagram.adjacency.astype(object), length)


def t_order_by_fractions(level):
    """The order of T from its phase fractions: the smallest k with
    k.(m^2/2N + 1/4) an even integer for every m = 1 .. N-1."""
    k = 1
    for m in range(1, level):
        g = (Fraction(m * m, 2 * level) + Fraction(1, 4)) / 2
        k = k * g.denominator // math.gcd(k, g.denominator)
    return k


def kernel_step_by_slices(prev2, prev, nbrs, weight, tol):
    """path_model._kernel_step before its offsets became a running sum:
    every block builds M, each row offset summed anew, and the rank is
    np.sum of the singular values above tol.  Levels are in the
    coordinates of the kernels one length shorter."""
    dims2 = [m.shape[1] for m in prev2]
    out = []
    for b, cs in enumerate(nbrs):
        # C_{q-1} contracts (.., b, c, b) to (.., b), so column block c of
        # M is a weighted row block of prev[c]
        blocks = []
        for c in cs:
            off = sum(dims2[e] for e in nbrs[c] if e < b)
            blocks.append(weight[b][c] * prev[c][off:off + dims2[b]])
        m = np.concatenate(blocks, axis=1)
        if m.size:
            _, sing, vh = np.linalg.svd(m, full_matrices=len(m) < m.shape[1])
            out.append(vh[int(np.sum(sing > tol)):].T)
        else:
            out.append(np.eye(m.shape[1]))
    return out


def creation_by_insertion(space, k):
    """The matrix of C+_k on space, built as the package once built it:
    for each path, a backtrack v_{k-1}, w, v_{k-1} inserted at k through
    every neighbour w of v_{k-1}, with the weight of contracting it."""
    d = space.diagram
    p = space.length
    longer = PathSpace(d, p + 2, space.origin, cap=p + 2)
    weight = _weights(d)
    m = np.zeros((longer.dim, space.dim))
    for j, path in enumerate(space.paths):
        anchor = path[k - 1]
        for w in d.neighbors(anchor):
            m[longer.index[path[:k] + (w, anchor) + path[k:]], j] += \
                weight[anchor][w]
    return m

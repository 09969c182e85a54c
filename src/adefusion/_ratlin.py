"""Exact rational linear algebra on sparse rows.

Small and specialized: the spaces here have at most a few hundred
coordinates and the interesting subspaces are spanned by very sparse
integer vectors, so a dict-per-row reduced row echelon form over Fraction
keeps everything exact and fast.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["SparseRREF", "solve_many", "solve_exact"]


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
    the matrix augmented by every right-hand side at once; its callers,
    all in fusion, solve systems of at most a few dozen variables.
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


def solve_exact(a, b):
    """Solve A x = b exactly over Q: the single right-hand side case of
    solve_many.  Returns (solution, nullity), or None if the system is
    inconsistent."""
    (x,), nullity = solve_many(a, [b])
    return None if x is None else (x, nullity)

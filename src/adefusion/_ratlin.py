"""Exact rational linear algebra on sparse rows.

Small and specialized: the spaces here have at most a few hundred
coordinates and the interesting subspaces are spanned by very sparse
integer vectors, so a dict-per-row reduced row echelon form over Fraction
keeps everything exact and fast.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["SparseRREF"]


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

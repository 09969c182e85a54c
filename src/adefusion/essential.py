"""Essential matrices of an ADE diagram.

E_a is the (N-1) x r integer matrix whose row n counts, for each vertex b,
the essential (backtrack-free in the strong sense) paths of length n from
a to b; N is the Coxeter number.  Row n of E_0 obeys the two-term
recurrence row_{n+1} = row_n . G - row_{n-1} starting from the unit row at
the marked vertex (diagram.recurrence_rows), stops being nonzero exactly
at n = N-1, and E_a = E_0 . N_a.  The slices F_n[a,b] = E_a[n,b] form a
representation of the fusion algebra of the path diagram with the same
Coxeter number, which is what the decomposition routines exploit.
"""

from __future__ import annotations

import numpy as np

from .diagram import Family, build_diagram, json_document, recurrence_rows
from .errors import StructuralError
from .fusion import (_int_matmul, _row_blocks, ambichiral_subalgebra,
                     fusion_matrices)

__all__ = [
    "EssentialSet",
    "essential_matrices",
    "recurrence_rows",
    "fused_adjacency",
    "intertwiner_check",
    "esspath_dims",
    "para_invariants",
    "decompose_left",
    "reduced_essential",
    "essential_json",
]


class EssentialSet:
    def __init__(self, algebra):
        self.algebra = algebra
        self.diagram = algebra.diagram
        self.nrows = self.diagram.coxeter_number - 1
        rows = recurrence_rows(self.diagram, self.nrows)
        if np.any(rows[self.nrows] != 0):
            raise StructuralError(
                "recurrence row %d of %s does not vanish"
                % (self.nrows, self.diagram.name))
        e0, n = rows[: self.nrows], algebra.n
        self.e = np.empty((len(n), self.nrows, len(n)), dtype=np.int64)
        for blk in _row_blocks(n):
            self.e[blk] = _int_matmul(e0, n[blk])       # E_a = E_0 . N_a
        self.e.setflags(write=False)
        if np.any(self.e < 0):
            raise StructuralError("negative essential path count")

    @property
    def f(self):
        """Fused adjacency stack, F_n[a,b] = E_a[n,b]."""
        return np.transpose(self.e, (1, 0, 2))

    def __repr__(self):
        return "EssentialSet(%s)" % self.diagram.name


def essential_matrices(graph):
    return EssentialSet(fusion_matrices(graph))


def fused_adjacency(ess):
    """The N-1 square matrices F_n, F_0 = identity, F_1 = adjacency."""
    return ess.f.copy()


def _path_partner(ess):
    """Fusion algebra of the path diagram sharing the Coxeter number."""
    return fusion_matrices(build_diagram(Family.A, ess.nrows))


def intertwiner_check(ess):
    """E_0 intertwines the adjacency matrices of the diagram and of its
    path partner: G_path . E_0 == E_0 . G."""
    partner = _path_partner(ess).diagram
    e0 = ess.e[0]
    return np.array_equal(partner.adjacency @ e0, e0 @ ess.diagram.adjacency)


def _count_walk(diagram, length, origins):
    """Path counts at lengths 0 .. length, one int64 array each, with a row
    per origin and a column per end vertex; OverflowError once a count
    passes int64.

    A count is the sum of at most deg of the previous counts, deg the
    largest vertex degree, so a step runs in int64 while every count is at
    most limit // deg, and in Python ints (object arrays) otherwise.
    """
    limit = int(np.iinfo(np.int64).max)
    g = diagram.adjacency
    safe = limit // max(int(g.sum(axis=0).max()), 1)
    v = np.eye(diagram.rank, dtype=np.int64)[list(origins)]
    yield v
    for n in range(1, length + 1):
        if v.max() <= safe:
            v = v @ g
        else:
            exact = v.astype(object) @ g.astype(object)
            over = np.flatnonzero(exact.max(axis=1) > limit)
            if over.size:
                raise OverflowError(
                    "%s has more than %d paths of length %d from vertex %d"
                    % (diagram.name, limit, n, origins[over[0]]))
            v = exact.astype(np.int64)
        yield v


def esspath_dims(ess):
    """Total count of essential paths at each length, all endpoints."""
    return ess.e.sum(axis=(0, 2))


def para_invariants(ess):
    """Closed-loop counts per vertex: row a holds the diagonal entries
    E_a[n, a] for n = 0 .. nrows-1.  Column sums give the trace of F_n."""
    r = ess.algebra.rank
    return np.stack([ess.e[a, :, a] for a in range(r)])


def decompose_left(ess, a, b):
    """Coefficients of E_a . E_b^T over the fusion matrices of the path
    partner; for arrays a, b of positions, one row per cell (a[i], b[i]).
    The reconstruction is checked exactly."""
    return _decompose("left", ess.f, _path_partner(ess).n, a, b,
                      ess.e[a] @ np.swapaxes(ess.e[b], -1, -2))


def _decompose(side, table, mats, a, b, target):
    """table[:, a, b], cells first, once each cell's coefficients over
    mats rebuild its target; else StructuralError on the first that fails."""
    coeffs = np.moveaxis(table[:, a, b], 0, -1).copy()
    bad = np.flatnonzero((np.tensordot(coeffs, mats, axes=(-1, 0))
                          != target).any(axis=(-2, -1)))
    if bad.size:
        cell = side, np.ravel(a)[bad[0]], np.ravel(b)[bad[0]]
        raise StructuralError("%s decomposition of (%d,%d) does not "
                              "reconstruct" % cell)
    return coeffs


def reduced_essential(ess):
    """Essential matrices with the columns of non-ambichiral vertices
    zeroed out."""
    keep = np.zeros(ess.diagram.rank, dtype=np.int64)
    keep[list(ambichiral_subalgebra(ess.algebra))] = 1
    return ess.e * keep


@json_document
def essential_json(ess):
    """The essential matrices as a dict of JSON values."""
    d = ess.diagram
    return {
        "graph": d.name,
        "labels": list(d.vertex_labels),
        "rows": int(ess.nrows),
        "matrices": ess.e,
    }

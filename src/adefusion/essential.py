"""Essential matrices of an ADE diagram.

E_a is the (N-1) x r integer matrix whose row n counts, for each vertex b,
the essential (backtrack-free in the strong sense) paths of length n from
a to b; N is the Coxeter number.  Row n of E_0 obeys the two-term
recurrence row_{n+1} = row_n . G - row_{n-1} starting from the unit row at
the marked vertex, stops being nonzero exactly at n = N-1, and
E_a = E_0 . N_a.  The slices F_n[a,b] = E_a[n,b] form a representation of
the fusion algebra of the path diagram with the same Coxeter number, which
is what the decomposition routines exploit.
"""

from __future__ import annotations

import numpy as np

from .diagram import Family, build_diagram
from .errors import StructuralError
from .fusion import algebra_for, ambichiral_subalgebra, fusion_matrices

__all__ = [
    "EssentialSet",
    "essential_matrices",
    "recurrence_rows",
    "fused_adjacency",
    "intertwiner_check",
    "path_counts",
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
        e0 = rows[: self.nrows]
        self.e = np.stack([e0 @ algebra.n[a] for a in range(algebra.rank)])
        self.e.setflags(write=False)
        if np.any(self.e < 0):
            raise StructuralError("negative essential path count")

    @property
    def f(self):
        """Fused adjacency stack, F_n[a,b] = E_a[n,b]."""
        return np.transpose(self.e, (1, 0, 2))

    def matrix(self, a):
        return self.e[a]

    def __repr__(self):
        return "EssentialSet(%s)" % self.diagram.name


def recurrence_rows(diagram, upto):
    """Rows 0..upto of the recurrence row_{n+1} = row_n . G - row_{n-1}
    seeded with the unit row at vertex 0, without truncation (entries go
    negative past the Coxeter window)."""
    r = diagram.rank
    g = diagram.adjacency
    rows = np.zeros((upto + 1, r), dtype=np.int64)
    rows[0, 0] = 1
    if upto >= 1:
        rows[1] = rows[0] @ g
    for n in range(2, upto + 1):
        rows[n] = rows[n - 1] @ g - rows[n - 2]
    return rows


def essential_matrices(graph):
    return EssentialSet(algebra_for(graph))


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


def _count_walk(diagram, length, origin):
    """Path counts from origin to each vertex at lengths 0 .. length, as
    lists of Python ints; OverflowError once a count passes int64."""
    limit = int(np.iinfo(np.int64).max)
    nbrs = [diagram.neighbors(b) for b in range(diagram.rank)]
    v = [int(b == origin) for b in range(diagram.rank)]
    yield v
    for n in range(1, length + 1):
        v = [sum(v[w] for w in ws) for ws in nbrs]
        if max(v) > limit:
            raise OverflowError(
                "%s has more than %d paths of length %d from vertex %d"
                % (diagram.name, limit, n, origin))
        yield v


def path_counts(diagram, length, origin=0):
    """Number of length-n edge paths from origin to each vertex, as an
    int64 vector; OverflowError, not wrapping, past int64."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    for v in _count_walk(diagram, length, origin):
        pass
    return np.array(v, dtype=np.int64)


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
    partner.  The reconstruction is checked exactly."""
    partner = _path_partner(ess)
    coeffs = ess.f[:, a, b].copy()
    target = ess.e[a] @ ess.e[b].T
    rebuilt = np.tensordot(coeffs, partner.n, axes=(0, 0))
    if not np.array_equal(rebuilt, target):
        raise StructuralError(
            "left decomposition of (%d,%d) does not reconstruct" % (a, b))
    return coeffs


def reduced_essential(ess):
    """Essential matrices with the columns of non-ambichiral vertices
    zeroed out."""
    keep = set(ambichiral_subalgebra(ess.algebra))
    out = ess.e.copy()
    for v in range(ess.diagram.rank):
        if v not in keep:
            out[:, :, v] = 0
    return out


def essential_json(ess):
    """The essential matrices as a dict of JSON values."""
    d = ess.diagram
    return {
        "graph": d.name,
        "labels": list(d.vertex_labels),
        "rows": int(ess.nrows),
        "matrices": ess.e.tolist(),
    }

"""Modular data attached to the quantum symmetries.

The level is the Coxeter number N.  S and T act on the N-1 characters
indexed 1..N-1 (stored 0-based): S[m,n] is a normalized sine kernel and T
a diagonal of phases, satisfying S^2 = -1, S^4 = 1, (ST)^3 = 1, with the
order of T computed exactly in integers.  Commutation of an integer W
with T is decided exactly (diagram._t_classes), with S by a threshold.

A toric matrix is attached to every canonical quantum symmetry element
a(x)b as E_a . (E^r_b)^T, the reduced essential matrix keeping only
ambichiral target columns; all single-pair forms of an element must give
the same matrix.  The element 0(x)0 yields the modular invariant, whose
block structure is read off and printed as a sum of |chi+...|^2 terms.
"""

from __future__ import annotations

import math

import numpy as np

from .diagram import _t_classes, cache_per_diagram, json_document
from .errors import StructuralError
from .essential import essential_matrices, reduced_essential
from .fusion import _check_index
from .ocneanu import quantum_symmetry_algebra

__all__ = [
    "ModularRep",
    "modular_rep",
    "verlinde_s",
    "verlinde_t",
    "toric_matrices",
    "modular_invariance_check",
    "partition_function",
    "modular_json",
]

# [W, S] = 0 when s_deviation < _TOL; test_only_identity_commutes pins the
# gap: on E6, E8 and A2-A30 every s_deviation is <= 3e-15 or >= 0.5
_TOL = 1e-9


def verlinde_s(level):
    """(N-1) x (N-1) sine kernel, indices 1..N-1 stored 0-based."""
    n = level
    coef = -2j / (math.sqrt(2) * math.sqrt(n))
    m = np.arange(1, n)
    return coef * np.sin(np.pi * np.outer(m, m) / n)


def verlinde_t(level):
    """Diagonal of phases exp(i pi (m^2/2N + 1/4)), m = 1..N-1."""
    n = level
    m = np.arange(1, n)
    return np.diag(np.exp(1j * np.pi * (m * m / (2.0 * n) + 0.25)))


def _t_order(level):
    """Smallest k with T^k = 1: T[m,m] = exp(2 pi i (2m^2 + N) / 8N) has
    order 8N / gcd(8N, 2m^2 + N), and T's order is their lcm."""
    n8 = 8 * level
    return math.lcm(*(n8 // math.gcd(n8, 2 * m * m + level)
                      for m in range(1, level)))


class ModularRep:
    def __init__(self, level):
        self.level = level
        self.s = verlinde_s(level)
        self.t = verlinde_t(level)
        self.t_order = _t_order(level)

    def relation_deviations(self):
        """Max deviations of S^2 = -1, S^4 = 1, (ST)^3 = 1, T^order = 1."""
        eye = np.eye(self.level - 1)
        s2 = self.s @ self.s
        st = self.s @ self.t
        tk = np.diag(np.diag(self.t) ** self.t_order)
        return {
            "s2": float(np.abs(s2 + eye).max()),
            "s4": float(np.abs(s2 @ s2 - eye).max()),
            "st3": float(np.abs(st @ st @ st - eye).max()),
            "t_order": float(np.abs(tk - eye).max()),
        }

    def commutes_with_t(self, w):
        """Exact [W, T] = 0 for an integer W: every nonzero W[m,n] joins
        two characters of one class of diagram._t_classes."""
        classes = _t_classes(self.level)
        m, n = np.nonzero(w)
        return bool(np.array_equal(classes[m], classes[n]))

    def __repr__(self):
        return "ModularRep(level=%d)" % self.level


@cache_per_diagram
def modular_rep(diagram):
    """The kept ModularRep at the diagram's Coxeter number, its S and T
    read-only."""
    rep = ModularRep(diagram.coxeter_number)
    rep.s.setflags(write=False)
    rep.t.setflags(write=False)
    return rep


def toric_matrices(graph):
    """One (N-1) x (N-1) integer matrix per canonical element, each
    checked to be independent of the representative pair."""
    return [m.copy() for m in _toric_matrices(graph)]


@cache_per_diagram
def _toric_matrices(diagram):
    ess = essential_matrices(diagram)
    red = reduced_essential(ess)
    return quantum_symmetry_algebra(diagram).per_element(
        lambda a, b: ess.e[a] @ red[b].T, "toric matrix")


def modular_invariance_check(graph, element=None):
    """Deviation of [W, S] and [W, T] for one toric matrix (default the
    invariant element 0(x)0).  The verdict takes [W, T] = 0 from the exact
    rule and [W, S] from s_deviation < _TOL; t_deviation is reported only.
    IndexError for an element outside 0 .. dim-1."""
    qs = quantum_symmetry_algebra(graph)
    if element is None:
        element = qs.element(0, 0)
    _check_index(qs.dim, element)
    w = _toric_matrices(graph)[element]
    rep = modular_rep(graph)
    ds = float(np.abs(w @ rep.s - rep.s @ w).max())
    dt = float(np.abs(w @ rep.t - rep.t @ w).max())
    return {
        "element": element,
        "name": qs.element_names[element],
        "s_deviation": ds,
        "t_deviation": dt,
        "invariant": bool(ds < _TOL and rep.commutes_with_t(w)),
    }


def _blocks_of(w):
    """Partition of the character indices under the 0/1 block pattern of
    w, or None if w has no such structure."""
    if np.any((w != 0) & (w != 1)) or not np.array_equal(w, w.T):
        return None
    # one indicator row per block: the distinct rows of w where it has a 1
    # on the diagonal; w must be the sum of the blocks' squares, so
    # overlapping blocks fail
    rows = list(dict.fromkeys(map(tuple, w[np.diag(w) == 1].tolist())))
    ind = np.array(rows, dtype=w.dtype).reshape(len(rows), len(w))
    if not np.array_equal(ind.T @ ind, w):
        return None
    return [tuple(i for i, x in enumerate(row) if x) for row in rows]


def partition_function(graph):
    """The modular invariant as a sum of squared character blocks,
    e.g. |chi1+chi7|^2 + ... printed with 1-based character indices;
    StructuralError if it has no such blocks."""
    qs = quantum_symmetry_algebra(graph)
    w = _toric_matrices(graph)[qs.element(0, 0)]
    blocks = _blocks_of(w)
    if blocks is None:
        raise StructuralError("modular invariant of %s is not block "
                              "diagonal" % qs.diagram.name)
    parts = []
    for members in sorted(blocks):
        inner = "+".join("χ%d" % (m + 1) for m in members)
        parts.append("|%s|²" % inner)
    return "+".join(parts)


@json_document
def modular_json(graph):
    """Toric matrices, invariant and invariance check as a dict of JSON
    values."""
    qs = quantum_symmetry_algebra(graph)
    return {
        "graph": qs.diagram.name,
        "level": qs.diagram.coxeter_number,
        "t_order": modular_rep(graph).t_order,
        "names": list(qs.element_names),
        "toric": _toric_matrices(graph),
        "partition_function": partition_function(graph),
        "invariance": modular_invariance_check(graph),
    }

"""Algebra of quantum symmetries of an ADE diagram.

The algebra is A (x)_J A, the tensor square of the fusion algebra glued
over the ambichiral subset J.  Following Ocneanu and Coquereaux-Trinchero,
the pairs carry the inner product <a(x)b, c(x)d> = sum_{j in J}
N_aj^c N_jb^d, and the quotient is by its radical.  The exchange
relations (a.x)(x)b = a(x)(x.b), x in J, lie in that radical because J
is closed under fusion, so with r^2/|J| dimensions left the quotient is
A (x)_J A.  The simple objects are pairs of norm 1: walking those in
position order and keeping each one orthogonal to all kept before must
give exactly r^2/|J| of them.  With C the Gram columns at the simple
objects, Gram = C.C^T is checked exactly, block by block, so every pair is
the sum of the simple objects its row of C names, and that row is its
image in the quotient.

The canonical basis is the first r^2/|J| pairs in position order, the
a(x)b with a < r/|J|, and the normal forms solve nf . C[:r^2/|J|] = C:
they are found in floats, rounded and verified exactly in integers.  As C
holds the identity at the simple objects, that check proves C[:r^2/|J|]
invertible, so each of these pairs is independent of the pairs before it
modulo the radical: they are the greedy basis, the first pairs in
position order that stay independent.  On A_n they are the pairs 0(x)b,
which are simple objects; E6 and E8 are the only other graphs that
reach this construction (ambichiral_subalgebra refuses D and E7), and the
check holds on both.  The pairs a(x)0
and 0(x)b have norm 1, so each of their rows of C is one simple object,
and the two chiral spans meet where these sets of simple objects do.

Elements are written a(x)b for vertex pairs; each canonical element is
named after its lexicographically smallest label pair among equivalent
single-pair representatives; QuantumSymmetries.element(a, b) looks up the
element a pair equals on its own, and per_element stacks one matrix per
element, built from those pairs.  Left and right chiral generators are the
images of 1(x)0 and 0(x)1, and multiplying the basis by them gives the
two edge families of the Cayley graph.
"""

from __future__ import annotations

import numpy as np

from .diagram import _frozen, cache_per_diagram, json_document
from .errors import StructuralError
from .essential import _decompose
from .fusion import (_check_index, _exact_dtype, ambichiral_subalgebra,
                     fusion_matrices)

__all__ = [
    "QuantumSymmetries",
    "quantum_symmetry_algebra",
    "normal_form",
    "multiply_qs",
    "cayley_graph",
    "cayley_dot",
    "s_matrices",
    "element_dims",
    "decompose_right",
    "ocneanu_json",
]

class _ReadOnlyDict(dict):
    """A dict that refuses mutation, for tables shared by every caller of
    the cached algebra; it compares, copies and serialises as a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("this table is shared through a cache and is "
                        "read-only; copy it with dict() to modify it")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class QuantumSymmetries:
    def __init__(self, algebra):
        self.algebra = algebra
        self.diagram = algebra.diagram
        self.ambichiral = ambichiral_subalgebra(algebra)
        r = algebra.rank
        size = len(self.ambichiral)
        if (r * r) % size:
            raise StructuralError(
                "tensor square size %d not divisible by |J|=%d"
                % (r * r, size))
        self.dim = (r * r) // size

        # Gram[(a,b),(c,d)] = sum_j N_j[a,c] N_j[b,d], as N_a[j,c] = N_j[a,c]
        nj = algebra.n[list(self.ambichiral)]
        norms = np.einsum("jaa,jbb->ab", nj, nj)
        # the column of a pair (c, d) is N_J[:, :, c]^T . N_J[:, :, d]: one
        # stacked product per c over its d of norm 1, on operands cast once
        # to a dtype that makes them exact (gathering both factors for every
        # pair took five times the Gram check's memory on A60)
        left, right = nj.transpose(2, 1, 0), nj.transpose(2, 0, 1)
        dtype = _exact_dtype((left, right))
        # C order, so that each left[c] is a BLAS operand
        left, right = left.astype(dtype, order="C"), right.astype(dtype)
        simples, cols = [], []
        for c, row in enumerate(norms == 1):
            ds = np.flatnonzero(row)
            block = np.matmul(left[c], right[ds]).reshape(len(ds), r * r)
            for d, col in zip(ds.tolist(), block):
                if not col[simples].any():
                    simples.append(c * r + d)
                    cols.append(col)
        if len(simples) != self.dim:
            raise StructuralError(
                "%d orthogonal pairs of norm 1, expected %d"
                % (len(simples), self.dim))
        gram_c = np.stack(cols, axis=1).astype(np.int64)

        # Gram = C.C^T, one row block a(x)- at a time in O(r^3) memory: the
        # operands go once to a dtype that makes every block's products
        # exact, and the products go to two kept buffers, as fresh pages
        # for each block would cost more than the products
        flat = nj.reshape(len(nj), r * r)
        dtype = _exact_dtype((flat.T, flat), (gram_c, gram_c.T))
        flat, c = flat.astype(dtype), gram_c.astype(dtype)
        block, rows = np.empty((2, r, r * r), dtype)
        for a in range(r):
            np.matmul(flat[:, a * r:(a + 1) * r].T, flat, out=block)
            np.matmul(c[a * r:(a + 1) * r], c.T, out=rows)
            if not np.array_equal(block.reshape(r, r, r),
                                  rows.reshape(r, r, r).transpose(1, 0, 2)):
                raise StructuralError(
                    "inner products of %d(x)b are not sums of simple "
                    "objects" % a)

        # the first dim pairs: the exact check below proves C[:dim]
        # invertible, so they are the greedy basis (module docstring)
        self.canonical = tuple(divmod(p, r) for p in range(self.dim))
        base = gram_c[:self.dim]
        nf = np.rint(np.linalg.solve(base.T, gram_c.T).T).astype(np.int64)
        if not np.array_equal(nf @ base, gram_c):
            raise StructuralError("normal forms do not verify exactly")
        nf = nf.reshape(r, r, self.dim)
        nf.setflags(write=False)
        self.nf = nf

        # the canonical element that a(x)b equals on its own, else -1
        single = (np.count_nonzero(nf, axis=2) == 1) & (nf.sum(axis=2) == 1)
        self._elements = np.where(single, nf.argmax(axis=2), -1)
        self.single_pairs = tuple(
            tuple(map(tuple, np.argwhere(self._elements == x).tolist()))
            for x in range(self.dim))

        self._name_elements()
        self._partition_elements()
        self._check_chiral_intersection(gram_c)
        self._pick_generators()

    def element(self, a, b):
        """Canonical index of a(x)b if it is one basis element, else None."""
        _check_index(self.algebra.rank, a, b)
        x = int(self._elements[a, b])
        return None if x < 0 else x

    def per_element(self, matrix, what):
        """matrix(a, b) for each canonical element, stacked in one
        read-only array; it must be the same over all of the element's
        single-pair forms."""
        mats = []
        for x, pairs in enumerate(self.single_pairs):
            first, *rest = (matrix(a, b) for a, b in pairs)
            if any(not np.array_equal(first, m) for m in rest):
                raise StructuralError(
                    "%s of element %d depends on the pair" % (what, x))
            mats.append(first)
        return _frozen(np.stack(mats))

    # -- naming and partition ------------------------------------------

    def _name_elements(self):
        labels = self.diagram.vertex_labels
        names = []
        for x, pairs in enumerate(self.single_pairs):
            if not pairs:
                raise StructuralError(
                    "canonical element %d has no single-pair form" % x)
            la, lb = min((int(labels[a]), int(labels[b])) for a, b in pairs)
            names.append("%d⊗%d" % (la, lb))
        self.element_names = tuple(names)

    def _partition_elements(self):
        r = self.algebra.rank
        amb = set(self.ambichiral)
        classes = {}
        for a in range(r):
            x = self.element(a, 0)
            if x is not None and x not in classes:
                classes[x] = "A" if a in amb else "L"
        for b in range(r):
            x = self.element(0, b)
            if x is not None and x not in classes:
                classes[x] = "A" if b in amb else "R"
        part = {"A": [], "L": [], "R": [], "C": []}
        for x in range(self.dim):
            part[classes.get(x, "C")].append(x)
        self.partition = _ReadOnlyDict((k, tuple(v)) for k, v in part.items())
        if len(self.partition["A"]) != len(self.ambichiral):
            raise StructuralError("ambichiral block has the wrong size")

    def _check_chiral_intersection(self, gram_c):
        """span(left chiral) meets span(right chiral) exactly in the
        ambichiral span.  a(x)0 and 0(x)b have norm N_0[a,a] = 1, so with
        Gram = C.C^T checked each of their rows of C is one simple object;
        nf = C.C[:dim]^-1 keeps every span dimension, so the meet has
        one dimension per simple object that both families use."""
        r = self.algebra.rank
        left = set(gram_c[::r].argmax(axis=1).tolist())
        right = set(gram_c[:r].argmax(axis=1).tolist())
        meet = len(left & right)
        if meet != len(self.ambichiral):
            raise StructuralError(
                "chiral subalgebras meet in dimension %d, expected %d"
                % (meet, len(self.ambichiral)))

    def _pick_generators(self):
        """The unit 0(x)0 and the chiral generators 1(x)0 and 0(x)1 (all
        0(x)0 for A1) must each be one basis element."""
        g = min(1, self.algebra.rank - 1)
        picks = []
        for what, a, b in (("unit", 0, 0), ("left generator", g, 0),
                           ("right generator", 0, g)):
            x = self.element(a, b)
            if x is None:
                raise StructuralError("%s is not a basis element" % what)
            picks.append(x)
        _, self.generator_left, self.generator_right = picks

    # -- products -------------------------------------------------------

    def product(self, x, y):
        """Structure constants of the product of canonical elements."""
        _check_index(self.dim, x, y)
        a, b = self.canonical[x]
        c, d = self.canonical[y]
        cons = self.algebra.n
        weight = np.outer(cons[a, c], cons[b, d])
        return np.tensordot(weight, self.nf, axes=([0, 1], [0, 1]))

    def generator_matrices(self):
        """Multiplication by the left and right generators, read-only."""
        return _generator_matrices(self)

    def __repr__(self):
        return "QuantumSymmetries(%s, dim=%d)" % (self.diagram.name, self.dim)


@cache_per_diagram
def quantum_symmetry_algebra(diagram):
    return QuantumSymmetries(fusion_matrices(diagram))


@cache_per_diagram
def _generator_matrices(diagram):
    qs = quantum_symmetry_algebra(diagram)
    mats = []
    for name, g in (("left", qs.generator_left),
                    ("right", qs.generator_right)):
        m = np.stack([qs.product(x, g) for x in range(qs.dim)])
        if not np.array_equal(m, m.T):
            raise StructuralError(
                "%s generator multiplication is not symmetric" % name)
        m.setflags(write=False)
        mats.append(m)
    return tuple(mats)


def normal_form(qs, a, b):
    """Coordinates of a(x)b over the canonical basis."""
    _check_index(qs.algebra.rank, a, b)
    return qs.nf[a, b].copy()


def multiply_qs(qs, x, y):
    return qs.product(x, y)


def s_matrices(qs):
    """One r x r integer matrix per canonical element: the product
    N_a . N_b over its single-pair forms, which must all agree."""
    return [m.copy() for m in _s_matrices(qs)]


@cache_per_diagram
def _s_matrices(diagram):
    cons = fusion_matrices(diagram).n
    return quantum_symmetry_algebra(diagram).per_element(
        lambda a, b: cons[a] @ cons[b], "matrix form")


def element_dims(qs):
    """Total entry sum of each element's matrix."""
    return _s_matrices(qs).sum(axis=(1, 2))


def decompose_right(ess, a, b):
    """Coefficients of E_a^T . E_b over the quantum symmetry matrices, for
    a, b as in decompose_left.  The reconstruction is checked exactly."""
    _check_index(len(ess.e), *np.ravel(a), *np.ravel(b))
    smats = _s_matrices(ess)
    return _decompose("right", smats, smats, a, b,
                      np.swapaxes(ess.e[a], -1, -2) @ ess.e[b])


def cayley_graph(qs):
    """Node names plus solid (left generator) and dashed (right
    generator) weighted edge lists; loops allowed."""
    solid, dashed = qs.generator_matrices()

    def edges(m):
        out = []
        for x in range(qs.dim):
            for y in range(x, qs.dim):
                w = int(m[x, y])
                if w:
                    out.append((x, y, w))
        return out

    return {
        "nodes": list(qs.element_names),
        "solid": edges(solid),
        "dashed": edges(dashed),
    }


def cayley_dot(qs):
    g = cayley_graph(qs)
    lines = ["graph cayley {"]
    for i, name in enumerate(g["nodes"]):
        lines.append('  n%d [label="%s"];' % (i, name))
    for x, y, w in g["solid"]:
        attr = ' [label="%d"]' % w if w > 1 else ""
        lines.append("  n%d -- n%d%s;" % (x, y, attr))
    for x, y, w in g["dashed"]:
        attr = ' [style=dashed%s]' % (', label="%d"' % w if w > 1 else "")
        lines.append("  n%d -- n%d%s;" % (x, y, attr))
    lines.append("}")
    return "\n".join(lines)


@json_document
def ocneanu_json(qs):
    """The quantum symmetry algebra as a dict of JSON values."""
    return {
        "graph": qs.diagram.name,
        "dimension": qs.dim,
        "canonical_pairs": [list(p) for p in qs.canonical],
        "names": list(qs.element_names),
        "partition": {k: list(v) for k, v in qs.partition.items()},
        "generators": {"left": qs.generator_left, "right": qs.generator_right},
        "normal_forms": qs.nf,
        "matrices": _s_matrices(qs),
    }

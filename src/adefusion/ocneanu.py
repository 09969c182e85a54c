"""Algebra of quantum symmetries of an ADE diagram.

Take the tensor square of the fusion algebra and quotient by the
relations (a.x) (x) b = a (x) (x.b) for x in the ambichiral subset J,
i.e. glue the two factors over J.  Writing R_x(a,b) for the difference,
R_xy(a,b) = R_y(a.x, b) + R_x(a, y.b), so the relations for a generating
set G of J span those for all of J; G is chosen greedily and certified
exactly (every x in J must lie in the span of products of G), and only
|G| r^2 relation vectors are imposed.  The quotient is computed exactly:
the relation vectors span an integer subspace of the r^2-dimensional
tensor square, reduced by sparse rational row echelon with the pair
columns in reversed order, and the quotient dimension must come out to
r^2/|J|.  Each pivot is then the latest pair of its relation, so the
free columns are the canonical basis and every pivot row, negated, is
the normal form of its pair: both are read off the one elimination.

Elements are written a(x)b for vertex pairs; the canonical basis is the
greedy one (first r^2/|J| pairs in position order that stay independent
modulo the relations), each named after its lexicographically smallest
label pair among equivalent single-pair representatives;
QuantumSymmetries.element(a, b) looks up the element a pair equals on its
own, and per_element builds one matrix per element from those pairs.  Left
and right chiral generators are the images of 1(x)0 and 0(x)1, and
multiplying the basis by them gives the two edge families of the Cayley
graph.
"""

from __future__ import annotations

import numpy as np

from ._ratlin import SparseRREF
from .diagram import cache_per_diagram
from .errors import StructuralError
from .fusion import ambichiral_subalgebra, fusion_matrices

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


def _times(cons, vec, g):
    """The fusion product vec . g of a sparse integer vector and a vertex."""
    out = {}
    for a, x in vec.items():
        for c in np.nonzero(cons[a, g])[0]:
            out[int(c)] = out.get(int(c), 0) + x * int(cons[a, g, c])
    return out


def _product_span(cons, gens):
    """Row echelon span of every product of the vertices gens, the empty
    product (the unit, vertex 0) included."""
    span = SparseRREF(cons.shape[0])
    todo = [{0: 1}]
    while todo:
        vec = todo.pop()
        if span.insert(vec):
            todo.extend(_times(cons, vec, g) for g in gens)
    return span


def _ambichiral_generators(cons, subset):
    """Generators of the ambichiral subset as an algebra.

    Greedy in position order: keep each vertex that is not yet in the span
    of products of those kept.  The choice is then certified: every vertex
    of subset must lie in the span of products of the generators alone.
    """
    gens = ()
    span = _product_span(cons, gens)
    for x in subset:
        if not span.contains({x: 1}):
            gens += (x,)
            span = _product_span(cons, gens)
    for x in subset:
        if not span.contains({x: 1}):
            raise StructuralError(
                "ambichiral vertex %d is not generated by %s" % (x, gens))
    return gens


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
        nj = len(self.ambichiral)
        if (r * r) % nj:
            raise StructuralError(
                "tensor square size %d not divisible by |J|=%d" % (r * r, nj))
        self.dim = (r * r) // nj

        cons = algebra.n
        self.ambichiral_generators = _ambichiral_generators(
            cons, self.ambichiral)
        # pair p = a*r + b sits in column r*r - 1 - p, so each pivot (the
        # smallest column of its row) is the latest pair of its relation
        last = r * r - 1
        rel = SparseRREF(r * r)
        for x in self.ambichiral_generators:
            for a in range(r):
                for b in range(r):
                    vec = np.zeros((r, r), dtype=np.int64)
                    vec[:, b] += cons[a, x]
                    vec[a, :] -= cons[x, b]
                    vec = vec.ravel()[::-1]
                    cols = np.flatnonzero(vec)
                    rel.insert(dict(zip(cols.tolist(), vec[cols].tolist())))
        if rel.rank != r * r - self.dim:
            raise StructuralError(
                "relation rank %d leaves dimension %d, expected %d"
                % (rel.rank, r * r - rel.rank, self.dim))
        self._relations = rel

        # A pair is independent of the earlier pairs modulo the relations
        # exactly when its column is free, so the free columns are the
        # greedy basis, dim of them by the rank check.  A pivot row reads
        # e_p + sum c_f e_f = 0 in the quotient with every f canonical, so
        # -c is the one coordinate vector of e_p over that basis.
        canonical = [p for p in range(r * r) if last - p not in rel.rows]
        self.canonical = tuple(divmod(p, r) for p in canonical)
        nf = np.zeros((r, r, self.dim), dtype=np.int64)
        flat = nf.reshape(r * r, self.dim)
        flat[canonical, range(self.dim)] = 1
        index = {last - p: i for i, p in enumerate(canonical)}
        for col, row in rel.rows.items():
            for f, coef in row.items():
                if coef.denominator != 1:
                    raise StructuralError(
                        "normal form of %d(x)%d is not integral"
                        % divmod(last - col, r))
                if f != col:
                    flat[last - col, index[f]] = -int(coef)
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
        self._pick_generators()

    def element(self, a, b):
        """Canonical index of a(x)b if it is one basis element, else None."""
        x = int(self._elements[a, b])
        return None if x < 0 else x

    def per_element(self, matrix, what):
        """matrix(a, b) for each canonical element, read-only; it must be
        the same over all of the element's single-pair forms."""
        mats = []
        for x, pairs in enumerate(self.single_pairs):
            first, *rest = (matrix(a, b) for a, b in pairs)
            if any(not np.array_equal(first, m) for m in rest):
                raise StructuralError(
                    "%s of element %d depends on the pair" % (what, x))
            first.setflags(write=False)
            mats.append(first)
        return tuple(mats)

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
        self._check_chiral_intersection()

    def _check_chiral_intersection(self):
        """span(left chiral) meets span(right chiral) exactly in the
        ambichiral span."""
        r = self.algebra.rank

        def rank_of(vecs):
            ech = SparseRREF(self.dim)
            for v in vecs:
                ech.insert({i: int(c) for i, c in enumerate(v) if c})
            return ech.rank

        left = [self.nf[a, 0] for a in range(r)]
        right = [self.nf[0, b] for b in range(r)]
        meet = rank_of(left) + rank_of(right) - rank_of(left + right)
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
    return np.array([int(m.sum()) for m in _s_matrices(qs)], dtype=np.int64)


def decompose_right(ess, a, b):
    """Coefficients of E_a^T . E_b over the quantum symmetry matrices.
    The reconstruction is checked exactly."""
    smats = _s_matrices(ess)
    coeffs = np.array([int(s[a, b]) for s in smats], dtype=np.int64)
    target = ess.e[a].T @ ess.e[b]
    rebuilt = np.tensordot(coeffs, np.array(smats), axes=(0, 0))
    if not np.array_equal(rebuilt, target):
        raise StructuralError(
            "right decomposition of (%d,%d) does not reconstruct" % (a, b))
    return coeffs


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


def ocneanu_json(qs):
    """The quantum symmetry algebra as a dict of JSON values."""
    return {
        "graph": qs.diagram.name,
        "dimension": qs.dim,
        "canonical_pairs": [list(p) for p in qs.canonical],
        "names": list(qs.element_names),
        "partition": {k: list(v) for k, v in qs.partition.items()},
        "generators": {"left": qs.generator_left, "right": qs.generator_right},
        "normal_forms": qs.nf.tolist(),
        "matrices": [m.tolist() for m in _s_matrices(qs)],
    }

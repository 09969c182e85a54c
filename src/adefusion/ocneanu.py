"""Algebra of quantum symmetries of an ADE diagram.

Take the tensor square of the fusion algebra and quotient by the
relations (a.x) (x) b = a (x) (x.b) for x in the ambichiral subset J,
i.e. glue the two factors over J.  Writing R_x(a,b) for the difference,
R_xy(a,b) = R_y(a.x, b) + R_x(a, y.b), so the relations for a generating
set G of J span those for all of J; G is chosen greedily and certified
exactly (every x in J must lie in the span of products of G), and only
|G| r^2 relation vectors are imposed.  The quotient is computed exactly:
the relation vectors span an integer subspace of the r^2-dimensional
tensor square, reduced by sparse rational row echelon, and the quotient
dimension must come out to r^2/|J|.  The normal forms of all r^2 pairs
come from one exact elimination of the canonical-residue block.

Elements are written a(x)b for vertex pairs; the canonical basis is the
greedy one (first r^2/|J| pairs in position order that stay independent
modulo the relations), each named after its lexicographically smallest
label pair among equivalent single-pair representatives.  Left and right
chiral generators are the images of 1(x)0 and 0(x)1, and multiplying the
basis by them gives the two edge families of the Cayley graph.
"""

from __future__ import annotations

import json

import numpy as np

from ._ratlin import SparseRREF, solve_many
from .errors import StructuralError
from .fusion import algebra_for, ambichiral_subalgebra

__all__ = [
    "QuantumSymmetries",
    "quantum_symmetry_algebra",
    "normal_form",
    "multiply_qs",
    "cayley_graph",
    "cayley_dot",
    "s_matrices",
    "element_dims",
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
        rel = SparseRREF(r * r)
        for x in self.ambichiral_generators:
            for a in range(r):
                for b in range(r):
                    vec = {}
                    for c in np.nonzero(cons[a, x])[0]:
                        col = int(c) * r + b
                        vec[col] = vec.get(col, 0) + int(cons[a, x, c])
                    for d in np.nonzero(cons[x, b])[0]:
                        col = a * r + int(d)
                        vec[col] = vec.get(col, 0) - int(cons[x, b, d])
                    rel.insert(vec)
        if rel.rank != r * r - self.dim:
            raise StructuralError(
                "relation rank %d leaves dimension %d, expected %d"
                % (rel.rank, r * r - rel.rank, self.dim))
        self._relations = rel

        residues = [rel.residue({a * r + b: 1}) for a in range(r) for b in range(r)]
        accepted = SparseRREF(r * r)
        canonical = []
        for p in range(r * r):
            if len(canonical) == self.dim:
                break
            if accepted.insert(residues[p]):
                canonical.append(p)
        if len(canonical) != self.dim:
            raise StructuralError("could not complete a canonical basis")
        self.canonical = tuple(divmod(p, r) for p in canonical)

        # residues live on the free columns; the canonical residues form a
        # square block, and one elimination solves it for every pair at once
        free = [c for c in range(r * r) if c not in rel.rows]
        block = [[residues[p].get(f, 0) for p in canonical] for f in free]
        rhs = [[rho.get(f, 0) for f in free] for rho in residues]
        sols, nullity = solve_many(block, rhs)
        nf = np.zeros((r, r, self.dim), dtype=np.int64)
        for p, sol in enumerate(sols):
            a, b = divmod(p, r)
            if sol is None or nullity:
                raise StructuralError(
                    "normal form of %d(x)%d is not unique" % (a, b))
            for i, coef in enumerate(sol):
                if coef.denominator != 1:
                    raise StructuralError(
                        "normal form of %d(x)%d is not integral" % (a, b))
                nf[a, b, i] = int(coef)
        nf.setflags(write=False)
        self.nf = nf

        self._name_elements()
        self._partition_elements()
        self._pick_generators()
        self._smats = None
        self._gen_mats = None

    # -- naming and partition ------------------------------------------

    def _unit_hits(self):
        """For each canonical index, the pairs equivalent to it alone."""
        r = self.algebra.rank
        hits = [[] for _ in range(self.dim)]
        for a in range(r):
            for b in range(r):
                v = self.nf[a, b]
                live = np.nonzero(v)[0]
                if len(live) == 1 and v[live[0]] == 1:
                    hits[int(live[0])].append((a, b))
        return hits

    def _name_elements(self):
        labels = self.diagram.vertex_labels
        names = []
        for x, pairs in enumerate(self._unit_hits()):
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

        def unit_index(vec):
            live = np.nonzero(vec)[0]
            if len(live) == 1 and vec[live[0]] == 1:
                return int(live[0])
            return None

        for a in range(r):
            x = unit_index(self.nf[a, 0])
            if x is not None and x not in classes:
                classes[x] = "A" if a in amb else "L"
        for b in range(r):
            x = unit_index(self.nf[0, b])
            if x is not None and x not in classes:
                classes[x] = "A" if b in amb else "R"
        part = {"A": [], "L": [], "R": [], "C": []}
        for x in range(self.dim):
            part[classes.get(x, "C")].append(x)
        self.partition = {k: tuple(v) for k, v in part.items()}
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
        def unit_or_die(vec, what):
            live = np.nonzero(vec)[0]
            if len(live) != 1 or vec[live[0]] != 1:
                raise StructuralError("%s generator is not a basis element" % what)
            return int(live[0])

        r = self.algebra.rank
        if r == 1:
            self.generator_left = self.generator_right = 0
            return
        self.generator_left = unit_or_die(self.nf[1, 0], "left")
        self.generator_right = unit_or_die(self.nf[0, 1], "right")

    # -- products -------------------------------------------------------

    def product(self, x, y):
        """Structure constants of the product of canonical elements."""
        a, b = self.canonical[x]
        c, d = self.canonical[y]
        cons = self.algebra.n
        weight = np.outer(cons[a, c], cons[b, d])
        return np.tensordot(weight, self.nf, axes=([0, 1], [0, 1]))

    def generator_matrices(self):
        if self._gen_mats is None:
            solid = np.stack([self.product(x, self.generator_left)
                              for x in range(self.dim)])
            dashed = np.stack([self.product(x, self.generator_right)
                               for x in range(self.dim)])
            for name, m in (("left", solid), ("right", dashed)):
                if not np.array_equal(m, m.T):
                    raise StructuralError(
                        "%s generator multiplication is not symmetric" % name)
            self._gen_mats = (solid, dashed)
        return self._gen_mats

    def __repr__(self):
        return "QuantumSymmetries(%s, dim=%d)" % (self.diagram.name, self.dim)


_cache = {}


def quantum_symmetry_algebra(graph):
    alg = algebra_for(graph)
    key = (alg.diagram.family, alg.diagram.rank)
    if key not in _cache:
        _cache[key] = QuantumSymmetries(alg)
    return _cache[key]


def normal_form(qs, a, b):
    """Coordinates of a(x)b over the canonical basis."""
    return qs.nf[a, b].copy()


def multiply_qs(qs, x, y):
    return qs.product(x, y)


def s_matrices(qs):
    """One r x r integer matrix per canonical element: the product
    N_a . N_b over its single-pair forms, which must all agree."""
    if qs._smats is None:
        cons = qs.algebra.n
        mats = []
        for x, pairs in enumerate(qs._unit_hits()):
            cand = [cons[a] @ cons[b] for a, b in pairs]
            for other in cand[1:]:
                if not np.array_equal(cand[0], other):
                    raise StructuralError(
                        "element %d has inequivalent matrix forms" % x)
            mats.append(cand[0])
        qs._smats = mats
    return [m.copy() for m in qs._smats]


def element_dims(qs):
    """Total entry sum of each element's matrix."""
    return np.array([int(m.sum()) for m in s_matrices(qs)], dtype=np.int64)


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
    return json.dumps({
        "graph": qs.diagram.name,
        "dimension": qs.dim,
        "canonical_pairs": [list(p) for p in qs.canonical],
        "names": list(qs.element_names),
        "partition": {k: list(v) for k, v in qs.partition.items()},
        "generators": {"left": qs.generator_left, "right": qs.generator_right},
        "normal_forms": qs.nf.tolist(),
        "matrices": [m.tolist() for m in s_matrices(qs)],
    }, indent=2, sort_keys=True)

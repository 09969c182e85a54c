import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adefusion import multiply_qs, quantum_symmetry_algebra
from adefusion.essential import essential_json, essential_matrices
from adefusion.fusion import fusion_json, fusion_matrices
from adefusion.modular import modular_json, toric_matrices
from adefusion.ocneanu import ocneanu_json, s_matrices

from _oracles import solve_many

FUSION_GRAPHS = ("A7", "D4", "E6", "E8")
QS_GRAPHS = ("A11", "E6", "E8")


@given(st.sampled_from(FUSION_GRAPHS), st.data())
def test_fusion_commutativity(graph, data):
    alg = fusion_matrices(graph)
    a = data.draw(st.integers(0, alg.rank - 1))
    b = data.draw(st.integers(0, alg.rank - 1))
    assert np.array_equal(alg.structure_constants(a, b),
                          alg.structure_constants(b, a))


@given(st.sampled_from(FUSION_GRAPHS), st.data())
def test_fusion_associativity(graph, data):
    alg = fusion_matrices(graph)
    r = alg.rank
    a = data.draw(st.integers(0, r - 1))
    b = data.draw(st.integers(0, r - 1))
    c = data.draw(st.integers(0, r - 1))
    # (ab)c and a(bc) expanded over the basis
    left = np.tensordot(alg.n[a, b], alg.n[:, c, :], axes=(0, 0))
    right = np.tensordot(alg.n[b, c], alg.n[a], axes=(0, 0))
    assert np.array_equal(left, right)


@given(st.sampled_from(QS_GRAPHS), st.data())
def test_qs_commutativity(graph, data):
    qs = quantum_symmetry_algebra(graph)
    x = data.draw(st.integers(0, qs.dim - 1))
    y = data.draw(st.integers(0, qs.dim - 1))
    assert np.array_equal(multiply_qs(qs, x, y), multiply_qs(qs, y, x))


@given(st.sampled_from(QS_GRAPHS), st.data())
def test_qs_associativity(graph, data):
    qs = quantum_symmetry_algebra(graph)
    x = data.draw(st.integers(0, qs.dim - 1))
    y = data.draw(st.integers(0, qs.dim - 1))
    z = data.draw(st.integers(0, qs.dim - 1))
    xy = multiply_qs(qs, x, y)
    yz = multiply_qs(qs, y, z)
    left = sum(int(c) * multiply_qs(qs, w, z)
               for w, c in enumerate(xy) if c)
    right = sum(int(c) * multiply_qs(qs, x, w)
                for w, c in enumerate(yz) if c)
    assert np.array_equal(left, right)


@given(st.sampled_from(QS_GRAPHS), st.data())
def test_quotient_well_defined(graph, data):
    # moving an ambichiral factor across the tensor sign fixes the class:
    # (a x) (x) b and a (x) (x b) share one normal form
    qs = quantum_symmetry_algebra(graph)
    r = qs.algebra.rank
    cons = qs.algebra.n
    a = data.draw(st.integers(0, r - 1))
    b = data.draw(st.integers(0, r - 1))
    x = data.draw(st.sampled_from(qs.ambichiral))
    left = np.tensordot(cons[a, x], qs.nf[:, b, :], axes=(0, 0))
    right = np.tensordot(cons[x, b], qs.nf[a], axes=(0, 0))
    assert np.array_equal(left, right)


@given(st.sampled_from(QS_GRAPHS), st.data())
def test_normal_form_respects_products(graph, data):
    # multiplying two arbitrary pairs equals multiplying their normal forms
    qs = quantum_symmetry_algebra(graph)
    r = qs.algebra.rank
    cons = qs.algebra.n
    a = data.draw(st.integers(0, r - 1))
    b = data.draw(st.integers(0, r - 1))
    c = data.draw(st.integers(0, r - 1))
    d = data.draw(st.integers(0, r - 1))
    weight = np.outer(cons[a, c], cons[b, d])
    direct = np.tensordot(weight, qs.nf, axes=([0, 1], [0, 1]))
    via_basis = sum(
        int(u) * int(v) * multiply_qs(qs, i, j)
        for i, u in enumerate(qs.nf[a, b]) if u
        for j, v in enumerate(qs.nf[c, d]) if v)
    assert np.array_equal(direct, via_basis)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.booleans(), st.data())
def test_solve_many_matches_single_solves(nrows, ncols, nrhs, repeat, data):
    ints = st.integers(-3, 3)
    a = [data.draw(st.lists(ints, min_size=ncols, max_size=ncols))
         for _ in range(nrows)]
    if repeat:
        # dependent rows: some right-hand sides are then inconsistent
        a.append(list(a[0]))
    bs = [data.draw(st.lists(ints, min_size=len(a), max_size=len(a)))
          for _ in range(nrhs)]
    sols, nullity = solve_many(a, bs)
    assert len(sols) == nrhs
    assert nullity == ncols - np.linalg.matrix_rank(np.array(a))
    for b, x in zip(bs, sols):
        (single,), single_nullity = solve_many(a, [b])
        assert single == x and single_nullity == nullity
        if x is None:
            augmented = np.column_stack([np.array(a), b])
            assert (np.linalg.matrix_rank(augmented)
                    > np.linalg.matrix_rank(np.array(a)))
            continue
        assert [sum(c * v for c, v in zip(row, x)) for row in a] == b


def test_fusion_json_roundtrip():
    for name in FUSION_GRAPHS:
        alg = fusion_matrices(name)
        data = json.loads(json.dumps(fusion_json(alg)))
        assert np.array_equal(np.array(data["matrices"]), alg.n), name


def test_essential_json_roundtrip():
    for name in ("A11", "E6"):
        ess = essential_matrices(name)
        data = json.loads(json.dumps(essential_json(ess)))
        assert np.array_equal(np.array(data["matrices"]), ess.e), name
        assert data["rows"] == ess.nrows


def test_ocneanu_json_roundtrip():
    for name in QS_GRAPHS:
        qs = quantum_symmetry_algebra(name)
        data = json.loads(json.dumps(ocneanu_json(qs)))
        assert np.array_equal(np.array(data["normal_forms"]), qs.nf), name
        got = [np.array(m) for m in data["matrices"]]
        want = s_matrices(qs)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert data["canonical_pairs"] == [list(p) for p in qs.canonical]


def test_modular_json_roundtrip():
    data = json.loads(json.dumps(modular_json("E6")))
    got = [np.array(m) for m in data["toric"]]
    want = toric_matrices("E6")
    assert len(got) == len(want) == 12
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert data["t_order"] == 48

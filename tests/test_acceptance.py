"""Acceptance gate: one test per headline claim, at the stated tolerance.

Each criterion is a single test function so that pytest -v prints one
pass/fail line per item.  Exact statements use integer equality, the
numerical ones carry their tolerance inline.
"""

import math

import numpy as np
import pytest

from adefusion import (
    ModularRep,
    NoPositiveHypergroupError,
    PathSpace,
    annihilation_operator,
    build_diagram,
    coxeter_exponents,
    decompose_left,
    decompose_right,
    essential_matrices,
    esspath_dims,
    fused_adjacency,
    graph_norm,
    intertwiner_check,
    jones_projector,
    modular_invariance_check,
    multiply_qs,
    normal_form,
    para_invariants,
    partition_function,
    perron_frobenius,
    q_number,
    quantum_symmetry_algebra,
    toric_matrices,
)
from adefusion.fusion import fusion_matrices
from adefusion.ocneanu import element_dims, s_matrices
from adefusion.path_model import essential_dims
from adefusion import golden

from _oracles import _element_index, _pos


def test_criterion_1_fusion_table():
    # all 36 products, the extended-vertex block, and the E7 refusal
    alg = fusion_matrices("E6")
    d = alg.diagram
    for (la, lb), want in golden.E6_FUSION_CELLS.items():
        counts = alg.structure_constants(_pos(d, la), _pos(d, lb))
        got = []
        for c in range(6):
            got.extend([int(d.vertex_labels[c])] * int(counts[c]))
        assert sorted(got) == sorted(want), (la, lb)
    n0 = alg.matrix(0)
    n3 = alg.matrix(_pos(d, 3))
    n4 = alg.matrix(_pos(d, 4))
    assert np.array_equal(n3 @ n3, n0 + n4)
    assert np.array_equal(n4 @ n4, n0)
    with pytest.raises(NoPositiveHypergroupError):
        fusion_matrices(build_diagram("E", 7))


def test_criterion_2_spectral_data():
    d = build_diagram("E", 6)
    assert abs(graph_norm(d) - (math.sqrt(3) + 1) / math.sqrt(2)) < 1e-9
    v = perron_frobenius(d)
    q = [q_number(n, 12) for n in range(4)]
    want = [q[1], q[2], q[3], q[2], q[1], q[3] / q[2]]
    assert np.max(np.abs(v - np.array(want))) < 1e-9
    eig = np.sort(np.linalg.eigvalsh(d.adjacency.astype(float)))
    ms = coxeter_exponents(d)
    assert ms == golden.E6_EXPONENTS
    want_eig = np.sort([2 * math.cos(math.pi * m / 12) for m in ms])
    assert np.max(np.abs(eig - want_eig)) < 1e-9


def test_criterion_3_essential_matrices():
    ess = essential_matrices("E6")
    d = ess.diagram
    for label, rows in golden.E6_E.items():
        assert np.array_equal(ess.e[_pos(d, label)], np.array(rows)), label
    from adefusion.essential import recurrence_rows
    rows = recurrence_rows(d, 12)
    assert not rows[11].any()
    assert np.array_equal(rows[12], golden.E6_E0_ROW12)
    assert -1 in rows[12]
    assert intertwiner_check(ess)
    f = fused_adjacency(ess)
    alg = ess.algebra
    for n, labels in golden.A11_F_DECOMP.items():
        want = sum(alg.matrix(_pos(d, lab)) for lab in labels)
        assert np.array_equal(f[n], want), n


def test_criterion_4_dimension_counts():
    e6 = esspath_dims(essential_matrices("E6"))
    assert tuple(e6) == golden.E6_DIMS
    assert e6.sum() == 156
    assert (e6 ** 2).sum() == 2512
    a11 = esspath_dims(essential_matrices("A11"))
    assert tuple(a11) == golden.A11_DIMS
    assert a11.sum() == golden.A11_DIMS_SUM
    assert (a11 ** 2).sum() == 8294
    for rank in range(4, 13):
        dims = esspath_dims(essential_matrices("A%d" % rank))
        assert dims.tolist() == [(rank - n) * (n + 1) for n in range(rank)]
    para = para_invariants(essential_matrices("E6"))
    assert tuple(para.sum(axis=0)) == golden.E6_PARA_TOTALS


def test_criterion_5_decomposition_tables():
    ess = essential_matrices("E6")
    d = ess.diagram
    a11 = fusion_matrices("A11")
    target = ess.e[_pos(d, 1)] @ ess.e[_pos(d, 5)].T
    want = (a11.matrix(2) + 2 * a11.matrix(4) + a11.matrix(6)
            + a11.matrix(8) + a11.matrix(10))
    assert np.array_equal(target, want)
    alg = ess.algebra
    assert np.array_equal(ess.e[0].T @ ess.e[0],
                          2 * alg.matrix(0) + alg.matrix(_pos(d, 2)))
    for (la, lb), cell in golden.E6_LEFT_TABLE.items():
        coeffs = decompose_left(ess, _pos(d, la), _pos(d, lb))
        assert {n: int(c) for n, c in enumerate(coeffs) if c} == cell
    qs = quantum_symmetry_algebra("E6")
    for (la, lb), cell in golden.E6_RIGHT_TABLE.items():
        coeffs = decompose_right(ess, _pos(d, la), _pos(d, lb))
        got = {i: int(c) for i, c in enumerate(coeffs) if c}
        assert got == {_element_index(qs, *p): m for p, m in cell.items()}
    assert (element_dims(qs) ** 2).sum() == 2512


def test_criterion_6_path_model_oracle():
    d = build_diagram("E", 6)
    ess = essential_matrices("E6")
    # the whole Coxeter window: rows 0..10, then zero at p = N-1 = 11
    assert ess.nrows == 11
    for p in range(0, 12):
        dims = essential_dims(PathSpace(d, p, cap=max(8, p)), tol=1e-9)
        want = ess.e[:, p, :] if p < ess.nrows else np.zeros_like(dims)
        assert np.array_equal(dims, want), p
    beta = graph_norm(d)
    for p in range(2, 9):
        space = PathSpace(d, p, origin=0, cap=max(8, p))
        proj = [jones_projector(space, k).matrix for k in range(1, p)]
        for i, e in enumerate(proj):
            assert np.max(np.abs(e @ e - e)) < 1e-9
            for j, f in enumerate(proj):
                if abs(i - j) == 1:
                    assert np.max(np.abs(e @ f @ e - e / beta ** 2)) < 1e-9
                elif abs(i - j) >= 2:
                    assert np.max(np.abs(e @ f - f @ e)) < 1e-9
    space = PathSpace(d, 4, origin=0)
    vec = np.zeros(space.dim)
    first, second = golden.E6_ESS4_PATHS
    vec[space.index[first]] = math.sqrt(q_number(2, 12))
    vec[space.index[second]] = -math.sqrt(q_number(3, 12) / q_number(2, 12))
    for k in range(1, 4):
        assert np.max(np.abs(annihilation_operator(space, k).matrix @ vec)) \
            < 1e-9


def test_criterion_7_quantum_symmetries():
    qs = quantum_symmetry_algebra("E6")
    d = qs.diagram
    assert qs.dim == 12
    assert len(qs.canonical) == 12
    for p1, p2 in golden.E6_QS_EQUAL_PAIRS:
        v1 = normal_form(qs, _pos(d, p1[0]), _pos(d, p1[1]))
        v2 = normal_form(qs, _pos(d, p2[0]), _pos(d, p2[1]))
        assert np.array_equal(v1, v2)
    for pair, parts in golden.E6_QS_SUM_IDENTITIES.items():
        got = normal_form(qs, _pos(d, pair[0]), _pos(d, pair[1]))
        want = np.zeros(12, dtype=np.int64)
        for la, lb in parts:
            want[_element_index(qs, la, lb)] += 1
        assert np.array_equal(got, want)
    for (xp, yp), parts in golden.E6_QS_PRODUCTS.items():
        got = multiply_qs(qs, _element_index(qs, *xp), _element_index(qs, *yp))
        want = np.zeros(12, dtype=np.int64)
        for la, lb in parts:
            want[_element_index(qs, la, lb)] += 1
        assert np.array_equal(got, want)
    solid, _ = qs.generator_matrices()
    col = [_element_index(qs, int(d.vertex_labels[p]), 0) for p in range(6)]
    assert np.array_equal(solid[np.ix_(col, col)], d.adjacency)
    assert quantum_symmetry_algebra("A11").dim == 11
    assert quantum_symmetry_algebra("E8").dim == 32


def test_criterion_8_modular_data():
    qs = quantum_symmetry_algebra("E6")
    ws = toric_matrices("E6")
    for (la, lb), rows in golden.E6_W.items():
        assert np.array_equal(ws[_element_index(qs, la, lb)],
                              np.array(rows)), (la, lb)
    for pair1, pair2 in golden.E6_W_COINCIDENCES:
        assert _element_index(qs, *pair1) == _element_index(qs, *pair2)
    rep = ModularRep(12)
    eye = np.eye(11)
    assert np.max(np.abs(np.linalg.matrix_power(rep.s, 4) - eye)) < 1e-9
    assert np.max(np.abs(rep.s @ rep.s + eye)) < 1e-9
    assert np.max(np.abs(np.linalg.matrix_power(rep.s @ rep.t, 3) - eye)) \
        < 1e-9
    assert np.max(np.abs(np.linalg.matrix_power(rep.t, 48) - eye)) < 1e-9
    w0 = ws[_element_index(qs, 0, 0)]
    assert np.max(np.abs(w0 @ rep.s - rep.s @ w0)) < 1e-9
    assert np.max(np.abs(w0 @ rep.t - rep.t @ w0)) < 1e-9
    others = [max(modular_invariance_check("E6", element=x)[k]
                  for k in ("s_deviation", "t_deviation"))
              for x in range(12) if x != _element_index(qs, 0, 0)]
    assert max(others) > 0.1
    assert partition_function("E6") == golden.E6_PARTITION_FUNCTION


def test_criterion_9_property_suites():
    rng = np.random.default_rng(20260822)
    for name in ("A7", "D4", "E6", "E8"):
        alg = fusion_matrices(name)
        r = alg.rank
        for _ in range(60):
            a, b, c = rng.integers(0, r, size=3)
            assert np.array_equal(alg.n[a, b], alg.n[b, a])
            left = np.tensordot(alg.n[a, b], alg.n[:, c, :], axes=(0, 0))
            right = np.tensordot(alg.n[b, c], alg.n[a], axes=(0, 0))
            assert np.array_equal(left, right)
    for name in ("A11", "E6", "E8"):
        qs = quantum_symmetry_algebra(name)
        cons = qs.algebra.n
        r = qs.algebra.rank
        for _ in range(40):
            x, y = rng.integers(0, qs.dim, size=2)
            assert np.array_equal(multiply_qs(qs, x, y),
                                  multiply_qs(qs, y, x))
            a, b = rng.integers(0, r, size=2)
            amb = qs.ambichiral[rng.integers(0, len(qs.ambichiral))]
            left = np.tensordot(cons[a, amb], qs.nf[:, b, :], axes=(0, 0))
            right = np.tensordot(cons[amb, b], qs.nf[a], axes=(0, 0))
            assert np.array_equal(left, right)
    # serialization identity
    import json as _json
    from adefusion.fusion import fusion_json
    from adefusion.essential import essential_json
    from adefusion.ocneanu import ocneanu_json
    alg = fusion_matrices("E6")
    assert np.array_equal(
        np.array(_json.loads(_json.dumps(fusion_json(alg)))["matrices"]),
        alg.n)
    ess = essential_matrices("E6")
    assert np.array_equal(
        np.array(_json.loads(_json.dumps(essential_json(ess)))["matrices"]),
        ess.e)
    qs = quantum_symmetry_algebra("E6")
    data = _json.loads(_json.dumps(ocneanu_json(qs)))
    assert np.array_equal(np.array(data["normal_forms"]), qs.nf)
    got = [np.array(m) for m in data["matrices"]]
    assert all(np.array_equal(g, w) for g, w in zip(got, s_matrices(qs)))

import math

import numpy as np
import pytest

from adefusion import (
    ModularRep,
    build_diagram,
    fusion_matrices,
    modular_invariance_check,
    modular_rep,
    normal_form,
    parse_graph_name,
    partition_function,
    quantum_symmetry_algebra,
    s_matrices,
    toric_matrices,
    verlinde_s,
    verlinde_t,
)
from adefusion.modular import _blocks_of, _t_order, modular_json
from adefusion.golden import (
    E6_PARTITION_FUNCTION,
    E6_S51,
    E6_T_BLOCKS,
    E6_W,
    E6_W_COINCIDENCES,
    T_ORDER_12,
)

from _oracles import _element_index, t_order_by_fractions


def test_t_order_matches_phase_fractions():
    for level in range(2, 400):
        assert _t_order(level) == t_order_by_fractions(level), level


def test_group_relations():
    rep = ModularRep(12)
    assert rep.t_order == T_ORDER_12
    dev = rep.relation_deviations()
    assert set(dev) == {"s2", "s4", "st3", "t_order"}
    assert all(v < 1e-9 for v in dev.values())
    eye = np.eye(11)
    assert np.allclose(rep.s @ rep.s, -eye, atol=1e-9)
    assert np.allclose(np.linalg.matrix_power(rep.s, 4), eye, atol=1e-9)
    assert np.allclose(np.linalg.matrix_power(rep.s @ rep.t, 3), eye,
                       atol=1e-9)
    assert np.allclose(np.linalg.matrix_power(rep.t, 48), eye, atol=1e-9)
    assert np.array_equal(rep.s, verlinde_s(12))
    assert np.array_equal(rep.t, verlinde_t(12))


def test_s_diagonalizes_path_fusion():
    rep = ModularRep(12)
    n1 = fusion_matrices("A11").matrix(1).astype(complex)
    conj = np.linalg.solve(rep.s, n1 @ rep.s)
    off = conj - np.diag(np.diag(conj))
    assert np.max(np.abs(off)) < 1e-9


def test_t_equal_inside_blocks():
    rep = ModularRep(12)
    t = np.diag(rep.t)
    for i, j in E6_T_BLOCKS:
        assert abs(t[i - 1] - t[j - 1]) < 1e-12, (i, j)
    # and distinct across blocks
    assert abs(t[0] - t[3]) > 0.1
    assert abs(t[3] - t[4]) > 0.1


def test_toric_matrices_match_printed():
    qs = quantum_symmetry_algebra("E6")
    ws = toric_matrices("E6")
    assert len(ws) == 12
    seen = set()
    for (la, lb), rows in E6_W.items():
        idx = _element_index(qs, la, lb)
        seen.add(idx)
        assert np.array_equal(ws[idx], np.array(rows)), (la, lb)
    assert seen == set(range(12))


def test_toric_coincidences():
    # the two pairs in each coincidence normalize to one element,
    # so their toric matrices agree by construction
    qs = quantum_symmetry_algebra("E6")
    d = qs.diagram
    for pair1, pair2 in E6_W_COINCIDENCES:
        assert _element_index(qs, *pair1) == _element_index(qs, *pair2)
        red1 = qs.nf[d.label_to_position(pair1[0]),
                     d.label_to_position(pair1[1])]
        red2 = qs.nf[d.label_to_position(pair2[0]),
                     d.label_to_position(pair2[1])]
        assert np.array_equal(red1, red2)


def test_invariant_element():
    res = modular_invariance_check("E6")
    assert res["invariant"]
    assert res["name"] == "0⊗0"
    assert res["s_deviation"] < 1e-9
    assert res["t_deviation"] < 1e-9


def test_only_identity_commutes():
    qs = quantum_symmetry_algebra("E6")
    rows = [modular_invariance_check("E6", element=x) for x in range(qs.dim)]
    assert sum(r["invariant"] for r in rows) == 1
    worst = max(max(r["s_deviation"], r["t_deviation"])
                for r in rows if not r["invariant"])
    assert worst > 0.1


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("check", [modular_invariance_check, modular_json])
def test_invariance_refuses_a_tol_that_is_not_finite_and_above_0(check, tol):
    # such a tol would report E6's modular invariant as not invariant
    with pytest.raises(ValueError, match="tol must be a finite number"):
        check("E6", tol=tol)


# a vertex pair or an element outside the algebra; a negative position
# would otherwise read from the end, as numpy indexing does
OUT_OF_RANGE = {
    "structure_constants": lambda qs, a, b:
        qs.algebra.structure_constants(a, b),
    "element": lambda qs, a, b: qs.element(a, b),
    "normal_form": normal_form,
    "modular_invariance_check": lambda qs, x: modular_invariance_check(
        "E6", element=x),
}


@pytest.mark.parametrize("past_the_end", [False, True])
@pytest.mark.parametrize("entry", sorted(OUT_OF_RANGE))
def test_positions_and_elements_out_of_range_are_refused(entry,
                                                         past_the_end):
    qs = quantum_symmetry_algebra("E6")
    if entry == "modular_invariance_check":
        x = qs.dim if past_the_end else -1
        calls, match = [(x,)], "element %d out of range" % x
    else:
        v = qs.algebra.rank if past_the_end else -1
        calls, match = [(v, 0), (0, v)], "vertex out of range"
    for args in calls:
        with pytest.raises(IndexError, match=match):
            OUT_OF_RANGE[entry](qs, *args)


def _t_deviation(rep, w):
    return np.abs(w @ rep.t - rep.t @ w).max()


def test_exact_t_commutation():
    rep = ModularRep(12)
    for (m, n), commutes in (((0, 6), True), ((0, 1), False)):
        # 0-based (0, 6) is 1^2 = 7^2 mod 48; (0, 1) is 1^2 != 2^2 mod 48
        w = np.zeros((11, 11), dtype=np.int64)
        w[m, n] = 1
        assert rep.commutes_with_t(w) == commutes
        assert (_t_deviation(rep, w) < 1e-9) == commutes
    for graph in ("E6", "E8", "A11"):
        rep = ModularRep(parse_graph_name(graph).coxeter_number)
        for x, w in enumerate(toric_matrices(graph)):
            res = modular_invariance_check(graph, element=x)
            assert rep.commutes_with_t(w) == (res["t_deviation"] < 1e-9)
            assert res["t_deviation"] == _t_deviation(rep, w)


def _commutes_with_t_by_differences(level, w):
    """Reference for the class rule: T[m,m] = T[n,n] exactly when
    m^2 - n^2 = 0 mod 4N, m and n 1-based, for every nonzero W[m,n]."""
    m, n = np.nonzero(w)
    return bool(np.all(((m + 1) ** 2 - (n + 1) ** 2) % (4 * level) == 0))


@pytest.mark.parametrize("graph", ["E6", "E8"]
                         + ["A%d" % n for n in range(11, 25)])
def test_t_classes_give_the_verdicts_of_the_differences(graph):
    rep = modular_rep(graph)
    verdicts = [rep.commutes_with_t(w) for w in toric_matrices(graph)]
    assert verdicts == [_commutes_with_t_by_differences(rep.level, w)
                        for w in toric_matrices(graph)]
    assert sum(verdicts) == 1           # only the invariant 0(x)0


def test_partition_function_strings():
    assert partition_function("E6") == E6_PARTITION_FUNCTION
    diag = "+".join("|χ%d|²" % n for n in range(1, 12))
    assert partition_function("A11") == diag


def test_blocks_must_sum_to_the_invariant():
    # the two blocks (0, 1) and (1, 2) cover this W, but their squares sum
    # to 2 at (1, 1), where W has 1
    overlap = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert _blocks_of(overlap) is None
    disjoint = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    assert _blocks_of(disjoint) == [(0, 2), (1,)]


def test_toric_unit_row_gives_dims():
    # W_x[0, :] summed over x recovers nothing exotic: each W is
    # integral and nonnegative, and the invariant one is symmetric
    ws = toric_matrices("E6")
    for w in ws:
        assert w.dtype == np.int64
        assert w.min() >= 0
    qs = quantum_symmetry_algebra("E6")
    w0 = ws[_element_index(qs, 0, 0)]
    assert np.array_equal(w0, w0.T)


def test_cached_values_are_isolated():
    """A caller writing into a returned array either fails (read-only) or
    writes into its own copy: the next call still sees the true values."""
    qs = quantum_symmetry_algebra("E6")
    d = build_diagram("E", 6)
    returned = (toric_matrices("E6") + s_matrices(qs)
                + list(qs.generator_matrices())
                + [fusion_matrices(d).n, qs.nf])
    for m in returned:
        try:
            m += 7
        except ValueError:
            pass
    with pytest.raises(ValueError):
        fusion_matrices(d).n[0] += 7
    with pytest.raises(ValueError):
        qs.nf[0] += 7
    mats = toric_matrices("E6")
    for pair, rows in E6_W.items():
        assert np.array_equal(mats[_element_index(qs, *pair)], rows), pair
    s51 = s_matrices(quantum_symmetry_algebra("E6"))[_element_index(qs, 5, 1)]
    assert np.array_equal(s51, E6_S51)

import numpy as np
import pytest

from adefusion import (
    build_diagram,
    decompose_left,
    decompose_right,
    essential_matrices,
    esspath_dims,
    fused_adjacency,
    intertwiner_check,
    para_invariants,
    quantum_symmetry_algebra,
    reduced_essential,
)
from adefusion.diagram import parse_graph_name
from adefusion.essential import _count_walk, recurrence_rows
from adefusion.fusion import fusion_matrices
from adefusion.golden import (
    A11_DIMS,
    A11_DIMS_SQ,
    A11_DIMS_SUM,
    A11_F_DECOMP,
    E6_DIMS,
    E6_DIMS_SQ,
    E6_DIMS_SUM,
    E6_E,
    E6_E0_ROW11,
    E6_E0_ROW12,
    E6_LEFT_TABLE,
    E6_PARA,
    E6_PARA_TOTALS,
    E6_PATHS7_BY_END,
    E6_PATHS7_TOTAL,
    E6_RIGHT_TABLE,
)

from _oracles import _element_index, _pos


def test_e6_printed_matrices():
    ess = essential_matrices("E6")
    d = ess.diagram
    assert ess.nrows == 11
    for label, rows in E6_E.items():
        assert np.array_equal(ess.e[_pos(d, label)], np.array(rows)), label


def test_recurrence_window_closes():
    rows = recurrence_rows(build_diagram("E", 6), 12)
    assert np.array_equal(rows[11], E6_E0_ROW11)
    assert np.array_equal(rows[12], E6_E0_ROW12)


def test_intertwiner():
    assert intertwiner_check(essential_matrices("E6"))
    assert intertwiner_check(essential_matrices("A7"))
    assert intertwiner_check(essential_matrices("D4"))


def test_fused_adjacency_decomposition():
    ess = essential_matrices("E6")
    alg = ess.algebra
    d = ess.diagram
    f = fused_adjacency(ess)
    assert np.array_equal(f[0], np.eye(6, dtype=np.int64))
    assert np.array_equal(f[1], d.adjacency)
    for n, labels in A11_F_DECOMP.items():
        want = sum(alg.matrix(_pos(d, lab)) for lab in labels)
        assert np.array_equal(f[n], want), n


def test_e6_dims():
    dims = esspath_dims(essential_matrices("E6"))
    assert tuple(dims) == E6_DIMS
    assert dims.sum() == E6_DIMS_SUM
    assert (dims ** 2).sum() == E6_DIMS_SQ


def test_a11_dims():
    dims = esspath_dims(essential_matrices("A11"))
    assert tuple(dims) == A11_DIMS
    assert dims.sum() == A11_DIMS_SUM
    assert (dims ** 2).sum() == A11_DIMS_SQ


def test_a_family_dims_formula():
    # d_n = (N - n)(n + 1) with N the vertex count
    for rank in range(4, 13):
        dims = esspath_dims(essential_matrices("A%d" % rank))
        want = [(rank - n) * (n + 1) for n in range(rank)]
        assert dims.tolist() == want, rank


def test_para_invariants():
    ess = essential_matrices("E6")
    d = ess.diagram
    para = para_invariants(ess)
    for label, want in E6_PARA.items():
        assert tuple(para[_pos(d, label)]) == want, label
    assert tuple(para.sum(axis=0)) == E6_PARA_TOTALS


def _last_count(d, length):
    """The path counts from vertex 0 at length, through the CLI's walk."""
    for v in _count_walk(d, length, (0,)):
        pass
    return v[0]


def test_path_counts_length7():
    v = _last_count(build_diagram("E", 6), 7)
    assert tuple(v) == E6_PATHS7_BY_END
    assert v.sum() == E6_PATHS7_TOTAL


def test_path_counts_refuse_int64_overflow():
    d = build_diagram("E", 6)
    v = _last_count(d, 68)
    assert v.dtype == np.int64 and v.min() >= 0
    want = np.zeros(6, dtype=object)
    want[0] = 1
    for _ in range(68):
        want = want @ d.adjacency.astype(object)
    assert v.tolist() == want.tolist()
    with pytest.raises(OverflowError):
        _last_count(d, 69)


@pytest.mark.parametrize("graph", ["A1", "A2", "A3", "D6", "E8"])
def test_count_walk_matches_exact_counts_until_int64_overflow(graph):
    # the walk steps in int64 while no count can pass int64 and in Python
    # ints after that; the exact counts come from object-dtype products
    d = parse_graph_name(graph)
    exact = np.eye(d.rank, dtype=object)
    walk = _count_walk(d, 200, range(d.rank))
    for n in range(201):
        if n:
            exact = exact @ d.adjacency.astype(object)
        if exact.max() > np.iinfo(np.int64).max:
            with pytest.raises(OverflowError,
                               match="paths of length %d from vertex" % n):
                next(walk)
            return
        v = next(walk)
        assert v.dtype == np.int64 and v.tolist() == exact.tolist(), n
    # only A1 and A2 have no count that grows without bound
    assert graph in ("A1", "A2")


def test_left_decomposition_table():
    ess = essential_matrices("E6")
    d = ess.diagram
    for (la, lb), want in E6_LEFT_TABLE.items():
        coeffs = decompose_left(ess, _pos(d, la), _pos(d, lb))
        got = {n: int(c) for n, c in enumerate(coeffs) if c}
        assert got == want, (la, lb)


def test_left_worked_example():
    # E_1 . transpose(E_5) = N_2 + 2 N_4 + N_6 + N_8 + N_10 over A11
    ess = essential_matrices("E6")
    d = ess.diagram
    a11 = fusion_matrices("A11")
    target = ess.e[_pos(d, 1)] @ ess.e[_pos(d, 5)].T
    want = (a11.matrix(2) + 2 * a11.matrix(4) + a11.matrix(6)
            + a11.matrix(8) + a11.matrix(10))
    assert np.array_equal(target, want)


def test_right_decomposition_table():
    # table cells may name an element by either of its coinciding pairs,
    # so compare through canonical element indices
    ess = essential_matrices("E6")
    d = ess.diagram
    qs = quantum_symmetry_algebra("E6")
    for (la, lb), want in E6_RIGHT_TABLE.items():
        coeffs = decompose_right(ess, _pos(d, la), _pos(d, lb))
        got = {i: int(c) for i, c in enumerate(coeffs) if c}
        want_idx = {_element_index(qs, *pair): m for pair, m in want.items()}
        assert got == want_idx, (la, lb)


def test_decompositions_over_arrays_of_cells():
    # row i of a call over arrays of positions is cell i's scalar call
    ess = essential_matrices("E6")
    a, b = np.divmod(np.arange(36), 6)
    for decompose in (decompose_left, decompose_right):
        rows = decompose(ess, a, b)
        assert rows.shape[0] == 36
        for i in range(36):
            want = decompose(ess, int(a[i]), int(b[i]))
            assert rows[i].tobytes() == want.tobytes(), (decompose, i)


def test_right_worked_example():
    # transpose(E_0) . E_0 = 2 N_0 + N_2
    ess = essential_matrices("E6")
    alg = ess.algebra
    d = ess.diagram
    target = ess.e[0].T @ ess.e[0]
    assert np.array_equal(target, 2 * alg.matrix(0) + alg.matrix(_pos(d, 2)))


@pytest.mark.parametrize("graph", ["A60", "D30", "E8"])
def test_essential_matrices_in_row_blocks_equal_one_product(graph):
    # A60 takes 15 row blocks of E_0 . N_a, D30 two, E8 one
    ess = essential_matrices(graph)
    e0 = recurrence_rows(ess.diagram, ess.nrows)[:ess.nrows]
    assert ess.e.dtype == np.int64
    assert np.array_equal(ess.e, np.einsum("nb,abc->anc", e0, ess.algebra.n))


def test_reduced_essential_zeroes_chiral_columns():
    ess = essential_matrices("E6")
    red = reduced_essential(ess)
    keep = [0, 4, 5]
    drop = [1, 2, 3]
    assert np.array_equal(red[:, :, keep], ess.e[:, :, keep])
    assert not red[:, :, drop].any()
    assert ess.e[:, :, drop].any()

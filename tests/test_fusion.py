import json

import numpy as np
import pytest

from adefusion import (
    NoPositiveHypergroupError,
    ambichiral_subalgebra,
    build_diagram,
    fusion_closed_subsets,
    fusion_json,
    fusion_matrices,
    fusion_table_ascii,
    multiply,
)
from adefusion.fusion import algebra_for
from adefusion.golden import (
    E6_AMBI_LABELS,
    E6_AMBI_POSITIONS,
    E6_BLOCK_ORDER,
    E6_FUSION_CELLS,
    E6_N,
)


def test_e6_matrices_match_printed():
    alg = algebra_for("E6")
    d = alg.diagram
    for label, rows in E6_N.items():
        a = d.label_to_position(label)
        assert np.array_equal(alg.matrix(a), np.array(rows)), label


def test_e6_products_match_table():
    alg = algebra_for("E6")
    d = alg.diagram
    for (la, lb), want in E6_FUSION_CELLS.items():
        a = d.label_to_position(la)
        b = d.label_to_position(lb)
        counts = multiply(alg, a, b)
        got = []
        for c in range(alg.rank):
            got.extend([int(d.vertex_labels[c])] * int(counts[c]))
        assert sorted(got) == sorted(want), (la, lb)


def test_e6_special_squares():
    # in label terms: N3 N3 = N0 + N4 and N4 N4 = N0
    alg = algebra_for("E6")
    d = alg.diagram
    m = {lab: alg.matrix(d.label_to_position(lab)) for lab in (0, 3, 4)}
    assert np.array_equal(m[3] @ m[3], m[0] + m[4])
    assert np.array_equal(m[4] @ m[4], m[0])


def test_unit_and_commutativity():
    for name in ("A7", "D4", "E6", "E8"):
        alg = algebra_for(name)
        assert np.array_equal(alg.matrix(0), np.eye(alg.rank, dtype=np.int64))
        mats = [alg.matrix(a) for a in range(alg.rank)]
        for x in mats:
            for y in mats:
                assert np.array_equal(x @ y, y @ x), name


def test_a_family_chebyshev():
    alg = algebra_for("A11")
    n0, n1, n2 = alg.matrix(0), alg.matrix(1), alg.matrix(2)
    assert np.array_equal(n1, alg.diagram.adjacency)
    assert np.array_equal(n1 @ n1, n0 + n2)
    flip = np.eye(11, dtype=np.int64)[::-1]
    assert np.array_equal(alg.matrix(10), flip)


def test_d4_fork_has_order_three():
    alg = algebra_for("D4")
    m = alg.matrix(2)
    want = np.array([[0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [1, 0, 0, 0]])
    assert np.array_equal(m, want)
    assert np.array_equal(m @ m @ m, np.eye(4, dtype=np.int64))
    assert np.array_equal(alg.matrix(3), m.T)


def test_e7_has_no_positive_ring():
    with pytest.raises(NoPositiveHypergroupError) as err:
        fusion_matrices(build_diagram("E", 7))
    assert "negative structure constant" in str(err.value)


def test_d5_has_no_positive_ring():
    with pytest.raises(NoPositiveHypergroupError) as err:
        fusion_matrices(build_diagram("D", 5))
    assert "fork rows" in str(err.value)


def test_e6_ambichiral_subset():
    alg = algebra_for("E6")
    amb = ambichiral_subalgebra(alg)
    assert amb == E6_AMBI_POSITIONS
    labels = tuple(int(alg.diagram.vertex_labels[v]) for v in amb)
    assert sorted(labels) == sorted(E6_AMBI_LABELS)
    # it is the only multiplicity-free closed subset of size 3
    for sub in fusion_closed_subsets(alg):
        if len(sub) != 3:
            continue
        block = alg.n[np.ix_(sub, sub, sub)]
        assert (block.max() <= 1) == (sub == amb), sub


def test_e8_ambichiral_subset():
    amb = ambichiral_subalgebra(algebra_for("E8"))
    assert len(amb) == 2 and amb[0] == 0


def test_a_ambichiral_is_everything():
    assert ambichiral_subalgebra(algebra_for("A5")) == (0, 1, 2, 3, 4)


def test_closed_subsets_e6():
    subs = fusion_closed_subsets(algebra_for("E6"))
    assert (0,) in subs
    assert tuple(range(6)) in subs
    assert all(s[0] == 0 for s in subs)
    assert subs == sorted(subs, key=lambda s: (len(s), s))


def test_table_ascii_block_order():
    lines = fusion_table_ascii(algebra_for("E6")).splitlines()
    want = [str(v) for v in E6_BLOCK_ORDER]
    assert lines[0].split() == want
    assert set(lines[1]) == {"-"}
    assert [row.split()[0] for row in lines[2:]] == want


def test_fusion_json_roundtrip():
    alg = algebra_for("E6")
    data = json.loads(json.dumps(fusion_json(alg)))
    assert data["graph"] == "E6"
    assert data["labels"] == list(alg.diagram.vertex_labels)
    assert np.array_equal(np.array(data["matrices"]), alg.n)

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adefusion import (
    NoPositiveHypergroupError,
    StructuralError,
    ambichiral_subalgebra,
    build_diagram,
    fusion_closed_subsets,
    fusion_json,
    fusion_matrices,
    fusion_table_ascii,
    multiply,
)
from adefusion._ratlin import solve_many
from adefusion.fusion import (
    _cyclic_generators,
    _Fail,
    _forced_rows,
    _long_branch,
    _verify_ring,
    algebra_for,
)
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


def _branch_polynomial(g, a):
    """Reference for the forced-row walk: N_a as the polynomial in g whose
    row 0 is e_a, solved exactly over Q."""
    powers = [np.eye(len(g), dtype=np.int64)]
    for _ in range(len(g) - 1):
        powers.append(powers[-1] @ g)
    # sum_k x_k (g^k)[0,c] = delta_{a,c}
    (sol,), nullity = solve_many(
        [[int(p[0, c]) for p in powers] for c in range(len(g))],
        [[int(c == a) for c in range(len(g))]])
    assert sol is not None and nullity == 0
    total = sum(x * p.astype(object) for x, p in zip(sol, powers) if x)
    assert all(Fraction(v).denominator == 1 for v in total.flat)
    return total.astype(np.int64)


@pytest.mark.parametrize("rank", [6, 7, 8], ids="E{}".format)
def test_branch_walk_matches_polynomial(rank):
    # E7 included: its walk gives the table that the ring check refuses
    d = build_diagram("E", rank)
    t = {6: 2, 7: 3, 8: 4}[rank]
    rows = _forced_rows(d, _long_branch(d.adjacency, t)[t], rank - 1)
    assert all(row is not None for row in rows)
    assert np.array_equal(np.array(rows),
                          _branch_polynomial(d.adjacency, rank - 1))
    if rank != 7:
        assert np.array_equal(fusion_matrices(d).n[rank - 1], np.array(rows))


@pytest.mark.parametrize("rank", [5, 7, 21, 41], ids="D{}".format)
def test_d_odd_has_no_positive_ring(rank):
    with pytest.raises(NoPositiveHypergroupError) as err:
        fusion_matrices(build_diagram("D", rank))
    assert "fork rows" in str(err.value)


def test_d38_still_refused_at_the_split_cap():
    with pytest.raises(StructuralError, match="search space too large"):
        fusion_matrices(build_diagram("D", 38))


def _ring_by_closure_loop(n):
    """Reference for _verify_ring: the checks it made before closure was
    proved, with closure tested over all r^2 pairs."""
    r = len(n)
    eye = np.eye(r, dtype=np.int64)
    if np.any(n < 0) or not np.array_equal(n[0], eye):
        return False
    if not np.array_equal(n[:, 0, :], eye):
        return False
    for a in range(r):
        for b in range(r):
            prod = n[a] @ n[b]
            if not np.array_equal(prod, n[b] @ n[a]):
                return False
            if not np.array_equal(prod, np.tensordot(n[a][b], n, axes=(0, 0))):
                return False
    return True


ACCEPTED = ([("A", r) for r in range(1, 31)]
            + [("D", r) for r in range(4, 37, 2)] + [("E", 6), ("E", 8)])


def test_accepted_tables_close_by_the_old_loop():
    for family, rank in ACCEPTED:
        alg = fusion_matrices(build_diagram(family, rank))
        assert _ring_by_closure_loop(alg.n), alg.diagram.name


def _negative(n):
    n[2, 3, 1] = n[3, 2, 1] = -1


def _wrong_unit(n):
    n[0, 1, 1] += 1


def _bad_row_zero(n):
    n[2, 0, 3] += 1


def _asymmetric(n):
    n[2, 3, 4] += 1


def _non_commuting(n):
    n[2, 2, 3] += 1


@pytest.mark.parametrize("graph", [("A", 7), ("D", 6), ("D", 10), ("E", 6),
                                   ("E", 8)])
@pytest.mark.parametrize("corrupt, reason", [
    (_negative, "negative structure constant"),
    (_wrong_unit, "vertex 0 is not the unit"),
    (_bad_row_zero, "row 0 of matrix 2"),
    (_asymmetric, "not symmetric"),
    (_non_commuting, "do not commute"),
])
def test_corrupted_table_is_refused(graph, corrupt, reason):
    alg = fusion_matrices(build_diagram(*graph))
    n = alg.n.copy()
    corrupt(n)
    with pytest.raises(_Fail, match=reason):
        _verify_ring(alg.diagram, list(n))
    assert not _ring_by_closure_loop(n)


def test_cyclic_generators():
    # G alone makes e_0 cyclic where its spectrum is simple (A, E); the
    # repeated eigenvalue of D_even needs one fork matrix besides
    assert _cyclic_generators(fusion_matrices(build_diagram("A", 1)).n) == ()
    for family, rank in ACCEPTED[1:] + [("A", r) for r in range(31, 61)]:
        want = (1, rank - 2) if family == "D" else (1,)
        alg = fusion_matrices(build_diagram(family, rank))
        assert _cyclic_generators(alg.n) == want, alg.diagram.name


PERTURBED = [("A", 7), ("A", 12), ("D", 6), ("D", 8), ("D", 10), ("E", 6),
             ("E", 8)]


@given(st.sampled_from(PERTURBED), st.data())
def test_perturbed_table_refused_as_by_the_old_loop(graph, data):
    alg = fusion_matrices(build_diagram(*graph))
    a, b, c = (data.draw(st.integers(0, alg.rank - 1)) for _ in range(3))
    n = alg.n.copy()
    n[a, b, c] += 1
    n[b, a, c] = n[a, b, c]
    try:
        _verify_ring(alg.diagram, list(n))
        accepted = True
    except _Fail:
        accepted = False
    assert accepted == _ring_by_closure_loop(n)


def _fork_splits_by_search(alg):
    """Reference for the pinned solve: every fork split under the budget
    s, enumerated over the product space and checked by the closure
    loop."""
    g, r = alg.diagram.adjacency, alg.rank
    f, f1 = r - 3, r - 2
    nf = alg.n[f]
    total = g @ nf - alg.n[f - 1]
    x = [np.eye(r, dtype=np.int64)[f1], nf[0]]
    for i in range(1, f):
        x.append(nf[i] - x[i - 1])
    s = nf[f] - x[f - 1]
    found = []
    for combo in itertools.product(*[range(int(v) + 1) for v in s]):
        y = np.array(combo, dtype=np.int64)
        if not np.array_equal(y @ g, nf[f1]):
            continue
        nf1 = np.vstack(x + [y, s - y])
        nf2 = total - nf1
        n = np.concatenate([alg.n[:f1], [nf1, nf2]])
        if np.all(nf2 >= 0) and _ring_by_closure_loop(n):
            found.append((nf1, nf2))
    return found


@pytest.mark.parametrize("rank", range(4, 25, 2))
def test_fork_split_matches_product_search(rank):
    alg = fusion_matrices(build_diagram("D", rank))
    (nf1, nf2), = _fork_splits_by_search(alg)
    assert np.array_equal(alg.n[rank - 2], nf1)
    assert np.array_equal(alg.n[rank - 1], nf2)


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


def _closed_subsets_by_enumeration(alg):
    """Reference for the grown subsets: every subset containing 0,
    checked pair by pair."""
    r = alg.rank
    closed = []
    for k in range(r):
        for rest in itertools.combinations(range(1, r), k):
            sub = (0,) + rest
            if all(set(np.nonzero(alg.n[a, b])[0]) <= set(sub)
                   for a in sub for b in sub):
                closed.append(sub)
    return sorted(closed, key=lambda s: (len(s), s))


@pytest.mark.parametrize("graph", ["A%d" % n for n in range(1, 13)]
                         + ["D%d" % n for n in range(4, 13, 2)]
                         + ["E6", "E8"])
def test_closed_subsets_match_enumeration(graph):
    alg = algebra_for(graph)
    assert fusion_closed_subsets(alg) == _closed_subsets_by_enumeration(alg)


@pytest.mark.parametrize("n", [30, 60])
def test_closed_subsets_of_a_n(n):
    # 2^(n-1) subsets contain 0 and four are closed: the unit, the simple
    # current, the even vertices, everything; the search must not visit all
    assert fusion_closed_subsets(algebra_for("A%d" % n)) == [
        (0,), (0, n - 1), tuple(range(0, n, 2)), tuple(range(n))]


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

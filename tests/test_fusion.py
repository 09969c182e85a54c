import ast
import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import adefusion
from adefusion import (
    NoPositiveHypergroupError,
    NotDefinedError,
    StructuralError,
    ambichiral_subalgebra,
    build_diagram,
    fusion_json,
    fusion_matrices,
    fusion_table_ascii,
)
from adefusion import diagram, essential, fusion, modular
from adefusion.fusion import (
    _construct_d,
    _exact_dtype,
    _Fail,
    _forced_rows,
    _int_matmul,
    _long_branch,
    _ring_generators,
    _verify_ring,
)
from adefusion.golden import (
    E6_AMBI_LABELS,
    E6_AMBI_POSITIONS,
    E6_BLOCK_ORDER,
    E6_FUSION_CELLS,
    E6_N,
)

from _oracles import (
    SparseRREF,
    cyclic_generators_over_q,
    fork_split_by_pinned_solve,
    fusion_closed_subsets,
    solve_many,
)


def test_e6_matrices_match_printed():
    alg = fusion_matrices("E6")
    d = alg.diagram
    for label, rows in E6_N.items():
        a = d.label_to_position(label)
        assert np.array_equal(alg.matrix(a), np.array(rows)), label


def test_e6_products_match_table():
    alg = fusion_matrices("E6")
    d = alg.diagram
    for (la, lb), want in E6_FUSION_CELLS.items():
        a = d.label_to_position(la)
        b = d.label_to_position(lb)
        counts = alg.structure_constants(a, b)
        got = []
        for c in range(alg.rank):
            got.extend([int(d.vertex_labels[c])] * int(counts[c]))
        assert sorted(got) == sorted(want), (la, lb)


def test_e6_special_squares():
    # in label terms: N3 N3 = N0 + N4 and N4 N4 = N0
    alg = fusion_matrices("E6")
    d = alg.diagram
    m = {lab: alg.matrix(d.label_to_position(lab)) for lab in (0, 3, 4)}
    assert np.array_equal(m[3] @ m[3], m[0] + m[4])
    assert np.array_equal(m[4] @ m[4], m[0])


def test_unit_and_commutativity():
    for name in ("A7", "D4", "E6", "E8"):
        alg = fusion_matrices(name)
        assert np.array_equal(alg.matrix(0), np.eye(alg.rank, dtype=np.int64))
        mats = [alg.matrix(a) for a in range(alg.rank)]
        for x in mats:
            for y in mats:
                assert np.array_equal(x @ y, y @ x), name


def test_a_family_chebyshev():
    alg = fusion_matrices("A11")
    n0, n1, n2 = alg.matrix(0), alg.matrix(1), alg.matrix(2)
    assert np.array_equal(n1, alg.diagram.adjacency)
    assert np.array_equal(n1 @ n1, n0 + n2)
    flip = np.eye(11, dtype=np.int64)[::-1]
    assert np.array_equal(alg.matrix(10), flip)


def test_d4_fork_has_order_three():
    alg = fusion_matrices("D4")
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


def _krylov_span(g):
    """span{e_0.G^k : k < r} over Q, in a SparseRREF."""
    span, v = SparseRREF(len(g)), np.eye(len(g), dtype=object)[0]
    for _ in range(len(g)):
        span.insert(dict(enumerate(v.tolist())))
        v = v.dot(g.astype(object))
    return span


def test_ring_generators():
    # the proof in _verify_ring: the e_0.G^k span Q^r on A and E; on D they
    # span only the hyperplane x_f1 = x_f2, which e_0.N_f1 = e_f1 leaves,
    # so S needs the fork matrix there.  The rule reads only the diagram,
    # refused diagrams included
    assert _ring_generators(build_diagram("A", 1)) == ()
    for family, rank in ACCEPTED[1:] + [("D", 5), ("D", 7), ("E", 7)]:
        d = build_diagram(family, rank)
        span = _krylov_span(d.adjacency)
        if family == "D":
            f1, f2 = rank - 2, rank - 1
            assert _ring_generators(d) == (1, f1), d.name
            assert span.rank == rank - 1, d.name
            assert all(row.get(f1, 0) == row.get(f2, 0)
                       for row in span.rows.values()), d.name
            assert span.residue({f1: 1}), d.name
        else:
            assert _ring_generators(d) == (1,), d.name
            assert span.rank == rank, d.name


def test_ring_generators_match_rank_over_q():
    graphs = (["A%d" % n for n in range(1, 61)]
              + ["D%d" % n for n in range(4, 37, 2)] + ["E6", "E8"])
    for graph in graphs:
        alg = fusion_matrices(graph)
        assert _ring_generators(alg.diagram) == \
            cyclic_generators_over_q(alg.n), graph


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


@pytest.mark.parametrize("a, b", [(2, 3), (13, 42), (57, 58)])
def test_ring_check_in_row_blocks_names_the_first_pair(a, b):
    # A60 is checked in 15 row blocks of 4 matrices; the refusal must name
    # the first matrix that the one stacked product over all of n finds
    alg = fusion_matrices(build_diagram("A", 60))
    n = alg.n.copy()
    n[a, b, 7] = n[b, a, 7] = n[a, b, 7] + 1
    first = np.flatnonzero(np.any(n @ n[1] != n[1] @ n, axis=(1, 2)))[0]
    with pytest.raises(_Fail, match="^matrices %d and 1 do not commute$"
                       % first):
        _verify_ring(alg.diagram, list(n))


def test_fusion_matrices_build_the_a_table_in_one_copy():
    # the long branch is written into the stack that the ring check and the
    # algebra keep, so the build holds one r^3 table at its peak, not two
    d = build_diagram("A", 60)
    tracemalloc.start()
    try:
        kept = fusion_matrices.__wrapped__(d).n.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * kept, peak / kept


@given(st.sampled_from(PERTURBED), st.data())
def test_perturbed_table_ring_generators_match_rank_over_q(graph, data):
    # the tables that reach the commutation check keep n[0], n[1] = G and
    # row 0 of every n[a]; a perturbation elsewhere may break the ring,
    # but e_0 stays cyclic for the same generators
    alg = fusion_matrices(build_diagram(*graph))
    r = alg.rank
    a, b, c = (data.draw(st.integers(lo, r - 1)) for lo in (2, 1, 0))
    n = alg.n.copy()
    n[a, b, c] += data.draw(st.integers(1, 3))
    if b > 1 and data.draw(st.booleans()):
        n[b, a, c] = n[a, b, c]
    assert _ring_generators(alg.diagram) == cyclic_generators_over_q(n)


@pytest.mark.parametrize("rank", list(range(4, 37, 2)) + [5, 7, 21, 41],
                         ids="D{}".format)
def test_fork_walk_matches_pinned_solve(rank):
    d = build_diagram("D", rank)
    try:
        want = fork_split_by_pinned_solve(d)
    except _Fail as exc:
        with pytest.raises(_Fail) as err:
            _construct_d(d)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    got = _construct_d(d)
    assert len(got) == len(want) == rank
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


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
    alg = fusion_matrices("E6")
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
    amb = ambichiral_subalgebra(fusion_matrices("E8"))
    assert len(amb) == 2 and amb[0] == 0


def test_a_ambichiral_is_everything():
    assert ambichiral_subalgebra(fusion_matrices("A5")) == (0, 1, 2, 3, 4)


def _ambichiral_by_search(alg):
    """Reference for the twist rule, the subset as it was found before it:
    every vertex on A, else the one multiplicity-free closed subset of
    size 3 on E6 and of size 2 on E8."""
    d = alg.diagram
    if d.family.value == "A":
        return tuple(range(d.rank))
    picks = [s for s in fusion_closed_subsets(alg)
             if len(s) == {6: 3, 8: 2}[d.rank]
             and alg.n[np.ix_(s, s, s)].max() <= 1]
    assert len(picks) == 1, picks
    return picks[0]


@pytest.mark.parametrize("graph", ["A%d" % n for n in range(1, 61)]
                         + ["E6", "E8"])
def test_ambichiral_from_the_twist_matches_the_closed_subset_search(graph):
    alg = fusion_matrices(graph)
    assert ambichiral_subalgebra(alg) == _ambichiral_by_search(alg)


@pytest.mark.parametrize("graph", ["D%d" % n for n in range(4, 41)] + ["E7"])
def test_ambichiral_refused_on_d_and_e7_before_any_work(graph, monkeypatch):
    def no_work(*args):
        raise AssertionError("ambichiral_subalgebra did work on " + graph)

    monkeypatch.setattr(fusion, "fusion_matrices", no_work)
    monkeypatch.setattr(fusion, "recurrence_rows", no_work)
    with pytest.raises(NotDefinedError) as exc:
        ambichiral_subalgebra(graph)
    assert str(exc.value) == \
        "ambichiral subalgebra is not defined for %s" % graph


@pytest.mark.parametrize("merged", [
    # characters 2, 6 and 8 reach E6's vertex 1, and J = (0, 1, 4) holds
    # 1.1 = 0 + 2
    (1, 5, 7),
    # one class for every character: J is every vertex, and 2.2 holds 2
    # twice
    range(11),
])
def test_ambichiral_refuses_a_subset_that_is_not_closed_or_has_multiples(
        monkeypatch, merged):
    classes = diagram._t_classes(12).copy()
    classes[list(merged)] = classes[merged[0]]
    monkeypatch.setattr(fusion, "_t_classes", lambda level: classes)
    with pytest.raises(StructuralError,
                       match="^ambichiral subset of E6 is not closed and "
                             "multiplicity-free$"):
        ambichiral_subalgebra.__wrapped__(build_diagram("E", 6))


def test_one_owner_for_the_recurrence_and_the_t_classes():
    assert essential.recurrence_rows is diagram.recurrence_rows
    assert fusion._t_classes is diagram._t_classes
    assert modular._t_classes is diagram._t_classes
    # fusion reads E_0 from diagram: essential imports fusion, not back
    imported = {node.module for node in ast.walk(ast.parse(
        inspect.getsource(fusion))) if isinstance(node, ast.ImportFrom)}
    assert "essential" not in imported


# sha256 of fusion_table_ascii as the closed-subset search ordered it
_TABLE_DIGESTS = {
    "E6": "cd7661d36dae927b813593d1b3a2fe92d65eccda19be556c681f7b0f061c69d6",
    "A11": "cba008a46e89fdf660ada5e551b75daf0cb7f92001d83e00036e11f8e7b1dbcd",
    "D4": "d0d92c711c75e0ececc6bce9100b2261c6215eeebe42267e57fdd4d25ed5406a",
    "D6": "a4b40c0e05f5dc332681a88672d0f792bad078035ce9d105529ce74f01fbeea2",
    "D8": "bcae2cae44f13f5c7e80e2f5855ae91d51725696b8b7d0a067ac2f4d1d87d83e",
    "D10": "8293007edae9bb1fde628c0651b091a1fd3db8c97c105780990191134d0fd587",
    "D12": "5904fea244de4bac82aadcbac7f2a524755c8b0d00280d945fa0fd44e08b86fa",
    "D14": "d882f431152921b62dd08f1d225f3401b8e03323a91b7774a9dac9951afe87d9",
    "D16": "b94695fb7be1f48cac321284fbf4da4707efda81ded6b8a49f4f10e5ee621d1c",
    "D18": "b843cdacfd4f71b3c186df945bf9e5ab3023b1957ff69e9d0d7130f62ab5dc8c",
    "D20": "b378e2b3085938b3769214bb2fbe3ef5e8ccabba4d7ec218231993702b0b04bb",
}


@pytest.mark.parametrize("graph", sorted(_TABLE_DIGESTS))
def test_table_ascii_bytes_unchanged(graph):
    text = fusion_table_ascii(fusion_matrices(graph))
    assert hashlib.sha256(text.encode()).hexdigest() == _TABLE_DIGESTS[graph]


def test_closed_subsets_e6():
    subs = fusion_closed_subsets(fusion_matrices("E6"))
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
    alg = fusion_matrices(graph)
    assert fusion_closed_subsets(alg) == _closed_subsets_by_enumeration(alg)


@pytest.mark.parametrize("n", [30, 60])
def test_closed_subsets_of_a_n(n):
    # 2^(n-1) subsets contain 0 and four are closed: the unit, the simple
    # current, the even vertices, everything; the search must not visit all
    assert fusion_closed_subsets(fusion_matrices("A%d" % n)) == [
        (0,), (0, n - 1), tuple(range(0, n, 2)), tuple(range(n))]


def test_table_ascii_block_order():
    lines = fusion_table_ascii(fusion_matrices("E6")).splitlines()
    want = [str(v) for v in E6_BLOCK_ORDER]
    assert lines[0].split() == want
    assert set(lines[1]) == {"-"}
    assert [row.split()[0] for row in lines[2:]] == want


def test_fusion_json_roundtrip():
    alg = fusion_matrices("E6")
    data = json.loads(json.dumps(fusion_json(alg)))
    assert data["graph"] == "E6"
    assert data["labels"] == list(alg.diagram.vertex_labels)
    assert np.array_equal(np.array(data["matrices"]), alg.n)


BOUND = 2 ** 53


@st.composite
def _factors(draw, entry_max):
    """Integer arrays a, b with a @ b defined, 2-D or stacked on either
    side, entries bounded by entry_max(k)."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    batch_a, batch_b = draw(st.sampled_from([((), ()), ((3,), ()), ((), (2,)),
                                             ((4,), (4,))]))
    top_a, top_b = entry_max(k, draw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(-top_a, top_a + 1, size=batch_a + (m, k), dtype=np.int64)
    b = rng.integers(-top_b, top_b + 1, size=batch_b + (k, n), dtype=np.int64)
    # one entry of each at its extreme, so the bound is reached
    a.flat[0], b.flat[-1] = top_a, -top_b
    return a, b


def _under_the_bound(k, draw):
    top_a = draw(st.integers(0, 2 ** 30))
    return top_a, (BOUND - 1) // (k * max(top_a, 1))


def _between_the_bounds(k, draw):
    # max|a|.max|b|.k lands in [2^53, 2^63), where float64 may round
    top_a = draw(st.integers(2 ** 26, 2 ** 31))
    return top_a, draw(st.integers(-(-BOUND // (k * top_a)),
                                   (2 ** 63 - 1) // (k * top_a)))


@given(_factors(_under_the_bound))
def test_int_matmul_equals_int64_product_under_the_bound(ab):
    a, b = ab
    got = _int_matmul(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, a @ b)
    # float64 operands, as _verify_ring passes them, give the same
    assert np.array_equal(_int_matmul(a.astype(float), b.astype(float)), got)


@given(_factors(_between_the_bounds))
def test_int_matmul_takes_int64_past_the_bound(ab):
    a, b = ab
    want = a.astype(object) @ b.astype(object)
    assert _int_matmul(a, b).tolist() == want.tolist()


def test_int_matmul_route_just_past_the_bound():
    # 2^27 + 1 times 2^26 + 1 is odd and past 2^53: float64 rounds it, so
    # only the int64 route gives it exactly
    a = np.array([[2 ** 27 + 1]])
    b = np.array([[2 ** 26 + 1]])
    exact = (2 ** 27 + 1) * (2 ** 26 + 1)
    assert int((a.astype(float) @ b.astype(float))[0, 0]) != exact
    assert int(_int_matmul(a, b)[0, 0]) == exact


@pytest.mark.parametrize("a, b", [
    ([[2 ** 32]], [[2 ** 31]]),
    ([[2 ** 31] * 4], [[2 ** 30]] * 4),
    ([[-2 ** 62, 1]], [[2], [1]]),
], ids=["entries", "inner-dimension", "negative"])
def test_int_matmul_refuses_past_int64(a, b):
    with pytest.raises(OverflowError, match="passes int64"):
        _int_matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))


@pytest.mark.parametrize("a, b, dtype", [
    ([[2 ** 26]], [[2 ** 26]], np.float64),           # 2^52
    ([[2 ** 27 + 1]], [[2 ** 26 + 1]], np.int64),     # just past 2^53
    ([[1] * 4], [[2 ** 51]] * 4, np.int64),           # 4 . 2^51 = 2^53
    ([[-1] * 4], [[2 ** 50]] * 4, np.float64),        # 4 . 2^50 = 2^52
])
def test_exact_dtype_is_float64_only_under_the_bound(a, b, dtype):
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    small = np.eye(2, dtype=np.int64)
    assert _exact_dtype((a, b)) is dtype
    # the largest bound over the pairs decides, in either order
    assert _exact_dtype((small, small), (a, b)) is dtype
    assert _exact_dtype((a, b), (small, small)) is dtype
    exact = (a.astype(object) @ b.astype(object)).tolist()
    assert (a.astype(dtype) @ b.astype(dtype)).astype(object).tolist() \
        == exact


def _child_says(code):
    src = os.path.dirname(os.path.dirname(adefusion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_closed_subsets_do_not_import_numpy_ma():
    # np.union1d and np.unique import numpy.ma on their first call, about
    # 15 ms in every fresh process
    probe = "print('numpy.ma' in sys.modules)"
    if _child_says("import sys, numpy; " + probe) != "False":
        pytest.skip("a bare import numpy already loads numpy.ma")
    assert _child_says(
        "import sys; from adefusion import ambichiral_subalgebra, "
        "quantum_symmetry_algebra; ambichiral_subalgebra('E6'); "
        "quantum_symmetry_algebra('E8'); " + probe) == "False"

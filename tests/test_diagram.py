import ast
import inspect
import math

import numpy as np
import pytest

import adefusion
from adefusion import diagram
from adefusion import (
    Family,
    StructuralError,
    UnsupportedDiagramError,
    build_diagram,
    coxeter_exponents,
    graph_norm,
    parse_graph_name,
    perron_frobenius,
    q_number,
)
from adefusion.golden import E6_CHAR_POLY, E6_EXPONENTS, E6_LABELS


def test_parse_graph_name():
    d = parse_graph_name("E6")
    assert d.name == "E6"
    assert d.family is Family.E
    assert d.rank == 6
    assert parse_graph_name(" a11 ").name == "A11"
    assert parse_graph_name("d4").coxeter_number == 6


def test_bad_names_rejected():
    for text in ("F4", "E9", "A0", "D3", "A", "Exx", "", "A1_0", "A+5", "E 6",
                 "A\u0663"):
        with pytest.raises(UnsupportedDiagramError):
            parse_graph_name(text)
    with pytest.raises(UnsupportedDiagramError):
        build_diagram("D~", 4)
    with pytest.raises(UnsupportedDiagramError):
        build_diagram("Q", 3)


def test_e6_layout():
    d = build_diagram("E", 6)
    assert d.vertex_labels == E6_LABELS
    g = d.adjacency
    assert np.array_equal(g, g.T)
    assert sorted(g.sum(axis=0).tolist()) == [1, 1, 1, 2, 2, 3]
    # the trivalent vertex sits at position 2 and carries label "2"
    assert g.sum(axis=0)[2] == 3
    assert d.vertex_labels[2] == "2"
    assert d.label_to_position("5") == 3
    assert d.label_to_position(3) == 5
    assert sorted(d.neighbors(2)) == [1, 3, 5]


def test_coxeter_numbers():
    assert build_diagram("A", 11).coxeter_number == 12
    assert build_diagram("E", 6).coxeter_number == 12
    assert build_diagram("D", 5).coxeter_number == 8
    assert build_diagram("E", 8).coxeter_number == 30


def test_graph_norms():
    a3 = build_diagram("A", 3)
    assert abs(graph_norm(a3) - math.sqrt(2)) < 1e-12
    e6 = build_diagram("E", 6)
    assert abs(graph_norm(e6) - (math.sqrt(3) + 1) / math.sqrt(2)) < 1e-12
    top = max(abs(np.linalg.eigvalsh(e6.adjacency.astype(float))))
    assert abs(graph_norm(e6) - top) < 1e-9


def test_perron_frobenius_small():
    assert np.allclose(perron_frobenius(build_diagram("A", 1)), [1.0])
    a3 = build_diagram("A", 3)
    assert np.allclose(perron_frobenius(a3), [1.0, math.sqrt(2), 1.0])


def test_perron_frobenius_e6_q_numbers():
    v = perron_frobenius(build_diagram("E", 6))
    q = [q_number(n, 12) for n in range(4)]
    want = [q[1], q[2], q[3], q[2], q[1], q[3] / q[2]]
    assert np.allclose(v, want, atol=1e-9)


def _norm_power_iteration(d, tol=1e-12, max_iter=100000):
    # reference: the loop with np.linalg.norm that perron_frobenius replaced
    if d.rank == 1:
        return np.array([1.0])
    shifted = d.adjacency.astype(float) + np.eye(d.rank)
    v = np.ones(d.rank)
    for _ in range(max_iter):
        w = shifted @ v
        w /= np.linalg.norm(w)
        if np.linalg.norm(w - v) < tol:
            v = w
            break
        v = w
    return v / v[0]


def test_perron_frobenius_matches_norm_loop_bit_for_bit():
    graphs = ([("A", n) for n in range(1, 61)]
              + [("D", n) for n in range(4, 42)]
              + [("E", n) for n in (6, 7, 8)])
    for fam, rank in graphs:
        d = build_diagram(fam, rank)
        want = _norm_power_iteration(d)
        assert perron_frobenius(d).tobytes() == want.tobytes(), d.name


def _one_step_loop(d, tol=1e-12, max_iter=100000):
    # reference: the one-step loop that the blocked iteration replaced,
    # verbatim, with its guard; returns the vector and the steps taken
    beta = graph_norm(d)
    g = d.adjacency.astype(float)
    shifted = g + np.eye(d.rank)
    v = np.ones(d.rank)
    steps = 0
    for _ in range(max_iter):
        steps += 1
        w = shifted @ v
        # sqrt(x . x) is what np.linalg.norm computes for a 1-D float
        # vector, bit for bit, without its argument handling
        w /= math.sqrt(np.dot(w, w))
        step = w - v
        if math.sqrt(np.dot(step, step)) < tol:
            v = w
            break
        v = w
    v = v / v[0]
    residual = np.max(np.abs(g @ v - beta * v))
    if residual > 1e-9:
        raise StructuralError(
            "power iteration residual %.3g exceeds 1e-9" % residual)
    return v, steps


def _outcome(fn):
    try:
        return fn()
    except StructuralError as exc:
        return str(exc)


def test_blocked_iteration_matches_one_step_loop_bit_for_bit():
    graphs = ([("A", n) for n in range(1, 121)]
              + [("D", n) for n in range(4, 101)]
              + [("E", n) for n in (6, 7, 8)])
    stop_in_block = set()
    for fam, rank in graphs:
        d = build_diagram(fam, rank)
        want, steps = _one_step_loop(d)
        assert perron_frobenius(d).tobytes() == want.tobytes(), d.name
        if steps > diagram._BLOCK:
            stop_in_block.add(steps % diagram._BLOCK)
    # stops on the first step of a later block (A11, 129 steps) and on the
    # last step of one (A100, 7968 steps) are among them
    assert {0, 1} <= stop_in_block


@pytest.mark.parametrize("name", ["A11", "D10", "E8"])
def test_blocked_iteration_matches_one_step_loop_at_the_edges(name):
    d = parse_graph_name(name)
    _, steps = _one_step_loop(d)
    cases = [(1e-12, m) for m in (0, 1, 31, 32, 33, 64, 65,
                                  steps - 1, steps, steps + 1)]
    # a tol whose square underflows
    cases.append((1e-200, 40))
    for tol, max_iter in cases:
        got = _outcome(lambda: perron_frobenius(d, tol, max_iter))
        want = _outcome(lambda: _one_step_loop(d, tol, max_iter)[0])
        if isinstance(want, str):
            assert got == want, (tol, max_iter)
        else:
            assert got.tobytes() == want.tobytes(), (tol, max_iter)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_perron_frobenius_refuses_a_tol_that_is_not_finite_and_above_0(tol):
    # refused before the kept call, so nothing is computed or kept
    kept = diagram._perron_frobenius.cache_info().currsize
    with pytest.raises(ValueError, match="tol must be a finite number"):
        perron_frobenius(parse_graph_name("A5"), tol, 40)
    assert diagram._perron_frobenius.cache_info().currsize == kept


def test_perron_frobenius_refuses_when_unconverged():
    with pytest.raises(StructuralError, match="power iteration residual"):
        perron_frobenius(build_diagram("A", 11), max_iter=3)


def test_characteristic_polynomial_e6():
    d = build_diagram("E", 6)
    coeffs = np.poly(d.adjacency.astype(float))
    assert np.allclose(coeffs, E6_CHAR_POLY, atol=1e-9)


def test_exponents():
    assert coxeter_exponents(build_diagram("E", 6)) == E6_EXPONENTS
    for name in ("A5", "D4", "E8"):
        d = parse_graph_name(name)
        eig = np.sort(np.linalg.eigvalsh(d.adjacency.astype(float)))
        want = np.sort([2 * math.cos(math.pi * m / d.coxeter_number)
                        for m in coxeter_exponents(d)])
        assert np.allclose(eig, want, atol=1e-9), name


def test_spectral_data_residual():
    d = build_diagram("D", 6)
    pf = perron_frobenius(d)
    g = d.adjacency.astype(float)
    res = g @ pf - graph_norm(d) * pf
    assert np.max(np.abs(res)) < 1e-9
    assert coxeter_exponents(d) == (1, 3, 5, 7, 9, 5)


def test_package_names_are_exported_by_their_modules():
    # every name adefusion imports from a module is one that
    # "from module import *" gives, as the benchmark's tracer reads __all__
    tree = ast.parse(inspect.getsource(adefusion))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            star = {}
            exec("from adefusion.%s import *" % node.module, star)
            missing = [a.name for a in node.names if a.name not in star]
            assert not missing, (node.module, missing)


def test_q_numbers():
    assert abs(q_number(2, 12) - 2 * math.cos(math.pi / 12)) < 1e-12
    assert abs(q_number(3, 4) - 1.0) < 1e-12
    assert abs(q_number(1, 7) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        q_number(1, 1)


def test_neighbors_match_adjacency_rows():
    # reference rule: the nonzero positions of the adjacency row, ascending
    graphs = ([("A", n) for n in range(1, 13)]
              + [("D", n) for n in range(4, 13)]
              + [("E", n) for n in (6, 7, 8)])
    for fam, rank in graphs:
        d = build_diagram(fam, rank)
        for v in range(rank):
            want = tuple(int(w) for w in np.flatnonzero(d.adjacency[v]))
            assert d.neighbors(v) == want, (d.name, v)

"""The frozen-reference checks of `adefusion verify-paper`.

E6_CHECKS and A11_CHECKS are ordered (name, check) pairs.  A check is a
plain function of no arguments that fetches what it compares through the
library's caches and raises AssertionError on a mismatch; run() turns each
exception into a FAIL line, so a layer that raises fails only the checks
that reach it.  A FAIL line names the type of any exception but a mismatch.
"""

import math

import numpy as np

from . import golden
from .diagram import graph_norm, parse_graph_name, perron_frobenius, q_number
from .errors import (NoPositiveHypergroupError, NotDefinedError,
                     StructuralError)
from .essential import (decompose_left, essential_matrices, esspath_dims,
                        fused_adjacency, intertwiner_check, para_invariants,
                        recurrence_rows)
from .fusion import fusion_matrices
from .modular import (modular_invariance_check, modular_rep,
                      partition_function, toric_matrices)
from .ocneanu import (decompose_right, element_dims, multiply_qs,
                      quantum_symmetry_algebra, s_matrices)
from .path_model import PathSpace, annihilation_operator, enumerate_paths

def _require(ok, message):
    if not ok:
        raise AssertionError(message)


def _assert_equal(got, want, what):
    _require(np.array_equal(np.asarray(got), np.asarray(want)),
             "%s does not match the frozen value" % what)


def _close(got, want, message):
    _require(np.max(np.abs(np.subtract(got, want))) <= 1e-9, message)


def _frozen(computed, table, what, index):
    """Each frozen table[key] against computed[index(key)], as what % key."""
    for key, want in table.items():
        _assert_equal(computed[index(key)], want, what % key)


def _e6():
    return parse_graph_name("E6")


def _positions(qs, pair):
    return tuple(qs.diagram.label_to_position(label) for label in pair)


def _element_of(qs, pair):
    x = qs.element(*_positions(qs, pair))
    _require(x is not None, "%s(x)%s is not a basis element" % pair)
    return x


def _nf_of(qs, pair):
    return qs.nf[_positions(qs, pair)]


def _dims(graph, want, total, squares):
    dims = esspath_dims(essential_matrices(graph))
    _assert_equal(dims, want, "%s dims" % graph)
    _require(int(dims.sum()) == total and int((dims ** 2).sum()) == squares,
             "%s dimension sums are off" % graph)


def _fusion_table():
    alg, lp = fusion_matrices("E6"), _e6().label_to_position
    labels = alg.diagram.vertex_labels
    for (a, b), want in golden.E6_FUSION_CELLS.items():
        cons = alg.structure_constants(lp(a), lp(b))
        got = [int(labels[c]) for c in range(alg.rank) for _ in range(cons[c])]
        _require(sorted(got) == sorted(want),
                 "product %d*%d disagrees" % (a, b))


def _fusion_extended_block():
    alg, lp = fusion_matrices("E6"), _e6().label_to_position
    n0, n3, n4 = (alg.n[lp(a)] for a in (0, 3, 4))
    _assert_equal(n3 @ n3, n0 + n4, "N3*N3")
    _assert_equal(n4 @ n4, n0, "N4*N4")
    _assert_equal(n4 @ n3, n3, "N4*N3")


def _fusion_positivity_e7():
    try:
        fusion_matrices("E7")
    except NoPositiveHypergroupError:
        return
    raise AssertionError("E7 construction did not fail")


def _fused_adjacency():
    alg, lp = fusion_matrices("E6"), _e6().label_to_position
    f = fused_adjacency(essential_matrices(alg))
    for n, labels in golden.A11_F_DECOMP.items():
        _assert_equal(f[n], sum(alg.n[lp(x)] for x in labels), "F_%d" % n)


def _dims_a11():
    _dims("A11", golden.A11_DIMS, golden.A11_DIMS_SUM, golden.A11_DIMS_SQ)


def _dims_a_family():
    for nverts in range(4, 13):
        dims = esspath_dims(essential_matrices("A%d" % nverts))
        want = [(nverts - n) * (n + 1) for n in range(nverts)]
        _assert_equal(dims, want, "A%d dims" % nverts)


def _para_invariants():
    p = para_invariants(essential_matrices("E6"))
    _frozen(p, golden.E6_PARA, "diagonal of E_%d", _e6().label_to_position)
    _assert_equal(p.sum(axis=0), golden.E6_PARA_TOTALS, "totals")


def _decomposed_cells(decompose, ess, cells):
    """(cell, coefficients) for each E6 label pair in cells: one decompose
    call for all of them or, if one does not reconstruct, one per cell as
    read, so that the first cell to fail either way is the one named."""
    lp = _e6().label_to_position
    a, b = np.array([[lp(x), lp(y)] for x, y in cells]).T
    try:
        return zip(cells, decompose(ess, a, b))
    except StructuralError:
        return zip(cells, (decompose(ess, x, y) for x, y in zip(a, b)))


def _decomposition_left():
    cells, ess = golden.E6_LEFT_TABLE, essential_matrices("E6")
    for (a, b), coeffs in _decomposed_cells(decompose_left, ess, cells):
        _require({n: int(c) for n, c in enumerate(coeffs) if c}
                 == cells[a, b], "left cell (%d,%d) disagrees" % (a, b))


def _decomposition_right():
    cells, ess = golden.E6_RIGHT_TABLE, essential_matrices("E6")
    qs, elements = quantum_symmetry_algebra("E6"), {}
    for (a, b), coeffs in _decomposed_cells(decompose_right, ess, cells):
        wantvec = np.zeros(qs.dim, dtype=np.int64)
        for pair, mult in cells[a, b].items():
            if pair not in elements:
                elements[pair] = _element_of(qs, pair)
            wantvec[elements[pair]] += mult
        _assert_equal(coeffs, wantvec, "right cell (%d,%d)" % (a, b))


def _element_dims():
    qs = quantum_symmetry_algebra("E6")
    dims = element_dims(qs)
    _assert_equal([dims[_element_of(qs, p)] for p in golden.E6_QS_DVEC],
                  list(golden.E6_QS_DVEC.values()), "entry totals")
    _require(int((dims ** 2).sum()) == golden.E6_QS_DSQ,
             "sum of squared entry totals is off")


def _paths_length7():
    paths = enumerate_paths(_e6(), 7, origin=0)
    _require(len(paths) == golden.E6_PATHS7_TOTAL, "path count is off")
    _assert_equal(np.bincount([p[-1] for p in paths], minlength=6),
                  golden.E6_PATHS7_BY_END, "endpoint counts")


def _essential_path_length4():
    space = PathSpace(_e6(), 4, origin=0)
    q2, q3 = q_number(2, 12), q_number(3, 12)
    v = np.zeros(space.dim)
    v[space.index[golden.E6_ESS4_PATHS[0]]] = math.sqrt(q2)
    v[space.index[golden.E6_ESS4_PATHS[1]]] = -math.sqrt(q3 / q2)
    for k in range(1, 4):
        _close(annihilation_operator(space, k).matrix @ v, 0.0,
               "C_%d does not kill the combination" % k)


def _qs_identities():
    qs = quantum_symmetry_algebra("E6")
    for left, right in golden.E6_QS_EQUAL_PAIRS:
        _assert_equal(_nf_of(qs, left), _nf_of(qs, right),
                      "%s = %s" % (left, right))
    for pair, parts in golden.E6_QS_SUM_IDENTITIES.items():
        _assert_equal(_nf_of(qs, pair), sum(_nf_of(qs, p) for p in parts),
                      "expansion of %s" % (pair,))


def _qs_products():
    qs = quantum_symmetry_algebra("E6")
    for (x, y), parts in golden.E6_QS_PRODUCTS.items():
        got = multiply_qs(qs, _element_of(qs, x), _element_of(qs, y))
        _assert_equal(got, sum(_nf_of(qs, p) for p in parts),
                      "product %s * %s" % (x, y))


def _qs_partition():
    qs = quantum_symmetry_algebra("E6")
    for key in "ALRC":
        want = getattr(golden, "E6_QS_CLASS_" + key)
        _require(sorted(qs.partition[key])
                 == sorted(_element_of(qs, p) for p in want),
                 "class %s disagrees" % key)


def _qs_matrix_51():
    qs = quantum_symmetry_algebra("E6")
    _assert_equal(s_matrices(qs)[_element_of(qs, (5, 1))], golden.E6_S51,
                  "S of 5(x)1")


def _qs_cayley_solid():
    qs = quantum_symmetry_algebra("E6")
    solid, _ = qs.generator_matrices()
    idx = [_element_of(qs, (int(label), 0))
           for label in qs.diagram.vertex_labels]
    _assert_equal(solid[np.ix_(idx, idx)], qs.diagram.adjacency,
                  "solid subgraph on the left chiral block")


def _toric_matrices():
    qs = quantum_symmetry_algebra("E6")
    _frozen(toric_matrices("E6"), golden.E6_W, "W of %s(x)%s",
            lambda pair: _element_of(qs, pair))


def _toric_coincidences():
    qs = quantum_symmetry_algebra("E6")
    for left, right in golden.E6_W_COINCIDENCES:
        _require(_element_of(qs, left) == _element_of(qs, right),
                 "%s and %s differ" % (left, right))


def _modular_relations():
    rep = modular_rep("A11")
    dev = rep.relation_deviations()
    _require(max(dev.values()) <= 1e-9,
             "generator relations deviate: %r" % dev)
    _require(rep.t_order == golden.T_ORDER_12, "T order is off")


def _modular_diagonalize():
    s = modular_rep("A11").s
    m = np.linalg.solve(s, fusion_matrices("A11").n[1].astype(complex) @ s)
    _close(m, np.diag(np.diag(m)), "S does not diagonalize the A11 adjacency")


def _modular_t_blocks():
    t = np.diag(modular_rep("A11").t)
    for i, j in golden.E6_T_BLOCKS:
        _close(t[i - 1], t[j - 1], "T eigenvalues %d and %d differ" % (i, j))


def _modular_invariance():
    qs = quantum_symmetry_algebra("E6")
    origin = _element_of(qs, (0, 0))
    _require(modular_invariance_check("E6", element=origin)["invariant"],
             "W at the origin does not commute")
    worst = max(modular_invariance_check("E6", element=x)["s_deviation"]
                for x in range(qs.dim) if x != origin)
    _require(worst > 0.1, "every other W nearly commutes (max %.3g)" % worst)


E6_CHECKS = (
    ("fusion-table", _fusion_table),
    ("fusion-matrices", lambda: _frozen(fusion_matrices("E6").n, golden.E6_N,
                                        "N_%d", _e6().label_to_position)),
    ("fusion-extended-block", _fusion_extended_block),
    ("fusion-positivity-e7", _fusion_positivity_e7),
    ("spectral-norm", lambda: _close(
        graph_norm(_e6()), (math.sqrt(3.0) + 1.0) / math.sqrt(2.0),
        "norm of E6 is off")),
    ("spectral-perron-frobenius", lambda: _close(
        perron_frobenius(_e6()), [q_number(k, 12) for k in (1, 2, 3, 2, 1)]
        + [q_number(3, 12) / q_number(2, 12)],
        "Perron-Frobenius vector is off")),
    ("spectral-eigenvalues", lambda: _close(
        np.linalg.eigvalsh(_e6().adjacency.astype(float)),
        np.sort([2.0 * math.cos(math.pi * m / 12.0)
                 for m in golden.E6_EXPONENTS]),
        "adjacency spectrum is off")),
    ("essential-matrices", lambda: _frozen(
        essential_matrices("E6").e, golden.E6_E, "E_%d",
        _e6().label_to_position)),
    ("essential-window", lambda: _assert_equal(
        recurrence_rows(_e6(), 12)[11:],
        [golden.E6_E0_ROW11, golden.E6_E0_ROW12], "rows 11 and 12")),
    ("essential-intertwiner", lambda: _require(
        intertwiner_check(essential_matrices("E6")),
        "E_0 does not intertwine the adjacencies")),
    ("fused-adjacency", _fused_adjacency),
    ("dims-e6", lambda: _dims(
        "E6", golden.E6_DIMS, golden.E6_DIMS_SUM, golden.E6_DIMS_SQ)),
    ("dims-a11", _dims_a11),
    ("dims-a-family", _dims_a_family),
    ("para-invariants", _para_invariants),
    ("decomposition-left", _decomposition_left),
    ("decomposition-right", _decomposition_right),
    ("element-dims", _element_dims),
    ("paths-length7", _paths_length7),
    ("essential-path-length4", _essential_path_length4),
    ("qs-dimension", lambda: _require(
        quantum_symmetry_algebra("E6").dim == golden.E6_QS_DIM,
        "dimension is off")),
    ("qs-identities", _qs_identities),
    ("qs-products", _qs_products),
    ("qs-partition", _qs_partition),
    ("qs-matrix-51", _qs_matrix_51),
    ("qs-cayley-solid", _qs_cayley_solid),
    ("qs-a11-dimension", lambda: _require(
        quantum_symmetry_algebra("A11").dim == golden.A11_QS_DIM,
        "A11 dimension is off")),
    ("qs-e8-dimension", lambda: _require(
        quantum_symmetry_algebra("E8").dim == golden.E8_QS_DIM,
        "E8 dimension is off")),
    ("toric-matrices", _toric_matrices),
    ("toric-coincidences", _toric_coincidences),
    ("modular-relations", _modular_relations),
    ("modular-diagonalize", _modular_diagonalize),
    ("modular-t-blocks", _modular_t_blocks),
    ("modular-invariance", _modular_invariance),
    ("partition-function", lambda: _require(
        partition_function("E6") == golden.E6_PARTITION_FUNCTION,
        "partition function is off")),
)


def _a11_qs_dimension():
    qs = quantum_symmetry_algebra("A11")
    _require(qs.dim == golden.A11_QS_DIM, "A11 dimension is off")
    _require(qs.generator_left == qs.generator_right,
             "chiral generators should coincide")


# A11, E6's path partner
A11_CHECKS = (
    ("dims-a11", _dims_a11),
    ("qs-dimension", _a11_qs_dimension),
    ("modular-relations", _modular_relations),
    ("partition-function", lambda: _require(
        partition_function("A11")
        == "+".join("|χ%d|²" % (m + 1) for m in range(11)),
        "partition function is off")),
)


def run(graph_name):
    """One PASS or FAIL line per check of graph_name, then a count, and
    the exit status: 0 if every check passed, else 1.  A check's exception
    becomes its FAIL line: a mismatch as its message, any other exception
    as its type and message.  NotDefinedError for a graph with no frozen
    reference data."""
    checks = {"E6": E6_CHECKS, "A11": A11_CHECKS}.get(graph_name)
    if checks is None:
        raise NotDefinedError("no frozen reference data for %s" % graph_name)
    lines = []
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            lines.append("FAIL %s: %s" % (name, exc))
        except Exception as exc:
            lines.append("FAIL %s: %s: %s" % (name, type(exc).__name__, exc))
        else:
            lines.append("PASS %s" % name)
    passed = sum(line.startswith("PASS") for line in lines)
    lines.append("%d of %d checks passed" % (passed, len(checks)))
    return "\n".join(lines), 0 if passed == len(checks) else 1

import sys
import types

import pytest

from adefusion import cli, golden, ocneanu, verify
from adefusion.diagram import parse_graph_name
from adefusion.errors import StructuralError

from _oracles import walk_counts_exact

E6_NAMES = [
    "fusion-table", "fusion-matrices", "fusion-extended-block",
    "fusion-positivity-e7", "spectral-norm", "spectral-perron-frobenius",
    "spectral-eigenvalues", "essential-matrices", "essential-window",
    "essential-intertwiner", "fused-adjacency", "dims-e6", "dims-a11",
    "dims-a-family", "para-invariants", "decomposition-left",
    "decomposition-right", "element-dims", "paths-length7",
    "essential-path-length4", "qs-dimension", "qs-identities", "qs-products",
    "qs-partition", "qs-matrix-51", "qs-cayley-solid", "qs-a11-dimension",
    "qs-e8-dimension", "toric-matrices", "toric-coincidences",
    "modular-relations", "modular-diagonalize", "modular-t-blocks",
    "modular-invariance", "partition-function",
]
A11_NAMES = ["dims-a11", "qs-dimension", "modular-relations",
             "partition-function"]


def _verify(capsys, graph):
    """verify-paper through the CLI: status, {name: PASS/FAIL}, {name: FAIL
    reason}, last line, stderr."""
    status = cli.main(["verify-paper", graph])
    out, err = capsys.readouterr()
    *lines, last = out.splitlines()
    verdicts, reasons = {}, {}
    for line in lines:
        verdict, name = line.split(" ", 1)
        name, _, reason = name.partition(": ")
        verdicts[name] = verdict
        if reason:
            reasons[name] = reason
    return status, verdicts, reasons, last, err


@pytest.mark.parametrize("graph, names", [("E6", E6_NAMES),
                                          ("A11", A11_NAMES)])
def test_check_names_and_order(capsys, graph, names):
    checks = {"E6": verify.E6_CHECKS, "A11": verify.A11_CHECKS}[graph]
    assert [name for name, _ in checks] == names
    status, verdicts, reasons, last, _ = _verify(capsys, graph)
    assert status == 0
    assert reasons == {}
    assert list(verdicts) == names
    assert set(verdicts.values()) == {"PASS"}
    assert last == "%d of %d checks passed" % (len(names), len(names))


@pytest.mark.parametrize("exc", [StructuralError("qs layer is broken"),
                                 ValueError("qs layer is broken")],
                         ids=lambda e: type(e).__name__)
def test_broken_layer_fails_only_its_checks(capsys, monkeypatch, exc):
    # every module of the package that holds quantum_symmetry_algebra
    # gets one that raises
    real = ocneanu.quantum_symmetry_algebra

    def broken(graph):
        raise exc

    for name, mod in list(sys.modules.items()):
        if name.startswith("adefusion") and \
                getattr(mod, "quantum_symmetry_algebra", None) is real:
            monkeypatch.setattr(mod, "quantum_symmetry_algebra", broken)
    status, verdicts, reasons, last, err = _verify(capsys, "E6")
    assert status == 1
    assert "Traceback" not in err
    assert list(verdicts) == E6_NAMES
    for name, verdict in verdicts.items():
        if name.split("-")[0] in ("fusion", "spectral", "essential", "dims"):
            assert verdict == "PASS", name
        if name.split("-")[0] in ("qs", "toric"):
            assert verdict == "FAIL", name
    # a FAIL from a raising layer names the exception type
    assert set(reasons.values()) == {
        "%s: qs layer is broken" % type(exc).__name__}
    passed = sum(v == "PASS" for v in verdicts.values())
    assert last == "%d of 35 checks passed" % passed


def test_decomposition_checks_name_the_first_failing_cell(monkeypatch):
    ess = verify.essential_matrices("E6")
    lp = parse_graph_name("E6").label_to_position
    cells = list(golden.E6_LEFT_TABLE)
    # cell 5's coefficients no longer rebuild E_a . E_b^T
    f = ess.f.copy()
    f[:, lp(cells[5][0]), lp(cells[5][1])] += 1
    monkeypatch.setattr(verify, "essential_matrices",
                        lambda graph: types.SimpleNamespace(
                            e=ess.e, f=f, nrows=ess.nrows))
    with pytest.raises(StructuralError, match=r"^left decomposition of "
                       r"\(%d,%d\) does not reconstruct$"
                       % (lp(cells[5][0]), lp(cells[5][1]))):
        verify._decomposition_left()
    # an earlier cell that disagrees with its frozen value is named first
    monkeypatch.setitem(golden.E6_LEFT_TABLE, cells[2], {0: 7})
    with pytest.raises(AssertionError,
                       match=r"^left cell \(%d,%d\) disagrees$" % cells[2]):
        verify._decomposition_left()


def test_wrong_frozen_decomposition_cell_fails(capsys, monkeypatch):
    left, right = list(golden.E6_LEFT_TABLE), list(golden.E6_RIGHT_TABLE)
    monkeypatch.setitem(golden.E6_LEFT_TABLE, left[7], {0: 7})
    monkeypatch.setitem(golden.E6_RIGHT_TABLE, right[4], {(0, 0): 7})
    monkeypatch.setitem(golden.E6_RIGHT_TABLE, right[9], {(0, 0): 7})
    status, verdicts, reasons, last, _ = _verify(capsys, "E6")
    assert status == 1
    assert reasons == {
        "decomposition-left": "left cell (%d,%d) disagrees" % left[7],
        "decomposition-right":
            "right cell (%d,%d) does not match the frozen value" % right[4]}
    assert last == "33 of 35 checks passed"


def test_wrong_frozen_toric_matrix_fails(capsys, monkeypatch):
    rows = [list(row) for row in golden.E6_W[(0, 0)]]
    rows[0][0] += 1
    monkeypatch.setitem(golden.E6_W, (0, 0), rows)
    status, verdicts, reasons, last, _ = _verify(capsys, "E6")
    assert status == 1
    assert [n for n, v in verdicts.items() if v == "FAIL"] == \
        ["toric-matrices"]
    # a mismatch keeps its plain message
    assert reasons == {"toric-matrices":
                       "W of 0(x)0 does not match the frozen value"}
    assert last == "34 of 35 checks passed"


def _over_budget_by_two_counts(diagram, length, origin):
    """Reference for cli._paths_over_budget: the exact path counts at
    length, then again at length - 2, for each origin.  The largest count
    never falls as the length grows (every vertex has a neighbour, or the
    graph is A1), so a count above int64 at any length up to length shows
    at length."""
    if length - 1 > cli.BLOCK_ROWS_BUDGET:
        return "length"
    origins = range(diagram.rank) if origin is None else (origin,)
    counts = walk_counts_exact(diagram, length)[list(origins)]
    if counts.max() > 2 ** 63 - 1:
        return "more than 2**63 - 1 paths"
    total = sum(counts.ravel().tolist())
    if total > cli.PATHS_BUDGET:
        return "%d paths" % total
    if length < 2:
        return None
    rows = (length - 1) * walk_counts_exact(diagram, length - 2)[
        list(origins)].max()
    return "%d constraint rows" % rows if rows > cli.BLOCK_ROWS_BUDGET \
        else None


@pytest.mark.parametrize("graph", ["A1", "A11", "D6", "E6", "E8"])
def test_paths_budget_one_walk_per_origin(monkeypatch, graph):
    d = parse_graph_name(graph)
    walks = []
    real = cli._count_walk

    def counted(diagram, length, origins):
        walks.append(list(origins))
        return real(diagram, length, origins)

    monkeypatch.setattr(cli, "_count_walk", counted)
    for length in list(range(0, 40)) + [200, 4001, 4002]:
        for origin in (None, 0, d.rank - 1):
            walks.clear()
            got = cli._paths_over_budget(d, length, origin)
            want = _over_budget_by_two_counts(d, length, origin)
            assert (got is None) == (want is None), (length, origin)
            if want is not None:
                assert got.startswith(want), (length, origin, got)
            if want is None or not want.startswith(("length", "more")):
                # one walk takes each origin once, not again for length - 2
                assert walks == [list(range(d.rank)) if origin is None
                                 else [origin]]

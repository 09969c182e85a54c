import json
import time

import numpy as np
import pytest

from adefusion.cli import PATHS_BUDGET, main
from adefusion.diagram import parse_graph_name
from adefusion.essential import essential_json, essential_matrices
from adefusion.fusion import algebra_for, fusion_json
from adefusion.modular import modular_json, toric_matrices
from adefusion.ocneanu import ocneanu_json, quantum_symmetry_algebra
from adefusion.path_model import PathSpace, spanning_json


def _run(capsys, argv):
    status = main(argv)
    out, err = capsys.readouterr()
    return status, out, err


def test_fusion_table(capsys):
    status, out, err = _run(capsys, ["fusion", "E6"])
    assert status == 0
    header = out.splitlines()[0].split()
    assert header == ["0", "3", "4", "1", "2", "5"]


def test_fusion_json_envelope(capsys):
    status, out, _ = _run(capsys, ["fusion", "E6", "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert set(data) == {"tool_version", "command", "graph", "payload"}
    assert data["command"] == "fusion"
    assert data["graph"] == "E6"
    got = np.array(data["payload"]["matrices"])
    assert np.array_equal(got, algebra_for("E6").n)


LIBRARY_PAYLOADS = {
    "fusion": lambda g: fusion_json(algebra_for(g)),
    "essential": lambda g: essential_json(essential_matrices(g)),
    "paths": lambda g: spanning_json(PathSpace(parse_graph_name(g), 4)),
    "ocneanu": lambda g: ocneanu_json(quantum_symmetry_algebra(g)),
    "toric": lambda g: {
        "names": list(quantum_symmetry_algebra(g).element_names),
        "matrices": [m.tolist() for m in toric_matrices(g)]},
    "modular-check": modular_json,
}


@pytest.mark.parametrize("graph", ["E6", "A11"])
@pytest.mark.parametrize("command", list(LIBRARY_PAYLOADS))
def test_json_payload_is_library_document(capsys, command, graph):
    argv = [command, graph, "--format", "json"]
    if command == "paths":
        argv += ["--length", "4"]
    status, out, _ = _run(capsys, argv)
    assert status == 0
    data = json.loads(out)
    assert set(data) == {"tool_version", "command", "graph", "payload"}
    assert (data["command"], data["graph"]) == (command, graph)
    want = json.loads(json.dumps(LIBRARY_PAYLOADS[command](graph)))
    assert data["payload"] == want


def test_essential_table(capsys):
    status, out, _ = _run(capsys, ["essential", "E6"])
    assert status == 0
    assert "E_0" in out and "E_3" in out
    # zeros render as dots
    assert " . " in out


def test_paths_table(capsys):
    status, out, _ = _run(capsys, ["paths", "E6", "--length", "4",
                                   "--origin", "0"])
    assert status == 0
    assert out.startswith("7 paths of length 4;")


def test_paths_requires_length(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paths", "E6"])
    assert exc.value.code == 2


def test_paths_negative_length(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paths", "E6", "--length", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--length" in err


def test_paths_over_budget(capsys):
    # 2,014,924,356 paths: refused from the counts, before any is built
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["paths", "E6", "--length", "30"])
    assert time.perf_counter() - start < 5
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "2014924356 paths, over the budget of %d" % PATHS_BUDGET in err


def test_ocneanu_table(capsys):
    status, out, _ = _run(capsys, ["ocneanu", "E6"])
    assert status == 0
    assert "dimension 12" in out
    assert "A: 0⊗0, 0⊗4, 0⊗3" in out
    assert "entry totals: 6 10 14 10 6 8 10 20 28 20 10 14" in out


def test_ocneanu_dot(capsys):
    status, out, _ = _run(capsys, ["ocneanu", "E6", "--format", "dot"])
    assert status == 0
    assert out.startswith("graph cayley {")
    assert out.rstrip().endswith("}")


def test_dot_rejected_elsewhere(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "E6", "--format", "dot"])
    assert exc.value.code == 2


def test_toric_single_element(capsys):
    status, out, _ = _run(capsys, ["toric", "E6", "--element", "0x0"])
    assert status == 0
    assert out.startswith("W(0⊗0)")
    assert len(out.strip().splitlines()) == 12


def test_toric_bad_elements(capsys):
    for element in ("abc", "0x9", "2x2"):
        with pytest.raises(SystemExit) as exc:
            main(["toric", "E6", "--element", element])
        assert exc.value.code == 2, element


def test_modular_check_table(capsys):
    status, out, _ = _run(capsys, ["modular-check", "E6"])
    assert status == 0
    assert "level 12, T has order 48" in out
    assert "partition function: |χ1+χ7|²+|χ4+χ8|²+|χ5+χ11|²" in out
    assert "invariant: yes" in out


def test_modular_check_json(capsys):
    status, out, _ = _run(capsys, ["modular-check", "E6", "--format", "json"])
    assert status == 0
    payload = json.loads(out)["payload"]
    assert payload["t_order"] == 48
    assert payload["invariance"]["invariant"] is True


@pytest.mark.parametrize("tol, verdict", [("1e-9", True), ("1e-30", False)])
def test_modular_check_formats_agree_on_tol(capsys, tol, verdict):
    argv = ["modular-check", "E6", "--tol", tol]
    _, table, _ = _run(capsys, argv)
    _, out, _ = _run(capsys, argv + ["--format", "json"])
    assert ("invariant: yes" in table) == verdict
    assert json.loads(out)["payload"]["invariance"]["invariant"] is verdict


def test_domain_error_exit_one(capsys):
    status, out, err = _run(capsys, ["fusion", "E7"])
    assert status == 1
    assert out == ""
    assert "error: no positive hypergroup for E7" in err


def test_bad_graph_exit_two(capsys):
    for name in ("F4", "E9", "notagraph"):
        with pytest.raises(SystemExit) as exc:
            main(["fusion", name])
        assert exc.value.code == 2, name


def test_verify_e6(capsys):
    status, out, _ = _run(capsys, ["verify-paper", "E6"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "35 of 35 checks passed"
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert not any("FAIL" in l for l in lines)


def test_verify_a11(capsys):
    status, out, _ = _run(capsys, ["verify-paper", "A11"])
    assert status == 0
    assert out.strip().splitlines()[-1] == "4 of 4 checks passed"


def test_verify_unknown_graph(capsys):
    status, out, err = _run(capsys, ["verify-paper", "E8"])
    assert status == 1
    assert "no frozen reference data" in err


def test_out_unwritable_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "E6", "--out", str(target)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: cannot write --out" in err
    assert "Traceback" not in err
    assert not target.exists()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    status, out, _ = _run(capsys, ["fusion", "E6", "--format", "json",
                                   "--out", str(target)])
    assert status == 0
    assert out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["graph"] == "E6"

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import adefusion
from adefusion import cli, path_model
from adefusion.cli import (BLOCK_ROWS_BUDGET, FUSION_RANK_BUDGET,
                           GRAM_RANK_BUDGET, PATHS_BUDGET, _encode,
                           _matrix_lines, main)
from adefusion.diagram import parse_graph_name, perron_frobenius
from adefusion.essential import essential_json, essential_matrices
from adefusion.fusion import fusion_json, fusion_matrices
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
    assert np.array_equal(got, fusion_matrices("E6").n)


LIBRARY_PAYLOADS = {
    "fusion": lambda g: fusion_json(fusion_matrices(g)),
    "essential": lambda g: essential_json(essential_matrices(g)),
    "paths": lambda g: spanning_json(PathSpace(parse_graph_name(g), 4)),
    "ocneanu": lambda g: ocneanu_json(quantum_symmetry_algebra(g)),
    "toric": lambda g: {
        "names": list(quantum_symmetry_algebra(g).element_names),
        "matrices": [m.tolist() for m in toric_matrices(g)]},
    "modular-check": modular_json,
}


def _assert_same_text(got, want):
    # compared as a plain bool: pytest's diff of two long texts that part
    # early can run for minutes
    same = got == want
    at = len(os.path.commonprefix([got, want]))
    assert same, "texts part at character %d: %r against %r" % (
        at, got[max(at - 30, 0):at + 30], want[max(at - 30, 0):at + 30])


@pytest.mark.parametrize(
    "command, graph",
    [(command, graph) for graph in ("E6", "A11", "E8")
     for command in LIBRARY_PAYLOADS]
    + [("ocneanu", "A20"), ("fusion", "D20")])
def test_json_payload_is_library_document(capsys, command, graph):
    # the stdlib's indent=2 encoder is the oracle for every byte
    argv = [command, graph, "--format", "json"]
    if command == "paths":
        argv += ["--length", "4"]
    status, out, _ = _run(capsys, argv)
    assert status == 0
    envelope = {"tool_version": adefusion.__version__, "command": command,
                "graph": graph, "payload": LIBRARY_PAYLOADS[command](graph)}
    _assert_same_text(out, json.dumps(envelope, indent=2, sort_keys=True)
                      + "\n")


# every public *_json helper, with its builder reachable as helper.arrays
JSON_HELPERS = {
    "fusion_json": (fusion_json, lambda g: (fusion_matrices(g),)),
    "essential_json": (essential_json, lambda g: (essential_matrices(g),)),
    "spanning_json": (spanning_json,
                      lambda g: (PathSpace(parse_graph_name(g), 4),)),
    "ocneanu_json": (ocneanu_json, lambda g: (quantum_symmetry_algebra(g),)),
    "modular_json": (modular_json, lambda g: (g,)),
}


def test_json_helpers_table_names_every_public_json_helper():
    # a helper added to or deleted from a module's __all__ must be added to
    # or deleted from the table above
    public = set()
    for info in pkgutil.iter_modules(adefusion.__path__):
        module = importlib.import_module("adefusion." + info.name)
        public.update(n for n in getattr(module, "__all__", ())
                      if n.endswith("_json"))
    assert set(JSON_HELPERS) == public


def _tolist_everywhere(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _tolist_everywhere(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_tolist_everywhere(v) for v in value)
    return value


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


@pytest.mark.parametrize("graph", ["E6", "E8", "A11"])
@pytest.mark.parametrize("name", sorted(JSON_HELPERS))
def test_json_helpers_return_plain_values_of_their_builders(name, graph):
    helper, args = JSON_HELPERS[name]
    plain = helper(*args(graph))
    assert not any(isinstance(v, np.generic) or isinstance(v, np.ndarray)
                   for v in _leaves(plain))
    document = helper.arrays(*args(graph))
    arrays = [v for v in _leaves(document) if isinstance(v, np.ndarray)]
    # the builder hands out the kept arrays, which nobody may change
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert plain == _tolist_everywhere(document)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
ROWS = st.one_of(st.lists(SCALARS, max_size=5),
                 st.lists(SCALARS, max_size=5).map(tuple))
JSON_TREES = st.recursive(
    st.one_of(SCALARS, st.text(), st.lists(SCALARS), st.lists(ROWS)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=40)


@given(JSON_TREES)
def test_encode_matches_stdlib(value):
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    [[1, 2], [], [3]],                    # an empty row among scalar rows
    [(1, -0.0), [math.nan, None, True]],  # ragged, tuples, specials
    [1, "a, b", 2.5],                     # a string holding the separator
    [["x", 1], [2]],                      # a string inside a row
    {"é\n\"\\": [{}, [], ()]},
])
def test_encode_edge_cases(value):
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, [{True: 0}]])
def test_encode_refuses_non_str_keys(value):
    with pytest.raises(TypeError):
        _encode(value)


INT64 = np.iinfo(np.int64)


@st.composite
def _arrays(draw):
    """int64 arrays of 1-4 dimensions (an axis may be empty) over a small,
    a negative, a wide or an extreme range; bool and float arrays too."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=0,
                                  max_side=4))
    dtype = draw(st.sampled_from([np.int64] * 4 + [np.bool_, np.float64]))
    if dtype is np.int64:
        elements = draw(st.sampled_from([
            st.integers(0, 3), st.integers(-40, -30), st.integers(-2, 9),
            st.integers(-10 ** 6, 10 ** 6),
            st.sampled_from([INT64.min, INT64.min + 1, INT64.max, 0])]))
    else:
        elements = None
    return draw(hnp.arrays(dtype, shape, elements=elements))


@given(_arrays(), st.sampled_from(["\n", "\n    "]))
def test_encode_array_matches_stdlib(a, newline):
    want = json.dumps(a.tolist(), indent=2, sort_keys=True)
    assert _encode(a) == want
    # at depth, inside a document, as the CLI meets the kept arrays
    assert _encode({"payload": {"m": a}}) == json.dumps(
        {"payload": {"m": a.tolist()}}, indent=2, sort_keys=True)


@pytest.mark.parametrize("a, fallback", [
    (np.array([[0, 1], [1, 0]]), False),
    (np.array([[[-3, -2], [-2, -1]]]), False),
    (np.array([0, 2]), False),                        # hi - lo = 2 entries
    (np.array([0, 3]), True),                         # hi - lo = 3 > 2
    (np.array([INT64.min, INT64.max]), True),
    (np.array([[1, 2]] * 3).astype(np.float64), True),
    (np.array([True, False]), True),
    (np.zeros((2, 0), dtype=np.int64), True),
])
def test_encode_array_takes_tolist_where_tokens_do_not_pay(a, fallback):
    # the tokens cover lo .. hi, so they are built only when hi - lo is at
    # most the number of entries; any other array goes as tolist()
    with mock.patch.object(cli, "_encode", wraps=cli._encode) as spy:
        text = cli._encode_array(a, "\n")
    assert text == json.dumps(a.tolist(), indent=2, sort_keys=True)
    assert spy.called == fallback


def _cell_rule_lines(m):
    # the rule _matrix_lines had before it formatted from tolist()
    m = np.atleast_2d(np.asarray(m))
    cells = [["." if v == 0 else "%d" % v for v in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    return [" ".join(c.rjust(width) for c in row) for row in cells]


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_matrix_lines_match_cell_rule(rows, cols, data):
    entries = data.draw(st.sampled_from([st.integers(-10**6, 10**6),
                                         st.integers(-3, 3), st.just(0)]))
    m = np.array(data.draw(st.lists(st.lists(entries, min_size=cols,
                                             max_size=cols),
                                    min_size=rows, max_size=rows)),
                 dtype=np.int64)
    for shaped in (m, m[:1], m[:, :1], m[0]):
        assert _matrix_lines(shaped) == _cell_rule_lines(shaped)


def test_matrix_lines_match_cell_rule_on_e8_toric():
    mats = toric_matrices("E8")
    assert len(mats) == 32
    for m in mats:
        assert _matrix_lines(m) == _cell_rule_lines(m)


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


@pytest.mark.parametrize("command, graph, budget", [
    ("fusion", "A1000", FUSION_RANK_BUDGET),
    ("essential", "D202", FUSION_RANK_BUDGET),
    ("ocneanu", "A200", GRAM_RANK_BUDGET),
    ("toric", "A101", GRAM_RANK_BUDGET),
    ("modular-check", "A101", GRAM_RANK_BUDGET),
])
def test_rank_over_budget_refused_before_any_work(capsys, monkeypatch,
                                                  command, graph, budget):
    def no_work(*args):
        raise AssertionError("%s ran on %s" % (command, graph))

    monkeypatch.setitem(cli.COMMANDS, command,
                        (no_work,) + cli.COMMANDS[command][1:])
    with pytest.raises(SystemExit) as exc:
        main([command, graph])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "%s %s: rank %s, over the budget of rank %d" % (
        command, graph, graph[1:], budget) in err


@pytest.mark.parametrize("command, graph", [
    ("fusion", "A%d" % FUSION_RANK_BUDGET),
    ("essential", "D%d" % FUSION_RANK_BUDGET),
    ("ocneanu", "A%d" % GRAM_RANK_BUDGET),
    ("modular-check", "A%d" % GRAM_RANK_BUDGET),
])
def test_rank_at_budget_runs(capsys, monkeypatch, command, graph):
    monkeypatch.setitem(cli.COMMANDS, command,
                        (lambda *args: "ran",) + cli.COMMANDS[command][1:])
    assert _run(capsys, [command, graph]) == (0, "ran\n", "")


def test_paths_length_bound_holds_for_a1(capsys):
    # A1 has no edge, but every count still takes one step per length
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["paths", "A1", "--length", "30000000"])
    assert time.perf_counter() - start < 5
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "length over the bound of %d" % (BLOCK_ROWS_BUDGET + 1) in err


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


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_verify_paper_takes_only_table(capsys, fmt):
    # verify-paper prints PASS/FAIL lines: a json request would get text
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "E6", "--format", fmt])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: verify-paper takes --format table\n" in err
    assert main(["verify-paper", "E6", "--format", "table"]) == 0


def test_toric_single_element(capsys):
    status, out, _ = _run(capsys, ["toric", "E6", "--element", "0x0"])
    assert status == 0
    assert out.startswith("W(0⊗0)")
    assert len(out.strip().splitlines()) == 12


def _child_env():
    src = os.path.dirname(os.path.dirname(adefusion.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_stdout(argv):
    proc = subprocess.run([sys.executable, "-m", "adefusion.cli"] + argv,
                          capture_output=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode("utf-8")


def test_parser_keeps_no_state_between_calls(capsys, tmp_path):
    # one parser serves every main call in a process
    with pytest.raises(SystemExit) as exc:
        main(["toric", "E6", "--element", "9x9"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv in (["toric", "E6", "--element", "0x0"], ["toric", "E6"]):
        status, out, _ = _run(capsys, argv)
        assert status == 0
        _assert_same_text(out, _fresh_stdout(argv))
    target = tmp_path / "fusion.txt"
    status, out, _ = _run(capsys, ["fusion", "E6", "--out", str(target)])
    assert (status, out) == (0, "")
    status, out, _ = _run(capsys, ["fusion", "E6"])
    assert status == 0
    assert out == target.read_text(encoding="utf-8")
    assert _run(capsys, ["paths", "E6", "--length", "4"])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["paths", "E6"])
    assert exc.value.code == 2
    assert "paths requires --length" in capsys.readouterr().err


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", [["paths", "E6", "--length", "4"],
                                     ["modular-check", "E6"]],
                         ids=["paths", "modular-check"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tol", tol])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--tol: must be a finite number above 0" in err


# the options each command takes of its own, as the README documents them;
# every other command refuses them
DOCUMENTED_OPTIONS = {"paths": ("origin", "length", "tol"),
                      "toric": ("element",), "modular-check": ("tol",)}
OPTION_VALUES = {"element": "0x0", "origin": "0", "length": "4",
                 "tol": "1e-6"}


@pytest.mark.parametrize("command, option", [
    (command, option) for command in cli.COMMANDS for option in OPTION_VALUES
    if option not in DOCUMENTED_OPTIONS.get(command, ())])
def test_option_of_another_command_is_refused(capsys, command, option):
    argv = [command, "E6", "--%s" % option, OPTION_VALUES[option]]
    if command == "paths":
        argv += ["--length", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "%s does not take --%s" % (command, option) in err


@pytest.mark.parametrize("argv", [
    ["paths", "E6", "--length", "4"],
    ["paths", "E6", "--length", "4", "--origin", "0"],
    ["paths", "E6", "--length", "4", "--tol", "1e-6"],
    ["paths", "E6", "--length", "4", "--origin", "0", "--tol", "1e-6",
     "--format", "json"],
    ["toric", "E6", "--element", "0x0"],
    ["toric", "E6", "--element", "0x0", "--format", "json"],
    ["modular-check", "E6", "--tol", "1e-6"],
    ["modular-check", "E6", "--tol", "1e-6", "--format", "json"],
], ids=" ".join)
def test_documented_options_exit_zero(capsys, argv):
    status, out, _ = _run(capsys, argv)
    assert status == 0 and out


@pytest.mark.parametrize("argv", [["paths", "E6", "--length", "6"],
                                  ["modular-check", "E6"]], ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_tol_defaults_to_1e_9(capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    _, default, _ = _run(capsys, argv)
    _, explicit, _ = _run(capsys, argv + ["--tol", "1e-9"])
    assert default == explicit


def test_domain_error_exit_one(capsys):
    status, out, err = _run(capsys, ["fusion", "E7"])
    assert status == 1
    assert out == ""
    assert "error: no positive hypergroup for E7" in err


def test_unconverged_power_iteration_exit_one(capsys, monkeypatch):
    # at the default max_iter this is `paths D200 --length 2` (about 2.5 s)
    monkeypatch.setattr(perron_frobenius, "__defaults__", (1e-12, 3))
    path_model._weights.cache_clear()
    path_model._kernel_chain.cache_clear()
    status, out, err = _run(capsys, ["paths", "A11", "--length", "2"])
    assert status == 1
    assert out == ""
    assert err.startswith("error: power iteration residual")


def test_bad_graph_exit_two(capsys):
    for name in ("F4", "E9", "notagraph"):
        with pytest.raises(SystemExit) as exc:
            main(["fusion", name])
        assert exc.value.code == 2, name


def test_rank_that_only_int_would_read_is_usage_error(capsys):
    # int() reads "1_0" as 10; the rank must be ASCII decimal digits
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "A1_0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot parse graph name 'A1_0'" in err
    assert "Traceback" not in err


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
    assert out == ""
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


def test_closed_stdout_exits_quietly():
    # `fusion A40 --format json` is about 0.8 MB, far past a pipe buffer,
    # so closing the reader after a few bytes breaks the child's write
    proc = subprocess.Popen(
        [sys.executable, "-m", "adefusion.cli", "fusion", "A40",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Error" not in err, err

"""The four workloads: their items, how each item drives the library, and
how its outputs are judged.

Every item calls only public names of ``adefusion`` (or ``adefusion.cli``'s
``main``).  ``run`` is the timed part and returns the public values the item
produced; ``judge`` is untimed and compares them with the references in
``references.json`` and with checks that need no reference at all.  Only
public values are hashed: never the return value of a ``*_json`` helper,
whose type is free to change.

Why each workload, and which layer it stresses, is written in
BENCHMARK.json.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json

import numpy as np

import adefusion
from adefusion import cli, diagram, essential, fusion, modular, ocneanu, path_model

WORKLOADS = ("quantum-ladder", "fusion-ladder", "path-window", "cli-session")

QUANTUM_LADDER = ("E6", "E8", "A11", "A16", "A20", "A24")
FUSION_LADDER = ("A40", "A60", "D30", "D34", "D36")
# no positive fusion structure: E7 and odd D, with D41 the largest
FUSION_REFUSALS = ("E7", "D21", "D41")
# (graph, last length): E6 and D6 up to the vanishing row p = N-1; E8
# (N = 30) is cut at p = 10, since p = 12 alone takes about 52 s
PATH_WINDOW = (("E6", 11), ("D6", 9), ("E8", 10))

CLI_GRAPHS = ("E6", "A11", "E8")
CLI_FORMATS = (
    ("fusion", ("json", "table")),
    ("essential", ("json", "table")),
    ("paths", ("json", "table")),
    ("ocneanu", ("json", "dot", "table")),
    ("toric", ("json", "table")),
    ("modular-check", ("json", "table")),
)
CLI_PATH_LENGTH = "6"
# (argv, exit status the README promises); a usage error or a domain error
# prints its message on stderr, so stdout is empty
CLI_ERRORS = (
    (("fusion", "E7"), 1),             # no positive hypergroup
    (("fusion", "D38"), 1),            # fork-split search over the cap
    (("ocneanu", "D10"), 1),           # ambichiral subset not defined
    (("toric", "E6", "--element", "9x9"), 2),
    (("paths", "E6", "--length", "-1"), 2),
)
# cli-session: one cold pass over the script, then this many warm passes
CLI_WARM_PASSES = 16

# the one small item per workload that the self-test runs
SMALL = {
    "quantum-ladder": "quantum E6",
    "fusion-ladder": "fusion A40",
    "path-window": "paths E6 p=6",
    "cli-session": "cli fusion E6 --format table",
}


def digest(value):
    """sha256 of a value's JSON form; arrays hash by their integer entries,
    so the digest does not depend on dtype or memory layout."""
    text = json.dumps(value, sort_keys=True, ensure_ascii=False,
                      default=lambda o: o.tolist())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Verdict:
    """Outcome of one item attempt.  ``failed``: the outcome is not the
    expected one (wrong value, unexpected exception, missing refusal, wrong
    exit status).  ``wrong``: the program produced an output that differs
    from the expected one; a crash alone fails without being wrong."""

    def __init__(self, failed=False, wrong=False, note=""):
        self.failed = failed
        self.wrong = wrong
        self.note = note


def _judge_values(values, refs, checks):
    if refs is None:
        return Verdict(True, True, "no reference recorded")
    bad = [k for k, v in values.items() if digest(v) != refs.get(k)]
    bad += [name for name, ok in checks if not ok]
    if bad:
        return Verdict(True, True, "differs: " + ", ".join(bad))
    return Verdict()


class Item:
    """One unit of work.  ``run()`` returns a dict of public values
    (keys starting with ``_`` carry objects that are not hashed) or raises."""

    refusal = None   # exception class the item must raise

    def __init__(self, id):
        self.id = id

    def values(self, out):
        return {k: v for k, v in out.items() if not k.startswith("_")}

    def judge(self, out, exc, refs):
        if self.refusal is not None:
            if exc is None:
                return Verdict(True, True, "no refusal")
            if isinstance(exc, self.refusal):
                return Verdict()
        if exc is not None:
            return Verdict(True, False, "raised %s: %s"
                           % (type(exc).__name__, exc))
        return _judge_values(self.values(out), refs, self.checks(out))

    def checks(self, out):
        return ()

    def sizes(self, out):
        return {}


class QuantumItem(Item):
    """The full pipeline on one graph, through the modular invariant."""

    def __init__(self, graph):
        super().__init__("quantum " + graph)
        self.graph = graph

    def run(self):
        d = diagram.parse_graph_name(self.graph)
        pf = diagram.perron_frobenius(d)
        alg = fusion.fusion_matrices(d)
        ess = essential.essential_matrices(alg)
        qs = ocneanu.quantum_symmetry_algebra(alg)
        smats = ocneanu.s_matrices(qs)
        toric = modular.toric_matrices(alg)
        part = modular.partition_function(alg)
        inv = modular.modular_invariance_check(alg)
        return {
            "alg.n": alg.n, "ess.e": ess.e,
            "qs.canonical": qs.canonical, "qs.element_names": qs.element_names,
            "qs.partition": qs.partition, "qs.nf": qs.nf,
            "s_matrices": smats, "toric": toric, "partition_function": part,
            # the deviations are float diagnostics, not hashed
            "invariance": {k: inv[k] for k in ("element", "name", "invariant")},
            "_pf": pf, "_d": d, "_amb": qs.ambichiral, "_dim": qs.dim,
        }

    def checks(self, out):
        d, pf = out["_d"], out["_pf"]
        residual = np.abs(d.adjacency @ pf - diagram.graph_norm(d) * pf).max()
        return (("perron_frobenius residual", residual < 1e-9),
                ("0x0 is invariant", out["invariance"]["invariant"] is True))

    def sizes(self, out):
        r = out["alg.n"].shape[0]
        return {
            "fusion.rank_sum": r,
            "fusion.nnz": int(np.count_nonzero(out["alg.n"])),
            "essential.nnz": int(np.count_nonzero(out["ess.e"])),
            "ocneanu.tensor_dim": r * r,
            "ocneanu.relations": len(out["_amb"]) * r * r,
            "ocneanu.dim": out["_dim"],
            "ocneanu.nf_nnz": int(np.count_nonzero(out["qs.nf"])),
            "modular.toric": len(out["toric"]),
        }


class FusionItem(Item):
    """Spectral data, fusion algebra and essential matrices of one graph."""

    def __init__(self, graph):
        super().__init__("fusion " + graph)
        self.graph = graph

    def run(self):
        d = diagram.parse_graph_name(self.graph)
        diagram.perron_frobenius(d)
        alg = fusion.fusion_matrices(d)
        ess = essential.essential_matrices(alg)
        return {"alg.n": alg.n, "ess.e": ess.e}

    def sizes(self, out):
        return {
            "fusion.rank_sum": out["alg.n"].shape[0],
            "fusion.nnz": int(np.count_nonzero(out["alg.n"])),
            "essential.nnz": int(np.count_nonzero(out["ess.e"])),
        }


class RefusalItem(FusionItem):
    """A graph with no positive fusion structure: must be refused."""

    refusal = adefusion.NoPositiveHypergroupError

    def sizes(self, out):
        return {"fusion.refusals": 1}


class PathItem(Item):
    """Path-model essential dimensions at one length, all origins."""

    def __init__(self, graph, length):
        super().__init__("paths %s p=%d" % (graph, length))
        self.graph = graph
        self.length = length

    def run(self):
        d = diagram.parse_graph_name(self.graph)
        space = path_model.PathSpace(d, self.length,
                                     cap=max(self.length, path_model.DEFAULT_CAP))
        dims = path_model.essential_dims(space)
        return {"dims": dims, "_d": d, "_paths": space.paths}

    def checks(self, out):
        # the path model never sees the recurrence, so agreement is a real
        # test: dims[a, b] = E_a[p, b] inside the window, zero at p = N-1
        d, p = out["_d"], self.length
        if p == d.coxeter_number - 1:
            want = np.zeros((d.rank, d.rank), dtype=np.int64)
        else:
            want = essential.essential_matrices(d).e[:, p, :]
        return (("dims equal the recurrence", np.array_equal(out["dims"], want)),)

    def sizes(self, out):
        blocks = collections.Counter((q[0], q[-1]) for q in out["_paths"])
        return {
            "path_model.paths": len(out["_paths"]),
            "path_model.blocks": len(blocks),
            "path_model.max_block": max(blocks.values()),
            "path_model.block_sq_sum": sum(n * n for n in blocks.values()),
        }


class CliItem(Item):
    """One ``adefusion.cli.main`` call, stdout captured.  Judged on the
    exit status and the stdout digest."""

    def __init__(self, argv, status=0):
        super().__init__("cli " + " ".join(argv))
        self.argv = list(argv)
        self.status = status
        self.kind = ("refused" if status else
                     "verify" if argv[0] == "verify-paper" else
                     "json" if "json" in argv else "table")

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(self.argv)
            except SystemExit as exc:
                status = exc.code
        return {"stdout": out.getvalue(), "status": status}

    def values(self, out):
        return {"stdout": out["stdout"]}

    def judge(self, out, exc, refs):
        if self.status:
            refs = {"stdout": digest("")}
        if exc is None and out["status"] != self.status:
            # printing nothing is a failed call; printing something else
            # than the reference is also a wrong output
            stdout = out["stdout"]
            wrong = bool(stdout) and digest(stdout) != (refs or {}).get("stdout")
            return Verdict(True, wrong, "exit status %r, expected %d"
                           % (out["status"], self.status))
        return super().judge(out, exc, refs)

    def checks(self, out):
        if self.argv == ["verify-paper", "E6"]:
            last = out["stdout"].rstrip("\n").rsplit("\n", 1)[-1]
            return (("verify-paper E6 passes 35 of 35",
                     last == "35 of 35 checks passed"),)
        return ()


def cli_script():
    """The fixed 47-command cli-session script."""
    script = []
    for graph in CLI_GRAPHS:
        for command, formats in CLI_FORMATS:
            for fmt in formats:
                argv = [command, graph, "--format", fmt]
                if command == "paths":
                    argv += ["--length", CLI_PATH_LENGTH]
                script.append(CliItem(argv))
    for graph in CLI_GRAPHS:
        # E8 has no frozen reference tables: a domain error
        script.append(CliItem(["verify-paper", graph], 0 if graph != "E8" else 1))
    script += [CliItem(argv, status) for argv, status in CLI_ERRORS]
    return script


def items(workload):
    if workload == "quantum-ladder":
        return [QuantumItem(g) for g in QUANTUM_LADDER]
    if workload == "fusion-ladder":
        return ([FusionItem(g) for g in FUSION_LADDER]
                + [RefusalItem(g) for g in FUSION_REFUSALS])
    if workload == "path-window":
        return [PathItem(g, p) for g, last in PATH_WINDOW
                for p in range(last + 1)]
    if workload == "cli-session":
        return cli_script()
    raise ValueError("unknown workload %r" % (workload,))

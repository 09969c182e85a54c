"""Batch command-line front end.

    adefusion <command> <graph> [--format json|dot|table] [options]

Commands
    fusion         multiplication table / fusion matrices
    essential      essential matrices E_a
    paths          path spaces and their essential subspaces (needs --length)
    ocneanu        quantum symmetry algebra and its Cayley graph
    toric          toric matrices W_x (one element via --element, e.g. 0x0)
    modular-check  commutation of W with the modular generators
    verify-paper   re-check every frozen reference table; PASS/FAIL per item

--format json prints one envelope {tool_version, command, graph, payload},
encoded here once; the library's *_json helpers return payload dicts.  The
envelope's bytes are exactly those of json.dumps(indent=2, sort_keys=True);
runs of numbers and matrices of them come from the C encoder, re-indented.

Exit status: 0 on success, 1 on a domain error (for instance a diagram
with no positive fusion structure, or a graph with no frozen reference
data), 2 on a usage error.
"""

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__, golden
from .diagram import (build_diagram, graph_norm, parse_graph_name,
                      perron_frobenius, q_number)
from .errors import AdeError, NoPositiveHypergroupError, NotDefinedError, \
    UnsupportedDiagramError
from .essential import (decompose_left, essential_json, essential_matrices,
                        esspath_dims, fused_adjacency, intertwiner_check,
                        para_invariants, path_counts, recurrence_rows)
from .fusion import algebra_for, fusion_json, fusion_matrices, \
    fusion_table_ascii
from .modular import (ModularRep, modular_invariance_check, modular_json,
                      partition_function, toric_matrices)
from .ocneanu import (cayley_dot, decompose_right, element_dims, multiply_qs,
                      ocneanu_json, quantum_symmetry_algebra, s_matrices)
from .path_model import (PathSpace, _check_tol, annihilation_operator,
                         enumerate_paths)
from .path_model import essential_dims as path_essential_dims
from .path_model import spanning_json

# `paths` refuses a request over either budget before it builds a path.
# Block (a, b) holds N_p(a, b) paths, and its constraint matrix has
# N_{p-2}(a, b) rows for each of C_1 .. C_{p-1}; `--format json` takes the
# SVD of that matrix, while the table needs only one small SVD per length.
# For scale, one thread: E6 --length 11 (7,382 paths, 2,090 rows) takes
# about 0.03 s as a table and 3.5-4.5 s as JSON, after startup.
PATHS_BUDGET = 10_000
BLOCK_ROWS_BUDGET = 4_000


def _build_parser():
    p = argparse.ArgumentParser(
        prog="adefusion",
        description="fusion algebras, essential matrices, quantum "
                    "symmetries, and toric matrices of ADE diagrams")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("graph", help='diagram name, e.g. "E6" or "A11"')
    p.add_argument("--format", default="table",
                   choices=("json", "dot", "table"))
    p.add_argument("--element", default=None, metavar="AxB",
                   help='element by label pair, e.g. "0x0"')
    p.add_argument("--origin", default=None, metavar="V",
                   help="restrict paths to this starting vertex label")
    p.add_argument("--length", type=int, default=None, metavar="N")
    p.add_argument("--tol", type=_tolerance, default=1e-9, metavar="X",
                   help="a finite number above 0 (default 1e-9)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the output to a file instead of stdout")
    return p


def _tolerance(text):
    """--tol as a float, refused unless finite and above 0."""
    try:
        return _check_tol(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a finite number above 0, got %r" % text)


def _parse_element(parser, diagram, text):
    parts = text.split("x")
    if len(parts) != 2:
        parser.error('--element wants two labels joined by "x", e.g. 0x1')
    try:
        return (diagram.label_to_position(parts[0].strip()),
                diagram.label_to_position(parts[1].strip()))
    except ValueError:
        parser.error("--element %r does not name two vertices of %s"
                     % (text, diagram.name))


def _matrix_lines(m):
    """Rows of an int matrix, right-aligned to its widest entry, zeros as
    dots."""
    m = np.atleast_2d(np.asarray(m))
    width = max(len("%d" % m.max()), len("%d" % m.min()))
    dot = "%*s" % (width, ".")
    return [" ".join(["%*d" % (width, v) if v else dot for v in row])
            for row in m.tolist()]


def _titled_matrix(title, m):
    return "\n".join([title] + _matrix_lines(m))


_SCALARS = {int, float, bool, type(None)}
_ROWS = {list, tuple}


def _encode(value, newline="\n"):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, where
    every dict key is a str (any other key is a TypeError).  A list of
    scalars, or of nonempty scalar rows, is one call of the C encoder, which
    json.dumps reaches only without indent, split at its separators: no
    number, NaN, Infinity, true or null contains ", " or "], [".
    """
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
            parts.append(json.dumps(key) + ": " + _encode(value[key], inner))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    kinds = set(map(type, value))
    if kinds <= _SCALARS:
        parts = json.dumps(value)[1:-1].split(", ")
    elif kinds <= _ROWS and all(value) and set(
            map(type, itertools.chain.from_iterable(value))) <= _SCALARS:
        deeper = inner + "  "
        parts = ["[" + deeper + row.replace(", ", "," + deeper) + inner + "]"
                 for row in json.dumps(value)[2:-2].split("], [")]
    else:
        parts = [_encode(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(parts) + newline + "]"


def _wrap_json(args, graph_name, payload):
    return _encode({
        "tool_version": __version__,
        "command": args.command,
        "graph": graph_name,
        "payload": payload,
    })


# -- command bodies ------------------------------------------------------


def _cmd_fusion(args, parser, diagram):
    algebra = algebra_for(diagram)
    if args.format == "json":
        return fusion_json(algebra)
    return fusion_table_ascii(algebra)


def _cmd_essential(args, parser, diagram):
    ess = essential_matrices(algebra_for(diagram))
    if args.format == "json":
        return essential_json(ess)
    return "\n\n".join(_titled_matrix("E_%s" % label, e)
                       for label, e in zip(diagram.vertex_labels, ess.e))


def _paths_over_budget(diagram, length, origin):
    """Why paths of this length are over budget, or None; counted from
    path_counts alone."""
    if length - 1 > BLOCK_ROWS_BUDGET:
        # each C_k contributes at least one row to every nonempty block, and
        # the count below takes one step per unit of length, on every graph
        return ("length over the bound of %d, which keeps C_1 .. C_{p-1} "
                "within the budget of %d constraint rows per block"
                % (BLOCK_ROWS_BUDGET + 1, BLOCK_ROWS_BUDGET))
    origins = range(diagram.rank) if origin is None else (origin,)
    try:
        total = sum(sum(path_counts(diagram, length, a).tolist())
                    for a in origins)
    except OverflowError:
        return "more than 2**63 - 1 paths, over the budget of %d paths" \
            % PATHS_BUDGET
    if total > PATHS_BUDGET:
        return "%d paths, over the budget of %d paths" % (total,
                                                          PATHS_BUDGET)
    if length < 2:
        return None
    rows = (length - 1) * max(max(path_counts(diagram, length - 2, a))
                              for a in origins)
    if rows > BLOCK_ROWS_BUDGET:
        return ("%d constraint rows in one (origin, end) block, over the "
                "budget of %d rows" % (rows, BLOCK_ROWS_BUDGET))
    return None


def _cmd_paths(args, parser, diagram):
    if args.length is None:
        parser.error("paths requires --length")
    if args.length < 0:
        parser.error("--length must be non-negative, got %d" % args.length)
    origin = None
    if args.origin is not None:
        try:
            origin = diagram.label_to_position(args.origin)
        except ValueError:
            parser.error("--origin %r is not a vertex of %s"
                         % (args.origin, diagram.name))
    over = _paths_over_budget(diagram, args.length, origin)
    if over:
        parser.error("paths %s --length %d: %s"
                     % (diagram.name, args.length, over))
    space = PathSpace(diagram, args.length, origin=origin,
                      cap=max(args.length, 8))
    if args.format == "json":
        return spanning_json(space, args.tol)
    dims = path_essential_dims(space, args.tol)
    head = "%d paths of length %d; essential dimensions by (origin, end):" \
        % (len(space.paths), args.length)
    return "\n".join([head] + _matrix_lines(dims))


def _cmd_ocneanu(args, parser, diagram):
    qs = quantum_symmetry_algebra(diagram.name)
    if args.format == "dot":
        return cayley_dot(qs)
    if args.format == "json":
        return ocneanu_json(qs)
    dims = element_dims(qs)
    lines = ["dimension %d" % qs.dim]
    for k in ("A", "L", "R", "C"):
        members = ", ".join(qs.element_names[x] for x in qs.partition[k])
        lines.append("%s: %s" % (k, members))
    lines.append("entry totals: " + " ".join("%d" % v for v in dims))
    return "\n".join(lines)


def _cmd_toric(args, parser, diagram):
    qs = quantum_symmetry_algebra(diagram.name)
    mats = toric_matrices(diagram.name)
    if args.element is not None:
        x = qs.element(*_parse_element(parser, diagram, args.element))
        if x is None:
            parser.error("--element %s is not a single basis element"
                         % args.element)
        picked = [x]
    else:
        picked = list(range(qs.dim))
    if args.format == "json":
        return {
            "names": [qs.element_names[x] for x in picked],
            "matrices": [mats[x].tolist() for x in picked],
        }
    blocks = [_titled_matrix("W(%s)" % qs.element_names[x], mats[x])
              for x in picked]
    return "\n\n".join(blocks)


def _cmd_modular_check(args, parser, diagram):
    if args.format == "json":
        return modular_json(diagram.name, tol=args.tol)
    rep = ModularRep(diagram.coxeter_number)
    res = modular_invariance_check(diagram.name, tol=args.tol)
    dev = rep.relation_deviations()
    lines = [
        "level %d, T has order %d" % (diagram.coxeter_number, rep.t_order),
        "generator relations: " + ", ".join(
            "%s %.2e" % (k, dev[k]) for k in sorted(dev)),
        "element %s: [W,S] %.2e, [W,T] %.2e, invariant: %s"
        % (res["name"], res["s_deviation"], res["t_deviation"],
           "yes" if res["invariant"] else "no"),
        "partition function: %s" % partition_function(diagram.name),
    ]
    return "\n".join(lines)


# -- frozen-reference checks ---------------------------------------------


def _positions(qs, pair):
    return tuple(qs.diagram.label_to_position(label) for label in pair)


def _element_of(qs, pair):
    x = qs.element(*_positions(qs, pair))
    if x is None:
        raise AssertionError("%s(x)%s is not a basis element" % pair)
    return x


def _nf_of(qs, pair):
    return qs.nf[_positions(qs, pair)]


def _assert_equal(got, want, what):
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        raise AssertionError("%s does not match the frozen value" % what)


def _dims_a11():
    dims = esspath_dims(essential_matrices(algebra_for("A11")))
    _assert_equal(dims, golden.A11_DIMS, "A11 dims")
    if int(dims.sum()) != golden.A11_DIMS_SUM \
            or int((dims ** 2).sum()) != golden.A11_DIMS_SQ:
        raise AssertionError("A11 dimension sums are off")


def _modular_relations():
    rep = ModularRep(12)
    dev = rep.relation_deviations()
    if max(dev.values()) > 1e-9:
        raise AssertionError("generator relations deviate: %r" % dev)
    if rep.t_order != golden.T_ORDER_12:
        raise AssertionError("T order %d, expected %d"
                             % (rep.t_order, golden.T_ORDER_12))


def _e6_registry(check):
    d = parse_graph_name("E6")
    alg = algebra_for(d)
    lp = d.label_to_position

    @check("fusion-table")
    def _():
        for (a, b), want in golden.E6_FUSION_CELLS.items():
            cons = alg.structure_constants(lp(a), lp(b))
            got = []
            for c in range(alg.rank):
                got.extend([int(d.vertex_labels[c])] * int(cons[c]))
            if tuple(sorted(got)) != tuple(sorted(want)):
                raise AssertionError("product %d*%d disagrees" % (a, b))

    @check("fusion-matrices")
    def _():
        for a, rows in golden.E6_N.items():
            _assert_equal(alg.n[lp(a)], rows, "N_%d" % a)

    @check("fusion-extended-block")
    def _():
        n3, n4 = alg.n[lp(3)], alg.n[lp(4)]
        _assert_equal(n3 @ n3, alg.n[0] + n4, "N3*N3")
        _assert_equal(n4 @ n4, alg.n[0], "N4*N4")
        _assert_equal(n4 @ n3, n3, "N4*N3")

    @check("fusion-positivity-e7")
    def _():
        try:
            fusion_matrices(build_diagram("E", 7))
        except NoPositiveHypergroupError:
            return
        raise AssertionError("E7 construction did not fail")

    @check("spectral-norm")
    def _():
        want = (math.sqrt(3.0) + 1.0) / math.sqrt(2.0)
        if abs(graph_norm(d) - want) > 1e-9:
            raise AssertionError("norm of E6 is off")

    @check("spectral-perron-frobenius")
    def _():
        q = [q_number(k, 12) for k in range(4)]
        want = np.array([q[1], q[2], q[3], q[2], q[1], q[3] / q[2]])
        if np.abs(perron_frobenius(d) - want).max() > 1e-9:
            raise AssertionError("Perron-Frobenius vector is off")

    @check("spectral-eigenvalues")
    def _():
        got = np.sort(np.linalg.eigvalsh(d.adjacency.astype(float)))
        want = np.sort([2.0 * math.cos(math.pi * m / 12.0)
                        for m in golden.E6_EXPONENTS])
        if np.abs(got - want).max() > 1e-9:
            raise AssertionError("adjacency spectrum is off")

    ess = essential_matrices(alg)

    @check("essential-matrices")
    def _():
        for a, rows in golden.E6_E.items():
            _assert_equal(ess.e[lp(a)], rows, "E_%d" % a)

    @check("essential-window")
    def _():
        rows = recurrence_rows(d, 12)
        _assert_equal(rows[11], golden.E6_E0_ROW11, "row 11")
        _assert_equal(rows[12], golden.E6_E0_ROW12, "row 12")

    @check("essential-intertwiner")
    def _():
        if not intertwiner_check(ess):
            raise AssertionError("E_0 does not intertwine the adjacencies")

    @check("fused-adjacency")
    def _():
        f = fused_adjacency(ess)
        for n, labels in golden.A11_F_DECOMP.items():
            want = sum(alg.n[lp(x)] for x in labels)
            _assert_equal(f[n], want, "F_%d" % n)

    @check("dims-e6")
    def _():
        dims = esspath_dims(ess)
        _assert_equal(dims, golden.E6_DIMS, "E6 dims")
        if int(dims.sum()) != golden.E6_DIMS_SUM \
                or int((dims ** 2).sum()) != golden.E6_DIMS_SQ:
            raise AssertionError("E6 dimension sums are off")

    check("dims-a11")(_dims_a11)

    @check("dims-a-family")
    def _():
        for nverts in range(4, 13):
            dims = esspath_dims(essential_matrices(
                algebra_for(build_diagram("A", nverts))))
            want = [(nverts - n) * (n + 1) for n in range(nverts)]
            _assert_equal(dims, want, "A%d dims" % nverts)

    @check("para-invariants")
    def _():
        p = para_invariants(ess)
        for a, row in golden.E6_PARA.items():
            _assert_equal(p[lp(a)], row, "diagonal of E_%d" % a)
        _assert_equal(p.sum(axis=0), golden.E6_PARA_TOTALS, "totals")

    @check("decomposition-left")
    def _():
        for (a, b), want in golden.E6_LEFT_TABLE.items():
            coeffs = decompose_left(ess, lp(a), lp(b))
            got = {n: int(c) for n, c in enumerate(coeffs) if c}
            if got != want:
                raise AssertionError("left cell (%d,%d) disagrees" % (a, b))

    qs = quantum_symmetry_algebra("E6")

    @check("decomposition-right")
    def _():
        for (a, b), want in golden.E6_RIGHT_TABLE.items():
            coeffs = decompose_right(ess, lp(a), lp(b))
            wantvec = np.zeros(qs.dim, dtype=np.int64)
            for pair, mult in want.items():
                wantvec[_element_of(qs, pair)] += mult
            _assert_equal(coeffs, wantvec, "right cell (%d,%d)" % (a, b))

    @check("element-dims")
    def _():
        dims = element_dims(qs)
        for pair, want in golden.E6_QS_DVEC.items():
            if int(dims[_element_of(qs, pair)]) != want:
                raise AssertionError("d of %s(x)%s is off" % pair)
        if int((dims ** 2).sum()) != golden.E6_QS_DSQ:
            raise AssertionError("sum of squared entry totals is off")

    @check("paths-length7")
    def _():
        paths = enumerate_paths(d, 7, origin=0)
        if len(paths) != golden.E6_PATHS7_TOTAL:
            raise AssertionError("expected %d paths of length 7"
                                 % golden.E6_PATHS7_TOTAL)
        by_end = [0] * d.rank
        for p in paths:
            by_end[p[-1]] += 1
        _assert_equal(by_end, golden.E6_PATHS7_BY_END, "endpoint counts")

    @check("essential-path-length4")
    def _():
        space = PathSpace(d, 4, origin=0)
        q2, q3 = q_number(2, 12), q_number(3, 12)
        v = np.zeros(space.dim)
        v[space.index[golden.E6_ESS4_PATHS[0]]] = math.sqrt(q2)
        v[space.index[golden.E6_ESS4_PATHS[1]]] = -math.sqrt(q3 / q2)
        for k in range(1, 4):
            if np.abs(annihilation_operator(space, k).matrix @ v).max() \
                    > 1e-9:
                raise AssertionError("C_%d does not kill the combination"
                                     % k)

    @check("qs-dimension")
    def _():
        if qs.dim != golden.E6_QS_DIM:
            raise AssertionError("dimension %d, expected %d"
                                 % (qs.dim, golden.E6_QS_DIM))

    @check("qs-identities")
    def _():
        for left, right in golden.E6_QS_EQUAL_PAIRS:
            _assert_equal(_nf_of(qs, left), _nf_of(qs, right),
                          "%s = %s" % (left, right))
        for pair, parts in golden.E6_QS_SUM_IDENTITIES.items():
            want = sum(_nf_of(qs, p) for p in parts)
            _assert_equal(_nf_of(qs, pair), want, "expansion of %s" % (pair,))

    @check("qs-products")
    def _():
        for (x, y), parts in golden.E6_QS_PRODUCTS.items():
            got = multiply_qs(qs, _element_of(qs, x), _element_of(qs, y))
            want = np.zeros(qs.dim, dtype=np.int64)
            for p in parts:
                want += _nf_of(qs, p)
            _assert_equal(got, want, "product %s * %s" % (x, y))

    @check("qs-partition")
    def _():
        for key, want in (("A", golden.E6_QS_CLASS_A),
                          ("L", golden.E6_QS_CLASS_L),
                          ("R", golden.E6_QS_CLASS_R),
                          ("C", golden.E6_QS_CLASS_C)):
            got = sorted(qs.partition[key])
            exp = sorted(_element_of(qs, p) for p in want)
            if got != exp:
                raise AssertionError("class %s disagrees" % key)

    @check("qs-matrix-51")
    def _():
        mats = s_matrices(qs)
        _assert_equal(mats[_element_of(qs, (5, 1))], golden.E6_S51,
                      "S of 5(x)1")

    @check("qs-cayley-solid")
    def _():
        solid, _ = qs.generator_matrices()
        idx = [_element_of(qs, (int(d.vertex_labels[p]), 0))
               for p in range(d.rank)]
        _assert_equal(solid[np.ix_(idx, idx)], d.adjacency,
                      "solid subgraph on the left chiral block")

    @check("qs-a11-dimension")
    def _():
        if quantum_symmetry_algebra("A11").dim != golden.A11_QS_DIM:
            raise AssertionError("A11 dimension is off")

    @check("qs-e8-dimension")
    def _():
        if quantum_symmetry_algebra("E8").dim != golden.E8_QS_DIM:
            raise AssertionError("E8 dimension is off")

    mats = toric_matrices("E6")

    @check("toric-matrices")
    def _():
        for pair, rows in golden.E6_W.items():
            _assert_equal(mats[_element_of(qs, pair)], rows,
                          "W of %s(x)%s" % pair)

    @check("toric-coincidences")
    def _():
        for left, right in golden.E6_W_COINCIDENCES:
            if _element_of(qs, left) != _element_of(qs, right):
                raise AssertionError("%s and %s differ" % (left, right))

    rep = ModularRep(12)
    check("modular-relations")(_modular_relations)

    @check("modular-diagonalize")
    def _():
        a11 = fusion_matrices(build_diagram("A", 11))
        m = np.linalg.solve(rep.s, a11.n[1].astype(complex) @ rep.s)
        if np.abs(m - np.diag(np.diag(m))).max() > 1e-9:
            raise AssertionError("S does not diagonalize the A11 adjacency")

    @check("modular-t-blocks")
    def _():
        t = np.diag(rep.t)
        for i, j in golden.E6_T_BLOCKS:
            if abs(t[i - 1] - t[j - 1]) > 1e-9:
                raise AssertionError("T eigenvalues %d and %d differ"
                                     % (i, j))

    @check("modular-invariance")
    def _():
        origin = _element_of(qs, (0, 0))
        if not modular_invariance_check("E6", element=origin)["invariant"]:
            raise AssertionError("W at the origin does not commute")
        worst = max(modular_invariance_check("E6", element=x)["s_deviation"]
                    for x in range(qs.dim) if x != origin)
        if worst <= 0.1:
            raise AssertionError("every other W nearly commutes (max %.3g)"
                                 % worst)

    @check("partition-function")
    def _():
        got = partition_function("E6")
        if got != golden.E6_PARTITION_FUNCTION:
            raise AssertionError("rendered %r" % got)


def _a11_registry(check):
    check("dims-a11")(_dims_a11)

    @check("qs-dimension")
    def _():
        qs = quantum_symmetry_algebra("A11")
        if qs.dim != golden.A11_QS_DIM:
            raise AssertionError("dimension %d, expected %d"
                                 % (qs.dim, golden.A11_QS_DIM))
        if qs.generator_left != qs.generator_right:
            raise AssertionError("chiral generators should coincide")

    check("modular-relations")(_modular_relations)

    @check("partition-function")
    def _():
        want = "+".join("|χ%d|²" % (m + 1) for m in range(11))
        got = partition_function("A11")
        if got != want:
            raise AssertionError("rendered %r" % got)


_REGISTRIES = {"E6": _e6_registry, "A11": _a11_registry}


def _cmd_verify(args, parser, diagram):
    register = _REGISTRIES.get(diagram.name)
    if register is None:
        raise NotDefinedError("no frozen reference data for %s"
                              % diagram.name)
    checks = []
    register(lambda name: lambda fn: checks.append((name, fn)))
    lines = []
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:
            failed += 1
            lines.append("FAIL %s: %s" % (name, exc))
        else:
            lines.append("PASS %s" % name)
    lines.append("%d of %d checks passed" % (len(checks) - failed,
                                             len(checks)))
    return "\n".join(lines), 1 if failed else 0


# -- entry point ---------------------------------------------------------

# The one list of commands.  Each is called as fn(args, parser, diagram) and
# returns a payload dict, which main wraps in the envelope and encodes, or
# text; verify-paper returns its text together with the exit status.
COMMANDS = {
    "fusion": _cmd_fusion,
    "essential": _cmd_essential,
    "paths": _cmd_paths,
    "ocneanu": _cmd_ocneanu,
    "toric": _cmd_toric,
    "modular-check": _cmd_modular_check,
    "verify-paper": _cmd_verify,
}

# parse_args keeps nothing between calls, so one parser serves every main
PARSER = _build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        diagram = parse_graph_name(args.graph)
    except UnsupportedDiagramError as exc:
        PARSER.error(str(exc))
    if args.format == "dot" and args.command != "ocneanu":
        PARSER.error("dot output only applies to the ocneanu command")

    try:
        out = COMMANDS[args.command](args, PARSER, diagram)
    except AdeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    text, status = out if isinstance(out, tuple) else (out, 0)
    if isinstance(text, dict):
        text = _wrap_json(args, diagram.name, text)

    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            PARSER.error("cannot write --out %s: %s"
                         % (args.out, exc.strerror))
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout early (`| head`): point stdout at
            # devnull so the exit flush cannot fail, and exit quietly with
            # 141 = 128 + SIGPIPE, what a shell reports for such a writer
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    return status


if __name__ == "__main__":
    sys.exit(main())

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
encoded here once.  The payload is the document of a library *_json
helper's builder (helper.arrays), which holds the kept integer arrays
themselves, not their tolist().  The envelope's bytes are exactly those of
json.dumps(indent=2, sort_keys=True): an integer array is written from one
string per (value, separator) pair, looked up by a code that numpy works
out for each entry, and other runs of numbers come from the C encoder,
re-indented.  Tables are written the same way, as a grid of fixed-width
byte cells, one per distinct value.  No text is kept between calls.

Exit status: 0 on success, 1 on a domain error (for instance a diagram
with no positive fusion structure, or a graph with no frozen reference
data), 2 on a usage error, and 141 (128 + SIGPIPE), with nothing on
stderr, when the reader closes stdout early.  The verify-paper checks live
in adefusion.verify.
"""

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, verify
from .diagram import parse_graph_name
from .errors import AdeError, UnsupportedDiagramError
from .essential import essential_json, essential_matrices
from .fusion import (_int_matmul, fusion_json, fusion_matrices,
                     fusion_table_ascii)
from .modular import (_toric_matrices, modular_invariance_check, modular_json,
                      modular_rep, partition_function)
from .ocneanu import (cayley_dot, element_dims, ocneanu_json,
                      quantum_symmetry_algebra)
from .path_model import DEFAULT_CAP, PathSpace
from .path_model import essential_dims as path_essential_dims
from .path_model import spanning_json

# `paths` refuses a request over either budget before it builds a path.
# Block (a, b) holds N_p(a, b) paths, and its constraint matrix has
# N_{p-2}(a, b) rows for each of C_1 .. C_{p-1}; `--format json` takes the
# SVD of that matrix, while the table needs only one small SVD per length.
# For scale, one thread: E6 --length 11 (7,382 paths, 2,090 rows) takes
# about 0.012 s as a table and 3.2 s as JSON, after startup.
PATHS_BUDGET = 10_000
BLOCK_ROWS_BUDGET = 4_000
# A graph above its command's rank budget is refused before any work, too:
# `fusion` and `essential` build the r^3 fusion table, `paths` runs the
# dense power iteration for the Perron-Frobenius weights, and `ocneanu`,
# `toric` and `modular-check` run the r^5 Gram check.  For scale, one
# thread: fusion A200 takes about 2.6 s, ocneanu A100 about 2 s, and
# paths A400 --length 0 fails the power iteration after about 2.4 s.
FUSION_RANK_BUDGET = 200
GRAM_RANK_BUDGET = 100


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
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the output to a file instead of stdout")
    return p


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
    dots.  Each distinct value is formatted once, as a cell of width + 1
    bytes, and the cells are gathered into one byte grid whose last byte
    per row is a newline."""
    m = np.atleast_2d(np.asarray(m))
    lo, hi = int(m.min()), int(m.max())
    if hi - lo <= m.size:
        values, codes = range(lo, hi + 1), m - lo
    else:
        values, codes = np.unique(m, return_inverse=True)
        values, codes = values.tolist(), codes.reshape(m.shape)
    width = max(len("%d" % lo), len("%d" % hi))
    cells = np.frombuffer(b"".join(
        ("%*d " % (width, v) if v else "%*s " % (width, ".")).encode()
        for v in values), dtype=np.uint8).reshape(len(values), width + 1)
    grid = cells[codes]
    grid[:, -1, -1] = ord("\n")
    return grid.tobytes().decode().split("\n")[:-1]


def _titled_matrix(title, m):
    return "\n".join([title] + _matrix_lines(m))


_SCALARS = {int, float, bool, type(None)}
_ROWS = {list, tuple}


def _encode(value, newline="\n"):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, where
    every dict key is a str (any other key is a TypeError), and an ndarray
    stands for its tolist().  A list of scalars, or of nonempty scalar rows,
    is one call of the C encoder, which json.dumps reaches only without
    indent, split at its separators: no number, NaN, Infinity, true or null
    contains ", " or "], [".
    """
    if isinstance(value, np.ndarray):
        return _encode_array(value, newline)
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


def _encode_array(a, newline):
    """_encode of a signed int array with no empty axis whose range hi - lo
    is at most its number of entries; any other array goes through
    tolist().

    Before each entry json.dumps writes one of ndim + 1 separators: kind k
    closes and reopens the k innermost lists (the entry restarts its k
    trailing axes), and kind ndim, at the first entry, only opens.  So the
    text is one token, separator + value, per entry, and the tokens for
    lo .. hi are built once for this call.
    """
    if a.dtype.kind != "i" or a.ndim == 0 or 0 in a.shape:
        return _encode(a.tolist(), newline)
    lo, hi = int(a.min()), int(a.max())
    if hi - lo > a.size:
        return _encode(a.tolist(), newline)
    d = a.ndim
    nl = [newline + "  " * j for j in range(d + 1)]
    seps = ["".join(nl[j] + "]" for j in range(d - 1, d - 1 - k, -1))
            + "," + nl[d - k]
            + "".join("[" + nl[j] for j in range(d - k + 1, d + 1))
            for k in range(d)]
    seps.append("".join("[" + nl[j] for j in range(1, d + 1)))
    lut = [sep + str(v) for v in range(lo, hi + 1) for sep in seps]
    codes = (a.astype(np.int64, copy=False) - lo) * (d + 1)
    for k in range(1, d + 1):
        codes[(Ellipsis,) + (0,) * k] += 1
    return ("".join(map(lut.__getitem__, codes.ravel().tolist()))
            + "".join(nl[j] + "]" for j in range(d - 1, -1, -1)))


def _wrap_json(args, graph_name, payload):
    return _encode({
        "tool_version": __version__,
        "command": args.command,
        "graph": graph_name,
        "payload": payload,
    })


# -- command bodies ------------------------------------------------------


def _cmd_fusion(args, parser, diagram):
    algebra = fusion_matrices(diagram)
    if args.format == "json":
        return fusion_json.arrays(algebra)
    return fusion_table_ascii(algebra)


def _cmd_essential(args, parser, diagram):
    ess = essential_matrices(diagram)
    if args.format == "json":
        return essential_json.arrays(ess)
    return "\n\n".join(_titled_matrix("E_%s" % label, e)
                       for label, e in zip(diagram.vertex_labels, ess.e))


def _paths_over_budget(diagram, length, origin):
    """Why paths of this length are over budget, or None.  A backtrack
    added at the end keeps a path's ends, so no count falls from length k
    to k + 2 (A1 has no edge): the first total of this length's parity
    over the budget refuses, before any count nears int64."""
    if length - 1 > BLOCK_ROWS_BUDGET:
        # each C_k contributes at least one row to every nonempty block, and
        # the count below takes one step per unit of length, on every graph
        return ("length over the bound of %d, which keeps C_1 .. C_{p-1} "
                "within the budget of %d constraint rows per block"
                % (BLOCK_ROWS_BUDGET + 1, BLOCK_ROWS_BUDGET))
    g = diagram.adjacency
    origins = range(diagram.rank) if origin is None else [origin]
    ends = np.zeros(diagram.rank, dtype=np.int64)
    ends[origins] = 1       # the paths of length n from the origins, by end
    for n in range(length + 1):
        if n:
            ends = ends @ g
        if n % 2 == length % 2 and ends.sum() > PATHS_BUDGET:
            return ("%d paths of length %d, over the budget of %d paths"
                    % (ends.sum(), n, PATHS_BUDGET))
    if length < 3:
        return None         # p = 2: N_0 = I, one row per block and C_1
    counts = g[origins]     # N_{p-2}(a, b) from the origins a
    for _ in range(length - 3):
        counts = _int_matmul(counts, g)
    rows = (length - 1) * int(counts.max())
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
                      cap=max(args.length, DEFAULT_CAP))
    if args.format == "json":
        return spanning_json.arrays(space)
    dims = path_essential_dims(space)
    head = "%d paths of length %d; essential dimensions by (origin, end):" \
        % (len(space.paths), args.length)
    return "\n".join([head] + _matrix_lines(dims))


def _cmd_ocneanu(args, parser, diagram):
    qs = quantum_symmetry_algebra(diagram.name)
    if args.format == "dot":
        return cayley_dot(qs)
    if args.format == "json":
        return ocneanu_json.arrays(qs)
    dims = element_dims(qs)
    lines = ["dimension %d" % qs.dim]
    for k in ("A", "L", "R", "C"):
        members = ", ".join(qs.element_names[x] for x in qs.partition[k])
        lines.append("%s: %s" % (k, members))
    lines.append("entry totals: " + " ".join("%d" % v for v in dims))
    return "\n".join(lines)


def _cmd_toric(args, parser, diagram):
    qs = quantum_symmetry_algebra(diagram.name)
    mats = _toric_matrices(diagram)
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
            "matrices": mats[picked],
        }
    blocks = [_titled_matrix("W(%s)" % qs.element_names[x], mats[x])
              for x in picked]
    return "\n\n".join(blocks)


def _cmd_modular_check(args, parser, diagram):
    if args.format == "json":
        return modular_json.arrays(diagram.name)
    rep = modular_rep(diagram)
    res = modular_invariance_check(diagram.name)
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


def _cmd_verify(args, parser, diagram):
    return verify.run(diagram.name)


# -- entry point ---------------------------------------------------------

# The one list of commands: the formats, own options and rank budget of
# each, and fn(args, parser, diagram), which returns a payload dict (main
# wraps and encodes it) or text; verify-paper adds its exit status.
COMMANDS = {
    "fusion": (_cmd_fusion, ("json", "table"), (), FUSION_RANK_BUDGET),
    "essential": (_cmd_essential, ("json", "table"), (), FUSION_RANK_BUDGET),
    "paths": (_cmd_paths, ("json", "table"), ("origin", "length"),
              FUSION_RANK_BUDGET),
    "ocneanu": (_cmd_ocneanu, ("json", "dot", "table"), (), GRAM_RANK_BUDGET),
    "toric": (_cmd_toric, ("json", "table"), ("element",), GRAM_RANK_BUDGET),
    "modular-check": (_cmd_modular_check, ("json", "table"), (),
                      GRAM_RANK_BUDGET),
    "verify-paper": (_cmd_verify, ("table",), (), None),
}
OWN_OPTIONS = sorted({o for cmd in COMMANDS.values() for o in cmd[2]})

# parse_args keeps nothing between calls, so one parser serves every main
PARSER = _build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        diagram = parse_graph_name(args.graph)
    except UnsupportedDiagramError as exc:
        PARSER.error(str(exc))
    run, formats, taken, budget = COMMANDS[args.command]
    if args.format not in formats:
        PARSER.error("%s takes --format %s"
                     % (args.command, "|".join(formats)))
    for option in OWN_OPTIONS:
        if option not in taken and getattr(args, option) is not None:
            PARSER.error("%s does not take --%s" % (args.command, option))
    if budget is not None and diagram.rank > budget:
        PARSER.error("%s %s: rank %d, over the budget of rank %d"
                     % (args.command, diagram.name, diagram.rank, budget))

    try:
        out = run(args, PARSER, diagram)
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

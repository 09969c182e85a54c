"""Concrete path model on an ADE diagram.

Paths of length p are (p+1)-tuples of adjacent vertex positions.  The
annihilation operator C_k contracts a backtracking step at position k with
weight sqrt(D[v_k]/D[v_{k-1}]) (_weights), where D is the Perron-Frobenius
vector; its adjoint C+_k inserts a backtrack.  The normalized products
e_k = C+_k C_k / beta realize the Temperley-Lieb projectors, and the
essential subspace at length p is the joint kernel of all C_k.

The C_k preserve the origin and the endpoint, so the kernel splits into
(origin, endpoint) blocks.  essential_dims builds each block's kernel one
length at a time (Ocneanu's essential-path construction).  For k <= q-2,
C_k acts only on the length-(q-1) prefix, so ker_q(a, b) is the part of
ker C_{q-1} inside the sum over c ~ b of ker_{q-1}(a, c), each path
extended by the step c -> b.  Each level is kept in the coordinates of
the kernels one length shorter, which are orthonormal, so on that sum
C_{q-1} is the kernel basis at q-2 times a matrix M with one row per
kernel vector of ker_{q-2}(a, b) and one column per kernel vector of the
ker_{q-1}(a, c); each step takes one SVD of M, and tol applies to its
singular values.  The dims equal the recurrence's exactly when each M
has full row rank inside the Coxeter window.  essential_subspace instead
stacks a block's C_1 .. C_{p-1} into one constraint matrix K and takes
its SVD (forming U only when K is wide), so its bases come in the
block's lexicographic path coordinates; there tol applies to the
singular values of K.

This module is the numeric cross-check for the integer essential-path
counts: it never looks at the recurrence, only at the annihilators on
explicit paths (essential_subspace) or on the kernels one length shorter
(essential_dims), so agreement between the two is a real test.  Paths
are enumerated anew on each call, each once: a head of floor(p/2) steps
joined to each walk of the rest from its last vertex; essential_dims
enumerates none.  PathSpace.index is built on first use.  The prefix
kernels are kept, one chain per (diagram, tol) under
diagram.cache_per_diagram: for each origin asked, the read-only levels
at every length up to the longest one asked.  A longer request grows the
chain by the missing steps only.  The level at length q holds, for each
end b, a (sum over e ~ b of dim ker_{q-1}(a, e)) x dim ker_q(a, b) array
of floats, so nothing kept counts paths.  essential_subspace's bases are
kept the same way, read-only, per (diagram, length, origin, tol).  tol
must be finite and above 0.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .diagram import (_check_tol, cache_per_diagram, graph_norm,
                      json_document, perron_frobenius)
from .errors import LengthCapError

__all__ = [
    "DEFAULT_CAP",
    "PathSpace",
    "PathOperator",
    "enumerate_paths",
    "annihilation_operator",
    "creation_operator",
    "jones_projector",
    "essential_subspace",
    "essential_dims",
    "spanning_json",
]

DEFAULT_CAP = 8


def enumerate_paths(diagram, length, origin=None, cap=DEFAULT_CAP):
    """All edge paths of the given length in lexicographic order, as
    tuples of vertex positions (ascending neighbours keep that order).
    origin, if given, must be a vertex position."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if origin is not None and not 0 <= origin < diagram.rank:
        raise ValueError("origin %s is not a vertex position of %s (0 .. %d)"
                         % (origin, diagram.name, diagram.rank - 1))
    if length > cap:
        raise LengthCapError(
            "length %d exceeds the cap %d (pass cap= to raise it)"
            % (length, cap))
    nbrs = [diagram.neighbors(v) for v in range(diagram.rank)]
    heads = [(v,) for v in (range(diagram.rank) if origin is None
                            else (origin,))]
    for _ in range(length // 2):
        heads = [p + (w,) for p in heads for w in nbrs[p[-1]]]
    # tails[v]: the walks of the rest from v, without v, lexicographic
    tails = [[()]] * diagram.rank
    for _ in range(length - length // 2):
        tails = [[(w,) + t for w in ws for t in tails[w]] for ws in nbrs]
    return [h + t for h in heads for t in tails[h[-1]]]


class PathSpace:
    """The span of all paths of one length, optionally from one origin."""

    def __init__(self, diagram, length, origin=None, cap=DEFAULT_CAP):
        self.diagram = diagram
        self.length = length
        self.origin = origin
        self.paths = tuple(enumerate_paths(diagram, length, origin, cap))
        self.cap = cap

    @functools.cached_property
    def index(self):
        return {p: i for i, p in enumerate(self.paths)}

    @property
    def dim(self):
        return len(self.paths)

    def __repr__(self):
        return "PathSpace(%s, length=%d, origin=%r, dim=%d)" % (
            self.diagram.name, self.length, self.origin, self.dim)


@cache_per_diagram
def _weights(d):
    """weight[u][v] = sqrt(D[v] / D[u]), the factor of contracting u, v, u."""
    pf = perron_frobenius(d)
    return tuple(map(tuple, np.sqrt(pf[None, :] / pf[:, None]).tolist()))


class PathOperator:
    def __init__(self, kind, k, source, target, matrix):
        self.kind = kind
        self.k = k
        self.source = source
        self.target = target
        self.matrix = matrix
        matrix.setflags(write=False)

    def __repr__(self):
        return "PathOperator(%s, k=%d, %d -> %d)" % (
            self.kind, self.k, self.source.length, self.target.length)


def annihilation_operator(space, k):
    """C_k: contract the backtrack v_{k-1}, v_k, v_{k+1} when
    v_{k+1} == v_{k-1}; zero on every other path."""
    p = space.length
    if not 1 <= k <= p - 1:
        raise ValueError("C_%d undefined on paths of length %d" % (k, p))
    d = space.diagram
    target = PathSpace(d, p - 2, space.origin, space.cap)
    weight = _weights(d)
    m = np.zeros((target.dim, space.dim))
    for j, path in enumerate(space.paths):
        if path[k + 1] != path[k - 1]:
            continue
        short = path[:k] + path[k + 2:]
        m[target.index[short], j] = weight[path[k - 1]][path[k]]
    return PathOperator("annihilation", k, space, target, m)


def creation_operator(space, k):
    """C+_k: insert a backtrack through every neighbor of v_{k-1}."""
    p = space.length
    if not 1 <= k <= p + 1:
        raise ValueError("C+_%d undefined on paths of length %d" % (k, p))
    d = space.diagram
    target = PathSpace(d, p + 2, space.origin, max(space.cap, p + 2))
    weight = _weights(d)
    m = np.zeros((target.dim, space.dim))
    for j, path in enumerate(space.paths):
        anchor = path[k - 1]
        for w in d.neighbors(anchor):
            longer = path[:k] + (w, anchor) + path[k:]
            m[target.index[longer], j] += weight[anchor][w]
    return PathOperator("creation", k, space, target, m)


def jones_projector(space, k):
    """e_k = C+_k C_k / beta, an endomorphism of the path space."""
    ann = annihilation_operator(space, k)
    cre = creation_operator(ann.target, k)
    m = cre.matrix @ ann.matrix / graph_norm(space.diagram)
    return PathOperator("jones", k, space, space, m)


def _blocks(space):
    """The paths of each nonempty (origin, endpoint) block, keyed by
    (a, b) in position order, each block in lexicographic order."""
    blocks = {}
    for path in space.paths:
        blocks.setdefault((path[0], path[-1]), []).append(path)
    return dict(sorted(blocks.items()))


def _constraint_blocks(space):
    """Yield ((a, b), block paths, K) for each nonempty block, where K
    stacks the matrices of C_1 .. C_{p-1} restricted to the block, or is
    None when no C_k acts on it.  Rows go in k order and, within one k,
    the contracted paths go in order of first appearance."""
    p = space.length
    weight = _weights(space.diagram)
    for ab, block in _blocks(space).items():
        rows, cols, vals = [], [], []
        nrows = 0
        for k in range(1, p):
            shorts = {}
            for j, path in enumerate(block):
                if path[k + 1] != path[k - 1]:
                    continue
                short = path[:k] + path[k + 2:]
                rows.append(nrows + shorts.setdefault(short, len(shorts)))
                cols.append(j)
                vals.append(weight[path[k - 1]][path[k]])
            nrows += len(shorts)
        if not nrows:
            yield ab, block, None
            continue
        kmat = np.zeros((nrows, len(block)))
        kmat[rows, cols] = vals
        yield ab, block, kmat


def essential_subspace(space, tol=1e-9):
    """Orthonormal bases of the joint kernel of all C_k, one per
    (origin, endpoint) pair: {(a, b): rows-are-basis-vectors array}.
    Coordinates follow the lexicographic order of the block's paths.  The
    dict is new on each call; the bases are read-only and kept per
    (diagram, length, origin, tol)."""
    return dict(_subspace_bases(space.diagram, space.length, space.origin,
                                _check_tol(tol)))


@cache_per_diagram
def _subspace_bases(d, length, origin, tol):
    out = {}
    for ab, block, kmat in _constraint_blocks(
            PathSpace(d, length, origin, cap=length)):
        if kmat is None:
            out[ab] = np.eye(len(block))
            continue
        _, sing, vh = np.linalg.svd(
            kmat, full_matrices=kmat.shape[0] < kmat.shape[1])
        # a copy: a view would keep all of vh, n x n for n paths (31 MB
        # over the blocks of E6 at length 11, where every kernel is empty)
        out[ab] = vh[int(np.sum(sing > tol)):].copy()
    _read_only(out.values())
    return out


def _kernel_step(prev2, prev, nbrs, weight, tol):
    """Kernel levels at length q from those at q-1 and q-2, from one
    origin, each in the coordinates of the kernels one length shorter.
    prev[c] has one row per kernel vector at q-2 of each e ~ c in turn,
    and one orthonormal column per kernel vector at q-1."""
    # off[c]: the rows of prev[c] for e ~ c, e < b, as b ascends
    off = [0] * len(prev)
    out = []
    for b, cs in enumerate(nbrs):
        # C_{q-1} contracts (.., b, c, b) to (.., b), so on the kernels at
        # q-1 extended by c -> b it is the orthonormal kernel basis at q-2
        # times M, whose column block c is a weighted row block of prev[c]
        n2 = prev2[b].shape[1]
        blocks = []
        for c in cs:
            o, off[c] = off[c], off[c] + n2
            if n2 and prev[c].shape[1]:
                blocks.append(weight[b][c] * prev[c][o:o + n2])
        if blocks:
            m = np.concatenate(blocks, axis=1)
            _, sing, vh = np.linalg.svd(m, full_matrices=n2 < m.shape[1])
            out.append(vh[np.count_nonzero(sing > tol):].T)
        else:
            out.append(np.eye(sum(prev[c].shape[1] for c in cs)))
    return out


@cache_per_diagram
def _kernel_chain(d, tol):
    """The neighbour table, the weight table and {origin: levels} for one
    (diagram, tol).  levels[q][b] is the read-only kernel level at length
    q of the paths from the origin to b: one row per kernel vector at
    q-1 of each e ~ b in turn, one column per kernel vector at q (at
    q = 0, [[1]] for b the origin).  essential_dims appends levels."""
    return [d.neighbors(b) for b in range(d.rank)], _weights(d), {}


# held while a chain grows: two threads appending to one chain would
# each add the same level, and every later level would be built wrong
_GROWING = threading.Lock()


def _read_only(bases):
    for basis in bases:
        basis.setflags(write=False)
    return bases


def essential_dims(space, tol=1e-9):
    """Integer matrix dims[a, b] of essential path counts at this
    length, computed purely from the path model, one length at a time:
    the kernel at length q is the null space of C_{q-1} on the kernel at
    q-1 extended by one step.  On those orthonormal kernels C_{q-1} is
    the kernel basis at q-2 times a matrix M with one row per kernel
    vector at q-2, so each step takes one small SVD of M, and tol applies
    to its singular values: the ones above it are its rank.  Reads only
    space.diagram, space.length and space.origin; each origin's levels
    are kept in _kernel_chain and grown only up to space.length, so no
    step runs twice for one (diagram, tol)."""
    tol = _check_tol(tol)
    r = space.diagram.rank
    nbrs, weight, levels = _kernel_chain(space.diagram, tol)
    dims = np.zeros((r, r), dtype=np.int64)
    for a in range(r) if space.origin is None else (space.origin,):
        with _GROWING:
            chain = levels.get(a)
            if chain is None:
                chain = levels[a] = [_read_only(
                    [np.ones((1, 1)) if b == a else np.zeros((0, 0))
                     for b in range(r)])]
            while len(chain) <= space.length:
                prev2 = chain[-2] if len(chain) > 1 else [
                    np.zeros((0, 0))] * r
                chain.append(_read_only(
                    _kernel_step(prev2, chain[-1], nbrs, weight, tol)))
        dims[a] = [level.shape[1] for level in chain[space.length]]
    return dims


@json_document
def spanning_json(space, tol=1e-9):
    """The essential bases by (origin, end) block as a dict of JSON values."""
    bases = essential_subspace(space, tol)
    paths = _blocks(space)
    blocks = []
    for (a, b), basis in sorted(bases.items()):
        blocks.append({
            "origin": a,
            "end": b,
            "dim": int(basis.shape[0]),
            "paths": [list(p) for p in paths[a, b]],
            "basis": basis,
        })
    return {
        "graph": space.diagram.name,
        "length": space.length,
        "blocks": blocks,
    }

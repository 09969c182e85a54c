"""ADE Dynkin diagrams and their spectral data.

Vertices are indexed by *position* 0..rank-1 in a fixed display order per
family; the human-facing name of each position is kept in ``vertex_labels``.
For E6 the display order runs along the long path and puts the short branch
vertex last, so positions carry labels (0, 1, 2, 5, 4, 3).  All matrices in
the package are written in this position order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StructuralError, UnsupportedDiagramError

__all__ = [
    "Family", "DynkinDiagram",
    "build_diagram", "graph_norm", "perron_frobenius", "q_number",
    "coxeter_exponents", "parse_graph_name", "recurrence_rows",
]


class Family(Enum):
    A = "A"
    D = "D"
    E = "E"


def _frozen(m):
    a = np.asarray(m, dtype=np.int64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DynkinDiagram:
    family: Family
    rank: int
    vertex_labels: tuple
    adjacency: np.ndarray  # rank x rank symmetric 0/1, read-only
    coxeter_number: int

    @property
    def name(self):
        return "%s%d" % (self.family.value, self.rank)

    @functools.cached_property
    def _neighbors(self):
        return tuple(tuple(np.flatnonzero(r).tolist()) for r in self.adjacency)

    def neighbors(self, v):
        return self._neighbors[v]

    def label_to_position(self, label):
        return self.vertex_labels.index(str(label))

    def __repr__(self):
        return "DynkinDiagram(%s)" % self.name


def _path_adjacency(n):
    g = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        g[i, i + 1] = g[i + 1, i] = 1
    return g


# the r x r int64 adjacency takes 8 r^2 bytes: 800 MB at the ceiling
RANK_CEILING = 10_000


def build_diagram(family, rank):
    """Build the diagram for a valid ADE pair.

    ``family`` may be a Family member or one of the strings "A", "D", "E".
    Vertex conventions: A_n is the path 0-1-...-(n-1), marked end first.
    D_n runs 0-...-(n-3) along the tail with both fork vertices attached to
    position n-3 and listed last.  E6/E7/E8 run along the long path through
    the trivalent vertex, short branch vertex last; the marked vertex is the
    far end of the longest branch.  Only E6's order is pinned by the
    frozen reference tables; the D/E7/E8 orders are this package's
    documented choice.  A diagram is immutable, so one is kept per
    (family, rank) and a repeated call returns it.  A rank above
    RANK_CEILING is refused before the dense adjacency is allocated.
    """
    try:
        family = Family(family)
    except ValueError:
        raise UnsupportedDiagramError("unknown family %r" % (family,))
    rank = int(rank)
    if rank > RANK_CEILING:
        raise UnsupportedDiagramError(
            "%s%d: rank %d, over the ceiling of rank %d"
            % (family.value, rank, rank, RANK_CEILING))
    return _build(family, rank)


@functools.lru_cache(maxsize=None)
def _build(family, rank):
    if family is Family.A:
        if rank < 1:
            raise UnsupportedDiagramError("A_n needs n >= 1")
        g = _path_adjacency(rank)
        labels = tuple(str(i) for i in range(rank))
        cox = rank + 1
    elif family is Family.D:
        if rank < 4:
            raise UnsupportedDiagramError("D_n needs n >= 4")
        g = _path_adjacency(rank)
        # detach the path end and hang both forks off position rank-3
        g[rank - 2, rank - 1] = g[rank - 1, rank - 2] = 0
        g[rank - 3, rank - 1] = g[rank - 1, rank - 3] = 1
        labels = tuple(str(i) for i in range(rank))
        cox = 2 * rank - 2
    else:                           # Family.E
        if rank not in (6, 7, 8):
            raise UnsupportedDiagramError("E_n needs n in {6, 7, 8}")
        # long path on positions 0..rank-2, branch vertex rank-1 attached
        # to the trivalent position
        trivalent = {6: 2, 7: 3, 8: 4}[rank]
        g = _path_adjacency(rank)
        g[rank - 2, rank - 1] = g[rank - 1, rank - 2] = 0
        g[trivalent, rank - 1] = g[rank - 1, trivalent] = 1
        if rank == 6:
            labels = ("0", "1", "2", "5", "4", "3")
        else:
            labels = tuple(str(i) for i in range(rank))
        cox = {6: 12, 7: 18, 8: 30}[rank]
    return DynkinDiagram(family, rank, labels, _frozen(g), cox)


def parse_graph_name(text):
    """Parse strings like "E6" or "A11" into a diagram."""
    text = text.strip()
    family, rank = text[:1].upper(), text[1:]
    # int() would also take "1_0", "+5", " 6" and non-ASCII digits
    if family not in "ADE" or not (rank.isascii() and rank.isdigit()):
        raise UnsupportedDiagramError("cannot parse graph name %r" % (text,))
    return build_diagram(family, int(rank))


def cache_per_diagram(fn):
    """Memoise fn(graph, *args) on the graph's (family, rank) and args.

    A DynkinDiagram holds an ndarray, so it is not hashable; a diagram is
    fixed by its family and rank, so that pair is the key and fn receives
    the kept diagram for it.  graph may be a diagram, a graph name, or
    anything with a ``diagram`` attribute (an algebra, for instance).
    The wrapper carries the lru_cache's cache_clear and cache_info.

    This is the one owner of the package's per-diagram values, and every
    array it keeps is read-only:
      diagram     perron_frobenius: the PF vector
      fusion      fusion_matrices; ambichiral_subalgebra
      ocneanu     quantum_symmetry_algebra; _generator_matrices;
                  _s_matrices, one stacked array, which decompose_right
                  and ocneanu_json read
      modular     modular_rep: S, T and the order of T at the Coxeter
                  number; _toric_matrices, one stacked array
      path_model  _weights: the contraction weights; _kernel_chain: the
                  prefix-kernel levels, per tol, each sized by the kernel
                  dims one length shorter, not by the paths;
                  _subspace_bases: the bases of essential_subspace, per
                  (length, origin)
    essential_matrices is built on each call: an EssentialSet takes about
    0.05 ms to build, and keeping one per diagram raised the peak RSS of
    one process building A40, A60, D30, D34 and D36 by about 1.2 MB.
    """
    @functools.lru_cache(maxsize=None)
    def cached(family, rank, *args):
        return fn(build_diagram(family, rank), *args)

    @functools.wraps(fn)
    def wrapper(graph, *args):
        if isinstance(graph, str):
            graph = parse_graph_name(graph)
        d = getattr(graph, "diagram", graph)
        return cached(d.family, d.rank, *args)
    wrapper.cache_clear = cached.cache_clear
    wrapper.cache_info = cached.cache_info
    return wrapper


def json_document(builder):
    """Make builder(...), whose document holds the kept read-only arrays,
    a helper that returns the same document in plain Python values: every
    ndarray, in any dict or list of it, becomes its tolist().

    The builder stays reachable as ``helper.arrays``, so a writer that
    encodes arrays itself (the CLI) reads them without the copy.
    """
    @functools.wraps(builder)
    def helper(*args, **kwargs):
        return _plain(builder(*args, **kwargs))
    helper.arrays = builder
    return helper


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def graph_norm(d):
    """The norm beta = 2 cos(pi / N), N the Coxeter number.

    This closed form equals the largest adjacency eigenvalue; the
    perron_frobenius computation cross-checks the residual.
    """
    return 2.0 * math.cos(math.pi / d.coxeter_number)


PF_TOL = 1e-12
PF_MAX_ITER = 100_000


@cache_per_diagram
def perron_frobenius(d):
    """Positive eigenvector for the norm, normalized to 1 at position 0;
    read-only, and kept per diagram.

    Power iteration on g + 1, not g itself: the diagram is bipartite, so
    -beta is also an eigenvalue of g and the unshifted iteration never
    settles.  Started from the all-ones vector (guaranteed overlap with
    the positive eigenvector), it stops at the first unit iterate w that
    moves by less than PF_TOL from the one before, or after PF_MAX_ITER
    steps.  The steps run in blocks of 32 and each block's stop test is
    batched, then decided exactly, so the result is the one-step loop's
    bit for bit (see _power_iteration).  On A1, the zero matrix, one step
    settles at [1.0].  Raises StructuralError when the result leaves a
    residual above 1e-9, as on D200 and A400.
    """
    beta = graph_norm(d)
    g = d.adjacency.astype(float)
    v = _power_iteration(g + np.eye(d.rank), PF_TOL, PF_MAX_ITER)
    v = v / v[0]
    residual = np.max(np.abs(g @ v - beta * v))
    if residual > 1e-9:
        raise StructuralError(
            "power iteration residual %.3g exceeds 1e-9" % residual)
    v.setflags(write=False)
    return v


_BLOCK = 32


def _power_iteration(shifted, tol, max_iter):
    """The iterate at which w = shifted.v / |shifted.v| first moves by less
    than tol from v, or the last of max_iter steps, from v = all ones.

    The steps run _BLOCK at a time into the rows of one buffer, and each
    block's stop test is batched.  Any two float sums of the same r
    nonnegative squares agree to about 2r.2^-53 relative (and to 2^-1075
    per term below the normal range), so a step whose batched sum is at
    least max(tol^2, tiny).(1 + 1e-6) cannot pass the one-step test; every
    other step is tested again in order with that exact expression.
    """
    buf = np.empty((_BLOCK + 1, len(shifted)))
    buf[0] = 1.0
    rows = list(buf)
    bound = max(tol * tol, np.finfo(float).tiny) * (1 + 1e-6)
    for start in range(0, max_iter, _BLOCK):
        n = min(_BLOCK, max_iter - start)
        for v, w in zip(rows, rows[1:n + 1]):
            # the gemv of shifted @ v, and sqrt(w . w), which is what
            # np.linalg.norm computes for a 1-D float vector, bit for bit;
            # the methods skip np.dot's dispatch
            shifted.dot(v, out=w)
            w /= math.sqrt(w.dot(w))
        steps = buf[1:n + 1] - buf[:n]
        # squared in place and summed; np.einsum's iterator buffers raised
        # the peak RSS of a process running fusion-ladder by about 0.25 MB
        near = np.square(steps, out=steps).sum(axis=1) < bound
        for i in np.flatnonzero(near).tolist():
            step = rows[i + 1] - rows[i]
            if math.sqrt(np.dot(step, step)) < tol:
                return rows[i + 1]
        buf[0] = buf[n]
    return rows[0]


def q_number(n, N):
    """The deformed integer [n] = sin(n pi / N) / sin(pi / N)."""
    if N < 2:
        raise ValueError("q_number needs N >= 2")
    return math.sin(n * math.pi / N) / math.sin(math.pi / N)


_E_EXPONENTS = {
    6: (1, 4, 5, 7, 8, 11),
    7: (1, 5, 7, 9, 11, 13, 17),
    8: (1, 7, 11, 13, 17, 19, 23, 29),
}


def coxeter_exponents(d):
    """Exponents m: the adjacency eigenvalues are 2 cos(pi m / N)."""
    if d.family is Family.A:
        return tuple(range(1, d.rank + 1))
    if d.family is Family.D:
        return tuple(range(1, 2 * d.rank - 2, 2)) + (d.rank - 1,)
    return _E_EXPONENTS[d.rank]


def recurrence_rows(diagram, upto):
    """Rows 0..upto of row_{n+1} = row_n . G - row_{n-1} from the unit row
    at vertex 0, untruncated (entries go negative past the Coxeter
    window); rows 0..N-2 are E_0, row m-1 for the character m."""
    rows = np.zeros((upto + 2, diagram.rank), dtype=np.int64)
    rows[1, 0] = 1          # after a zero row, the row before the seed
    for n in range(2, upto + 2):
        rows[n] = rows[n - 1] @ diagram.adjacency - rows[n - 2]
    return rows[1:]


def _t_classes(level):
    """m^2 mod 4N for the characters m = 1..N-1 (0-based), N = level: as
    T[m,m] = exp(i pi (m^2/2N + 1/4)), T is equal exactly within a class."""
    return np.arange(1, level) ** 2 % (4 * level)

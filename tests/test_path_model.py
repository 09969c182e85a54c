import threading
import types

import numpy as np
import pytest

from adefusion import (
    LengthCapError,
    PathSpace,
    annihilation_operator,
    build_diagram,
    creation_operator,
    enumerate_paths,
    essential_matrices,
    essential_subspace,
    graph_norm,
    jones_projector,
    q_number,
)
from adefusion import path_model
from adefusion.path_model import (
    _blocks,
    _constraint_blocks,
    essential_dims,
)
from adefusion.golden import E6_ESS4_PATHS, E6_PATHS7_BY_END, E6_PATHS7_TOTAL

from _oracles import creation_by_insertion, kernel_step_by_slices


def test_enumerate_small():
    d = build_diagram("A", 3)
    assert enumerate_paths(d, 0, origin=1) == [(1,)]
    assert enumerate_paths(d, 1, origin=0) == [(0, 1)]
    assert enumerate_paths(d, 2, origin=0) == [(0, 1, 0), (0, 1, 2)]
    # without an origin, all starting vertices in position order
    assert len(enumerate_paths(d, 1)) == 4


@pytest.mark.parametrize("build", [
    lambda d: enumerate_paths(d, 2, origin=-1),
    lambda d: enumerate_paths(d, 0, origin=99),
    lambda d: essential_dims(PathSpace(d, 2, origin=-1)),
    # essential_dims reads space.origin itself, unchecked by PathSpace
    lambda d: essential_dims(types.SimpleNamespace(diagram=d, length=4,
                                                   origin=-1)),
    lambda d: essential_dims(types.SimpleNamespace(diagram=d, length=4,
                                                   origin=6)),
], ids=["negative", "length-0", "path-space", "dims-negative",
        "dims-past-the-rank"])
def test_refuses_an_origin_outside_the_diagram(build):
    d = build_diagram("E", 6)
    levels = path_model._kernel_chain(d, 1e-9)[2]
    before = set(levels)
    with pytest.raises(ValueError,
                       match=r"is not a vertex position of E6 \(0 \.\. 5\)"):
        build(d)
    # refused before a chain is kept under that origin
    assert set(levels) == before


def test_enumerate_counts_length7():
    d = build_diagram("E", 6)
    paths = enumerate_paths(d, 7, origin=0)
    assert len(paths) == E6_PATHS7_TOTAL
    ends = [0] * 6
    for p in paths:
        assert len(p) == 8 and p[0] == 0
        ends[p[-1]] += 1
    assert tuple(ends) == E6_PATHS7_BY_END


def _sorted_paths(d, length, origin):
    # reference rule: grow each origin's paths by the nonzero positions of
    # the adjacency row, then sort
    out = []
    for v0 in range(d.rank) if origin is None else (origin,):
        frontier = [(v0,)]
        for _ in range(length):
            frontier = [p + (int(w),) for p in frontier
                        for w in np.flatnonzero(d.adjacency[p[-1]])]
        out.extend(frontier)
    return sorted(out)


def test_enumerate_matches_sorted_rule():
    graphs = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
              + [("E", n) for n in (6, 7, 8)])
    for fam, rank in graphs:
        d = build_diagram(fam, rank)
        for p in range(9):
            for origin in [None, *range(rank)]:
                assert enumerate_paths(d, p, origin) == \
                    _sorted_paths(d, p, origin), (d.name, p, origin)
    # the rest of the path window, E6 p <= 11, D6 p <= 9 and E8 p <= 10:
    # heads of p // 2 steps, tails of one step more when p is odd
    for fam, rank, last in (("E", 6, 11), ("D", 6, 9), ("E", 8, 10)):
        d = build_diagram(fam, rank)
        for p in range(9, last + 1):
            for origin in [None, *range(rank)]:
                assert enumerate_paths(d, p, origin, cap=p) == \
                    _sorted_paths(d, p, origin), (d.name, p, origin)


def test_path_index_is_built_on_first_use():
    space = PathSpace(build_diagram("E", 6), 7, cap=7)
    essential_dims(space)
    assert "index" not in vars(space)
    assert space.index == {p: i for i, p in enumerate(space.paths)}
    assert space.index is space.index


def test_length_cap():
    d = build_diagram("E", 6)
    with pytest.raises(LengthCapError):
        enumerate_paths(d, 9)
    assert PathSpace(d, 9, origin=0, cap=9).dim > 0


def test_kernel_dims_match_recurrence():
    # the svd kernel of the annihilators reproduces every matrix row
    d = build_diagram("E", 6)
    ess = essential_matrices("E6")
    for p in range(0, 7):
        dims = essential_dims(PathSpace(d, p))
        for a in range(6):
            assert np.array_equal(dims[a], ess.e[a, p]), (a, p)


def test_kernel_dims_a5():
    d = build_diagram("A", 5)
    ess = essential_matrices("A5")
    for p in range(0, 5):
        dims = essential_dims(PathSpace(d, p))
        for a in range(5):
            assert np.array_equal(dims[a], ess.e[a, p]), (a, p)


def test_temperley_lieb_relations():
    d = build_diagram("E", 6)
    beta = graph_norm(d)
    for p in range(2, 9):
        space = PathSpace(d, p, origin=0, cap=max(8, p))
        proj = [jones_projector(space, k).matrix for k in range(1, p)]
        for i, e in enumerate(proj):
            assert np.allclose(e @ e, e, atol=1e-9), (p, i + 1)
            for j, f in enumerate(proj):
                if abs(i - j) == 1:
                    assert np.allclose(e @ f @ e, e / beta ** 2, atol=1e-9)
                elif abs(i - j) >= 2:
                    assert np.allclose(e @ f, f @ e, atol=1e-9)


def test_explicit_length4_essential_vector():
    d = build_diagram("E", 6)
    space = PathSpace(d, 4, origin=0)
    q2 = q_number(2, 12)
    q3 = q_number(3, 12)
    vec = np.zeros(space.dim)
    first, second = E6_ESS4_PATHS
    vec[space.index[first]] = np.sqrt(q2)
    vec[space.index[second]] = -np.sqrt(q3 / q2)
    for k in range(1, 4):
        out = annihilation_operator(space, k).matrix @ vec
        assert np.max(np.abs(out)) < 1e-9, k


def test_creation_is_adjoint_of_annihilation():
    # byte for byte against the insertion walk, for every k up to p + 1,
    # where the backtrack goes after the last vertex
    cases = [("E", 6, 4, 0)] + [("D", 6, 5, a) for a in range(6)]
    for fam, rank, p, origin in cases:
        space = PathSpace(build_diagram(fam, rank), p, origin)
        for k in range(1, p + 2):
            cre = creation_operator(space, k)
            want = creation_by_insertion(space, k)
            ann = annihilation_operator(cre.target, k).matrix
            for m in (cre.matrix, ann.T):
                assert m.shape == want.shape, (fam, rank, origin, k)
                assert m.tobytes() == want.tobytes(), (fam, rank, origin, k)


def test_jones_projector_factorization():
    d = build_diagram("A", 7)
    space = PathSpace(d, 3, origin=0)
    e1 = jones_projector(space, 1).matrix
    ann = annihilation_operator(space, 1)
    cre = creation_operator(ann.target, 1)
    assert np.allclose(e1, cre.matrix @ ann.matrix / graph_norm(d), atol=1e-12)


def test_essential_subspace_blocks():
    d = build_diagram("E", 6)
    space = PathSpace(d, 4, origin=0)
    ess = essential_matrices("E6")
    bases = essential_subspace(space)
    for (a, b), basis in bases.items():
        assert a == 0
        assert basis.shape[0] == ess.e[a, 4, b], (a, b)
        gram = basis @ basis.T
        assert np.allclose(gram, np.eye(basis.shape[0]), atol=1e-9)


def test_operator_bad_index():
    d = build_diagram("E", 6)
    space = PathSpace(d, 3, origin=0)
    with pytest.raises(ValueError):
        annihilation_operator(space, 3)
    with pytest.raises(ValueError):
        annihilation_operator(space, 0)


def test_dims_match_subspace_rows():
    # the singular-values-only dims agree with the full-SVD bases
    cases = ([("E", 6, p, None) for p in range(9)]
             + [("D", 6, p, None) for p in range(8)]
             + [("A", 11, p, None) for p in range(7)]
             + [("E", 8, p, None) for p in range(7)] + [("E", 6, 9, 0)])
    for fam, rank, p, origin in cases:
        space = PathSpace(build_diagram(fam, rank), p, origin=origin,
                          cap=max(p, 8))
        want = np.zeros((rank, rank), dtype=np.int64)
        for (a, b), basis in essential_subspace(space).items():
            want[a, b] = basis.shape[0]
        assert np.array_equal(essential_dims(space), want), (fam, rank, p)


def test_subspace_is_annihilated_by_each_operator():
    # the stacked block constraints agree with annihilation_operator
    for fam, rank, p in (("E", 6, 6), ("D", 6, 5)):
        space = PathSpace(build_diagram(fam, rank), p)
        anns = [annihilation_operator(space, k).matrix for k in range(1, p)]
        for (a, b), basis in essential_subspace(space).items():
            cols = [space.index[q] for q in space.paths
                    if q[0] == a and q[-1] == b]
            for k, ann in enumerate(anns, 1):
                out = ann[:, cols] @ basis.T
                assert np.max(np.abs(out), initial=0) < 1e-9, (a, b, k)


def _e6_window():
    d = build_diagram("E", 6)
    return [PathSpace(d, p, cap=p) for p in range(7, 12)]


def test_kernel_dims_full_coxeter_window():
    # rows 7..10 of the recurrence, then the vanishing row at p = N-1 = 11
    ess = essential_matrices("E6")
    for space in _e6_window():
        dims = essential_dims(space)
        p = space.length
        if p < ess.nrows:
            assert np.array_equal(dims, ess.e[:, p]), p
        else:
            assert not dims.any(), p


def test_rank_margin_full_coxeter_window():
    # tol = 1e-9 sits deep inside the singular-value gap, so the rank
    # cannot depend on whether U and V are formed
    assert 1e-12 < path_model._TOL < 1e-2
    for space in _e6_window():
        for ab, block, kmat in _constraint_blocks(space):
            sing = np.linalg.svd(kmat, compute_uv=False)
            kept = sing[sing > 1e-9]
            dropped = sing[sing <= 1e-9]
            assert kept.min() >= 1e-2, (space.length, ab)
            assert np.max(dropped, initial=0) <= 1e-12, (space.length, ab)


def _stacked_dims(space, tol=1e-9):
    # reference oracle: block size minus the rank of the block's stacked
    # constraint matrix K
    r = space.diagram.rank
    dims = np.zeros((r, r), dtype=np.int64)
    for ab, block, kmat in _constraint_blocks(space):
        rank = 0
        if kmat is not None:
            rank = int(np.sum(np.linalg.svd(kmat, compute_uv=False) > tol))
        dims[ab] = len(block) - rank
    return dims


# the whole E6 and D6 Coxeter windows, and E8 and A11 as far as the
# stacked-K reference runs in about a second each
_WINDOWS = ([("E", 6, p, None) for p in range(12)]
            + [("D", 6, p, None) for p in range(10)]
            + [("E", 8, p, None) for p in range(11)]
            + [("A", 11, p, None) for p in range(11)]
            + [("E", 6, p, 0) for p in range(10)])


def _window_spaces():
    for fam, rank, p, origin in _WINDOWS:
        yield PathSpace(build_diagram(fam, rank), p, origin=origin,
                        cap=max(p, 8))


def test_dims_match_stacked_constraint_rule():
    # the prefix-kernel steps give the same integers as the rank of K
    for space in _window_spaces():
        assert np.array_equal(essential_dims(space), _stacked_dims(space)), \
            space


def test_prefix_kernel_margin(monkeypatch):
    # every step's singular values sit far from tol = 1e-9 on both sides
    assert 1e-12 < path_model._TOL < 0.5
    seen = []
    svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        out = svd(*args, **kwargs)
        seen.append(out[1])
        return out

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for space in _window_spaces():
        path_model._kernel_chain.cache_clear()
        essential_dims(space)
    sing = np.concatenate(seen)
    assert len(seen) > 1000 and sing.size
    assert sing[sing > 1e-9].min() >= 0.5
    assert np.max(sing[sing <= 1e-9], initial=0) <= 1e-12


@pytest.mark.parametrize("p", [12, 13])
def test_kernel_dims_e8_past_the_stacked_window(p):
    # beyond the stacked-K rule's reach (about 27 s at p = 12); the
    # prefix kernels take well under a second
    space = PathSpace(build_diagram("E", 8), p, cap=p)
    ess = essential_matrices("E8")
    assert np.array_equal(essential_dims(space), ess.e[:, p])


def test_dims_fill_the_coxeter_window_from_every_origin():
    """essential_dims equals F_p, with F_0 = I, F_1 = G and F_{n+1} =
    G F_n - F_{n-1}, for p = 0 .. N-2 and every origin, and is zero at
    p = N-1, N the Coxeter number: on A2-A16, D4-D12 (odd D too, as the
    path model needs no fusion algebra), E6, E7 and E8 (p up to 29).
    essential_dims reads only the diagram, length and origin of its
    space, so a namespace stands in for a PathSpace and no path is
    enumerated."""
    graphs = ([("A", r) for r in range(2, 17)]
              + [("D", r) for r in range(4, 13)]
              + [("E", r) for r in (6, 7, 8)])
    for fam, rank in graphs:
        d = build_diagram(fam, rank)
        g = d.adjacency.astype(np.int64)
        f_prev, f = np.zeros_like(g), np.eye(rank, dtype=np.int64)
        for p in range(d.coxeter_number):
            dims = essential_dims(
                types.SimpleNamespace(diagram=d, length=p, origin=None))
            if p < d.coxeter_number - 1:
                assert np.array_equal(dims, f), (d.name, p)
            else:
                assert not dims.any(), (d.name, p)
            f_prev, f = f, g @ f - f_prev


def test_no_kept_array_counts_paths():
    # the level kept at (a, q, b) has one row per kernel vector at q-1 of
    # each e ~ b and one column per kernel vector at q; at q = 0 it is
    # [[1]] for b = a and empty otherwise
    for fam, rank, last in (("E", 8, 29), ("A", 20, 14), ("D", 7, 11)):
        d = build_diagram(fam, rank)
        essential_dims(types.SimpleNamespace(diagram=d, length=last,
                                             origin=None))
        levels = path_model._kernel_chain(d, 1e-9)[2]
        assert levels.keys() == set(range(rank))
        for a, chain in levels.items():
            assert len(chain) > last
            assert [m.shape for m in chain[0]] == [
                (1, 1) if b == a else (0, 0) for b in range(rank)]
            for q in range(1, len(chain)):
                dims = [m.shape[1] for m in chain[q - 1]]
                for b, m in enumerate(chain[q]):
                    rows = sum(dims[e] for e in d.neighbors(b))
                    assert m.shape == (rows, m.shape[1]), (d.name, a, q, b)


def test_subspace_bases_match_full_svd():
    # dropping U (full_matrices only when K is wide) leaves vh bit for bit
    for fam, rank, lengths in (("E", 6, range(6, 10)), ("E", 8, range(6, 9))):
        d = build_diagram(fam, rank)
        for p in lengths:
            space = PathSpace(d, p, cap=max(p, 8))
            bases = essential_subspace(space)
            for ab, block, kmat in _constraint_blocks(space):
                if kmat is None:
                    continue
                _, sing, vh = np.linalg.svd(kmat)
                want = vh[int(np.sum(sing > 1e-9)):]
                assert bases[ab].shape == want.shape, (fam, p, ab)
                assert bases[ab].tobytes() == want.tobytes(), (fam, p, ab)


def _origins(space):
    return range(space.diagram.rank) if space.origin is None else (
        space.origin,)


def _levels(space, tol):
    # the kept level of every (origin, end) at space.length, the chain
    # grown through essential_dims
    essential_dims(space, tol)
    levels = path_model._kernel_chain(space.diagram, tol)[2]
    return {(a, b): level for a in _origins(space)
            for b, level in enumerate(levels[a][space.length])}


def _block_diag(blocks):
    out = np.zeros((sum(m.shape[0] for m in blocks),
                    sum(m.shape[1] for m in blocks)))
    i = j = 0
    for m in blocks:
        out[i:i + m.shape[0], j:j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    return out


def _path_bases(space, tol):
    # the kept levels lifted to orthonormal kernel bases in path
    # coordinates, one per nonempty block: B_q(a, b) is the block diagonal
    # of B_{q-1}(a, c) over c ~ b times the level at (a, q, b), from
    # B_0(a, a) = [[1]].  The rows follow the block's paths in
    # lexicographic order of the reversed path
    d = space.diagram
    essential_dims(space, tol)
    levels = path_model._kernel_chain(d, tol)[2]
    out = {}
    for a in _origins(space):
        bases = levels[a][0]
        for level in levels[a][1:space.length + 1]:
            bases = [_block_diag([bases[c] for c in d.neighbors(b)]) @ m
                     for b, m in enumerate(level)]
        out.update(((a, b), basis) for b, basis in enumerate(bases)
                   if basis.shape[0])
    return out


def test_prefix_kernels_span_the_stacked_kernels():
    # the same subspace, not only the same dimension: the orthogonal
    # projectors agree once the rows are put in lexicographic path order
    for fam, rank, lengths in (("E", 6, range(10)), ("D", 6, range(9)),
                               ("A", 7, range(8))):
        d = build_diagram(fam, rank)
        for p in lengths:
            space = PathSpace(d, p, cap=max(p, 8))
            prefix = _path_bases(space, 1e-9)
            blocks = _blocks(space)
            stacked = essential_subspace(space)
            assert prefix.keys() == stacked.keys(), (fam, p)
            for ab, basis in stacked.items():
                block = blocks[ab]
                order = sorted(range(len(block)), key=lambda i: block[i][::-1])
                mine = np.zeros_like(prefix[ab])
                mine[order] = prefix[ab]
                assert np.allclose(mine @ mine.T, basis.T @ basis,
                                   atol=1e-9), (fam, p, ab)


def _row_slice_kernel_step(prev2, prev, nbrs, weight, tol):
    # reference rule: M as a weighted sum of full-width row slices of the
    # block diagonal of the prev[c], c ~ b, each offset summed anew
    out = []
    for b, cs in enumerate(nbrs):
        ext = _block_diag([prev[c] for c in cs])
        m = np.zeros((prev2[b].shape[1], ext.shape[1]))
        i = 0
        for c in cs:
            off = i + sum(prev2[e].shape[1] for e in nbrs[c] if e < b)
            m += weight[b][c] * ext[off:off + len(m)]
            i += prev[c].shape[0]
        if m.size:
            _, sing, vh = np.linalg.svd(m, full_matrices=len(m) < m.shape[1])
            out.append(vh[int(np.sum(sing > tol)):].T)
        else:
            out.append(np.eye(m.shape[1]))
    return out


def test_prefix_kernels_match_row_slice_rule(monkeypatch):
    # column blocks of M hold the same products as the row-slice sum,
    # so every level is equal bit for bit, zero signs included
    windows = (("E", 6, 11), ("D", 6, 9), ("E", 8, 10))
    spaces = [PathSpace(build_diagram(fam, rank), p, cap=max(p, 8))
              for fam, rank, last in windows for p in range(last + 1)]
    path_model._kernel_chain.cache_clear()
    got = [_levels(space, 1e-9) for space in spaces]
    monkeypatch.setattr(path_model, "_kernel_step", _row_slice_kernel_step)
    path_model._kernel_chain.cache_clear()
    for space, mine in zip(spaces, got):
        want = _levels(space, 1e-9)
        assert mine.keys() == want.keys(), space
        for ab, basis in want.items():
            assert np.array_equal(mine[ab], basis), (space, ab)
            assert mine[ab].shape == basis.shape, (space, ab)
            assert mine[ab].tobytes() == basis.tobytes(), (space, ab)


@pytest.mark.parametrize("tol", [1e-9, 0.3, 0.9])
@pytest.mark.parametrize("fam, rank, last", [
    ("E", 6, 11), ("D", 6, 9), ("E", 8, 13), ("A", 11, 10), ("D", 10, 12)])
def test_kernel_chain_matches_the_slice_oracle(monkeypatch, fam, rank, last,
                                               tol):
    # every level of each origin's chain, bit for bit, whether the origins
    # grow together or one at a time; tol 0.3 and 0.9 cut real ranks, so
    # more blocks have no kernel column, and bipartite parity leaves
    # blocks with no row of M at every tol
    d = build_diagram(fam, rank)
    step = path_model._kernel_step

    def levels(kernel_step, origin):
        monkeypatch.setattr(path_model, "_kernel_step", kernel_step)
        path_model._kernel_chain.cache_clear()
        essential_dims(PathSpace(d, last, origin, cap=last), tol)
        return path_model._kernel_chain(d, tol)[2]

    want = levels(kernel_step_by_slices, None)
    for origin in [None, *range(rank)]:
        got = levels(step, origin)
        assert got.keys() == (want.keys() if origin is None else {origin})
        for a, chain in got.items():
            assert len(chain) == len(want[a]) == last + 1, (origin, a)
            for q, (mine, ref) in enumerate(zip(chain, want[a])):
                for b, (x, y) in enumerate(zip(mine, ref)):
                    assert x.shape == y.shape, (origin, a, q, b)
                    assert x.tobytes() == y.tobytes(), (origin, a, q, b)


def _lex_rows(space, prefix):
    # each lifted basis in the space's own path coordinates: rows
    # come in lexicographic order of the reversed path, put them back
    blocks = _blocks(space)
    out = {}
    for ab, basis in prefix.items():
        block = blocks[ab]
        order = sorted(range(len(block)), key=lambda i: block[i][::-1])
        full = np.zeros((space.dim, basis.shape[1]))
        full[[space.index[block[i]] for i in order]] = basis
        out[ab] = full
    return out


@pytest.mark.parametrize("fam, rank, last", [("E", 6, 11), ("D", 6, 9),
                                             ("E", 8, 13)])
@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_kernel_chain_matches_a_fresh_chain(fam, rank, last, order):
    # the kept levels grow in any order of requests and give the same
    # bits as a chain built from nothing for each request
    d = build_diagram(fam, rank)
    asks = [(p, origin) for p in range(last, -1, -1)
            for origin in [None] + list(range(rank))]
    if order == "shuffled":
        np.random.default_rng(13).shuffle(asks)
    path_model._kernel_chain.cache_clear()
    got = [_levels(PathSpace(d, p, origin, cap=max(p, 8)), 1e-9)
           for p, origin in asks]
    for (p, origin), mine in zip(asks, got):
        path_model._kernel_chain.cache_clear()
        want = _levels(PathSpace(d, p, origin, cap=max(p, 8)), 1e-9)
        assert mine.keys() == want.keys(), (p, origin)
        for ab, basis in want.items():
            assert mine[ab].shape == basis.shape, (p, origin, ab)
            assert mine[ab].tobytes() == basis.tobytes(), (p, origin, ab)


def test_kept_bases_are_read_only():
    d = build_diagram("E", 6)
    for p in (0, 1, 5):
        for ab, basis in _levels(PathSpace(d, p), 1e-9).items():
            assert not basis.flags.writeable, (p, ab)
            if basis.size:
                with pytest.raises(ValueError):
                    basis[0, 0] = 1.0
    _, _, levels = path_model._kernel_chain(d, 1e-9)
    for chain in levels.values():
        for level in chain:
            assert not any(basis.flags.writeable for basis in level)


def test_path_window_runs_each_kernel_step_once(monkeypatch):
    # E6 p <= 11, D6 p <= 9, E8 p <= 10: 11 + 9 + 10 steps per origin,
    # and one perron_frobenius per diagram
    steps, pfs = [], []
    step, pf = path_model._kernel_step, path_model.perron_frobenius

    def counting_step(*args):
        steps.append(len(args[1]))
        return step(*args)

    def counting_pf(d, *args):
        pfs.append(d.name)
        return pf(d, *args)

    monkeypatch.setattr(path_model, "_kernel_step", counting_step)
    monkeypatch.setattr(path_model, "perron_frobenius", counting_pf)
    path_model._weights.cache_clear()
    path_model._kernel_chain.cache_clear()
    windows = (("E", 6, 11), ("D", 6, 9), ("E", 8, 10))
    asks = [(fam, rank, p) for fam, rank, last in windows
            for p in range(last + 1)]
    np.random.default_rng(5).shuffle(asks)
    for fam, rank, p in asks:
        essential_dims(PathSpace(build_diagram(fam, rank), p, cap=max(p, 8)))
    assert steps.count(6) == 6 * (11 + 9)
    assert steps.count(8) == 8 * 10
    assert len(steps) == 6 * (11 + 9) + 8 * 10
    assert sorted(pfs) == ["D6", "E6", "E8"]
    # asking again runs nothing
    for fam, rank, p in asks:
        essential_dims(PathSpace(build_diagram(fam, rank), p, cap=max(p, 8)))
    assert len(steps) == 6 * (11 + 9) + 8 * 10 and len(pfs) == 3


@pytest.mark.parametrize("fam, rank, last", [("E", 6, 8), ("D", 6, 7),
                                             ("A", 7, 7)])
def test_annihilators_kill_the_prefix_kernels(fam, rank, last):
    # a basis property, not only a dimension: a wrong contraction weight
    # leaves every dim equal to the recurrence but fails here
    d = build_diagram(fam, rank)
    for p in range(2, last + 1):
        space = PathSpace(d, p, cap=max(p, 8))
        bases = _lex_rows(space, _path_bases(space, 1e-9))
        for k in range(1, p):
            ck = annihilation_operator(space, k).matrix
            for ab, basis in bases.items():
                assert np.abs(ck @ basis).max(initial=0) <= 1e-12, (p, k, ab)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_library_tol_must_be_finite_and_positive(tol):
    space = PathSpace(build_diagram("E", 6), 4)
    before = path_model._kernel_chain.cache_info().currsize
    with pytest.raises(ValueError, match="finite number above 0"):
        essential_dims(space, tol)
    assert path_model._kernel_chain.cache_info().currsize == before


def test_threads_growing_one_chain_get_the_same_bits():
    # two threads must never append the same level to one chain
    d = build_diagram("E", 8)
    lengths = list(range(13, -1, -1)) * 2
    want = {}
    for p in lengths:
        path_model._kernel_chain.cache_clear()
        want[p] = _levels(PathSpace(d, p, cap=13), 1e-9)
    path_model._kernel_chain.cache_clear()
    got = [None] * len(lengths)

    def ask(i):
        got[i] = _levels(PathSpace(d, lengths[i], cap=13), 1e-9)

    threads = [threading.Thread(target=ask, args=(i,))
               for i in range(len(lengths))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for p, mine in zip(lengths, got):
        assert mine.keys() == want[p].keys(), p
        for ab, basis in want[p].items():
            assert mine[ab].tobytes() == basis.tobytes(), (p, ab)

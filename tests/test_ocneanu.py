import numpy as np
import pytest

from adefusion import (
    NoPositiveHypergroupError,
    NotDefinedError,
    StructuralError,
    cayley_graph,
    multiply_qs,
    normal_form,
    quantum_symmetry_algebra,
    s_matrices,
    toric_matrices,
)
from adefusion import ocneanu
from adefusion.fusion import fusion_matrices
from adefusion.ocneanu import QuantumSymmetries, cayley_dot, element_dims
from adefusion.golden import (
    A11_QS_DIM,
    E6_AMBI_POSITIONS,
    E6_QS_CLASS_A,
    E6_QS_CLASS_C,
    E6_QS_CLASS_L,
    E6_QS_CLASS_R,
    E6_QS_DIM,
    E6_QS_DSQ,
    E6_QS_DVEC,
    E6_QS_EQUAL_PAIRS,
    E6_QS_PRODUCTS,
    E6_QS_SUM_IDENTITIES,
    E6_S51,
    E8_QS_DIM,
)

from _oracles import SparseRREF, _element_index, _pos, solve_many


def test_dimension_and_names():
    qs = quantum_symmetry_algebra("E6")
    assert qs.dim == E6_QS_DIM
    assert qs.element_names == (
        "0⊗0", "0⊗1", "0⊗2", "0⊗5", "0⊗4", "0⊗3",
        "1⊗0", "1⊗1", "1⊗2", "1⊗5", "1⊗4", "1⊗3")
    assert qs.ambichiral == E6_AMBI_POSITIONS
    assert len(qs.canonical) == 12


def test_equal_pairs():
    qs = quantum_symmetry_algebra("E6")
    d = qs.diagram
    for p1, p2 in E6_QS_EQUAL_PAIRS:
        v1 = normal_form(qs, _pos(d, p1[0]), _pos(d, p1[1]))
        v2 = normal_form(qs, _pos(d, p2[0]), _pos(d, p2[1]))
        assert np.array_equal(v1, v2), (p1, p2)


def test_sum_identities():
    qs = quantum_symmetry_algebra("E6")
    d = qs.diagram
    for pair, parts in E6_QS_SUM_IDENTITIES.items():
        got = normal_form(qs, _pos(d, pair[0]), _pos(d, pair[1]))
        want = np.zeros(qs.dim, dtype=np.int64)
        for la, lb in parts:
            want[_element_index(qs, la, lb)] += 1
        assert np.array_equal(got, want), pair


def test_products():
    qs = quantum_symmetry_algebra("E6")
    for (x_pair, y_pair), parts in E6_QS_PRODUCTS.items():
        x = _element_index(qs, *x_pair)
        y = _element_index(qs, *y_pair)
        got = multiply_qs(qs, x, y)
        want = np.zeros(qs.dim, dtype=np.int64)
        for la, lb in parts:
            want[_element_index(qs, la, lb)] += 1
        assert np.array_equal(got, want), (x_pair, y_pair)


def test_partition_classes():
    qs = quantum_symmetry_algebra("E6")
    classes = {"A": E6_QS_CLASS_A, "L": E6_QS_CLASS_L,
               "R": E6_QS_CLASS_R, "C": E6_QS_CLASS_C}
    assert set(qs.partition) == set(classes)
    for key, reps in classes.items():
        want = sorted(_element_index(qs, la, lb) for la, lb in reps)
        assert sorted(qs.partition[key]) == want, key


def test_partition_is_read_only():
    qs = quantum_symmetry_algebra("E6")
    with pytest.raises(TypeError):
        qs.partition["A"] = ()
    with pytest.raises(TypeError):
        qs.partition.update(A=())
    assert quantum_symmetry_algebra("E6").partition["A"] == (0, 4, 5)


def test_generators():
    qs = quantum_symmetry_algebra("E6")
    assert qs.element_names[qs.generator_left] == "1⊗0"
    assert qs.element_names[qs.generator_right] == "0⊗1"


def test_s_matrix_of_5x1():
    qs = quantum_symmetry_algebra("E6")
    idx = _element_index(qs, 5, 1)
    assert np.array_equal(s_matrices(qs)[idx], np.array(E6_S51))


def test_element_dims():
    qs = quantum_symmetry_algebra("E6")
    dims = element_dims(qs)
    for (la, lb), want in E6_QS_DVEC.items():
        assert dims[_element_index(qs, la, lb)] == want, (la, lb)
    assert (dims ** 2).sum() == E6_QS_DSQ


def test_unit_element():
    qs = quantum_symmetry_algebra("E6")
    unit = _element_index(qs, 0, 0)
    for y in range(qs.dim):
        prod = multiply_qs(qs, unit, y)
        want = np.zeros(qs.dim, dtype=np.int64)
        want[y] = 1
        assert np.array_equal(prod, want), y


def test_cayley_solid_restricted_to_left_column():
    # left multiplication by the generator, restricted to the a(x)0
    # elements, draws the diagram itself
    qs = quantum_symmetry_algebra("E6")
    d = qs.diagram
    solid, dashed = qs.generator_matrices()
    col = [_element_index(qs, int(d.vertex_labels[p]), 0) for p in range(6)]
    sub = solid[np.ix_(col, col)]
    assert np.array_equal(sub, d.adjacency)
    assert not np.array_equal(dashed[np.ix_(col, col)], d.adjacency)


def test_cayley_outputs():
    qs = quantum_symmetry_algebra("E6")
    g = cayley_graph(qs)
    assert g["nodes"] == list(qs.element_names)
    assert all(w >= 1 for _, _, w in g["solid"])
    assert all(w >= 1 for _, _, w in g["dashed"])
    text = cayley_dot(qs)
    assert text.startswith("graph cayley {")
    assert text.rstrip().endswith("}")
    assert 'n11 [label="1⊗3"];' in text


def test_a11_dimension_and_merged_generators():
    qs = quantum_symmetry_algebra("A11")
    assert qs.dim == A11_QS_DIM
    assert qs.generator_left == qs.generator_right


def test_e8_dimension():
    assert quantum_symmetry_algebra("E8").dim == E8_QS_DIM


def test_undefined_graphs():
    with pytest.raises(NotDefinedError):
        quantum_symmetry_algebra("D4")
    with pytest.raises(NoPositiveHypergroupError):
        quantum_symmetry_algebra("E7")


# golden-free certificates: identities that hold on every graph with
# quantum symmetries, with Z the toric matrix of 0(x)0, the modular invariant
_CERTIFIED = ["A%d" % n for n in range(2, 31)] + ["E6"]
_E8_ITEM_1 = pytest.param("E8", marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: E8's canonical basis holds sums "
    "of simple objects, so |A| + |L| = 7 and generator_matrices() raises"))


@pytest.mark.parametrize("graph", _CERTIFIED + ["E8"])
def test_dimension_is_the_sum_of_squares_of_the_invariant(graph):
    qs = quantum_symmetry_algebra(graph)
    z = toric_matrices(graph)[qs.element(0, 0)]
    assert qs.dim == int((z * z).sum())
    assert int(np.trace(z)) == qs.algebra.rank


@pytest.mark.parametrize("graph", _CERTIFIED + [_E8_ITEM_1])
def test_chiral_classes_fill_the_rank(graph):
    qs = quantum_symmetry_algebra(graph)
    size = {k: len(v) for k, v in qs.partition.items()}
    assert size["A"] == len(qs.ambichiral)
    assert size["A"] + size["L"] == qs.algebra.rank
    assert size["A"] + size["R"] == qs.algebra.rank


def _chebyshev(x, k):
    """U_0(x) .. U_k(x), stacked: U_0 = 1, U_1 = x and
    U_{i+1} = x.U_i - U_{i-1}."""
    u = [np.eye(len(x), dtype=np.int64), x]
    while len(u) <= k:
        u.append(x @ u[-1] - u[-2])
    return np.stack(u[:k + 1])


@pytest.mark.parametrize("graph", _CERTIFIED + [_E8_ITEM_1])
def test_toric_matrices_from_the_chiral_generators(graph):
    # the A_{N-1} x A_{N-1} nimrep on the Ocneanu algebra: V_ij =
    # U_i(L).U_j(R) for the generator matrices L and R, and W_x[i, j] =
    # V_ij[0(x)0, x] for i, j = 0 .. N-2
    qs = quantum_symmetry_algebra(graph)
    level = qs.diagram.coxeter_number
    left, right = qs.generator_matrices()
    assert np.array_equal(left @ right, right @ left)
    ul, ur = _chebyshev(left, level - 1), _chebyshev(right, level - 1)
    assert not ul[-1].any() and not ur[-1].any()
    v = np.einsum("ixy,jyz->ijxz", ul[:-1], ur[:-1])
    assert (v >= 0).all()
    w = np.moveaxis(v[:, :, qs.element(0, 0)], -1, 0)
    assert np.array_equal(w, toric_matrices(graph))


@pytest.mark.parametrize("graph", _CERTIFIED + [pytest.param(
    "E8", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: "
                                  "four of E8's toric matrices belong to "
                                  "sums of simple objects"))])
def test_modular_splitting_of_the_toric_matrices(graph):
    # Ocneanu's identity sum_x W_x[i, j] W_x[k, l] = sum_{m, n} N_ik^m
    # N_jl^n Z_mn, N the fusion coefficients of A_{N-1}, exact in int64;
    # the left side is W^T.W over the flattened toric matrices
    qs = quantum_symmetry_algebra(graph)
    w = np.array(toric_matrices(graph), dtype=np.int64)
    z = w[qs.element(0, 0)]
    k = len(z)
    flat = w.reshape(len(w), k * k)
    left = (flat.T @ flat).reshape(k, k, k, k).transpose(0, 2, 1, 3)
    n = fusion_matrices("A%d" % k).n.reshape(k * k, k)      # rows (i, k)
    assert np.array_equal(left, (n @ z @ n.T).reshape(k, k, k, k))


def _two_stage_basis(qs):
    """The plain definition of A (x)_J A as a reference: the relations
    (a.x)(x)b = a(x)(x.b) for every x in J, each pair's residue, a greedy
    echelon of residues for the basis, then one exact solve of the
    canonical-residue block for every normal form."""
    r = qs.algebra.rank
    cons = qs.algebra.n
    rel = SparseRREF(r * r)
    for x in qs.ambichiral:
        for a in range(r):
            for b in range(r):
                vec = {}
                for c in range(r):
                    vec[c * r + b] = vec.get(c * r + b, 0) + int(cons[a, x, c])
                    vec[a * r + c] = vec.get(a * r + c, 0) - int(cons[x, b, c])
                rel.insert(vec)
    residues = [rel.residue({p: 1}) for p in range(r * r)]
    accepted = SparseRREF(r * r)
    canonical = [p for p in range(r * r) if accepted.insert(residues[p])]
    free = [c for c in range(r * r) if c not in rel.rows]
    block = [[residues[p].get(f, 0) for p in canonical] for f in free]
    rhs = [[rho.get(f, 0) for f in free] for rho in residues]
    sols, nullity = solve_many(block, rhs)
    assert nullity == 0 and all(sol is not None for sol in sols)
    assert all(c.denominator == 1 for sol in sols for c in sol)
    nf = np.array([[int(c) for c in sol] for sol in sols], dtype=np.int64)
    return tuple(divmod(p, r) for p in canonical), nf.reshape(r, r, -1)


@pytest.mark.parametrize("graph", ["E6", "E8", "A11", "A16"]
                         + ["A%d" % n for n in range(1, 11)])
def test_basis_and_normal_forms_match_two_stage_construction(graph):
    qs = quantum_symmetry_algebra(graph)
    canonical, nf = _two_stage_basis(qs)
    assert qs.canonical == canonical
    assert np.array_equal(qs.nf, nf)


@pytest.mark.parametrize("subset, message", [
    ((0, 1), "inner products of 1\\(x\\)b are not sums of simple objects"),
    ((0, 4), "16 orthogonal pairs of norm 1, expected 18"),
], ids=["gram", "count"])
def test_refuses_a_subset_that_is_not_ambichiral(monkeypatch, subset,
                                                 message):
    # (0, 1) gives 18 orthogonal simple objects that do not factor the
    # Gram matrix; (0, 4) gives too few of them
    monkeypatch.setattr(ocneanu, "ambichiral_subalgebra",
                        lambda algebra: subset)
    with pytest.raises(StructuralError, match=message):
        QuantumSymmetries(fusion_matrices("E6"))


def test_refuses_normal_forms_that_do_not_verify(monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 0.75)
    with pytest.raises(StructuralError,
                       match="normal forms do not verify exactly"):
        QuantumSymmetries(fusion_matrices("E6"))


def test_refuses_chiral_spans_that_meet_outside_the_ambichiral_span(
        monkeypatch):
    # E6's C, kept as the constructor hands it over, with one left chiral
    # row moved onto a simple object that only the right chiral rows use
    check, seen = QuantumSymmetries._check_chiral_intersection, []
    monkeypatch.setattr(QuantumSymmetries, "_check_chiral_intersection",
                        lambda qs, c: seen.append(c) or check(qs, c))
    qs = QuantumSymmetries(fusion_matrices("E6"))
    (c,) = seen
    r = qs.algebra.rank
    left, right = c[::r].argmax(axis=1), c[:r].argmax(axis=1)
    a = next(a for a in range(r) if left[a] not in right)
    t = next(t for t in right if t not in left)
    c = c.copy()
    c[a * r] = 0
    c[a * r, t] = 1
    with pytest.raises(StructuralError, match="chiral subalgebras meet in "
                       "dimension 4, expected 3"):
        check(qs, c)


def test_element_lookup():
    qs = quantum_symmetry_algebra("E6")
    d = qs.diagram
    composite = {(2, 2), (2, 3), (3, 2), (3, 3)}
    for la in map(int, d.vertex_labels):
        for lb in map(int, d.vertex_labels):
            got = qs.element(_pos(d, la), _pos(d, lb))
            if (la, lb) in composite:
                assert got is None, (la, lb)
            else:
                assert got == _element_index(qs, la, lb), (la, lb)
    for graph in ("E6", "E8", "A11"):
        qs = quantum_symmetry_algebra(graph)
        for a, b in ((0, 0), (1, 0), (0, 1)):
            assert qs.element(a, b) is not None, (graph, a, b)

import math

import numpy as np
import pytest
import scipy.sparse as sp

from febe import fem, material as mat
from febe.mesh import Mesh, load_mesh, refine_uniform
from febe.quadrature import QuadratureRule, segment_gauss

from conftest import (boundary_trace_l1, einsum_gradients, jittered_square, norms,
                      random_graded_square, square_mesh_text, vertex_values)


def ref_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]),
                np.array([[0, 1], [1, 2], [2, 0]]), ["T", "T", "T"])


def exact_moment(a, b):
    # int over reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("order", [1, 2, 4, 5, 6])
def test_quadrature_exactness(order):
    rule = QuadratureRule(order)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            x = rule.bary[:, 1]
            y = rule.bary[:, 2]
            got = 0.5 * np.sum(rule.weights * x ** a * y ** b)
            assert got == pytest.approx(exact_moment(a, b), rel=1e-12, abs=1e-15)


def test_segment_gauss_shared_and_read_only():
    x, w = segment_gauss(5)
    assert segment_gauss(5)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert abs(w.sum() - 1.0) <= 1e-15 and np.all((x > 0) & (x < 1))


def test_graded_gauss_cached_and_read_only():
    # every BEM assembly reads the same 104-point rule: one construction,
    # equal to a fresh one, shared and not writeable
    from febe.quadrature import graded_gauss
    x, w = graded_gauss(levels=12, order=8)
    fx, fw = graded_gauss.__wrapped__(levels=12, order=8)
    assert fx is not x and np.array_equal(x, fx) and np.array_equal(w, fw)
    assert len(x) == 104
    assert graded_gauss(levels=12, order=8)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("order", [1, 2, 4, 5, 6])
def test_quadrature_points_match_einsum_map(order):
    # reference: the einsum over the barycentric coordinates that the one
    # matmul replaced, on one triangle and on a stack of a mesh's triangles
    rule = QuadratureRule(order)
    m = random_graded_square(sweeps=2, seed=order)
    for verts in (m.vertices[m.triangles], m.vertices[m.triangles[0]]):
        ref = np.einsum("qk,...kd->...qd", rule.bary, verts)
        got = rule.points(verts)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("order", [0, 3, 7])
def test_quadrature_order_without_rule_rejected(order):
    # no silent switch to the next larger rule
    with pytest.raises(ValueError, match="orders: 1, 2, 4, 5, 6"):
        QuadratureRule(order)


def test_fespace_rejects_three_components(unit_square):
    with pytest.raises(ValueError, match="ncomp must be 1 or 2"):
        fem.FESpace(unit_square, 3)


def test_residual_zero_field(unit_square):
    space = fem.FESpace(unit_square, ncomp=2)
    law = mat.MaterialLaw(p=3.0, mode=mat.MODE_MATRIX)
    R = fem.assemble_residual(space, law, space.strains(np.zeros(space.ndof)))
    assert np.all(R == 0.0)


def test_residual_rigid_translation(unit_square):
    space = fem.FESpace(unit_square, ncomp=2)
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    u = np.tile([0.7, -0.3], len(unit_square.vertices))
    R = fem.assemble_residual(space, law, space.strains(u))
    assert np.linalg.norm(R) < 1e-14


def test_residual_constant_strain_single_triangle():
    m = ref_triangle()
    space = fem.FESpace(m, ncomp=2)
    law = mat.MaterialLaw(p=3.0, mode=mat.MODE_MATRIX)
    # u = (x, 0): strain = [[1,0],[0,0]], |strain| = 1 -> stress = strain
    u = np.zeros(space.ndof)
    u[2] = 1.0  # vertex 1, x-component: u_x = x
    eps = np.array([[1.0, 0.0], [0.0, 0.0]])
    sig = mat.stress(law, eps)
    R = fem.assemble_residual(space, law, space.strains(u))
    g = space.grads[0]
    area = 0.5
    for k in range(3):
        for c in range(2):
            e = np.zeros(2); e[c] = 1
            beps = 0.5 * (np.outer(e, g[k]) + np.outer(g[k], e))
            assert R[2 * k + c] == pytest.approx(area * np.sum(sig * beps))


def _tangent_per_call(space, law, coeffs):
    """The tangent with the basis Gram array and the COO pattern rebuilt, as
    a COO matrix, whose toarray() sums the element entries in order."""
    eps = space.strains(coeffs)
    c1, c2 = mat.tangent_coeffs(law, eps)
    bs = space.basis_strains.reshape((len(eps), -1) + eps.shape[1:])
    if space.ncomp == 1:
        bb = np.einsum("tkd,tld->tkl", bs, bs)
        xb = np.einsum("td,tkd->tk", eps, bs)
    else:
        bb = np.einsum("tkij,tlij->tkl", bs, bs)
        xb = np.einsum("tij,tkij->tk", eps, bs)
    loc = (c1[:, None, None] * bb
           + c2[:, None, None] * xb[:, :, None] * xb[:, None, :])
    loc *= space.areas[:, None, None]
    dofs = space.local_dofs
    n = dofs.shape[1]
    rows = np.repeat(dofs, n, axis=1).ravel()
    cols = np.tile(dofs, (1, n)).ravel()
    return sp.coo_matrix((loc.ravel(), (rows, cols)),
                         shape=(space.ndof, space.ndof))


def test_tangent_directional_derivative(unit_square):
    m = refine_uniform(unit_square, 2)
    rng = np.random.default_rng(0)
    for ncomp, mode in ((2, mat.MODE_MATRIX), (1, mat.MODE_VECTOR)):
        space = fem.FESpace(m, ncomp=ncomp)
        law = mat.MaterialLaw(p=3.0, mode=mode)
        u = rng.normal(size=space.ndof)
        w = rng.normal(size=space.ndof)
        M = fem.assemble_tangent(space, law, u)
        errs = []
        for t in (1e-4, 1e-5, 1e-6):
            fd = (fem.assemble_residual(space, law, space.strains(u + t * w))
                  - fem.assemble_residual(space, law, space.strains(u - t * w)))
            fd /= 2 * t
            errs.append(np.linalg.norm(fd - M @ w))
        assert errs[-1] <= 1e-6 * max(1.0, np.linalg.norm(M @ w))
        # canonical CSC on the vertex graph times a full ncomp x ncomp block,
        # exact zeros stored; the cached per-mesh tables give the values
        # of the COO construction, and a second call reuses them
        assert M.format == "csc"
        assert sp.csc_matrix((M.data, M.indices, M.indptr),
                             shape=M.shape).has_canonical_format
        nv = len(m.vertices)
        a, b = m.edges.T
        graph = sp.coo_matrix((np.ones(nv + 2 * len(a)),
                               (np.concatenate([np.arange(nv), a, b]),
                                np.concatenate([np.arange(nv), b, a]))))
        block = sp.kron(graph, np.ones((ncomp, ncomp)), format="csc")
        block.sort_indices()
        assert np.array_equal(M.indptr, block.indptr)
        assert np.array_equal(M.indices, block.indices)
        indptr, indices, slot = space.tangent_pattern
        assert indptr.dtype == indices.dtype == block.indptr.dtype == np.int32
        assert slot.dtype == np.intp
        for sign in (1.0, -1.0):
            M = fem.assemble_tangent(space, law, sign * u)
            assert np.array_equal(M.toarray(),
                                  _tangent_per_call(space, law, sign * u).toarray())


_TABLES = ("areas", "grads", "grad_operator", "basis_strains", "basis_gram",
           "local_dofs", "tangent_pattern", "dissection_pattern")


def _table_arrays(space, name):
    value = getattr(space, name)
    if sp.issparse(value):
        return value.data, value.indices, value.indptr
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_spaces_on_one_mesh_share_their_tables(monkeypatch, unit_square, ncomp):
    # every space on a mesh with one ncomp reads the same array objects,
    # built once on first use: one csc_structure sort for tangent_pattern
    # and one for dissection_pattern, however many spaces read them
    sorts = []
    csc_structure = fem.csc_structure
    monkeypatch.setattr(fem, "csc_structure",
                        lambda *args: sorts.append(args) or csc_structure(*args))
    m = refine_uniform(unit_square, 2)
    a, b = fem.FESpace(m, ncomp), fem.FESpace(m, ncomp)
    for name in _TABLES:
        first = _table_arrays(a, name)
        for space in (a, b, fem.FESpace(m, ncomp)):
            again = _table_arrays(space, name)
            assert len(again) == len(first)
            assert all(x is y for x, y in zip(again, first))
    assert len(sorts) == 2
    assert fem.FESpace(m, 3 - ncomp).local_dofs.shape[1] == 3 * (3 - ncomp)


def test_scalar_and_vector_spaces_share_areas_and_grads(monkeypatch, unit_square):
    # the areas and gradients do not depend on ncomp: a scalar and a vector
    # space on one mesh read the same arrays, the areas are the ones the
    # mesh computed when it checked its triangles, and the areas are
    # computed once per mesh, however many spaces read them
    from febe import mesh as meshmod
    fine = refine_uniform(unit_square, 2)
    calls = []
    areas = meshmod.triangle_areas
    monkeypatch.setattr(meshmod, "triangle_areas", lambda m: calls.append(m) or areas(m))
    m = Mesh(fine.vertices, fine.triangles, fine.boundary_edges, fine.boundary_labels)
    assert calls == [m]
    calls.clear()
    scalar, vector = fem.FESpace(m, 1), fem.FESpace(m, 2)
    assert scalar.areas is vector.areas is m.areas
    assert scalar.grads is vector.grads
    assert scalar.grad_operator is vector.grad_operator
    assert np.array_equal(m.areas, areas(m))
    assert vector.basis_strains.shape[1] == 6 and scalar.basis_strains is scalar.grads
    assert calls == []


@pytest.mark.parametrize("ncomp", [1, 2])
def test_shared_tables_are_read_only(unit_square, ncomp):
    space = fem.FESpace(refine_uniform(unit_square, 1), ncomp)
    for name in _TABLES:
        for x in _table_arrays(space, name):
            assert isinstance(x, np.ndarray) and not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x.flat[0] = x.flat[0]


@pytest.mark.parametrize("n, nnz", [(1, 3), (7, 0), (7, 40), (60, 500), (300, 200)])
def test_csc_structure_matches_scipy(n, nnz):
    # duplicates and empty columns: the structure of scipy's COO -> CSC
    # conversion, and the slots sum each entry's weight into its place
    rng = np.random.default_rng(n + nnz)
    rows, cols = rng.integers(0, n, size=(2, nnz))
    w = rng.integers(-5, 6, size=nnz)
    indptr, indices, slot = fem.csc_structure(rows, cols, n)
    ref = sp.coo_matrix((w, (rows, cols)), shape=(n, n)).tocsc()
    ref.sort_indices()
    assert indptr.dtype == indices.dtype == ref.indptr.dtype == ref.indices.dtype
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert slot.dtype == np.intp and slot.shape == (nnz,)
    assert np.array_equal(np.bincount(slot, w, minlength=len(indices)), ref.data)
    A = sp.csc_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    assert A.has_canonical_format


def test_csc_structure_int64_keys_int32_indices():
    # n (n + 1) > 2^31 - 1: the keys col * n + row need int64, the indices not
    n = 50000
    assert n * (n + 1) > np.iinfo(np.int32).max
    rows = np.array([n - 1, 0, n - 1, 12345, n - 1, 0])
    cols = np.array([n - 1, n - 1, 0, 40000, n - 1, 0])
    indptr, indices, slot = fem.csc_structure(rows, cols, n)
    ref = sp.coo_matrix((np.arange(1, 7), (rows, cols)), shape=(n, n)).tocsc()
    ref.sort_indices()
    assert indptr.dtype == indices.dtype == np.int32
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert np.array_equal(indices, [0, n - 1, 12345, 0, n - 1])
    assert np.array_equal(slot, [4, 3, 1, 2, 4, 0])
    assert np.array_equal(np.bincount(slot, np.arange(1, 7)), ref.data)


def test_tangent_p2_independent_of_state(unit_square):
    space = fem.FESpace(unit_square, ncomp=2)
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    rng = np.random.default_rng(1)
    A = fem.assemble_tangent(space, law, rng.normal(size=space.ndof))
    B = fem.assemble_tangent(space, law, rng.normal(size=space.ndof))
    assert np.allclose(A.toarray(), B.toarray(), atol=1e-13)


def test_tangent_kernel_rigid_rotation(unit_square):
    space = fem.FESpace(unit_square, ncomp=2)
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    A = fem.assemble_tangent(space, law, np.zeros(space.ndof))
    rot = np.column_stack([-space.mesh.vertices[:, 1],
                           space.mesh.vertices[:, 0]]).ravel()
    assert np.linalg.norm(A @ rot) < 1e-12


def test_load_zero(unit_square):
    space = fem.FESpace(unit_square)
    L = fem.assemble_load(space, lambda x: np.zeros(len(x)))
    assert np.all(L == 0.0)


def test_load_partition_of_unity(unit_square):
    space = fem.FESpace(unit_square)
    c = 2.5
    L = fem.assemble_load(space, lambda x: np.full(len(x), c))
    assert L.sum() == pytest.approx(c * 1.0)
    space2 = fem.FESpace(unit_square, ncomp=2)
    L2 = fem.assemble_load(space2, lambda x: np.tile([c, -c], (len(x), 1)))
    assert L2[0::2].sum() == pytest.approx(c)
    assert L2[1::2].sum() == pytest.approx(-c)


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("quad_order", [1, 4, 6])
def test_load_matches_four_operand_einsum(ncomp, quad_order):
    # reference: the (f, bary, weights, areas) einsum the contraction against
    # the constant bary * weights table replaced
    m = refine_uniform(load_mesh(square_mesh_text(), scale=False), 5)
    space = fem.FESpace(m, ncomp=ncomp)
    f = lambda x: np.column_stack([np.sin(3 * x[:, 0]) * x[:, 1],
                                   np.exp(x[:, 0] - x[:, 1])])[:, :ncomp].squeeze()
    rule = QuadratureRule(quad_order)
    pts = rule.points(m.vertices[m.triangles])
    nt, nq = pts.shape[:2]
    fv = f(pts.reshape(-1, 2)).reshape(nt, nq, ncomp)
    loc = np.einsum("tqc,qk,q,t->tkc", fv, rule.bary, rule.weights, space.areas)
    ref = np.zeros(space.ndof)
    np.add.at(ref, space.local_dofs, loc.reshape(nt, 3 * ncomp))
    got = fem.assemble_load(space, f, quad_order)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_load_reference_triangle_moments():
    # f = (x, 0); frozen values from the exact monomial moments
    m = ref_triangle()
    space = fem.FESpace(m, ncomp=2)
    L = fem.assemble_load(space, lambda x: np.column_stack([x[:, 0], 0 * x[:, 0]]))
    # int x*(1-x-y) = 1/24, int x*x = 1/12, int x*y = 1/24
    assert L[0] == pytest.approx(1 / 24, rel=1e-12)
    assert L[2] == pytest.approx(1 / 12, rel=1e-12)
    assert L[4] == pytest.approx(1 / 24, rel=1e-12)
    assert L[1::2] == pytest.approx(np.zeros(3), abs=1e-15)


def test_norms_zero(unit_square):
    space = fem.FESpace(unit_square)
    w, e, tr = norms(space, np.zeros(space.ndof), p=2.0)
    assert (w, e, tr) == (0.0, 0.0, 0.0)


def test_norms_linear_field(unit_square):
    # vector u = (x, x): grad = [[1,0],[1,0]], eps = [[1,.5],[.5,0]]
    space = fem.FESpace(unit_square, ncomp=2)
    u = np.repeat(unit_square.vertices[:, 0], 2)
    w1p, epsn, tr = norms(space, u, p=2.0)
    assert epsn == pytest.approx(np.sqrt(1.5), rel=1e-12)
    # |u|^2 = 2x^2 on the square: integral 2/3; |grad|^2 = 2
    assert w1p == pytest.approx(np.sqrt(2 / 3 + 2), rel=1e-10)
    # trace: |u| = sqrt(2)|x| over the 4 unit sides: bottom+top = 2*sqrt(2)/2, left 0, right sqrt(2)
    assert tr == pytest.approx(np.sqrt(2) * (0.5 + 0.5 + 0 + 1), rel=1e-10)


def test_energy_gradient_is_residual(unit_square):
    m = refine_uniform(unit_square, 1)
    space = fem.FESpace(m, ncomp=2)
    rng = np.random.default_rng(4)
    for law in (mat.MaterialLaw(p=3.0, mode=mat.MODE_MATRIX),
                mat.MaterialLaw(p=1.5, delta=0.5, mode=mat.MODE_MATRIX)):
        u = rng.normal(size=space.ndof)
        w = rng.normal(size=space.ndof)
        R = fem.assemble_residual(space, law, space.strains(u))
        t = 1e-6
        fd = (fem.energy(space, law, u + t * w) - fem.energy(space, law, u - t * w)) / (2 * t)
        assert fd == pytest.approx(float(R @ w), rel=2e-5)


def test_residual_monotone(unit_square):
    space = fem.FESpace(unit_square, ncomp=2)
    law = mat.MaterialLaw(p=1.5, mode=mat.MODE_MATRIX)
    rng = np.random.default_rng(6)
    for _ in range(25):
        u, v = rng.normal(size=space.ndof), rng.normal(size=space.ndof)
        Ru = fem.assemble_residual(space, law, space.strains(u))
        Rv = fem.assemble_residual(space, law, space.strains(v))
        assert (Ru - Rv) @ (u - v) >= -1e-12


def test_korn_constant_stable_under_refinement():
    m = load_mesh(square_mesh_text(left_label="S"), scale=False)
    rng = np.random.default_rng(9)
    consts = []
    for _ in range(4):
        space = fem.FESpace(m, ncomp=2)
        cs = []
        for _ in range(50):
            u = rng.normal(size=space.ndof)
            w1p, epsn, _ = norms(space, u, p=2.0)
            tr_t = boundary_trace_l1(space, u, labels=("T",))
            cs.append(w1p / (epsn + tr_t))
        consts.append(max(cs))
        m = refine_uniform(m, 1)
    assert max(consts) <= 2.0 * min(consts)


def _loop_boundary_trace_l1(space, coeffs, labels):
    """The per-edge loop boundary_trace_l1 replaced: the same 4-point rule
    on each selected boundary edge, summed in edge order."""
    mesh = space.mesh
    vals = vertex_values(space, coeffs)
    x, w = segment_gauss(4)
    total = 0.0
    for (a, b), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
        if lab not in labels:
            continue
        L = float(np.linalg.norm(mesh.vertices[b] - mesh.vertices[a]))
        uq = vals[a][None, :] * (1 - x)[:, None] + vals[b][None, :] * x[:, None]
        total += L * float(np.sum(w * np.linalg.norm(uq, axis=1)))
    return total


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("labels", [("S",), ("T",), ("S", "T")])
def test_boundary_trace_matches_edge_loop(ncomp, labels):
    m = refine_uniform(load_mesh(square_mesh_text(left_label="S"), scale=False), 3)
    space = fem.FESpace(m, ncomp=ncomp)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.normal(size=space.ndof)
        ref = _loop_boundary_trace_l1(space, u, labels)
        got = boundary_trace_l1(space, u, labels)
        assert ref > 0
        assert abs(got - ref) <= 1e-14 * ref


def _per_mode_residual(space, law, coeffs):
    """The residual with the per-mode contractions of the (nt, 3, 2) gradient
    and (nt, 6, 2, 2) dyad layouts."""
    eps = space.strains(coeffs)
    sig = mat.stress(law, eps)
    bs = space.basis_strains.reshape((len(eps), -1) + eps.shape[1:])
    if space.ncomp == 1:
        loc = np.einsum("td,tkd,t->tk", sig, bs, space.areas)
    else:
        loc = np.einsum("tij,tkij,t->tk", sig, bs, space.areas)
    R = np.zeros(space.ndof)
    np.add.at(R, space.local_dofs, loc)
    return R


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("p, delta", [pytest.param(1.5, 0.0, id="1.5-plaplace-0.0"),
                                      pytest.param(3.0, 0.0, id="3.0-plaplace-0.0"),
                                      pytest.param(1.5, 0.5, id="1.5-carreau-0.5")])
def test_residual_on_flat_axis_matches_per_mode_formula(ncomp, p, delta):
    m = refine_uniform(load_mesh(square_mesh_text(), scale=False), 3)
    space = fem.FESpace(m, ncomp=ncomp)
    mode = mat.MODE_MATRIX if ncomp == 2 else mat.MODE_VECTOR
    law = mat.MaterialLaw(p=p, delta=delta, mode=mode)
    assert law.ncomp == ncomp
    assert space.basis_strains.shape == (len(m.triangles), 3 * ncomp, 2 * ncomp)
    rng = np.random.default_rng(12)
    for _ in range(3):
        u = rng.normal(size=space.ndof)
        ref = _per_mode_residual(space, law, u)
        got = fem.assemble_residual(space, law, space.strains(u))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("make_mesh", [lambda: jittered_square(3, sweeps=2),
                                       lambda: random_graded_square(sweeps=2, seed=5)],
                         ids=["jittered", "random-graded"])
def test_gradients_match_einsum_bit_for_bit(ncomp, make_mesh):
    # each row of the sparse gradient operator sums its three products in
    # the triangle's local vertex order, as the einsum it replaced did
    space = fem.FESpace(make_mesh(), ncomp=ncomp)
    G = space.grad_operator
    nt, nv = len(space.mesh.triangles), len(space.mesh.vertices)
    assert G.format == "csr" and G.shape == (2 * nt, nv)
    assert np.array_equal(G.indptr, 3 * np.arange(2 * nt + 1))
    rng = np.random.default_rng(ncomp)
    for u in (rng.normal(size=space.ndof), rng.normal(size=2 * space.ndof)[::2]):
        got, ref = space.gradients(u), einsum_gradients(space, u)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

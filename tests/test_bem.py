import numpy as np
import pytest

from febe import bem
from febe.material import ExteriorCoefficients
from febe.mesh import load_mesh, refine_uniform
from febe.quadrature import segment_gauss

from conftest import circle_mesh, square_mesh_text, struct_square


@pytest.fixture(scope="module")
def circ64():
    m = circle_mesh(64, 0.4)
    bs = bem.BoundarySpace(m)
    return bs, bem.assemble_operators(bs, None)


@pytest.fixture(scope="module")
def circ64_lame():
    m = circle_mesh(64, 0.4)
    bs = bem.BoundarySpace(m)
    co = ExteriorCoefficients(mu=1.0, lam=1.3)
    return bs, co, bem.assemble_operators(bs, co)


@pytest.fixture(scope="module")
def sq_scaled():
    m = load_mesh(struct_square(2))  # auto-scaled below diameter 1
    bs = bem.BoundarySpace(m)
    return bs


def test_fundamental_solution_scalar_unit_distance():
    x = np.array([0.3, 0.4])
    y = x + np.array([1.0, 0.0])
    assert bem.fundamental_solution(None, x, y) == pytest.approx(0.0, abs=1e-15)


def test_fundamental_solution_lame_value():
    co = ExteriorCoefficients(mu=1.0, lam=1.0)
    G = bem.fundamental_solution(co, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    expect = np.array([[1.0 / (6 * np.pi), 0.0], [0.0, 0.0]])
    assert G == pytest.approx(expect, abs=1e-15)


def test_fundamental_solution_symmetry():
    co = ExteriorCoefficients(mu=0.8, lam=1.7)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        Gxy = bem.fundamental_solution(co, x, y)
        Gyx = bem.fundamental_solution(co, y, x)
        assert Gxy == pytest.approx(Gyx.T)
        assert Gxy == pytest.approx(Gxy.T)


def test_fundamental_solution_coincident_rejected():
    with pytest.raises(ValueError):
        bem.fundamental_solution(None, np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_self_panel_entry_analytic(sq_scaled):
    ops = bem.assemble_operators(sq_scaled, None)
    for l in range(sq_scaled.n_panels):
        a = sq_scaled.lengths[l]
        exact = a * a / (2 * np.pi) * (1.5 - np.log(a))
        assert ops.V[l, l] == pytest.approx(exact, rel=1e-12)


def test_congruent_panels_equal_diagonal(sq_scaled):
    ops = bem.assemble_operators(sq_scaled, None)
    d = np.diag(ops.V)
    assert d[0] == pytest.approx(d[1], rel=1e-12)


def test_v_w_symmetry_and_spectra(circ64, sq_scaled):
    for bs, ops in (circ64, (sq_scaled, bem.assemble_operators(sq_scaled, None))):
        nV = np.linalg.norm(ops.V)
        assert np.linalg.norm(ops.V - ops.V.T) <= 1e-10 * nV
        assert np.linalg.norm(ops.W - ops.W.T) <= 1e-10 * max(np.linalg.norm(ops.W), 1)
        assert np.linalg.eigvalsh(ops.V).min() > 0
        assert np.linalg.eigvalsh(ops.W).min() >= -1e-10


def test_w_kernel_constants(circ64):
    bs, ops = circ64
    one = np.ones(bs.n_nodes)
    assert np.linalg.norm(ops.W @ one) < 1e-12


def test_lame_operators_properties(circ64_lame):
    bs, co, ops = circ64_lame
    assert np.linalg.eigvalsh(ops.V).min() > 0
    evW = np.linalg.eigvalsh(ops.W)
    assert evW.min() >= -1e-10
    # kernel of W = rigid motions (3 near-zero eigenvalues, 4th bounded away)
    assert np.all(np.abs(evW[:3]) < 1e-10)
    assert evW[3] > 1e3 * max(abs(evW[2]), 1e-14)
    p0, p1 = bem.rigid_motions(bs, 2)
    assert np.linalg.norm(ops.W @ p1) < 1e-8
    # (1 - K) rigid = rigid, i.e. K annihilates rigid-motion traces
    assert np.linalg.norm(ops.K @ p1) < 1e-7


def test_scaling_guard():
    m = load_mesh(square_mesh_text(lo=0.0, hi=2.0), scale=False)
    bs = bem.BoundarySpace(m)
    with pytest.raises(ValueError, match="diameter"):
        bem.assemble_operators(bs, None)


def test_steklov_symmetry(circ64):
    _, ops = circ64
    S = ops.steklov_poincare()
    assert np.linalg.norm(S - S.T) <= 1e-10 * np.linalg.norm(S)


def test_steklov_circle_spectrum():
    m = circle_mesh(256, 0.4)
    bs = bem.BoundarySpace(m)
    ops = bem.assemble_operators(bs, None)
    S = ops.steklov_poincare()
    th = np.arctan2(bs.nodes[:, 1], bs.nodes[:, 0])
    for n in (1, 2, 3):
        c = np.cos(n * th)
        rq = (c @ S @ c) / (c @ ops.M1 @ c)
        assert abs(rq - n / 0.4) <= 0.03 * n / 0.4


def test_steklov_coercivity_stable_under_refinement():
    import scipy.linalg as sla
    mins = []
    for nseg in (32, 64, 128):
        bs = bem.BoundarySpace(circle_mesh(nseg, 0.4))
        ops = bem.assemble_operators(bs, None)
        S = ops.steklov_poincare()
        ev = sla.eigh(S, ops.M1, eigvals_only=True)
        assert ev.min() > 0
        mins.append(ev.min())
    assert max(mins) - min(mins) <= 0.2 * max(mins)


def test_half_factor_flag(circ64):
    bs, ops = circ64
    import dataclasses
    halved = dataclasses.replace(ops, half_factor=True, _S=None)
    assert halved.steklov_poincare() == pytest.approx(0.5 * ops.steklov_poincare())


def test_quadrature_order_stability(circ64):
    bs, ops = circ64
    ops2 = bem.assemble_operators(bs, None, quad_order=12)
    scale = np.abs(ops.V).max()
    assert np.abs(ops.V - ops2.V).max() <= 1e-8 * scale
    assert np.abs(ops.W - ops2.W).max() <= 1e-8 * np.abs(ops.W).max()
    assert np.abs(ops.K - ops2.K).max() <= 1e-8 * np.abs(ops.K).max()


def test_random_polygon_spectra():
    rng = np.random.default_rng(12)
    for _ in range(3):
        nv = 12
        th = np.sort(rng.uniform(0, 2 * np.pi, nv))
        th = th[np.diff(np.concatenate([th, [th[0] + 2 * np.pi]])) > 0.15]
        r = rng.uniform(0.2, 0.42, len(th))
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        n = len(pts)
        lines = ["%d %d %d" % (n + 1, n, n), "0 0"]
        lines += ["%.17g %.17g" % tuple(p) for p in pts]
        lines += ["0 %d %d" % (1 + k, 1 + (k + 1) % n) for k in range(n)]
        lines += ["%d %d T" % (1 + k, 1 + (k + 1) % n) for k in range(n)]
        m = load_mesh("\n".join(lines), scale=False)
        bs = bem.BoundarySpace(m)
        ops = bem.assemble_operators(bs, None)
        assert np.linalg.eigvalsh(ops.V).min() > 0
        assert np.linalg.eigvalsh(ops.W).min() >= -1e-10


def _dipole_scalar(x0, e):
    def u(y):
        d = y - x0
        return (d @ e) / (2 * np.pi * np.sum(d * d, axis=-1))

    def grad(y):
        d = y - x0
        r2 = np.sum(d * d, axis=-1)
        return (e[None, :] * r2[:, None] - 2 * d * (d @ e)[:, None]) / (2 * np.pi * r2[:, None] ** 2)

    return u, grad


def test_steklov_maps_traces_to_negative_flux():
    # exterior harmonic dipole: S_h (u|bd) ~ -dn u, improving under refinement
    x0 = np.array([0.05, -0.08])
    e = np.array([0.6, 0.8])
    u, grad = _dipole_scalar(x0, e)
    errs = []
    for nseg in (32, 64, 128):
        bs = bem.BoundarySpace(circle_mesh(nseg, 0.4))
        ops = bem.assemble_operators(bs, None)
        S = ops.steklov_poincare()
        w = u(bs.nodes)
        xq, wq = segment_gauss(6)
        mom = np.zeros(bs.n_nodes)
        for l in range(bs.n_panels):
            y = bs.A[l] + xq[:, None] * (bs.B[l] - bs.A[l])[None, :]
            tn = grad(y) @ bs.normals[l]
            n0, n1 = bs.panel_start[l], bs.panel_end[l]
            mom[n0] += -bs.lengths[l] * np.sum(wq * tn * (1 - xq))
            mom[n1] += -bs.lengths[l] * np.sum(wq * tn * xq)
        errs.append(np.linalg.norm(S @ w - mom) / np.linalg.norm(mom))
    assert errs[0] < 0.05
    assert errs[-1] < errs[0] / 3


def test_lame_dipole_mapping(circ64_lame):
    bs, co, ops = circ64_lame
    x0 = np.array([0.05, -0.08])
    e = np.array([0.6, 0.8])
    c = np.array([0.3, -0.7])
    h = 1e-6

    def u_vec(y):
        Gp = bem.fundamental_solution(co, y, x0 + h * e)
        Gm = bem.fundamental_solution(co, y, x0 - h * e)
        return (Gp - Gm) @ c / (2 * h)

    def traction(y, nv):
        hh = 1e-5
        ex, ey = np.array([hh, 0.0]), np.array([0.0, hh])
        gx = (u_vec(y + ex) - u_vec(y - ex)) / (2 * hh)
        gy = (u_vec(y + ey) - u_vec(y - ey)) / (2 * hh)
        g = np.stack([gx, gy], axis=-1)
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        div = g[..., 0, 0] + g[..., 1, 1]
        sig = 2 * co.mu * eps + co.lam * div[..., None, None] * np.eye(2)
        return np.einsum("nij,nj->ni", sig, nv)

    S = ops.steklov_poincare()
    w = u_vec(bs.nodes).reshape(-1)
    tn = traction(bs.mids, bs.normals)
    mom = np.zeros(2 * bs.n_nodes)
    for l in range(bs.n_panels):
        n0, n1 = bs.panel_start[l], bs.panel_end[l]
        for a in range(2):
            mom[2 * n0 + a] += -tn[l, a] * bs.lengths[l] / 2
            mom[2 * n1 + a] += -tn[l, a] * bs.lengths[l] / 2
    rel = np.linalg.norm(S @ w - mom) / np.linalg.norm(mom)
    assert rel < 0.02


def test_stabilization_scalar(circ64):
    bs, ops = circ64
    basis = bem.stabilization_data(bs, ops)
    assert basis.dim == 1
    perim = bs.lengths.sum()
    assert basis.xi[:, 0] == pytest.approx(np.full(bs.n_panels, perim ** -0.5))


def test_stabilization_vector_orthonormal(circ64_lame):
    bs, co, ops = circ64_lame
    basis = bem.stabilization_data(bs, ops)
    assert basis.dim == 3
    G = basis.xi.T @ (ops.M0[:, None] * basis.xi)
    assert G == pytest.approx(np.eye(3), abs=1e-12)


def test_stabilization_matrix_rank(circ64_lame):
    bs, co, ops = circ64_lame
    basis = bem.stabilization_data(bs, ops)
    A = bem.stabilization_vectors(ops, basis)
    P = A.T @ A
    sv = np.linalg.svd(P, compute_uv=False)
    assert np.sum(sv > 1e-12 * sv[0]) == 3


def test_dump_csv(tmp_path, circ64):
    _, ops = circ64
    ops.dump_csv(tmp_path)
    loaded = np.loadtxt(tmp_path / "V.csv", delimiter=",")
    assert loaded == pytest.approx(ops.V)


def test_pointwise_single_layer_consistency(circ64):
    # Galerkin row integrals match graded quadrature of the pointwise evaluation
    from febe.quadrature import graded_gauss
    bs, ops = circ64
    rng = np.random.default_rng(3)
    dens = rng.normal(size=bs.n_panels)
    xga, wga = graded_gauss(levels=12, order=8)
    xq = np.concatenate([0.5 * xga, 1.0 - 0.5 * xga])
    wq = np.concatenate([0.5 * wga, 0.5 * wga])
    l = 7
    pts = bs.A[l][None, :] + xq[:, None] * (bs.B[l] - bs.A[l])[None, :]
    vals = bem.eval_single_layer(bs, None, dens, pts)[:, 0]
    row = float(ops.V[l] @ dens)
    assert bs.lengths[l] * np.sum(wq * vals) == pytest.approx(row, rel=1e-8)


def test_pointwise_double_layer_jump(circ64_lame):
    # exterior trace of the dlp of rigid motions vanishes: 1/2 R + Kpv R = 0
    bs, co, ops = circ64_lame
    rot = np.column_stack([-bs.nodes[:, 1], bs.nodes[:, 0]]).reshape(-1)
    x = bs.A[5] + 0.37 * (bs.B[5] - bs.A[5])
    Rx = np.array([-x[1], x[0]])
    kv = bem.eval_double_layer_pv(bs, co, rot, x[None, :])[0]
    assert 0.5 * Rx + kv == pytest.approx(np.zeros(2), abs=1e-12)


def test_lame_dipole_on_square_geometry():
    # corner-bearing geometry: the mapping property survives graded corners
    from febe.mesh import load_mesh, refine_uniform
    from conftest import struct_square
    co = ExteriorCoefficients(mu=1.0, lam=1.3)
    m = refine_uniform(load_mesh(struct_square(4, lo=0.1, hi=0.6), scale=False), 2)
    bs = bem.BoundarySpace(m)
    ops = bem.assemble_operators(bs, co)
    S = ops.steklov_poincare()
    x0 = np.array([0.35, 0.35])
    e = np.array([0.6, 0.8])
    c = np.array([0.3, -0.7])
    h = 1e-6

    def u_vec(y):
        Gp = bem.fundamental_solution(co, y, x0 + h * e)
        Gm = bem.fundamental_solution(co, y, x0 - h * e)
        return (Gp - Gm) @ c / (2 * h)

    def traction(y, nv):
        hh = 1e-5
        ex, ey = np.array([hh, 0.0]), np.array([0.0, hh])
        gx = (u_vec(y + ex) - u_vec(y - ex)) / (2 * hh)
        gy = (u_vec(y + ey) - u_vec(y - ey)) / (2 * hh)
        g = np.stack([gx, gy], axis=-1)
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        div = g[..., 0, 0] + g[..., 1, 1]
        sig = 2 * co.mu * eps + co.lam * div[..., None, None] * np.eye(2)
        return np.einsum("nij,j->ni", sig, nv)

    w = u_vec(bs.nodes).reshape(-1)
    xq, wq = segment_gauss(6)
    mom = np.zeros(2 * bs.n_nodes)
    for l in range(bs.n_panels):
        y = bs.A[l] + xq[:, None] * (bs.B[l] - bs.A[l])[None, :]
        tn = traction(y, bs.normals[l])
        n0, n1 = bs.panel_start[l], bs.panel_end[l]
        for a in range(2):
            mom[2 * n0 + a] += -bs.lengths[l] * np.sum(wq * tn[:, a] * (1 - xq))
            mom[2 * n1 + a] += -bs.lengths[l] * np.sum(wq * tn[:, a] * xq)
    rel = np.linalg.norm(S @ w - mom) / np.linalg.norm(mom)
    assert rel < 0.05


def _count_primitives(monkeypatch):
    """Record (number of observation points, returned keys) per call."""
    calls = []
    prim = bem._primitives

    def counted(*args):
        out = prim(*args)
        calls.append((len(np.atleast_2d(args[-1])), set(out)))
        return out

    monkeypatch.setattr(bem, "_primitives", counted)
    return calls


@pytest.mark.parametrize("lame", [False, True])
def test_assembly_evaluates_each_source_panel_once(monkeypatch, lame):
    bs = bem.BoundarySpace(circle_mesh(24, 0.4))
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    calls = _count_primitives(monkeypatch)
    bem.assemble_operators(bs, co)
    assert len(calls) == bs.n_panels
    # each call covers the outer points of every row: far/near Gauss rules,
    # both graded neighbour rules and the split self rule
    assert min(n for n, _ in calls) > 3 * bs.n_panels
    # only the integrals the kernel reads are computed
    for _, keys in calls:
        assert "ilog_t" not in keys
        if not lame:
            assert keys == {"ilog0", "s1_0", "s1_t", "online"}


@pytest.mark.parametrize("lame", [False, True])
def test_pointwise_evaluation_batch_invariant(lame):
    # one batched call equals the point-by-point results bit for bit, for
    # points on panels, at vertices and off the boundary
    m = refine_uniform(load_mesh(struct_square(3, lo=0.1, hi=0.6), scale=False), 1)
    bs = bem.BoundarySpace(m)
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    d = 2 if lame else 1
    rng = np.random.default_rng(5)
    on = bs.panel_points(np.array([0.2, 0.5, 0.9])).reshape(-1, 2)
    off = rng.uniform(0.0, 0.7, size=(9, 2))
    X = np.concatenate([on, bs.nodes, off])
    dens = rng.normal(size=bs.n_panels * d)
    w = rng.normal(size=bs.n_nodes * d)
    for fn, coef in ((bem.eval_single_layer, dens), (bem.eval_double_layer_pv, w)):
        batch = fn(bs, co, coef, X)
        single = np.concatenate([fn(bs, co, coef, x[None, :]) for x in X])
        assert np.array_equal(batch, single)


@pytest.mark.parametrize("lame", [False, True])
def test_node_scatter_matches_panel_loops(lame):
    # per-panel loops as the reference for the node normals and the P0xP1
    # and P1 boundary mass matrices
    from febe.mesh import refine
    m = refine_uniform(load_mesh(struct_square(2, lo=0.1, hi=0.6), scale=False), 1)
    m = refine(m, np.random.default_rng(7).choice(len(m.triangles), 5, replace=False))
    bs = bem.BoundarySpace(m)
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    ops = bem.assemble_operators(bs, co)
    d, L, M = ops.d, bs.n_panels, bs.n_nodes
    nrm = np.zeros((M, 2))
    Mb = np.zeros((L * d, M * d))
    M1 = np.zeros((M * d, M * d))
    for k in range(L):
        n0, n1 = bs.panel_start[k], bs.panel_end[k]
        Le = bs.lengths[k]
        nrm[n0] += bs.normals[k] * Le
        nrm[n1] += bs.normals[k] * Le
        for a in range(d):
            i, j = n0 * d + a, n1 * d + a
            Mb[k * d + a, i] += 0.5 * Le
            Mb[k * d + a, j] += 0.5 * Le
            M1[i, i] += Le / 3
            M1[j, j] += Le / 3
            M1[i, j] += Le / 6
            M1[j, i] += Le / 6
    assert np.array_equal(bs.node_normals(), nrm / np.linalg.norm(nrm, axis=1)[:, None])
    assert np.array_equal(ops.Mb, Mb)
    assert np.array_equal(ops.M1, M1)


@pytest.mark.parametrize("d", [1, 2])
def test_p1_moments_is_adjoint_of_p1_values(d):
    # c . int f psi = sum over panels and points of L w f . (P1 field c)
    from febe.mesh import refine
    m = refine_uniform(load_mesh(struct_square(2, lo=0.1, hi=0.6), scale=False), 1)
    m = refine(m, np.random.default_rng(8).choice(len(m.triangles), 5, replace=False))
    bs = bem.BoundarySpace(m)
    rng = np.random.default_rng(9)
    for nq in (1, 4, 6):
        t, w = segment_gauss(nq)
        f = rng.normal(size=(bs.n_panels, nq, d))
        c = rng.normal(size=bs.n_nodes * d)
        lhs = c @ bs.p1_moments(f, t, w)
        rhs = np.sum(bs.lengths[:, None, None] * w[None, :, None] * f
                     * bs.p1_values(c, t))
        assert abs(lhs - rhs) <= 1e-14 * np.sum(np.abs(bs.lengths[:, None, None]
                                                       * w[None, :, None] * f))
    # constants integrate to the boundary length
    t, w = segment_gauss(4)
    ones = bs.p1_moments(np.ones((bs.n_panels, len(t), d)), t, w)
    assert np.isclose(ones.sum(), d * bs.lengths.sum(), rtol=1e-14)


def _assembly_meshes():
    from febe.mesh import refine
    from febe.presets import lshape_text
    graded = refine_uniform(load_mesh(struct_square(2, lo=0.1, hi=0.6), scale=False), 1)
    graded = refine(graded, np.random.default_rng(7).choice(len(graded.triangles), 5,
                                                            replace=False))
    return {
        # on-line points only on the self panel
        "circle": circle_mesh(32, 0.4),
        # collinear rows along each side
        "square": refine_uniform(load_mesh(struct_square(4, lo=0.1, hi=0.6), scale=False), 1),
        # near rows of mixed lengths
        "graded": graded,
        # re-entrant corner
        "lshape": load_mesh(lshape_text(4)),
    }


@pytest.mark.parametrize("kernel", ["laplace", "lame"])
def test_contracted_assembly_matches_pointwise_blocks(monkeypatch, kernel):
    # the per-point-block assembly and the all-integrals primitives it
    # replaced are the reference: the contraction moves before the (linear)
    # block build, so the operators agree to rounding; every integral the
    # kernel reads and the pointwise evaluation agree bit for bit
    from conftest import (reference_layer_potentials, reference_pair_blocks,
                          reference_primitives)
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if kernel == "lame" else None
    prim = bem._primitives
    for name, m in _assembly_meshes().items():
        bs = bem.BoundarySpace(m)
        recorded = []
        monkeypatch.setattr(bem, "_primitives", lambda *a: recorded.append(a) or prim(*a))
        ops = bem.assemble_operators(bs, co)
        monkeypatch.undo()
        assert len(recorded) == bs.n_panels
        for keys, *args in recorded:
            new, ref = prim(keys, *args), reference_primitives(*args)
            assert set(new) == set(keys) | {"online"}
            for k in new:
                assert np.array_equal(new[k], ref[k]), (name, k)

        monkeypatch.setattr(bem, "_pair_blocks", reference_pair_blocks)
        ref_ops = bem.assemble_operators(bs, co)
        monkeypatch.undo()
        for a, b in ((ops.V, ref_ops.V), (ops.K, ref_ops.K), (ops.W, ref_ops.W),
                     (ops.steklov_poincare(), ref_ops.steklov_poincare())):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name

        d = ops.d
        rng = np.random.default_rng(3)
        on = bs.panel_points(np.array([0.2, 0.5, 0.9])).reshape(-1, 2)
        lo, hi = bs.nodes.min(axis=0), bs.nodes.max(axis=0)
        off = rng.uniform(lo - 0.1, hi + 0.1, size=(9, 2))
        X = np.concatenate([on, bs.nodes, off])
        dens = rng.normal(size=bs.n_panels * d)
        w = rng.normal(size=bs.n_nodes * d)
        for a, b in zip(bem.eval_layer_potentials(bs, co, dens, w, X),
                        reference_layer_potentials(bs, co, dens, w, X)):
            assert np.array_equal(a, b), name


def test_assembly_leaves_no_reference_cycles():
    # the arrays of each source panel's integrals are freed when its call
    # returns, not at the next garbage collection, so peak memory does not
    # grow with the number of panels
    import gc
    bs = bem.BoundarySpace(circle_mesh(24, 0.4))
    co = ExteriorCoefficients(mu=1.0, lam=1.3)
    gc.collect()
    gc.disable()
    try:
        bem.assemble_operators(bs, co)
        bem.eval_layer_potentials(bs, co, np.ones(2 * bs.n_panels),
                                  np.ones(2 * bs.n_nodes), bs.mids)
        assert gc.collect() == 0
    finally:
        gc.enable()

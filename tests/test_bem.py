import numpy as np
import pytest

from febe import bem
from febe.material import ExteriorCoefficients
from febe.mesh import load_mesh, refine_uniform
from febe.quadrature import segment_gauss

from conftest import circle_mesh, fundamental_solution, square_mesh_text, struct_square


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
    assert fundamental_solution(None, x, y) == pytest.approx(0.0, abs=1e-15)


def test_fundamental_solution_lame_value():
    co = ExteriorCoefficients(mu=1.0, lam=1.0)
    G = fundamental_solution(co, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    expect = np.array([[1.0 / (6 * np.pi), 0.0], [0.0, 0.0]])
    assert G == pytest.approx(expect, abs=1e-15)


def test_fundamental_solution_symmetry():
    co = ExteriorCoefficients(mu=0.8, lam=1.7)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        Gxy = fundamental_solution(co, x, y)
        Gyx = fundamental_solution(co, y, x)
        assert Gxy == pytest.approx(Gyx.T)
        assert Gxy == pytest.approx(Gxy.T)


def test_fundamental_solution_coincident_rejected():
    with pytest.raises(ValueError):
        fundamental_solution(None, np.array([1.0, 2.0]), np.array([1.0, 2.0]))


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
    p1 = bem.rigid_motions(bs.nodes, 2)
    assert np.linalg.norm(ops.W @ p1) < 1e-8
    # (1 - K) rigid = rigid, i.e. K annihilates rigid-motion traces
    assert np.linalg.norm(ops.K @ p1) < 1e-7


def test_scaling_guard():
    m = load_mesh(square_mesh_text(lo=0.0, hi=2.0), scale=False)
    bs = bem.BoundarySpace(m)
    with pytest.raises(ValueError, match="diameter"):
        bem.assemble_operators(bs, None)


@pytest.mark.parametrize("order", [2, 3, 8.0, 6.5])
def test_quadrature_order_below_four_or_fractional_rejected(sq_scaled, order):
    # no silent clamp to max(4, int(order))
    with pytest.raises(ValueError, match="quad_order"):
        bem.assemble_operators(sq_scaled, None, quad_order=order)


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
            n0, n1 = l, bs.panel_end[l]
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
        Gp = fundamental_solution(co, y, x0 + h * e)
        Gm = fundamental_solution(co, y, x0 - h * e)
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
        n0, n1 = l, bs.panel_end[l]
        for a in range(2):
            mom[2 * n0 + a] += -tn[l, a] * bs.lengths[l] / 2
            mom[2 * n1 + a] += -tn[l, a] * bs.lengths[l] / 2
    rel = np.linalg.norm(S @ w - mom) / np.linalg.norm(mom)
    assert rel < 0.02


def test_stabilization_scalar(circ64):
    bs, ops = circ64
    xi = bem.stabilization_data(bs, ops)
    assert xi.shape[1] == 1
    perim = bs.lengths.sum()
    assert xi[:, 0] == pytest.approx(np.full(bs.n_panels, perim ** -0.5))


def test_stabilization_vector_orthonormal(circ64_lame):
    bs, co, ops = circ64_lame
    xi = bem.stabilization_data(bs, ops)
    assert xi.shape[1] == 3
    G = xi.T @ (ops.M0[:, None] * xi)
    assert G == pytest.approx(np.eye(3), abs=1e-12)


def test_stabilization_matrix_rank(circ64_lame):
    bs, co, ops = circ64_lame
    xi = bem.stabilization_data(bs, ops)
    A = np.hstack([xi.T @ (ops.Mb - ops.K), xi.T @ ops.V])
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
        Gp = fundamental_solution(co, y, x0 + h * e)
        Gm = fundamental_solution(co, y, x0 - h * e)
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
        n0, n1 = l, bs.panel_end[l]
        for a in range(2):
            mom[2 * n0 + a] += -bs.lengths[l] * np.sum(wq * tn[:, a] * (1 - xq))
            mom[2 * n1 + a] += -bs.lengths[l] * np.sum(wq * tn[:, a] * xq)
    rel = np.linalg.norm(S @ w - mom) / np.linalg.norm(mom)
    assert rel < 0.05


def _count_primitives(monkeypatch):
    """Record (source panels, observation points, returned keys) per call."""
    calls = []
    prim = bem._primitives

    def counted(keys, bspace, src, X):
        out = prim(keys, bspace, src, X)
        calls.append((src, X, set(out)))
        return out

    monkeypatch.setattr(bem, "_primitives", counted)
    return calls


def _source_point_pairs(calls):
    """The (source panel, x, y) rows of all calls, sorted."""
    rows = np.concatenate([np.column_stack([src, X]) for src, X, _ in calls])
    return rows[np.lexsort(rows.T[::-1])]


def _within_block_bound(calls):
    return all(len(X) <= bem._BLOCK_POINTS or len(np.unique(src)) == 1
               for src, X, _ in calls)


def _self_rule_points(bs):
    """(source panel, point) rows of every self pair's outer rule, which is
    graded toward both ends of the panel."""
    from febe.quadrature import graded_gauss
    xga, _ = graded_gauss(levels=12, order=8)
    t = np.concatenate([0.5 * xga, 1.0 - 0.5 * xga])
    return [(np.full(len(t), m), X, None) for m, X in enumerate(bs.panel_points(t))]


@pytest.mark.parametrize("lame", [False, True])
def test_assembly_evaluates_each_source_panel_once(monkeypatch, lame):
    # summed over the blocked calls, every outer point of every non-self
    # (row, source) pair is evaluated exactly once, with every integral the
    # kernel reads: with the self rule's points, these are the (source
    # panel, point) pairs of one pass per source panel.  The self points
    # are evaluated only for the principal values the K tables read:
    # once, for {pv0, pvt}, for Lame, and not at all for Laplace
    from conftest import loop_pair_blocks
    bs = bem.BoundarySpace(circle_mesh(24, 0.4))
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    ker = bem._kernel_for(co)
    prims, _ = bem._table_integrals(ker, ker.terms(bs.tangents, bs.normals))
    calls = _count_primitives(monkeypatch)
    bem.assemble_operators(bs, co)
    blocked = calls[:]
    calls.clear()
    loop_pair_blocks(ker, bs, 8)
    assert len(calls) == bs.n_panels
    full = [c for c in blocked if c[2] == set(prims) | {"online"}]
    pv = [c for c in blocked if c[2] == {"pv0", "pvt", "online"}]
    assert len(full) + len(pv) == len(blocked)
    self_points = _self_rule_points(bs)
    assert np.array_equal(_source_point_pairs(full + self_points), _source_point_pairs(calls))
    if lame:
        assert np.array_equal(_source_point_pairs(pv), _source_point_pairs(self_points))
    else:
        assert pv == []
    assert _within_block_bound(blocked)
    # only the integrals the kernel reads are computed
    for _, _, keys in blocked:
        assert "ilog_t" not in keys
        if not lame:
            assert keys == {"ilog0", "s1_0", "s1_t", "online"}


def test_self_rule_points_lie_on_their_panel():
    # the self pairs skip the non-PV K integrals and take the principal
    # value instead, which is right only where every self outer point is
    # on the line of its panel: |eta| <= 1e-12 max(L, |A|)
    from febe.mesh import Mesh, refine
    from febe.presets import lshape_text, square_text
    m = refine_uniform(load_mesh(struct_square(4, lo=0.1, hi=0.6), scale=False), 1)
    rng = np.random.default_rng(12)
    jittered = Mesh(m.vertices + rng.uniform(-0.01, 0.01, m.vertices.shape), m.triangles,
                    m.boundary_edges, m.boundary_labels)
    lshape = load_mesh(lshape_text(4))
    for _ in range(4):
        lshape = refine(lshape, rng.choice(len(lshape.triangles), len(lshape.triangles) // 4,
                                           replace=False))
    meshes = {"circle": circle_mesh(64, 0.4), "lshape": lshape, "jittered": jittered,
              "square-slip": refine_uniform(load_mesh(square_text(4, slip=("b",)),
                                                      scale=False), 4)}
    for name, mesh in meshes.items():
        bs = bem.BoundarySpace(mesh)
        rows = _self_rule_points(bs)
        src = np.concatenate([r[0] for r in rows])
        X = np.concatenate([r[1] for r in rows])
        assert bem._primitives(("pv0",), bs, src, X)["online"].all(), name


@pytest.mark.parametrize("lame", [False, True])
def test_boundary_far_from_origin_assembles_as_at_origin(lame):
    # the rounding of eta grows with the coordinates: translated by 3000
    # (|A|/L = 3.1e4) the self rule's points stay on the line of their
    # panel, and the operators and the potentials at points on the panels
    # are those of the untranslated circle
    from febe.mesh import Mesh
    m = circle_mesh(32, 0.4)
    far = Mesh(m.vertices + 3000 * np.array([0.6, 0.8]), m.triangles,
               m.boundary_edges, m.boundary_labels)
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    d = 2 if lame else 1
    rng = np.random.default_rng(6)
    dens = rng.normal(size=32 * d)
    w = rng.normal(size=32 * d)
    out = []
    for mesh in (m, far):
        bs = bem.BoundarySpace(mesh)
        rows = _self_rule_points(bs)
        src = np.concatenate([r[0] for r in rows])
        X = np.concatenate([r[1] for r in rows])
        assert bem._primitives(("pv0",), bs, src, X)["online"].all()
        ops = bem.assemble_operators(bs, co)
        on = bs.panel_points(np.array([0.2, 0.5, 0.9])).reshape(-1, 2)
        out.append((ops.V, ops.K, ops.W, ops.steklov_poincare(),
                    *bem.eval_layer_potentials(bs, co, dens, w, on)))
    for a, b in zip(*out):
        assert np.abs(a - b).max() <= 1e-8 * np.abs(a).max()


@pytest.mark.parametrize("lame", [False, True])
def test_vertex_potentials_do_not_depend_on_translation(lame):
    # at a boundary vertex the log|u| ends of the two adjacent panels'
    # principal values cancel; which of them rounds to exactly 0 depends on
    # the coordinates, so without the cancellation a translation moves the
    # Lame K_pv w by O(1).  The bound is the rounding of the translated
    # vertices, which grows with the offset (1e-12 of the largest entry at
    # offset 100)
    from febe.mesh import Mesh
    m = circle_mesh(32, 0.4)
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    d = 2 if lame else 1
    rng = np.random.default_rng(6)
    dens = rng.normal(size=32 * d)
    w = rng.normal(size=32 * d)
    bs = bem.BoundarySpace(m)
    ref = bem.eval_layer_potentials(bs, co, dens, w, bs.nodes)
    for offset in (30, 300, 3000):
        far = bem.BoundarySpace(Mesh(m.vertices + offset * np.array([0.6, 0.8]),
                                     m.triangles, m.boundary_edges, m.boundary_labels))
        for a, b in zip(ref, bem.eval_layer_potentials(far, co, dens, w, far.nodes)):
            assert np.abs(a - b).max() <= 1e-14 * offset * np.abs(a).max(), offset


def test_online_sets_of_test_meshes_need_no_coordinate_scaling(monkeypatch):
    # on the meshes of these tests every point the on-line test puts on the
    # line lies within 1e-12 L of it, as before the test scaled with the
    # coordinates, in assembly and in pointwise evaluation
    from conftest import record_online_mismatches
    from febe.presets import square_text
    meshes = _assembly_meshes()
    meshes["square-slip"] = refine_uniform(load_mesh(square_text(4, slip=("b",)),
                                                     scale=False), 5)
    rows, seen = record_online_mismatches(monkeypatch)
    for m in meshes.values():
        bs = bem.BoundarySpace(m)
        on = bs.panel_points(np.array([0.2, 0.5, 0.9])).reshape(-1, 2)
        for co in (None, ExteriorCoefficients(mu=1.0, lam=1.3)):
            d = 1 if co is None else 2
            bem.assemble_operators(bs, co)
            bem.eval_layer_potentials(bs, co, np.ones(bs.n_panels * d),
                                      np.ones(bs.n_nodes * d), np.concatenate([on, bs.nodes]))
    assert seen[0] > 0 and rows == []


def test_self_pair_integrals_match_graded_quadrature():
    # the exact self-pair integrals that assembly writes are the self
    # rule's graded quadrature of the integrals at on-line points
    from febe.presets import lshape_text
    from febe.quadrature import graded_gauss
    xga, wga = graded_gauss(levels=12, order=8)
    t = np.concatenate([0.5 * xga, 1.0 - 0.5 * xga])
    w = np.concatenate([0.5 * wga, 0.5 * wga])
    keys = ("ilog0", "dy00", "dy01", "dy11")
    for mesh in (circle_mesh(32, 0.4), load_mesh(lshape_text(4))):
        bs = bem.BoundarySpace(mesh)
        L = bs.lengths
        src = np.repeat(np.arange(bs.n_panels), len(t))
        prim = bem._primitives(keys, bs, src, bs.panel_points(t).reshape(-1, 2))
        assert prim["online"].all()
        quad = {k: np.sum(prim[k].reshape(bs.n_panels, len(t)) * L[:, None] * w, axis=1)
                for k in keys}
        exact = bem._self_pair_integrals(L)
        assert np.all(np.abs(quad["ilog0"] - exact["ilog0"]) <= 1e-10 * exact["ilog0"])
        assert np.all(np.abs(quad["dy00"] - exact["dy00"]) <= 1e-14 * exact["dy00"])
        for k in ("dy01", "dy11"):
            assert np.all(exact[k] == 0) and np.all(np.abs(quad[k]) <= 1e-15 * L * L)


@pytest.mark.parametrize("lame", [False, True])
def test_single_layer_matches_fundamental_solution_quadrature(lame):
    # the V table against the kernel itself: at points 0.1 or more off the
    # boundary, V phi is a 40-point Gauss rule of fundamental_solution on
    # every panel
    bs = bem.BoundarySpace(circle_mesh(16, 0.4))
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    d = 2 if lame else 1
    rng = np.random.default_rng(11)
    ang = rng.uniform(0.0, 2 * np.pi, 12)
    rad = np.concatenate([rng.uniform(0.0, 0.28, 6), rng.uniform(0.5, 0.8, 6)])
    X = rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    dens = rng.normal(size=(bs.n_panels, d))
    t, wq = segment_gauss(40)
    G = fundamental_solution(co, X[:, None, None, :], bs.panel_points(t)[None])
    G = G.reshape(len(X), bs.n_panels, len(t), d, d)
    ref = np.einsum("m,q,nmqab,mb->na", bs.lengths, wq, G, dens)
    vphi = bem.eval_single_layer(bs, co, dens.ravel(), X)
    assert np.abs(vphi - ref).max() <= 1e-13 * np.abs(ref).max()


def test_assembly_blocks_bound_the_working_set(monkeypatch):
    # no _primitives call holds more than _BLOCK_POINTS points unless it
    # holds a single source panel: several panels per call on 64 panels,
    # one per call on 512, where one source panel has over half as many
    calls = _count_primitives(monkeypatch)
    for nseg, most in ((64, bem._BLOCK_POINTS), (512, None)):
        calls.clear()
        bs = bem.BoundarySpace(circle_mesh(nseg, 0.4))
        bem.assemble_operators(bs, None)
        assert _within_block_bound(calls)
        per_call = [len(np.unique(src)) for src, _, _ in calls]
        assert sum(per_call) == bs.n_panels
        if most:
            assert 1 < len(calls) and max(per_call) > 1
        else:
            assert max(per_call) == 1


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
        n0, n1 = k, bs.panel_end[k]
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


@pytest.mark.parametrize("kernel", ["laplace", "lame"])
def test_rolled_w_matches_dense_difference_matrix(kernel):
    # W from the differences of Ghat between each node's two panels
    # against D^T Ghat D with the dense difference matrix, and S with each
    import dataclasses
    from conftest import dense_difference_w
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if kernel == "lame" else None
    for name, m in _kernel_meshes().items():
        bs = bem.BoundarySpace(m)
        ops = bem.assemble_operators(bs, co)
        ref = dataclasses.replace(ops, W=dense_difference_w(bs, co), _S=None)
        for a, b in ((ops.W, ref.W), (ops.steklov_poincare(), ref.steklov_poincare())):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name


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
    # the per-point-block assembly, its block formulas and the
    # all-integrals primitives it replaced are the reference: the
    # contraction moves before the (linear) block build and the blocks come
    # from the kernel tables, so the operators and the pointwise evaluation
    # agree to rounding; every integral the kernel reads agrees bit for
    # bit, except the two Lame integrals with eta^3, which the primitives
    # form as eta * eta * eta and the reference as eta ** 3 (numpy's pow)
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
        for keys, _, src, X in recorded:
            new = prim(keys, bs, src, X)
            assert set(new) == set(keys) | {"online"}
            for p in np.unique(src):
                s = src == p
                ref = reference_primitives(bs.A[p], bs.tangents[p], bs.normals[p],
                                           bs.lengths[p], X[s])
                for k in new:
                    if k in ("p2_t", "p0_t"):
                        err = np.abs(new[k][s] - ref[k]).max()
                        assert err <= 1e-14 * np.abs(ref[k]).max(), (name, k)
                    else:
                        assert np.array_equal(new[k][s], ref[k]), (name, k)

        monkeypatch.setattr(bem, "_pair_blocks",
                            lambda *a: (*reference_pair_blocks(*a[:3]), None))
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
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name


@pytest.mark.parametrize("kernel", ["laplace", "lame"])
def test_blocked_assembly_is_bit_identical_to_panel_loop(monkeypatch, kernel):
    # the blocked passes do the per-source-panel loops' arithmetic, so the
    # pair blocks and both potentials agree bit for bit, also when the
    # boundary needs more than one block of source panels
    from conftest import loop_layer_potentials, loop_pair_blocks
    from febe.presets import square_text
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if kernel == "lame" else None
    ker = bem._kernel_for(co)
    meshes = _assembly_meshes()
    meshes["square-slip"] = refine_uniform(load_mesh(square_text(4, slip=("b",)),
                                                     scale=False), 5)
    calls = _count_primitives(monkeypatch)
    for name, m in meshes.items():
        bs = bem.BoundarySpace(m)
        for q in (8, 12):
            calls.clear()
            blocked = bem._pair_blocks(ker, bs, q)
            if name == "square-slip":
                assert len(calls) > 1
            for a, b in zip(blocked, loop_pair_blocks(ker, bs, q)):
                assert np.array_equal(a, b), (name, q)
        d = ker.d
        rng = np.random.default_rng(4)
        on = bs.panel_points(np.array([0.2, 0.5, 0.9])).reshape(-1, 2)
        lo, hi = bs.nodes.min(axis=0), bs.nodes.max(axis=0)
        off = rng.uniform(lo - 0.1, hi + 0.1, size=(9, 2))
        X = np.concatenate([on, bs.nodes, off])
        dens = rng.normal(size=bs.n_panels * d)
        w = rng.normal(size=bs.n_nodes * d)
        for a, b in zip(bem.eval_layer_potentials(bs, co, dens, w, X),
                        loop_layer_potentials(bs, co, dens, w, X)):
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


# reuse across adaptive levels -------------------------------------------------

_OPERATORS = ("V", "K", "W", "Mb", "M1", "M0", "ints")


def _assert_same_operators(ops, fresh):
    for name in _OPERATORS:
        assert np.array_equal(getattr(ops, name), getattr(fresh, name)), name
    assert np.array_equal(ops.steklov_poincare(), fresh.steklov_poincare())


def _local_refinements(levels, seed):
    """An L-shape and `levels` random local refinements of it: a tenth of
    the triangles marked, on every third level only triangles without a
    boundary edge, so that some levels keep the whole boundary."""
    from febe.mesh import refine
    from febe.presets import lshape_text
    rng = np.random.default_rng(seed)
    m = load_mesh(lshape_text(4))
    meshes = [m]
    for lvl in range(levels):
        nt = len(m.triangles)
        cand = np.arange(nt)
        if lvl % 3 == 1:
            cand = np.setdiff1d(cand, m.edge_triangles[m.edge_triangles[:, 1] < 0, 0])
        m = refine(m, rng.choice(cand, size=max(1, nt // 10), replace=False))
        meshes.append(m)
    return meshes


def _pair_points(bs, quad_order, pairs, lame):
    """(source panel, point, None) rows of the outer points of the given
    (row, source) pairs, and for Lame the self rule's points of every
    source panel that is a self pair among them."""
    from conftest import loop_pair_rules
    cls, rules = loop_pair_rules(bs, quad_order)
    out = []
    for l, m in pairs:
        if l != m:
            out.append((np.full(len(rules[cls[l, m]][0]), m),
                        bs.panel_points(rules[cls[l, m]][0], [l])[0], None))
        elif lame:
            out.append((np.full(len(rules[4][0]), m), bs.panel_points(rules[4][0], [m])[0], None))
    return out


@pytest.mark.parametrize("lame", [False, True])
def test_reused_assembly_equals_fresh_assembly(monkeypatch, lame):
    # over random local refinements, the operators built from the previous
    # level's equal a fresh assembly bit for bit; a level that keeps the
    # whole boundary returns the previous operators object; only the
    # (source, point) pairs of the pairs with a new panel are evaluated
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    calls = _count_primitives(monkeypatch)
    prev = None
    unchanged = partial = 0
    for m in _local_refinements(8, seed=1):
        bs = bem.BoundarySpace(m)
        calls.clear()
        ops = bem.assemble_operators(bs, co, previous=prev)
        evaluated = calls[:]
        fresh = bem.assemble_operators(bs, co)
        _assert_same_operators(ops, fresh)
        if prev is None:
            prev = ops
            continue
        old = bem._kept_panels(prev.bspace, bs)
        new = old < 0
        if np.array_equal(old, np.arange(prev.bspace.n_panels)):
            unchanged += 1
            assert ops is prev and evaluated == []
        else:
            partial += new.any() and not new.all()
            assert ops is not prev
            pairs = [(l, s) for s in range(bs.n_panels) for l in range(bs.n_panels)
                     if new[l] or new[s]]
            assert np.array_equal(_source_point_pairs(evaluated),
                                  _source_point_pairs(_pair_points(bs, 8, pairs, lame)))
        prev = ops
    assert unchanged >= 2 and partial >= 2


@pytest.mark.parametrize("lame", [False, True])
def test_assembly_reuses_nothing_it_cannot(monkeypatch, lame):
    # no panel survives refine_uniform halving h; a previous assembly with other
    # coefficients or another quad_order is ignored, and so is one of other
    # geometry under the same vertex ids: each evaluates every pair, as a
    # fresh assembly does, and gives the fresh operators
    from febe.mesh import Mesh
    from febe.presets import lshape_text
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    calls = _count_primitives(monkeypatch)
    m = load_mesh(lshape_text(4))
    bs = bem.BoundarySpace(m)
    fine = bem.BoundarySpace(refine_uniform(m, 2))      # halves h
    moved = bem.BoundarySpace(Mesh(0.9 * m.vertices, m.triangles, m.boundary_edges,
                                   m.boundary_labels))
    assert np.array_equal(moved.loop, bs.loop)
    assert np.all(bem._kept_panels(bs, fine) < 0)
    other = ExteriorCoefficients(mu=1.0, lam=0.7) if lame else ExteriorCoefficients()
    cases = [(fine, co, 8, bem.assemble_operators(bs, co)),
             (bs, co, 8, bem.assemble_operators(bs, other)),
             (bs, co, 12, bem.assemble_operators(bs, co)),
             (moved, co, 8, bem.assemble_operators(bs, co))]
    for target, coeffs, q, prev in cases:
        calls.clear()
        ops = bem.assemble_operators(target, coeffs, q, previous=prev)
        evaluated = calls[:]
        calls.clear()
        fresh = bem.assemble_operators(target, coeffs, q)
        assert ops is not prev
        _assert_same_operators(ops, fresh)
        assert np.array_equal(_source_point_pairs(evaluated), _source_point_pairs(calls))


@pytest.mark.parametrize("lame", [False, True])
def test_reordered_boundary_copies_every_pair(monkeypatch, lame):
    # the same boundary, its vertices numbered in reverse, starts its loop
    # at another panel: every panel is kept but not in its place, so every
    # pair is copied, none evaluated, and the result is a fresh assembly
    from febe.mesh import Mesh
    from febe.presets import lshape_text
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    m = load_mesh(lshape_text(4))
    last = len(m.vertices) - 1
    bs = bem.BoundarySpace(m)
    rev = bem.BoundarySpace(Mesh(m.vertices[::-1], last - m.triangles,
                                 last - m.boundary_edges, m.boundary_labels))
    old = bem._kept_panels(bs, rev)
    assert sorted(old) == list(range(bs.n_panels)) and old[0] != 0
    prev = bem.assemble_operators(bs, co)
    calls = _count_primitives(monkeypatch)
    ops = bem.assemble_operators(rev, co, previous=prev)
    assert calls == [] and ops is not prev
    monkeypatch.undo()
    _assert_same_operators(ops, bem.assemble_operators(rev, co))


# the straight-line core against the eager one ---------------------------------

_INTEGRALS = ("ilog0", "dy00", "dy01", "dy11", "s1_0", "s1_t", "s2_0", "s2_t",
              "p2_0", "p2_t", "p1_0", "p1_t", "p0_0", "p0_t", "pv0", "pvt")


def _kernel_meshes():
    """_assembly_meshes and the contact-sweep boundary."""
    from febe.presets import square_text
    meshes = _assembly_meshes()
    meshes["contact-sweep"] = refine_uniform(load_mesh(square_text(4, slip=("b",)),
                                                       scale=False), 5)
    return meshes


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _observation_points(bs, seed):
    """Every panel as the source of points on panels, at vertices and off
    the boundary: (source panels, points)."""
    rng = np.random.default_rng(seed)
    on = bs.panel_points(np.array([0.0, 0.2, 0.5, 0.9])).reshape(-1, 2)
    lo, hi = bs.nodes.min(axis=0), bs.nodes.max(axis=0)
    X = np.concatenate([on, bs.nodes, rng.uniform(lo - 0.1, hi + 0.1, size=(16, 2))])
    return np.repeat(np.arange(bs.n_panels), len(X)), np.tile(X, (bs.n_panels, 1))


@pytest.mark.parametrize("name", list(_kernel_meshes()))
def test_straight_line_primitives_match_eager_core_bit_for_bit(name):
    # every integral, asked for with all the others and alone, at on-line
    # and off-line points of every source panel, is the eager kernel's bit
    # for bit, as are the on-line masks
    from conftest import eager_primitives
    bs = bem.BoundarySpace(_kernel_meshes()[name])
    src, X = _observation_points(bs, 5)
    ref = eager_primitives(_INTEGRALS, bs, src, X)
    assert 0 < ref["online"].sum() < len(X)
    new = bem._primitives(_INTEGRALS, bs, src, X)
    assert set(new) == set(_INTEGRALS) | {"online"}
    for k in new:
        assert _same_bytes(new[k], ref[k]), k
    for k in _INTEGRALS:
        alone = bem._primitives((k,), bs, src, X)
        assert set(alone) == {k, "online"}
        assert _same_bytes(alone[k], ref[k]), k
        assert _same_bytes(alone["online"], ref["online"])


@pytest.mark.parametrize("kernel", ["laplace", "lame"])
def test_straight_line_kernel_operators_match_eager_core_bit_for_bit(monkeypatch, kernel):
    # V, K, W, the mass couplings, the pair integrals, S and both
    # potentials (at on-line and off-line points, one at a time and in a
    # batch) equal those of the eager kernel and the broadcast panel points
    # byte for byte
    from conftest import broadcast_panel_points, eager_primitives
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if kernel == "lame" else None
    for name, m in _kernel_meshes().items():
        out = []
        for eager in (False, True):
            with monkeypatch.context() as mp:
                if eager:
                    mp.setattr(bem, "_primitives", eager_primitives)
                    mp.setattr(bem.BoundarySpace, "panel_points", broadcast_panel_points)
                bs = bem.BoundarySpace(m)
                ops = bem.assemble_operators(bs, co)
                rng = np.random.default_rng(2)
                d = ops.d
                on = bs.panel_points(np.array([0.2, 0.5, 0.9])).reshape(-1, 2)
                lo, hi = bs.nodes.min(axis=0), bs.nodes.max(axis=0)
                X = np.concatenate([on, bs.nodes, rng.uniform(lo - 0.1, hi + 0.1, size=(9, 2))])
                dens = rng.normal(size=bs.n_panels * d)
                w = rng.normal(size=bs.n_nodes * d)
                out.append([getattr(ops, k) for k in _OPERATORS] + [ops.steklov_poincare()]
                           + list(bem.eval_layer_potentials(bs, co, dens, w, X))
                           + list(bem.eval_layer_potentials(bs, co, dens, w, X[:1])))
        for k, a, b in zip(_OPERATORS + ("S", "Vphi", "Kw", "Vphi(x0)", "Kw(x0)"), *out):
            assert _same_bytes(a, b), (name, k)


def test_lame_self_pass_evaluates_no_arctan(monkeypatch):
    # the self pass asks for the principal values alone, which read
    # neither arctan nor the logs of rho: with np.arctan raising, the
    # ("pv0", "pvt") call at the self rule's points and at off-line points
    # still gives the eager values
    from conftest import eager_primitives
    bs = bem.BoundarySpace(_kernel_meshes()["contact-sweep"])
    rows = _self_rule_points(bs)
    src = np.concatenate([r[0] for r in rows])
    X = np.concatenate([r[1] for r in rows])
    off_src, off_X = _observation_points(bs, 6)
    ref = [eager_primitives(("pv0", "pvt"), bs, s, x) for s, x in ((src, X), (off_src, off_X))]

    def no_arctan(*args, **kwargs):
        raise AssertionError("np.arctan evaluated")

    monkeypatch.setattr(np, "arctan", no_arctan)
    for (s, x), r in zip(((src, X), (off_src, off_X)), ref):
        new = bem._primitives(("pv0", "pvt"), bs, s, x)
        for k in ("pv0", "pvt", "online"):
            assert _same_bytes(new[k], r[k]), k
    with pytest.raises(AssertionError, match="arctan"):
        bem._primitives(("s1_0",), bs, src, X)


def test_primitives_return_no_shared_memory():
    # _table_values zeroes the K integrals in place and assembly weighs
    # every integral in place, so no two returned arrays may share memory;
    # checked for all integrals and for the sets the Laplace and Lame
    # tables and the self pass ask for
    bs = bem.BoundarySpace(_kernel_meshes()["square"])
    src, X = _observation_points(bs, 7)
    keysets = [_INTEGRALS, ("pv0", "pvt")]
    for co in (None, ExteriorCoefficients(mu=1.0, lam=1.3)):
        ker = bem._kernel_for(co)
        keysets.append(bem._table_integrals(ker, ker.terms(bs.tangents, bs.normals))[0])
    for keys in keysets:
        out = list(bem._primitives(keys, bs, src, X).items())
        for i, (k, a) in enumerate(out):
            for j, b in out[i + 1:]:
                assert not np.shares_memory(a, b), (k, j)


@pytest.mark.parametrize("lame", [False, True])
def test_primitives_are_asked_for_the_kernel_tables_sets_only(monkeypatch, lame):
    # _primitives computes three fixed sets of integrals, and every call of
    # a fresh assembly, of an assembly from a previous level's operators and
    # of the pointwise potentials asks for one of them whole: the Laplace
    # table's, the Lame table's or the principal values of the Lame self
    # pass.  A new kernel or integral fails here instead of taking a slower
    # path through the core
    co = ExteriorCoefficients(mu=1.0, lam=1.3) if lame else None
    coarse, fine = _local_refinements(4, seed=1)[3:]      # keeps 15 of 16 panels
    bs, bs_fine = bem.BoundarySpace(coarse), bem.BoundarySpace(fine)
    old = bem._kept_panels(bs, bs_fine)
    assert (old >= 0).any() and (old < 0).any()
    sets = set()
    for c in (None, ExteriorCoefficients(mu=1.0, lam=1.3)):
        ker = bem._kernel_for(c)
        sets.add(tuple(bem._table_integrals(ker, ker.terms(bs.tangents, bs.normals))[0]))
    assert sorted(map(len, sets)) == [3, 16]
    sets.add(("pv0", "pvt"))
    recorded = []
    prim = bem._primitives
    monkeypatch.setattr(bem, "_primitives",
                        lambda keys, *args: recorded.append(tuple(keys)) or prim(keys, *args))
    prev = bem.assemble_operators(bs, co)
    fresh = recorded[:]
    recorded.clear()
    bem.assemble_operators(bs_fine, co, previous=prev)
    reused = recorded[:]
    recorded.clear()
    d = prev.d
    bem.eval_layer_potentials(bs_fine, co, np.ones(bs_fine.n_panels * d),
                              np.ones(bs_fine.n_nodes * d), np.vstack([bs_fine.mids, [[0, 0]]]))
    for calls in (fresh, reused, recorded):
        assert calls and set(calls) <= sets


def test_panel_points_match_broadcast_formula():
    # the component-wise points are the broadcast formula's bit for bit,
    # on all panels and on a subset, for the outer rules and a few others
    from conftest import broadcast_panel_points
    from febe.quadrature import graded_gauss
    xga, _ = graded_gauss(levels=12, order=8)
    ts = [segment_gauss(8)[0], segment_gauss(24)[0], xga, 1.0 - xga,
          np.array([0.0, 0.2, 0.5, 0.9, 1.0]), np.array([0.5])]
    for name, m in _kernel_meshes().items():
        bs = bem.BoundarySpace(m)
        for t in ts:
            for panels in (slice(None), [0], np.arange(1, bs.n_panels, 3)):
                assert _same_bytes(bs.panel_points(t, panels),
                                   broadcast_panel_points(bs, t, panels)), name

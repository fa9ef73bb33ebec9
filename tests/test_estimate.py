import os

import numpy as np
import pytest
import scipy.sparse as sp

from febe import estimate, fem, material as mat, presets
from febe.driver import build_system
from febe.estimate import (estimate_lp, estimate_scalar_appendix, estimate_sp,
                           recover_gradient)
from febe.export import export_fields
from febe.mesh import load_mesh, refine_uniform
from febe.vi import ProblemData, solve_contact_vi, solve_layerpotential_vi, \
    solve_transmission

from conftest import (friction_bound_loop, graded_slip_system, loop_export_fields,
                      loop_indicators_csv, trace_maps)


def make(preset, p=2.0, refines=1, slip=(), solver="sp"):
    law = mat.MaterialLaw(p=p)
    m = refine_uniform(load_mesh(presets.square_text(2, slip=slip), scale=False),
                       refines)
    man = presets.DATA_PRESETS[preset][1](law)
    sys_ = build_system(m, law, man.data)
    if solver == "sp":
        if np.any(sys_.friction.F > 0):
            sol = solve_contact_vi(sys_)
        else:
            sol = solve_transmission(sys_)
    else:
        sol = solve_layerpotential_vi(sys_)
    return sys_, man, sol


def test_linear_solution_all_terms_vanish():
    sys_, man, sol = make("linear", p=3.0)
    ind = estimate_sp(sys_, sol)
    assert ind.total() < 1e-12
    for name, val in ind.parts.items():
        assert val < 1e-12, name


def test_exact_injection_leaves_only_oscillation():
    # p=2 quadratic data: interpolant is the discrete solution on this lattice;
    # volume term reflects only data (f = 0 here), jumps vanish on the interior
    sys_, man, sol = make("quadratic", p=2.0)
    ind = estimate_sp(sys_, sol)
    assert ind.parts["volume"] == pytest.approx(0.0, abs=1e-13)
    for name in ("friction_stick_slip", "friction_normal_compl",
                 "friction_sigma_n_pos", "friction_sigma_t_excess"):
        assert ind.parts[name] == 0.0
    assert ind.total() > 0         # jump/boundary terms see interpolation error


def test_full_stick_friction_terms_vanish():
    sys_, man, sol = make("stick", p=2.0, slip=("b",))
    ind = estimate_sp(sys_, sol)
    assert ind.parts["friction_stick_slip"] <= 1e-8
    assert ind.parts["friction_normal_compl"] <= 1e-8
    assert ind.parts["friction_sigma_t_excess"] <= 1e-8


def test_perturbation_increases_estimator():
    sys_, man, sol = make("quadratic", p=2.0)
    ind0 = estimate_sp(sys_, sol).total()
    rng = np.random.default_rng(0)
    grew = 0
    Tr, Es = trace_maps(sys_)
    for _ in range(5):
        import dataclasses
        pert = dataclasses.replace(sol)
        pert.u = sol.u + 0.1 * rng.normal(size=len(sol.u))
        pert.w = Tr @ pert.u + Es @ pert.z
        grew += estimate_sp(sys_, pert).total() > 2 * ind0
    assert grew == 5


def test_zero_data_zero_estimator():
    law = mat.MaterialLaw(p=2.0)
    m = load_mesh(presets.square_text(2), scale=False)
    sys_ = build_system(m, law, ProblemData())
    sol = solve_transmission(sys_)
    ind = estimate_sp(sys_, sol)
    assert ind.total() <= 1e-20


def test_lp_consistency_term_small_for_lp_solution():
    sys_, man, sol = make("quadratic", p=2.0, solver="lp")
    ind = estimate_lp(sys_, sol)
    # phi solves the discrete V-equation: pointwise residual is only the
    # inter-space projection gap, far below the other terms
    assert ind.parts["consistency"] <= 1e-3 * max(ind.total(), 1e-30)


def test_lp_total_comparable_to_sp_total():
    sys_, man, sol_lp = make("quadratic", p=2.0, solver="lp")
    ind_lp = estimate_lp(sys_, sol_lp)
    sol_sp = solve_transmission(sys_)
    ind_sp = estimate_sp(sys_, sol_sp)
    ratio = ind_lp.total() / ind_sp.total()
    assert 0.1 <= ratio <= 10.0


def test_estimator_decreases_under_refinement():
    # one level = two bisection sweeps (halves h)
    totals = []
    for r in (0, 2, 4):
        sys_, man, sol = make("quadratic", p=2.0, refines=r)
        totals.append(estimate_sp(sys_, sol).total())
    assert totals[1] < totals[0]
    assert totals[2] < totals[1]


def test_element_indicator_sums_to_total():
    sys_, man, sol = make("stick", p=2.0, slip=("b",))
    ind = estimate_sp(sys_, sol)
    per_elem = ind.element_indicator()
    assert per_elem.sum() == pytest.approx(ind.total(), rel=1e-10)
    assert np.all(per_elem >= -1e-15)


_RESIDUAL_ROWS = (("element", "volume"), ("edge", "jump"),
                  ("boundary", "boundary_residual"), ("boundary", "friction_stick_slip"),
                  ("boundary", "friction_normal_compl"), ("boundary", "friction_sigma_n_pos"),
                  ("boundary", "friction_sigma_t_excess"), ("boundary", "consistency"))
_APPENDIX_ROWS = (("element", "grad_recovery"), ("element", "data_oscillation"),
                  ("boundary", "consistency"), ("boundary", "boundary_residual"),
                  ("boundary", "friction_excess"), ("boundary", "friction_slack_slip"),
                  ("boundary", "friction_compl"))


@pytest.mark.parametrize("case", ["sp-scalar", "lp-scalar", "appendix-scalar",
                                  "sp-vector", "lp-vector"])
def test_term_table_order_shares_and_total(case):
    # transition data (scalar p=3) or stick data under a bound small enough
    # to slip (vector p=2) on a graded mesh with two slip sides, solved by
    # the estimator's own formulation
    which, kind = case.split("-")
    sys_ = (graded_slip_system(True, 2.0, lambda x: np.full(len(x), 0.002))
            if kind == "vector" else graded_slip_system(False, 3.0))
    sol = (solve_layerpotential_vi if which == "lp" else solve_contact_vi)(sys_)
    fn = {"sp": estimate_sp, "lp": estimate_lp, "appendix": estimate_scalar_appendix}[which]
    ind = fn(sys_, sol)
    rows = _APPENDIX_ROWS if which == "appendix" else _RESIDUAL_ROWS
    names = [n for _, n in rows]
    assert list(ind.parts) == names and list(ind.powers) == names
    sizes = {"element": len(sys_.space.mesh.triangles), "edge": len(ind.edge_index),
             "boundary": sys_.bspace.n_panels}
    for k in ("element", "edge", "boundary"):
        shares = getattr(ind, k + "_terms")
        assert list(shares) == [n for kk, n in rows if kk == k]
        for name, share in shares.items():
            assert share.shape == (sizes[k],)
            value = ind.term_value(name)
            assert abs(share.sum() - value) <= 1e-13 * value, name
    assert any(ind.parts[n] > 0 for n in names if n.startswith("friction"))
    assert abs(ind.element_indicator().sum() - ind.total()) <= 1e-13 * ind.total()


# -- gradient recovery / appendix estimator ---------------------------------

def test_recovery_exact_on_linears(unit_square):
    space = fem.FESpace(unit_square)
    v = unit_square.vertices
    u = 1.0 + 2.0 * v[:, 0] - 0.5 * v[:, 1]
    G = recover_gradient(space, u)
    assert G == pytest.approx(np.tile([2.0, -0.5], (len(G), 1)))


def test_recovery_single_element():
    import conftest
    m = load_mesh("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 T\n1 2 T\n2 0 T", scale=False)
    space = fem.FESpace(m)
    u = np.array([0.0, 1.0, 2.0])
    G = recover_gradient(space, u)
    g = space.gradients(u)[0]
    assert G == pytest.approx(np.tile(g, (3, 1)))


def test_recovery_superconvergence():
    law = mat.MaterialLaw(p=2.0)
    m = refine_uniform(load_mesh(presets.square_text(4), scale=False), 1)
    space = fem.FESpace(m)
    exact = lambda p: p[:, 0] ** 2 + 0.5 * p[:, 1] ** 2
    grad = lambda p: np.column_stack([2 * p[:, 0], p[:, 1]])
    u = exact(m.vertices)
    G = recover_gradient(space, u)
    from febe.quadrature import QuadratureRule
    rule = QuadratureRule(4)
    verts = m.vertices[m.triangles]
    pts = rule.points(verts)
    gq = grad(pts.reshape(-1, 2)).reshape(pts.shape[0], -1, 2)
    raw = space.gradients(u)[:, None, :] - gq
    Gq = np.einsum("qk,tkc->tqc", rule.bary, G[m.triangles]) - gq
    areas = space.areas
    err_raw = np.einsum("tqc,tqc,q,t->", raw, raw, rule.weights, areas)
    err_rec = np.einsum("tqc,tqc,q,t->", Gq, Gq, rule.weights, areas)
    assert err_rec < err_raw


def test_quasinorm_reduction_p2():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=2), rng.normal(size=2)
    G = estimate._kernel(2.0, 0.0, np.linalg.norm(a), np.linalg.norm(b))
    assert G == pytest.approx(np.sum(b * b))


def test_appendix_eta_gr_zero_on_linear():
    sys_, man, sol = make("linear", p=3.0)
    ind = estimate_scalar_appendix(sys_, sol)
    assert ind.parts["grad_recovery"] <= 1e-14


def test_appendix_eta_f_zero_for_elementwise_constant_f():
    law = mat.MaterialLaw(p=3.0)
    m = refine_uniform(load_mesh(presets.square_text(2), scale=False), 1)
    man = presets.scalar_linear(law)
    data = ProblemData(f=lambda p: np.full(len(p), 0.7), u0=man.data.u0,
                       t0=man.data.t0)
    sys_ = build_system(m, law, data)
    sol = solve_transmission(sys_)
    ind = estimate_scalar_appendix(sys_, sol)
    assert ind.parts["data_oscillation"] <= 1e-14


def test_appendix_requires_scalar_p_ge_2():
    sys_, man, sol = make("quadratic", p=2.0)
    import dataclasses
    law15 = mat.MaterialLaw(p=1.5)
    sys_.law = law15
    with pytest.raises(ValueError):
        estimate_scalar_appendix(sys_, sol)


@pytest.mark.parametrize("case", ["lp-without-phi", "appendix-on-vector"])
def test_estimator_input_rejected(case):
    if case == "lp-without-phi":
        sys_, _, sol = make("quadratic")
        assert sol.phi is None
        with pytest.raises(ValueError, match="layer-potential estimator needs the phi density"):
            estimate_lp(sys_, sol)
    else:
        law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
        m = load_mesh(presets.square_text(2), scale=False)
        sys_ = build_system(m, law, presets.vector_smooth(law).data)
        with pytest.raises(ValueError, match="appendix estimator is scalar-only"):
            estimate_scalar_appendix(sys_, solve_transmission(sys_))


def test_appendix_total_on_stick():
    sys_, man, sol = make("stick", p=3.0, slip=("b",))
    ind = estimate_scalar_appendix(sys_, sol)
    assert ind.total() > 0
    assert ind.parts["friction_compl"] <= 1e-8
    assert ind.parts["friction_excess"] <= 1e-8


def test_indicators_csv(tmp_path):
    sys_, man, sol = make("stick", p=2.0, slip=("b",))
    ind = estimate_sp(sys_, sol)
    path = tmp_path / "ind.csv"
    estimate.indicators_csv(ind, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "kind,term,entity,value,power"
    assert len(lines) > 10


def test_vector_estimators_on_stick():
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    m = refine_uniform(load_mesh(presets.square_text(2, slip=("b",)), scale=False), 1)
    man = presets.vector_stick(law)
    sys_ = build_system(m, law, man.data)
    sol = solve_contact_vi(sys_)
    ind = estimate_sp(sys_, sol)
    assert ind.total() > 0
    assert ind.parts["friction_stick_slip"] <= 1e-7
    assert ind.parts["friction_sigma_t_excess"] <= 1e-7
    assert np.all(ind.element_indicator() >= -1e-15)
    sol_lp = solve_layerpotential_vi(sys_)
    ind_lp = estimate_lp(sys_, sol_lp)
    assert ind_lp.total() > 0
    assert 0.05 <= ind_lp.total() / ind.total() <= 20.0


def test_uniform_estimator_decreases_four_levels():
    totals = []
    for r in (0, 2, 4, 6):
        sys_, man, sol = make("quadratic", p=2.0, refines=r)
        totals.append(estimate_sp(sys_, sol).total())
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_consistency_term_one_kernel_pass(monkeypatch):
    # V phi and K_pv g at all 3L consistency points from one pass over the
    # source panels, so each panel's integrals are evaluated once at each
    # point, in calls of at most _BLOCK_POINTS points or one panel
    from febe import bem
    sys_, man, sol = make("transition", p=1.5, slip=("b",))
    calls = []
    prim = bem._primitives

    def counted(keys, bspace, src, X):
        calls.append(src)
        return prim(keys, bspace, src, X)

    monkeypatch.setattr(bem, "_primitives", counted)
    estimate_sp(sys_, sol)
    L = sys_.bspace.n_panels
    assert sum(len(src) for src in calls) == 3 * L * L
    assert np.array_equal(np.bincount(np.concatenate(calls), minlength=L), np.full(L, 3 * L))
    assert all(len(src) <= bem._BLOCK_POINTS or len(np.unique(src)) == 1 for src in calls)


@pytest.mark.parametrize("vector", [False, True])
def test_boundary_terms_match_panel_loops(vector):
    # per-panel loops as the reference; the batched consistency and
    # dual-norm terms do the same arithmetic, so they agree bit for bit
    from febe.bem import eval_double_layer_pv, eval_single_layer
    from febe.quadrature import segment_gauss
    if vector:
        law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
        m = refine_uniform(load_mesh(presets.square_text(2, slip=("b",)), scale=False), 1)
        sys_ = build_system(m, law, presets.vector_stick(law).data)
        sol = solve_contact_vi(sys_)
    else:
        sys_, _, sol = make("transition", p=1.5, slip=("b",))
    bs, ops, d = sys_.bspace, sys_.ops, sys_.d
    g = sol.w - sys_.U0
    phi = np.linalg.solve(ops.V, -((ops.Mb - ops.K) @ g))
    lifted = np.random.default_rng(4).normal(size=bs.n_nodes * d)
    x3, w3 = segment_gauss(3)
    x6, w6 = segment_gauss(6)
    expos = (4.0 / 3.0, 1.5, 2.0, 3.0)
    cons = np.zeros(bs.n_panels)
    dual = np.zeros((len(expos), bs.n_panels))
    for l in range(bs.n_panels):
        Le = bs.lengths[l]
        pts = bs.A[l][None, :] + x3[:, None] * (bs.B[l] - bs.A[l])[None, :]
        a, b = g.reshape(-1, d)[l], g.reshape(-1, d)[bs.panel_end[l]]
        gl = a[None, :] * (1 - x3)[:, None] + b[None, :] * x3[:, None]
        vals = (eval_single_layer(bs, ops.coeffs, phi, pts) + 0.5 * gl
                - eval_double_layer_pv(bs, ops.coeffs, g, pts))
        cons[l] = Le * Le * np.sum(w3 * np.linalg.norm(vals, axis=1) ** 2)
        a = lifted.reshape(-1, d)[l]
        b = lifted.reshape(-1, d)[bs.panel_end[l]]
        mag = np.linalg.norm(a[None, :] * (1 - x6)[:, None] + b[None, :] * x6[:, None], axis=1)
        for k, e in enumerate(expos):
            dual[k, l] = Le * Le * np.sum(w6 * mag ** e)
    assert np.array_equal(estimate._consistency_term(sys_, sol), cons)
    for k, e in enumerate(expos):
        assert np.array_equal(estimate._dual_norm_edgewise(sys_, lifted, e), dual[k])


# -- boundary terms: the per-panel and per-edge loops they replace ----------

def _random_solution(system, seed, u_scale=1.0):
    from febe.vi import DiscreteSolution
    rng = np.random.default_rng(seed)
    x = rng.normal(size=system.nU + system.nZ)
    x[:system.nU] *= u_scale
    U, Z = x[:system.nU], x[system.nU:]
    Tr, Es = trace_maps(system)
    return DiscreteSolution(u=U, z=Z, v=Es @ Z, w=sp.hstack([Tr, Es]).tocsr() @ x)


def _edge_tractions_loop(system, sig, panel_owner):
    bs = system.bspace
    tr = np.zeros((bs.n_panels, system.d))
    for l, k in enumerate(panel_owner):
        tr[l] = sig[k] @ bs.normals[l]
    return tr


def _jump_loop(system, sig, edges, owners):
    """Edge lengths and jump magnitudes, one edge at a time."""
    p = system.space.mesh.vertices
    lens, jumps = [], []
    for (a, b), (t0, t1) in zip(edges, owners):
        t = p[b] - p[a]
        L = np.linalg.norm(t)
        nu = np.array([t[1], -t[0]]) / L
        if system.d == 1:
            jumps.append(np.abs((sig[t0] - sig[t1]) @ nu))
        else:
            jumps.append(np.linalg.norm((sig[t0] - sig[t1]) @ nu))
        lens.append(L)
    return np.asarray(lens), np.asarray(jumps)


def _friction_loop(system, sol, sigma_n, sigma_t):
    from febe.quadrature import segment_gauss
    bs, d = system.bspace, system.d
    rp = system.law.r / (system.law.r - 1.0)
    xq, wq = segment_gauss(6)
    v = sol.v.reshape(bs.n_nodes, d)
    stick, compl, pos_n, pos_t = (np.zeros(bs.n_panels) for _ in range(4))
    for l in np.nonzero(bs.slip_panels())[0]:
        Fv = friction_bound_loop(system, l, xq)
        vv = v[l][None, :] * (1 - xq)[:, None] \
            + v[bs.panel_end[l]][None, :] * xq[:, None]
        if d == 1:
            vt, vn = vv[:, 0], np.zeros(len(xq))
        else:
            nu = bs.normals[l]
            vt, vn = vv @ np.array([-nu[1], nu[0]]), vv @ nu
        Le = bs.lengths[l]
        stick[l] = max(Le * np.sum(wq * (Fv * np.abs(vt) + sigma_t[l] * vt)), 0.0)
        compl[l] = Le * np.sum(wq * np.maximum(sigma_n[l] * vn, 0.0))
        pos_n[l] = Le * Le * np.sum(wq * np.maximum(sigma_n[l], 0.0) ** rp)
        pos_t[l] = Le * Le * np.sum(wq * np.maximum(np.abs(sigma_t[l]) - Fv, 0.0) ** rp)
    return stick, compl, pos_n, pos_t


def _assert_close(a, b, rtol=1e-14):
    assert np.abs(a - b).max(initial=0.0) <= rtol * np.abs(b).max(initial=0.0)


@pytest.mark.parametrize("case", ["scalar-p1.5", "scalar-p3-nodal", "vector-p2",
                                  "vector-p1.5-nodal"])
def test_residual_boundary_terms_match_loops(case):
    # the loops are the reference; the array versions do the same arithmetic,
    # except that an array ** may round differently from a scalar ** (the jump
    # power and the sigma_n positive part), which stays within 1e-14
    vector = case.startswith("vector")
    p = float(case.split("-p")[1].split("-")[0])
    sys_ = graded_slip_system(vector, p, "nodal" if case.endswith("nodal") else "preset")
    sol = _random_solution(sys_, 13)
    edges, owners, panel_owner = estimate._incidence(sys_)
    sig = mat.stress(sys_.law, sys_.space.strains(sol.u))

    tr = estimate._edge_tractions(sys_, sig, panel_owner)[0]
    assert np.array_equal(tr, _edge_tractions_loop(sys_, sig, panel_owner))

    pp = sys_.law.p_prime
    lens, jumps = _jump_loop(sys_, sig, edges, owners)
    jump = estimate._jump_term(sys_, sig, edges, owners)
    assert np.array_equal(jump, lens * jumps ** pp * lens)
    _assert_close(jump, np.array([L * j ** pp * L for L, j in zip(lens, jumps)]))

    # random tractions so that every positive part and maximum is taken
    rng = np.random.default_rng(14)
    sigma_n = rng.normal(size=sys_.bspace.n_panels)
    sigma_t = rng.normal(size=sys_.bspace.n_panels)
    quad = estimate._slip_quadrature(sys_, sol)
    new = estimate._friction_terms(sys_, sigma_n, sigma_t, quad)
    ref = _friction_loop(sys_, sol, sigma_n, sigma_t)
    stick, compl, pos_n, pos_t = new
    assert np.array_equal(stick, ref[0])
    assert np.array_equal(compl, ref[1])
    _assert_close(pos_n, ref[2])
    assert np.array_equal(pos_t, ref[3])
    assert all(np.any(a > 0) for a in (stick, pos_n, pos_t))
    assert np.any(compl > 0) == vector


@pytest.mark.parametrize("friction", ["preset", "nodal"])
def test_appendix_friction_terms_match_panel_loop(friction):
    from febe.quadrature import segment_gauss
    sys_ = graded_slip_system(False, 3.0, friction)
    sol = _random_solution(sys_, 15, u_scale=0.1)      # |sigma_t| on both sides of F
    ind = estimate_scalar_appendix(sys_, sol)
    sigma_t = estimate._edge_tractions(
        sys_, mat.stress(sys_.law, sys_.space.strains(sol.u)),
        estimate._incidence(sys_)[2])[2]
    bs = sys_.bspace
    xq, wq = segment_gauss(6)
    v = sol.v.reshape(bs.n_nodes)
    ref = {k: np.zeros(bs.n_panels) for k in
           ("friction_excess", "friction_slack_slip", "friction_compl")}
    for l in np.nonzero(bs.slip_panels())[0]:
        g = friction_bound_loop(sys_, l, xq)
        vv = v[l] * (1 - xq) + v[bs.panel_end[l]] * xq
        s, Le = sigma_t[l], bs.lengths[l]
        ref["friction_excess"][l] = Le * Le * np.sum(wq * np.maximum(np.abs(s) - g, 0.0) ** 2)
        ref["friction_slack_slip"][l] = Le * np.sum(
            wq * np.abs(np.minimum(np.abs(s) - g, 0.0)) * np.abs(vv))
        ref["friction_compl"][l] = Le * np.sum(wq * np.maximum(s * vv, 0.0))
    for name, raw in ref.items():
        assert np.any(raw > 0)
        assert ind.parts[name] == float(np.sum(raw))
        assert np.array_equal(ind.boundary_terms[name],
                              estimate._term_share(raw, ind.powers[name]))


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("with_indicators", [False, True])
def test_block_writers_match_loop_writers(tmp_path, vector, with_indicators):
    # the same solution through the block-formatted and the per-value writers
    sys_ = graded_slip_system(vector)
    sol = solve_contact_vi(sys_)
    sol.u[::7] = -0.0                   # signed zeros print as "-0" in both
    sol.u[1::7] *= 1e-300
    inds = [estimate_sp(sys_, sol)] + ([] if vector else [estimate_scalar_appendix(sys_, sol)])
    indicators = inds[0].element_indicator() if with_indicators else None
    export_fields(sol, sys_, tmp_path / "block", indicators=indicators)
    loop_export_fields(sol, sys_, tmp_path / "loop", indicators=indicators)
    for k, ind in enumerate(inds):
        estimate.indicators_csv(ind, tmp_path / "block" / ("indicators%d.csv" % k))
        loop_indicators_csv(ind, tmp_path / "loop" / ("indicators%d.csv" % k))
    names = sorted(os.listdir(tmp_path / "loop"))
    assert names == sorted(os.listdir(tmp_path / "block"))
    assert len(names) == 3 + len(inds)
    # estimate_sp writes edge rows, the scalar appendix estimator none
    assert inds[0].edge_terms and (vector or not inds[1].edge_terms)
    for name in names:
        assert ((tmp_path / "block" / name).read_bytes()
                == (tmp_path / "loop" / name).read_bytes()), name

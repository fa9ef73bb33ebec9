import numpy as np
import pytest

from febe import estimate, fem, material as mat, presets
from febe.driver import build_system
from febe.estimate import (estimate_lp, estimate_scalar_appendix, estimate_sp,
                           quasinorm_kernel, recover_gradient)
from febe.mesh import load_mesh, refine_uniform
from febe.vi import ProblemData, solve_contact_vi, solve_layerpotential_vi, \
    solve_transmission


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
    for _ in range(5):
        import dataclasses
        pert = dataclasses.replace(sol)
        pert.u = sol.u + 0.1 * rng.normal(size=len(sol.u))
        pert.w = sys_.Tr @ pert.u + sys_.Es @ pert.z
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


# -- gradient recovery / appendix estimator ---------------------------------

def test_recovery_exact_on_linears(unit_square):
    space = fem.FESpace(unit_square)
    u = space.interpolate(lambda p: 1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1])
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
    u = space.interpolate(exact)
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
    assert quasinorm_kernel(2.0, 0.0, a, b) == pytest.approx(np.sum(b * b))


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


def test_consistency_term_two_kernel_passes(monkeypatch):
    # V phi and K_pv g at all 3L consistency points: one pass over the source
    # panels each, so 2L evaluations of the panel integrals per estimate
    from febe import bem
    sys_, man, sol = make("transition", p=1.5, slip=("b",))
    calls = []
    prim = bem._primitives

    def counted(*args):
        calls.append(len(args[-1]))
        return prim(*args)

    monkeypatch.setattr(bem, "_primitives", counted)
    estimate_sp(sys_, sol)
    L = sys_.bspace.n_panels
    assert calls == [3 * L] * (2 * L)


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
        a, b = g.reshape(-1, d)[bs.panel_start[l]], g.reshape(-1, d)[bs.panel_end[l]]
        gl = a[None, :] * (1 - x3)[:, None] + b[None, :] * x3[:, None]
        vals = (eval_single_layer(bs, ops.coeffs, phi, pts) + 0.5 * gl
                - eval_double_layer_pv(bs, ops.coeffs, g, pts))
        cons[l] = Le * Le * np.sum(w3 * np.linalg.norm(vals, axis=1) ** 2)
        a = lifted.reshape(-1, d)[bs.panel_start[l]]
        b = lifted.reshape(-1, d)[bs.panel_end[l]]
        mag = np.linalg.norm(a[None, :] * (1 - x6)[:, None] + b[None, :] * x6[:, None], axis=1)
        for k, e in enumerate(expos):
            dual[k, l] = Le * Le * np.sum(w6 * mag ** e)
    assert np.array_equal(estimate._consistency_term(sys_, sol), cons)
    for k, e in enumerate(expos):
        assert np.array_equal(estimate._dual_norm_edgewise(sys_, lifted, e), dual[k])

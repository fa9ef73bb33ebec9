"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from febe import bem, material as mat, presets
from febe.adapt import mark
from febe.config import RunConfig
from febe.driver import build_system
from febe.estimate import estimate_scalar_appendix, estimate_sp
from febe.mesh import load_mesh, refine_uniform
from febe.oracle import oracle_vi
from febe.study import (boundary_energy_error, build_from_config,
                        convergence_study, estimate_from_config,
                        gradient_error_lp, mesh_from_config, solve_from_config)
from febe.vi import (ProblemData, kkt_residuals, solve_contact_vi,
                     solve_layerpotential_vi, solve_transmission)

from conftest import (circle_mesh, monotonicity_gap, read_fields_csv,
                      square_mesh_text, tangent_apply)


def _report(num, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


# -- 1 ---------------------------------------------------------------------

def test_criterion_1_material_bounds():
    t0 = time.time()
    rng = np.random.default_rng(201)
    ok = True
    for p in (1.2, 1.5, 2.0, 3.0, 4.0):
        for delta in (0.0, 0.5, 1.0):
            law = mat.MaterialLaw(p=p, delta=delta)
            x = rng.uniform(-1, 1, size=(10000, 2))
            y = rng.uniform(-1, 1, size=(10000, 2))
            lhs, lo, up = monotonicity_gap(law, x, y)
            keep = lo > 1e-14
            clo = np.min(lhs[keep] / lo[keep])
            keep = up > 1e-14
            cup = np.max(lhs[keep] / up[keep])
            ok &= bool(1e-3 <= clo and cup <= 1e3)
            # tangent vs central differences at moderate arguments
            xs = rng.uniform(-1, 1, size=(50, 2))
            xs[np.linalg.norm(xs, axis=1) < 5e-2] += 0.5
            h = rng.normal(size=(50, 2))
            t = 1e-6
            fd = (mat.stress(law, xs + t * h) - mat.stress(law, xs - t * h)) / (2 * t)
            an = tangent_apply(law, xs, h)
            rel = (np.linalg.norm(an - fd, axis=1)
                   / np.maximum(np.linalg.norm(fd, axis=1), 1e-8))
            ok &= bool(np.max(rel) <= 1e-6)
    dt = time.time() - t0
    _report(1, ok and dt < 10.0,
            "two-sided pointwise bounds + tangent FD check (%.1f s)" % dt)


# -- 2 ---------------------------------------------------------------------

def test_criterion_2_bem_operators():
    t0 = time.time()
    ok = True
    co = mat.ExteriorCoefficients(mu=1.0, lam=1.3)
    sq = load_mesh(square_mesh_text(lo=0.0, hi=1.0))       # triggers scaling
    assert sq.scale_factor < 1
    circ = circle_mesh(32, 0.4)
    for mesh in (sq, circ):
        bs = bem.BoundarySpace(mesh)
        for coeffs in (None, co):
            ops = bem.assemble_operators(bs, coeffs)
            evV = np.linalg.eigvalsh(ops.V)
            evW = np.linalg.eigvalsh(ops.W)
            ok &= bool(evV.min() > 0)
            ok &= bool(evW.min() >= -1e-10)
            kdim = 1 if coeffs is None else 3
            ok &= bool(np.all(np.abs(evW[:kdim]) < 1e-9))
            ok &= bool(evW[kdim] > 1e-6)                   # complement coercive
            for l in range(bs.n_panels):
                a = bs.lengths[l]
                exact = a * a / (2 * np.pi) * (1.5 - np.log(a))
                if coeffs is None:
                    ok &= bool(abs(ops.V[l, l] - exact) <= 1e-8 * abs(exact))
    dt = time.time() - t0
    _report(2, ok and dt < 30.0,
            "V spd, W psd with rigid/constant kernel, analytic diagonal (%.1f s)" % dt)


# -- 3 ---------------------------------------------------------------------

def test_criterion_3_steklov_spectrum():
    import scipy.linalg as sla
    bs = bem.BoundarySpace(circle_mesh(256, 0.4))
    ops = bem.assemble_operators(bs, None)
    S = ops.steklov_poincare()
    th = np.arctan2(bs.nodes[:, 1], bs.nodes[:, 0])
    ok = True
    for n in (1, 2, 3):
        c = np.cos(n * th)
        rq = (c @ S @ c) / (c @ ops.M1 @ c)
        ok &= bool(abs(rq - n / 0.4) <= 0.03 * n / 0.4)
    mins = []
    for nseg in (32, 64, 128):
        b2 = bem.BoundarySpace(circle_mesh(nseg, 0.4))
        o2 = bem.assemble_operators(b2, None)
        ev = sla.eigh(o2.steklov_poincare(), o2.M1, eigvals_only=True)
        mins.append(ev.min())
    ok &= bool(max(mins) - min(mins) <= 0.2 * max(mins))
    _report(3, ok, "circle DtN Rayleigh quotients within 3%%, coercivity drift "
            "%.1f%%" % (100 * (max(mins) - min(mins)) / max(mins)))


# -- 4 ---------------------------------------------------------------------

def test_criterion_4_vi_exactness():
    t0 = time.time()
    rng = np.random.default_rng(404)
    ok = True
    n_inst = 0
    law_s = mat.MaterialLaw(p=2.0)
    law_v = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    mesh = load_mesh(presets.square_text(4, slip=("b",)), scale=False)
    for trial in range(12):
        c = rng.normal(size=5)
        data = ProblemData(
            f=lambda p, c=c: c[0] + c[1] * p[:, 0] + c[2] * p[:, 1],
            u0=lambda p, c=c: 0.4 * c[3] * p[:, 0] * p[:, 1],
            t0=lambda p, nv, c=c: c[4] * p[:, 0] * nv[:, 0] - c[0] * nv[:, 1],
            friction=lambda p, c=c: 0.03 + 0.03 * abs(c[2]) * (p[:, 0] - 0.6))
        sys_ = build_system(mesh, law_s, data)
        sol = solve_contact_vi(sys_)
        val, x = oracle_vi(sys_)
        ok &= bool(abs(sol.objective - val) <= 1e-8 * max(1.0, abs(val)))
        zt_s, zt_o = sol.z[sys_.idx_zt], x[sys_.nU:][sys_.idx_zt]
        stick_s = np.abs(zt_s) < 1e-7
        stick_o = np.abs(zt_o) < 1e-7
        ok &= bool(np.all(stick_s == stick_o))
        ok &= bool(np.all(np.sign(zt_s[~stick_s]) == np.sign(zt_o[~stick_o])))
        n_inst += 1
    for trial in range(8):
        c = rng.normal(size=3)
        data = ProblemData(
            f=lambda p, c=c: np.column_stack([c[0] * np.ones(len(p)),
                                              c[1] * p[:, 0]]),
            u0=lambda p, c=c: np.column_stack([0.2 * c[2] * p[:, 1],
                                               -0.1 * c[0] * p[:, 0]]),
            t0=None,
            friction=lambda p, c=c: 0.02 + 0.02 * abs(c[1]) * np.ones(len(p)))
        sys_ = build_system(mesh, law_v, data)
        sol = solve_contact_vi(sys_)
        val, x = oracle_vi(sys_)
        ok &= bool(abs(sol.objective - val) <= 1e-8 * max(1.0, abs(val)))
        vn_s, vn_o = sol.z[sys_.idx_zn], x[sys_.nU:][sys_.idx_zn]
        ok &= bool(np.all((vn_s > -1e-7) == (vn_o > -1e-7)))
        n_inst += 1
    dt = time.time() - t0
    _report(4, ok and n_inst == 20 and dt < 60.0,
            "%d instances vs enumeration oracle (%.1f s)" % (n_inst, dt))


# -- 5 ---------------------------------------------------------------------

def test_criterion_5_kkt_certificate():
    ok = True
    cases = [("stick", 2.0, ("b",)), ("transition", 2.0, ("b",)),
             ("stick", 3.0, ("b",)), ("transition", 1.5, ("b",)),
             ("stick-vec", 2.0, ("b",))]
    worst = 0.0
    for preset, p, slip in cases:
        mode = mat.MODE_MATRIX if preset.endswith("vec") else mat.MODE_VECTOR
        law = mat.MaterialLaw(p=p, mode=mode)
        m = refine_uniform(load_mesh(presets.square_text(2, slip=slip),
                                     scale=False), 2)
        man = presets.DATA_PRESETS[preset][1](law)
        sys_ = build_system(m, law, man.data)
        sol = solve_contact_vi(sys_)
        tol = 1e-6 if p == 2.0 else 1e-5
        res = kkt_residuals(sol, sys_)
        worst = max(worst, max(res.values()) / tol)
        ok &= bool(all(v <= tol for v in res.values()))
        ok &= bool(sol.converged)
    _report(5, ok, "five Tresca conditions on all contact solves "
            "(worst %.2f of tolerance)" % worst)


# -- 6 ---------------------------------------------------------------------

def test_criterion_6_formulation_equivalence():
    ok = True
    # stabilized == nonstabilized
    for preset, mode in (("stick-vec", mat.MODE_MATRIX),
                         ("transition", mat.MODE_VECTOR)):
        law = mat.MaterialLaw(p=2.0, mode=mode)
        m = refine_uniform(load_mesh(presets.square_text(2, slip=("b",)),
                                     scale=False), 1)
        man = presets.DATA_PRESETS[preset][1](law)
        sys_ = build_system(m, law, man.data)
        a = solve_layerpotential_vi(sys_, stabilized=False)
        b = solve_layerpotential_vi(sys_, stabilized=True)
        scale = max(1.0, np.abs(a.u).max())
        ok &= bool(np.abs(a.u - b.u).max() <= 1e-8 * scale)
        ok &= bool(np.abs(a.z - b.z).max() <= 1e-8)
        ok &= bool(np.abs(a.phi - b.phi).max() <= 1e-8 * max(1, np.abs(a.phi).max()))
    # S_h-formulation vs Y^p-formulation on p=2 transmission
    law = mat.MaterialLaw(p=2.0)
    m = refine_uniform(load_mesh(presets.square_text(2), scale=False), 2)
    man = presets.scalar_quadratic(law)
    sys_ = build_system(m, law, man.data)
    sp_sol = solve_transmission(sys_)
    lp_sol = solve_layerpotential_vi(sys_)
    scale = max(1.0, np.abs(sp_sol.u).max())
    ok &= bool(np.abs(sp_sol.u - lp_sol.u).max() <= 1e-6 * scale)
    _report(6, ok, "stabilized == plain and Steklov == layer-potential")


# -- 7 ---------------------------------------------------------------------

def test_criterion_7_a_priori_rates():
    t0 = time.time()
    cfg = RunConfig()
    cfg.values.update({"data.preset": "quadratic", "mesh.n": 2,
                       "material.p": 2.0})
    rows = convergence_study(cfg, 4, "uniform")
    rates = [r["rate"] for r in rows[1:]]
    ok = bool(all(0.9 <= r <= 1.1 for r in rates))
    cfg.values["material.p"] = 3.0
    rows3 = convergence_study(cfg, 4, "uniform")
    errs = [r["err_grad"] for r in rows3]
    ok &= bool(all(b < a for a, b in zip(errs, errs[1:])))
    ok &= bool(all(r["rate"] > 0 for r in rows3[1:]))
    dt = time.time() - t0
    _report(7, ok and dt < 300.0,
            "p=2 rate %s, p=3 monotone decrease (%.1f s)"
            % (["%.3f" % r for r in rates], dt))


# -- 8 ---------------------------------------------------------------------

def test_criterion_8_a_posteriori_reliability():
    ok = True
    for p in (2.0, 3.0):
        cfg = RunConfig()
        cfg.values.update({"data.preset": "quadratic", "mesh.n": 2,
                           "material.p": p})
        mesh = mesh_from_config(cfg)
        ratios = []
        for lvl in range(4):
            system, man = build_from_config(cfg, mesh)
            sol = solve_from_config(cfg, system)
            ind = estimate_from_config(cfg, system, sol)
            q = system.law.q
            eq = (gradient_error_lp(system, man, sol) ** q
                  + boundary_energy_error(system, man, sol) ** q)
            ratios.append(eq / ind.total())
            mesh = refine_uniform(mesh, 2)
        C = ratios[0]
        ok &= bool(all(r <= 2 * C for r in ratios[1:]))
    # eta_gr = 0 on globally linear solutions
    law = mat.MaterialLaw(p=3.0)
    m = refine_uniform(load_mesh(presets.square_text(2), scale=False), 1)
    man = presets.scalar_linear(law)
    sys_ = build_system(m, law, man.data)
    sol = solve_transmission(sys_)
    ind = estimate_scalar_appendix(sys_, sol)
    ok &= bool(ind.parts["grad_recovery"] <= 1e-14)
    # eta_f = 0 for elementwise-constant f
    data = ProblemData(f=lambda p: np.full(len(p), 0.4), u0=man.data.u0,
                       t0=man.data.t0)
    sys2 = build_system(m, law, data)
    sol2 = solve_transmission(sys2)
    ind2 = estimate_scalar_appendix(sys2, sol2)
    ok &= bool(ind2.parts["data_oscillation"] <= 1e-14)
    # friction terms vanish on a verified full-stick solve
    law = mat.MaterialLaw(p=2.0)
    m = refine_uniform(load_mesh(presets.square_text(2, slip=("b",)),
                                 scale=False), 1)
    man = presets.scalar_stick(law)
    sys3 = build_system(m, law, man.data)
    sol3 = solve_contact_vi(sys3)
    assert np.abs(sol3.z).max() < 3e-8          # verified stick
    ind3 = estimate_sp(sys3, sol3)
    for name in ("friction_stick_slip", "friction_normal_compl",
                 "friction_sigma_t_excess"):
        ok &= bool(ind3.parts[name] <= 1e-8)
    _report(8, ok, "error^q <= 2C eta on levels 1-3; eta_gr, eta_f, friction "
            "terms vanish where required")


# -- 9 ---------------------------------------------------------------------

def test_criterion_9_adaptivity_localization():
    # marks cluster at the stick-slip transition
    law = mat.MaterialLaw(p=2.0)
    m = refine_uniform(load_mesh(presets.square_text(4, slip=("b",)),
                                 scale=False), 3)
    man = presets.scalar_transition(law)
    sys_ = build_system(m, law, man.data)
    sol = solve_contact_vi(sys_)
    ind = estimate_sp(sys_, sol)
    marked = mark(ind.element_indicator(), 0.5)
    bs = sys_.bspace
    owner = ind.boundary_owner
    slip_owned = {}
    for l in np.nonzero(bs.slip_panels())[0]:
        slip_owned.setdefault(int(owner[l]), l)
    gs_marks = [k for k in marked if k in slip_owned]
    xs = bs.nodes[sys_.slip_nodes][:, 0]
    vt = np.abs(sol.z)
    slipping = xs[vt > 0.05 * vt.max()]
    xstar = slipping.min()
    qlo = 0.6 + 0.1 * np.floor((xstar - 0.6) / 0.1 + 1e-12)
    mids = np.array([bs.mids[slip_owned[k]][0] for k in gs_marks])
    frac = (np.sum((mids >= qlo - 1e-12) & (mids <= qlo + 0.1 + 1e-12))
            / max(len(gs_marks), 1))
    ok = bool(len(gs_marks) > 0 and frac >= 0.5)

    # corner-singular transmission: adaptive error <= uniform at equal dofs
    cfg = RunConfig()
    cfg.values.update({"data.preset": "corner", "mesh.preset": "lshape",
                       "mesh.n": 4, "material.p": 2.0, "adapt.theta": 0.5,
                       "adapt.max_dofs": 900})
    rows_u = convergence_study(cfg, 4, "uniform")
    rows_a = convergence_study(cfg, 25, "adaptive")
    u_final = rows_u[-1]
    candidates = [r for r in rows_a if r["dofs"] <= u_final["dofs"]]
    best_a = min(c["err_grad"] for c in candidates[-3:])
    ok &= bool(best_a <= u_final["err_grad"])
    _report(9, ok, "transition-quartile fraction %.0f%%, adaptive %.3e <= "
            "uniform %.3e at <= %d dofs"
            % (100 * frac, best_a, u_final["err_grad"], u_final["dofs"]))


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    from febe.cli import main
    base = ("problem = scalar\nmaterial.p = 2.0\nmesh.preset = square-slip\n"
            "mesh.n = 2\nmesh.refine = 2\ndata.preset = transition\n")
    ok = True
    outs = []
    for tag in ("a", "b"):
        cfgp = tmp_path / ("cfg_%s.txt" % tag)
        out = tmp_path / ("out_%s" % tag)
        cfgp.write_text(base + "out.dir = %s\n" % out)
        assert main(["solve", "--config", str(cfgp)]) == 0
        outs.append(out)
    f1 = read_fields_csv(outs[0] / "fields.csv")
    f2 = read_fields_csv(outs[1] / "fields.csv")
    for k in f1:
        a, b = f1[k], f2[k]
        denom = np.maximum(np.abs(a), 1.0)
        ok &= bool(np.max(np.abs(a - b) / denom) <= 1e-12)
    ind1 = (outs[0] / "indicators.csv").read_text()
    ind2 = (outs[1] / "indicators.csv").read_text()
    ok &= bool(ind1 == ind2)
    _report(10, ok, "identical configs produce identical CSV outputs")

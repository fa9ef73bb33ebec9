import dataclasses
import warnings
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from febe import fem, material as mat, presets, vi
from febe.driver import build_system
from febe.mesh import Mesh, load_mesh, refine_uniform
from febe.oracle import oracle_vi
from febe.vi import (ProblemData, kkt_residuals, solve_contact_vi,
                     solve_layerpotential_vi, solve_transmission,
                     vi_certificate)

from conftest import friction_bound_loop, graded_slip_system, same_bits, trace_maps


def scalar_system(preset="quadratic", p=2.0, n=2, refines=0, slip=(),
                  ncompat=None):
    law = mat.MaterialLaw(p=p)
    m = load_mesh(presets.square_text(n, slip=slip), scale=False)
    m = refine_uniform(m, refines)
    man = presets.DATA_PRESETS[preset][1](law)
    return build_system(m, law, man.data, ncompat=ncompat), man


def vector_system(preset="smooth-vec", p=2.0, n=2, refines=0, slip=("b",)):
    law = mat.MaterialLaw(p=p, mode=mat.MODE_MATRIX)
    m = load_mesh(presets.square_text(n, slip=slip), scale=False)
    m = refine_uniform(m, refines)
    man = presets.DATA_PRESETS[preset][1](law)
    return build_system(m, law, man.data), man


def exact_error(system, man, sol):
    uex = np.asarray(man.exact(system.space.mesh.vertices), float).ravel()
    return np.abs(sol.u - uex).max()


@pytest.mark.parametrize("field", ["u0", "friction"])
def test_non_finite_problem_data_rejected(field):
    # nodal arrays bypass the data file's check
    from febe.config import ConfigError
    sys_, _ = scalar_system(slip=("b",))
    vals = np.zeros(sys_.bspace.n_nodes)
    vals[1] = np.nan if field == "u0" else np.inf
    data = dataclasses.replace(sys_.data, **{field: vals})
    with pytest.raises(ConfigError, match="not finite"):
        build_system(sys_.space.mesh, sys_.law, data)


def test_zero_data_zero_solution():
    sys_, _ = scalar_system()
    sys_b = build_system(sys_.space.mesh, sys_.law, ProblemData())
    sol = solve_transmission(sys_b)
    assert np.abs(sol.u).max() < 1e-12
    sys_c, _ = scalar_system(slip=("b",))
    sys_c = build_system(sys_c.space.mesh, sys_c.law,
                         ProblemData(friction=lambda p: np.ones(len(p))))
    sol = solve_contact_vi(sys_c)
    assert np.abs(sol.u).max() < 1e-12
    assert np.abs(sol.z).max() < 1e-12


def test_p2_scalar_matches_dense_solve():
    sys_, man = scalar_system("quadratic", p=2.0, refines=1)
    sol = solve_transmission(sys_)
    # independent dense solve: cotangent-formula stiffness + S_h coupling
    m = sys_.space.mesh
    n = len(m.vertices)
    K = np.zeros((n, n))
    for tri in m.triangles:
        pts = m.vertices[tri]
        for loc in range(3):
            i = tri[loc]
            j = tri[(loc + 1) % 3]
            va = pts[loc] - pts[(loc + 2) % 3]        # P_i - P_k
            vb = pts[(loc + 1) % 3] - pts[(loc + 2) % 3]  # P_j - P_k
            area = 0.5 * abs(va[0] * vb[1] - va[1] * vb[0])
            cot_k = (va @ vb) / (2 * area)
            K[i, j] -= cot_k / 2
            K[j, i] -= cot_k / 2
            K[i, i] += cot_k / 2
            K[j, j] += cot_k / 2
    Tr = trace_maps(sys_)[0]
    A = K + (Tr.T @ sys_.S @ Tr.toarray())
    rhs = sys_.b_f + Tr.T @ sys_.gb
    x = np.linalg.solve(A, rhs)
    assert np.abs(sol.u - x).max() < 1e-8 * max(1, np.abs(x).max())


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_linear_preset_reproduced_exactly(p):
    sys_, man = scalar_system("linear", p=p, refines=1)
    sol = solve_transmission(sys_)
    assert exact_error(sys_, man, sol) < 1e-7


def test_vector_linear_preset_reproduced():
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    m = load_mesh(presets.square_text(2), scale=False)
    man = presets.vector_linear(law)
    sys_ = build_system(m, law, man.data)
    sol = solve_transmission(sys_)
    uex = np.asarray(man.exact(sys_.space.mesh.vertices), float).ravel()
    assert np.abs(sol.u - uex).max() < 1e-7


def test_p3_residual_history_decreases():
    # the line search accepts a step only when the NCP residual decreases
    sys_, man = scalar_system("quadratic", p=3.0, refines=1)
    sol = solve_transmission(sys_)
    h = np.asarray(sol.residual_history)
    assert len(h) == sol.iterations + 1 >= 2
    assert np.all(np.diff(h) < 0)
    assert h[-1] <= vi.default_tolerance(sys_.law) * vi._residual_scale(sys_)
    assert sol.converged


def test_compatibility_residual_small():
    sys_, man = scalar_system("quadratic", p=2.0, refines=1)
    sol = solve_transmission(sys_)
    assert sol.compat_residual < 1e-9
    # computed on first use: a build and a solve do not evaluate it
    assert "compat_data_residual" not in vars(sys_)
    assert np.abs(sys_.compat_data_residual).max() < 1e-10


def test_full_stick_scalar():
    sys_, man = scalar_system("stick", p=2.0, refines=1, slip=("b",))
    sol = solve_contact_vi(sys_)
    assert np.all(sol.z == 0)             # sticking coordinates are held at zero
    res = kkt_residuals(sol, sys_)
    for k, v in res.items():
        assert v <= 1e-6, (k, v)
    assert exact_error(sys_, man, sol) < 1e-7


def test_full_stick_vector():
    sys_, man = vector_system("stick-vec", p=2.0, refines=1)
    sol = solve_contact_vi(sys_)
    vt = sol.z[sys_.idx_zt]
    vn = sol.z[sys_.idx_zn]
    assert np.all(vt == 0)                # sticking coordinates are held at zero
    assert np.all(vn <= 0) and vn.min() > -1e-7
    res = kkt_residuals(sol, sys_)
    for k, v in res.items():
        assert v <= 1e-6, (k, v)
    # interpolant is not the discrete solution here; only discretization-level
    uex = np.asarray(man.exact(sys_.space.mesh.vertices), float).ravel()
    assert np.abs(sol.u - uex).max() < 1e-2


def test_huge_friction_sticks():
    sys_, _ = scalar_system("transition", p=2.0, refines=1, slip=("b",))
    big = build_system(sys_.space.mesh, sys_.law,
                       ProblemData(f=sys_.data.f, u0=sys_.data.u0,
                                   t0=sys_.data.t0,
                                   friction=lambda p: 1e3 * np.ones(len(p))))
    sol = solve_contact_vi(big)
    assert np.abs(sol.z).max() < 1e-8


def test_inactive_contact_equals_transmission():
    # lift u0 on the slip side so the gap opens strictly; zero friction
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    m = load_mesh(presets.square_text(2, slip=("b",)), scale=False)
    base = presets.vector_smooth(law)

    def u0_shift(pts):
        vals = np.asarray(base.exact(pts), dtype=float)
        on_bottom = np.abs(pts[:, 1] - presets.SQUARE_LO) < 1e-12
        vals[on_bottom, 1] += 2.0      # +y shift = -nu direction (nu = -e_y)
        return vals

    data = ProblemData(f=base.data.f, u0=u0_shift, t0=base.data.t0,
                       friction=lambda p: np.zeros(len(p)))
    sys_ = build_system(m, law, data)
    sol_c = solve_contact_vi(sys_)
    sol_t = solve_transmission(sys_)
    vn = sol_c.z[sys_.idx_zn]
    assert np.all(vn < -1e-3)
    assert np.abs(sol_c.u - sol_t.u).max() < 1e-8
    assert np.abs(sol_c.z - sol_t.z).max() < 1e-8


def _oracle_mesh(rng=None):
    """square_text(2, slip=("b",)); given rng, its interior vertices moved
    at random by up to a quarter of the mesh width."""
    m = load_mesh(presets.square_text(2, slip=("b",)), scale=False)
    if rng is None:
        return m
    inner = np.ones(len(m.vertices), dtype=bool)
    inner[m.boundary_edges] = False
    v = m.vertices.copy()
    v[inner] += rng.uniform(-0.05, 0.05, size=(inner.sum(), 2))
    return Mesh(v, m.triangles, m.boundary_edges, m.boundary_labels)


def _scalar_oracle_systems(p=2.0, mesh_rng=None):
    """Six random scalar friction problems small enough to enumerate, on
    _oracle_mesh(mesh_rng)."""
    rng = np.random.default_rng(42)
    for trial in range(6):
        law = mat.MaterialLaw(p=p)
        m = _oracle_mesh(mesh_rng)
        c = rng.normal(size=4)

        def f(p, c=c):
            return c[0] + c[1] * p[:, 0] + c[2] * p[:, 1]

        def u0(p, c=c):
            return 0.3 * c[3] * p[:, 0] * p[:, 1]

        def t0(p, nv, c=c):
            return c[1] * p[:, 0] * nv[:, 0] - c[0] * nv[:, 1]

        def g(p, c=c):
            return 0.05 + 0.04 * abs(c[2]) * (p[:, 0] - 0.6)

        data = ProblemData(f=f, u0=u0, t0=t0, friction=g)
        yield build_system(m, law, data, ncompat=0)


def _vector_oracle_systems(p=2.0, mesh_rng=None):
    """Three random vector friction problems small enough to enumerate, on
    _oracle_mesh(mesh_rng)."""
    rng = np.random.default_rng(7)
    law = mat.MaterialLaw(p=p, mode=mat.MODE_MATRIX)
    for trial in range(3):
        m = _oracle_mesh(mesh_rng)
        c = rng.normal(size=3)

        def f(p, c=c):
            return np.column_stack([c[0] * np.ones(len(p)), c[1] * p[:, 0]])

        def u0(p, c=c):
            return np.column_stack([0.2 * c[2] * p[:, 1], -0.1 * c[0] * p[:, 0]])

        def g(p, c=c):
            return 0.02 + 0.02 * abs(c[1]) * np.ones(len(p))

        data = ProblemData(f=f, u0=u0, t0=None, friction=g)
        yield build_system(m, law, data, ncompat=0)


def _assert_matches_oracle(sys_):
    """The solver's objective is the enumerated minimum up to rounding, and
    its stick/slip and contact patterns are the oracle's."""
    sol = solve_contact_vi(sys_)
    val, x = oracle_vi(sys_)
    assert abs(sol.objective - val) <= 1e-12 * abs(val)
    tol = 1e-7
    z_o = x[sys_.nU:]
    zt_s, zt_o = sol.z[sys_.idx_zt], z_o[sys_.idx_zt]
    assert np.all(np.sign(np.where(np.abs(zt_s) < tol, 0, zt_s))
                  == np.sign(np.where(np.abs(zt_o) < tol, 0, zt_o)))
    assert np.all((sol.z[sys_.idx_zn] > -tol) == (z_o[sys_.idx_zn] > -tol))


def test_solver_matches_enumeration_oracle_scalar():
    for sys_ in _scalar_oracle_systems():
        sol = solve_contact_vi(sys_)
        val, x = oracle_vi(sys_)
        assert sol.objective <= val + 1e-8 * max(1, abs(val))
        assert abs(sol.objective - val) <= 1e-8 * max(1.0, abs(val))
        # identical stick/slip pattern
        zt_s = sol.z[sys_.idx_zt]
        zt_o = x[sys_.nU:][sys_.idx_zt]
        tol = 1e-7
        assert np.all((np.abs(zt_s) < tol) == (np.abs(zt_o) < tol))
        assert np.all(np.sign(np.where(np.abs(zt_s) < tol, 0, zt_s))
                      == np.sign(np.where(np.abs(zt_o) < tol, 0, zt_o)))


def test_contact_vi_matches_oracle_to_roundoff():
    # the exact nonsmooth energy is minimized, so only rounding separates
    # the solver from the enumerated minimum
    for sys_ in _scalar_oracle_systems():
        sol = solve_contact_vi(sys_)
        val, _ = oracle_vi(sys_)
        assert abs(sol.objective - val) <= 1e-13 * abs(val)


def test_solver_matches_enumeration_oracle_vector():
    for sys_ in _vector_oracle_systems():
        sol = solve_contact_vi(sys_)
        val, x = oracle_vi(sys_)
        assert abs(sol.objective - val) <= 1e-8 * max(1.0, abs(val))
        vn_s = sol.z[sys_.idx_zn]
        vn_o = x[sys_.nU:][sys_.idx_zn]
        assert np.all((vn_s > -1e-7) == (vn_o > -1e-7))


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("preset", ["transition", "stick-vec", "smooth-vec"])
def test_contact_vi_matches_oracle_every_p(preset, p):
    # the enumeration is exact for every p, so only rounding separates the
    # solver from it: scalar at n=4 (3 slip nodes), vector at n=2
    if preset == "transition":
        sys_, _ = scalar_system(preset, p=p, n=4, slip=("b",))
    else:
        sys_, _ = vector_system(preset, p=p, n=2)
    _assert_matches_oracle(sys_)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
def test_contact_vi_matches_oracle_on_jittered_meshes(p):
    rng = np.random.default_rng(int(10 * p))
    for sys_ in _scalar_oracle_systems(p, rng):
        _assert_matches_oracle(sys_)
    for sys_ in _vector_oracle_systems(p, rng):
        _assert_matches_oracle(sys_)


def test_uniqueness_from_random_starts():
    sys_, _ = scalar_system("transition", p=2.0, refines=0, slip=("b",))
    rng = np.random.default_rng(3)
    sols = []
    for _ in range(2):
        x0 = rng.normal(size=sys_.nU + sys_.nZ)
        x0[sys_.nU + sys_.idx_zn] = -np.abs(x0[sys_.nU + sys_.idx_zn])
        sols.append(solve_contact_vi(sys_, x0=x0))
    d = np.abs(np.concatenate([sols[0].u - sols[1].u, sols[0].z - sols[1].z])).max()
    assert d <= 10 * 1e-9 * max(1.0, np.abs(sols[0].u).max())


@pytest.mark.parametrize("p", [1.5, 4.0])
@pytest.mark.parametrize("case", ["scalar", "vector"])
def test_explicit_start_runs_the_warm_start(case, p):
    # a given start starts the p = 2 warm start: the default start given
    # explicitly is the default solve bit for bit, and the tangent floor
    # does not engage (a p = 4 solve from it without the warm start fails)
    if case == "scalar":
        sys_, _ = scalar_system("transition", p=p, slip=("b",))
    else:
        sys_, _ = vector_system("stick-vec", p=p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", mat.SingularTangentWarning)
        ref = solve_contact_vi(sys_)
        sol = solve_contact_vi(sys_, x0=np.zeros(sys_.nU + sys_.nZ))
    for name in ("u", "z", "lam_n", "mu_t", "compat_mult"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert sol.objective == ref.objective
    assert sol.residual_history == ref.residual_history


def test_vi_certificate_nonnegative():
    sys_, _ = scalar_system("transition", p=2.0, refines=1, slip=("b",))
    sol = solve_contact_vi(sys_)
    assert vi_certificate(sys_, sol) >= -1e-7


def test_kkt_detector_flags_infeasible():
    sys_, _ = vector_system("stick-vec")
    sol = solve_contact_vi(sys_)
    bad = vi.DiscreteSolution(
        u=sol.u, z=sol.z.copy(), v=sol.v, w=sol.w,
        lam_n=sol.lam_n, mu_t=sol.mu_t)
    bad.z = bad.z.copy()
    bad.z[sys_.idx_zn[0]] = +1.0
    res = kkt_residuals(bad, sys_)
    assert res["gap_positive"] >= 1.0


@pytest.mark.parametrize("make, match", [
    (lambda: presets.lshape_text(3), "lshape preset needs an even subdivision count"),
    (lambda: presets.vector_smooth(mat.MaterialLaw(p=2.0, delta=0.5, mode=mat.MODE_MATRIX)),
     r"smooth-vec preset is defined for the power law \(delta = 0\) only"),
    (lambda: presets.data_from_preset("nope", mat.MaterialLaw(p=2.0)),
     "unknown data preset 'nope'"),
], ids=["lshape-odd-n", "smooth-vec-delta", "unknown-data-preset"])
def test_preset_input_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("ncomp", [1, 2])
def test_coupled_system_rejects_other_kernels_operators(ncomp):
    # a scalar space with the Lame operators, a vector space with the Laplace ones
    from febe.bem import BoundarySpace, assemble_operators
    m = load_mesh(presets.square_text(2), scale=False)
    bs = BoundarySpace(m)
    ops = assemble_operators(bs, mat.ExteriorCoefficients(mu=1.0, lam=1.0)
                             if ncomp == 1 else None)
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_VECTOR if ncomp == 1 else mat.MODE_MATRIX)
    with pytest.raises(ValueError, match="operator/space component mismatch"):
        vi.CoupledSystem(fem.FESpace(m, ncomp), bs, ops, law, ProblemData())


def test_transmission_rejects_friction():
    sys_, _ = scalar_system("stick", p=2.0, slip=("b",))
    with pytest.raises(ValueError):
        solve_transmission(sys_)


# -- layer potential formulation ------------------------------------------------

def test_lp_zero_data():
    sys_, _ = scalar_system(slip=("b",))
    sys_b = build_system(sys_.space.mesh, sys_.law,
                         ProblemData(friction=lambda p: np.ones(len(p))))
    sol = solve_layerpotential_vi(sys_b)
    assert np.abs(sol.u).max() < 1e-10
    assert np.abs(sol.phi).max() < 1e-10


def test_lp_matches_sp_formulation_p2_transmission():
    sys_, man = scalar_system("quadratic", p=2.0, refines=1)
    sol_sp = solve_transmission(sys_)
    sol_lp = solve_layerpotential_vi(sys_)
    assert np.abs(sol_sp.u - sol_lp.u).max() <= 1e-6 * max(1, np.abs(sol_sp.u).max())
    # phi ~ V^{-1}(Mb - K)(u0 - w)
    T = sys_.ops.Mb - sys_.ops.K
    phi_ref = np.linalg.solve(sys_.ops.V, T @ (sys_.U0 - sol_lp.w))
    assert np.abs(sol_lp.phi - phi_ref).max() < 1e-6 * max(1, np.abs(phi_ref).max())


def test_lp_stabilized_coincides():
    sys_, _ = vector_system("stick-vec", p=2.0)
    sol_a = solve_layerpotential_vi(sys_, stabilized=False)
    sol_b = solve_layerpotential_vi(sys_, stabilized=True)
    assert np.abs(sol_a.u - sol_b.u).max() <= 1e-8 * max(1, np.abs(sol_a.u).max())
    assert np.abs(sol_a.z - sol_b.z).max() <= 1e-8
    assert np.abs(sol_a.phi - sol_b.phi).max() <= 1e-8 * max(1, np.abs(sol_a.phi).max())


def test_lp_contact_matches_sp_contact():
    sys_, _ = scalar_system("transition", p=2.0, refines=0, slip=("b",))
    sol_sp = solve_contact_vi(sys_)
    sol_lp = solve_layerpotential_vi(sys_)
    assert np.abs(sol_sp.u - sol_lp.u).max() < 1e-6
    assert np.abs(sol_sp.z - sol_lp.z).max() < 1e-6


def test_study_adaptive_mode_runs():
    from febe.config import RunConfig
    from febe.study import convergence_study
    cfg = RunConfig()
    cfg.values.update({"data.preset": "quadratic", "mesh.n": 2,
                       "material.p": 2.0, "adapt.max_dofs": 120})
    rows = convergence_study(cfg, 6, "adaptive")
    assert rows[-1]["dofs"] >= rows[0]["dofs"]
    assert rows[-1]["estimator"] < rows[0]["estimator"]


def test_boundary_edge_count_report(unit_square):
    # the 2-triangle square necessarily has triangles with 2 boundary edges;
    # the mesh accepts such inputs, and its edge table counts them
    def most(m):
        return np.bincount(m.edge_triangles[m.edge_triangles[:, 1] < 0, 0]).max()
    assert most(unit_square) == 2
    assert most(refine_uniform(unit_square, 2)) <= 2


def test_vector_uniform_convergence_rate():
    # full vector pipeline: strain-error rate ~ 1 under uniform refinement
    from febe.study import gradient_error_lp
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    errs, hs = [], []
    m = load_mesh(presets.square_text(2), scale=False)
    for lvl in range(3):
        man = presets.vector_smooth(law)
        sys_ = build_system(m, law, man.data)
        sol = solve_transmission(sys_)
        errs.append(gradient_error_lp(sys_, man, sol))
        from febe.mesh import mesh_size
        hs.append(mesh_size(m)[0])
        m = refine_uniform(m, 2)
    rates = [np.log(errs[k] / errs[k + 1]) / np.log(hs[k] / hs[k + 1])
             for k in range(len(errs) - 1)]
    assert all(0.85 <= r <= 1.25 for r in rates), rates


def test_carreau_end_to_end():
    law = mat.MaterialLaw(p=1.5, delta=0.5)
    m = refine_uniform(load_mesh(presets.square_text(2), scale=False), 1)
    man = presets.scalar_linear(law)
    sys_ = build_system(m, law, man.data)
    sol = solve_transmission(sys_)
    uex = np.asarray(man.exact(sys_.space.mesh.vertices), float).ravel()
    assert np.abs(sol.u - uex).max() < 1e-7


@pytest.mark.parametrize("p", [1.2, 4.0])
def test_extreme_exponents_contact(p):
    law = mat.MaterialLaw(p=p)
    m = refine_uniform(load_mesh(presets.square_text(2, slip=("b",)),
                                 scale=False), 2)
    man = presets.scalar_transition(law)
    sys_ = build_system(m, law, man.data)
    sol = solve_contact_vi(sys_)
    res = kkt_residuals(sol, sys_)
    assert max(res.values()) <= 1e-5
    assert vi_certificate(sys_, sol) >= -1e-7


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_lp_matches_sp_nonlinear_contact(p):
    sys_, _ = scalar_system("transition", p=p, refines=1, slip=("b",))
    sol_lp = solve_layerpotential_vi(sys_)
    sol_sp = solve_contact_vi(sys_)
    assert np.abs(sol_lp.u - sol_sp.u).max() < 1e-6
    assert np.abs(sol_lp.z - sol_sp.z).max() < 1e-6
    # both minimize the same exact energy
    assert abs(sol_lp.objective - sol_sp.objective) <= 1e-12 * abs(sol_sp.objective)


def test_p15_uniform_convergence():
    from febe.config import RunConfig
    from febe.study import convergence_study
    cfg = RunConfig()
    cfg.values.update({"data.preset": "quadratic", "mesh.n": 2,
                       "material.p": 1.5})
    rows = convergence_study(cfg, 3, "uniform")
    assert all(0.9 <= r["rate"] <= 1.1 for r in rows[1:])


# -- solver structure: shared constant block, safeguards ---------------------

def _count_sp_blocks(monkeypatch):
    """The list of the systems whose Steklov-Poincare block gets built."""
    built = []
    block = vi.CoupledSystem.J_block.func

    def counting(self):
        built.append(self)
        return block(self)

    prop = cached_property(counting)
    prop.__set_name__(vi.CoupledSystem, "J_block")
    monkeypatch.setattr(vi.CoupledSystem, "J_block", prop)
    return built


def test_constant_block_built_once_per_system(monkeypatch):
    # the p = 2 warm start shares the bordered block of its system
    built = _count_sp_blocks(monkeypatch)
    sys_c, _ = scalar_system("transition", p=1.5, n=4, refines=2, slip=("b",))
    solve_contact_vi(sys_c)
    solve_contact_vi(sys_c)
    assert built == [sys_c]
    sys_t, _ = scalar_system("quadratic", p=1.5, refines=1)
    solve_transmission(sys_t)
    assert built == [sys_c, sys_t]


def test_layerpotential_solve_builds_no_steklov_block(monkeypatch):
    # a p = 1.5 layer-potential solve warm-starts on its own form: it builds
    # one Newton pattern, and no Steklov-Poincare block
    built = _count_sp_blocks(monkeypatch)
    patterns = []
    pattern = vi._newton_pattern

    def counting_pattern(space, form):
        patterns.append(form)
        return pattern(space, form)

    monkeypatch.setattr(vi, "_newton_pattern", counting_pattern)
    sys_, _ = vector_system("stick-vec", p=1.5, n=4, refines=1)
    sol = solve_layerpotential_vi(sys_)
    assert built == [] and len(patterns) == 1
    assert max(kkt_residuals(sol, sys_).values()) <= 1e-8


@pytest.mark.parametrize("case", ["transition-p1.5", "stick-vec-p2",
                                  "transition-p1.2", "transition-p4",
                                  "stick-vec-p2-lp"])
def test_no_safeguard_fires_on_standard_presets(monkeypatch, case):
    # the standard presets plus the parameter sets of the contact-sweep
    # benchmark (scalar p=1.2 and p=4, the layer-potential vector solve)
    if case.startswith("transition"):
        p = float(case.split("-p")[1])
        sys_, _ = scalar_system("transition", p=p, n=4, refines=2, slip=("b",))
    else:
        sys_, _ = vector_system("stick-vec", n=4, refines=1)
    solve = solve_layerpotential_vi if case.endswith("-lp") else solve_contact_vi
    failed_solves, certificates = [], []
    splu, step = vi.spla.splu, vi._StepSolver.solve
    certificate = vi.vi_certificate

    def counted_splu(*args, **kw):
        try:
            return splu(*args, **kw)
        except RuntimeError:               # SuperLU failed, or the matrix is singular
            failed_solves.append(args)
            raise

    def counted_step(*args, **kw):
        try:
            x = step(*args, **kw)
        except np.linalg.LinAlgError:      # a singular update of the factor
            failed_solves.append(args)
            raise
        if not np.all(np.isfinite(x)):
            failed_solves.append(args)
        return x

    def counted_certificate(*args, **kw):
        certificates.append(args)
        return certificate(*args, **kw)

    monkeypatch.setattr(vi.spla, "splu", counted_splu)
    monkeypatch.setattr(vi._StepSolver, "solve", counted_step)
    monkeypatch.setattr(vi, "vi_certificate", counted_certificate)
    sol = solve(sys_)
    assert sol.converged
    assert certificates == []
    assert failed_solves == []


@pytest.mark.parametrize("solve", [solve_contact_vi, solve_layerpotential_vi])
def test_singular_newton_matrix_raises(monkeypatch, solve):
    # without the FE tangent the interior rows of the Newton matrix vanish;
    # the zero element tangents still go to their slots of the pattern;
    # SuperLU's factorization raises on the exactly singular matrix
    sys_, _ = scalar_system("transition", p=2.0, refines=1, slip=("b",))
    tangent = fem.element_tangents
    monkeypatch.setattr(fem, "element_tangents",
                        lambda space, law, eps: tangent(space, law, eps) * 0.0)
    with pytest.raises(vi.SolverError, match="singular"):
        solve(sys_)


def test_line_search_failure_raises(monkeypatch):
    # a reversed Newton step multiplies the linear residual by 1 + t
    sys_, _ = scalar_system("quadratic", p=2.0, refines=1)
    step = vi._StepSolver.solve
    monkeypatch.setattr(vi._StepSolver, "solve", lambda *a, **kw: -step(*a, **kw))
    with pytest.raises(vi.SolverError, match="line search"):
        solve_transmission(sys_)


@pytest.mark.parametrize("refines", [4, 5])
def test_contact_set_found_in_few_steps(refines):
    # the primal-dual rule moves the whole contact set per step (nt=512, 1024)
    sys_, _ = vector_system("stick-vec", p=2.0, n=4, refines=refines)
    assert solve_contact_vi(sys_).iterations <= 7


def _counts_per_run(monkeypatch, run):
    """Linear solves (Newton steps) and SuperLU factorizations of each
    Newton run that run() makes."""
    steps, factors = [], []
    newton, step, splu = vi._newton, vi._StepSolver.solve, vi.spla.splu

    def counted_newton(*args, **kw):
        steps.append(0)
        factors.append(0)
        return newton(*args, **kw)

    def counted_step(*args, **kw):
        steps[-1] += 1
        return step(*args, **kw)

    def counted_splu(*args, **kw):
        factors[-1] += 1
        return splu(*args, **kw)

    with monkeypatch.context() as m:
        m.setattr(vi, "_newton", counted_newton)
        m.setattr(vi._StepSolver, "solve", counted_step)
        m.setattr(vi.spla, "splu", counted_splu)
        run()
    return steps, factors


def _newton_steps(monkeypatch, system):
    """Newton steps (linear solves) of each Newton run of a contact solve:
    [warm start, main solve] for p != 2, [main solve] for p = 2."""
    return _counts_per_run(monkeypatch, lambda: solve_contact_vi(system))[0]


def test_max_iter_caps_the_steps_and_tests_the_last_iterate(monkeypatch):
    # iterations counts the Newton steps (one linear solve each), and a
    # solve that converges in k steps succeeds with max_iter = k: the
    # iterate of the last allowed step is tested before the solve stalls
    sys_, _ = scalar_system("transition", p=1.5, n=4, refines=2, slip=("b",))
    steps = _newton_steps(monkeypatch, sys_)[-1]
    assert steps >= 2
    sol = solve_contact_vi(sys_, max_iter=steps)
    assert sol.iterations == steps == len(sol.residual_history) - 1
    for max_iter in (steps - 1, 0, -1):
        with pytest.raises(vi.SolverError, match="stalled"):
            solve_contact_vi(sys_, max_iter=max_iter)


def test_newton_steps_do_not_grow_with_the_mesh(monkeypatch):
    # c_k = scale * omega_k: the NCP of the function-space problem, so the
    # active-set guesses do not degrade as h shrinks (nt = 256 and 4096)
    coarse, fine = (_newton_steps(monkeypatch, scalar_system(
        "transition", p=1.5, n=4, refines=r, slip=("b",))[0]) for r in (3, 7))
    assert len(coarse) == 2 and coarse == fine
    # stick-vec p = 2, nt = 512 and 2048
    coarse, fine = (_newton_steps(monkeypatch, vector_system(
        "stick-vec", p=2.0, n=4, refines=r)[0]) for r in (4, 6))
    assert len(coarse) == 1 and fine[0] <= coarse[0]


@pytest.mark.parametrize("name, counts", [
    ("pipeline-transition", ([2, 3], [1, 3])),
    ("contact-sweep", ([2, 5, 3, 5, 3, 1], [1, 5, 1, 5, 1, 1])),
    ("adapt-corner", ([1] * 11, [1] * 11)),
])
def test_benchmark_step_counts(monkeypatch, tmp_path, name, counts):
    # linear solves and SuperLU factorizations per Newton run of one
    # benchmark case at seed 0 (nt=1024): warm start and main solve of
    # p=1.5; p=1.2, p=4, stick-vec SP and LP; the corner's 11 levels.  A
    # p = 2 run (warm starts, stick-vec, the corner) factors once, a
    # p != 2 run once per step
    from test_bench_workloads import WORKLOADS
    work = WORKLOADS[name](0, "full", str(tmp_path))
    work.setup()
    assert _counts_per_run(monkeypatch, work.run) == counts


# -- the nested-dissection order of the Newton matrices ----------------------

class _FirstSolve(Exception):
    pass


def _first_newton_solve(monkeypatch, run):
    """The matrix and keywords of the first SuperLU factorization that run()
    makes, the right-hand side of its step in the pattern's numbering, and
    the rank of its pattern; run() stops there."""
    got = {}
    step = vi._StepSolver.solve

    def recording_step(self, eps, fixed, rhs):
        perm, got["rank"] = self.pattern[-2:]
        got["b"] = rhs[perm]
        return step(self, eps, fixed, rhs)

    def stop(A, **kw):
        got.update(A=A, kw=kw)
        raise _FirstSolve

    with monkeypatch.context() as m:
        m.setattr(vi._StepSolver, "solve", recording_step)
        m.setattr(vi.spla, "splu", stop)
        with pytest.raises(_FirstSolve):
            run()
    assert got["kw"] == {"permc_spec": "NATURAL"}
    return got["A"], got["b"], got["rank"]


@pytest.mark.parametrize("mesh", ["square-1024", "square-4096", "jittered-1024"])
@pytest.mark.parametrize("case", ["transition-p1.5", "stick-vec-p2"])
def test_dissection_order_fills_in_as_little_as_minimum_degree(monkeypatch, case,
                                                               mesh):
    # nnz(L + U) of the first Newton matrix of a contact solve on square-slip
    # n=4 (nt = 1024 and 4096, and nt = 1024 with the coarse interior
    # vertices jittered) under the dissection order, against SuperLU's
    # minimum-degree order on A^T + A of the same matrix
    from conftest import jittered_square
    m = (jittered_square(4, 5) if mesh.startswith("jittered") else refine_uniform(
        load_mesh(presets.square_text(4, slip=("b",)), scale=False),
        {"1024": 5, "4096": 7}[mesh.split("-")[1]]))
    if case.startswith("transition"):
        law = mat.MaterialLaw(p=1.5)
    else:
        law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    sys_ = build_system(m, law, presets.DATA_PRESETS[case.split("-p")[0]][1](law).data)
    A, _, rank = _first_newton_solve(monkeypatch, lambda: solve_contact_vi(sys_))
    nd = spla.splu(A, permc_spec="NATURAL")
    mmd = spla.splu(A[rank][:, rank].tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert nd.L.nnz + nd.U.nnz <= 1.1 * (mmd.L.nnz + mmd.U.nnz)


@pytest.mark.parametrize("case", ["graded", "lshape"])
def test_newton_step_matches_minimum_degree_solve(monkeypatch, case):
    # the first Newton step of a contact solve on a randomly bisected graded
    # square, and of the L-shape corner transmission solve, against the
    # minimum-degree solve of the same matrix in the mesh's numbering
    if case == "graded":
        from conftest import random_graded_square
        law = mat.MaterialLaw(p=1.5)
        sys_ = build_system(random_graded_square(), law,
                            presets.scalar_transition(law).data)
        run = lambda: solve_contact_vi(sys_)
    else:
        sys_ = _square_and_lshape_system("lshape")
        run = lambda: solve_transmission(sys_)
    A, b, rank = _first_newton_solve(monkeypatch, run)
    dy = spla.spsolve(A, b, permc_spec="NATURAL")[rank]
    ref = spla.spsolve(A[rank][:, rank].tocsc(), b[rank], permc_spec="MMD_AT_PLUS_A")
    assert np.abs(dy - ref).max() <= 1e-12 * np.abs(ref).max()


# -- constant blocks and Newton matrices vs. the sparse constructions ------

def _square_and_lshape_system(case):
    if case == "graded":                # slip corner: two terms per frame column
        return graded_slip_system(True)
    if case == "scalar":
        return scalar_system("transition", p=1.5, n=4, refines=1, slip=("b",))[0]
    if case == "vector":
        return vector_system("stick-vec", n=4, refines=1)[0]
    law = mat.MaterialLaw(p=2.0)
    m = load_mesh(presets.lshape_text(4), scale=False)
    return build_system(m, law, presets.scalar_corner(law).data)


def _assert_same_block(form, ref):
    """form.J_block is the sparse matrix ref at the rows and columns
    J_dofs, exact zeros included, bit for bit, and ref has no entry off
    them."""
    ref = ref.toarray()
    at = np.ix_(form.J_dofs, form.J_dofs)
    assert np.array_equal(form.J_block, ref[at])
    ref[at] = 0.0
    assert not ref.any()


@pytest.mark.parametrize("case", ["scalar", "vector", "lshape", "graded"])
def test_dense_boundary_blocks_match_sparse_products(case):
    # the dense blocks on the boundary columns round each entry as the
    # sparse products of B = [Tr, Es] did, and hold every entry of them
    from conftest import sparse_lp_block, sparse_sp_blocks
    sys_ = _square_and_lshape_system(case)
    assert (sys_.nZ == 0) == (case == "lshape")
    n = sys_.nU + sys_.nZ
    H_bd, g_bd, C, c0, J = sparse_sp_blocks(sys_)
    nb = len(sys_.bcols)
    assert np.array_equal(sys_.J_block[:nb, :nb],
                          H_bd.toarray()[np.ix_(sys_.bcols, sys_.bcols)])
    b = np.concatenate([sys_.b_f, np.zeros(sys_.nZ)]) + g_bd
    assert np.array_equal(sys_.rhs, np.concatenate([b, c0]))
    assert np.array_equal(sys_.C, C)
    assert np.array_equal(sys_.c0, c0)
    assert np.array_equal(sys_.J_dofs, np.concatenate([sys_.bcols,
                                                       n + np.arange(sys_.ncompat)]))
    _assert_same_block(sys_, J)
    for stabilized in (False, True):
        lp = vi.LayerPotentialSystem(sys_, stabilized=stabilized)
        assert np.array_equal(lp.J_dofs, np.concatenate([sys_.bcols,
                                                         n + np.arange(lp.nP)]))
        _assert_same_block(lp, sparse_lp_block(sys_, stabilized))


def _signed_normal(rng, shape):
    """Normal samples with every fifth entry -0.0 and every seventh +0.0."""
    a = rng.normal(size=shape)
    a.flat[::5] = -0.0
    a.flat[3::7] = 0.0
    return a


@pytest.mark.parametrize("case", ["scalar", "vector", "lshape", "graded"])
def test_trace_products_match_sparse_map(case):
    # B x, Bd^T g and A Bd from the index arrays round every entry as the
    # sparse products with B = [Tr, Es] and Bd = B[:, bcols] do, signed
    # zeros included, and A Bd has the dense-sparse product's layout;
    # ncompat 0 gives A no rows
    from conftest import sparse_sp_blocks
    from febe.bem import rigid_motions
    base = _square_and_lshape_system(case)
    rng = np.random.default_rng(8)
    for ncompat in range(rigid_motions(base.bspace.nodes, base.d).shape[1] + 1):
        sys_ = build_system(base.space.mesh, base.law, base.data, ncompat=ncompat)
        Tr, Es = trace_maps(sys_)
        B = sp.hstack([Tr, Es]).tocsr()
        Bd = B[:, sys_.bcols]
        Md, n = B.shape
        x, Z = _signed_normal(rng, n), _signed_normal(rng, sys_.nZ)
        assert same_bits(sys_.trace(x), B @ x)
        assert same_bits(sys_.slip_jump(Z), Es @ Z)
        for g in (_signed_normal(rng, Md), _signed_normal(rng, (Md, 3)), sys_.S):
            got, ref = sys_.trace_adjoint(g), Bd.T @ g
            assert same_bits(got, ref) and got.flags.c_contiguous
            full = B.T @ g
            assert same_bits(full[sys_.bcols], ref)
            rest = np.ones(len(full), dtype=bool)
            rest[sys_.bcols] = False
            assert same_bits(full[rest], np.zeros_like(full[rest]))
        for A in (_signed_normal(rng, (ncompat, Md)), sys_.compat_dirs.T @ sys_.S):
            got, ref = sys_.trace_right(A), A @ Bd
            assert same_bits(got, ref) and got.flags.f_contiguous == ref.flags.f_contiguous
        assert same_bits(sys_.C, sparse_sp_blocks(sys_)[2])


def _sparse_product_J_block(sys_, form):
    """J_block of a form as np.block over the sparse-product blocks with
    Bd = B[:, bcols], B = [Tr, Es], built as the system built it before it
    held the trace map as index arrays."""
    from febe.bem import stabilization_data
    Bd = sp.hstack(trace_maps(sys_)).tocsr()[:, sys_.bcols]
    if form is sys_:
        m = sys_.ncompat
        Cb = sys_.C[:, sys_.bcols]
        return np.block([[Bd.T @ sys_.S @ Bd, Cb.T], [Cb, np.zeros((m, m))]])
    ops = sys_.ops
    T = ops.Mb - ops.K
    TB = T @ Bd
    J = np.block([[Bd.T @ ops.W @ Bd, -TB.T], [TB, ops.V]])
    if form.stabilized:
        xi = stabilization_data(sys_.bspace, ops)
        A = np.hstack([xi.T @ T, xi.T @ ops.V])
        dM = ops.Mb.shape[1]
        Atil = np.hstack([A[:, :dM] @ Bd, A[:, dM:]])
        AtA = np.multiply.outer(Atil[0], Atil[0])
        for a in Atil[1:]:
            AtA += np.multiply.outer(a, a)
        J += AtA
    return J


@pytest.mark.parametrize("form", ["sp", "lp", "lp-stabilized"])
@pytest.mark.parametrize("case", ["scalar", "vector", "lshape", "graded"])
def test_J_block_layout_matches_sparse_product_blocks(case, form):
    # J_block @ y rounds by J_block's memory layout (numpy picks the BLAS
    # kernel by it), so J_block keeps the layout np.block gave the sparse
    # products: Fortran order for the scalar Steklov-Poincare block, C
    # order for the others
    sys_ = _square_and_lshape_system(case)
    if form != "sp":
        form = vi.LayerPotentialSystem(sys_, stabilized=form == "lp-stabilized")
    else:
        form = sys_
    J, ref = form.J_block, _sparse_product_J_block(sys_, form)
    assert same_bits(J, ref)
    assert (J.flags.c_contiguous, J.flags.f_contiguous) == (ref.flags.c_contiguous,
                                                            ref.flags.f_contiguous)
    y = np.random.default_rng(9).normal(size=len(J))
    assert same_bits(J @ y, ref @ y)


@pytest.mark.parametrize("case", ["scalar", "vector", "lshape", "graded",
                                  "lp", "lp-stabilized"])
def test_spliced_pattern_extends_sorted_pattern(case):
    # the spliced Newton pattern holds every entry of the sort-based union
    # of the sparse constant block, the FE tangent and the diagonal, in the
    # same numbering and with the same constant values; the slots it adds
    # lie in the tail block of the J_dofs and hold exact zeros
    from conftest import sorted_newton_pattern, sparse_lp_block, sparse_sp_blocks
    sys_ = _square_and_lshape_system("vector" if case.startswith("lp") else case)
    if case.startswith("lp"):
        form = vi.LayerPotentialSystem(sys_, stabilized=case == "lp-stabilized")
        J0 = sparse_lp_block(sys_, form.stabilized)
    else:
        form, J0 = sys_, sparse_sp_blocks(sys_)[4]
    indptr, indices, base, *_, perm, _ = vi._newton_pattern(sys_.space, form)
    ref_ptr, ref_ind, ref_base, ref_perm = sorted_newton_pattern(sys_.space, J0.tocsc())
    assert np.array_equal(perm, ref_perm)
    n, t0 = len(perm), len(perm) - len(form.J_dofs)
    assert sp.csc_matrix((base, indices, indptr), shape=(n, n)).has_canonical_format
    keys = lambda ptr, ind: np.repeat(np.arange(n), np.diff(ptr)) * n + ind
    new, ref = keys(indptr, indices), keys(ref_ptr, ref_ind)
    assert np.all(np.isin(ref, new))
    added = np.setdiff1d(new, ref)
    assert np.all(added // n >= t0) and np.all(added % n >= t0)
    assert np.array_equal(base[np.isin(new, ref)], ref_base)
    assert not base[np.isin(new, added)].any()


@pytest.mark.parametrize("case", ["scalar", "vector", "lshape", "graded",
                                  "lp", "lp-stabilized", "shared"])
def test_newton_pattern_matches_per_form_build(case):
    # the pattern spliced onto the space's shared dissection_pattern is the
    # one the whole per-form build gives, every array byte for byte and in
    # its dtype; "shared": a Steklov-Poincare and a layer-potential form
    # of two systems on one mesh, whose spaces read the same tables
    from conftest import reference_newton_pattern
    sys_ = _square_and_lshape_system("vector" if case in ("lp", "lp-stabilized",
                                                          "shared") else case)
    if case == "shared":
        other = build_system(sys_.space.mesh, sys_.law, sys_.data)
        assert other.space is not sys_.space
        forms = [(sys_, sys_), (other, vi.LayerPotentialSystem(other)),
                 (sys_, vi.LayerPotentialSystem(sys_, stabilized=True))]
    elif case.startswith("lp"):
        forms = [(sys_, vi.LayerPotentialSystem(sys_, stabilized=case == "lp-stabilized"))]
    else:
        forms = [(sys_, sys_)]
    for system, form in forms:
        got = vi._newton_pattern(system.space, form)
        ref = reference_newton_pattern(system.space, form)
        assert len(got) == len(ref) == 7
        for a, b in zip(got, ref):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_mesh_is_freed_with_its_last_system():
    # the per-mesh tables hold arrays only, so nothing on the mesh refers
    # back to it: with the cycle collector off, a dropped mesh lives as long
    # as a system on it and no longer, after solves of both forms
    import gc
    import weakref
    sys_, _ = vector_system("stick-vec", n=2, refines=1)
    mesh = sys_.space.mesh
    law = mat.MaterialLaw(p=2.0)
    systems = [sys_, build_system(mesh, law, presets.scalar_transition(law).data)]
    del sys_
    gc.collect()
    gc.disable()
    try:
        for system in systems:
            solve_contact_vi(system)
            solve_layerpotential_vi(system)
        ref = weakref.ref(mesh)
        del mesh, system
        while len(systems) > 1:
            systems.pop()
            assert ref() is not None
        systems.pop()
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("case", ["scalar", "vector"])
def test_one_strain_evaluation_per_iterate(monkeypatch, case):
    # every FESpace.gradients call of a contact solve serves one residual
    # evaluation or the objective's energy: each Newton matrix reads the
    # strains of the iterate whose residual the line search accepted
    if case == "scalar":
        sys_, _ = scalar_system("transition", p=1.5, n=4, refines=1, slip=("b",))
    else:
        sys_, _ = vector_system("stick-vec", p=1.5, n=4, refines=1)
    calls = dict(gradients=0, residual=0, energy=0, matrix=0, in_matrix=0)
    gradients, residual, energy = fem.FESpace.gradients, fem.assemble_residual, fem.energy
    newton_matrix = vi._newton_matrix

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    def matrix(*args, **kw):
        before = calls["gradients"]
        J = counted("matrix", newton_matrix)(*args, **kw)
        calls["in_matrix"] += calls["gradients"] - before
        return J

    monkeypatch.setattr(fem.FESpace, "gradients", counted("gradients", gradients))
    monkeypatch.setattr(fem, "assemble_residual", counted("residual", residual))
    monkeypatch.setattr(fem, "energy", counted("energy", energy))
    monkeypatch.setattr(vi, "_newton_matrix", matrix)
    solve_contact_vi(sys_)
    assert calls["matrix"] >= 3 and calls["in_matrix"] == 0
    assert calls["gradients"] == calls["residual"] + calls["energy"]


@pytest.mark.parametrize("case", ["scalar", "vector", "lshape", "graded"])
def test_dense_block_residual_matches_sparse_block(case):
    # R = -rhs, plus J_block y[J_dofs] on the rows J_dofs, plus the FE
    # residual, against the CSC constant block of the sparse products
    from conftest import sparse_lp_block, sparse_sp_blocks
    sys_ = _square_and_lshape_system(case)
    forms = [(sys_, sparse_sp_blocks(sys_)[4])]
    for stabilized in (False, True):
        forms.append((vi.LayerPotentialSystem(sys_, stabilized=stabilized),
                      sparse_lp_block(sys_, stabilized)))
    rng = np.random.default_rng(3)
    for form, J0 in forms:
        J0 = J0.tocsc()
        for _ in range(3):
            y = rng.normal(size=len(form.rhs))
            ref = J0 @ y - form.rhs
            eps = sys_.space.strains(y[:sys_.nU])
            ref[:sys_.nU] += fem.assemble_residual(sys_.space, sys_.law, eps)
            R = vi._block_residual(sys_, form, sys_.law, y, eps)
            assert np.abs(R - ref).max() <= 1e-14 * np.abs(ref).max()


def _newton_matrix(system, form, y, fixed=()):
    """Newton matrix at y of a block form of system under the system's law,
    with the rows `fixed` held, on the form's pattern, in its dissection
    numbering, and the dof order perm of that numbering."""
    pattern = vi._newton_pattern(system.space, form)
    return vi._newton_matrix(system, system.law, pattern,
                             system.space.strains(y[:system.nU]),
                             np.asarray(fixed, dtype=int)), pattern[-2]


def _assert_newton_matrix(J, perm, system, law, J0, U, fixed):
    """J is canonical CSC, its held rows are unit rows, and its values are
    those of the COO construction under the law, in the dissection
    numbering of the dof order perm, bit for bit."""
    from conftest import coo_newton_matrix
    assert J.format == "csc"
    assert sp.csc_matrix((J.data, J.indices, J.indptr),
                         shape=J.shape).has_canonical_format
    ref = coo_newton_matrix(system, law, sp.coo_matrix(J0), U, fixed)
    assert np.array_equal(J.toarray(), ref[perm][:, perm].toarray())
    held = np.argsort(perm)[fixed]
    assert np.array_equal(J[held].toarray(), np.eye(J.shape[0])[held])


@pytest.mark.parametrize("form", ["sp", "lp"])
@pytest.mark.parametrize("case", ["scalar", "vector"])
def test_newton_matrix_matches_coo_construction(case, form):
    # the Newton matrix stores the exact zeros of the FE tangent (on these
    # structured meshes, cross-component couplings of the vector law, say)
    # and of the held rows, on one pattern whatever rows are held; every
    # value is that of the COO construction bit for bit
    from conftest import sparse_lp_block, sparse_sp_blocks
    sys_ = _square_and_lshape_system(case)
    if form == "sp":
        form, ref0 = sys_, sparse_sp_blocks(sys_)[4]
    else:
        form, ref0 = vi.LayerPotentialSystem(sys_), sparse_lp_block(sys_, False)
    U = np.random.default_rng(7).normal(size=sys_.nU)
    bound = sys_.nU + sys_.idx_zn
    assert len(bound) == (len(sys_.idx_zt) if case == "vector" else 0)
    pattern = vi._newton_pattern(sys_.space, form)
    perm, nc = pattern[-2], sys_.space.ncomp
    # the mesh's dissection order times the components, then Z, lam or P
    assert np.array_equal(perm[:sys_.nU:nc] // nc, sys_.space.mesh.dissection_order)
    assert np.array_equal(perm[sys_.nU:], np.arange(sys_.nU, len(perm)))
    eps = sys_.space.strains(U)
    first = vi._newton_matrix(sys_, sys_.law, pattern, eps, bound[:0])
    for fixed in (bound[:0], bound[::3], sys_.nU + sys_.idx_zt):
        J = vi._newton_matrix(sys_, sys_.law, pattern, eps, fixed)
        _assert_newton_matrix(J, perm, sys_, sys_.law, ref0, U, fixed)
        assert np.array_equal(J.indptr, first.indptr)
        assert np.array_equal(J.indices, first.indices)


@pytest.mark.parametrize("form", ["sp", "lp", "lp-stabilized"])
@pytest.mark.parametrize("case", ["scalar", "vector"])
def test_updated_step_matches_spsolve_of_its_own_matrix(monkeypatch, case, form):
    # a p = 2 Newton loop factors its first matrix only: that step is
    # spsolve bit for bit, and each later step, whose held set grows,
    # shrinks, stays, swaps rows or empties against the factored one,
    # updates the factor and solves its own Newton matrix to 1e-13
    if case == "scalar":
        sys_, _ = scalar_system("transition", p=2.0, n=4, refines=2, slip=("b",))
    else:
        sys_, _ = vector_system("stick-vec", p=2.0, n=4, refines=2)
    if form != "sp":
        form = vi.LayerPotentialSystem(sys_, stabilized=form == "lp-stabilized")
    else:
        form = sys_
    pattern = vi._newton_pattern(sys_.space, form)
    perm, rank = pattern[-2:]
    z = sys_.nU + np.concatenate([sys_.idx_zn, sys_.idx_zt])
    assert len(z) >= 7
    rng = np.random.default_rng(3)
    eps = sys_.space.strains(rng.normal(size=sys_.nU))
    splu, factors = vi.spla.splu, []
    monkeypatch.setattr(vi.spla, "splu", lambda A, **kw: factors.append(A) or splu(A, **kw))
    solver = vi._StepSolver(sys_, form, sys_.law, pattern)
    for k, fixed in enumerate([z[::3], np.union1d(z[::3], z[1::3]), z[::6], z[::6],
                               z[1::2], z[:0], z[::3]]):
        rhs = rng.normal(size=len(form.rhs))
        dy = solver.solve(eps, fixed, rhs)
        J = vi._newton_matrix(sys_, sys_.law, pattern, eps, fixed)
        ref = spla.spsolve(J, rhs[perm], permc_spec="NATURAL")[rank]
        ref[fixed] = rhs[fixed]
        if k == 0:
            assert np.array_equal(dy, ref)
        else:
            assert np.abs(dy - ref).max() <= 1e-13 * np.abs(ref).max()
    assert len(factors) == 1


@pytest.mark.parametrize("case", ["transition-sp", "stick-vec-lp"])
def test_one_pattern_serves_a_whole_solve(monkeypatch, case):
    # p = 1.5: the p = 2 warm start changes the held rows from step to step;
    # the Newton matrix of every step, warm start included, is stored on the
    # form's one pattern, with unit held rows and the values of the COO
    # construction bit for bit.  The matrices that SuperLU factors are those
    # of the warm start's first step and of every p = 1.5 step; the other
    # warm-start steps update that factor and build no matrix.  Under the full stick of stick-vec the
    # layer-potential form holds the same rows at every step, so its case
    # keeps the stick-vec loads with a fifth of the friction bound.  Every
    # Newton run gets the caller's system: the warm start swaps only the law.
    # Each Newton matrix reads the strains of an iterate whose residual was
    # evaluated; the residual calls map those strains back to the iterate.
    from conftest import sparse_lp_block, sparse_sp_blocks
    if case == "transition-sp":
        sys_, _ = scalar_system("transition", p=1.5, n=4, refines=2, slip=("b",))
        solve, J0 = solve_contact_vi, sparse_sp_blocks(sys_)[4]
    else:
        base, _ = vector_system("stick-vec", p=1.5, n=4, refines=1)
        data = dataclasses.replace(base.data, friction=lambda p: 0.2 * np.ones(len(p)))
        sys_ = build_system(base.space.mesh, base.law, data)
        solve = solve_layerpotential_vi
        J0 = sparse_lp_block(sys_, False)
    newton, newton_matrix, step = vi._newton, vi._newton_matrix, vi._StepSolver.solve
    block_residual, splu = vi._block_residual, vi.spla.splu
    systems, runs, solved, iterates = [], [], [], {}

    def recording_newton(system, *args, **kw):
        systems.append(system)
        runs.append([])
        return newton(system, *args, **kw)

    def recording_residual(system, form, law, y, eps):
        iterates[id(eps)] = eps, y[:system.nU].copy()   # eps kept: ids stay unique
        return block_residual(system, form, law, y, eps)

    def recording_step(self, eps, fixed, rhs):
        runs[-1].append([self.law, iterates[id(eps)][1], fixed.copy(), self.pattern, eps,
                         None])
        return step(self, eps, fixed, rhs)

    def recording_matrix(system, law, pattern, eps, fixed):
        runs[-1][-1][-1] = J = newton_matrix(system, law, pattern, eps, fixed)
        return J

    def recording_splu(A, *args, **kw):
        solved.append(A)
        return splu(A, *args, **kw)

    with monkeypatch.context() as m:
        m.setattr(vi, "_newton", recording_newton)
        m.setattr(vi._StepSolver, "solve", recording_step)
        m.setattr(vi, "_newton_matrix", recording_matrix)
        m.setattr(vi, "_block_residual", recording_residual)
        m.setattr(vi.spla, "splu", recording_splu)
        solve(sys_)
    assert len(systems) == 2 and all(system is sys_ for system in systems)
    assert [[J is not None for *_, J in run] for run in runs] == [
        [True] + [False] * (len(runs[0]) - 1), [True] * len(runs[1])]
    assert [J for run in runs for *_, J in run if J is not None] == solved
    steps = [(law, U, fixed, pattern[-2], newton_matrix(sys_, law, pattern, eps, fixed)
              if J is None else J)
             for run in runs for law, U, fixed, pattern, eps, J in run]
    assert len(runs) == 2 and len(runs[0]) >= 2
    assert len({tuple(fixed) for _, _, fixed, _, _ in steps}) > 1
    for law, U, fixed, perm, J in steps:
        _assert_newton_matrix(J, perm, sys_, law, J0, U, fixed)
    assert [law.p for law, *_ in runs[0]] == [2.0] * len(runs[0])
    assert {law.p for law, *_ in runs[1]} == {1.5}
    first = steps[0][-1]
    for *_, J in steps:
        assert np.array_equal(J.indptr, first.indptr)
        assert np.array_equal(J.indices, first.indices)


# -- Newton matrices from cached constant blocks vs. full assembly ----------

def _block_sp_jacobian(system, y):
    """Bordered Steklov-Poincare Jacobian assembled block by block."""
    from conftest import sparse_sp_blocks
    Hu = fem.assemble_tangent(system.space, system.law, y[:system.nU])
    H = (sp.block_diag([Hu, sp.csr_matrix((system.nZ, system.nZ))])
         + sparse_sp_blocks(system)[0])
    C = sp.csr_matrix(system.C)
    return sp.bmat([[H, C.T], [C, None]]).tocsr()


def _block_lp_jacobian(sys_, lp, y):
    """Layer-potential Jacobian of sys_ assembled block by block on every step."""
    from febe.bem import stabilization_data
    ops, B = sys_.ops, sp.hstack(trace_maps(sys_)).tocsr()
    T = ops.Mb - ops.K
    Hu = fem.assemble_tangent(sys_.space, sys_.law, y[:lp.nU])
    J11 = (sp.block_diag([Hu, sp.csr_matrix((lp.nZ, lp.nZ))])
           + B.T @ sp.csr_matrix(ops.W) @ B)
    J12 = B.T @ sp.csr_matrix(-T.T)
    J21 = sp.csr_matrix(T) @ B
    J22 = sp.csr_matrix(ops.V)
    J = sp.bmat([[J11, J12], [J21, J22]]).tocsr()
    if lp.stabilized:
        xi = stabilization_data(sys_.bspace, ops)
        stabA = np.hstack([xi.T @ T, xi.T @ ops.V])
        lift = sp.bmat([[B, None], [None, sp.identity(lp.nP)]]).tocsr()
        Atil = sp.csr_matrix(stabA) @ lift
        J = J + Atil.T @ Atil
    return J


@pytest.mark.parametrize("stabilized", [False, True, None])
def test_layerpotential_jacobian_matches_block_assembly(stabilized):
    # stabilized=None: the Steklov-Poincare Jacobian over (U, Z, lam), from
    # the same helper on its bordered constant block
    sys_, _ = vector_system("stick-vec", p=1.5, n=4)
    rng = np.random.default_rng(6)
    if stabilized is None:
        assert sys_.ncompat == 2
        y = rng.normal(size=sys_.nU + sys_.nZ + sys_.ncompat)
        J, perm = _newton_matrix(sys_, sys_, y)
        ref = _block_sp_jacobian(sys_, y)[perm][:, perm].toarray()
    else:
        lp = vi.LayerPotentialSystem(sys_, stabilized=stabilized)
        y = rng.normal(size=lp.n)
        J, perm = _newton_matrix(sys_, lp, y)
        ref = _block_lp_jacobian(sys_, lp, y)[perm][:, perm].toarray()
    J = J.toarray()
    assert np.abs(J - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["scalar", "vector", "lshape", "graded", "ncompat0"])
def test_block_form_residual_matches_replaced_residuals(case):
    # the block form's residual plus the FE residual, against the hand-written
    # residuals it replaced, for both formulations on random iterates
    from conftest import (reference_grad_smooth, reference_lp_residual,
                          reference_sp_residual)
    if case == "ncompat0":
        base = vector_system("stick-vec", p=1.5, n=4)[0]
        sys_ = build_system(base.space.mesh, base.law, base.data, ncompat=0)
    else:
        sys_ = _square_and_lshape_system(case)
    rng = np.random.default_rng(11)
    n = sys_.nU + sys_.nZ
    forms = [(sys_, lambda y: reference_sp_residual(sys_, y))]
    for stabilized in (False, True):
        lp = vi.LayerPotentialSystem(sys_, stabilized=stabilized)
        forms.append((lp, lambda y, s=stabilized: reference_lp_residual(sys_, s, y)))
    for form, reference in forms:
        assert form.J_block.shape == (len(form.J_dofs),) * 2
        for _ in range(3):
            y = rng.normal(size=len(form.rhs))
            eps = sys_.space.strains(y[:sys_.nU])
            R, ref = vi._block_residual(sys_, form, sys_.law, y, eps), reference(y)
            assert np.abs(R - ref).max() <= 1e-14 * np.abs(ref).max()
    x = rng.normal(size=n)
    g, ref = sys_.grad_smooth(x), reference_grad_smooth(sys_, x)
    assert np.abs(g - ref).max() <= 1e-14 * np.abs(ref).max()


def _certificate_loop(system, sol, step=None):
    """Per-coordinate reference for vi_certificate."""
    x = np.concatenate([sol.u, sol.z])
    g = system.grad_smooth(x)
    if system.ncompat:
        rows = np.ones(len(x), dtype=bool)
        rows[system.nU + system.idx_zt] = False
        rows[system.nU + system.idx_zn] = False
        y = np.linalg.lstsq(system.C[:, rows].T, -g[rows], rcond=None)[0]
        g = g + system.C.T @ y
    tau = step if step is not None else 0.1 * max(1.0, np.abs(x).max())
    worst = np.inf
    t_of = {int(zi): k for k, zi in enumerate(system.idx_zt)}
    n_of = {int(zi): k for k, zi in enumerate(system.idx_zn)}
    for i in range(len(x)):
        gi = g[i]
        zi = i - system.nU
        if zi >= 0 and zi in t_of:
            Fk = system.friction.F[t_of[zi]]
            for sgn in (+1.0, -1.0):
                dj = Fk * (abs(x[i] + sgn * tau) - abs(x[i]))
                worst = min(worst, (sgn * tau * gi + dj) / tau)
        elif zi >= 0 and zi in n_of:
            worst = min(worst, -gi)
            if x[i] + tau <= 0:
                worst = min(worst, gi)
        else:
            worst = min(worst, gi, -gi)
    return float(worst)


@pytest.mark.parametrize("case", ["scalar", "vector"])
def test_vi_certificate_matches_coordinate_loop(case):
    if case == "scalar":
        sys_, _ = scalar_system("transition", p=2.0, refines=1, slip=("b",))
    else:
        sys_, _ = vector_system("stick-vec")
    sol = solve_contact_vi(sys_)
    for step in (None, 1e-3, 0.5):
        assert vi_certificate(sys_, sol, step) == _certificate_loop(sys_, sol, step)
    rng = np.random.default_rng(1)
    sol.u = sol.u + rng.normal(size=len(sol.u))
    sol.z = sol.z + rng.normal(size=len(sol.z))
    assert vi_certificate(sys_, sol) == _certificate_loop(sys_, sol)


def test_vi_certificate_matches_coordinate_loop_on_random_gradients():
    # a stand-in system with random gradients, so that every candidate class
    # (interior +-g, friction +-step, normal -g and +g below -step) wins some draws
    from types import SimpleNamespace
    rng = np.random.default_rng(2)
    nU, nZ = 7, 8
    for _ in range(200):
        scale = np.exp(rng.normal(size=nU + nZ))
        grad = rng.normal(size=nU + nZ) * scale
        sys_ = SimpleNamespace(nU=nU, ncompat=0, idx_zt=np.array([1, 3, 4, 7]),
                               idx_zn=np.array([0, 2, 6]),
                               friction=SimpleNamespace(F=rng.uniform(0, 2, 4)),
                               grad_smooth=lambda x: grad)
        sol = SimpleNamespace(u=rng.normal(size=nU), z=rng.normal(size=nZ))
        step = rng.uniform(0.05, 0.5)
        assert vi_certificate(sys_, sol, step) == _certificate_loop(sys_, sol, step)


# -- system set-up: the per-panel and per-node loops it replaces -------------

def _boundary_moments_loop(system, t0):
    from febe.quadrature import segment_gauss
    bs, d = system.bspace, system.d
    out = np.zeros(bs.n_nodes * d)
    if isinstance(t0, np.ndarray):
        for l in range(bs.n_panels):
            for a in range(d):
                out[l * d + a] += 0.5 * bs.lengths[l] * t0[l, a]
                out[bs.panel_end[l] * d + a] += 0.5 * bs.lengths[l] * t0[l, a]
        return out
    xq, wq = segment_gauss(4)
    for l in range(bs.n_panels):
        pts = bs.A[l][None, :] + xq[:, None] * (bs.B[l] - bs.A[l])[None, :]
        nrm = np.tile(bs.normals[l], (len(xq), 1))
        vals = np.asarray(t0(pts, nrm), dtype=float).reshape(len(xq), d)
        w0 = bs.lengths[l] * wq * (1 - xq)
        w1 = bs.lengths[l] * wq * xq
        for a in range(d):
            out[l * d + a] += np.sum(w0 * vals[:, a])
            out[bs.panel_end[l] * d + a] += np.sum(w1 * vals[:, a])
    return out


def _friction_data_loop(system):
    from febe.quadrature import segment_gauss
    bs = system.bspace
    pos = {int(k): j for j, k in enumerate(system.slip_nodes)}
    F, omega = np.zeros(len(pos)), np.zeros(len(pos))
    xq, wq = segment_gauss(4)
    for l in np.nonzero(bs.slip_panels())[0]:
        n0, n1 = l, int(bs.panel_end[l])
        g = friction_bound_loop(system, l, xq)
        Le = bs.lengths[l]
        if n0 in pos:
            F[pos[n0]] += Le * np.sum(wq * (1 - xq) * g)
            omega[pos[n0]] += Le * np.sum(wq * (1 - xq))
        if n1 in pos:
            F[pos[n1]] += Le * np.sum(wq * xq * g)
            omega[pos[n1]] += Le * np.sum(wq * xq)
    return F, omega


@pytest.mark.parametrize("vector", [False, True])
def test_boundary_moments_match_panel_loops(vector):
    sys_ = graded_slip_system(vector)
    t0 = sys_.data.t0
    assert callable(t0)
    assert np.array_equal(sys_.t0b, _boundary_moments_loop(sys_, t0))
    panel = np.random.default_rng(22).normal(size=(sys_.bspace.n_panels, sys_.d))
    assert np.array_equal(sys_._boundary_moments(panel),
                          _boundary_moments_loop(sys_, panel))


def _per_panel_traction_moments(system, exact_grad):
    """t0b under the per-panel contract: the preset traction (stress times
    normal) called once per panel with that panel's single normal."""
    from febe.quadrature import segment_gauss
    bs, law = system.bspace, system.law

    def t0(pts, normal):
        sig = mat.stress(law, exact_grad(pts))
        if law.mode == mat.MODE_MATRIX:
            return np.einsum("nij,j->ni", sig, normal)
        return sig @ normal

    t, w = segment_gauss(4)
    pts = bs.panel_points(t)
    vals = [t0(pts[l], bs.normals[l]) for l in range(bs.n_panels)]
    return bs.p1_moments(np.reshape(vals, (bs.n_panels, len(t), system.d)), t, w)


@pytest.mark.parametrize("vector", [False, True])
def test_traction_callable_called_once(vector):
    # the scalar and vector presets through the one-call (pts, normals)
    # contract, against the per-panel calls it replaced
    p = 3.0 if vector else 1.5
    sys_ = graded_slip_system(vector, p=p)
    man = (presets.vector_smooth if vector else presets.scalar_quadratic)(sys_.law)
    calls = []
    t0b = sys_._boundary_moments(lambda *a: calls.append(a) or man.data.t0(*a))
    assert len(calls) == 1
    assert np.array_equal(t0b, sys_.t0b)
    ref = _per_panel_traction_moments(sys_, man.exact_grad)
    assert np.abs(t0b - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("kind", ["preset", "nodal", "none"])
def test_friction_data_matches_panel_loop(vector, kind):
    # the loop scales each panel's 4-point sum by the panel length, the P1
    # moments scale each point's weight, as the traction moments always did:
    # equal up to that rounding
    sys_ = graded_slip_system(vector, friction=kind)
    F, omega = _friction_data_loop(sys_)
    assert len(F) == len(sys_.slip_nodes) > 0
    assert np.abs(sys_.friction.F - F).max() <= 1e-15 * max(np.abs(F).max(), 1e-300)
    assert np.abs(sys_.friction.omega - omega).max() <= 1e-15 * omega.max()
    assert np.all(F > 0) == (kind != "none")
    slip = np.nonzero(sys_.bspace.slip_panels())[0]
    t = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(sys_.friction_bound(t, slip),
                          [friction_bound_loop(sys_, l, t) for l in slip])


def test_friction_bound_checked_on_slip_panels_only():
    bs = graded_slip_system(False).bspace
    slip = bs.slip_panels()
    fr = np.ones(bs.n_nodes)
    fr[np.setdiff1d(np.arange(bs.n_nodes),
                    np.concatenate([np.flatnonzero(slip), bs.panel_end[slip]]))] = -1.0
    graded_slip_system(False, friction=fr)
    fr[bs.slip_nodes()[0]] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        graded_slip_system(False, friction=fr)


@pytest.mark.parametrize("vector", [False, True])
def test_slip_frame_and_compat_rows_match_dense_build(vector):
    sys_ = graded_slip_system(vector)
    Tr, Es = trace_maps(sys_)
    Z = np.random.default_rng(3).normal(size=sys_.nZ)
    assert same_bits(sys_.slip_jump(Z), Es @ Z)
    # a trace column of C copies one entry of Cw; a slip column sums d
    # products, which a dense BLAS product may fuse into one rounding
    Cw = sys_.compat_dirs.T @ sys_.S
    C = np.hstack([Cw @ Tr.toarray(), Cw @ Es.toarray()])
    assert np.array_equal(sys_.C[:, :sys_.nU], C[:, :sys_.nU])
    assert np.abs(sys_.C - C).max() <= 1e-15 * np.abs(C).max()
    assert np.array_equal(sys_.c0, Cw @ sys_.U0)


@pytest.mark.parametrize("vector", [False, True])
def test_compat_rows_are_rigid_motion_moments(vector):
    # reference: the directions and density rows written out per motion
    sys_ = graded_slip_system(vector)
    bs, d, M0 = sys_.bspace, sys_.d, sys_.ops.M0
    if d == 1:
        dirs, rows = [np.ones(bs.n_nodes)], [M0]
    else:
        rot = np.column_stack([-bs.mids[:, 1], bs.mids[:, 0]]).reshape(-1)
        dirs = [np.tile(e, bs.n_nodes) for e in np.eye(2)]
        dirs.append(np.column_stack([-bs.nodes[:, 1], bs.nodes[:, 0]]).reshape(-1))
        rows = [np.where(np.arange(len(M0)) % 2 == a, M0, 0.0) for a in range(2)]
        rows.append(M0 * rot)
    for ncompat in range(len(dirs) + 1):
        s = build_system(sys_.space.mesh, sys_.law, sys_.data, ncompat=ncompat)
        lp = vi.LayerPotentialSystem(s)
        assert s.ncompat == ncompat == s.C.shape[0] == lp.compat_rows.shape[0]
        assert np.array_equal(s.compat_dirs,
                              np.reshape(dirs[:ncompat], (ncompat, len(dirs[0]))).T)
        assert np.array_equal(lp.compat_rows,
                              np.reshape(rows[:ncompat], (ncompat, len(M0))))
    with pytest.raises(ValueError, match="rigid motions"):
        build_system(sys_.space.mesh, sys_.law, sys_.data, ncompat=len(dirs) + 1)


def test_contact_solve_without_compatibility_rows():
    law = mat.MaterialLaw(p=2.0, mode=mat.MODE_MATRIX)
    m = load_mesh(presets.square_text(2, slip=("b",)), scale=False)
    sys_ = build_system(m, law, presets.vector_stick(law).data, ncompat=0)
    n = sys_.nU + sys_.nZ
    assert sys_.C.shape == (0, n) and sys_.c0.shape == (0,)
    assert len(sys_.rhs) == n and sys_.J_block.shape == (len(sys_.bcols),) * 2
    sol = solve_contact_vi(sys_)
    assert sol.converged and sol.compat_residual == 0.0
    assert sol.compat_mult.shape == (0,)


@pytest.mark.parametrize("vector", [False, True])
def test_compat_mult_is_least_squares_multiplier(vector):
    # a constant traction violates the compatibility condition, so the
    # compatibility rows carry a nonzero multiplier
    if vector:
        sys_, man = vector_system("stick-vec", n=4)
    else:
        sys_, man = scalar_system("transition", p=1.5, n=4, refines=1, slip=("b",))
    t0 = np.tile(np.arange(1.0, sys_.d + 1), (sys_.bspace.n_panels, 1))
    sys_ = build_system(sys_.space.mesh, sys_.law,
                        dataclasses.replace(man.data, t0=t0))
    sol = solve_contact_vi(sys_)
    x = np.concatenate([sol.u, sol.z])
    ref = vi._compat_multiplier(sys_, sys_.grad_smooth(x))
    assert np.all(np.abs(ref) > 0.1)
    assert np.abs(sol.compat_mult - ref).max() <= 1e-10 * np.abs(ref).max()
    # the reported multipliers carry the C^T lam term the solve balanced
    assert max(kkt_residuals(sol, sys_).values()) <= 1e-8

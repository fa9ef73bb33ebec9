"""A posteriori error indicators for the coupled contact solves.

Three estimators are provided: the Steklov-Poincare residual estimator, the
layer-potential variant (whose operator-consistency term is fully
computable), and the gradient-recovery estimator for the scalar dilatant
problem.  Negative-order boundary norms are localized edgewise:

    ||g||_{-1/2,2}     ~ (sum_l h_l ||g||_{L2(l)}^2)^{1/2}
    ||g||_{-1+1/r,r'}  ~ (sum_l h_l ||g||_{Lr'(l)}^{r'})^{1/r'}

with boundary residual functionals lifted to P1 functions through the
boundary mass matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import material as mat
from .bem import eval_double_layer_pv, eval_single_layer
from .mesh import mesh_size
from .quadrature import QuadratureRule, segment_gauss


@dataclass
class IndicatorBreakdown:
    """Named estimator terms with per-entity contributions.

    parts: term name -> raw inner sum (before the outer exponent)
    powers: term name -> outer exponent applied in the total
    element_terms / edge_terms / boundary_terms: per-entity shares of the
    final (exponentiated) term values, for marking.
    exponents: the (p', q', r') family used.
    """

    parts: dict
    powers: dict
    element_terms: dict
    edge_terms: dict
    boundary_terms: dict
    exponents: dict
    edge_index: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), int))
    boundary_index: list = field(default_factory=list)
    edge_owner: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), int))
    boundary_owner: np.ndarray = None
    n_elements: int = 0

    def term_value(self, name):
        return self.parts[name] ** self.powers[name]

    def total(self):
        return float(sum(self.term_value(k) for k in self.parts))

    def element_indicator(self):
        """Additive per-triangle indicator: entity shares mapped to owners;
        sums to total()."""
        out = np.zeros(self.n_elements)
        for name, vals in self.element_terms.items():
            out += vals
        # np.add.at adds in index order: edge by edge, first owner first
        for name, vals in self.edge_terms.items():
            np.add.at(out, self.edge_owner.ravel(), np.repeat(0.5 * vals, 2))
        for name, vals in self.boundary_terms.items():
            np.add.at(out, self.boundary_owner[self.boundary_index], vals)
        return out

    def boundary_indicator(self):
        out = np.zeros(len(self.boundary_index))
        for vals in self.boundary_terms.values():
            out += vals
        return out


def _term_share(raw, power):
    """Distribute term_value = (sum raw)^power proportionally to raw parts."""
    s = float(np.sum(raw))
    if s <= 0:
        return np.zeros_like(raw)
    return raw / s * s ** power


def recover_gradient(space, coeffs):
    """Area-weighted nodal average of element gradients, as nodal values.

    Returns (nv, 2) in scalar mode, (nv, 2, 2) in vector mode.
    """
    t = space.mesh.triangles.ravel()
    g = space.gradients(coeffs)
    nv = len(space.mesh.vertices)
    col = (-1,) + (1,) * (g.ndim - 1)
    acc = np.zeros((nv,) + g.shape[1:])
    np.add.at(acc, t, np.repeat(space.areas.reshape(col) * g, 3, axis=0))
    wsum = np.bincount(t, weights=np.repeat(space.areas, 3), minlength=nv)
    return acc / wsum.reshape(col)


def _incidence(system):
    """Interior edges (sorted by vertex pair), their two triangles, and the
    triangle owning each boundary panel."""
    bs = system.bspace
    mesh = system.space.mesh
    interior = mesh.edge_triangles[:, 1] >= 0
    panels = mesh.find_edges(bs.loop[bs.panel_start], bs.loop[bs.panel_end])
    return mesh.edges[interior], mesh.edge_triangles[interior], mesh.edge_triangles[panels, 0]


def _edge_tractions(system, sig, panel_owner):
    """Per boundary panel: conormal A'(eps(u_h)) nu, sigma_n, sigma_t."""
    bs = system.bspace
    d = system.d
    tr = np.zeros((bs.n_panels, d))
    for l, k in enumerate(panel_owner):
        if d == 1:
            tr[l, 0] = sig[k] @ bs.normals[l]
        else:
            tr[l] = sig[k] @ bs.normals[l]
    if d == 1:
        sigma_n = np.zeros(bs.n_panels)
        sigma_t = -tr[:, 0]                    # scalar stress sigma = -A' nu
    else:
        sigma_n = -np.einsum("la,la->l", tr, bs.normals)
        tang = np.column_stack([-bs.normals[:, 1], bs.normals[:, 0]])
        sigma_t = -np.einsum("la,la->l", tr, tang)
    return tr, sigma_n, sigma_t


def _volume_term(system, quad_order=4):
    """Per-element h_T^{p'} ||f||_{Lp'(T)}^{p'}."""
    space = system.space
    mesh = space.mesh
    law = system.law
    pp = law.p_prime
    _, h_T, _ = mesh_size(mesh)
    if system.data.f is None:
        return np.zeros(len(mesh.triangles))
    rule = QuadratureRule(quad_order)
    verts = mesh.vertices[mesh.triangles]
    pts = rule.points(verts)
    fv = np.asarray(system.data.f(pts.reshape(-1, 2)), dtype=float)
    nt, nq = pts.shape[:2]
    if system.d == 1:
        mag = np.abs(fv.reshape(nt, nq))
    else:
        mag = np.linalg.norm(fv.reshape(nt, nq, 2), axis=2)
    integ = np.einsum("tq,q,t->t", mag ** pp, rule.weights, space.areas)
    return h_T ** pp * integ


def _jump_term(system, sig, edges, owners):
    """Per interior edge h_E || [A'(eps) nu] ||_{Lp'(E)}^{p'} (constant jumps)."""
    pp = system.law.p_prime
    p = system.space.mesh.vertices
    vals = []
    for (a, b), (t0, t1) in zip(edges, owners):
        t = p[b] - p[a]
        L = np.linalg.norm(t)
        nu = np.array([t[1], -t[0]]) / L
        if system.d == 1:
            jump = np.abs((sig[t0] - sig[t1]) @ nu)
        else:
            jump = np.linalg.norm((sig[t0] - sig[t1]) @ nu)
        vals.append(L * jump ** pp * L)        # h_E * |jump|^{p'} * measure
    return np.asarray(vals)


def _dual_norm_edgewise(system, lifted, expo):
    """(sum_l h_l ||g||_{L^expo(l)}^{expo})^(1/expo) pieces for a P1 lift g.

    Returns the per-panel raw contributions h_l ||g||^expo.
    """
    bs = system.bspace
    xq, wq = segment_gauss(6)
    mag = np.linalg.norm(bs.p1_values(lifted, xq), axis=2)
    return bs.lengths * bs.lengths * np.sum(wq * mag ** expo, axis=1)


def _lift(system, functional):
    """Riesz lift of a boundary functional vector through the P1 mass matrix."""
    return np.linalg.solve(system.ops.M1, functional)


def _friction_terms(system, sol, sigma_n, sigma_t):
    """Edgewise slip/complementarity integrals and positive-part norms."""
    bs = system.bspace
    law = system.law
    rp = law.r / (law.r - 1.0)
    slip = bs.slip_panels()
    xq, wq = segment_gauss(6)
    d = system.d
    v = sol.v.reshape(bs.n_nodes, d)
    stick, compl, pos_n, pos_t = (np.zeros(bs.n_panels) for _ in range(4))
    for l in np.nonzero(slip)[0]:
        Fv = system.friction_on_panel(l, xq)
        va = v[bs.panel_start[l]]
        vb = v[bs.panel_end[l]]
        vv = va[None, :] * (1 - xq)[:, None] + vb[None, :] * xq[:, None]
        if d == 1:
            vt = vv[:, 0]
            vn = np.zeros_like(vt)
        else:
            nu = bs.normals[l]
            tau = np.array([-nu[1], nu[0]])
            vt = vv @ tau
            vn = vv @ nu
        Le = bs.lengths[l]
        stick[l] = max(Le * np.sum(wq * (Fv * np.abs(vt) + sigma_t[l] * vt)), 0.0)
        compl[l] = Le * np.sum(wq * np.maximum(sigma_n[l] * vn, 0.0))
        pos_n[l] = Le * Le * np.sum(wq * np.maximum(sigma_n[l], 0.0) ** rp)
        pos_t[l] = Le * Le * np.sum(wq * np.maximum(np.abs(sigma_t[l]) - Fv, 0.0) ** rp)
    return stick, compl, pos_n, pos_t


def _consistency_term(system, sol, phi=None):
    """Pointwise ||V phi* + (1-K)(w - u0)||_{-1/2} surrogate, phi* from a V-solve."""
    bs = system.bspace
    ops = system.ops
    d = system.d
    g = sol.w - system.U0
    if phi is None:
        T = ops.Mb - ops.K
        phi = np.linalg.solve(ops.V, -(T @ g))
    xq, wq = segment_gauss(3)
    pts = bs.panel_points(xq).reshape(-1, 2)
    gl = bs.p1_values(g, xq).reshape(-1, d)
    vals = (eval_single_layer(bs, ops.coeffs, phi, pts) + 0.5 * gl
            - eval_double_layer_pv(bs, ops.coeffs, g, pts))
    mag = np.linalg.norm(vals, axis=1).reshape(bs.n_panels, len(xq))
    return bs.lengths * bs.lengths * np.sum(wq * mag ** 2, axis=1)


def _residual_estimate(system, sol, data_residual, phi, quad_order):
    """Residual estimator shared by both formulations.

    data_residual: boundary residual functional without the conormal term,
    t0 - S_h(w - u0) (Steklov-Poincare) or t0 - W(w - u0) + (1 - K') phi
    (layer potential); phi: density of the consistency term (None: solve
    for it).
    """
    law = system.law
    q = law.q
    qp = q / (q - 1.0)
    pp = law.p_prime
    rp = law.r / (law.r - 1.0)
    edges, owners, panel_owner = _incidence(system)
    sig = mat.stress(law, system.space.strains(sol.u))
    vol = _volume_term(system, quad_order)
    jump = _jump_term(system, sig, edges, owners)
    tr, sigma_n, sigma_t = _edge_tractions(system, sig, panel_owner)
    stick, compl, pos_n, pos_t = _friction_terms(system, sol, sigma_n, sigma_t)

    # boundary residual minus the conormal A'(eps) nu, lifted to P1
    lifted = _lift(system, data_residual - system._boundary_moments(tr))
    bres = _dual_norm_edgewise(system, lifted, rp)
    cons = _consistency_term(system, sol, phi=phi)

    parts = {
        "volume": float(np.sum(vol)),
        "jump": float(np.sum(jump)),
        "boundary_residual": float(np.sum(bres)),
        "friction_stick_slip": float(np.sum(stick)),
        "friction_normal_compl": float(np.sum(compl)),
        "friction_sigma_n_pos": float(np.sum(pos_n)),
        "friction_sigma_t_excess": float(np.sum(pos_t)),
        "consistency": float(np.sum(cons)),
    }
    powers = {
        "volume": qp / pp,
        "jump": qp / pp,
        "boundary_residual": qp / rp,
        "friction_stick_slip": 1.0,
        "friction_normal_compl": 1.0,
        "friction_sigma_n_pos": 1.0 / rp,
        "friction_sigma_t_excess": 1.0 / rp,
        "consistency": 1.0,
    }
    element_terms = {"volume": _term_share(vol, powers["volume"])}
    edge_terms = {"jump": _term_share(jump, powers["jump"])}
    boundary_terms = {
        "boundary_residual": _term_share(bres, powers["boundary_residual"]),
        "friction_stick_slip": _term_share(stick, 1.0),
        "friction_normal_compl": _term_share(compl, 1.0),
        "friction_sigma_n_pos": _term_share(pos_n, powers["friction_sigma_n_pos"]),
        "friction_sigma_t_excess": _term_share(pos_t, powers["friction_sigma_t_excess"]),
        "consistency": _term_share(cons, 1.0),
    }
    return IndicatorBreakdown(
        parts=parts, powers=powers,
        element_terms=element_terms, edge_terms=edge_terms,
        boundary_terms=boundary_terms,
        exponents={"p_prime": pp, "q_prime": qp, "r_prime": rp, "q": q,
                   "r": law.r},
        edge_index=edges, edge_owner=owners,
        boundary_index=list(range(system.bspace.n_panels)),
        boundary_owner=panel_owner,
        n_elements=len(system.space.mesh.triangles))


def estimate_sp(system, sol, quad_order=4):
    """Residual estimator of the Steklov-Poincare formulation."""
    data_residual = system.t0b - system.S @ (sol.w - system.U0)
    return _residual_estimate(system, sol, data_residual, None, quad_order)


def estimate_lp(system, sol, quad_order=4):
    """Residual estimator of the layer-potential formulation (needs sol.phi)."""
    if sol.phi is None:
        raise ValueError("layer-potential estimator needs the phi density")
    ops = system.ops
    data_residual = (system.t0b - ops.W @ (sol.w - system.U0)
                     - (ops.K - ops.Mb).T @ sol.phi)
    return _residual_estimate(system, sol, data_residual, sol.phi, quad_order)


def quasinorm_kernel(p, delta, a, b):
    """G_{p,delta}(a, b) = |b|^2 (|a| + |b| + delta)^(p-2).

    a, b: arrays whose last axis holds vector components (scalars allowed).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    amag = np.linalg.norm(a, axis=-1) if a.ndim >= 1 else np.abs(a)
    bmag = np.linalg.norm(b, axis=-1) if b.ndim >= 1 else np.abs(b)
    return bmag ** 2 * (amag + bmag + delta) ** (p - 2.0)


def estimate_scalar_appendix(system, sol, delta=0.0, quad_order=4):
    """Gradient-recovery estimator for the scalar problem with p >= 2."""
    law = system.law
    if law.mode != mat.MODE_VECTOR or system.d != 1:
        raise ValueError("appendix estimator is scalar-only")
    if law.p < 2.0:
        raise ValueError("appendix estimator requires p >= 2")
    space = system.space
    mesh = space.mesh
    pp = law.p_prime
    rule = QuadratureRule(quad_order)
    _, h_T, _ = mesh_size(mesh)

    grads = space.gradients(sol.u)                       # (nt, 2)
    G = recover_gradient(space, sol.u)                   # (nv, 2)
    verts = mesh.vertices[mesh.triangles]
    pts = rule.points(verts)
    nt, nq = pts.shape[:2]
    Gq = np.einsum("qk,tkc->tqc", rule.bary, G[mesh.triangles])

    # eta_gr^2 = sum_K int G_{p,delta}(grad u_h, grad u_h - G_h u_h)
    diff = grads[:, None, :] - Gq
    amag = np.linalg.norm(grads, axis=1)[:, None]
    bmag = np.linalg.norm(diff, axis=2)
    kern = bmag ** 2 * (amag + bmag + delta) ** (law.p - 2.0)
    eta_gr = np.einsum("tq,q,t->t", kern, rule.weights, space.areas)

    # eta_f^2 = sum_K int G_{p',1}(|grad u_h|^{p-1}, h_K (f - f_K))
    if system.data.f is not None:
        fv = np.asarray(system.data.f(pts.reshape(-1, 2)), dtype=float).reshape(nt, nq)
        fK = np.einsum("tq,q->t", fv, rule.weights)      # elementwise mean
        dev = h_T[:, None] * (fv - fK[:, None])
        a2 = (np.linalg.norm(grads, axis=1) ** (law.p - 1.0))[:, None]
        b2 = np.abs(dev)
        kern2 = b2 ** 2 * (a2 + b2 + 1.0) ** (pp - 2.0)
        eta_f = np.einsum("tq,q,t->t", kern2, rule.weights, space.areas)
    else:
        eta_f = np.zeros(nt)

    cons = _consistency_term(system, sol, phi=sol.phi)
    *_, panel_owner = _incidence(system)
    tr, sigma_n, sigma_t = _edge_tractions(
        system, mat.stress(law, space.strains(sol.u)), panel_owner)

    # boundary residual nu.A'(grad u_h) + S_h(w - u0) - t0 in W^{-1+1/p,p'}
    res_vec = (system._boundary_moments(tr)
               + system.S @ (sol.w - system.U0) - system.t0b)
    lifted = _lift(system, res_vec)
    eta_bd = _dual_norm_edgewise(system, lifted, pp)

    # friction: sigma here is the scalar -A'(grad u_h).nu on slip panels
    bs = system.bspace
    slip = np.nonzero(bs.slip_panels())[0]
    xq, wq = segment_gauss(6)
    v = sol.v.reshape(bs.n_nodes)
    g_excess = np.zeros(bs.n_panels)
    g_slack = np.zeros(bs.n_panels)
    g_compl = np.zeros(bs.n_panels)
    for l in slip:
        gval = system.friction_on_panel(l, xq)
        vv = (v[bs.panel_start[l]] * (1 - xq) + v[bs.panel_end[l]] * xq)
        sig = sigma_t[l]
        Le = bs.lengths[l]
        g_excess[l] = Le * Le * np.sum(wq * np.maximum(np.abs(sig) - gval, 0.0) ** 2)
        g_slack[l] = Le * np.sum(wq * np.abs(np.minimum(np.abs(sig) - gval, 0.0))
                                 * np.abs(vv))
        g_compl[l] = Le * np.sum(wq * np.maximum(sig * vv, 0.0))

    parts = {
        "grad_recovery": float(np.sum(eta_gr)),
        "data_oscillation": float(np.sum(eta_f)),
        "consistency": float(np.sum(cons)),
        "boundary_residual": float(np.sum(eta_bd)),
        "friction_excess": float(np.sum(g_excess)),
        "friction_slack_slip": float(np.sum(g_slack)),
        "friction_compl": float(np.sum(g_compl)),
    }
    powers = {
        "grad_recovery": 1.0,
        "data_oscillation": 1.0,
        "consistency": 1.0,
        "boundary_residual": 1.0,       # raw sum is already the p'-power
        "friction_excess": pp / 2.0,
        "friction_slack_slip": 1.0,
        "friction_compl": 1.0,
    }
    element_terms = {
        "grad_recovery": _term_share(eta_gr, 1.0),
        "data_oscillation": _term_share(eta_f, 1.0),
    }
    boundary_terms = {
        "consistency": _term_share(cons, 1.0),
        "boundary_residual": _term_share(eta_bd, 1.0),
        "friction_excess": _term_share(g_excess, powers["friction_excess"]),
        "friction_slack_slip": _term_share(g_slack, 1.0),
        "friction_compl": _term_share(g_compl, 1.0),
    }
    return IndicatorBreakdown(
        parts=parts, powers=powers,
        element_terms=element_terms, edge_terms={},
        boundary_terms=boundary_terms,
        exponents={"p_prime": pp, "q": law.q, "r": law.r},
        boundary_index=list(range(bs.n_panels)),
        boundary_owner=panel_owner,
        n_elements=len(mesh.triangles))


def indicators_csv(ind, path):
    """One row per entity: kind, term, entity id, value, power tag."""
    rows = ["kind,term,entity,value,power"]
    for name, vals in ind.element_terms.items():
        for k, v in enumerate(vals):
            rows.append("element,%s,%d,%.17g,%.17g" % (name, k, v, ind.powers[name]))
    for name, vals in ind.edge_terms.items():
        for e, v in zip(ind.edge_index, vals):
            rows.append("edge,%s,%d-%d,%.17g,%.17g"
                        % (name, e[0], e[1], v, ind.powers[name]))
    for name, vals in ind.boundary_terms.items():
        for e, v in zip(ind.boundary_index, vals):
            rows.append("boundary,%s,%d,%.17g,%.17g" % (name, e, v, ind.powers[name]))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")

"""A posteriori error indicators for the coupled contact solves.

Three estimators are provided: the Steklov-Poincare residual estimator, the
layer-potential variant (whose operator-consistency term is fully
computable), and the gradient-recovery estimator for the scalar dilatant
problem.  Negative-order boundary norms are localized edgewise:

    ||g||_{-1/2,2}     ~ (sum_l h_l ||g||_{L2(l)}^2)^{1/2}
    ||g||_{-1+1/r,r'}  ~ (sum_l h_l ||g||_{Lr'(l)}^{r'})^{1/r'}

with boundary residual functionals lifted to P1 functions through the
boundary mass matrix.

Both the residual and the gradient-recovery estimator read the boundary
through `_boundary_data`: the conormal tractions A'(eps(u_h)) nu per
panel, the lift of the boundary residual, and `_slip_quadrature`, which
evaluates the friction bound, v_t and v_n at the 6-point Gauss rule on all
slip panels at once.  The traction, jump and friction terms are array
expressions over all panels or edges.

Each estimator ends in one term table: ordered rows (kind, name, raw value
per entity, outer power), which `_breakdown` turns into the term sums,
powers and per-entity shares of an IndicatorBreakdown, in row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import material as mat
from .bem import eval_layer_potentials
from .export import format_rows
from .mesh import mesh_size
from .quadrature import QuadratureRule, segment_gauss


@dataclass
class IndicatorBreakdown:
    """Named estimator terms with per-entity contributions, built by
    `_breakdown` from one term table in the order the estimator lists them.

    parts: term name -> raw inner sum (before the outer exponent)
    powers: term name -> outer exponent applied in the total
    element_terms / edge_terms / boundary_terms: per-entity shares of the
    final (exponentiated) term values, for marking.
    edge_index, edge_owner: interior edges and their two triangles;
    boundary_owner: the triangle owning each boundary panel.
    """

    parts: dict
    powers: dict
    element_terms: dict
    edge_terms: dict
    boundary_terms: dict
    edge_index: np.ndarray
    edge_owner: np.ndarray
    boundary_owner: np.ndarray
    n_elements: int

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
            np.add.at(out, self.boundary_owner, vals)
        return out


def _term_share(raw, power):
    """Distribute term_value = (sum raw)^power proportionally to raw parts."""
    s = float(np.sum(raw))
    if s <= 0:
        return np.zeros_like(raw)
    return raw / s * s ** power


def _breakdown(system, terms, incidence):
    """IndicatorBreakdown from ordered rows (kind, name, raw per entity,
    power), kind one of "element", "edge", "boundary"; incidence is what
    `_incidence` returns."""
    parts, powers = {}, {}
    shares = {"element": {}, "edge": {}, "boundary": {}}
    for kind, name, raw, power in terms:
        parts[name] = float(np.sum(raw))
        powers[name] = power
        shares[kind][name] = _term_share(raw, power)
    edges, owners, panel_owner = incidence
    return IndicatorBreakdown(parts, powers, shares["element"], shares["edge"],
                              shares["boundary"], edges, owners, panel_owner,
                              len(system.space.mesh.triangles))


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
    # one matmul per panel, so each rounds like sig[k] @ nu
    tr = (sig[panel_owner].reshape(-1, d, 2) @ bs.normals[:, :, None])[:, :, 0]
    if d == 1:
        sigma_n = np.zeros(bs.n_panels)
        sigma_t = -tr[:, 0]                    # scalar stress sigma = -A' nu
    else:
        sigma_n = -np.einsum("la,la->l", tr, bs.normals)
        sigma_t = -np.einsum("la,la->l", tr, bs.tangents)
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
    mag = np.linalg.norm(fv.reshape(nt, nq, -1), axis=2)
    integ = np.einsum("tq,q,t->t", mag ** pp, rule.weights, space.areas)
    return h_T ** pp * integ


def _jump_term(system, sig, edges, owners):
    """Per interior edge h_E || [A'(eps) nu] ||_{Lp'(E)}^{p'} (constant jumps)."""
    pp = system.law.p_prime
    d = system.d
    p = system.space.mesh.vertices
    t = p[edges[:, 1]] - p[edges[:, 0]]
    # sqrt of a matmul self-dot rounds like the 1-D norm of each edge
    L = np.sqrt((t[:, None, :] @ t[:, :, None])[:, 0, 0])
    nu = np.column_stack([t[:, 1], -t[:, 0]]) / L[:, None]
    jump = (sig[owners[:, 0]] - sig[owners[:, 1]]).reshape(-1, d, 2) @ nu[:, :, None]
    mag = np.sqrt((jump.transpose(0, 2, 1) @ jump)[:, 0, 0])
    return L * mag ** pp * L                   # h_E * |jump|^{p'} * measure


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


def _slip_quadrature(system, sol):
    """Slip panels, the 6-point Gauss weights, and the friction bound, v_t
    and v_n at those points on each slip panel: (n_slip, 6) arrays."""
    bs = system.bspace
    slip = np.nonzero(bs.slip_panels())[0]
    xq, wq = segment_gauss(6)
    v = bs.p1_values(sol.v, xq)[slip]
    if system.d == 1:
        vt = v[:, :, 0]
        vn = np.zeros_like(vt)
    else:
        vt = (v @ bs.tangents[slip][:, :, None])[:, :, 0]
        vn = (v @ bs.normals[slip][:, :, None])[:, :, 0]
    return slip, wq, system.friction_bound(xq, slip), vt, vn


def _boundary_data(system, sol, sig, panel_owner, data_residual):
    """What both estimators evaluate on the boundary: the P1 lift of the
    boundary residual (data_residual minus the conormal moments), sigma_n
    and sigma_t per panel, and the slip-panel quadrature."""
    tr, sigma_n, sigma_t = _edge_tractions(system, sig, panel_owner)
    lifted = _lift(system, data_residual - system._boundary_moments(tr))
    return lifted, sigma_n, sigma_t, _slip_quadrature(system, sol)


def _friction_terms(system, sigma_n, sigma_t, quad):
    """Edgewise slip/complementarity integrals and positive-part norms."""
    bs = system.bspace
    law = system.law
    rp = law.r / (law.r - 1.0)
    slip, wq, Fv, vt, vn = quad
    Le = bs.lengths[slip]
    sn = sigma_n[slip][:, None]
    st = sigma_t[slip][:, None]
    stick, compl, pos_n, pos_t = (np.zeros(bs.n_panels) for _ in range(4))
    stick[slip] = np.maximum(Le * np.sum(wq * (Fv * np.abs(vt) + st * vt), axis=1), 0.0)
    compl[slip] = Le * np.sum(wq * np.maximum(sn * vn, 0.0), axis=1)
    pos_n[slip] = Le * Le * np.sum(wq * np.maximum(sn, 0.0) ** rp, axis=1)
    pos_t[slip] = Le * Le * np.sum(wq * np.maximum(np.abs(st) - Fv, 0.0) ** rp, axis=1)
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
    vphi, kg = eval_layer_potentials(bs, ops.coeffs, phi, g, pts)
    vals = vphi + 0.5 * gl - kg
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
    qp = law.q / (law.q - 1.0)
    pp = law.p_prime
    rp = law.r / (law.r - 1.0)
    incidence = edges, owners, panel_owner = _incidence(system)
    sig = mat.stress(law, system.space.strains(sol.u))
    lifted, sigma_n, sigma_t, quad = _boundary_data(
        system, sol, sig, panel_owner, data_residual)
    stick, compl, pos_n, pos_t = _friction_terms(system, sigma_n, sigma_t, quad)
    return _breakdown(system, [
        ("element", "volume", _volume_term(system, quad_order), qp / pp),
        ("edge", "jump", _jump_term(system, sig, edges, owners), qp / pp),
        ("boundary", "boundary_residual", _dual_norm_edgewise(system, lifted, rp), qp / rp),
        ("boundary", "friction_stick_slip", stick, 1.0),
        ("boundary", "friction_normal_compl", compl, 1.0),
        ("boundary", "friction_sigma_n_pos", pos_n, 1.0 / rp),
        ("boundary", "friction_sigma_t_excess", pos_t, 1.0 / rp),
        ("boundary", "consistency", _consistency_term(system, sol, phi=phi), 1.0),
    ], incidence)


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


def _kernel(p, delta, amag, bmag):
    """G_{p,delta} in magnitude form: |b|^2 (|a| + |b| + delta)^(p-2)."""
    return bmag ** 2 * (amag + bmag + delta) ** (p - 2.0)


def estimate_scalar_appendix(system, sol, delta=0.0, quad_order=4):
    """Gradient-recovery estimator for the scalar problem with p >= 2."""
    law = system.law
    if system.d != 1:
        raise ValueError("appendix estimator is scalar-only")
    if law.p < 2.0:
        raise ValueError("appendix estimator requires p >= 2")
    space = system.space
    mesh = space.mesh
    pp = law.p_prime
    rule = QuadratureRule(quad_order)
    _, h_T, _ = mesh_size(mesh)

    grads = space.gradients(sol.u)                       # (nt, 2)
    gmag = np.linalg.norm(grads, axis=1)[:, None]
    G = recover_gradient(space, sol.u)                   # (nv, 2)
    pts = rule.points(mesh.vertices[mesh.triangles])
    nt, nq = pts.shape[:2]
    Gq = np.einsum("qk,tkc->tqc", rule.bary, G[mesh.triangles])

    # eta_gr^2 = sum_K int G_{p,delta}(grad u_h, grad u_h - G_h u_h)
    kern = _kernel(law.p, delta, gmag, np.linalg.norm(grads[:, None, :] - Gq, axis=2))
    eta_gr = np.einsum("tq,q,t->t", kern, rule.weights, space.areas)

    # eta_f^2 = sum_K int G_{p',1}(|grad u_h|^{p-1}, h_K (f - f_K))
    if system.data.f is not None:
        fv = np.asarray(system.data.f(pts.reshape(-1, 2)), dtype=float).reshape(nt, nq)
        fK = np.einsum("tq,q->t", fv, rule.weights)      # elementwise mean
        dev = h_T[:, None] * (fv - fK[:, None])
        kern = _kernel(pp, 1.0, gmag ** (law.p - 1.0), np.abs(dev))
        eta_f = np.einsum("tq,q,t->t", kern, rule.weights, space.areas)
    else:
        eta_f = np.zeros(nt)

    incidence = _incidence(system)
    # boundary residual nu.A'(grad u_h) + S_h(w - u0) - t0 in W^{-1+1/p,p'},
    # lifted with the opposite sign, which the norm does not see
    lifted, _, sigma_t, (slip, wq, gval, vt, _) = _boundary_data(
        system, sol, mat.stress(law, space.strains(sol.u)), incidence[2],
        system.t0b - system.S @ (sol.w - system.U0))

    # friction: sigma here is the scalar -A'(grad u_h).nu on slip panels
    bs = system.bspace
    Le = bs.lengths[slip]
    sig = sigma_t[slip][:, None]
    g_excess, g_slack, g_compl = (np.zeros(bs.n_panels) for _ in range(3))
    g_excess[slip] = Le * Le * np.sum(wq * np.maximum(np.abs(sig) - gval, 0.0) ** 2, axis=1)
    g_slack[slip] = Le * np.sum(wq * np.abs(np.minimum(np.abs(sig) - gval, 0.0))
                                * np.abs(vt), axis=1)
    g_compl[slip] = Le * np.sum(wq * np.maximum(sig * vt, 0.0), axis=1)

    return _breakdown(system, [
        ("element", "grad_recovery", eta_gr, 1.0),
        ("element", "data_oscillation", eta_f, 1.0),
        ("boundary", "consistency", _consistency_term(system, sol, phi=sol.phi), 1.0),
        # the raw sum is already the p'-power
        ("boundary", "boundary_residual", _dual_norm_edgewise(system, lifted, pp), 1.0),
        ("boundary", "friction_excess", g_excess, pp / 2.0),
        ("boundary", "friction_slack_slip", g_slack, 1.0),
        ("boundary", "friction_compl", g_compl, 1.0),
    ], incidence)


def indicators_csv(ind, path):
    """One row per entity: kind, term, entity id, value, power tag."""
    parts = ["kind,term,entity,value,power\n"]
    for kind, terms in (("element", ind.element_terms), ("edge", ind.edge_terms),
                        ("boundary", ind.boundary_terms)):
        for name, vals in terms.items():
            # the term's name and power are fixed in the row format
            head = "%s,%s," % (kind, name)
            tail = ",%%.17g,%.17g\n" % ind.powers[name]
            if kind == "edge":
                parts.append(format_rows(head + "%d-%d" + tail, *ind.edge_index.T, vals))
            else:
                parts.append(format_rows(head + "%d" + tail, np.arange(len(vals)), vals))
    with open(path, "w") as fh:
        fh.write("".join(parts))

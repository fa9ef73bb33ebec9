"""Solvers for the coupled discrete variational inequalities.

Unknowns: interior P1 coefficients U, slip-boundary jump coefficients Z in
nodal normal/tangential coordinates, and (layer-potential formulation) a
piecewise-constant boundary density P.  The contact constraint v_n <= 0 is
enforced nodewise; Tresca friction uses the mass-lumped bound F_k with the
smoothed absolute value sqrt(s^2 + gamma^2) - gamma driven to gamma_min by
continuation.  The n=2 compatibility constraints <S 1_j, w - u0> = 0 are
eliminated exactly through pivot substitution.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .bem import rigid_motions, stabilization_data, stabilization_vectors
from .material import MaterialLaw
from .quadrature import segment_gauss


class SolverError(RuntimeError):
    pass


@dataclass
class FrictionData:
    nodes: np.ndarray          # slip node indices into the boundary loop
    F: np.ndarray              # lumped friction bound int_{Gamma_s} F psi_k
    omega: np.ndarray          # lumped hat weights int psi_k over slip panels


@dataclass
class ProblemData:
    f: object = None          # callable pts -> (n,) or (n,2)
    u0: object = None         # callable pts -> (n,) or (n,2)
    t0: object = None         # callable (pts, normal) -> (n,) or (n,2)
    friction: object = None   # callable pts -> (n,) nonneg bound on Gamma_s


@dataclass
class DiscreteSolution:
    u: np.ndarray
    z: np.ndarray
    v: np.ndarray
    w: np.ndarray
    phi: np.ndarray = None
    lam_n: np.ndarray = None          # multipliers of v_n <= 0 (>= 0)
    mu_t: np.ndarray = None           # friction dual (|mu| <= F)
    compat_mult: np.ndarray = None
    compat_residual: float = 0.0
    objective: float = 0.0
    iterations: int = 0
    residual: float = 0.0
    gamma: float = 0.0
    converged: bool = True
    energy_history: list = field(default_factory=list)


class CoupledSystem:
    """Discrete energy J_h + lumped friction over (U, Z) with S_h coupling."""

    def __init__(self, space, bspace, ops, law, data, ncompat=None,
                 quad_order=4):
        self.space = space
        self.bspace = bspace
        self.ops = ops
        self.law = law
        self.data = data
        self.d = space.ncomp
        if ops.d != self.d:
            raise ValueError("operator/space component mismatch")
        self.S = ops.steklov_poincare()

        M = bspace.n_nodes
        d = self.d
        self.nU = space.ndof
        # trace map: boundary P1 dof (k, c) -> interior dof
        rows = np.arange(M * d)
        cols = np.repeat(bspace.loop, d) * d + np.tile(np.arange(d), M)
        self.Tr = sp.csr_matrix((np.ones(M * d), (rows, cols)),
                                shape=(M * d, self.nU))

        # slip structure
        self.slip_nodes = bspace.slip_nodes()
        ns = len(self.slip_nodes)
        self.nZ = ns * d
        if d == 1:
            self.idx_zn = np.array([], dtype=int)
            self.idx_zt = np.arange(ns)
        else:
            self.idx_zn = 2 * np.arange(ns)
            self.idx_zt = 2 * np.arange(ns) + 1
        nrm = bspace.node_normals()
        cols, rows, vals = [], [], []
        for j, k in enumerate(self.slip_nodes):
            if d == 1:
                rows.append(k); cols.append(j); vals.append(1.0)
            else:
                nu = nrm[k]
                tau = np.array([-nu[1], nu[0]])
                for a in range(2):
                    rows.append(2 * k + a); cols.append(2 * j); vals.append(nu[a])
                    rows.append(2 * k + a); cols.append(2 * j + 1); vals.append(tau[a])
        self.Es = sp.csr_matrix((vals, (rows, cols)), shape=(M * d, self.nZ))
        self.node_normals = nrm

        # data vectors; u0/t0/friction accept callables or nodal/panel arrays
        self.b_f = (fem.assemble_load(space, data.f, quad_order)
                    if data.f is not None else np.zeros(self.nU))
        if data.u0 is None:
            self.U0 = np.zeros(M * d)
        elif isinstance(data.u0, np.ndarray):
            self.U0 = np.asarray(data.u0, dtype=float).reshape(M * d)
        else:
            self.U0 = bspace.interpolate_nodes(data.u0, d)
        self.t0b = self._boundary_moments(data.t0)
        self.gb = self.t0b + self.S @ self.U0
        self.friction = self._friction_data(data.friction)

        # compatibility constraint rows over x = (U, Z)
        if ncompat is None:
            ncompat = 1 if d == 1 else 2
        self.ncompat = int(ncompat)
        self.compat_dirs = self._compat_directions()
        n = self.nU + self.nZ
        if self.ncompat:
            Cw = self.compat_dirs.T @ self.S            # (ncon, dM)
            self.C = np.hstack([Cw @ self.Tr.toarray(), Cw @ self.Es.toarray()])
            self.c0 = Cw @ self.U0
        else:
            self.C = np.zeros((0, n))
            self.c0 = np.zeros(0)

        # constant part of the Hessian: [Tr,Es]^T S [Tr,Es]
        B = sp.hstack([self.Tr, self.Es]).tocsr()
        self.B = B
        self.H_bd = (B.T @ sp.csr_matrix(self.S) @ B).tocsr()
        self.g_bd = B.T @ self.gb

        self.compat_data_residual = self._data_compat_residual()

    # -- assembly helpers ---------------------------------------------------

    def _boundary_moments(self, t0):
        bs = self.bspace
        d = self.d
        out = np.zeros(bs.n_nodes * d)
        if t0 is None:
            return out
        if isinstance(t0, np.ndarray):
            vals = np.asarray(t0, dtype=float).reshape(bs.n_panels, d)
            for l in range(bs.n_panels):
                n0, n1 = bs.panel_start[l], bs.panel_end[l]
                for a in range(d):
                    out[n0 * d + a] += 0.5 * bs.lengths[l] * vals[l, a]
                    out[n1 * d + a] += 0.5 * bs.lengths[l] * vals[l, a]
            return out
        xq, wq = segment_gauss(4)
        for l in range(bs.n_panels):
            pts = bs.A[l][None, :] + xq[:, None] * (bs.B[l] - bs.A[l])[None, :]
            vals = np.asarray(t0(pts, bs.normals[l]), dtype=float).reshape(len(xq), d)
            n0, n1 = bs.panel_start[l], bs.panel_end[l]
            w0 = bs.lengths[l] * wq * (1 - xq)
            w1 = bs.lengths[l] * wq * xq
            for a in range(d):
                out[n0 * d + a] += np.sum(w0 * vals[:, a])
                out[n1 * d + a] += np.sum(w1 * vals[:, a])
        return out

    def _friction_data(self, fr):
        bs = self.bspace
        nodes = self.slip_nodes
        F = np.zeros(len(nodes))
        omega = np.zeros(len(nodes))
        if len(nodes) == 0:
            return FrictionData(nodes=nodes, F=F, omega=omega)
        xq, wq = segment_gauss(4)
        pos = {int(k): j for j, k in enumerate(nodes)}
        slip = bs.slip_panels()
        fr_nodal = fr if isinstance(fr, np.ndarray) else None
        if fr_nodal is not None:
            fr_nodal = np.asarray(fr_nodal, dtype=float).reshape(bs.n_nodes)
        for l in range(bs.n_panels):
            if not slip[l]:
                continue
            pts = bs.A[l][None, :] + xq[:, None] * (bs.B[l] - bs.A[l])[None, :]
            if fr_nodal is not None:
                g = (fr_nodal[bs.panel_start[l]] * (1 - xq)
                     + fr_nodal[bs.panel_end[l]] * xq)
            elif fr is not None:
                g = np.asarray(fr(pts), dtype=float).reshape(-1)
            else:
                g = np.zeros(len(xq))
            if np.any(g < -1e-14):
                raise ValueError("friction bound must be nonnegative")
            n0, n1 = int(bs.panel_start[l]), int(bs.panel_end[l])
            if n0 in pos:
                F[pos[n0]] += bs.lengths[l] * np.sum(wq * (1 - xq) * g)
                omega[pos[n0]] += bs.lengths[l] * np.sum(wq * (1 - xq))
            if n1 in pos:
                F[pos[n1]] += bs.lengths[l] * np.sum(wq * xq * g)
                omega[pos[n1]] += bs.lengths[l] * np.sum(wq * xq)
        return FrictionData(nodes=nodes, F=F, omega=omega)

    def friction_on_panel(self, l, t):
        """Friction bound values at local coordinates t on panel l."""
        fr = self.data.friction
        bs = self.bspace
        t = np.asarray(t, dtype=float)
        if fr is None:
            return np.zeros(len(t))
        if isinstance(fr, np.ndarray):
            v = np.asarray(fr, dtype=float).reshape(bs.n_nodes)
            return v[bs.panel_start[l]] * (1 - t) + v[bs.panel_end[l]] * t
        pts = bs.A[l][None, :] + t[:, None] * (bs.B[l] - bs.A[l])[None, :]
        return np.asarray(fr(pts), dtype=float).reshape(-1)

    def _compat_directions(self):
        M, d = self.bspace.n_nodes, self.d
        dirs = []
        if d == 1:
            dirs.append(np.ones(M))
        else:
            for e in np.eye(2):
                dirs.append(np.tile(e, M))
            rot = np.column_stack([-self.bspace.nodes[:, 1],
                                   self.bspace.nodes[:, 0]]).reshape(-1)
            dirs.append(rot)
        return np.column_stack(dirs[:max(self.ncompat, 1)])[:, :self.ncompat] \
            if self.ncompat else np.zeros((M * d, 0))

    def _data_compat_residual(self):
        """int f . c + <t0, c> per constant direction (should vanish for n=2)."""
        M, d = self.bspace.n_nodes, self.d
        out = []
        for a in range(d):
            const = np.zeros(self.nU)
            const[a::d] = 1.0
            tvec = np.zeros(M * d)
            tvec[a::d] = 1.0
            out.append(float(self.b_f @ const + self.t0b @ tvec))
        return np.asarray(out)

    # -- objective ----------------------------------------------------------

    def split(self, x):
        return x[:self.nU], x[self.nU:]

    def w_of(self, x):
        return self.B @ x

    def phi_smooth(self, x):
        U = x[:self.nU]
        w = self.B @ x
        e = fem.energy(self.space, self.law, U)
        return (e + 0.5 * w @ (self.S @ w) - self.b_f @ U - self.gb @ w)

    def grad_smooth(self, x):
        U = x[:self.nU]
        g = np.zeros_like(x)
        g[:self.nU] = fem.assemble_residual(self.space, self.law, U) - self.b_f
        g += self.H_bd @ x - self.g_bd
        return g

    def hess_smooth(self, x):
        U = x[:self.nU]
        Hu = fem.assemble_tangent(self.space, self.law, U)
        H = sp.block_diag([Hu, sp.csr_matrix((self.nZ, self.nZ))]).tocsr()
        return H + self.H_bd

    def friction_terms(self, x, gamma):
        """(value, grad contribution, Hessian diagonal) of the smoothed friction."""
        val = 0.0
        g = np.zeros_like(x)
        hdiag = np.zeros_like(x)
        if self.nZ == 0 or len(self.friction.F) == 0:
            return val, g, hdiag
        idx = self.nU + self.idx_zt
        s = x[idx]
        F = self.friction.F
        root = np.sqrt(s * s + gamma * gamma)
        val = float(np.sum(F * (root - gamma)))
        g[idx] = F * s / np.maximum(root, 1e-300)
        hdiag[idx] = F * gamma * gamma / np.maximum(root ** 3, 1e-300)
        return val, g, hdiag

    def objective(self, x, gamma):
        val, _, _ = self.friction_terms(x, gamma)
        return self.phi_smooth(x) + val

    def exact_objective(self, x):
        """J_h + lumped nonsmooth friction term."""
        val = 0.0
        if self.nZ and len(self.friction.F):
            s = x[self.nU + self.idx_zt]
            val = float(np.sum(self.friction.F * np.abs(s)))
        return self.phi_smooth(x) + val

    def compat_residual(self, x):
        if self.ncompat == 0:
            return 0.0
        return float(np.abs(self.C @ x - self.c0).max())

    @cached_property
    def reduction(self):
        """Elimination of the compatibility rows, built on first use."""
        return _Reduction(self)


# -- reduced space (exact elimination of the compatibility constraints) -------

class _Reduction:
    def __init__(self, system):
        n = system.nU + system.nZ
        C, c0 = system.C, system.c0
        ncon = C.shape[0]
        self.n = n
        if ncon == 0:
            self.free = np.arange(n)
            self.pivots = np.array([], dtype=int)
            self.xp = np.zeros(n)
            self.N = sp.identity(n, format="csr")
            self.bound_red = system.nU + system.idx_zn
            return
        # pivots among boundary-trace U dofs (never Z): greedy max-pivot Gauss
        bd_cols = np.unique(system.Tr.indices)
        piv = []
        work = C.copy()
        used = np.zeros(n, dtype=bool)
        for i in range(ncon):
            row = work[i]
            cand = np.abs(row)
            cand[used] = 0.0
            mask = np.zeros(n, dtype=bool)
            mask[bd_cols] = True
            cand[~mask] = 0.0
            j = int(np.argmax(cand))
            if cand[j] == 0.0:
                raise SolverError("compatibility rows are degenerate")
            piv.append(j)
            used[j] = True
            for k in range(ncon):
                if k != i:
                    work[k] = work[k] - work[k, j] / row[j] * row
        self.pivots = np.asarray(piv, dtype=int)
        self.free = np.setdiff1d(np.arange(n), self.pivots)
        CP = C[:, self.pivots]
        CF = C[:, self.free]
        self.CPinv = np.linalg.inv(CP)
        xp = np.zeros(n)
        xp[self.pivots] = self.CPinv @ c0
        self.xp = xp
        # N: x = xp + N z ;  x_free = z, x_piv = -CP^{-1} CF z
        rows = list(self.free)
        cols = list(range(len(self.free)))
        vals = [1.0] * len(self.free)
        M = -self.CPinv @ CF                      # (ncon, nfree)
        for i, p in enumerate(self.pivots):
            nz = np.nonzero(M[i])[0]
            rows.extend([p] * len(nz))
            cols.extend(nz.tolist())
            vals.extend(M[i, nz].tolist())
        self.N = sp.csr_matrix((vals, (rows, cols)), shape=(n, len(self.free)))
        # bound coordinates (v_n) in reduced numbering
        glob = system.nU + system.idx_zn
        lookup = -np.ones(n, dtype=int)
        lookup[self.free] = np.arange(len(self.free))
        red = lookup[glob]
        if np.any(red < 0):
            raise SolverError("a constrained dof was chosen as pivot")
        self.bound_red = red

    def x(self, z):
        return self.xp + self.N @ z

    def z0(self, x):
        return x[self.free] - self.xp[self.free]


def _factor_solve(H, rhs):
    try:
        return spla.spsolve(H.tocsc(), rhs)
    except RuntimeError:
        n = H.shape[0]
        shift = 1e-12 * (abs(H.diagonal()).max() + 1.0)
        return spla.spsolve((H + shift * sp.identity(n)).tocsc(), rhs)


def _residual_scale(system):
    """Data magnitude that the absolute solver tolerances are relative to."""
    return max(1.0, np.abs(system.gb).max(), np.abs(system.b_f).max())


def _gamma_schedule(gamma_min):
    """Smoothing parameters of the continuation: 1e-2, 1e-3, ... down to
    gamma_min, without a stage that differs from gamma_min only by rounding."""
    gammas = []
    g = 1e-2
    while g > gamma_min * (1.0 + 1e-12):
        gammas.append(g)
        g *= 0.1
    gammas.append(gamma_min)
    return gammas


def _minimize(system, gamma, x_init, tol, max_iter, track=None, bounds=None):
    """Projected active-set Newton for the smoothed convex objective.

    bounds: reduced coordinates held <= 0 (default: the v_n coordinates).
    """
    red = system.reduction
    z = red.z0(np.asarray(x_init, dtype=float))
    bound = red.bound_red if bounds is None else bounds
    z[bound] = np.minimum(z[bound], 0.0)

    def fun(zv):
        return system.objective(red.x(zv), gamma)

    fz = fun(z)
    if track is not None:
        track.append(fz)
    scale = _residual_scale(system)
    it = 0
    for it in range(1, max_iter + 1):
        x = red.x(z)
        _, gfr, hdiag = system.friction_terms(x, gamma)
        g = system.grad_smooth(x) + gfr
        gz = red.N.T @ g

        # KKT measure: free coords gradient, bound coords complementarity.
        # Friction coords are rescaled by the smoothing curvature: near the
        # kink the gradient slope is ~F/gamma and a raw gradient tolerance
        # would demand sub-eps coordinate accuracy.
        relax = 1.0 + hdiag[red.free]
        meas = np.abs(gz) / relax
        if len(bound):
            act = z[bound] >= -1e-14 * max(1.0, np.abs(z).max())
            comp = np.where(act, np.maximum(gz[bound], 0.0), np.abs(gz[bound]))
            meas[bound] = comp
        resid = float(meas.max()) if len(meas) else 0.0
        if resid <= tol * scale:
            break

        H = system.hess_smooth(x) + sp.diags(hdiag)
        Hz = (red.N.T @ H @ red.N).tocsr()

        fixed = np.zeros(len(z), dtype=bool)
        if len(bound):
            fixed[bound] = (z[bound] >= -1e-14 * max(1.0, np.abs(z).max())) & (gz[bound] < 0)
        free = np.nonzero(~fixed)[0]
        d = np.zeros_like(z)
        Hf = Hz[free][:, free]
        d[free] = _factor_solve(Hf, -gz[free])
        if not np.all(np.isfinite(d)) or gz @ d > 0:
            d = -gz
            d[fixed] = 0.0

        t = 1.0
        accepted = False
        for _ in range(60):
            zt = z + t * d
            zt[bound] = np.minimum(zt[bound], 0.0)
            ft = fun(zt)
            if ft <= fz + 1e-4 * (gz @ (zt - z)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        step_len = np.linalg.norm(zt - z)
        z, fz = zt, ft
        if track is not None:
            track.append(fz)
        if step_len <= 1e-15 * (1.0 + np.linalg.norm(z)):
            break          # below double-precision progress
    return red.x(z), fz, it, resid


def _extract_solution(system, x, gamma, iters, resid, converged, history):
    U, Z = system.split(x)
    w = system.w_of(x)
    v = system.Es @ Z
    _, gfr, _ = system.friction_terms(x, gamma)
    g = system.grad_smooth(x) + gfr
    ns = len(system.slip_nodes)
    lam_n = np.zeros(ns)
    mu_t = np.zeros(ns)
    if ns:
        if system.d == 2:
            lam_n = -(g[system.nU + system.idx_zn])
        gfric_only = gfr[system.nU + system.idx_zt]
        mu_t = -(g[system.nU + system.idx_zt] - gfric_only)
    compat_mult = np.zeros(system.ncompat)
    if system.ncompat:
        # multipliers from least squares on the full gradient
        compat_mult = np.linalg.lstsq(system.C.T, -g, rcond=None)[0]
    return DiscreteSolution(
        u=U, z=Z, v=v, w=w,
        lam_n=lam_n, mu_t=mu_t,
        compat_mult=compat_mult,
        compat_residual=system.compat_residual(x),
        objective=system.exact_objective(x),
        iterations=iters, residual=resid, gamma=gamma,
        converged=converged, energy_history=history)


def default_tolerance(law):
    return 1e-10 if law.p == 2.0 else 1e-8


def _p2_warm_start(system, gamma, tol):
    """Minimizer of the same problem with the linear (p = 2) law."""
    p2 = copy.copy(system)
    p2.law = MaterialLaw(p=2.0, kind="plaplace", mode=system.law.mode)
    p2.reduction = system.reduction
    x, *_ = _minimize(p2, gamma, np.zeros(system.nU + system.nZ), tol, 100)
    return x


def solve_transmission(system, tol=None, max_iter=200):
    """Smooth coupled solve: no contact constraint, no friction."""
    if np.any(system.friction.F > 0):
        raise ValueError("transmission solve requires zero friction bound")
    tol = tol or default_tolerance(system.law)
    x0 = np.zeros(system.nU + system.nZ)
    history = []
    if system.law.p != 2.0:
        x0 = _p2_warm_start(system, 0.0, 1e-10)
    # transmission: ignore bound constraints entirely
    x, fz, it, resid = _minimize(system, 0.0, x0, tol, max_iter, track=history,
                                 bounds=np.array([], dtype=int))
    converged = resid <= tol * _residual_scale(system)
    if not converged:
        raise SolverError("transmission solve stalled at residual %.3e" % resid)
    return _extract_solution(system, x, 0.0, it, resid, converged, history)


def solve_contact_vi(system, tol=None, gamma_min=1e-8, max_iter=200, x0=None):
    """Friction-contact solve by smoothing continuation + active set Newton."""
    tol = tol or default_tolerance(system.law)
    history = []
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    elif system.law.p != 2.0:
        x = _p2_warm_start(system, 1e-2, 1e-8)
    else:
        x = np.zeros(system.nU + system.nZ)
    gammas = _gamma_schedule(gamma_min)
    iters = 0
    for k, gam in enumerate(gammas):
        last = k == len(gammas) - 1
        stage_tol = tol if last else max(tol, gam * 1e-3)
        x, fz, it, resid = _minimize(system, gam, x, stage_tol, max_iter,
                                     track=history if last else None)
        iters += it
    scale = _residual_scale(system)
    converged = resid <= tol * scale
    sol = _extract_solution(system, x, gammas[-1], iters, resid, converged,
                            history)
    if not converged:
        # smoothed-gradient stalls near a kink can fall a few ulps short of
        # the raw tolerance; accept iff the exact nonsmooth VI certificate
        # holds with matching margin
        margin = vi_certificate(system, sol)
        if margin >= -100 * tol * scale:
            sol.converged = True
        else:
            raise SolverError("contact solve stalled at residual %.3e "
                              "(certificate margin %.3e)" % (resid, margin))
    return sol


def kkt_residuals(sol, system):
    """Nodewise maxima of the five Tresca contact conditions.

    sigma_n, sigma_t are the variational (multiplier) stresses in stress
    units; the bound density is F_k / omega_k.
    """
    fr = system.friction
    ns = len(system.slip_nodes)
    if ns == 0:
        z = 0.0
        return {"sigma_n_positive": z, "gap_positive": z, "normal_compl": z,
                "tangential_excess": z, "friction_compl": z}
    omega = np.maximum(fr.omega, 1e-300)
    Fd = fr.F / omega
    if system.d == 2:
        vn = sol.z[system.idx_zn]
        vt = sol.z[system.idx_zt]
        sigma_n = -sol.lam_n / omega
    else:
        vn = np.zeros(ns)
        vt = sol.z
        sigma_n = np.zeros(ns)
    sigma_t = sol.mu_t / omega * -1.0
    return {
        "sigma_n_positive": float(np.max(np.maximum(sigma_n, 0.0), initial=0.0)),
        "gap_positive": float(np.max(np.maximum(vn, 0.0), initial=0.0)),
        "normal_compl": float(np.max(np.abs(sigma_n * vn), initial=0.0)),
        "tangential_excess": float(np.max(np.maximum(np.abs(sigma_t) - Fd, 0.0),
                                          initial=0.0)),
        "friction_compl": float(np.max(np.abs(sigma_t * vt + Fd * np.abs(vt)),
                                       initial=0.0)),
    }


def vi_certificate(system, sol, step=None):
    """Worst normalized violation of the discrete variational inequality over
    signed coordinate perturbations of finite size `step`.

    For the test point x + step*e the inequality's left minus right side is
    exactly  step*.g_smooth_i + j(z + step*e) - j(z); the returned value is
    its minimum over all feasible perturbations divided by step.  Values
    >= -tol certify the solution (the nonsmooth term is evaluated exactly,
    so smoothing only contributes O(gamma/step)).

    Perturbations must stay in K: the compatibility rows are accounted for
    through their least-squares multiplier (coordinate directions composed
    with the constraint-restoring correction).
    """
    x = np.concatenate([sol.u, sol.z])
    g = system.grad_smooth(x)
    it = system.nU + system.idx_zt          # friction coordinates
    inn = system.nU + system.idx_zn         # normal (bound) coordinates
    other = np.ones(len(x), dtype=bool)
    other[it] = False
    other[inn] = False
    if system.ncompat:
        # multiplier from the smooth/unconstrained rows only: friction and
        # bound coordinates carry subdifferential terms, not zero gradients
        y = np.linalg.lstsq(system.C[:, other].T, -g[other], rcond=None)[0]
        g = g + system.C.T @ y
    scale = max(1.0, np.abs(x).max())
    tau = step if step is not None else 0.1 * scale
    gt, st, F = g[it], x[it], system.friction.F
    # d = -e is always feasible for a bound coordinate, d = +e only if it stays <= 0
    cand = [g[other], -g[other], -g[inn], g[inn][x[inn] + tau <= 0]]
    for sgn in (+1.0, -1.0):
        dj = F * (np.abs(st + sgn * tau) - np.abs(st))
        cand.append((sgn * tau * gt + dj) / tau)
    return float(np.min(np.concatenate(cand), initial=np.inf))


# ---------------------------------------------------------------------------
# layer-potential formulation (unknowns U, Z and the boundary density phi)
# ---------------------------------------------------------------------------

class LayerPotentialSystem:
    """Monotone block system of the direct layer-potential formulation.

    Rows tested with interior/jump functions:
        A'(eps(U)) + W(w - u0) + (K' - 1) phi = f, t0 moments
    rows tested with densities:
        V phi + (1 - K)(w - u0) = 0
    plus nodewise contact bounds, lumped friction on Z_t, the zero-mean
    compatibility rows on phi, and optionally the rank-D rigid-body
    stabilization (which vanishes at the solution).
    """

    def __init__(self, system, stabilized=False):
        self.sp = system
        ops = system.ops
        self.ops = ops
        self.nU, self.nZ = system.nU, system.nZ
        self.nP = ops.V.shape[0]
        self.n = self.nU + self.nZ + self.nP
        self.stabilized = bool(stabilized)
        B = system.B                       # (dM, nU+nZ), maps x to w
        self.B = B
        self.T = ops.Mb - ops.K            # (dL, dM)
        self.WU0 = ops.W @ system.U0
        self.TU0 = self.T @ system.U0
        self.rhs_w = system.t0b + self.WU0
        d = ops.d
        self.compat_rows = np.zeros((system.ncompat, self.nP))
        for a in range(min(system.ncompat, d)):
            row = np.zeros(self.nP)
            row[a::d] = ops.M0[a::d]
            self.compat_rows[a] = row
        if system.ncompat > d:             # rotation moment of the density
            p0, _ = rigid_motions(system.bspace, d)
            self.compat_rows[d] = ops.M0 * p0[:, -1] if p0.shape[1] > d else 0.0
        if self.stabilized:
            basis = stabilization_data(system.bspace, ops)
            A = stabilization_vectors(ops, basis)      # (D, dM + dL)
            self.stabA = A
            self.stab_c = A[:, :ops.Mb.shape[1]] @ system.U0
        else:
            self.stabA = None

    def split(self, y):
        return (y[:self.nU], y[self.nU:self.nU + self.nZ],
                y[self.nU + self.nZ:])

    def residual(self, y, gamma):
        sys = self.sp
        x = y[:self.nU + self.nZ]
        P = y[self.nU + self.nZ:]
        w = self.B @ x
        U = y[:self.nU]
        rb = self.ops.W @ w - self.WU0 + self.T.T @ (-P) - sys.t0b
        # note: (K'-1) phi tested with w-hat = (K - Mb)^T phi = -T^T phi
        R = np.zeros(self.n)
        R[:self.nU] = (fem.assemble_residual(sys.space, sys.law, U)
                       - sys.b_f)
        R[:self.nU + self.nZ] += self.B.T @ rb
        _, gfr, _ = sys.friction_terms(x, gamma)
        R[:self.nU + self.nZ] += gfr
        R[self.nU + self.nZ:] = self.ops.V @ P + self.T @ w - self.TU0
        if self.stabilized:
            wP = np.concatenate([w, P])
            s = self.stabA @ wP - self.stab_c
            add = self.stabA.T @ s
            R[:self.nU + self.nZ] += self.B.T @ add[:self.ops.Mb.shape[1]]
            R[self.nU + self.nZ:] += add[self.ops.Mb.shape[1]:]
        return R

    def jacobian(self, y, gamma):
        sys = self.sp
        x = y[:self.nU + self.nZ]
        U = y[:self.nU]
        Hu = fem.assemble_tangent(sys.space, sys.law, U)
        _, _, hd = sys.friction_terms(x, gamma)
        nx = self.nU + self.nZ
        J11 = (sp.block_diag([Hu, sp.csr_matrix((self.nZ, self.nZ))])
               + self.B.T @ sp.csr_matrix(self.ops.W) @ self.B
               + sp.diags(hd))
        J12 = self.B.T @ sp.csr_matrix(-self.T.T)
        J21 = sp.csr_matrix(self.T) @ self.B
        J22 = sp.csr_matrix(self.ops.V)
        J = sp.bmat([[J11, J12], [J21, J22]]).tocsr()
        if self.stabilized:
            lift = sp.bmat([[self.B, None],
                            [None, sp.identity(self.nP)]]).tocsr()
            Atil = sp.csr_matrix(self.stabA) @ lift
            J = J + Atil.T @ Atil
        return J


def solve_layerpotential_vi(system, stabilized=False, tol=None,
                            gamma_min=1e-8, max_iter=200):
    """Semismooth Newton (PDAS on v_n <= 0) for the layer-potential system."""
    # The zero-total-flux condition is intrinsic here: testing the trace rows
    # with constants pins <phi, 1> to the data compatibility defect, so no
    # explicit constraint rows are added (they would be linearly dependent).
    lp = LayerPotentialSystem(system, stabilized=stabilized)
    tol = tol or default_tolerance(system.law)
    y = np.zeros(lp.n)
    idx_n = system.nU + system.idx_zn            # global coordinates of v_n dofs
    idx_t = system.nU + system.idx_zt
    gammas = (_gamma_schedule(gamma_min) if np.any(system.friction.F > 0)
              else [gamma_min])
    scale = _residual_scale(system)
    iters = 0
    resid = np.inf

    def ss_residual(R, yv, gamma):
        out = R.copy()
        if len(idx_n):
            out[idx_n] = np.minimum(-yv[idx_n], -R[idx_n])     # NCP function
        # rescale friction rows by the smoothing curvature (see _minimize)
        _, _, hd = system.friction_terms(yv[:system.nU + system.nZ], gamma)
        out[idx_t] = out[idx_t] / (1.0 + hd[idx_t])
        return out

    for k, gam in enumerate(gammas):
        stage_tol = tol if k == len(gammas) - 1 else max(tol, gam * 1e-3)
        for _ in range(max_iter):
            iters += 1
            R = lp.residual(y, gam)
            resid = np.abs(ss_residual(R, y, gam)).max()
            if resid <= stage_tol * scale:
                break
            J = lp.jacobian(y, gam).tocoo()
            rhs = -R
            if len(idx_n):
                # active contact rows become identity rows: v_n = 0
                active = idx_n[(-R[idx_n] + y[idx_n] * scale) > 0]
                keep = ~np.isin(J.row, active)
                J = sp.coo_matrix((np.concatenate([J.data[keep], np.ones(len(active))]),
                                   (np.concatenate([J.row[keep], active]),
                                    np.concatenate([J.col[keep], active]))), shape=J.shape)
                rhs[active] = -y[active]
            dy = spla.spsolve(J.tocsc(), rhs)
            if not np.all(np.isfinite(dy)):
                raise SolverError("layer-potential Newton step failed")
            t = 1.0
            for _ls in range(40):
                cand = y + t * dy
                rc = ss_residual(lp.residual(cand, gam), cand, gam)
                if np.abs(rc).max() <= (1 - 1e-4 * t) * resid + 1e-300:
                    break
                t *= 0.5
            y = y + t * dy

    if resid > tol * scale:
        raise SolverError("layer-potential solve stalled at %.3e" % resid)

    U, Z, P = lp.split(y)
    x = y[:system.nU + system.nZ]
    w = system.B @ x
    R = lp.residual(y, gammas[-1])
    _, gfr, _ = system.friction_terms(x, gammas[-1])
    ns = len(system.slip_nodes)
    lam_n = -R[idx_n] + 0.0 if len(idx_n) else np.zeros(ns)
    mu_t = -(R[idx_t] - gfr[idx_t]) if ns else np.zeros(0)
    sol = DiscreteSolution(
        u=U, z=Z, v=system.Es @ Z, w=w, phi=P,
        lam_n=lam_n, mu_t=mu_t,
        compat_mult=np.zeros(system.ncompat),
        compat_residual=(float(np.abs(lp.compat_rows @ P).max())
                         if system.ncompat else 0.0),
        objective=system.exact_objective(x),
        iterations=iters, residual=resid, gamma=gammas[-1], converged=True)
    return sol

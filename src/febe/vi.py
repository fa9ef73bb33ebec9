"""Solvers for the coupled discrete variational inequalities.

Unknowns: interior P1 coefficients U, slip-boundary jump coefficients Z in
nodal normal/tangential coordinates, and (layer-potential formulation) a
piecewise-constant boundary density P.  The contact constraint v_n <= 0 is
enforced nodewise; Tresca friction uses the mass-lumped bound F_k and the
exact nonsmooth term sum_k F_k |Z_t,k|.  The n=2 compatibility constraints
<S 1_j, w - u0> = 0 are eliminated exactly through pivot substitution.

Both formulations are solved by one primal-dual active-set (semismooth)
Newton core on the exact conditions, min(-v_n, lam_n) = 0 and
mu_t = clip(mu_t + c Z_t, -F, F); they differ only in residual and Jacobian
(the reduced energy gradient, or the layer-potential block residual).  An
active v_n and a sticking Z_t are held at zero; every other coordinate takes
a Newton step, a slipping Z_t with its friction force.  The step length comes
from an Armijo search on the squared NCP residual.

Per Newton step only the FE tangent changes.  The constant parts of the
Newton matrix are built once per system: N^T H_bd N and the U-rows of the
null-space basis N (Steklov-Poincare form), the W, K, V and stabilization
blocks (layer-potential form).  Each step adds the tangent to them, and
SuperLU factors the result with the symmetric minimum-degree ordering on
A^T + A.  SuperLU does not raise on an exactly singular matrix; it warns and
returns NaN, and the solver raises SolverError, as it does when the line
search cannot decrease the residual or the iterations run out.
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
    t0: object = None         # callable (pts (n,2), normals (n,2)) -> (n,) or (n,2)
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
    converged: bool = True
    residual_history: list = field(default_factory=list)  # |Phi|_2 per iterate


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
        # Es maps Z to the slip jump: v_k = Z_j (d=1), v_k = nu_k Z_n + tau_k Z_t
        nrm = bspace.node_normals()
        if d == 1:
            frame = np.ones((ns, 1, 1))
        else:
            nu = nrm[self.slip_nodes]
            frame = np.stack([nu, np.column_stack([-nu[:, 1], nu[:, 0]])], axis=2)
        rows = (d * self.slip_nodes)[:, None, None] + np.arange(d)[None, :, None]
        cols = (d * np.arange(ns))[:, None, None] + np.arange(d)[None, None, :]
        rows, cols = np.broadcast_arrays(rows, cols)
        self.Es = sp.csr_matrix((frame.ravel(), (rows.ravel(), cols.ravel())),
                                shape=(M * d, self.nZ))
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
        self.friction = self._friction_data()

        # constant part of the Hessian: [Tr,Es]^T S [Tr,Es]
        B = sp.hstack([self.Tr, self.Es]).tocsr()
        self.B = B
        self.H_bd = (B.T @ sp.csr_matrix(self.S) @ B).tocsr()
        self.g_bd = B.T @ self.gb

        # compatibility constraint rows over x = (U, Z): the nodal traces of
        # the first ncompat rigid motions
        if ncompat is None:
            ncompat = 1 if d == 1 else 2
        self.ncompat = int(ncompat)
        rigid = rigid_motions(bspace, d)[1]
        if self.ncompat > rigid.shape[1]:
            raise ValueError("ncompat = %d exceeds the %d rigid motions"
                             % (self.ncompat, rigid.shape[1]))
        self.compat_dirs = np.ascontiguousarray(rigid[:, :self.ncompat])
        Cw = self.compat_dirs.T @ self.S                # (ncon, dM)
        self.C = np.ascontiguousarray(Cw @ B)
        self.c0 = Cw @ self.U0

        self.compat_data_residual = self._data_compat_residual()

    # -- assembly helpers ---------------------------------------------------

    def _boundary_moments(self, t0):
        """P1 moments of a traction given as panel values (L, d), which the
        midpoint rule integrates exactly, or as a callable (pts, normals),
        called once on the 4 Gauss points of every panel with each point's
        panel normal."""
        bs = self.bspace
        if t0 is None:
            return np.zeros(bs.n_nodes * self.d)
        if isinstance(t0, np.ndarray):
            t, w, vals = np.array([0.5]), np.array([1.0]), t0
        else:
            t, w = segment_gauss(4)
            vals = t0(bs.panel_points(t).reshape(-1, 2),
                      np.repeat(bs.normals, len(t), axis=0))
        return bs.p1_moments(np.reshape(vals, (bs.n_panels, len(t), self.d)), t, w)

    def friction_bound(self, t, panels):
        """Friction bound at parameters t on the given panels: (len(panels), len(t))."""
        fr = self.data.friction
        bs = self.bspace
        if fr is None:
            return np.zeros((len(panels), len(t)))
        if isinstance(fr, np.ndarray):
            v = np.asarray(fr, dtype=float).reshape(bs.n_nodes)
            return (v[bs.panel_start[panels]][:, None] * (1 - t)
                    + v[bs.panel_end[panels]][:, None] * t)
        pts = bs.panel_points(t, panels).reshape(-1, 2)
        return np.asarray(fr(pts), dtype=float).reshape(len(panels), len(t))

    def _friction_data(self):
        # a slip node has slip panels on both sides, so its moments only
        # see slip-panel values
        bs = self.bspace
        nodes = self.slip_nodes
        if len(nodes) == 0:
            return FrictionData(nodes=nodes, F=np.zeros(0), omega=np.zeros(0))
        xq, wq = segment_gauss(4)
        slip = np.nonzero(bs.slip_panels())[0]
        g = np.zeros((bs.n_panels, len(xq)))
        g[slip] = self.friction_bound(xq, slip)
        if np.any(g < -1e-14):
            raise ValueError("friction bound must be nonnegative")
        F = bs.p1_moments(g, xq, wq)[nodes]
        omega = bs.p1_moments(np.ones_like(g), xq, wq)[nodes]
        return FrictionData(nodes=nodes, F=F, omega=omega)

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

    def objective(self, x):
        """J_h + lumped nonsmooth friction term."""
        s = x[self.nU + self.idx_zt]
        return self.phi_smooth(x) + float(np.sum(self.friction.F * np.abs(s)))

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
        # pivots among boundary-trace U dofs (never Z): greedy max-pivot Gauss
        allowed = np.zeros(n, dtype=bool)
        allowed[system.Tr.indices] = True
        piv = []
        work = C.copy()
        for i in range(ncon):
            row = work[i]
            cand = np.where(allowed, np.abs(row), 0.0)
            j = int(np.argmax(cand))
            if cand[j] == 0.0:
                raise SolverError("compatibility rows are degenerate")
            piv.append(j)
            allowed[j] = False
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
        # bound coordinates (v_n) and friction coordinates (Z_t with F > 0)
        # in reduced numbering; as free coordinates they have x = z
        lookup = -np.ones(n, dtype=int)
        lookup[self.free] = np.arange(len(self.free))
        slip = system.friction.F > 0
        self.bound_red = lookup[system.nU + system.idx_zn]
        self.fric_red = lookup[system.nU + system.idx_zt[slip]]
        if np.any(self.bound_red < 0) or np.any(self.fric_red < 0):
            raise SolverError("a constrained dof was chosen as pivot")
        self.fric_F = system.friction.F[slip]
        # the Newton matrix N^T (Hu (+) 0 + H_bd) N changes only through Hu
        self.NT = self.N.T.tocsr()
        self.NU = self.N[:system.nU]
        self.NUT = self.NU.T.tocsr()
        self.H_const = (self.NT @ system.H_bd @ self.N).tocsr()

    def newton_matrix(self, Hu):
        """The reduced Hessian N^T (Hu (+) 0 + H_bd) N."""
        return self.NUT @ Hu @ self.NU + self.H_const

    def x(self, z):
        return self.xp + self.N @ z

    def z0(self, x):
        return x[self.free] - self.xp[self.free]


# SuperLU column ordering of every Newton solve: minimum degree on A^T + A
# suits the symmetric (or nearly so) Newton matrices and fills in far less
# than the default COLAMD
_ORDERING = "MMD_AT_PLUS_A"


def _residual_scale(system):
    """Data magnitude that the absolute solver tolerances are relative to."""
    return max(1.0, np.abs(system.gb).max(), np.abs(system.b_f).max())


def _active_set_newton(y, residual, jacobian, idx_n, idx_f, F, scale, tol,
                       max_iter, what):
    """Primal-dual active-set (semismooth) Newton on R(y) = 0 with the
    contact bound y[idx_n] <= 0, multiplier -R[idx_n] >= 0, and Tresca
    friction on y[idx_f], friction force -R[idx_f] in [-F, F].

    residual(y) is the gradient of the smooth part (Steklov-Poincare) or the
    block residual (layer-potential); jacobian(y) is its derivative as a
    sparse matrix.  The NCP residual Phi replaces the bound rows by
    min(-y_n, -R_n) and the friction rows by mu - clip(mu + c y_f, -F, F),
    mu = -R_f, c = scale.  Each step holds active contact and sticking
    friction rows at zero (identity rows); a slipping row carries the force
    F sign(mu + c y_f).  Armijo backtracking on |Phi|_2^2.  A singular Newton
    matrix, an exhausted line search and a stall raise SolverError.

    Returns y, R(y), the iteration count, |Phi|_inf and |Phi|_2 per
    accepted iterate.
    """
    c = scale

    def ncp(R, yv):
        phi = R.copy()
        phi[idx_n] = np.minimum(-yv[idx_n], -R[idx_n])
        phi[idx_f] = -R[idx_f] - np.clip(-R[idx_f] + c * yv[idx_f], -F, F)
        return phi

    R = residual(y)
    phi = ncp(R, y)
    merit = phi @ phi
    history = [np.sqrt(merit)]
    for it in range(1, max_iter + 1):
        resid = float(np.abs(phi).max(initial=0.0))
        if resid <= tol * scale:
            return y, R, it, resid, history
        J = jacobian(y).tocoo()
        rhs = -R
        q = -R[idx_f] + c * y[idx_f]
        rhs[idx_f] -= F * np.sign(q)
        fixed = np.concatenate([idx_n[-R[idx_n] + c * y[idx_n] > 0],
                                idx_f[np.abs(q) <= F]])
        keep = ~np.isin(J.row, fixed)
        J = sp.coo_matrix((np.concatenate([J.data[keep], np.ones(len(fixed))]),
                           (np.concatenate([J.row[keep], fixed]),
                            np.concatenate([J.col[keep], fixed]))), shape=J.shape)
        rhs[fixed] = -y[fixed]
        dy = spla.spsolve(J.tocsc(), rhs, permc_spec=_ORDERING)
        if not np.all(np.isfinite(dy)):
            raise SolverError("%s Newton matrix is singular at residual %.3e"
                              % (what, resid))
        dy[fixed] = -y[fixed]            # SuperLU leaves rounding there
        t = 1.0
        for _ in range(40):
            cand = y + t * dy
            Rc = residual(cand)
            phic = ncp(Rc, cand)
            mc = phic @ phic
            if mc <= (1 - 1e-4 * t) * merit:
                break
            t *= 0.5
        else:
            raise SolverError("%s line search failed at residual %.3e"
                              % (what, resid))
        y, R, phi, merit = cand, Rc, phic, mc
        history.append(np.sqrt(merit))
    raise SolverError("%s solve stalled at residual %.3e" % (what, resid))


def _smooth_coords(system, n):
    """Mask of the coordinates without a friction or bound term."""
    other = np.ones(n, dtype=bool)
    other[system.nU + system.idx_zt] = False
    other[system.nU + system.idx_zn] = False
    return other


def _compat_multiplier(system, g):
    """Least-squares multiplier of the compatibility rows for the gradient g,
    from the smooth coordinates only: friction and bound coordinates carry
    subdifferential terms, not zero gradients."""
    other = _smooth_coords(system, len(g))
    return np.linalg.lstsq(system.C[:, other].T, -g[other], rcond=None)[0]


def _extract_solution(system, x, iters, resid, history):
    U, Z = system.split(x)
    g = system.grad_smooth(x)
    ns = len(system.slip_nodes)
    lam_n = -g[system.nU + system.idx_zn] if system.d == 2 else np.zeros(ns)
    return DiscreteSolution(
        u=U, z=Z, v=system.Es @ Z, w=system.w_of(x),
        lam_n=lam_n, mu_t=-g[system.nU + system.idx_zt],
        compat_mult=_compat_multiplier(system, g),
        compat_residual=system.compat_residual(x),
        objective=system.objective(x),
        iterations=iters, residual=resid, residual_history=history)


def default_tolerance(law):
    return 1e-10 if law.p == 2.0 else 1e-8


def _steklov_newton(system, x0, tol, max_iter, what, contact):
    """The active-set core on the reduced Steklov-Poincare energy."""
    red = system.reduction
    space, law, nU = system.space, system.law, system.nU
    z, _, it, resid, history = _active_set_newton(
        red.z0(np.asarray(x0, dtype=float)),
        lambda z: red.NT @ system.grad_smooth(red.x(z)),
        lambda z: red.newton_matrix(
            fem.assemble_tangent(space, law, red.x(z)[:nU])),
        red.bound_red if contact else np.array([], dtype=int),
        red.fric_red, red.fric_F, _residual_scale(system), tol, max_iter, what)
    return red.x(z), it, resid, history


def _p2_warm_start(system, contact=True):
    """Minimizer of the same problem with the linear (p = 2) law."""
    p2 = copy.copy(system)
    p2.law = MaterialLaw(p=2.0, kind="plaplace", mode=system.law.mode)
    p2.reduction = system.reduction
    x, *_ = _steklov_newton(p2, np.zeros(system.nU + system.nZ),
                            default_tolerance(p2.law), 100, "p = 2 warm start",
                            contact)
    return x


def _solve(system, x0, tol, max_iter, what, contact=True):
    tol = tol or default_tolerance(system.law)
    if x0 is None:
        x0 = (_p2_warm_start(system, contact) if system.law.p != 2.0
              else np.zeros(system.nU + system.nZ))
    x, it, resid, history = _steklov_newton(system, x0, tol, max_iter, what,
                                            contact)
    return _extract_solution(system, x, it, resid, history)


def solve_transmission(system, tol=None, max_iter=200):
    """Smooth coupled solve: no contact constraint, no friction."""
    if np.any(system.friction.F > 0):
        raise ValueError("transmission solve requires zero friction bound")
    return _solve(system, None, tol, max_iter, "transmission", contact=False)


def solve_contact_vi(system, tol=None, max_iter=200, x0=None):
    """Friction-contact solve by active-set Newton on the exact conditions."""
    return _solve(system, x0, tol, max_iter, "contact")


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
    >= -tol certify the solution.  The nonsmooth term is evaluated exactly,
    and both solvers solve the exact conditions, so at a computed solution
    only the solver's residual (up to tol) makes the value negative.

    Perturbations must stay in K: the compatibility rows are accounted for
    through their least-squares multiplier (coordinate directions composed
    with the constraint-restoring correction).
    """
    x = np.concatenate([sol.u, sol.z])
    g = system.grad_smooth(x)
    it = system.nU + system.idx_zt          # friction coordinates
    inn = system.nU + system.idx_zn         # normal (bound) coordinates
    other = _smooth_coords(system, len(x))
    if system.ncompat:
        g = g + system.C.T @ _compat_multiplier(system, g)
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
        # moments of the density against the first ncompat rigid motions
        p0 = rigid_motions(system.bspace, ops.d)[0][:, :system.ncompat]
        self.compat_rows = (ops.M0[:, None] * p0).T
        # Jacobian blocks that do not depend on the iterate
        J = sp.bmat([[B.T @ sp.csr_matrix(ops.W) @ B, B.T @ sp.csr_matrix(-self.T.T)],
                     [sp.csr_matrix(self.T) @ B, sp.csr_matrix(ops.V)]]).tocsr()
        if self.stabilized:
            basis = stabilization_data(system.bspace, ops)
            A = stabilization_vectors(ops, basis)      # (D, dM + dL)
            self.stabA = A
            self.stab_c = A[:, :ops.Mb.shape[1]] @ system.U0
            lift = sp.bmat([[B, None], [None, sp.identity(self.nP)]]).tocsr()
            Atil = sp.csr_matrix(A) @ lift
            J = J + Atil.T @ Atil
        else:
            self.stabA = None
        self.J_const = J.tocoo()

    def split(self, y):
        return (y[:self.nU], y[self.nU:self.nU + self.nZ],
                y[self.nU + self.nZ:])

    def residual(self, y):
        """Residual of the smooth block system; the friction force is added
        by the solver."""
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
        R[self.nU + self.nZ:] = self.ops.V @ P + self.T @ w - self.TU0
        if self.stabilized:
            wP = np.concatenate([w, P])
            s = self.stabA @ wP - self.stab_c
            add = self.stabA.T @ s
            R[:self.nU + self.nZ] += self.B.T @ add[:self.ops.Mb.shape[1]]
            R[self.nU + self.nZ:] += add[self.ops.Mb.shape[1]:]
        return R

    def jacobian(self, y):
        """Jacobian of the residual at y in COO format, with duplicate entries
        to be summed: the constant blocks plus the FE tangent."""
        sys = self.sp
        Hu = fem.assemble_tangent(sys.space, sys.law, y[:self.nU]).tocoo()
        J0 = self.J_const
        return sp.coo_matrix(
            (np.concatenate([J0.data, Hu.data]),
             (np.concatenate([J0.row, Hu.row]),
              np.concatenate([J0.col, Hu.col]))), shape=J0.shape)


def solve_layerpotential_vi(system, stabilized=False, tol=None, max_iter=200):
    """Semismooth Newton (primal-dual active set on v_n <= 0 and on the
    friction bound) for the layer-potential system."""
    # The zero-total-flux condition is intrinsic here: testing the trace rows
    # with constants pins <phi, 1> to the data compatibility defect, so no
    # explicit constraint rows are added (they would be linearly dependent).
    lp = LayerPotentialSystem(system, stabilized=stabilized)
    tol = tol or default_tolerance(system.law)
    nx = system.nU + system.nZ
    y = np.zeros(lp.n)
    if system.law.p != 2.0:
        # start, as the Steklov-Poincare solver does, from the p = 2
        # minimizer (with its density): at zero strain the FE tangent of a
        # p > 2 law vanishes and the first Newton matrix is singular
        x = _p2_warm_start(system)
        y[:nx] = x
        y[nx:] = np.linalg.solve(lp.ops.V, lp.TU0 - lp.T @ (system.B @ x))
    idx_n = system.nU + system.idx_zn            # global coordinates of v_n dofs
    slip = system.friction.F > 0
    y, R, iters, resid, history = _active_set_newton(
        y, lp.residual, lp.jacobian, idx_n, system.nU + system.idx_zt[slip],
        system.friction.F[slip], _residual_scale(system), tol, max_iter,
        "layer-potential")
    U, Z, P = lp.split(y)
    x = y[:nx]
    ns = len(system.slip_nodes)
    return DiscreteSolution(
        u=U, z=Z, v=system.Es @ Z, w=system.B @ x, phi=P,
        lam_n=-R[idx_n] + 0.0 if system.d == 2 else np.zeros(ns),
        mu_t=-R[system.nU + system.idx_zt],
        compat_mult=np.zeros(system.ncompat),
        compat_residual=(float(np.abs(lp.compat_rows @ P).max())
                         if system.ncompat else 0.0),
        objective=system.objective(x),
        iterations=iters, residual=resid, residual_history=history)

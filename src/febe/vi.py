"""Solvers for the coupled discrete variational inequalities.

Unknowns: interior P1 coefficients U, slip-boundary jump coefficients Z in
nodal normal/tangential coordinates, and (layer-potential formulation) a
piecewise-constant boundary density P.  The contact constraint v_n <= 0 is
enforced nodewise; Tresca friction uses the mass-lumped bound F_k and the
exact nonsmooth term sum_k F_k |Z_t,k|.  The n=2 compatibility constraints
<S 1_j, w - u0> = 0 are rows C x = c0 with a Lagrange multiplier lam, which
borders the Steklov-Poincare system.

Each formulation is one affine block form (J_block, J_dofs, rhs) with a
dense block J_block on the dofs J_dofs: apart from the FE residual, its
residual is affine in the unknowns, so

    R(y) = -rhs,  plus J_block y[J_dofs] on the rows J_dofs,
           plus the FE residual of U on the first nU rows,

and its Newton matrix is J_block plus the FE tangent.  The Steklov-Poincare
form acts on y = (U, Z, lam) with J_block = [[B^T S B, C^T], [C, 0]] and
rhs = (b_f + B^T (t0 + S u0), c0); the layer-potential form acts on
y = (U, Z, P) with the W, K, V and stabilization blocks (LayerPotentialSystem).
Both are solved by one primal-dual active-set (semismooth) Newton loop
(_newton), whose arguments are the system, the form, its Newton pattern
and the material law, on the exact conditions, min(-v_n, lam_n) = 0 and
mu_t = clip(mu_t + c_k Z_t, -F, F).  The constant
c_k = scale * omega_k of slip node k scales the data magnitude by the node's
hat-function weight on the slip boundary, as the lumped multipliers are, so
the step counts do not grow with the mesh.  An active v_n
and a sticking Z_t are held at zero; every other coordinate takes a Newton
step, a slipping Z_t with its friction force.  The step length comes from an
Armijo search on the squared NCP residual.  The multipliers lam_n and mu_t of
a solution are the solved residual rows of the v_n and Z_t coordinates, for
both formulations, and the KKT report and the field export read the same
nodal stresses from them (slip_fields).

The exterior problem enters only through the trace map B, which takes
x = (U, Z) to the boundary trace w: the trace of U plus the slip jump of Z.
Its columns bcols, the trace dofs of the boundary loop and then every Z
dof, hold all its entries, and the system stores Bd = B[:, bcols] once.
J_dofs are bcols, then the multiplier or density dofs, and J_block is
built once per system from products with Bd: (Bd^T S) Bd and
C = (D^T S) Bd for the compatibility directions D, or
[[Bd^T W Bd, -Bd^T T^T], [T Bd, V]] plus the stabilization.

Every Newton matrix of one solve of a form is stored on one canonical CSC
pattern (_newton_pattern), numbered in the mesh's nested-dissection order
(Mesh.dissection_order) times the components, then the Z, lam and density
dofs, so J_dofs are the contiguous tail of the numbering, in order, with
the boundary loop last.  fem.csc_structure sorts only the FE tangent's
entries (exact zeros included) outside the tail block, once per mesh and
ncomp (FESpace.dissection_pattern, shared by every form and system on the
mesh: the tail starts at the boundary loop's first dof, which the mesh
fixes); each form extends that structure over its Z, lam or density
columns, and every tail column gets all tail rows spliced in after them,
J_block's exact zeros included; the tail fills in completely in the
factorization anyway.  One driver (_solve) runs both forms: unless the law
is linear, it first runs the Newton loop with the p = 2 law on the same
system, form and pattern from the given start and starts from that
solution, multipliers and density included.  The element strains of each
iterate are evaluated once, for its residual and the next Newton matrix.
Per Newton step only the FE tangent changes: each step sums the element
tangents onto the pattern by one bincount, adds J_block's values, zeroes
the held rows by a row mask and sets their diagonal slot to 1, with no
sparse conversion or add.  SuperLU factors each step's matrix in that
order (permc_spec NATURAL), with partial pivoting, and no step computes an
ordering.  SuperLU does not raise on an exactly singular matrix; it warns
and returns NaN, and the solver raises SolverError, as it does when the
line search cannot decrease the residual or the steps run out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .bem import rigid_motions, stabilization_data
from .config import ConfigError
from .material import MaterialLaw
from .quadrature import segment_gauss


class SolverError(RuntimeError):
    pass


@dataclass
class FrictionData:
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
    lam_n: np.ndarray = None          # multipliers of v_n <= 0 (>= 0), empty if d=1
    mu_t: np.ndarray = None           # friction dual (|mu| <= F)
    compat_mult: np.ndarray = None
    compat_residual: float = 0.0
    objective: float = 0.0
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    residual_history: list = field(default_factory=list)  # |Phi|_2 per iterate


class CoupledSystem:
    """Discrete energy J_h + lumped friction over (U, Z) with S_h coupling.

    B maps x = (U, Z) to the boundary trace w, and Bd = B[:, bcols] is its
    block on the boundary columns.  The system is the Steklov-Poincare
    block form (J_block, J_dofs, rhs) over y = (U, Z, lam): the bordered
    block J_block = [[B^T S B, C^T], [C, 0]], dense on J_dofs (bcols, then
    the multiplier dofs), and rhs = (b_f + B^T gb, c0) with
    gb = t0 moments + S u0.  The compatibility rows C = Cw B and B^T S B
    come from dense products with Bd on bcols.  Problem data that is not
    finite is a ConfigError.
    """

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
        if d == 1:
            frame = np.ones((ns, 1, 1))
        else:
            nu = nrm[self.slip_nodes]
            frame = np.stack([nu, np.column_stack([-nu[:, 1], nu[:, 0]])], axis=2)
        # B maps x = (U, Z) to w: boundary dof (k, c) takes interior dof
        # (loop[k], c) plus, at slip node k, Z_j (d=1) or nu_k Z_n + tau_k Z_t;
        # its columns bcols (the loop's trace dofs, then every Z dof) hold
        # all its entries
        rows = np.arange(M * d)
        cols = np.repeat(bspace.loop, d) * d + np.tile(np.arange(d), M)
        srows = (d * self.slip_nodes)[:, None, None] + np.arange(d)[None, :, None]
        scols = (d * np.arange(ns))[:, None, None] + np.arange(d)[None, None, :]
        srows, scols = (a.ravel() for a in np.broadcast_arrays(srows, scols))
        self.B = sp.csr_matrix(
            (np.concatenate([np.ones(M * d), frame.ravel()]),
             (np.concatenate([rows, srows]), np.concatenate([cols, self.nU + scols]))),
            shape=(M * d, self.nU + self.nZ))
        self.bcols = np.concatenate([cols, self.nU + np.arange(self.nZ)])
        self.Bd = self.B[:, self.bcols]

        # data vectors; u0/t0/friction accept callables or nodal/panel arrays;
        # data that is not finite is reported by the check below, not by numpy
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
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
        for name, vals in (("load f", self.b_f), ("trace u0", self.U0),
                           ("traction t0", self.t0b), ("friction bound", self.friction.F)):
            if not np.all(np.isfinite(vals)):
                raise ConfigError("the %s of the problem data is not finite" % name)

        # compatibility constraint rows over x = (U, Z): the nodal traces of
        # the first ncompat rigid motions
        if ncompat is None:
            ncompat = 1 if d == 1 else 2
        self.ncompat = int(ncompat)
        rigid = rigid_motions(bspace.nodes, d)
        if self.ncompat > rigid.shape[1]:
            raise ValueError("ncompat = %d exceeds the %d rigid motions"
                             % (self.ncompat, rigid.shape[1]))
        self.compat_dirs = np.ascontiguousarray(rigid[:, :self.ncompat])
        self.c0 = self.compat_dirs.T @ self.S @ self.U0

        # compatibility rows C = Cw B, from their dense block on bcols, and
        # the right-hand side of the block form over y = (U, Z, lam)
        n = self.nU + self.nZ
        self.C = np.zeros((self.ncompat, n))
        self.C[:, self.bcols] = self.compat_dirs.T @ self.S @ self.Bd
        self.rhs = np.concatenate([self.b_f, np.zeros(self.nZ), self.c0])
        self.rhs[:n] += self.B.T @ self.gb
        self.J_dofs = np.concatenate([self.bcols, n + np.arange(self.ncompat)])

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
            return (v[panels][:, None] * (1 - t)
                    + v[bs.panel_end[panels]][:, None] * t)
        pts = bs.panel_points(t, panels).reshape(-1, 2)
        return np.asarray(fr(pts), dtype=float).reshape(len(panels), len(t))

    def _friction_data(self):
        # a slip node has slip panels on both sides, so its moments only
        # see slip-panel values
        bs = self.bspace
        nodes = self.slip_nodes
        if len(nodes) == 0:
            return FrictionData(F=np.zeros(0), omega=np.zeros(0))
        xq, wq = segment_gauss(4)
        slip = np.nonzero(bs.slip_panels())[0]
        g = np.zeros((bs.n_panels, len(xq)))
        g[slip] = self.friction_bound(xq, slip)
        if np.any(g < -1e-14):
            raise ValueError("friction bound must be nonnegative")
        F = bs.p1_moments(g, xq, wq)[nodes]
        omega = bs.p1_moments(np.ones_like(g), xq, wq)[nodes]
        return FrictionData(F=F, omega=omega)

    def _data_compat_residual(self):
        """int f . c + <t0, c> per translation c (should vanish for n=2)."""
        # contiguous rows, so each product is the same dot of two vectors
        cu, ct = (np.ascontiguousarray(rigid_motions(x, self.d)[:, :self.d].T)
                  for x in (self.space.mesh.vertices, self.bspace.nodes))
        return np.asarray([float(self.b_f @ cu[a] + self.t0b @ ct[a])
                           for a in range(self.d)])

    # -- objective ----------------------------------------------------------

    def phi_smooth(self, x):
        U = x[:self.nU]
        w = self.B @ x
        e = fem.energy(self.space, self.law, U)
        return (e + 0.5 * w @ (self.S @ w) - self.b_f @ U - self.gb @ w)

    def grad_smooth(self, x):
        """Gradient of the smooth energy: the x rows of the block residual
        at lam = 0."""
        y = np.concatenate([x, np.zeros(self.ncompat)])
        eps = self.space.strains(x[:self.nU])
        return _block_residual(self, self, self.law, y, eps)[:len(x)]

    def objective(self, x):
        """J_h + lumped nonsmooth friction term."""
        s = x[self.nU + self.idx_zt]
        return self.phi_smooth(x) + float(np.sum(self.friction.F * np.abs(s)))

    def compat_residual(self, x):
        if self.ncompat == 0:
            return 0.0
        return float(np.abs(self.C @ x - self.c0).max())

    @cached_property
    def J_block(self):
        """Constant block of the form over y = (U, Z, lam) at its dofs
        J_dofs, dense, built on first use: the bordered compatibility
        system [[Bd^T S Bd, Cb^T], [Cb, 0]] with Cb = C[:, bcols].  Each
        Newton step adds the FE tangent."""
        m = self.ncompat
        Cb = self.C[:, self.bcols]
        H = self.Bd.T @ self.S @ self.Bd     # left to right: the (B^T S) B rounding
        return np.block([[H, Cb.T], [Cb, np.zeros((m, m))]])


def _residual_scale(system):
    """Data magnitude that the absolute solver tolerances are relative to."""
    return max(1.0, np.abs(system.gb).max(), np.abs(system.b_f).max())


def _block_residual(system, form, law, y, eps):
    """Residual of a block form of system under the law: -form.rhs plus
    form.J_block y[J_dofs] on the rows J_dofs, plus the FE residual of U on
    the first nU rows, from the element strains eps of U = y[:nU]."""
    R = -form.rhs
    R[form.J_dofs] += form.J_block @ y[form.J_dofs]
    R[:system.nU] += fem.assemble_residual(system.space, law, eps)
    return R


def _newton_pattern(space, form):
    """Canonical CSC pattern (indptr, indices) of every Newton matrix of a
    form, in the dissection numbering: each dof i is renumbered rank[i],
    and the dof order perm (rank's inverse) is the mesh's dissection_order
    times ncomp, then the Z, lam and density dofs, so the form's J_dofs
    are the last len(J_dofs) ranks, in order.  The FE tangent's entries
    outside that tail block and the diagonal before it come sorted from
    the space's dissection_pattern, shared by every form on the mesh; its
    indptr is extended over the Z, lam and density columns, and each tail
    column gets every tail row after its rows above the tail, J_block's
    exact zeros included.  Also returns the base values (J_block's
    columns in the tail block, zero elsewhere), the slot of each entry of
    the element_tangents, flat, the slots of the diagonal of dof 0, 1, ...,
    and perm and rank."""
    n, nJ = len(form.rhs), len(form.J_dofs)
    t0 = n - nJ
    fe_perm, fe_rank, out, tail_cols, tail_rows, ptr, ind, slot = space.dissection_pattern
    extra = np.arange(space.ndof, n)
    perm, rank = np.concatenate([fe_perm, extra]), np.concatenate([fe_rank, extra])
    assert np.array_equal(rank[form.J_dofs], np.arange(t0, n))
    ptr = np.concatenate([ptr, np.full(n - space.ndof, ptr[-1], dtype=ptr.dtype)])
    shift = nJ * np.maximum(np.arange(n + 1) - t0, 0)
    indptr = (ptr + shift).astype(ptr.dtype)
    move = np.arange(len(ind)) + np.repeat(shift[:-1], np.diff(ptr))
    tail = (indptr[t0:-1] + np.diff(ptr)[t0:])[:, None] + np.arange(nJ)  # [col, row]
    indices = np.empty(indptr[-1], dtype=ind.dtype)
    indices[move] = ind
    indices[tail] = np.arange(t0, n)
    base = np.zeros(len(indices))
    base[tail] = form.J_block.T
    hslot = np.empty(len(out), dtype=np.intp)
    hslot[out] = move[slot[:len(slot) - t0]]
    hslot[~out] = tail[tail_cols, tail_rows]
    dslot = np.concatenate([move[slot[len(slot) - t0:]], tail.diagonal()])
    return indptr, indices, base, hslot[space.tangent_pattern[2]], dslot, perm, rank


def _newton_matrix(system, law, pattern, eps, fixed):
    """Newton matrix on a pattern of _newton_pattern, canonical CSC in its
    dissection numbering: the element tangents of the law at the element
    strains eps summed onto the pattern, plus the base values, with the
    rows `fixed` (dofs) replaced by unit rows."""
    indptr, indices, base, eslot, dslot, _, rank = pattern
    n = len(indptr) - 1
    data = np.bincount(eslot, weights=fem.element_tangents(system.space, law, eps).ravel(),
                       minlength=len(indices))
    data += base
    held = np.zeros(n, dtype=bool)
    held[rank[fixed]] = True
    data[held.take(indices)] = 0.0     # held[indices] is ~3x slower on int32 indices
    data[dslot[fixed]] = 1.0
    J = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    J.has_canonical_format = True
    return J


def _newton(system, form, pattern, law, y, tol, max_iter, what, contact):
    """Primal-dual active-set (semismooth) Newton on a block form of system
    (the CoupledSystem itself, or its LayerPotentialSystem) under the law:
    R(y) = _block_residual = 0 with the contact bound y_n <= 0 on the v_n
    rows (none if contact is False), multiplier lam_n = -R_n >= 0, and
    Tresca friction on the Z_t rows of the slip nodes with a positive bound
    F, friction force mu_t = -R_f in [-F, F].  Every Newton matrix is
    form.J_block plus the FE tangent, with the held rows replaced by unit
    rows, stored on `pattern` (the form's _newton_pattern) in its dissection
    numbering; each step solves it for rhs[perm] and takes the step back by
    [rank].  The element strains of each iterate are evaluated once: its
    residual and the next Newton matrix both read them.

    The NCP residual Phi replaces the bound rows by min(-y_n, lam_n) and
    the friction rows by mu_t - clip(mu_t + c_k y_f, -F, F).  The
    complementarity constant of slip node k is c_k = scale * omega_k.  The
    multiplier of a row is a lumped force, about sigma * omega_k, so the
    discrete NCP is then the function-space one, sigma + scale * z, tested
    with the hat function of node k; a mesh-free c would outweigh the
    multiplier by 1/h and the step counts would grow with the mesh.  Each
    step holds active contact rows (lam_n + c_k y_n > 0) and sticking
    friction rows at zero (identity rows); a slipping row carries the force
    F sign(mu_t + c_k y_f).  Armijo backtracking on |Phi|_2^2; the iteration
    stops at |Phi|_inf <= tol * scale, tested on the start and after every
    step.  A singular Newton matrix, an exhausted line search and an
    iterate that misses the tolerance after max_iter steps (none if
    max_iter <= 0) raise SolverError.

    Returns y, R(y), the number of Newton steps, |Phi|_inf and |Phi|_2 per
    iterate (the start included).
    """
    nU = system.nU
    perm, rank = pattern[-2:]
    scale = _residual_scale(system)
    fr = system.friction
    c = scale * fr.omega
    bound = system.idx_zn if contact else system.idx_zn[:0]   # none for d = 1
    idx_n, c_n = nU + bound, c[:len(bound)]
    slip = fr.F > 0
    idx_f, c_f, F = nU + system.idx_zt[slip], c[slip], fr.F[slip]

    def ncp(R, yv):
        phi = R.copy()
        phi[idx_n] = np.minimum(-yv[idx_n], -R[idx_n])
        phi[idx_f] = -R[idx_f] - np.clip(-R[idx_f] + c_f * yv[idx_f], -F, F)
        return phi

    strains = system.space.strains
    eps = strains(y[:nU])
    R = _block_residual(system, form, law, y, eps)
    phi = ncp(R, y)
    merit = phi @ phi
    history = [np.sqrt(merit)]
    for steps in itertools.count():
        resid = float(np.abs(phi).max(initial=0.0))
        if resid <= tol * scale:
            return y, R, steps, resid, history
        if steps >= max_iter:
            raise SolverError("%s solve stalled at residual %.3e" % (what, resid))
        rhs = -R
        q = -R[idx_f] + c_f * y[idx_f]
        rhs[idx_f] -= F * np.sign(q)
        fixed = np.concatenate([idx_n[-R[idx_n] + c_n * y[idx_n] > 0],
                                idx_f[np.abs(q) <= F]])
        rhs[fixed] = -y[fixed]
        dy = spla.spsolve(_newton_matrix(system, law, pattern, eps, fixed),
                          rhs[perm], permc_spec="NATURAL")[rank]
        if not np.all(np.isfinite(dy)):
            raise SolverError("%s Newton matrix is singular at residual %.3e"
                              % (what, resid))
        dy[fixed] = -y[fixed]            # SuperLU leaves rounding there
        t = 1.0
        for _ in range(40):
            cand = y + t * dy
            epsc = strains(cand[:nU])
            Rc = _block_residual(system, form, law, cand, epsc)
            phic = ncp(Rc, cand)
            mc = phic @ phic
            if mc <= (1 - 1e-4 * t) * merit:
                break
            t *= 0.5
        else:
            raise SolverError("%s line search failed at residual %.3e"
                              % (what, resid))
        y, eps, R, phi, merit = cand, epsc, Rc, phic, mc
        history.append(np.sqrt(merit))


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


def default_tolerance(law):
    return 1e-10 if law.p == 2.0 else 1e-8


def _start(system, x0):
    """Start (x0, lam0) of the bordered system (x0 = 0 if None): lam0 is
    the least-squares multiplier of x0."""
    x0 = np.zeros(system.nU + system.nZ) if x0 is None else np.asarray(x0, dtype=float)
    return np.concatenate([x0, _compat_multiplier(system, system.grad_smooth(x0))])


def _solution(system, form, y, R, iters, resid, history):
    """DiscreteSolution of either form at the solved iterate y with residual
    R: the multipliers lam_n and mu_t are the residual rows of the v_n and
    Z_t coordinates; y's tail is lam, or the layer-potential density."""
    nU, n = system.nU, system.nU + system.nZ
    x, Z = y[:n], y[nU:n]
    if form is system:
        phi, compat_mult, compat_residual = None, y[n:], system.compat_residual(x)
    else:
        phi, compat_mult = y[n:], np.zeros(system.ncompat)
        compat_residual = (float(np.abs(form.compat_rows @ phi).max())
                           if system.ncompat else 0.0)
    return DiscreteSolution(
        u=y[:nU], z=Z, v=system.B[:, nU:] @ Z, w=system.B @ x, phi=phi,
        lam_n=-R[nU + system.idx_zn] + 0.0, mu_t=-R[nU + system.idx_zt],
        compat_mult=compat_mult, compat_residual=compat_residual,
        objective=system.objective(x),
        iterations=iters, residual=resid, residual_history=history)


def _solve(system, form, y0, tol, max_iter, what, contact=True):
    """Solve a block form of system from y0 on the form's one Newton
    pattern.  Unless the law is linear, the solve first runs the p = 2 law
    on the same system, form and pattern from y0 and starts from its
    solution, multipliers included: at zero strain the FE tangent of a
    p > 2 law vanishes and the first Newton matrix would be singular."""
    pattern = _newton_pattern(system.space, form)
    if system.law.p != 2.0:
        p2 = MaterialLaw(p=2.0, mode=system.law.mode)
        y0 = _newton(system, form, pattern, p2, y0, default_tolerance(p2), 100,
                     "p = 2 warm start", contact)[0]
    return _solution(system, form, *_newton(
        system, form, pattern, system.law, y0,
        tol or default_tolerance(system.law), max_iter, what, contact))


def solve_transmission(system, tol=None, max_iter=200):
    """Smooth coupled solve: no contact constraint, no friction."""
    if np.any(system.friction.F > 0):
        raise ValueError("transmission solve requires zero friction bound")
    return _solve(system, system, _start(system, None), tol, max_iter,
                  "transmission", contact=False)


def solve_contact_vi(system, tol=None, max_iter=200, x0=None):
    """Friction-contact solve by active-set Newton on the exact conditions;
    a given start x0 (default 0) starts the p = 2 warm start, or the solve
    itself if the law is linear."""
    return _solve(system, system, _start(system, x0), tol, max_iter, "contact")


def slip_fields(sol, system):
    """Nodal contact fields per slip node: v_n, v_t, the variational
    (multiplier) stresses sigma_n = -lam_n / omega and sigma_t = -mu_t / omega
    in stress units, and the bound density F / omega.  v_n and sigma_n are
    zero for d = 1."""
    fr = system.friction
    omega = fr.omega
    if system.d == 2:
        vn, vt = sol.z[system.idx_zn], sol.z[system.idx_zt]
        sigma_n = -sol.lam_n / omega
    else:
        vn, vt = np.zeros(len(omega)), sol.z
        sigma_n = np.zeros(len(omega))
    return vn, vt, sigma_n, -sol.mu_t / omega, fr.F / omega


def kkt_residuals(sol, system):
    """Nodewise maxima of the five Tresca contact conditions on the nodal
    fields of slip_fields (all zero without slip nodes)."""
    vn, vt, sigma_n, sigma_t, Fd = slip_fields(sol, system)
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
    """Monotone block form of the direct layer-potential formulation.

    Rows tested with interior/jump functions:
        A'(eps(U)) + W(w - u0) + (K' - 1) phi = f, t0 moments
    rows tested with densities:
        V phi + (1 - K)(w - u0) = 0
    plus nodewise contact bounds, lumped friction on Z_t, the compatibility
    rows on phi (its moments against the rigid motions at the panel
    midpoints), and optionally the rank-D rigid-body stabilization
    sum_j a_j (a_j . (w - u0, phi)), which vanishes at the solution.

    The form (J_block, J_dofs, rhs) acts on y = (U, Z, P).  J_block is
    dense on J_dofs, the boundary columns bcols and then the density dofs:
    [[Bd^T W Bd, -Bd^T T^T], [T Bd, V]] with T = Mb - K and
    the system's Bd = B[:, bcols], plus Atil^T Atil with Atil = [A_w Bd,
    A_phi] when stabilized;
    rhs = (b_f + B^T (W u0 + t0 moments + A_w^T c), T u0 + A_phi^T c) with
    c = A_w u0 (zero when not stabilized).  The stabilization rows
    A = [A_w, A_phi] = [xi^T T, xi^T V] are formed here from the
    orthonormal rigid-motion densities xi of bem.stabilization_data, so
    a_j . (w, phi) = <xi_j, T w + V phi>.
    """

    def __init__(self, system, stabilized=False):
        ops = system.ops
        self.nU, self.nZ = system.nU, system.nZ
        self.nP = ops.V.shape[0]
        self.n = self.nU + self.nZ + self.nP
        self.stabilized = bool(stabilized)
        T = ops.Mb - ops.K                 # (dL, dM)
        # moments of the density against the first ncompat rigid motions
        p0 = rigid_motions(system.bspace.mids, ops.d)[:, :system.ncompat]
        self.compat_rows = (ops.M0[:, None] * p0).T
        # the constant block, dense on the boundary columns bcols and the
        # density dofs, and the data of the trace and density rows
        Bd = system.Bd
        TB = T @ Bd
        J = np.block([[Bd.T @ ops.W @ Bd, -TB.T], [TB, ops.V]])
        rb = ops.W @ system.U0 + system.t0b
        rp = T @ system.U0
        if self.stabilized:
            xi = stabilization_data(system.bspace, ops)
            A = np.hstack([xi.T @ T, xi.T @ ops.V])
            dM = ops.Mb.shape[1]
            stab_c = A[:, :dM] @ system.U0
            rb += A[:, :dM].T @ stab_c
            rp += A[:, dM:].T @ stab_c
            # Atil^T Atil summed over the D rows in order, as the sparse
            # product rounds it
            Atil = np.hstack([A[:, :dM] @ Bd, A[:, dM:]])
            AtA = np.multiply.outer(Atil[0], Atil[0])
            for a in Atil[1:]:
                AtA += np.multiply.outer(a, a)
            J += AtA
        self.J_dofs = np.concatenate([system.bcols, self.nU + self.nZ + np.arange(self.nP)])
        self.J_block = J
        self.rhs = np.concatenate([system.b_f, np.zeros(self.nZ), rp])
        self.rhs[:self.nU + self.nZ] += system.B.T @ rb


def solve_layerpotential_vi(system, stabilized=False, tol=None, max_iter=200):
    """Semismooth Newton (primal-dual active set on v_n <= 0 and on the
    friction bound) for the layer-potential system."""
    # The zero-total-flux condition is intrinsic here: testing the trace rows
    # with constants pins <phi, 1> to the data compatibility defect, so no
    # explicit constraint rows are added (they would be linearly dependent).
    lp = LayerPotentialSystem(system, stabilized=stabilized)
    return _solve(system, lp, np.zeros(lp.n), tol, max_iter, "layer-potential")

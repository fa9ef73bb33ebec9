"""Galerkin boundary integral operators on polygonal boundaries.

Single layer V, double layer K (exterior-trace convention: K = 1/2 M + K_pv),
hypersingular W (assembled through its tangential-derivative regularization),
boundary mass couplings, the discrete Steklov-Poincare operator
S = W + (M - K)^T V^{-1} (M - K), and rigid-body stabilization data.

Inner integrals over source panels are analytic; outer integrals use Gauss
rules graded toward shared vertices.  Assembly makes one pass per source
panel: a pair-class table (self, cyclic neighbour, near, far) picks each
row's outer rule, the panel's scalar inner integrals are evaluated once at
the outer points of all rows and contracted with the outer weights, and
then one d x d block of V, Ghat and K is built per (row, panel) pair; the
blocks are linear in the integrals.  Each kernel names the integrals it
reads, and only those are computed (three for Laplace, sixteen for Lame).
For Laplace, Ghat is V.  Kernels: 2D Laplace (scalar exterior field) and
2D Lame (vector exterior field).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .quadrature import graded_gauss, segment_gauss

_ONLINE_REL = 1e-12


# ---------------------------------------------------------------------------
# boundary space
# ---------------------------------------------------------------------------

class BoundarySpace:
    """Panelization of the (single, closed, CCW) boundary polygon of a mesh.

    P1 dofs live on the loop nodes, P0 dofs on the panels.  Node k joins
    panels k-1 and k; panel k runs from node k to node k+1.
    """

    def __init__(self, mesh):
        loop, labels = mesh.boundary_loop()
        self.mesh = mesh
        self.loop = loop
        self.nodes = mesh.vertices[loop]                   # (M, 2)
        self.n_nodes = len(loop)
        self.labels = list(labels)                         # per panel
        nxt = np.roll(np.arange(self.n_nodes), -1)
        self.panel_start = np.arange(self.n_nodes)
        self.panel_end = nxt
        self.A = self.nodes
        self.B = self.nodes[nxt]
        d = self.B - self.A
        self.lengths = np.linalg.norm(d, axis=1)
        if np.any(self.lengths <= 0):
            raise ValueError("degenerate boundary segment")
        self.tangents = d / self.lengths[:, None]
        # outward normal of a CCW loop
        self.normals = np.column_stack([self.tangents[:, 1], -self.tangents[:, 0]])
        self.mids = 0.5 * (self.A + self.B)
        self.n_panels = self.n_nodes

    def diameter(self):
        d2 = np.sum((self.nodes[:, None] - self.nodes[None, :]) ** 2, axis=2)
        return float(np.sqrt(d2.max()))

    def slip_panels(self):
        return np.asarray([lab == "S" for lab in self.labels], dtype=bool)

    def slip_nodes(self):
        """Nodes whose both adjacent panels are slip panels (hat support in Gamma_s)."""
        s = self.slip_panels()
        prev = np.roll(s, 1)
        return np.nonzero(s & prev)[0]

    def node_normals(self):
        """Averaged (length-weighted) outward normals at nodes, normalized."""
        n = np.zeros((self.n_nodes, 2))
        w = self.normals * self.lengths[:, None]
        np.add.at(n, self.panel_start, w)
        np.add.at(n, self.panel_end, w)
        return n / np.linalg.norm(n, axis=1)[:, None]

    def panel_points(self, t, panels=slice(None)):
        """Points A + t (B - A) at parameters t on the given panels: (n, len(t), 2)."""
        A = self.A[panels]
        return A[:, None, :] + t[None, :, None] * (self.B[panels] - A)[:, None, :]

    def p1_values(self, coef, t):
        """Values of a nodal P1 field at parameters t on every panel: (L, len(t), d)."""
        g = np.asarray(coef).reshape(self.n_nodes, -1)
        return (g[self.panel_start][:, None, :] * (1 - t)[None, :, None]
                + g[self.panel_end][:, None, :] * t[None, :, None])

    def p1_moments(self, vals, t, w):
        """Moments int f psi_k of panel values f at parameters t with weights
        w, given as (L, len(t), d): (M d,), the transpose of p1_values."""
        f = np.asarray(vals, dtype=float).reshape(self.n_panels, len(t), -1)
        wl = self.lengths[:, None] * w
        out = np.zeros((self.n_nodes, f.shape[2]))
        out[self.panel_start] += np.sum((wl * (1 - t))[:, :, None] * f, axis=1)
        out[self.panel_end] += np.sum((wl * t)[:, :, None] * f, axis=1)
        return out.reshape(-1)

    def interpolate_nodes(self, fn, ncomp):
        vals = np.asarray(fn(self.nodes), dtype=float)
        return vals.reshape(self.n_nodes * ncomp) if ncomp > 1 else vals.reshape(-1)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def fundamental_solution(coeffs, x, y):
    """Fundamental solution at (x, y): scalar Laplace if coeffs is None, else 2D Lame."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = x - y
    rho2 = np.sum(r * r, axis=-1)
    if np.any(rho2 == 0):
        raise ValueError("fundamental solution at coincident points")
    if coeffs is None:
        return -np.log(rho2) / (4 * np.pi)
    lam, mu = coeffs.lam, coeffs.mu
    A = (lam + 3 * mu) / (4 * np.pi * mu * (lam + 2 * mu))
    B = (lam + mu) / (lam + 3 * mu)
    eye = np.eye(2)
    dyad = r[..., :, None] * r[..., None, :] / rho2[..., None, None]
    return A * (-0.5 * np.log(rho2)[..., None, None] * eye + B * dyad)


class _LaplaceKernel:
    """Scalar exterior Laplace: G = -(1/2pi) log|x-y|.  The W kernel Ghat
    equals G, so the Ghat matrix is V."""

    d = 1
    prims = ("ilog0", "s1_0", "s1_t")       # primitives the blocks read
    k_prims = ("s1_0", "s1_t")              # read by k_blocks (off-line points)
    ghat_is_v = True

    def __init__(self):
        self.c_log = 1.0 / (2 * np.pi)      # G = c_log * (-log rho)

    def v_block(self, prim, geo):
        return self.c_log * prim["ilog0"][:, None, None]

    def k_blocks(self, prim, geo):
        # dlp kernel (x-y).n_y / (2 pi rho^2) = eta/(2 pi rho^2);
        # weights: start node 1 - tau/L, end node tau/L
        kt = prim["s1_t"] / (2 * np.pi)
        k0 = prim["s1_0"] / (2 * np.pi) - kt
        return k0[:, None, None], kt[:, None, None]

    def v_self(self, L, that):
        return np.array([[L * L * (1.5 - np.log(L)) / (2 * np.pi)]])

    def k_self_inner(self, prim, geo):
        z = np.zeros_like(prim["s1_0"])
        return z[:, None, None], z[:, None, None]


class _LameKernel:
    """2D Lame kernel set for exterior coefficients (mu, lambda)."""

    d = 2
    k_prims = ("s1_0", "s1_t", "s2_0", "s2_t", "p2_0", "p2_t",
               "p1_0", "p1_t", "p0_0", "p0_t")
    prims = ("ilog0", "dy00", "dy01", "dy11") + k_prims + ("pv0", "pvt")
    ghat_is_v = False

    def __init__(self, coeffs):
        lam, mu = coeffs.lam, coeffs.mu
        self.A = (lam + 3 * mu) / (4 * np.pi * mu * (lam + 2 * mu))
        self.B = (lam + mu) / (lam + 3 * mu)
        self.c_log = self.A
        self.c_dyad = self.A * self.B
        kap = mu * (lam + mu) / (np.pi * (lam + 2 * mu))
        self.w_log = kap
        self.w_dyad = kap
        self.tc = mu / (2 * np.pi * (lam + 2 * mu))       # traction kernel constants
        self.td = (lam + mu) / (np.pi * (lam + 2 * mu))

    def _dyad(self, prim, geo):
        that, nhat = geo
        tt = that[:, None] * that[None, :]
        tn = that[:, None] * nhat[None, :] + nhat[:, None] * that[None, :]
        nn = nhat[:, None] * nhat[None, :]
        return (prim["dy00"][:, None, None] * tt
                + prim["dy01"][:, None, None] * tn
                + prim["dy11"][:, None, None] * nn)

    def v_block(self, prim, geo):
        eye = np.eye(2)
        return self.c_log * prim["ilog0"][:, None, None] * eye + self.c_dyad * self._dyad(prim, geo)

    def ghat_block(self, prim, geo):
        eye = np.eye(2)
        return self.w_log * prim["ilog0"][:, None, None] * eye + self.w_dyad * self._dyad(prim, geo)

    def k_blocks(self, prim, geo):
        """Double layer potential kernel, transposed traction-of-columns contraction.

        Kmat_ab = [c((r.n) I + n r^T - r n^T) + d (r.n) r r^T / rho^2]_ab / rho^2
        integrated against weights {1-tau/L, tau/L}; r = x - y = -u that + eta nhat.
        """
        that, nhat = geo
        eye = np.eye(2)
        out = []
        for tag in ("0", "t"):
            s1 = prim["s1_" + tag]      # int w eta/rho^2
            s2 = prim["s2_" + tag]      # int w u/rho^2
            p2 = prim["p2_" + tag]      # eta int w u^2/rho^4
            p1 = prim["p1_" + tag]      # eta^2 int w u/rho^4
            p0 = prim["p0_" + tag]      # eta^3 int w /rho^4
            # int w r/rho^2 = -that*s2 + nhat*s1
            rvec = -that[None, :] * s2[:, None] + nhat[None, :] * s1[:, None]
            anti = (nhat[:, None] * rvec[:, None, :] - rvec[:, :, None] * nhat[None, :])
            tt = that[:, None] * that[None, :]
            tn = that[:, None] * nhat[None, :] + nhat[:, None] * that[None, :]
            nn = nhat[:, None] * nhat[None, :]
            dy4 = (p2[:, None, None] * tt - p1[:, None, None] * tn
                   + p0[:, None, None] * nn)
            blk = self.tc * (s1[:, None, None] * eye + anti) + self.td * dy4
            out.append(blk)
        return out[0] - out[1], out[1]

    def v_self(self, L, that):
        tt = that[:, None] * that[None, :]
        return self.A * L * L * ((1.5 - np.log(L)) * np.eye(2) + self.B * tt)

    def ghat_self(self, L, that):
        tt = that[:, None] * that[None, :]
        return self.w_log * L * L * ((1.5 - np.log(L)) * np.eye(2) + tt)

    def k_self_inner(self, prim, geo):
        """On-line principal value: only the antisymmetric rotation term survives."""
        that, nhat = geo
        anti = that[:, None] * nhat[None, :] - nhat[:, None] * that[None, :]
        # r = -u that: Kmat = tc (n r^T - r n^T)/rho^2 = -tc (n that^T - that n^T)/u
        kt = self.tc * prim["pvt"][:, None, None] * (-anti.T)
        k0 = self.tc * prim["pv0"][:, None, None] * (-anti.T) - kt
        return k0, kt


# ---------------------------------------------------------------------------
# analytic inner integrals over one source panel
# ---------------------------------------------------------------------------

class _Memo(dict):
    """Values computed on first access by rules[key](self).  The rules get
    the memo as an argument rather than by closure, so no reference cycle
    keeps a call's arrays alive until the next garbage collection."""

    def __init__(self, rules):
        super().__init__()
        self.rules = rules

    def __missing__(self, key):
        val = self[key] = self.rules[key](self)
        return val


def _primitives(keys, panel_A, that, nhat, L, X):
    """Definite inner integrals `keys` over the source panel at observation
    points X, plus the on-line mask "online".

    Frame coordinates: xi = (x-A).that, eta = (x-A).nhat, u in [-xi, L-xi].
    All returned combinations are finite; |eta| < _ONLINE_REL*L uses the
    on-line (principal-value) branch.  The shared core is computed always;
    a combination, and a subexpression some combinations share, only when
    it is asked for, and once.
    """
    X = np.atleast_2d(X)
    rel = X - panel_A[None, :]
    xi = rel @ that
    eta = rel @ nhat
    online = np.abs(eta) <= _ONLINE_REL * L
    eta_safe = np.where(online, 1.0, eta)
    u1 = -xi
    u2 = L - xi
    r1s = u1 * u1 + eta * eta
    r2s = u2 * u2 + eta * eta
    # avoid log(0) when an observation point coincides with a panel endpoint
    tiny = (_ONLINE_REL * L) ** 2
    r1s = np.maximum(r1s, tiny * tiny)
    r2s = np.maximum(r2s, tiny * tiny)
    log1 = 0.5 * np.log(r1s)
    log2 = 0.5 * np.log(r2s)
    at1 = np.where(online, 0.0, np.arctan(u1 / eta_safe))
    at2 = np.where(online, 0.0, np.arctan(u2 / eta_safe))
    dat = at2 - at1
    dlog = log2 - log1

    def ilog0(g):
        # int (-log rho)
        ulog1 = np.where(np.abs(u1) < tiny, 0.0, u1 * log1)
        ulog2 = np.where(np.abs(u2) < tiny, 0.0, u2 * log2)
        return -(ulog2 - ulog1 - (u2 - u1) + eta * dat)

    def pv0(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(online, np.log(np.maximum(np.abs(u2), tiny))
                            - np.log(np.maximum(np.abs(u1), tiny)), 0.0)

    rules = {
        # subexpressions shared by several combinations
        "dq": lambda g: u2 / r2s - u1 / r1s,
        "dinv": lambda g: 1 / r2s - 1 / r1s,
        "eta3": lambda g: eta ** 3,
        "ilog0": ilog0,
        # dyadic /rho^2 pieces
        "dy00": lambda g: (u2 - u1) - eta * dat,
        "dy01": lambda g: -eta * dlog,
        "dy11": lambda g: eta * dat,
        # dlp combos, plain and tau/L weighted
        "s1_0": lambda g: dat,
        "s1_t": lambda g: (eta * dlog + xi * dat) / L,
        "s2_0": lambda g: dlog,
        "s2_t": lambda g: ((u2 - u1) - eta * dat + xi * dlog) / L,
        "p2_0": lambda g: np.where(online, 0.0, -0.5 * eta * g["dq"] + 0.5 * dat),
        "p2_t": lambda g: np.where(
            online, 0.0,
            (eta * dlog + 0.5 * g["eta3"] * g["dinv"]
             + xi * (-0.5 * eta * g["dq"] + 0.5 * dat)) / L),
        "p1_0": lambda g: -0.5 * eta ** 2 * g["dinv"],
        "p1_t": lambda g: (np.where(online, 0.0,
                                    -0.5 * eta ** 2 * g["dq"] + 0.5 * eta * dat)
                           + xi * g["p1_0"]) / L,
        "p0_0": lambda g: np.where(online, 0.0, 0.5 * eta * g["dq"] + 0.5 * dat),
        "p0_t": lambda g: (np.where(online, 0.0, -0.5 * g["eta3"] * g["dinv"])
                           + xi * g["p0_0"]) / L,
        # on-line principal values of int w/u (Lame self/collinear rotation term)
        "pv0": pv0,
        "pvt": lambda g: np.where(online, (u2 - u1) / L, 0.0) + xi * g["pv0"] / L,
    }
    g = _Memo(rules)
    p = {k: g[k] for k in keys}
    p["online"] = online
    return p


def _inner(kernel, bspace, m, X):
    """Pointwise kernel blocks of panel m at observation points X.

    Returns the (n, d, d) blocks (V, K0, Kt); K0/Kt carry the start/end node
    weights 1 - tau/L and tau/L, with principal values at on-line points.
    """
    that = bspace.tangents[m]
    nhat = bspace.normals[m]
    prim = _primitives(kernel.prims, bspace.A[m], that, nhat, bspace.lengths[m], X)
    geo = (that, nhat)
    k0, kt = kernel.k_blocks(prim, geo)
    if np.any(prim["online"]):
        s0, st = kernel.k_self_inner(prim, geo)
        mask = prim["online"][:, None, None]
        k0 = np.where(mask, s0, k0)
        kt = np.where(mask, st, kt)
    return kernel.v_block(prim, geo), k0, kt


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@dataclass
class BoundaryOperators:
    """Dense Galerkin matrices of the exterior boundary integral operators."""

    bspace: BoundarySpace
    coeffs: object                 # ExteriorCoefficients or None (Laplace)
    d: int
    V: np.ndarray                  # (dL, dL)
    K: np.ndarray                  # (dL, dM) exterior-trace convention
    W: np.ndarray                  # (dM, dM)
    Mb: np.ndarray                 # (dL, dM) P0xP1 coupling
    M1: np.ndarray                 # (dM, dM) P1 boundary mass
    M0: np.ndarray = None          # (dL,) P0 mass diagonal
    half_factor: bool = False
    _S: np.ndarray = field(default=None, repr=False)

    def steklov_poincare(self):
        """S = W + (Mb-K)^T V^{-1} (Mb-K); halved when half_factor is set."""
        if self._S is None:
            T = self.Mb - self.K
            X = sla.cho_solve(sla.cho_factor(self.V), T)
            S = self.W + T.T @ X
            S = 0.5 * (S + S.T)
            if self.half_factor:
                S = 0.5 * S
            self._S = S
        return self._S

    def dump_csv(self, directory):
        import os
        os.makedirs(directory, exist_ok=True)
        for name in ("V", "K", "W", "Mb", "M1"):
            np.savetxt(os.path.join(directory, name + ".csv"),
                       getattr(self, name), delimiter=",", fmt="%.17g")


def _kernel_for(coeffs):
    return _LaplaceKernel() if coeffs is None else _LameKernel(coeffs)


def _pair_blocks(ker, bspace, quad_order):
    """(L, L, d, d) Galerkin blocks of V, Ghat and the start/end node parts
    of K for every (row panel, source panel) pair.  For Laplace the Ghat
    array is the V array."""
    d = ker.d
    L = bspace.n_panels
    q = max(4, int(quad_order))
    lengths = bspace.lengths

    # pair classes, by row and source panel: 0 far, 1 near, 2 the row is the
    # next panel, 3 the previous one, 4 self; on a simple loop, sharing a
    # vertex means cyclic neighbours.  Midpoint distances via a matmul
    # self-dot, which rounds like the 1-D norm of each difference
    panel = np.arange(L)
    nxt = (panel + 1) % L
    prv = (panel - 1) % L
    dm = bspace.mids[:, None, :] - bspace.mids[None, :, :]
    dist = np.sqrt((dm[..., None, :] @ dm[..., :, None])[..., 0, 0])
    pair_class = (dist < 1.5 * np.maximum(lengths[:, None], lengths[None, :])).astype(int)
    pair_class[nxt, panel] = 2
    pair_class[prv, panel] = 3
    pair_class[panel, panel] = 4

    # outer rule per class: plain Gauss for far rows, finer for near rows,
    # graded toward the shared vertex for neighbours and toward both ends
    # for self.  The outer points and weights of every panel under every
    # rule, once, flat; first[c, l] is where panel l's points under rule c start
    xga, wga = graded_gauss(levels=12, order=8, toward_zero=True)
    rules = (segment_gauss(q), segment_gauss(3 * q), (xga, wga), (1.0 - xga, wga),
             (np.concatenate([0.5 * xga, 1.0 - 0.5 * xga]),
              np.concatenate([0.5 * wga, 0.5 * wga])))
    pts = np.concatenate([bspace.panel_points(t).reshape(-1, 2) for t, _ in rules])
    wts = np.concatenate([(lengths[:, None] * w[None, :]).ravel() for _, w in rules])
    n_rule = np.array([len(t) for t, _ in rules])
    first = (np.cumsum(L * n_rule) - L * n_rule)[:, None] + n_rule[:, None] * panel

    Vfull = np.zeros((L, L, d, d))
    Gfull = Vfull if ker.ghat_is_v else np.zeros((L, L, d, d))
    K0full = np.zeros((L, L, d, d))   # weight (1 - tau/L): node = panel_start[m]
    Ktfull = np.zeros((L, L, d, d))   # weight tau/L:       node = panel_end[m]
    kprim = [ker.prims.index(k) for k in ker.k_prims]

    # one pass per source panel m: one evaluation of its inner integrals at
    # the outer points of all rows, contracted with the outer weights into
    # one value per row, then one d x d block per (row, m) pair; the blocks
    # are linear in the integrals
    for m in range(L):
        cls = pair_class[:, m]
        nq = n_rule[cls]
        seg = np.cumsum(nq) - nq                 # row l's points start at seg[l]
        idx = np.repeat(first[cls, panel] - seg, nq) + np.arange(seg[-1] + nq[-1])
        geo = (bspace.tangents[m], bspace.normals[m])
        prim = _primitives(ker.prims, bspace.A[m], *geo, lengths[m], pts[idx])
        P = np.stack([prim[k] for k in ker.prims])
        # on-line points take the principal value (k_self_inner, from pv0/pvt,
        # which vanish off the line) in place of the k_blocks integrals
        online = np.flatnonzero(prim["online"])
        P[np.ix_(kprim, online)] = 0.0
        red = dict(zip(ker.prims, np.add.reduceat(P * wts[idx], seg, axis=1)))
        Vfull[:, m] = ker.v_block(red, geo)
        if not ker.ghat_is_v:
            Gfull[:, m] = ker.ghat_block(red, geo)
        k0, kt = ker.k_blocks(red, geo)
        s0, st = ker.k_self_inner(red, geo)
        K0full[:, m] = k0 + s0
        Ktfull[:, m] = kt + st

    # self pairs: analytic V and Ghat
    for l in range(L):
        Vfull[l, l] = ker.v_self(lengths[l], bspace.tangents[l])
        if not ker.ghat_is_v:
            Gfull[l, l] = ker.ghat_self(lengths[l], bspace.tangents[l])
    return Vfull, Gfull, K0full, Ktfull


def assemble_operators(bspace, coeffs=None, quad_order=8, check_scaling=True):
    """Assemble V, K, W and the mass couplings for the given exterior kernel."""
    if check_scaling and bspace.diameter() >= 1.0:
        raise ValueError("boundary diameter >= 1: rescale the geometry first "
                         "(single-layer positivity requires capacity < 1)")
    ker = _kernel_for(coeffs)
    d = ker.d
    L = bspace.n_panels
    M = bspace.n_nodes
    lengths = bspace.lengths
    Vfull, Gfull, K0full, Ktfull = _pair_blocks(ker, bspace, quad_order)

    # flatten to (dL, dL) / (dL, dM)
    def flat_sym(Mfull):
        A = Mfull.transpose(0, 2, 1, 3).reshape(L * d, L * d)
        return 0.5 * (A + A.T)

    V = flat_sym(Vfull)
    Gpair = V if ker.ghat_is_v else flat_sym(Gfull)

    # scatter panel blocks to nodes: node j starts panel j and ends panel j-1
    Kp = K0full + np.roll(Ktfull, 1, axis=1)
    Kpv = Kp.transpose(0, 2, 1, 3).reshape(L * d, M * d)

    comp = np.arange(d)
    panel = np.arange(L)
    prow = (panel[:, None] * d + comp).ravel()                  # P0 dof a of panel m
    n0 = (bspace.panel_start[:, None] * d + comp).ravel()       # P1 dof a of its start
    n1 = (bspace.panel_end[:, None] * d + comp).ravel()         # P1 dof a of its end
    M0 = np.repeat(lengths, d)

    Mb = np.zeros((L * d, M * d))
    np.add.at(Mb, (prow, n0), 0.5 * M0)
    np.add.at(Mb, (prow, n1), 0.5 * M0)

    Kext = 0.5 * Mb + Kpv

    # W through its tangential-derivative reduction: W = D^T Gpair D
    D = np.zeros((L * d, M * d))
    inv = 1.0 / M0
    D[prow, n0] = -inv
    D[prow, n1] = inv
    W = D.T @ Gpair @ D
    W = 0.5 * (W + W.T)

    M1 = np.zeros((M * d, M * d))
    np.add.at(M1, (n0, n0), M0 / 3)
    np.add.at(M1, (n1, n1), M0 / 3)
    np.add.at(M1, (n0, n1), M0 / 6)
    np.add.at(M1, (n1, n0), M0 / 6)

    return BoundaryOperators(bspace=bspace, coeffs=coeffs, d=d, V=V, K=Kext,
                             W=W, Mb=Mb, M1=M1, M0=M0)


# ---------------------------------------------------------------------------
# rigid body stabilization
# ---------------------------------------------------------------------------

@dataclass
class RigidBodyBasis:
    """L2-orthonormal piecewise-constant projections of the rigid motions."""

    xi: np.ndarray        # (dL, D)
    rigid_p1: np.ndarray  # (dM, D) nodal traces of the rigid motions

    @property
    def dim(self):
        return self.xi.shape[1]


def rigid_motions(bspace, d):
    """Rigid-motion traces: P0 midpoint projections and P1 nodal values."""
    L, M = bspace.n_panels, bspace.n_nodes
    if d == 1:
        p0 = np.ones((L, 1))
        p1 = np.ones((M, 1))
        return p0.reshape(L, 1), p1.reshape(M, 1)
    cols0, cols1 = [], []
    for e in np.eye(2):
        cols0.append(np.tile(e, (L, 1)).reshape(-1))
        cols1.append(np.tile(e, (M, 1)).reshape(-1))
    rot0 = np.column_stack([-bspace.mids[:, 1], bspace.mids[:, 0]]).reshape(-1)
    rot1 = np.column_stack([-bspace.nodes[:, 1], bspace.nodes[:, 0]]).reshape(-1)
    cols0.append(rot0)
    cols1.append(rot1)
    return np.column_stack(cols0), np.column_stack(cols1)


def stabilization_data(bspace, ops):
    """Gram-Schmidt of rigid-motion P0 projections in the boundary L2 product."""
    p0, p1 = rigid_motions(bspace, ops.d)
    w = ops.M0
    xi = p0.astype(float).copy()
    for j in range(xi.shape[1]):
        for i in range(j):
            xi[:, j] -= (xi[:, i] * w) @ xi[:, j] * xi[:, i]
        nrm = np.sqrt((xi[:, j] * w) @ xi[:, j])
        xi[:, j] /= nrm
    return RigidBodyBasis(xi=xi, rigid_p1=p1)


def stabilization_vectors(ops, basis):
    """Rows a_j over stacked (P1 trace dofs, P0 density dofs) such that

    a_j . (w, phi) = <xi_j, (1-K) w + V phi>.

    The stabilized bilinear form adds sum_j a_j a_j^T; the stabilized right
    hand side adds sum_j <xi_j, (1-K) u0> a_j.
    """
    T = ops.Mb - ops.K
    aw = basis.xi.T @ T           # (D, dM)
    aphi = basis.xi.T @ ops.V     # (D, dL)
    return np.hstack([aw, aphi])


# pointwise evaluation --------------------------------------------------------

def eval_layer_potentials(bspace, coeffs, density, wcoef, X):
    """(V phi)(x) for a P0 density phi and principal-value (K_pv w)(x) for a
    P1 density w, at points X on or off the boundary.

    One evaluation of the panel integrals per source panel gives both.
    """
    ker = _kernel_for(coeffs)
    d = ker.d
    X = np.atleast_2d(X)
    dens = np.asarray(density).reshape(bspace.n_panels, d)
    w = np.asarray(wcoef).reshape(bspace.n_nodes, d)
    vphi = np.zeros((len(X), d))
    kw = np.zeros((len(X), d))
    for m in range(bspace.n_panels):
        vb, k0, kt = _inner(ker, bspace, m, X)          # (n, d, d) each
        n0, n1 = int(bspace.panel_start[m]), int(bspace.panel_end[m])
        vphi += np.einsum("nab,b->na", vb, dens[m])
        kw += np.einsum("nab,b->na", k0, w[n0]) + np.einsum("nab,b->na", kt, w[n1])
    return vphi, kw


def eval_single_layer(bspace, coeffs, density, X):
    """(V phi)(x) for a P0 density phi, at arbitrary points X."""
    d = _kernel_for(coeffs).d
    return eval_layer_potentials(bspace, coeffs, density,
                                 np.zeros(bspace.n_nodes * d), X)[0]


def eval_double_layer_pv(bspace, coeffs, wcoef, X):
    """Principal-value (K_pv w)(x) for a P1 density w, at points X on or off the boundary."""
    d = _kernel_for(coeffs).d
    return eval_layer_potentials(bspace, coeffs, np.zeros(bspace.n_panels * d),
                                 wcoef, X)[1]

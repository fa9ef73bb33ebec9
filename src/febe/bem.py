"""Galerkin boundary integral operators on polygonal boundaries.

Single layer V, double layer K (exterior-trace convention: K = 1/2 M + K_pv),
hypersingular W (its tangential-derivative regularization, in O((dL)^2):
Ghat / (|panel| |panel'|) differenced between each node's two panels),
boundary mass couplings, the discrete Steklov-Poincare operator
S = W + (M - K)^T V^{-1} (M - K), and the rigid motions at any points:
both coupled formulations read this one table, at the nodes or at the
panel midpoints.  Every panel-to-node map is one roll, x + roll(y, d).

Each kernel is described once, by a table: for V, Ghat and the start and
end node parts of K, the d x d coefficient block of every analytic inner
integral over the source panel that the operator reads (three for Laplace,
whose Ghat table is V's, sixteen for Lame).  Outer integrals use Gauss rules
graded toward shared vertices, picked per (row, source) panel pair by a
pair-class table (self, cyclic neighbour, near, far).  Assembly works in
blocked array passes over all pairs: per block of source panels, each
integral is evaluated once at the outer points of every pair, weighted in
place and summed per pair; then the table is contracted with these
integrals, one (a, b) component of the d x d blocks at a time.  The
integrals come from one straight-line core (_primitives) in three blocks:
the principal values, the Laplace core with the Laplace table's three
integrals, and the integrals only the Lame table reads.  A call runs only
the blocks its keys need, so the Lame self pass, which asks for the
principal values alone, evaluates no arctan and no log of rho.  Self pairs
take the exact panel x panel integrals of V and Ghat, and K's principal
value, so at their outer points only the integrals of that value are
evaluated (Lame).  The operators keep these pair integrals, and an
adaptive level hands its operators to the next one:
a panel whose start and end points are bitwise equal to those of a
previous panel is kept, the integrals of every pair of two kept panels are
copied, and only the pairs with a new panel are evaluated.  If every panel
is kept in its place (same coefficients and quad_order), the previous
operators, S included, are reused whole.  Pointwise evaluation contracts
the table with the densities per panel first and the integrals at the
points afterwards, one component at a time.  Every pass does the
arithmetic of one pass per source panel, in the same order, so the
operators and potentials do not depend on the blocking.
Kernels: 2D Laplace (scalar exterior field) and 2D Lame (vector exterior
field).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .mesh import SLIP, diameter
from .quadrature import graded_gauss, segment_gauss

_ONLINE_REL = 1e-12
_BLOCK_POINTS = 8192      # observation points per _primitives call; bounds its memory


# ---------------------------------------------------------------------------
# boundary space
# ---------------------------------------------------------------------------

class BoundarySpace:
    """Panelization of the (single, closed, CCW) boundary polygon of a mesh.

    P1 dofs live on the loop nodes, P0 dofs on the panels.  Node k joins
    panels k-1 and k; panel k runs from node k to node k+1.  So every
    panel-to-node map is one roll: on d-component dofs, the node sums of
    per-panel start values x and end values y are 0.0 + x + roll(y, d):
    summed from +0.0, as a scatter into zeros is, two -0.0 terms give +0.0.
    """

    def __init__(self, mesh):
        loop, labels = mesh.boundary_loop()
        self.loop = loop
        self.nodes = mesh.vertices[loop]                   # (M, 2)
        self.n_nodes = len(loop)
        self.labels = list(labels)                         # per panel
        nxt = np.roll(np.arange(self.n_nodes), -1)
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

    def slip_panels(self):
        return np.asarray(self.labels) == SLIP

    def slip_nodes(self):
        """Nodes whose both adjacent panels are slip panels (hat support in Gamma_s)."""
        s = self.slip_panels()
        prev = np.roll(s, 1)
        return np.nonzero(s & prev)[0]

    def node_normals(self):
        """Averaged (length-weighted) outward normals at nodes, normalized."""
        w = self.normals * self.lengths[:, None]
        n = 0.0 + w + np.roll(w, 1, axis=0)
        return n / np.linalg.norm(n, axis=1)[:, None]

    def panel_points(self, t, panels=slice(None)):
        """Points A + t (B - A) at parameters t on the given panels: (n, len(t), 2)."""
        A = self.A[panels]
        D = self.B[panels] - A
        out = np.empty((len(A), len(t), 2))
        for c in range(2):
            np.multiply(D[:, c, None], t, out=out[..., c])
            out[..., c] += A[:, c, None]
        return out

    def p1_values(self, coef, t):
        """Values of a nodal P1 field at parameters t on every panel: (L, len(t), d)."""
        g = np.asarray(coef).reshape(self.n_nodes, -1)
        return (g[:, None, :] * (1 - t)[None, :, None]
                + g[self.panel_end][:, None, :] * t[None, :, None])

    def p1_moments(self, vals, t, w):
        """Moments int f psi_k of panel values f at parameters t with weights
        w, given as (L, len(t), d): (M d,), the transpose of p1_values."""
        f = np.asarray(vals, dtype=float).reshape(self.n_panels, len(t), -1)
        wl = self.lengths[:, None] * w
        start = np.sum((wl * (1 - t))[:, :, None] * f, axis=1)
        end = np.sum((wl * t)[:, :, None] * f, axis=1)
        return (0.0 + start + np.roll(end, 1, axis=0)).reshape(-1)

    def interpolate_nodes(self, fn, ncomp):
        return np.asarray(fn(self.nodes), dtype=float).reshape(self.n_nodes * ncomp)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class _LaplaceKernel:
    """Scalar exterior Laplace: G = -(1/2pi) log|x-y|.  The W kernel Ghat
    equals G, so the Ghat table is the V table and the Ghat matrix is V."""

    d = 1
    self_prims = ()                         # principal values read at on-line points

    def __init__(self):
        self.c_log = 1.0 / (2 * np.pi)      # G = c_log * (-log rho)

    def terms(self, that, nhat):
        """{operator: {integral: (..., d, d) coefficient block}} for V, Ghat
        ("G") and the start/end node parts K0, Kt of K on source panels with
        tangents that and normals nhat.  K0 reads every integral Kt reads."""
        c = np.full(that.shape[:-1] + (1, 1), self.c_log)
        v = {"ilog0": c}
        # dlp kernel (x-y).n_y / (2 pi rho^2) = eta/(2 pi rho^2);
        # weights: start node 1 - tau/L, end node tau/L
        return {"V": v, "G": v, "K0": {"s1_0": c, "s1_t": -c}, "Kt": {"s1_t": c}}


class _LameKernel:
    """2D Lame kernels for exterior coefficients (mu, lambda)."""

    d = 2
    self_prims = ("pv0", "pvt")

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

    def terms(self, that, nhat):
        """{operator: {integral: (..., 2, 2) coefficient block}} for V, Ghat
        ("G") and the start/end node parts K0, Kt of K on source panels with
        tangents that and normals nhat.

        V and Ghat are c I ilog0 + c' (dy00 tt + dy01 tn + dy11 nn).  K is the
        transposed traction-of-columns contraction
        [c((r.n) I + n r^T - r n^T) + d (r.n) r r^T / rho^2] / rho^2 with
        r = x - y = -u that + eta nhat, integrated against the weights
        {1-tau/L, tau/L} (tags 0, t) to tc (s1 I + s2 R) + td (p2 tt - p1 tn
        + p0 nn), R = that nhat^T - nhat that^T; on the line only the
        principal value tc pv R is left.
        """
        t, n = that[..., :, None], nhat[..., :, None]
        tT, nT = that[..., None, :], nhat[..., None, :]
        tt, tn, nn, R = t * tT, t * nT + n * tT, n * nT, t * nT - n * tT
        eye = np.broadcast_to(np.eye(2), tt.shape)
        dyad = {"dy00": tt, "dy01": tn, "dy11": nn}
        V = {"ilog0": self.c_log * eye, **{k: self.c_dyad * b for k, b in dyad.items()}}
        G = {"ilog0": self.w_log * eye, **{k: self.w_dyad * b for k, b in dyad.items()}}
        tc, td = self.tc, self.td
        K = {tag: {"s1_" + tag: tc * eye, "s2_" + tag: tc * R, "p2_" + tag: td * tt,
                   "p1_" + tag: -td * tn, "p0_" + tag: td * nn, "pv" + tag: tc * R}
             for tag in ("0", "t")}
        K0 = {**K["0"], **{k: -b for k, b in K["t"].items()}}
        return {"V": V, "G": G, "K0": K0, "Kt": K["t"]}


# ---------------------------------------------------------------------------
# analytic inner integrals over source panels
# ---------------------------------------------------------------------------

_PV_KEYS = {"pv0", "pvt"}
_LAPLACE_KEYS = {"ilog0", "s1_0", "s1_t"}


def _by_t(a, f, xi, L):
    """(a + xi f) / L: the tau/L weighted form of an integral f, with a the
    part that does not carry xi."""
    out = xi * f
    out += a
    out /= L
    return out


def _primitives(keys, bspace, src, X):
    """Definite inner integrals `keys` over the panel src[i] of bspace at
    each observation point X[i], plus the on-line mask "online".

    Frame coordinates of the panel (start A, tangent that, normal nhat,
    length L): xi = (x-A).that, eta = (x-A).nhat, u in [-xi, L-xi].
    All returned combinations are finite; |eta| <= _ONLINE_REL*max(L, |A|)
    uses the on-line (principal-value) branch, as the rounding of eta grows
    with the coordinates.  After xi, eta and the mask, straight-line code
    computes the three sets the kernel tables ask for, in three blocks that
    run only when a key they cover is asked for: the principal values pv0
    and pvt (the Lame self pass), which vanish off the line and are
    evaluated at the on-line points alone, with no arctan and no log of
    rho; the Laplace core and its integrals ilog0, s1_0 and s1_t; and from
    that core the eleven integrals only the Lame table reads.  Each value
    takes the operations of its formula in their order, so it does not
    depend on which others a call asks for.  No two returned arrays share
    memory, so a caller may change each in place.
    """
    n = len(X)
    # per source panel: xi, eta by BLAS, which rounds a two-term dot as
    # fma(a0, b0, a1 b1); no array form (einsum, stacked matmul, rel[:, 0]
    # t[:, 0] + ...) rounds alike.  The loop buys reproducibility, not
    # accuracy: 5e-6 L from a shared vertex eta (~7e-8) is a difference of
    # products ~0.03, and both forms are off the exact geometry by 2.5e-10
    # relative.  An array form moves V, K, W, S by < 1e-15, but single
    # off-line integrals by up to 7e-10: the bit-for-bit tests pin the loop
    start = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])[:n]
    rel = X - np.take(bspace.A, src, axis=0)
    xi, eta = np.empty((2, n))
    for s, e in zip(start.tolist(), np.r_[start[1:], n].tolist()):
        np.dot(rel[s:e], bspace.tangents[src[s]], out=xi[s:e])
        np.dot(rel[s:e], bspace.normals[src[s]], out=eta[s:e])
    del rel                                  # not held while the blocks run
    tol = np.take(_ONLINE_REL * np.maximum(bspace.lengths,
                                           np.hypot(bspace.A[:, 0], bspace.A[:, 1])), src)
    online = np.abs(eta) <= tol
    need = set(keys)
    out = {"online": online}

    if need & _PV_KEYS:
        # on-line principal values of int w/u (Lame self/collinear rotation
        # term): log|u2| - log|u1|, without the log of an end within tol of
        # the point (at a shared vertex the two panels' terms cancel
        # exactly), and its tau/L weighted form
        i = np.flatnonzero(online)
        x, length, t = xi[i], np.take(bspace.lengths, src[i]), tol[i]
        u1, u2 = -x, length - x
        a1, a2 = np.abs(u1), np.abs(u2)
        pv = np.log(np.where(a2 > t, a2, 1.0)) - np.log(np.where(a1 > t, a1, 1.0))
        out["pv0"], out["pvt"] = np.zeros(n), np.zeros(n)
        out["pv0"][i] = pv
        out["pvt"][i] = (u2 - u1) / length + x * pv / length
        del i, x, length, t, u1, u2, a1, a2, pv
    del tol

    if need - _PV_KEYS:
        L = np.take(bspace.lengths, src)
        tiny = np.take((_ONLINE_REL * bspace.lengths) ** 2, src)
        u1 = np.negative(xi)
        u2 = L - xi
        eta2 = eta * eta
        # rho^2 at the ends, at least tiny^2: no log(0) when an observation
        # point coincides with a panel endpoint
        r1s, r2s = u1 * u1, u2 * u2
        r1s += eta2
        r2s += eta2
        np.maximum(r1s, tiny * tiny, out=r1s)
        np.maximum(r2s, tiny * tiny, out=r2s)
        log1, log2 = np.log(r1s), np.log(r2s)
        log1 *= 0.5
        log2 *= 0.5
        # arctan(u2/eta) - arctan(u1/eta), 0 on the line
        eta_safe = np.where(online, 1.0, eta)
        dat, at1 = u2 / eta_safe, u1 / eta_safe
        del eta_safe
        np.arctan(dat, out=dat)
        dat -= np.arctan(at1, out=at1)
        del at1
        np.copyto(dat, 0.0, where=online)
        du = u2 - u1
        dlog = log2 - log1
        edat = eta * dat
        edlog = eta * dlog
        # int (-log rho)
        ilog0, ulog1 = u2 * log2, u1 * log1
        del log1, log2
        np.copyto(ilog0, 0.0, where=np.abs(u2) < tiny)
        np.copyto(ulog1, 0.0, where=np.abs(u1) < tiny)
        del tiny
        ilog0 -= ulog1
        del ulog1
        ilog0 -= du
        ilog0 += edat
        np.negative(ilog0, out=ilog0)
        out.update(ilog0=ilog0, s1_0=dat, s1_t=_by_t(edlog, dat, xi, L))

    if need - _PV_KEYS - _LAPLACE_KEYS:
        # the dyadic /rho^2 pieces dy.., and the dlp combinations s.., p..
        # plain (_0) and tau/L weighted (_t)
        heta, hdat = 0.5 * eta, 0.5 * dat
        dq = u2 / r2s
        dq -= u1 / r1s
        dinv = 1 / r2s
        dinv -= 1 / r1s
        del u1, u2, r1s, r2s
        hdq = heta * dq
        h3d = eta2 * eta                     # eta^3 dinv / 2
        h3d *= 0.5
        h3d *= dinv
        m2 = -0.5 * eta2
        del eta2
        p2 = hdat - hdq                      # -eta dq / 2 + dat / 2
        p1_0 = m2 * dinv
        del dinv
        p1_t = m2 * dq
        p1_t += heta * dat
        del m2, dq, heta
        p0_0 = hdq + hdat
        del hdq, hdat
        dy00 = du - edat
        del du
        p2_t = _by_t(edlog + h3d, p2, xi, L)
        np.negative(h3d, out=h3d)
        for a in (p2_t, p1_t, p0_0, h3d):
            np.copyto(a, 0.0, where=online)
        out.update(dy00=dy00, dy01=np.negative(edlog), dy11=edat, s2_0=dlog,
                   s2_t=_by_t(dy00, dlog, xi, L), p2_0=np.where(online, 0.0, p2),
                   p2_t=p2_t, p1_0=p1_0, p1_t=_by_t(p1_t, p1_0, xi, L),
                   p0_0=p0_0, p0_t=_by_t(h3d, p0_0, xi, L))
    return {k: out[k] for k in (*keys, "online")}


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@dataclass
class BoundaryOperators:
    """Dense Galerkin matrices of the exterior boundary integral operators."""

    bspace: BoundarySpace          # once reused whole: an earlier level's, same panels
    coeffs: object                 # ExteriorCoefficients or None (Laplace)
    d: int
    V: np.ndarray                  # (dL, dL)
    K: np.ndarray                  # (dL, dM) exterior-trace convention
    W: np.ndarray                  # (dM, dM)
    Mb: np.ndarray                 # (dL, dM) P0xP1 coupling
    M1: np.ndarray                 # (dM, dM) P1 boundary mass
    M0: np.ndarray                 # (dL,) P0 mass diagonal
    quad_order: int
    ints: np.ndarray = field(repr=False)   # pair integrals (_pair_blocks)
    _S: np.ndarray = field(default=None, repr=False)

    def steklov_poincare(self):
        """S = W + (Mb-K)^T V^{-1} (Mb-K)."""
        if self._S is None:
            T = self.Mb - self.K
            X = sla.cho_solve(sla.cho_factor(self.V), T)
            S = self.W + T.T @ X
            self._S = 0.5 * (S + S.T)
        return self._S

    def dump_csv(self, directory):
        import os
        os.makedirs(directory, exist_ok=True)
        for name in ("V", "K", "W", "Mb", "M1"):
            np.savetxt(os.path.join(directory, name + ".csv"),
                       getattr(self, name), delimiter=",", fmt="%.17g")


def _kernel_for(coeffs):
    return _LaplaceKernel() if coeffs is None else _LameKernel(coeffs)


def _panel_blocks(counts):
    """Slices of consecutive panels with at most _BLOCK_POINTS points in all
    (panel m has counts[m]), or with one panel."""
    step = max(1, _BLOCK_POINTS // max(1, int(counts.max(initial=0))))
    return [slice(s, s + step) for s in range(0, len(counts), step)]


def _table_integrals(ker, table):
    """The integrals a kernel table reads, in table order, and the K
    integrals other than the principal values: those are zeroed at on-line
    points, where K takes the principal value (ker.self_prims, which vanish
    off the line)."""
    prims = list(dict.fromkeys(k for terms in table.values() for k in terms))
    return prims, {*table["K0"], *table["Kt"]} - set(ker.self_prims)


def _table_values(prims, kzero, bspace, src, X):
    """{integral: (n,)} of the integrals prims over the panels src at the
    points X, with the kzero ones zeroed at on-line points (in place: each
    array _primitives returns is its own)."""
    prim = _primitives(prims, bspace, src, X)
    for k in kzero:
        np.copyto(prim[k], 0.0, where=prim["online"])
    return prim


def _weigh_and_reduce(ints, prims, P, w, seg, cols):
    """ints[prims.index(k), cols] = the sums over the segments seg of the
    integrals P[k] times the weights w, each P[k] weighted in place."""
    for k, a in P.items():
        if k != "online":
            a *= w
            ints[prims.index(k), cols] = np.add.reduceat(a, seg)


def _self_pair_integrals(lengths):
    """Exact panel x panel integrals of the V and Ghat tables over each
    self pair (source panel = row panel): on the line eta = 0, so dy01 and
    dy11 vanish."""
    L2 = lengths * lengths
    zero = np.zeros_like(lengths)
    return {"ilog0": L2 * (1.5 - np.log(lengths)), "dy00": L2, "dy01": zero, "dy11": zero}


def _kept_panels(prev, bspace):
    """For each panel of bspace, the index of the panel of prev whose start
    and end points are bitwise equal to its own, or -1."""
    keys = [np.hstack([b.A, b.B]).view("V32")[:, 0] for b in (prev, bspace)]
    order = np.argsort(keys[0])
    hit = order[np.minimum(np.searchsorted(keys[0], keys[1], sorter=order), len(order) - 1)]
    return np.where(keys[0][hit] == keys[1], hit, -1)


def _pair_blocks(ker, bspace, quad_order, reuse=None):
    """(L, L, d, d) Galerkin blocks of V, Ghat and the start/end node parts
    of K for every (row panel, source panel) pair: the kernel table
    contracted with the pair integrals, which are returned last, as
    (integral, m L + l) for row l and source m.  For Laplace the Ghat array
    is the V array.

    Self pairs stay out of the blocked passes: every self outer point lies
    on the source panel, where the non-PV K integrals vanish, and the V and
    Ghat integrals are analytic (_self_pair_integrals).  Only the principal
    values (ker.self_prims, none for Laplace) are evaluated at the self
    points, in passes of their own.

    reuse = (old, prev): old[l] is panel l's index on a previous boundary
    assembled with the same kernel and quad_order (-1 for a new panel),
    prev that boundary's pair integrals as (integral, source, row).  A
    pair's integrals depend only on its two panels, so those of every pair
    of two kept panels are copied, and the passes run over the pairs with a
    new panel.
    """
    table = ker.terms(bspace.tangents, bspace.normals)
    prims, kzero = _table_integrals(ker, table)
    L = bspace.n_panels
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
    xga, wga = graded_gauss(levels=12, order=8)
    rules = (segment_gauss(quad_order), segment_gauss(3 * quad_order), (xga, wga), (1.0 - xga, wga),
             (np.concatenate([0.5 * xga, 1.0 - 0.5 * xga]),
              np.concatenate([0.5 * wga, 0.5 * wga])))
    pts = np.concatenate([bspace.panel_points(t).reshape(-1, 2) for t, _ in rules])
    wts = np.concatenate([(lengths[:, None] * w[None, :]).ravel() for _, w in rules])
    n_rule = np.array([len(t) for t, _ in rules])
    first = (np.cumsum(L * n_rule) - L * n_rule)[:, None] + n_rule[:, None] * panel

    # (row l, source m) pairs, source-major, flat at m L + l: pair (l, m)
    # reads its n_rule[c] outer points from first[c, l], c = pair_class[l, m].
    # Per block of source panels, each integral is evaluated once at every
    # non-self pair's outer points and contracted with the outer weights
    # into one value per pair.  A zero-length reduceat segment would return
    # the point at its start, so the self pairs are left out of the segments
    # and their values stay zero unless the self pass below sets them
    cls = pair_class.T
    nq = n_rule[cls]
    nq[panel, panel] = 0
    ints = np.zeros((len(prims), L * L))                    # [integral, m L + l]
    fresh = panel
    if reuse is not None:
        old, prev = reuse
        kept = np.flatnonzero(old >= 0)
        fresh = np.flatnonzero(old < 0)
        nq[np.ix_(kept, kept)] = 0
        ints.reshape(-1, L, L)[:, kept[:, None], kept] = prev[:, old[kept][:, None], old[kept]]
    for blk in _panel_blocks(nq.sum(axis=1)):
        pair = np.flatnonzero(nq[blk])          # non-self pairs of the block
        if not len(pair):                       # all kept
            continue
        n = nq[blk].ravel()[pair]
        seg = np.cumsum(n) - n                  # pair j's points start at seg[j]
        idx = np.repeat(first[cls[blk], panel].ravel()[pair] - seg, n) + np.arange(n.sum())
        src = np.repeat(panel[blk], nq[blk].sum(axis=1))
        P = _table_values(prims, kzero, bspace, src, np.take(pts, idx, axis=0))
        _weigh_and_reduce(ints, prims, P, wts[idx], seg, blk.start * L + pair)

    # self pairs (m, m), flat at m (L + 1): the analytic V and Ghat
    # integrals, and the principal values from the self rule's points
    exact = _self_pair_integrals(lengths)
    for k in {**table["V"], **table["G"]}:
        ints[prims.index(k), panel * (L + 1)] = exact[k]
    ns = n_rule[4]
    for blk in _panel_blocks(np.full(len(fresh), ns)) if ker.self_prims else ():
        m = fresh[blk]
        idx = (first[4, m][:, None] + np.arange(ns)).ravel()
        P = _table_values(ker.self_prims, (), bspace, np.repeat(m, ns), np.take(pts, idx, axis=0))
        _weigh_and_reduce(ints, prims, P, wts[idx], ns * np.arange(len(m)), m * (L + 1))

    # every (row, source) block at once, one (a, b) component at a time:
    # each operator's coefficients times its integrals, summed in table
    # order on (source, row) arrays, then written to the (row, a, source, b)
    # layout of the flat matrix
    red = dict(zip(prims, ints.reshape(-1, L, L)))
    d = ker.d
    term = np.empty((L, L))

    def contract(terms):
        out = np.empty((L, d, L, d))
        for a in range(d):
            for b in range(d):
                acc = np.zeros((L, L))
                for k, c in terms.items():
                    acc += np.multiply(red[k], c[:, a, b, None], out=term)
                out[:, a, :, b] = acc.T
        return out.transpose(0, 2, 1, 3)

    V = contract(table["V"])
    G = V if table["G"] is table["V"] else contract(table["G"])
    return V, G, contract(table["K0"]), contract(table["Kt"]), ints


def assemble_operators(bspace, coeffs=None, quad_order=8, previous=None):
    """Assemble V, K, W and the mass couplings for the given exterior kernel.

    previous: the BoundaryOperators of the previous adaptive level, or None.
    If it has the same coefficients and quad_order, the pair integrals of
    the panels kept from it (start and end points bitwise equal) are copied
    rather than evaluated, and if every panel is kept in its place,
    previous itself is returned.  Either way the result equals a fresh
    assembly bit for bit.
    """
    if not isinstance(quad_order, numbers.Integral) or quad_order < 4:
        raise ValueError("quad_order must be an integer >= 4, got %r" % (quad_order,))
    if diameter(bspace.nodes) >= 1.0:
        raise ValueError("boundary diameter >= 1: rescale the geometry first "
                         "(single-layer positivity requires capacity < 1)")
    reuse = None
    if previous is not None and previous.coeffs == coeffs and previous.quad_order == quad_order:
        old = _kept_panels(previous.bspace, bspace)
        if np.array_equal(old, np.arange(previous.bspace.n_panels)):
            return previous
        Lp = previous.bspace.n_panels
        reuse = old, previous.ints.reshape(-1, Lp, Lp)
    ker = _kernel_for(coeffs)
    d = ker.d
    L = bspace.n_panels
    M = bspace.n_nodes
    lengths = bspace.lengths
    Vfull, Gfull, K0full, Ktfull, ints = _pair_blocks(ker, bspace, quad_order, reuse)

    # flatten to (dL, dL) / (dL, dM)
    def flat_sym(Mfull):
        A = Mfull.transpose(0, 2, 1, 3).reshape(L * d, L * d)
        return 0.5 * (A + A.T)

    V = flat_sym(Vfull)

    # panel blocks to nodes: node j starts panel j and ends panel j-1, so
    # on the dofs, P0 dof i's start node is P1 dof i and its end node nxt[i]
    dof = np.arange(L * d)
    nxt = np.roll(dof, -d)
    M0 = np.repeat(lengths, d)
    Mb = np.zeros((L * d, M * d))
    Mb[dof, dof] = Mb[dof, nxt] = 0.5 * M0
    K = (K0full + np.roll(Ktfull, 1, axis=1)).transpose(0, 2, 1, 3).reshape(L * d, M * d)
    K += 0.5 * Mb                                     # exterior trace: 1/2 Mb + K_pv

    # W through its tangential-derivative reduction: Ghat / (|panel| |panel'|)
    # differenced between each node's two panels, over rows, then columns
    G = (V if Gfull is Vfull else flat_sym(Gfull)) / np.outer(M0, M0)
    G = np.roll(G, d, axis=0) - G
    G = np.roll(G, d, axis=1) - G
    W = 0.5 * (G + G.T)
    del G

    M1 = np.zeros((M * d, M * d))
    M1[dof, dof] = M0 / 3 + np.roll(M0 / 3, d)
    M1[dof, nxt] = M1[nxt, dof] = M0 / 6

    return BoundaryOperators(bspace=bspace, coeffs=coeffs, d=d, V=V, K=K,
                             W=W, Mb=Mb, M1=M1, M0=M0, quad_order=quad_order, ints=ints)


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------

def rigid_motions(points, d):
    """The D = d (d + 1) / 2 rigid motions at points (n, 2) as (n d, D)
    columns, component-minor: the d translations, then for d = 2 the
    rotation (-y, x)."""
    R = np.zeros((len(points), d, d * (d + 1) // 2))
    R[:, range(d), range(d)] = 1.0
    if d == 2:
        R[:, 0, 2] = -points[:, 1]
        R[:, 1, 2] = points[:, 0]
    return R.reshape(len(points) * d, -1)


def stabilization_data(bspace, ops):
    """L2-orthonormal piecewise-constant projections xi (dL, D) of the rigid
    motions: Gram-Schmidt of their panel-midpoint values in the boundary L2
    product."""
    xi = rigid_motions(bspace.mids, ops.d)
    w = ops.M0
    for j in range(xi.shape[1]):
        for i in range(j):
            xi[:, j] -= (xi[:, i] * w) @ xi[:, j] * xi[:, i]
        nrm = np.sqrt((xi[:, j] * w) @ xi[:, j])
        xi[:, j] /= nrm
    return xi


# pointwise evaluation --------------------------------------------------------

def _apply(blocks, v):
    """Per panel, (L, d, d) blocks times (L, d) vectors."""
    return (blocks @ v[..., None])[..., 0]


def eval_layer_potentials(bspace, coeffs, density, wcoef, X):
    """(V phi)(x) for a P0 density phi and principal-value (K_pv w)(x) for a
    P1 density w, at points X on or off the boundary.

    The kernel table is contracted with the densities first: one d-vector
    per (integral, panel) for each potential (V with phi, K0 with w at the
    panel's start node, Kt with w at its end node).  One evaluation of the
    panel integrals per (point, panel) pair, in blocks of panels, then
    gives both.
    """
    ker = _kernel_for(coeffs)
    d = ker.d
    X = np.atleast_2d(X)
    n = len(X)
    table = ker.terms(bspace.tangents, bspace.normals)
    prims, kzero = _table_integrals(ker, table)
    dens = np.asarray(density).reshape(bspace.n_panels, d)
    w = np.asarray(wcoef).reshape(bspace.n_nodes, d)
    w1, kt = w[bspace.panel_end], table["Kt"]
    gv = {k: _apply(c, dens) for k, c in table["V"].items()}
    gk = {k: _apply(c, w) + (_apply(kt[k], w1) if k in kt else 0)
          for k, c in table["K0"].items()}
    acc = np.zeros((2, d, n))                 # running (V phi, K_pv w), by component
    for blk in _panel_blocks(np.full(bspace.n_panels, n)):
        m = np.arange(bspace.n_panels)[blk]
        P = _table_values(prims, kzero, bspace, np.repeat(m, n), np.tile(X, (len(m), 1)))
        # per potential and component, the sums over the integrals in table
        # order on (panel, point) arrays, after the running sums in row 0,
        # then added in panel order, as += per panel would: numpy reduces
        # axis 0 one row after another while the other axes hold more than
        # one element (2 d n >= 2); on a single column it would sum pairwise
        c = np.zeros((len(m) + 1, 2, d, n))
        c[0] = acc
        term = np.empty((len(m), n))
        for j, gs in enumerate((gv, gk)):
            for k, g in gs.items():
                Pk = P[k].reshape(len(m), n)
                for a in range(d):
                    c[1:, j, a] += np.multiply(Pk, g[m, a, None], out=term)
        acc = np.add.reduce(c, axis=0)
    return np.ascontiguousarray(acc[0].T), np.ascontiguousarray(acc[1].T)


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

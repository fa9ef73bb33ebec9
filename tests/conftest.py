import numpy as np
import pytest

from febe import material as mat
from febe import mesh as meshmod


def square_mesh_text(all_labels="T", left_label=None, lo=0.0, hi=1.0):
    """Two-triangle square [lo,hi]^2; optionally relabel the left edge."""
    lab = [all_labels] * 4  # bottom, right, top, left
    if left_label:
        lab[3] = left_label
    lines = ["4 2 4",
             f"{lo} {lo}", f"{hi} {lo}", f"{hi} {hi}", f"{lo} {hi}",
             "0 1 2", "0 2 3",
             f"0 1 {lab[0]}", f"1 2 {lab[1]}", f"2 3 {lab[2]}", f"3 0 {lab[3]}"]
    return "\n".join(lines)


def struct_square(n, lo=0.0, hi=1.0, slip=()):
    """n x n structured square with per-side labels; sides: b, r, t, l."""
    xs = np.linspace(lo, hi, n + 1)
    verts = [(x, y) for y in xs for x in xs]
    idx = lambda i, j: j * (n + 1) + i
    tris = []
    for j in range(n):
        for i in range(n):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    edges, labels = [], []
    lab = {s: ("S" if s in slip else "T") for s in "brtl"}
    for i in range(n):
        edges.append((idx(i, 0), idx(i + 1, 0))); labels.append(lab["b"])
        edges.append((idx(n, i), idx(n, i + 1))); labels.append(lab["r"])
        edges.append((idx(i + 1, n), idx(i, n))); labels.append(lab["t"])
        edges.append((idx(0, i + 1), idx(0, i))); labels.append(lab["l"])
    lines = ["%d %d %d" % (len(verts), len(tris), len(edges))]
    lines += ["%.17g %.17g" % v for v in verts]
    lines += ["%d %d %d" % t for t in tris]
    lines += ["%d %d %s" % (e[0], e[1], l) for e, l in zip(edges, labels)]
    return "\n".join(lines)


def circle_mesh(nseg, radius=0.4):
    """Fan triangulation of a polygonal disk, all-transmission boundary."""
    th = 2 * np.pi * np.arange(nseg) / nseg
    verts = [(0.0, 0.0)] + [(radius * np.cos(t), radius * np.sin(t)) for t in th]
    tris = [(0, 1 + k, 1 + (k + 1) % nseg) for k in range(nseg)]
    edges = [(1 + k, 1 + (k + 1) % nseg) for k in range(nseg)]
    lines = ["%d %d %d" % (len(verts), len(tris), len(edges))]
    lines += ["%.17g %.17g" % v for v in verts]
    lines += ["%d %d %d" % t for t in tris]
    lines += ["%d %d T" % e for e in edges]
    return meshmod.load_mesh("\n".join(lines))


@pytest.fixture(scope="session")
def unit_square():
    return meshmod.load_mesh(square_mesh_text(), scale=False)


def graded_slip_system(vector, p=2.0, friction="preset"):
    """Square with slip panels on two sides, locally refined so that panel
    lengths vary, with the scalar transition or the vector stick data.

    friction: "preset" keeps the data's callable bound, "nodal" uses seeded
    random nodal values, "none" no bound, an array or a callable that bound.
    """
    from febe import material as mat, presets
    from febe.driver import build_system
    from febe.vi import ProblemData
    law = mat.MaterialLaw(p=p, mode=mat.MODE_MATRIX if vector else mat.MODE_VECTOR)
    lines = presets.square_text(2, slip=("b", "r")).split("\n")
    lines[5] = "0.83 0.77"          # move the centre vertex: edges in all directions
    m = meshmod.refine_uniform(meshmod.load_mesh("\n".join(lines), scale=False), 1)
    m = meshmod.refine(m, np.random.default_rng(11).choice(len(m.triangles), 6,
                                                           replace=False))
    data = (presets.vector_stick(law) if vector else presets.scalar_transition(law)).data
    if isinstance(friction, str):
        nodal = np.random.default_rng(12).uniform(0.0, 1.0, len(m.boundary_loop()[0]))
        friction = {"preset": data.friction, "none": None, "nodal": nodal}[friction]
    data = ProblemData(f=data.f, u0=data.u0, t0=data.t0, friction=friction)
    return build_system(m, law, data)


def jittered_square(seed, sweeps=0):
    """square-slip n=4 with its interior vertices moved by up to 0.003 in
    each coordinate (seeded), after uniform sweeps."""
    from febe import presets
    m = meshmod.load_mesh(presets.square_text(4, slip=("b",)), scale=False)
    inner = np.setdiff1d(np.arange(len(m.vertices)), m.boundary_loop()[0])
    verts = m.vertices.copy()
    verts[inner] += np.random.default_rng(seed).uniform(-0.003, 0.003, (len(inner), 2))
    m = meshmod.Mesh(verts, m.triangles, m.boundary_edges, m.boundary_labels)
    return meshmod.refine_uniform(m, sweeps)


def random_graded_square(sweeps=3, seed=0):
    """square-slip n=4 after uniform sweeps, then 4 rounds of bisecting a
    random 20 % of the triangles."""
    from febe import presets
    rng = np.random.default_rng(seed)
    m = meshmod.refine_uniform(meshmod.load_mesh(presets.square_text(4, slip=("b",)),
                                                 scale=False), sweeps)
    for _ in range(4):
        m = meshmod.refine(m, rng.choice(len(m.triangles), len(m.triangles) // 5,
                                         replace=False))
    return m


def loop_dissection(p, ids, edges, leaf):
    """Recursive nested-dissection order of the vertices ids (ascending) of
    points p with the edges (pairs of ids), one group at a time: the
    reference for mesh._dissect.  A group of more than leaf vertices, in
    the order of its coordinate of longer extent (x on a tie, stable),
    splits at its median value, upper side from that value on, or by rank
    if the lower side would be empty; each cut edge puts in the separator
    its end with more cut edges, or on a tie its end on the side with
    fewer ends (lower if equal).  Order: lower half, upper half, separator."""
    nbrs = {}
    for a, b in np.asarray(edges).tolist():
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    out = []

    def visit(group):
        if len(group) <= leaf:
            out.extend(group)
            return
        x = p[group]
        axis = 1 if np.ptp(x[:, 1]) > np.ptp(x[:, 0]) else 0
        group = [group[i] for i in np.argsort(x[:, axis], kind="stable")]
        c = p[group, axis]
        mid = len(group) // 2
        upper = set(group[mid:] if c[0] == c[mid]
                    else [u for u, ci in zip(group, c) if ci >= c[mid]])
        members = set(group)
        cut = [(a, b) for a in group if a not in upper
               for b in nbrs.get(a, ()) if b in upper and b in members]
        deg = {}
        for a, b in cut:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        lower_ends = len({a for a, _ in cut})
        upper_ends = len({b for _, b in cut})
        sep = set()
        for a, b in cut:
            if deg[a] != deg[b]:
                sep.add(a if deg[a] > deg[b] else b)
            else:
                sep.add(b if upper_ends < lower_ends else a)
        visit([u for u in group if u not in upper and u not in sep])
        visit([u for u in group if u in upper and u not in sep])
        out.extend(u for u in group if u in sep)

    visit(list(ids))
    return np.array(out, dtype=np.int64)


def friction_bound_loop(system, l, t):
    """The friction bound on panel l at parameters t, one panel at a time."""
    fr, bs = system.data.friction, system.bspace
    if fr is None:
        return np.zeros(len(t))
    if isinstance(fr, np.ndarray):
        return fr[l] * (1 - t) + fr[bs.panel_end[l]] * t
    pts = bs.A[l][None, :] + t[:, None] * (bs.B[l] - bs.A[l])[None, :]
    return np.asarray(fr(pts), dtype=float).reshape(-1)


# -- BEM references: the per-point-block assembly, its d x d block formulas
# -- and the all-integrals primitives that the contracted assembly and the
# -- kernel tables replaced, the eager primitives and the broadcast panel
# -- points that the lazy kernel and the component-wise passes replaced, and
# -- the per-source-panel loops that the blocked assembly and evaluation
# -- replaced ----------------------------------------------------------------

def reference_primitives(panel_A, that, nhat, L, X):
    """Every inner integral over the source panel at observation points X."""
    from febe.bem import _ONLINE_REL
    X = np.atleast_2d(X)
    rel = X - panel_A[None, :]
    xi = rel @ that
    eta = rel @ nhat
    tol = _ONLINE_REL * max(L, np.hypot(*panel_A))
    online = np.abs(eta) <= tol
    eta_safe = np.where(online, 1.0, eta)
    u1 = -xi
    u2 = L - xi
    r1s = u1 * u1 + eta * eta
    r2s = u2 * u2 + eta * eta
    tiny = (_ONLINE_REL * L) ** 2
    r1s = np.maximum(r1s, tiny * tiny)
    r2s = np.maximum(r2s, tiny * tiny)
    log1 = 0.5 * np.log(r1s)
    log2 = 0.5 * np.log(r2s)
    at1 = np.where(online, 0.0, np.arctan(u1 / eta_safe))
    at2 = np.where(online, 0.0, np.arctan(u2 / eta_safe))
    dat = at2 - at1
    dlog = log2 - log1

    p = {}
    ulog1 = np.where(np.abs(u1) < tiny, 0.0, u1 * log1)
    ulog2 = np.where(np.abs(u2) < tiny, 0.0, u2 * log2)
    p["ilog0"] = -(ulog2 - ulog1 - (u2 - u1) + eta * dat)
    prim_ulog = 0.5 * (r2s * log2 - r1s * log1) - 0.25 * (r2s - r1s)
    p["ilog_t"] = (-prim_ulog + xi * p["ilog0"]) / L
    p["dy00"] = (u2 - u1) - eta * dat
    p["dy01"] = -eta * dlog
    p["dy11"] = eta * dat
    p["s1_0"] = dat
    p["s1_t"] = (eta * dlog + xi * dat) / L
    p["s2_0"] = dlog
    p["s2_t"] = ((u2 - u1) - eta * dat + xi * dlog) / L
    p["p2_0"] = np.where(online, 0.0, -0.5 * eta * (u2 / r2s - u1 / r1s) + 0.5 * dat)
    p["p2_t"] = np.where(
        online, 0.0,
        (eta * dlog + 0.5 * eta ** 3 * (1 / r2s - 1 / r1s)
         + xi * (-0.5 * eta * (u2 / r2s - u1 / r1s) + 0.5 * dat)) / L)
    p["p1_0"] = -0.5 * eta ** 2 * (1 / r2s - 1 / r1s)
    p["p1_t"] = (np.where(online, 0.0,
                          -0.5 * eta ** 2 * (u2 / r2s - u1 / r1s) + 0.5 * eta * dat)
                 + xi * p["p1_0"]) / L
    p["p0_0"] = np.where(online, 0.0, 0.5 * eta * (u2 / r2s - u1 / r1s) + 0.5 * dat)
    p["p0_t"] = (np.where(online, 0.0, -0.5 * eta ** 3 * (1 / r2s - 1 / r1s))
                 + xi * p["p0_0"]) / L
    # an end within tol of the point drops its log|u|
    a1, a2 = np.abs(u1), np.abs(u2)
    pv = np.where(online, np.log(np.where(a2 > tol, a2, 1.0))
                  - np.log(np.where(a1 > tol, a1, 1.0)), 0.0)
    p["pv0"] = pv
    p["pvt"] = np.where(online, (u2 - u1) / L, 0.0) + xi * pv / L
    p["online"] = online
    return p


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


def eager_primitives(keys, bspace, src, X):
    """febe.bem._primitives before its core became lazy: the inner
    integrals `keys` over the panel src[i] of bspace at each observation
    point X[i], plus the on-line mask "online".

    Frame coordinates of the panel (start A, tangent that, normal nhat,
    length L): xi = (x-A).that, eta = (x-A).nhat, u in [-xi, L-xi].
    All returned combinations are finite; |eta| <= _ONLINE_REL*max(L, |A|)
    uses the on-line (principal-value) branch, as the rounding of eta grows
    with the coordinates.  The shared core is computed always;
    a combination, and a subexpression some combinations share, only when
    it is asked for, and once.
    """
    from febe.bem import _ONLINE_REL
    n = len(X)
    L = np.take(bspace.lengths, src)
    rel = X - np.take(bspace.A, src, axis=0)
    # per source panel: xi, eta by BLAS, which rounds a two-term dot as
    # fma(a0, b0, a1 b1); no array form (einsum, stacked matmul) rounds alike
    start = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])[:n]
    xi, eta = np.empty((2, n))
    for s, e in zip(start, np.r_[start[1:], n]):
        xi[s:e] = rel[s:e] @ bspace.tangents[src[s]]
        eta[s:e] = rel[s:e] @ bspace.normals[src[s]]
    tiny = (_ONLINE_REL * L) ** 2
    tol = np.take(_ONLINE_REL * np.maximum(bspace.lengths,
                                           np.hypot(bspace.A[:, 0], bspace.A[:, 1])), src)
    online = np.abs(eta) <= tol
    eta_safe = np.where(online, 1.0, eta)
    u1 = -xi
    u2 = L - xi
    r1s = u1 * u1 + eta * eta
    r2s = u2 * u2 + eta * eta
    # avoid log(0) when an observation point coincides with a panel endpoint
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
        # log|u2| - log|u1|, without the log of an end within tol of the
        # point: at a shared vertex the two panels' terms cancel exactly
        a1, a2 = np.abs(u1), np.abs(u2)
        return np.where(online, np.log(np.where(a2 > tol, a2, 1.0))
                        - np.log(np.where(a1 > tol, a1, 1.0)), 0.0)

    rules = {
        # subexpressions shared by several combinations
        "dq": lambda g: u2 / r2s - u1 / r1s,
        "dinv": lambda g: 1 / r2s - 1 / r1s,
        "eta3": lambda g: eta * eta * eta,
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


def broadcast_panel_points(bspace, t, panels=slice(None)):
    """BoundarySpace.panel_points as one broadcast to a trailing axis of 2."""
    A = bspace.A[panels]
    return A[:, None, :] + t[None, :, None] * (bspace.B[panels] - A)[:, None, :]


class _ReferenceLaplace:
    """The d x d block formulas of the scalar Laplace kernel, from its
    constants: the V and Ghat blocks, K's start and end node parts off the
    line (k_blocks) and on it (k_self_inner), and the analytic self-pair
    V and Ghat blocks."""

    def __init__(self, kernel):
        self.__dict__.update(vars(kernel))

    def vg_blocks(self, prim, geo):
        v = self.c_log * prim["ilog0"][..., None, None]
        return v, v

    def k_blocks(self, prim, geo):
        # dlp kernel (x-y).n_y / (2 pi rho^2) = eta/(2 pi rho^2);
        # weights: start node 1 - tau/L, end node tau/L
        kt = prim["s1_t"] / (2 * np.pi)
        k0 = prim["s1_0"] / (2 * np.pi) - kt
        return k0[..., None, None], kt[..., None, None]

    def v_self(self, L, that):
        return (L * L * (1.5 - np.log(L)) / (2 * np.pi))[..., None, None]

    ghat_self = v_self

    def k_self_inner(self, prim, geo):
        z = np.zeros_like(prim["s1_0"])
        return z[..., None, None], z[..., None, None]


class _ReferenceLame(_ReferenceLaplace):
    """The d x d block formulas of the 2D Lame kernels, from their constants."""

    def vg_blocks(self, prim, geo):
        """V and Ghat blocks, from one dyadic term."""
        that, nhat = geo
        tt = that[..., :, None] * that[..., None, :]
        tn = that[..., :, None] * nhat[..., None, :] + nhat[..., :, None] * that[..., None, :]
        nn = nhat[..., :, None] * nhat[..., None, :]
        dyad = (prim["dy00"][..., None, None] * tt + prim["dy01"][..., None, None] * tn
                + prim["dy11"][..., None, None] * nn)
        ilog = prim["ilog0"][..., None, None] * np.eye(2)
        return (self.c_log * ilog + self.c_dyad * dyad,
                self.w_log * ilog + self.w_dyad * dyad)

    def k_blocks(self, prim, geo):
        """Double layer potential kernel, transposed traction-of-columns contraction.

        Kmat_ab = [c((r.n) I + n r^T - r n^T) + d (r.n) r r^T / rho^2]_ab / rho^2
        integrated against weights {1-tau/L, tau/L}; r = x - y = -u that + eta nhat.
        """
        that, nhat = geo
        tt = that[..., :, None] * that[..., None, :]
        tn = that[..., :, None] * nhat[..., None, :] + nhat[..., :, None] * that[..., None, :]
        nn = nhat[..., :, None] * nhat[..., None, :]
        eye = np.eye(2)
        out = []
        for tag in ("0", "t"):
            s1 = prim["s1_" + tag]      # int w eta/rho^2
            s2 = prim["s2_" + tag]      # int w u/rho^2
            p2 = prim["p2_" + tag]      # eta int w u^2/rho^4
            p1 = prim["p1_" + tag]      # eta^2 int w u/rho^4
            p0 = prim["p0_" + tag]      # eta^3 int w /rho^4
            # int w r/rho^2 = -that*s2 + nhat*s1
            rvec = -that * s2[..., None] + nhat * s1[..., None]
            anti = (nhat[..., :, None] * rvec[..., None, :]
                    - rvec[..., :, None] * nhat[..., None, :])
            dy4 = (p2[..., None, None] * tt - p1[..., None, None] * tn
                   + p0[..., None, None] * nn)
            out.append(self.tc * (s1[..., None, None] * eye + anti) + self.td * dy4)
        return out[0] - out[1], out[1]

    def v_self(self, L, that):
        L = np.asarray(L)[..., None, None]
        tt = that[..., :, None] * that[..., None, :]
        return self.A * L * L * ((1.5 - np.log(L)) * np.eye(2) + self.B * tt)

    def ghat_self(self, L, that):
        L = np.asarray(L)[..., None, None]
        tt = that[..., :, None] * that[..., None, :]
        return self.w_log * L * L * ((1.5 - np.log(L)) * np.eye(2) + tt)

    def k_self_inner(self, prim, geo):
        """On-line principal value: only the antisymmetric rotation term survives."""
        that, nhat = geo
        anti = that[..., :, None] * nhat[..., None, :] - nhat[..., :, None] * that[..., None, :]
        # r = -u that: Kmat = tc (n r^T - r n^T)/rho^2 = -tc (n that^T - that n^T)/u
        rot = -np.swapaxes(anti, -1, -2)
        kt = self.tc * prim["pvt"][..., None, None] * rot
        k0 = self.tc * prim["pv0"][..., None, None] * rot - kt
        return k0, kt


def reference_blocks(kernel):
    """The block formulas of a febe.bem kernel."""
    return (_ReferenceLaplace if kernel.d == 1 else _ReferenceLame)(kernel)


def _reference_inner(kernel, bspace, m, X):
    """(n, d, d) blocks V, Ghat, K0, Kt at every observation point."""
    ref = reference_blocks(kernel)
    that = bspace.tangents[m]
    nhat = bspace.normals[m]
    prim = reference_primitives(bspace.A[m], that, nhat, bspace.lengths[m], X)
    geo = (that, nhat)
    k0, kt = ref.k_blocks(prim, geo)
    if np.any(prim["online"]):
        s0, st = ref.k_self_inner(prim, geo)
        mask = prim["online"][:, None, None]
        k0 = np.where(mask, s0, k0)
        kt = np.where(mask, st, kt)
    return (*ref.vg_blocks(prim, geo), k0, kt)


def reference_pair_blocks(ker, bspace, quad_order):
    """Galerkin pair blocks from d x d kernel blocks built at every outer
    quadrature point and contracted with the outer weights afterwards."""
    from febe.quadrature import graded_gauss, segment_gauss
    d = ker.d
    L = bspace.n_panels
    q = max(4, int(quad_order))
    lengths = bspace.lengths
    xg, wg = segment_gauss(q)
    xgn, wgn = segment_gauss(3 * q)
    xga, wga = graded_gauss(levels=12, order=8)
    xgs = np.concatenate([0.5 * xga, 1.0 - 0.5 * xga])
    wgs = np.concatenate([0.5 * wga, 0.5 * wga])
    panel = np.arange(L)
    nxt = (panel + 1) % L
    prv = (panel - 1) % L
    dm = bspace.mids[:, None, :] - bspace.mids[None, :, :]
    dist = np.sqrt((dm[..., None, :] @ dm[..., :, None])[..., 0, 0])
    near = dist < 1.5 * np.maximum(lengths[:, None], lengths[None, :])

    Vfull = np.zeros((L, L, d, d))
    Gfull = np.zeros((L, L, d, d))
    K0full = np.zeros((L, L, d, d))
    Ktfull = np.zeros((L, L, d, d))
    for m in range(L):
        other = (panel != m) & (panel != nxt[m]) & (panel != prv[m])
        groups = (
            (np.nonzero(other & ~near[:, m])[0], xg, wg),
            (np.nonzero(other & near[:, m])[0], xgn, wgn),
            (nxt[m:m + 1], xga, wga),
            (prv[m:m + 1], 1.0 - xga, wga),
            (panel[m:m + 1], xgs, wgs),
        )
        pts = [bspace.panel_points(t, rows).reshape(-1, 2) for rows, t, _ in groups]
        blocks = _reference_inner(ker, bspace, m, np.concatenate(pts))
        start = 0
        for rows, t, w in groups:
            stop = start + len(rows) * len(t)
            wl = w[None, :] * lengths[rows][:, None]
            for full, blk in zip((Vfull, Gfull, K0full, Ktfull), blocks):
                full[rows, m] = np.einsum("lq,lqab->lab", wl,
                                          blk[start:stop].reshape(len(rows), len(t), d, d))
            start = stop
    ref = reference_blocks(ker)
    for l in range(L):
        Vfull[l, l] = ref.v_self(lengths[l], bspace.tangents[l])
        Gfull[l, l] = ref.ghat_self(lengths[l], bspace.tangents[l])
    return Vfull, Gfull, K0full, Ktfull


def dense_difference_w(bspace, coeffs, quad_order=8):
    """W = sym(D^T Ghat D) through the dense (dL, dM) difference matrix D:
    per component, -1/length at each panel's start node and +1/length at
    its end node, with Ghat the symmetrized (dL, dL) pair blocks."""
    from febe import bem
    ker = bem._kernel_for(coeffs)
    d, L, M = ker.d, bspace.n_panels, bspace.n_nodes
    G = bem._pair_blocks(ker, bspace, quad_order)[1].transpose(0, 2, 1, 3).reshape(L * d, L * d)
    G = 0.5 * (G + G.T)
    dof = np.arange(L * d)                               # P0 dofs and their start nodes
    end = (bspace.panel_end[:, None] * d + np.arange(d)).ravel()
    inv = 1.0 / np.repeat(bspace.lengths, d)
    D = np.zeros((L * d, M * d))
    D[dof, dof] = -inv
    D[dof, end] = inv
    W = D.T @ G @ D
    return 0.5 * (W + W.T)


def reference_layer_potentials(bspace, coeffs, density, wcoef, X):
    """(V phi)(x) and principal-value (K_pv w)(x) from the reference blocks."""
    from febe.bem import _kernel_for
    ker = _kernel_for(coeffs)
    d = ker.d
    X = np.atleast_2d(X)
    dens = np.asarray(density).reshape(bspace.n_panels, d)
    w = np.asarray(wcoef).reshape(bspace.n_nodes, d)
    vphi = np.zeros((len(X), d))
    kw = np.zeros((len(X), d))
    for m in range(bspace.n_panels):
        vb, _, k0, kt = _reference_inner(ker, bspace, m, X)
        n0, n1 = m, int(bspace.panel_end[m])
        vphi += np.einsum("nab,b->na", vb, dens[m])
        kw += np.einsum("nab,b->na", k0, w[n0]) + np.einsum("nab,b->na", kt, w[n1])
    return vphi, kw


def loop_pair_rules(bspace, quad_order):
    """The outer rule class of every (row l, source m) pair, as [l, m]: 0
    far, 1 near, 2 the row is the next panel, 3 the previous one, 4 self;
    and the (points, weights) on [0, 1] of each class's rule."""
    from febe.quadrature import graded_gauss, segment_gauss
    L = bspace.n_panels
    q = max(4, int(quad_order))
    lengths = bspace.lengths
    panel = np.arange(L)
    nxt = (panel + 1) % L
    prv = (panel - 1) % L
    dm = bspace.mids[:, None, :] - bspace.mids[None, :, :]
    dist = np.sqrt((dm[..., None, :] @ dm[..., :, None])[..., 0, 0])
    pair_class = (dist < 1.5 * np.maximum(lengths[:, None], lengths[None, :])).astype(int)
    pair_class[nxt, panel] = 2
    pair_class[prv, panel] = 3
    pair_class[panel, panel] = 4
    xga, wga = graded_gauss(levels=12, order=8)
    rules = (segment_gauss(q), segment_gauss(3 * q), (xga, wga), (1.0 - xga, wga),
             (np.concatenate([0.5 * xga, 1.0 - 0.5 * xga]),
              np.concatenate([0.5 * wga, 0.5 * wga])))
    return pair_class, rules


def loop_pair_blocks(ker, bspace, quad_order):
    """(L, L, d, d) Galerkin blocks of V, Ghat, K0 and Kt from one pass per
    source panel: its integrals at the outer points of all rows, contracted
    into one value per row, then its kernel table contracted with them."""
    from febe import bem
    d = ker.d
    L = bspace.n_panels
    lengths = bspace.lengths
    panel = np.arange(L)
    pair_class, rules = loop_pair_rules(bspace, quad_order)
    pts = np.concatenate([bspace.panel_points(t).reshape(-1, 2) for t, _ in rules])
    wts = np.concatenate([(lengths[:, None] * w[None, :]).ravel() for _, w in rules])
    n_rule = np.array([len(t) for t, _ in rules])
    first = (np.cumsum(L * n_rule) - L * n_rule)[:, None] + n_rule[:, None] * panel

    table = ker.terms(bspace.tangents, bspace.normals)
    prims, kzero = bem._table_integrals(ker, table)
    exact = bem._self_pair_integrals(lengths)
    full = {op: np.zeros((L, L, d, d)) for op in ("V", "G", "K0", "Kt")}
    for m in range(L):
        cls = pair_class[:, m]
        nq = n_rule[cls]
        seg = np.cumsum(nq) - nq
        idx = np.repeat(first[cls, panel] - seg, nq) + np.arange(seg[-1] + nq[-1])
        P = bem._table_values(prims, kzero, bspace, np.full(len(idx), m), pts[idx])
        P = np.stack([P[k] for k in prims])
        red = dict(zip(prims, np.add.reduceat(P * wts[idx], seg, axis=1)))
        # the self pair: analytic V and Ghat integrals, no other K integral
        for k in red:
            if k in exact:
                red[k][m] = exact[k][m]
            elif k not in ker.self_prims:
                red[k][m] = 0.0
        for op, terms in table.items():
            full[op][:, m] = sum(red[k][:, None, None] * c[m] for k, c in terms.items())
    return full["V"], full["G"], full["K0"], full["Kt"]


def _loop_inner(kernel, table, bspace, m, X):
    """Integrals of panel m at observation points X, the non-PV K ones
    zeroed on the line, as {integral: (n, 1)}."""
    from febe import bem
    prims, kzero = bem._table_integrals(kernel, table)
    P = bem._table_values(prims, kzero, bspace, np.full(len(X), m), X)
    return {k: P[k][:, None] for k in prims}


def loop_layer_potentials(bspace, coeffs, density, wcoef, X):
    """(V phi)(x) and principal-value (K_pv w)(x), one panel at a time."""
    from febe import bem
    ker = bem._kernel_for(coeffs)
    d = ker.d
    X = np.atleast_2d(X)
    dens = np.asarray(density).reshape(bspace.n_panels, d)
    w = np.asarray(wcoef).reshape(bspace.n_nodes, d)
    table = ker.terms(bspace.tangents, bspace.normals)
    vphi = np.zeros((len(X), d))
    kw = np.zeros((len(X), d))
    # the densities contracted with the tables per panel
    gv = {k: bem._apply(c, dens) for k, c in table["V"].items()}
    gk = {k: bem._apply(c, w) for k, c in table["K0"].items()}
    for k, c in table["Kt"].items():
        gk[k] = gk[k] + bem._apply(c, w[bspace.panel_end])
    for m in range(bspace.n_panels):
        P = _loop_inner(ker, table, bspace, m, X)
        vphi += sum(P[k] * g[m] for k, g in gv.items())
        kw += sum(P[k] * g[m] for k, g in gk.items())
    return vphi, kw


def record_online_mismatches(monkeypatch):
    """Patch febe.bem._primitives to record every point whose on-line flag
    differs from the length-only test |eta| <= _ONLINE_REL L, which the
    on-line test was before it scaled with the coordinates.  Returns the
    list the (source panel, x, y) rows go to, and the number of points seen."""
    from febe import bem
    prim = bem._primitives
    rows, seen = [], [0]

    def checked(keys, bspace, src, X):
        out = prim(keys, bspace, src, X)
        for p in np.unique(src):
            s = src == p
            eta = (X[s] - bspace.A[p]) @ bspace.normals[p]
            old = np.abs(eta) <= bem._ONLINE_REL * bspace.lengths[p]
            rows.extend((p, *x) for x in X[s][old != out["online"][s]])
        seen[0] += len(src)
        return out

    monkeypatch.setattr(bem, "_primitives", checked)
    return rows, seen


# -- vi references: the sparse-product constant blocks and the COO Newton
# -- matrix that the dense boundary blocks and the canonical CSC constant
# -- block replaced ------------------------------------------------------------

def trace_maps(system):
    """The trace map B = [Tr, Es] of a CoupledSystem, written out entry by
    entry: Tr takes interior dof (loop[k], c) to boundary P1 dof (k, c), and
    Es maps Z to the slip jump, v_k = Z_j (d=1) or nu_k Z_n + tau_k Z_t."""
    import scipy.sparse as sp
    bs, d = system.bspace, system.d
    M = bs.n_nodes
    tr_cols = [d * k + c for k in bs.loop for c in range(d)]
    Tr = sp.csr_matrix((np.ones(M * d), (np.arange(M * d), tr_cols)),
                       shape=(M * d, system.nU))
    nrm = bs.node_normals()
    rows, cols, vals = [], [], []
    for j, k in enumerate(system.slip_nodes):
        if d == 1:
            rows.append(k); cols.append(j); vals.append(1.0)
        else:
            nu = nrm[k]
            tau = np.array([-nu[1], nu[0]])
            for a in range(2):
                rows.append(2 * k + a); cols.append(2 * j); vals.append(nu[a])
                rows.append(2 * k + a); cols.append(2 * j + 1); vals.append(tau[a])
    Es = sp.csr_matrix((vals, (rows, cols)), shape=(M * d, system.nZ))
    return Tr, Es


def sparse_sp_blocks(system):
    """H_bd, g_bd, C, c0 and the bordered constant block (COO) of a
    CoupledSystem from sparse products of B = [Tr, Es]."""
    import scipy.sparse as sp
    B = sp.hstack(trace_maps(system)).tocsr()
    H_bd = (B.T @ sp.csr_matrix(system.S) @ B).tocsr()
    g_bd = B.T @ system.gb
    Cw = system.compat_dirs.T @ system.S
    C = np.ascontiguousarray(Cw @ B)
    c0 = Cw @ system.U0
    Cs = sp.csr_matrix(C)
    return H_bd, g_bd, C, c0, sp.bmat([[H_bd, Cs.T], [Cs, None]]).tocoo()


def sparse_lp_block(system, stabilized):
    """Constant block (COO) of LayerPotentialSystem(system, stabilized)
    from sparse products of B = [Tr, Es]."""
    import scipy.sparse as sp
    from febe.bem import stabilization_data
    ops = system.ops
    B = sp.hstack(trace_maps(system)).tocsr()
    T = ops.Mb - ops.K
    J = sp.bmat([[B.T @ sp.csr_matrix(ops.W) @ B, B.T @ sp.csr_matrix(-T.T)],
                 [sp.csr_matrix(T) @ B, sp.csr_matrix(ops.V)]]).tocsr()
    if stabilized:
        xi = stabilization_data(system.bspace, ops)
        A = np.hstack([xi.T @ T, xi.T @ ops.V])
        lift = sp.bmat([[B, None], [None, sp.identity(ops.V.shape[0])]]).tocsr()
        Atil = sp.csr_matrix(A) @ lift
        J = J + Atil.T @ Atil
    return J.tocoo()


# -- vi references: the hand-written residuals that the affine block forms
# -- (J_block, rhs) replaced; the deleted system attributes H_bd, g_bd, WU0,
# -- TU0, stabA and stab_c are recomputed here ------------------------------

def reference_grad_smooth(system, x):
    """CoupledSystem.grad_smooth: FE residual minus load, plus H_bd x - g_bd."""
    from febe import fem
    H_bd, g_bd = sparse_sp_blocks(system)[:2]
    eps = system.space.strains(x[:system.nU])
    g = np.zeros_like(x)
    g[:system.nU] = fem.assemble_residual(system.space, system.law, eps) - system.b_f
    g += H_bd @ x - g_bd
    return g


def reference_sp_residual(system, y):
    """CoupledSystem.residual: the bordered residual over y = (U, Z, lam),
    the smooth gradient plus C^T lam, and the compatibility rows C x - c0."""
    n = system.nU + system.nZ
    x, lam = y[:n], y[n:]
    return np.concatenate([reference_grad_smooth(system, x) + system.C.T @ lam,
                           system.C @ x - system.c0])


def reference_lp_residual(system, stabilized, y):
    """LayerPotentialSystem.residual over y = (U, Z, P)."""
    from febe import fem
    from febe.bem import stabilization_data
    ops = system.ops
    nU, nZ = system.nU, system.nZ
    n = nU + nZ + ops.V.shape[0]
    B, T = system.B, ops.Mb - ops.K
    WU0, TU0 = ops.W @ system.U0, T @ system.U0
    x = y[:nU + nZ]
    P = y[nU + nZ:]
    w = B @ x
    U = y[:nU]
    rb = ops.W @ w - WU0 + T.T @ (-P) - system.t0b
    R = np.zeros(n)
    eps = system.space.strains(U)
    R[:nU] = fem.assemble_residual(system.space, system.law, eps) - system.b_f
    R[:nU + nZ] += B.T @ rb
    R[nU + nZ:] = ops.V @ P + T @ w - TU0
    if stabilized:
        xi = stabilization_data(system.bspace, ops)
        stabA = np.hstack([xi.T @ T, xi.T @ ops.V])
        dM = ops.Mb.shape[1]
        stab_c = stabA[:, :dM] @ system.U0
        wP = np.concatenate([w, P])
        s = stabA @ wP - stab_c
        add = stabA.T @ s
        R[:nU + nZ] += B.T @ add[:dM]
        R[nU + nZ:] += add[dM:]
    return R


def sorted_newton_pattern(space, J0):
    """The sort-based Newton pattern that vi._newton_pattern's splice
    replaced: the canonical CSC structure (indptr, indices) of the union
    of the entries of the constant block J0 (canonical CSC), the FE
    tangent's structure and the diagonal, each dof i renumbered rank[i],
    by one fem.csc_structure sort; J0's values on it (zero elsewhere), and
    the dof order perm (rank's inverse): the mesh's dissection_order times
    ncomp, then the Z, lam and density dofs."""
    from febe import fem
    n = J0.shape[0]
    hptr, hind, _ = space.tangent_pattern
    col_index = lambda indptr: np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    nc = space.ncomp
    perm = np.concatenate([(nc * space.mesh.dissection_order[:, None]
                            + np.arange(nc)).ravel(), np.arange(space.ndof, n)])
    rank = np.empty_like(perm)
    rank[perm] = np.arange(n)
    diag = np.arange(n)
    indptr, indices, slot = fem.csc_structure(
        rank[np.concatenate([J0.indices, hind, diag])],
        rank[np.concatenate([col_index(J0.indptr), col_index(hptr), diag])], n)
    base = np.zeros(len(indices))
    base[slot[:J0.nnz]] = J0.data
    return indptr, indices, base, perm


def reference_newton_pattern(space, form):
    """vi._newton_pattern as it was before the FE part of the pattern was
    shared per mesh: the whole pattern built per form, the FE tangent's
    entries outside the tail block and the diagonal before it sorted by
    fem.csc_structure with n = len(form.rhs)."""
    from febe import fem
    n, nJ = len(form.rhs), len(form.J_dofs)
    t0 = n - nJ
    nc = space.ncomp
    perm = np.concatenate([(nc * space.mesh.dissection_order[:, None]
                            + np.arange(nc)).ravel(), np.arange(space.ndof, n)])
    rank = np.empty_like(perm)
    rank[perm] = np.arange(n)
    assert np.array_equal(rank[form.J_dofs], np.arange(t0, n))
    hptr, hind, eslot = space.tangent_pattern
    rows, cols = rank[hind], rank[np.repeat(np.arange(space.ndof), np.diff(hptr))]
    out = (rows < t0) | (cols < t0)
    head = np.arange(t0)
    ptr, ind, slot = fem.csc_structure(np.concatenate([rows[out], head]),
                                       np.concatenate([cols[out], head]), n)
    shift = nJ * np.maximum(np.arange(n + 1) - t0, 0)
    indptr = (ptr + shift).astype(ptr.dtype)
    move = np.arange(len(ind)) + np.repeat(shift[:-1], np.diff(ptr))
    tail = (indptr[t0:-1] + np.diff(ptr)[t0:])[:, None] + np.arange(nJ)  # [col, row]
    indices = np.empty(indptr[-1], dtype=ind.dtype)
    indices[move] = ind
    indices[tail] = np.arange(t0, n)
    base = np.zeros(len(indices))
    base[tail] = form.J_block.T
    hslot = np.empty(len(hind), dtype=np.intp)
    hslot[out] = move[slot[:len(slot) - t0]]
    hslot[~out] = tail[cols[~out] - t0, rows[~out] - t0]
    dslot = np.concatenate([move[slot[len(slot) - t0:]], tail.diagonal()])
    return indptr, indices, base, hslot[eslot], dslot, perm, rank


def coo_newton_matrix(system, law, J0, U, fixed):
    """Newton matrix of a step with the rows `fixed` held: the COO constant
    block J0 and the FE tangent of the law at U concatenated, the fixed rows
    removed by np.isin, their unit diagonal appended, summed by the CSC
    conversion."""
    import scipy.sparse as sp
    from febe import fem
    Hu = fem.assemble_tangent(system.space, law, U).tocoo()
    J = sp.coo_matrix(
        (np.concatenate([J0.data, Hu.data]),
         (np.concatenate([J0.row, Hu.row]),
          np.concatenate([J0.col, Hu.col]))), shape=J0.shape)
    keep = ~np.isin(J.row, fixed)
    J = sp.coo_matrix((np.concatenate([J.data[keep], np.ones(len(fixed))]),
                       (np.concatenate([J.row[keep], fixed]),
                        np.concatenate([J.col[keep], fixed]))), shape=J.shape)
    return J.tocsc()


# -- mesh reference: the tuple/dict refinement that the bisection rounds of
# -- mesh.refine replaced ------------------------------------------------------

def loop_refine(mesh, marked):
    """Newest-vertex bisection of the marked triangles plus conforming closure."""
    from febe.mesh import Mesh, MeshError
    nt = len(mesh.triangles)
    marked = sorted(set(int(m) for m in marked))
    if any(m < 0 or m >= nt for m in marked):
        raise MeshError("marked triangle id out of range")
    if not marked:
        return mesh

    verts = [tuple(v) for v in mesh.vertices]
    tris = [tuple(t) for t in mesh.triangles]
    alive = [True] * nt
    bnd = {tuple(sorted(e)): lab
           for e, lab in zip(mesh.boundary_edges.tolist(), mesh.boundary_labels)}
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        m = midpoint.get(key)
        if m is None:
            m = len(verts)
            verts.append(tuple(0.5 * (np.asarray(verts[a]) + np.asarray(verts[b]))))
            midpoint[key] = m
            if key in bnd:
                lab = bnd.pop(key)
                bnd[(min(a, m), max(a, m))] = lab
                bnd[(min(m, b), max(m, b))] = lab
        return m

    def bisect(k):
        a, b, c = tris[k]
        m = mid(b, c)
        alive[k] = False
        tris.append((m, a, b)); alive.append(True)
        tris.append((m, c, a)); alive.append(True)

    queue = list(marked)
    while queue:
        for k in queue:
            if alive[k]:
                bisect(k)
        # closure: any live triangle with a bisected edge must be bisected too
        queue = []
        for k, t in enumerate(tris):
            if not alive[k]:
                continue
            a, b, c = t
            for e in ((a, b), (b, c), (c, a)):
                if (min(e), max(e)) in midpoint:
                    queue.append(k)
                    break

    keep = [k for k in range(len(tris)) if alive[k]]
    new_tris = np.asarray([tris[k] for k in keep], dtype=np.int64)
    edges = sorted(bnd)
    return Mesh(np.asarray(verts, dtype=float), new_tris,
                np.asarray(edges, dtype=np.int64), [bnd[e] for e in edges],
                scale_factor=mesh.scale_factor)


# -- mesh text reference: the line-by-line writer that each preset carried
# -- before the shared block writer -------------------------------------------

def loop_mesh_text(vertices, triangles, edges, labels):
    """Header, then one formatted line per vertex, triangle and edge."""
    lines = ["%d %d %d" % (len(vertices), len(triangles), len(edges))]
    lines += ["%.17g %.17g" % tuple(v) for v in vertices]
    lines += ["%d %d %d" % tuple(t) for t in triangles]
    lines += ["%d %d %s" % (e[0], e[1], lab) for e, lab in zip(edges, labels)]
    return "\n".join(lines)


# -- export references: the per-value writers that the block-formatted
# -- export_fields and indicators_csv replaced ----------------------------------

def _fmt(x):
    return "%.17g" % x


def loop_export_fields(sol, system, directory, indicators=None):
    """Write solution.vtk, fields.csv and cells.csv one value at a time."""
    import os

    from febe.vi import slip_fields
    os.makedirs(directory, exist_ok=True)
    mesh = system.space.mesh
    d = system.d
    nv = len(mesh.vertices)
    nt = len(mesh.triangles)
    u = sol.u.reshape(nv, d)

    fields = np.zeros((4, nv))          # v_n, v_t, sigma_n, sigma_t
    fields[:, system.bspace.loop[system.slip_nodes]] = slip_fields(sol, system)[:4]
    vn, vt, sn, st = fields

    cell_ind = (np.asarray(indicators, dtype=float)
                if indicators is not None else np.zeros(nt))

    lines = ["# vtk DataFile Version 3.0", "febe fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             "POINTS %d double" % nv]
    for x, y in mesh.vertices:
        lines.append("%s %s 0" % (_fmt(x), _fmt(y)))
    lines.append("CELLS %d %d" % (nt, 4 * nt))
    for a, b, c in mesh.triangles:
        lines.append("3 %d %d %d" % (a, b, c))
    lines.append("CELL_TYPES %d" % nt)
    lines.extend(["5"] * nt)
    lines.append("POINT_DATA %d" % nv)
    lines.append("VECTORS u double")
    for k in range(nv):
        ux = u[k, 0]
        uy = u[k, 1] if d == 2 else 0.0
        lines.append("%s %s 0" % (_fmt(ux), _fmt(uy)))
    for name, arr in (("v_n", vn), ("v_t", vt), ("sigma_n", sn), ("sigma_t", st)):
        lines.append("SCALARS %s double 1" % name)
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(x) for x in arr)
    lines.append("CELL_DATA %d" % nt)
    lines.append("SCALARS indicator double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(x) for x in cell_ind)
    with open(os.path.join(directory, "solution.vtk"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    # CSV mirrors
    header = "x,y," + ",".join("u%d" % c for c in range(d)) + ",v_n,v_t,sigma_n,sigma_t"
    rows = [header]
    for k in range(nv):
        vals = ([mesh.vertices[k, 0], mesh.vertices[k, 1]]
                + list(u[k]) + [vn[k], vt[k], sn[k], st[k]])
        rows.append(",".join(_fmt(x) for x in vals))
    with open(os.path.join(directory, "fields.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    rows = ["triangle,indicator"]
    for k in range(nt):
        rows.append("%d,%s" % (k, _fmt(cell_ind[k])))
    with open(os.path.join(directory, "cells.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return os.path.join(directory, "solution.vtk")


def loop_indicators_csv(ind, path):
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
        for e, v in enumerate(vals):
            rows.append("boundary,%s,%d,%.17g,%.17g" % (name, e, v, ind.powers[name]))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


# -- adapt reference: the greedy loop that the cumulative-sum marking replaced

def loop_mark(values, theta):
    """Minimal greedy set of entities whose indicator sum reaches theta*total."""
    values = np.asarray(values, dtype=float)
    total = values.sum()
    if total <= 0:
        return []
    order = np.argsort(-values, kind="stable")
    acc = 0.0
    out = []
    for idx in order:
        if values[idx] <= 0:
            break
        out.append(int(idx))
        acc += values[idx]
        if acc >= theta * total - 1e-15 * total:
            break
    return out


# -- test-side quantities no program path computes: the fundamental solution,
# -- the fields.csv reader, the Korn norms, the shape-regularity bound and the
# -- pointwise tangent and monotonicity forms of a material law --------------

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


def read_fields_csv(path):
    """Reload the fields.csv mirror as a dict of arrays (bitwise round-trip)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",").reshape(-1, len(header))
    return {name: data[:, k] for k, name in enumerate(header)}


def vertex_values(space, coeffs):
    """(nv, ncomp) view of a coefficient vector of space."""
    return np.asarray(coeffs).reshape(-1, space.ncomp)


def einsum_gradients(space, coeffs):
    """The elementwise gradients the sparse gradient operator replaced: the
    vertex values of each triangle contracted with its basis gradients,
    (nt, 2) scalar, (nt, 2, 2) rows=components vector."""
    vals = vertex_values(space, coeffs)[space.mesh.triangles]  # (nt, 3, ncomp)
    g = np.einsum("tkc,tkd->tcd", vals, space.grads)
    return g[:, 0, :] if space.ncomp == 1 else g


def norms(space, coeffs, p, quad_order=6, trace_labels=("S", "T")):
    """(full W^{1,p} norm, L^p norm of strain/gradient, L^1 boundary trace norm)."""
    from febe.quadrature import QuadratureRule
    rule = QuadratureRule(quad_order)
    vals = vertex_values(space, coeffs)[space.mesh.triangles]  # (nt,3,ncomp)
    uq = np.einsum("qk,tkc->tqc", rule.bary, vals)
    umag = np.sqrt(np.einsum("tqc,tqc->tq", uq, uq))
    int_u_p = np.einsum("tq,q,t->", umag ** p, rule.weights, space.areas)

    nt = len(space.areas)
    g = space.gradients(coeffs).reshape(nt, -1)
    int_g_p = float(np.sum(np.sqrt(np.einsum("tm,tm->t", g, g)) ** p * space.areas))
    eps = space.strains(coeffs).reshape(nt, -1)
    int_e_p = float(np.sum(np.sqrt(np.einsum("tm,tm->t", eps, eps)) ** p * space.areas))

    trace = boundary_trace_l1(space, coeffs, trace_labels)
    w1p = (int_u_p + int_g_p) ** (1.0 / p)
    return w1p, int_e_p ** (1.0 / p), trace


def boundary_trace_l1(space, coeffs, labels=("S", "T")):
    """L^1 norm of |u_h| over the selected boundary parts."""
    from febe.quadrature import segment_gauss
    mesh = space.mesh
    a, b = mesh.boundary_edges[np.isin(mesh.boundary_labels, labels)].T
    L = np.linalg.norm(mesh.vertices[b] - mesh.vertices[a], axis=1)
    vals = vertex_values(space, coeffs)
    x, w = segment_gauss(4)
    # (edges, 4 points, ncomp) values of the linear trace on each edge
    uq = vals[a, None, :] * (1 - x)[:, None] + vals[b, None, :] * x[:, None]
    return float(np.sum(L * (np.linalg.norm(uq, axis=2) @ w)))


def shape_regularity(mesh):
    """max over triangles of h_T / rho_T, rho_T the inscribed-circle diameter."""
    a, b, c = mesh.edge_lengths[mesh.triangle_edges].T
    area = meshmod.triangle_areas(mesh)
    rho = 4.0 * area / (a + b + c)
    h = np.maximum(np.maximum(a, b), c)
    return float(np.max(h / rho))


def tangent(law, x):
    """Dense matrix of DA'(x) from mat.tangent_coeffs, on the flattened
    component space (2x2 or 4x4)."""
    c1, c2 = mat.tangent_coeffs(law, x)
    v = mat._flat(law, x)
    eye = np.eye(v.shape[-1])
    return c1[..., None, None] * eye + c2[..., None, None] * (
        v[..., :, None] * v[..., None, :])


def tangent_apply(law, x, h):
    """DA'(x) h from mat.tangent_coeffs, in the shape of x and h broadcast
    together."""
    c1, c2 = mat.tangent_coeffs(law, x)
    xv, hv = mat._flat(law, x), mat._flat(law, h)
    out = c1[..., None] * hv + (c2 * mat._dot(xv, hv))[..., None] * xv
    return out.reshape(np.broadcast_shapes(np.shape(x), np.shape(h)))


def monotonicity_gap(law, x, y):
    """(lhs, lower, upper) of the pointwise two-sided monotonicity bounds of
    mat.stress.

    lhs   = <A'(x) - A'(y), x - y>
    lower = (|x|+|y|)^(p-2) |x-y|^2   (p < 2)   resp.  |x-y|^p        (p >= 2)
    upper = |x-y|^p                   (p < 2)   resp.  (|x|+|y|)^(p-2) |x-y|^2
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    lhs = mat._dot(mat._flat(law, mat.stress(law, x) - mat.stress(law, y)),
                   mat._flat(law, d))
    sx, sy, sd = mat._norm(law, x), mat._norm(law, y), mat._norm(law, d)
    ssum = sx + sy
    with np.errstate(divide="ignore", invalid="ignore"):
        mixed = np.where(ssum > 0, ssum ** (law.p - 2.0), 0.0) * sd ** 2
    powr = sd ** law.p
    if law.p < 2:
        return lhs, mixed, powr
    return lhs, powr, mixed

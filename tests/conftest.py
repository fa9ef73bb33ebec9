import numpy as np
import pytest

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
    random nodal values, "none" no bound, an array those nodal values.
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


def friction_bound_loop(system, l, t):
    """The friction bound on panel l at parameters t, one panel at a time."""
    fr, bs = system.data.friction, system.bspace
    if fr is None:
        return np.zeros(len(t))
    if isinstance(fr, np.ndarray):
        return fr[bs.panel_start[l]] * (1 - t) + fr[bs.panel_end[l]] * t
    pts = bs.A[l][None, :] + t[:, None] * (bs.B[l] - bs.A[l])[None, :]
    return np.asarray(fr(pts), dtype=float).reshape(-1)


# -- BEM references: the per-point-block assembly and the all-integrals
# -- primitives that the contracted assembly replaced ------------------------

def reference_primitives(panel_A, that, nhat, L, X):
    """Every inner integral over the source panel at observation points X."""
    from febe.bem import _ONLINE_REL
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
    with np.errstate(divide="ignore", invalid="ignore"):
        pv = np.where(online, np.log(np.maximum(np.abs(u2), tiny))
                      - np.log(np.maximum(np.abs(u1), tiny)), 0.0)
    p["pv0"] = pv
    p["pvt"] = np.where(online, (u2 - u1) / L, 0.0) + xi * pv / L
    p["online"] = online
    return p


def _reference_inner(kernel, bspace, m, X):
    """(n, d, d) blocks V, Ghat, K0, Kt at every observation point."""
    that = bspace.tangents[m]
    nhat = bspace.normals[m]
    prim = reference_primitives(bspace.A[m], that, nhat, bspace.lengths[m], X)
    geo = (that, nhat)
    k0, kt = kernel.k_blocks(prim, geo)
    if np.any(prim["online"]):
        s0, st = kernel.k_self_inner(prim, geo)
        mask = prim["online"][:, None, None]
        k0 = np.where(mask, s0, k0)
        kt = np.where(mask, st, kt)
    ghat = kernel.v_block if kernel.ghat_is_v else kernel.ghat_block
    return kernel.v_block(prim, geo), ghat(prim, geo), k0, kt


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
    xga, wga = graded_gauss(levels=12, order=8, toward_zero=True)
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
    for l in range(L):
        Vfull[l, l] = ker.v_self(lengths[l], bspace.tangents[l])
        Gfull[l, l] = (ker.v_self if ker.ghat_is_v else ker.ghat_self)(
            lengths[l], bspace.tangents[l])
    return Vfull, Gfull, K0full, Ktfull


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
        n0, n1 = int(bspace.panel_start[m]), int(bspace.panel_end[m])
        vphi += np.einsum("nab,b->na", vb, dens[m])
        kw += np.einsum("nab,b->na", k0, w[n0]) + np.einsum("nab,b->na", kt, w[n1])
    return vphi, kw

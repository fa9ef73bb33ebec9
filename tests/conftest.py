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

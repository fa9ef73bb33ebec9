"""Built-in meshes and manufactured problem data.

Manufactured presets prescribe the exterior data u0, t0 directly from the
interior field's trace and conormal derivative, so the chosen field solves
the coupled problem exactly (with zero exterior mismatch) and discretization
errors are computable.  Geometry presets are pre-scaled below unit diameter.
The square and L-shape lie in x, y >= 0.6, so power-law right-hand sides stay
smooth there; the circle is centred at the origin, where such a load can be
singular or undefined (smooth-vec's x^(p-2) for p < 2 at x < 0).
"""

from __future__ import annotations

import numpy as np

from . import material as mat
from .mesh import _mesh_text
from .vi import ProblemData

SQUARE_LO, SQUARE_HI = 0.6, 1.0
LSHAPE_CORNER = np.array([0.8, 0.8])
CIRCLE_RADIUS = 0.4


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def square_text(n=2, slip=()):
    """n x n structured square on [0.6, 1.0]^2; sides in `slip` get label S.

    Side names: b, r, t, l.
    """
    xs = np.linspace(SQUARE_LO, SQUARE_HI, n + 1)
    verts = [(x, y) for y in xs for x in xs]
    idx = lambda i, j: j * (n + 1) + i
    tris = []
    for j in range(n):
        for i in range(n):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    lab = {s: ("S" if s in slip else "T") for s in "brtl"}
    edges, labels = [], []
    for i in range(n):
        edges += [(idx(i, 0), idx(i + 1, 0)), (idx(n, i), idx(n, i + 1)),
                  (idx(i + 1, n), idx(i, n)), (idx(0, i + 1), idx(0, i))]
        labels += [lab["b"], lab["r"], lab["t"], lab["l"]]
    return _mesh_text(verts, tris, edges, labels)


def lshape_text(n=4):
    """L-shaped domain: [0.6, 1.0]^2 minus the open quadrant [0.8, 1.0]^2.

    Reentrant corner at (0.8, 0.8) with opening 3*pi/2; n must be even.
    """
    if n % 2:
        raise ValueError("lshape preset needs an even subdivision count")
    xs = np.linspace(SQUARE_LO, SQUARE_HI, n + 1)
    half = n // 2
    # keep only grid vertices of the L (prune the removed open quadrant)
    keep = {}
    verts = []
    for j in range(n + 1):
        for i in range(n + 1):
            if i > half and j > half:
                continue
            keep[(i, j)] = len(verts)
            verts.append((xs[i], xs[j]))
    idx = lambda i, j: keep[(i, j)]
    tris = []
    for j in range(n):
        for i in range(n):
            if i >= half and j >= half:
                continue
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    # boundary walk: bottom, lower right side, notch (horizontal then
    # vertical), remaining top, left side
    edges = []
    for i in range(n):
        edges.append((idx(i, 0), idx(i + 1, 0)))
    for j in range(half):
        edges.append((idx(n, j), idx(n, j + 1)))
    for i in range(n, half, -1):
        edges.append((idx(i, half), idx(i - 1, half)))
    for j in range(half, n):
        edges.append((idx(half, j), idx(half, j + 1)))
    for i in range(half, 0, -1):
        edges.append((idx(i, n), idx(i - 1, n)))
    for j in range(n, 0, -1):
        edges.append((idx(0, j), idx(0, j - 1)))
    return _mesh_text(verts, tris, edges, ["T"] * len(edges))


def circle_text(nseg=32, radius=CIRCLE_RADIUS):
    th = 2 * np.pi * np.arange(nseg) / nseg
    verts = [(0.0, 0.0)] + [(radius * np.cos(t), radius * np.sin(t)) for t in th]
    tris = [(0, 1 + k, 1 + (k + 1) % nseg) for k in range(nseg)]
    edges = [(1 + k, 1 + (k + 1) % nseg) for k in range(nseg)]
    return _mesh_text(verts, tris, edges, ["T"] * len(edges))


MESH_PRESETS = {
    "square": lambda n=2: square_text(n),
    "square-slip": lambda n=2: square_text(n, slip=("b",)),
    "lshape": lambda n=4: lshape_text(n),
    "circle": lambda n=32: circle_text(n),
}


# ---------------------------------------------------------------------------
# manufactured data
# ---------------------------------------------------------------------------

class Manufactured:
    """Bundle of problem data plus the exact field (when known)."""

    def __init__(self, name, ncomp, data, exact=None, exact_grad=None):
        self.name = name
        self.ncomp = ncomp
        self.data = data
        self.exact = exact
        self.exact_grad = exact_grad


def _stress_t0(law, exact_grad):
    def t0(pts, normals):
        g = exact_grad(pts)
        sig = mat.stress(law, g)
        if law.mode == mat.MODE_MATRIX:
            return np.einsum("nij,nj->ni", sig, normals)
        return np.einsum("ni,ni->n", sig, normals)
    return t0


def scalar_linear(law):
    a, bx, by = 0.3, 0.5, -0.2

    def exact(p):
        return a + bx * p[:, 0] + by * p[:, 1]

    def grad(p):
        return np.tile([bx, by], (len(p), 1))

    data = ProblemData(f=lambda p: np.zeros(len(p)), u0=exact,
                       t0=_stress_t0(law, grad))
    return Manufactured("linear", 1, data, exact, grad)


def scalar_quadratic(law):
    """u = (x^2 - y^2)/2 with the p-power law; f analytic away from 0."""
    if law.kind != mat.P_LAPLACE:
        raise ValueError("quadratic preset is defined for the power law only")
    p_ = law.p

    def exact(p):
        return 0.5 * (p[:, 0] ** 2 - p[:, 1] ** 2)

    def grad(p):
        return np.column_stack([p[:, 0], -p[:, 1]])

    def f(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return -(p_ - 2.0) * r2 ** ((p_ - 4.0) / 2.0) * (p[:, 0] ** 2 - p[:, 1] ** 2)

    data = ProblemData(f=f, u0=exact, t0=_stress_t0(law, grad))
    return Manufactured("quadratic", 1, data, exact, grad)


def scalar_corner(law):
    """Reentrant-corner field r^(2/3) sin(2 phi / 3) on the L-shape (p = 2)."""
    if law.p != 2.0:
        raise ValueError("corner preset is harmonic: requires p = 2")
    cx, cy = LSHAPE_CORNER

    def polar(p):
        dx, dy = p[:, 0] - cx, p[:, 1] - cy
        r = np.sqrt(dx * dx + dy * dy)
        phi = np.mod(np.arctan2(dy, dx) - np.pi / 2, 2 * np.pi)
        return r, phi

    def exact(p):
        r, phi = polar(p)
        return r ** (2 / 3) * np.sin(2 * phi / 3)

    def grad(p):
        r, phi = polar(p)
        r = np.maximum(r, 1e-300)
        ur = (2 / 3) * r ** (-1 / 3) * np.sin(2 * phi / 3)
        ut = (2 / 3) * r ** (-1 / 3) * np.cos(2 * phi / 3)
        th = phi + np.pi / 2
        ct, st = np.cos(th), np.sin(th)
        return np.column_stack([ur * ct - ut * st, ur * st + ut * ct])

    data = ProblemData(f=lambda p: np.zeros(len(p)), u0=exact,
                       t0=_stress_t0(law, grad))
    return Manufactured("corner", 1, data, exact, grad)


def _scalar_contact_sigma(law):
    """|sigma| of the quadratic field on the bottom edge y = SQUARE_LO."""
    def mag(x):
        g = np.column_stack([x, -np.full_like(x, SQUARE_LO)])
        s = mat.stress(law, g)
        return np.abs(s[:, 1])
    return mag


def scalar_stick(law, margin=1.5):
    """Quadratic data with a friction bound safely above |sigma|: full stick."""
    base = scalar_quadratic(law)
    mag = _scalar_contact_sigma(law)

    def g(p):
        return margin * mag(p[:, 0]) + 0.05

    data = ProblemData(f=base.data.f, u0=base.data.u0, t0=base.data.t0,
                       friction=g)
    return Manufactured("stick", 1, data, base.exact, base.exact_grad)


def scalar_transition(law):
    """Friction bound with an interior dip: stick-slip-stick on the contact side.

    The slip window sits away from the contact/transmission junctions, so the
    discretization defect concentrates at the two stick-slip transition
    points near x = 0.75.
    """
    base = scalar_quadratic(law)
    mag = _scalar_contact_sigma(law)

    def g(p):
        x = p[:, 0]
        dip = 1.45 * np.exp(-((x - 0.75) / 0.03) ** 2)
        return np.maximum(mag(x) * (1.5 - dip), 1e-4)

    data = ProblemData(f=base.data.f, u0=base.data.u0, t0=base.data.t0,
                       friction=g)
    return Manufactured("transition", 1, data, None, None)


def vector_linear(law):
    M = np.array([[0.3, 0.1], [-0.2, 0.4]])
    c = np.array([0.05, -0.02])

    def exact(p):
        return p @ M.T + c

    def grad(p):
        eps = 0.5 * (M + M.T)
        return np.tile(eps, (len(p), 1, 1))

    data = ProblemData(f=lambda p: np.zeros((len(p), 2)), u0=exact,
                       t0=_stress_t0(law, grad))
    return Manufactured("linear-vec", 2, data, exact, grad)


def vector_smooth(law):
    """u = ((x^2 - y^2)/2, x y): strain diag(x, x), power-law f analytic."""
    if law.kind != mat.P_LAPLACE:
        raise ValueError("smooth-vec preset is defined for the power law only")
    p_ = law.p

    def exact(p):
        return np.column_stack([0.5 * (p[:, 0] ** 2 - p[:, 1] ** 2),
                                p[:, 0] * p[:, 1]])

    def grad(p):
        e = np.zeros((len(p), 2, 2))
        e[:, 0, 0] = p[:, 0]
        e[:, 1, 1] = p[:, 0]
        return e

    def f(p):
        x = p[:, 0]
        return np.column_stack([
            -2 ** ((p_ - 2) / 2.0) * (p_ - 1.0) * x ** (p_ - 2.0),
            np.zeros_like(x)])

    data = ProblemData(f=f, u0=exact, t0=_stress_t0(law, grad))
    return Manufactured("smooth-vec", 2, data, exact, grad)


def vector_stick(law):
    """smooth-vec data with unit friction bound: zero tangential stress on
    the bottom contact side, compressive normal stress -> full stick."""
    base = vector_smooth(law)
    data = ProblemData(f=base.data.f, u0=base.data.u0, t0=base.data.t0,
                       friction=lambda p: np.ones(len(p)))
    return Manufactured("stick-vec", 2, data, base.exact, base.exact_grad)


DATA_PRESETS = {
    "linear": (1, scalar_linear),
    "quadratic": (1, scalar_quadratic),
    "corner": (1, scalar_corner),
    "stick": (1, scalar_stick),
    "transition": (1, scalar_transition),
    "linear-vec": (2, vector_linear),
    "smooth-vec": (2, vector_smooth),
    "stick-vec": (2, vector_stick),
}


def data_from_preset(name, law):
    if name not in DATA_PRESETS:
        raise ValueError("unknown data preset %r" % name)
    ncomp, fn = DATA_PRESETS[name]
    man = fn(law)
    if ncomp != law.ncomp:
        raise ValueError("preset %r does not match the material mode" % name)
    return man

"""Symmetric triangle quadrature rules with positive weights, plus segment Gauss."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _sym(points):
    """Expand (a, b, c) barycentric orbits into the full symmetric point set."""
    out = []
    for a, b, c, w in points:
        orbit = {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}
        for bary in sorted(orbit):
            out.append((*bary, w))
    return out


# Dunavant rules (positive weights only); per-point weights sum to 1 and are
# applied as fractions of the physical triangle area.
_RULES = {
    1: [(1 / 3, 1 / 3, 1 / 3, 1.0)],
    2: _sym([(2 / 3, 1 / 6, 1 / 6, 1 / 3)]),
    4: _sym([(0.108103018168070, 0.445948490915965, 0.445948490915965,
              0.223381589678011),
             (0.816847572980459, 0.091576213509771, 0.091576213509771,
              0.109951743655322)]),
    5: ([(1 / 3, 1 / 3, 1 / 3, 0.225000000000000)]
        + _sym([(0.059715871789770, 0.470142064105115, 0.470142064105115,
                 0.132394152788506),
                (0.797426985353087, 0.101286507323456, 0.101286507323456,
                 0.125939180544827)])),
    6: _sym([(0.501426509658179, 0.249286745170910, 0.249286745170910,
              0.116786275726379),
             (0.873821971016996, 0.063089014491502, 0.063089014491502,
              0.050844906370207),
             (0.053145049844817, 0.310352451033784, 0.636502499121399,
              0.082851075618374)]),
}


class QuadratureRule:
    """Barycentric points/weights on the reference triangle, exact to `order`."""

    def __init__(self, order):
        order = int(order)
        if order not in _RULES:
            raise ValueError("no triangle quadrature rule of order %d (orders: %s)"
                             % (order, ", ".join(map(str, sorted(_RULES)))))
        data = np.asarray(_RULES[order], dtype=float)
        self.bary = data[:, :3]
        self.weights = data[:, 3]
        if np.any(self.weights <= 0):
            raise AssertionError("quadrature weights must be positive")

    def points(self, verts):
        """Physical points (..., nq, 2) for triangle vertex arrays
        (..., 3, 2): one matmul of the barycentric coordinates with the
        vertices of each triangle."""
        return self.bary @ verts

    def sample(self, mesh, fn):
        """fn, called once on the rule's points of every triangle of mesh,
        as (nt, nq, m)."""
        pts = self.points(mesh.vertices[mesh.triangles])
        return np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(*pts.shape[:2], -1)


@lru_cache(maxsize=None)
def segment_gauss(n):
    """Gauss-Legendre nodes/weights on [0, 1], computed once per n and
    returned as read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def graded_intervals(levels=10):
    """Geometric subdivision of [0,1] accumulating at 0."""
    return np.asarray([0.0] + [2.0 ** (-k) for k in range(levels, -1, -1)])


@lru_cache(maxsize=None)
def graded_gauss(levels=10, order=8):
    """Composite Gauss rule on [0,1], graded geometrically toward 0,
    computed once per (levels, order) and returned as read-only arrays."""
    cuts = graded_intervals(levels)
    x, w = segment_gauss(order)
    nodes, wts = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        nodes.append(a + (b - a) * x)
        wts.append((b - a) * w)
    x, w = np.concatenate(nodes), np.concatenate(wts)
    x.flags.writeable = w.flags.writeable = False
    return x, w

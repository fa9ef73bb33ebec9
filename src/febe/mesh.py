"""Conforming triangular meshes with labeled boundary and newest-vertex bisection.

Triangles are stored peak-first: the refinement edge of triangle (a, b, c)
is (b, c), and bisection inserts the midpoint of (b, c).  Boundary edges
carry a label: "S" (slip/contact part) or "T" (transmission part).
"""

from __future__ import annotations

import io

import numpy as np

SLIP = "S"
TRANSMISSION = "T"

# geometry is shrunk on load until the boundary diameter is below this
DIAMETER_TARGET = 0.9


class MeshError(ValueError):
    pass


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class Mesh:
    """Immutable conforming triangulation of a polygonal domain.

    vertices       (nv, 2) float array
    triangles      (nt, 3) int array, peak-first ordering, CCW
    boundary_edges (nb, 2) int array
    boundary_labels length-nb list of "S"/"T"
    generation     (nt,) bisection depth per triangle
    scale_factor   factor applied to the input coordinates on load
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_labels,
                 generation=None, scale_factor=1.0, validate=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_labels = list(boundary_labels)
        if generation is None:
            generation = np.zeros(len(self.triangles), dtype=np.int64)
        self.generation = np.asarray(generation, dtype=np.int64)
        self.scale_factor = float(scale_factor)
        self._orient_ccw()
        if validate:
            self._validate()
        for a in (self.vertices, self.triangles, self.boundary_edges, self.generation):
            a.flags.writeable = False

    # -- construction helpers -------------------------------------------------

    def _orient_ccw(self):
        p = self.vertices
        t = self.triangles
        if t.size and (t.min() < 0 or t.max() >= len(p)):
            raise MeshError("triangle references vertex index out of range")
        d = _cross2(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
        flip = d < 0
        if np.any(flip):
            t = t.copy()
            t[flip, 1], t[flip, 2] = t[flip, 2].copy(), t[flip, 1].copy()
            self.triangles = t

    def _validate(self):
        nv = len(self.vertices)
        t = self.triangles
        if t.size and (t.min() < 0 or t.max() >= nv):
            raise MeshError("triangle references vertex index out of range")
        if self.boundary_edges.size and (self.boundary_edges.min() < 0
                                         or self.boundary_edges.max() >= nv):
            raise MeshError("boundary edge references vertex index out of range")
        areas = triangle_areas(self)
        if np.any(areas <= 0):
            raise MeshError("degenerate (zero-area) triangle")

        # every undirected edge must appear in at most two triangles
        counts = {}
        for tri in t:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                counts[key] = counts.get(key, 0) + 1
        if any(c > 2 for c in counts.values()):
            raise MeshError("non-conforming connectivity: edge shared by >2 triangles")

        mesh_bnd = {k for k, c in counts.items() if c == 1}
        labeled = {tuple(sorted(e)) for e in self.boundary_edges.tolist()}
        if mesh_bnd - labeled:
            raise MeshError("unlabeled boundary edge(s): %s" % sorted(mesh_bnd - labeled)[:3])
        if labeled - mesh_bnd:
            raise MeshError("labeled edge is not a boundary edge of the triangulation")
        if len(self.boundary_labels) != len(self.boundary_edges):
            raise MeshError("label count does not match boundary edge count")
        for lab in self.boundary_labels:
            if lab not in (SLIP, TRANSMISSION):
                raise MeshError("unknown boundary label %r" % lab)
        if TRANSMISSION not in self.boundary_labels:
            raise MeshError("transmission part of the boundary is empty")

        # hanging nodes: no vertex may sit strictly inside another edge
        self._check_hanging(counts.keys())

        # boundary must be a single closed polygon
        self.boundary_loop()

    def _check_hanging(self, edges):
        p = self.vertices
        used = np.zeros(len(p), dtype=bool)
        used[self.triangles.ravel()] = True
        idx = np.nonzero(used)[0]
        pts = p[idx]
        for a, b in edges:
            pa, pb = p[a], p[b]
            d = pb - pa
            L2 = d @ d
            s = ((pts - pa) @ d) / L2
            off = pts - (pa + s[:, None] * d)
            on_line = (np.einsum("ij,ij->i", off, off) < 1e-24 * L2)
            interior = (s > 1e-12) & (s < 1 - 1e-12)
            bad = on_line & interior
            if np.any(bad):
                raise MeshError("hanging node %d on edge (%d,%d)"
                                % (idx[np.nonzero(bad)[0][0]], a, b))

    # -- queries ---------------------------------------------------------------

    def boundary_loop(self):
        """Ordered CCW vertex indices of the (single) boundary polygon."""
        edge_of = {}
        for k, (a, b) in enumerate(self.boundary_edges):
            edge_of[(min(a, b), max(a, b))] = k
        adj = {}
        for a, b in self.boundary_edges:
            adj.setdefault(int(a), []).append(int(b))
            adj.setdefault(int(b), []).append(int(a))
        for v, ns in adj.items():
            if len(ns) != 2:
                raise MeshError("boundary is not a simple closed polygon at vertex %d" % v)
        start = min(adj)
        loop = [start]
        prev, cur = None, start
        while True:
            a, b = adj[cur]
            nxt_v = a if a != prev else b
            if nxt_v == start:
                break
            loop.append(nxt_v)
            prev, cur = cur, nxt_v
            if len(loop) > len(self.boundary_edges):
                raise MeshError("boundary polygon does not close")
        if len(loop) != len(self.boundary_edges):
            raise MeshError("boundary has more than one component")
        pts = self.vertices[loop]
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
        if area2 < 0:
            loop = [loop[0]] + loop[1:][::-1]
        loop = np.asarray(loop, dtype=np.int64)
        lab = []
        for i in range(len(loop)):
            a, b = loop[i], loop[(i + 1) % len(loop)]
            lab.append(self.boundary_labels[edge_of[(min(a, b), max(a, b))]])
        return loop, lab

    def boundary_label_map(self):
        return {tuple(sorted(e)): lab
                for e, lab in zip(self.boundary_edges.tolist(), self.boundary_labels)}

    def max_boundary_edges_per_triangle(self):
        bset = {tuple(sorted(e)) for e in self.boundary_edges.tolist()}
        best = 0
        for tri in self.triangles:
            n = sum(1 for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
                    if (min(a, b), max(a, b)) in bset)
            best = max(best, n)
        return best


def triangle_areas(mesh):
    p, t = mesh.vertices, mesh.triangles
    return 0.5 * _cross2(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])


def mesh_size(mesh):
    """(h, h_T per triangle, h_E per undirected edge dict).

    h_T is the triangle diameter (longest edge); h_E the edge length.
    """
    p, t = mesh.vertices, mesh.triangles
    e01 = np.linalg.norm(p[t[:, 1]] - p[t[:, 0]], axis=1)
    e12 = np.linalg.norm(p[t[:, 2]] - p[t[:, 1]], axis=1)
    e20 = np.linalg.norm(p[t[:, 0]] - p[t[:, 2]], axis=1)
    h_T = np.maximum(np.maximum(e01, e12), e20)
    h_E = {}
    for tri in t:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key not in h_E:
                h_E[key] = float(np.linalg.norm(p[a] - p[b]))
    return float(h_T.max()), h_T, h_E


def shape_regularity(mesh):
    """max over triangles of h_T / rho_T, rho_T the inscribed-circle diameter."""
    p, t = mesh.vertices, mesh.triangles
    a = np.linalg.norm(p[t[:, 1]] - p[t[:, 0]], axis=1)
    b = np.linalg.norm(p[t[:, 2]] - p[t[:, 1]], axis=1)
    c = np.linalg.norm(p[t[:, 0]] - p[t[:, 2]], axis=1)
    area = triangle_areas(mesh)
    rho = 4.0 * area / (a + b + c)
    h = np.maximum(np.maximum(a, b), c)
    return float(np.max(h / rho))


def edge_sets(mesh):
    """EdgeSet view: interior edges with both incident triangles, boundary edges with length.

    Returns (interior, boundary) where interior is a list of
    ((va, vb), tri_left, tri_right) and boundary a list of ((va, vb), tri, label, length).
    """
    inc = {}
    for k, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            inc.setdefault((min(a, b), max(a, b)), []).append(k)
    labmap = mesh.boundary_label_map()
    interior, boundary = [], []
    for key in sorted(inc):
        tris = inc[key]
        L = float(np.linalg.norm(mesh.vertices[key[0]] - mesh.vertices[key[1]]))
        if len(tris) == 2:
            interior.append((key, tris[0], tris[1]))
        else:
            boundary.append((key, tris[0], labmap[key], L))
    return interior, boundary


# -- refinement ----------------------------------------------------------------

def refine(mesh, marked):
    """Newest-vertex bisection of the marked triangles plus conforming closure."""
    nt = len(mesh.triangles)
    marked = sorted(set(int(m) for m in marked))
    if any(m < 0 or m >= nt for m in marked):
        raise MeshError("marked triangle id out of range")
    if not marked:
        return mesh

    verts = [tuple(v) for v in mesh.vertices]
    tris = [tuple(t) for t in mesh.triangles]
    gen = list(mesh.generation)
    alive = [True] * nt
    bnd = dict(mesh.boundary_label_map())
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
        tris.append((m, a, b)); gen.append(gen[k] + 1); alive.append(True)
        tris.append((m, c, a)); gen.append(gen[k] + 1); alive.append(True)

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
    new_gen = np.asarray([gen[k] for k in keep], dtype=np.int64)
    edges = sorted(bnd)
    return Mesh(np.asarray(verts, dtype=float), new_tris,
                np.asarray(edges, dtype=np.int64), [bnd[e] for e in edges],
                generation=new_gen, scale_factor=mesh.scale_factor)


def refine_uniform(mesh, sweeps=1):
    for _ in range(sweeps):
        mesh = refine(mesh, range(len(mesh.triangles)))
    return mesh


# -- I/O -------------------------------------------------------------------------

def _assign_peaks(vertices, triangles):
    """Reorder each triangle so the refinement edge (positions 1,2) is its longest edge."""
    out = []
    for tri in triangles:
        p = vertices[list(tri)]
        lens = [np.linalg.norm(p[2] - p[1]), np.linalg.norm(p[0] - p[2]),
                np.linalg.norm(p[1] - p[0])]
        peak = int(np.argmax(lens))  # vertex opposite the longest edge
        out.append((tri[peak], tri[(peak + 1) % 3], tri[(peak + 2) % 3]))
    return np.asarray(out, dtype=np.int64)


def load_mesh(text, scale=True):
    """Parse the plain-text format: 'nv nt nb' header, vertices, triangles, labeled edges.

    With scale=True the geometry is rescaled about its centroid if the
    boundary diameter is >= 1 (single-layer positivity needs capacity < 1);
    the factor is stored on the mesh.
    """
    tok = io.StringIO(text).read().split()
    if len(tok) < 3:
        raise MeshError("truncated mesh file")
    nv, nt, nb = int(tok[0]), int(tok[1]), int(tok[2])
    need = 3 + 2 * nv + 3 * nt + 3 * nb
    if len(tok) < need:
        raise MeshError("truncated mesh file")
    pos = 3
    verts = np.asarray(tok[pos:pos + 2 * nv], dtype=float).reshape(nv, 2)
    pos += 2 * nv
    tris = np.asarray(tok[pos:pos + 3 * nt], dtype=np.int64).reshape(nt, 3)
    pos += 3 * nt
    if tris.size and (tris.min() < 0 or tris.max() >= nv):
        raise MeshError("triangle references vertex index out of range")
    edges = []
    labels = []
    for k in range(nb):
        a, b, lab = tok[pos + 3 * k], tok[pos + 3 * k + 1], tok[pos + 3 * k + 2]
        edges.append((int(a), int(b)))
        labels.append(lab.upper())
    edges = np.asarray(edges, dtype=np.int64)

    bidx = np.unique(edges.ravel()) if len(edges) else np.arange(nv)
    pts = verts[bidx] if len(bidx) else verts
    diam = _diameter(pts)
    factor = 1.0
    if scale and diam >= 1.0:
        factor = DIAMETER_TARGET / diam
        centroid = pts.mean(axis=0)
        verts = centroid + factor * (verts - centroid)

    tris = _assign_peaks(verts, tris)
    return Mesh(verts, tris, edges, labels, scale_factor=factor)


def _diameter(pts):
    if len(pts) < 2:
        return 0.0
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(d2.max()))


def save_mesh(mesh):
    out = ["%d %d %d" % (len(mesh.vertices), len(mesh.triangles), len(mesh.boundary_edges))]
    for x, y in mesh.vertices:
        out.append("%.17g %.17g" % (x, y))
    for a, b, c in mesh.triangles:
        out.append("%d %d %d" % (a, b, c))
    for (a, b), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
        out.append("%d %d %s" % (a, b, lab))
    return "\n".join(out) + "\n"

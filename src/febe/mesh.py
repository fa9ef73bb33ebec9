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

# (edge, vertex) pairs tested at once by the hanging-node check
_HANGING_PAIRS = 1 << 14


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
    edges          (ne, 2) undirected edges (a < b) in lexicographic order
    edge_triangles (ne, 2) incident triangles in ascending order, -1 in the
                   second column for a boundary edge
    edge_lengths   (ne,) length of each edge
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_labels,
                 generation=None, scale_factor=1.0):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges,
                                                   dtype=np.int64).reshape(-1, 2)
        self.boundary_labels = list(boundary_labels)
        if generation is None:
            generation = np.zeros(len(self.triangles), dtype=np.int64)
        self.generation = np.asarray(generation, dtype=np.int64)
        self.scale_factor = float(scale_factor)
        self._orient_ccw()
        self._validate(*self._edge_table())
        for a in (self.vertices, self.triangles, self.boundary_edges, self.generation,
                  self.edges, self.edge_triangles, self.edge_lengths, self._loop):
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

    def _edge_table(self):
        """Unique edges with their incident triangles and lengths.

        Returns the number of triangles sharing each edge and the edge's
        first vertex in the (CCW) order of its first triangle.
        """
        half = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        self.edges, inv, counts = np.unique(half, axis=0, return_inverse=True,
                                            return_counts=True)
        # half-edge h runs from triangles.ravel()[h] within triangle h // 3;
        # a stable sort keeps each edge's half-edges in triangle order
        half_of = np.argsort(inv.ravel(), kind="stable")
        first = np.cumsum(counts) - counts
        shared = counts > 1
        self.edge_triangles = np.full((len(self.edges), 2), -1, dtype=np.int64)
        self.edge_triangles[:, 0] = half_of[first] // 3
        self.edge_triangles[shared, 1] = half_of[first[shared] + 1] // 3
        self._edge_keys = self.edges[:, 0] * len(self.vertices) + self.edges[:, 1]
        self.edge_lengths = np.linalg.norm(
            self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]], axis=1)
        return counts, self.triangles.ravel()[half_of[first]]

    def _validate(self, counts, tail):
        be = self.boundary_edges
        if be.size and (be.min() < 0 or be.max() >= len(self.vertices)):
            raise MeshError("boundary edge references vertex index out of range")
        areas = triangle_areas(self)
        if np.any(areas <= 0):
            raise MeshError("degenerate (zero-area) triangle")

        # every undirected edge must appear in at most two triangles
        if np.any(counts > 2):
            raise MeshError("non-conforming connectivity: edge shared by >2 triangles")

        ids = self.find_edges(be[:, 0], be[:, 1])
        labeled = np.zeros(len(self.edges), dtype=bool)
        labeled[ids[ids >= 0]] = True
        unlabeled = (counts == 1) & ~labeled
        if np.any(unlabeled):
            raise MeshError("unlabeled boundary edge(s): %s"
                            % [tuple(e) for e in self.edges[unlabeled][:3].tolist()])
        if np.any(ids < 0) or np.any(counts[ids] != 1):
            raise MeshError("labeled edge is not a boundary edge of the triangulation")
        if len(self.boundary_labels) != len(be):
            raise MeshError("label count does not match boundary edge count")
        unknown = ~np.isin(self.boundary_labels, [SLIP, TRANSMISSION])
        if np.any(unknown):
            raise MeshError("unknown boundary label %r"
                            % self.boundary_labels[np.argmax(unknown)])
        if TRANSMISSION not in self.boundary_labels:
            raise MeshError("transmission part of the boundary is empty")

        # hanging nodes: no vertex may sit strictly inside another edge
        self._check_hanging(self.edges)

        # boundary must be a single closed polygon
        self._trace_boundary(ids, tail)

    def _check_hanging(self, edges):
        """Reject a vertex strictly inside an edge; edges: (a, b) pairs."""
        if not isinstance(edges, np.ndarray):
            edges = np.array(list(edges), dtype=np.int64)
        a, b = edges.reshape(-1, 2).T
        p = self.vertices
        # candidates: used vertices inside the edge's x-range, padded well
        # beyond the 1e-12 L distance the on-line test below accepts
        used = np.unique(self.triangles)
        used = used[np.argsort(p[used, 0], kind="stable")]
        pa, pb = p[a], p[b]
        d = pb - pa
        L2 = np.einsum("ij,ij->i", d, d)
        pad = 1e-9 * np.sqrt(L2)
        lo = np.searchsorted(p[used, 0], np.minimum(pa[:, 0], pb[:, 0]) - pad, "left")
        n = np.searchsorted(p[used, 0], np.maximum(pa[:, 0], pb[:, 0]) + pad, "right") - lo
        # (edge, candidate) pairs in blocks of edges to bound the memory
        for blk in np.array_split(np.arange(len(a)), 1 + n.sum() // _HANGING_PAIRS):
            cnt = n[blk]
            e = np.repeat(blk, cnt)
            # pair j of edge e sits at used[lo[e] + j - (pairs of earlier edges)]
            v = used[np.repeat(lo[blk] - np.cumsum(cnt) + cnt, cnt) + np.arange(len(e))]
            s = np.einsum("ij,ij->i", p[v] - pa[e], d[e]) / L2[e]
            off = p[v] - (pa[e] + s[:, None] * d[e])
            on_line = (np.einsum("ij,ij->i", off, off) < 1e-24 * L2[e])
            interior = (s > 1e-12) & (s < 1 - 1e-12)
            bad = on_line & interior
            if np.any(bad):
                k = e[np.argmax(bad)]
                raise MeshError("hanging node %d on edge (%d,%d)"
                                % (v[bad & (e == k)].min(), a[k], b[k]))

    def _trace_boundary(self, ids, tail):
        """Store the boundary loop, CCW as its triangles run, and its panel
        labels; ids: the boundary edges' rows in the edge table, tail: see
        _edge_table."""
        be = self.boundary_edges
        nv, nb = len(self.vertices), len(be)
        # each boundary edge runs as in its CCW triangle: src -> dst
        src = tail[ids]
        dst = self.edges[ids].sum(axis=1) - src
        bad = ((np.bincount(be.ravel(), minlength=nv) != 2)
               | (np.bincount(src, minlength=nv) != 1))[be.ravel()]
        if np.any(bad):
            raise MeshError("boundary is not a simple closed polygon at vertex %d"
                            % be.ravel()[np.argmax(bad)])
        # steps from each vertex forward to the start, by pointer doubling
        start = be.min()
        nxt = np.arange(nv)
        nxt[src] = dst
        nxt[start] = start
        steps = (nxt != np.arange(nv)).astype(np.int64)
        for _ in range(nb.bit_length()):
            steps += steps[nxt]
            nxt = nxt[nxt]
        if np.any(nxt[src] != start):
            raise MeshError("boundary has more than one component")
        order = np.argsort((nb - steps[src]) % nb)    # boundary edges in loop order
        self._loop = src[order]
        self._loop_labels = np.asarray(self.boundary_labels)[order].tolist()

    # -- queries ---------------------------------------------------------------

    def find_edges(self, a, b):
        """Row of each undirected edge (a, b) in `edges`, -1 if it is no edge."""
        key = np.minimum(a, b) * len(self.vertices) + np.maximum(a, b)
        pos = np.minimum(np.searchsorted(self._edge_keys, key), len(self._edge_keys) - 1)
        return np.where(self._edge_keys[pos] == key, pos, -1)

    def boundary_loop(self):
        """Ordered CCW vertex indices of the (single) boundary polygon and the
        label of each panel (loop[k], loop[k + 1])."""
        return self._loop, self._loop_labels

    def max_boundary_edges_per_triangle(self):
        owners = self.edge_triangles[self.edge_triangles[:, 1] < 0, 0]
        return int(np.bincount(owners, minlength=1).max())


def triangle_areas(mesh):
    p, t = mesh.vertices, mesh.triangles
    return 0.5 * _cross2(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])


def mesh_size(mesh):
    """(h, h_T per triangle, h_E per edge of mesh.edges).

    h_T is the triangle diameter (longest edge); h_E the edge length.
    """
    p, t = mesh.vertices, mesh.triangles
    e01 = np.linalg.norm(p[t[:, 1]] - p[t[:, 0]], axis=1)
    e12 = np.linalg.norm(p[t[:, 2]] - p[t[:, 1]], axis=1)
    e20 = np.linalg.norm(p[t[:, 0]] - p[t[:, 2]], axis=1)
    h_T = np.maximum(np.maximum(e01, e12), e20)
    return float(h_T.max()), h_T, mesh.edge_lengths


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
    p = vertices[triangles]
    d = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]         # edge opposite each vertex
    # sqrt of a matmul self-dot rounds like the 1-D norm of each edge, so
    # argmax breaks ties between equal edges (circle fans) the same way
    lens = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    peak = np.argmax(lens, axis=1)                 # vertex opposite the longest edge
    cols = (peak[:, None] + np.arange(3)) % 3
    return np.take_along_axis(triangles, cols, axis=1)


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

"""Conforming triangular meshes with labeled boundary and newest-vertex bisection.

Triangles are stored peak-first: the refinement edge of triangle (a, b, c)
is (b, c), and bisection inserts the midpoint of (b, c).  Boundary edges
carry a label: "S" (slip/contact part) or "T" (transmission part).
Refinement runs in rounds of whole-array bisection.  An undirected edge is
identified everywhere by one integer key, `_edge_key`.
"""

from __future__ import annotations

from functools import cached_property

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


def _edge_key(a, b, n):
    """Key of the undirected edge (a, b) between vertex ids below n."""
    return np.minimum(a, b) * n + np.maximum(a, b)


class Mesh:
    """Immutable conforming triangulation of a polygonal domain.

    The constructor checks the topology (every vertex lies in a triangle),
    the labels and the boundary loop.  It does not scan for hanging nodes:
    load_mesh does that for input meshes, and refine's bisection with
    closure makes none.

    vertices       (nv, 2) float array
    triangles      (nt, 3) int array, peak-first ordering, CCW
    boundary_edges (nb, 2) int array
    boundary_labels length-nb list of "S"/"T"
    scale_factor   factor applied to the input coordinates on load
    edges          (ne, 2) undirected edges (a < b) in lexicographic order
    edge_triangles (ne, 2) incident triangles in ascending order, -1 in the
                   second column for a boundary edge
    edge_lengths   (ne,) length of each edge
    triangle_edges (nt, 3) rows in `edges` of triangle edges (0,1), (1,2), (2,0)
    dissection_order (nv,) vertex order for the sparse factorizations, built
                   on first use
    fe_tables      per ncomp (1, 2), the read-only arrays of fem.FESpace that
                   depend only on the mesh, built on first use and shared by
                   every space on the mesh; they hold arrays only, so nothing
                   in them refers back to the mesh or to a space
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_labels,
                 scale_factor=1.0):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges,
                                                   dtype=np.int64).reshape(-1, 2)
        self.boundary_labels = list(boundary_labels)
        self.scale_factor = float(scale_factor)
        self._orient_ccw()
        self._validate(*self._edge_table())
        for a in (self.vertices, self.triangles, self.boundary_edges, self.edges,
                  self.edge_triangles, self.edge_lengths, self.triangle_edges,
                  self._loop):
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
        nv, t = len(self.vertices), self.triangles
        # half-edge h = 3 k + j runs from t[k, j] to t[k, j + 1 mod 3]
        self._edge_keys, inv, counts = np.unique(
            _edge_key(t, np.roll(t, -1, axis=1), nv), return_inverse=True,
            return_counts=True)
        self.triangle_edges = inv.reshape(t.shape)
        self.edges = np.column_stack(np.divmod(self._edge_keys, nv))
        # a stable sort keeps each edge's half-edges in triangle order
        half_of = np.argsort(inv.ravel(), kind="stable")
        first = np.cumsum(counts) - counts
        shared = counts > 1
        self.edge_triangles = np.full((len(self.edges), 2), -1, dtype=np.int64)
        self.edge_triangles[:, 0] = half_of[first] // 3
        self.edge_triangles[shared, 1] = half_of[first[shared] + 1] // 3
        self.edge_lengths = np.linalg.norm(
            self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]], axis=1)
        return counts, t.ravel()[half_of[first]]

    def _validate(self, counts, tail):
        be = self.boundary_edges
        if be.size and (be.min() < 0 or be.max() >= len(self.vertices)):
            raise MeshError("boundary edge references vertex index out of range")
        unused = np.bincount(self.triangles.ravel(), minlength=len(self.vertices)) == 0
        if np.any(unused):
            raise MeshError("vertex %d lies in no triangle" % np.argmax(unused))
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

        # boundary must be a single closed polygon
        self._trace_boundary(ids, tail)

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
        key = _edge_key(a, b, len(self.vertices))
        pos = np.minimum(np.searchsorted(self._edge_keys, key), len(self._edge_keys) - 1)
        return np.where(self._edge_keys[pos] == key, pos, -1)

    def boundary_loop(self):
        """Ordered CCW vertex indices of the (single) boundary polygon and the
        label of each panel (loop[k], loop[k + 1])."""
        return self._loop, self._loop_labels

    @cached_property
    def fe_tables(self):
        """{ncomp: {name: arrays}} that fem.FESpace fills on first use."""
        return {1: {}, 2: {}}

    @cached_property
    def dissection_order(self):
        """Read-only order of all vertices, for the sparse factorizations:
        the interior vertices by nested dissection (_dissect), then the
        boundary loop in loop order."""
        interior = np.ones(len(self.vertices), dtype=bool)
        interior[self._loop] = False
        order = np.concatenate([_dissect(self.vertices, np.flatnonzero(interior),
                                         self.edges), self._loop])
        order.flags.writeable = False
        return order


# groups of at most this many vertices are not split by _dissect
_LEAF = 8


def _dissect(p, ids, edges):
    """Nested-dissection order of the vertices ids of points p in the graph
    of the edges (pairs of vertices of p; an edge with an end outside ids
    is ignored), built one level of groups at a time.

    A group of more than _LEAF vertices splits at the median value of its
    coordinate of longer extent; the vertices at that value go to the upper
    side, unless that would leave the lower side empty, when the group
    splits by rank instead.  The separator follows both halves.  It covers
    every edge the split cuts by one end: the end with more cut edges, or,
    when both have as many, the end on the side with fewer ends of cut
    edges (the lower side when both have as many).
    """
    seq = ids.copy()                      # position -> vertex
    lab = np.full(len(p), -1)             # vertex -> 2 group + side, or -1
    # the vertices of the groups to split, by group, and their positions
    v, pos = ids, np.arange(len(ids))
    size = np.array([len(ids)] if len(ids) > _LEAF else [], dtype=np.int64)
    g = np.zeros(len(ids), dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)
    while size.size:
        x = p.take(v, axis=0)
        ext = np.maximum.reduceat(x, start) - np.minimum.reduceat(x, start)
        c = np.where((ext[:, 1] > ext[:, 0])[g], x[:, 1], x[:, 0])
        o = np.lexsort((c, g))
        v, c = v[o], c[o]
        mid = start + size // 2
        cm = c[mid]
        upper = np.where((c[start] == cm)[g], np.arange(len(g)) >= mid[g], c >= cm[g])
        # an edge is cut where its ends' labels differ in the side bit only
        # (a vertex outside the splitting groups has label -1)
        side = 2 * g + upper
        lab[v] = side
        le = lab[edges]
        cut = edges.compress((le[:, 0] ^ le[:, 1]) == 1, axis=0)
        # each cut edge puts in the separator its end of higher score:
        # 2 (cut edges at the end) + (1 on the side with fewer ends, the
        # lower one if both have as many); the ends lie on different
        # sides, so their scores differ
        deg = np.bincount(cut.ravel(), minlength=len(p))[v]
        n_ends = np.bincount(side[deg > 0], minlength=2 * len(size))
        lab[v] = 2 * deg + (upper == (n_ends[1::2] < n_ends[::2])[g])
        score = lab[cut]
        lab[v] = -1
        sep = np.zeros(len(p), dtype=bool)
        sep[np.where(score[:, 0] > score[:, 1], cut[:, 0], cut[:, 1])] = True
        sep = sep[v]
        key = 3 * g + np.where(sep, 2, upper)
        o = key.argsort(kind="stable")
        v = v[o]
        seq[pos] = v
        # the halves with more than _LEAF vertices split at the next level
        counts = np.bincount(key, minlength=3 * len(size))
        split = counts > _LEAF
        split[2::3] = False
        keep = split[key[o]]
        v, pos = v[keep], pos[keep]
        size = counts[split]
        g = np.arange(len(size)).repeat(size)
        start = size.cumsum() - size
    return seq


def _scan_hanging(p, triangles, edges):
    """Reject a vertex of p strictly inside an edge; edges: (a, b) pairs."""
    if not isinstance(edges, np.ndarray):
        edges = np.array(list(edges), dtype=np.int64)
    a, b = edges.reshape(-1, 2).T
    # candidates: the used vertices in the cells, of a grid with about one
    # vertex per cell, that the edge's bounding box overlaps, padded well
    # beyond the 1e-12 L distance the on-line test below accepts.  Sorted
    # by cell, column-major, so the candidates of one column are one run
    used = np.unique(triangles)
    lo = p[used].min(axis=0)
    nc = int(np.sqrt(len(used))) + 1
    h = (p[used].max(axis=0) - lo) / nc

    def cell(x):
        return np.clip(((x - lo) / h).astype(np.int64), 0, nc - 1)

    key = cell(p[used]) @ np.array([nc, 1])
    order = np.argsort(key, kind="stable")
    used = used[order]
    cstart = np.searchsorted(key[order], np.arange(nc * nc + 1))
    pa, pb = p[a], p[b]
    d = pb - pa
    L2 = np.einsum("ij,ij->i", d, d)
    pad = 1e-9 * np.sqrt(L2)[:, None]
    c0, c1 = cell(np.minimum(pa, pb) - pad), cell(np.maximum(pa, pb) + pad)
    # runs: one per (edge, column), edge-major
    ncol = c1[:, 0] - c0[:, 0] + 1
    re = np.repeat(np.arange(len(a)), ncol)
    first_run = np.cumsum(ncol) - ncol
    col = np.arange(len(re)) - np.repeat(first_run - c0[:, 0], ncol)
    rlo = cstart[col * nc + c0[re, 1]]
    rn = cstart[col * nc + c1[re, 1] + 1] - rlo
    # (edge, candidate) pairs in blocks of edges to bound the memory
    sections = min(len(a), 1 + rn.sum() // _HANGING_PAIRS)
    for blk in np.array_split(np.arange(len(a)), sections):
        runs = slice(first_run[blk[0]], first_run[blk[-1]] + ncol[blk[-1]])
        cnt = rn[runs]
        e = np.repeat(re[runs], cnt)
        # pair j of run r sits at used[rlo[r] + j - (pairs of earlier runs)]
        v = used[np.repeat(rlo[runs] - np.cumsum(cnt) + cnt, cnt) + np.arange(len(e))]
        s = np.einsum("ij,ij->i", p[v] - pa[e], d[e]) / L2[e]
        off = p[v] - (pa[e] + s[:, None] * d[e])
        on_line = (np.einsum("ij,ij->i", off, off) < 1e-24 * L2[e])
        interior = (s > 1e-12) & (s < 1 - 1e-12)
        bad = on_line & interior
        if np.any(bad):
            k = e[np.argmax(bad)]
            raise MeshError("hanging node %d on edge (%d,%d)"
                            % (v[bad & (e == k)].min(), a[k], b[k]))


def triangle_areas(mesh):
    p, t = mesh.vertices, mesh.triangles
    return 0.5 * _cross2(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])


def mesh_size(mesh):
    """(h, h_T per triangle, h_E per edge of mesh.edges).

    h_T is the triangle diameter (longest edge); h_E the edge length.
    """
    h_T = mesh.edge_lengths[mesh.triangle_edges].max(axis=1)
    return float(h_T.max()), h_T, mesh.edge_lengths


# -- refinement ----------------------------------------------------------------

def refine(mesh, marked):
    """Newest-vertex bisection of the marked triangles plus conforming closure.

    Each round bisects its queue in index order: (a, b, c) gets m = mid(b, c),
    numbered when a round first meets (b, c), and children (m, a, b),
    (m, c, a).  The next queue is every live triangle with a bisected edge.
    Only input edges are bisected (a child's refinement edge is an edge of its
    parent; every edge of a grandchild has a new vertex), so fewer than
    n = nv + ne vertices are made, and n keys the edges.
    """
    nt = len(mesh.triangles)
    queue = np.unique(np.fromiter(marked, dtype=np.int64))
    if queue.size and (queue[0] < 0 or queue[-1] >= nt):
        raise MeshError("marked triangle id out of range")
    if not queue.size:
        return mesh

    n = len(mesh.vertices) + len(mesh.edges)
    verts, tris = mesh.vertices, mesh.triangles
    alive = np.ones(nt, dtype=bool)
    keys = mids = np.empty(0, dtype=np.int64)     # bisected edges, sorted by key
    while queue.size:
        a, b, c = tris[queue].T
        edge, first, inv = np.unique(_edge_key(b, c, n), return_index=True,
                                     return_inverse=True)
        # new midpoints are numbered in the order the round first meets them
        known = np.isin(edge, keys)
        new = np.flatnonzero(~known)[np.argsort(first[~known])]
        m = np.empty(len(edge), dtype=np.int64)
        m[known] = mids[np.searchsorted(keys, edge[known])]
        m[new] = len(verts) + np.arange(len(new))
        verts = np.concatenate([verts, 0.5 * (verts[b] + verts[c])[first[new]]])
        keys = np.concatenate([keys, edge[new]])
        mids = np.concatenate([mids, m[new]])[np.argsort(keys)]
        keys = np.sort(keys)
        m = m[inv]
        alive[queue] = False
        tris = np.concatenate([tris, np.stack([m, a, b, m, c, a], 1).reshape(-1, 3)])
        alive = np.concatenate([alive, np.ones(2 * len(queue), dtype=bool)])
        # closure: any live triangle with a bisected edge must be bisected too
        live = np.flatnonzero(alive)
        t = tris[live]
        queue = live[np.isin(_edge_key(t, np.roll(t, -1, axis=1), n), keys).any(axis=1)]

    # split the labeled boundary edges at their midpoints once: each half
    # holds a new vertex, so it is no bisected (input) edge
    a, b = mesh.boundary_edges.T
    labels = np.asarray(mesh.boundary_labels)
    key = _edge_key(a, b, n)
    split = np.isin(key, keys)
    m = mids[np.searchsorted(keys, key[split])]
    a = np.concatenate([a[~split], a[split], m])
    b = np.concatenate([b[~split], m, b[split]])
    labels = np.concatenate([labels[~split], labels[split], labels[split]])
    key = _edge_key(a, b, n)
    order = np.argsort(key)
    return Mesh(verts, tris[alive], np.column_stack(np.divmod(key[order], n)),
                labels[order].tolist(), scale_factor=mesh.scale_factor)


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


def _numbers(tokens, dtype, what):
    """The tokens as an array of dtype, or a MeshError that names `what`."""
    try:
        return np.asarray(tokens, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise MeshError("%s: %s" % (what, exc)) from None


def load_mesh(text, scale=True):
    """Parse the plain-text format: 'nv nt nb' header, vertices, triangles, labeled edges.

    With scale=True the geometry is rescaled about its centroid if the
    boundary diameter is >= 1 (single-layer positivity needs capacity < 1);
    the factor is stored on the mesh.  Input meshes are scanned for hanging
    nodes here, not in Mesh: refine's bisection with closure makes none.
    """
    tok = text.split()
    if len(tok) < 3:
        raise MeshError("truncated mesh file")
    nv, nt, nb = _numbers(tok[:3], np.int64, "header 'nv nt nb'").tolist()
    if min(nv, nt, nb) < 0:
        raise MeshError("negative count in header '%d %d %d'" % (nv, nt, nb))
    need = 3 + 2 * nv + 3 * nt + 3 * nb
    if len(tok) < need:
        raise MeshError("truncated mesh file")
    body = tok[3:need]
    verts = _numbers(body[:2 * nv], float, "vertex coordinates").reshape(nv, 2)
    tris = _numbers(body[2 * nv:2 * nv + 3 * nt], np.int64, "triangle ids").reshape(nt, 3)
    labeled = np.asarray(body[2 * nv + 3 * nt:], dtype=str).reshape(nb, 3)
    edges = _numbers(labeled[:, :2].tolist(), np.int64, "boundary edge ids").reshape(nb, 2)
    labels = np.char.upper(labeled[:, 2]).tolist()
    # both index the vertices below, before Mesh validates them
    for ids, what in ((tris, "triangle"), (edges, "boundary edge")):
        if ids.size and (ids.min() < 0 or ids.max() >= nv):
            raise MeshError("%s references vertex index out of range" % what)

    bidx = np.unique(edges.ravel()) if len(edges) else np.arange(nv)
    pts = verts[bidx] if len(bidx) else verts
    diam = diameter(pts)
    factor = 1.0
    if scale and diam >= 1.0:
        factor = DIAMETER_TARGET / diam
        centroid = pts.mean(axis=0)
        verts = centroid + factor * (verts - centroid)

    tris = _assign_peaks(verts, tris)
    # before Mesh's label and boundary-loop checks, which a hanging node
    # also fails; an empty mesh or a zero-area triangle is left to Mesh
    p = verts[tris]
    if len(tris) and np.all(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) != 0):
        keys = np.unique(_edge_key(tris, np.roll(tris, -1, axis=1), nv))
        _scan_hanging(verts, tris, np.column_stack(np.divmod(keys, nv)))
    return Mesh(verts, tris, edges, labels, scale_factor=factor)


def diameter(pts):
    """Largest pairwise distance of a point set (0 for fewer than two)."""
    if len(pts) < 2:
        return 0.0
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(d2.max()))


def _mesh_text(vertices, triangles, edges, labels):
    """The plain-text format load_mesh reads: the 'nv nt nb' header, then one
    line per vertex, triangle and labeled boundary edge, without a trailing
    newline.  The vertex and triangle blocks are each formatted by one %
    operation on Python scalars."""
    v = np.asarray(vertices, dtype=float).ravel().tolist()
    t = np.asarray(triangles, dtype=np.int64).ravel().tolist()
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist()
    return ("%d %d %d" % (len(v) // 2, len(t) // 3, len(e))
            + ("\n%.17g %.17g" * (len(v) // 2)) % tuple(v)
            + ("\n%d %d %d" * (len(t) // 3)) % tuple(t)
            + "".join("\n%d %d %s" % (a, b, lab) for (a, b), lab in zip(e, labels)))

import numpy as np
import pytest

from febe import mesh as meshmod
from febe.mesh import MeshError, load_mesh, mesh_size, refine, refine_uniform
from febe.presets import MESH_PRESETS, square_text

from conftest import (jittered_square, loop_dissection, loop_mesh_text, loop_refine,
                      random_graded_square, shape_regularity, square_mesh_text,
                      struct_square)


def test_load_unit_square(unit_square):
    m = unit_square
    assert len(m.vertices) == 4
    assert len(m.triangles) == 2
    assert len(m.boundary_edges) == 4
    assert m.boundary_labels.count("T") == 4


def test_left_edge_slip_label():
    m = load_mesh(square_mesh_text(left_label="S"))
    assert m.boundary_labels.count("S") == 1


def test_vertex_index_out_of_range():
    bad = square_mesh_text().replace("0 2 3", "0 2 9")
    with pytest.raises(MeshError):
        load_mesh(bad)


def test_boundary_edge_vertex_out_of_range():
    bad = square_mesh_text().replace("1 2 T", "1 9 T")
    with pytest.raises(MeshError, match="boundary edge references vertex index"):
        load_mesh(bad)


@pytest.mark.parametrize("xy", ["0.5 0.5", "2 2"])
def test_vertex_in_no_triangle_rejected(xy, unit_square):
    # the unit square plus a fifth vertex, on its diagonal or outside it,
    # that no triangle uses
    m = unit_square
    with pytest.raises(MeshError, match="vertex 4 lies in no triangle"):
        meshmod.Mesh(np.vstack([m.vertices, [float(c) for c in xy.split()]]),
                     m.triangles, m.boundary_edges, m.boundary_labels)
    lines = square_mesh_text().split("\n")
    text = "\n".join(["5 2 4"] + lines[1:5] + [xy] + lines[5:])
    with pytest.raises(MeshError, match="vertex 4 lies in no triangle"):
        load_mesh(text)


@pytest.mark.parametrize("old, new, match", [
    ("4 2 4", "3 1 x", "header 'nv nt nb'"),
    ("4 2 4", "4.0 2 4", "header 'nv nt nb'"),
    ("1.0 1.0", "zero 1.0", "vertex coordinates: .*'zero'"),
    ("0 2 3\n", "0 2 3.5\n", "triangle ids: .*'3.5'"),
    ("2 3 T", "2 x T", "boundary edge ids: .*'x'"),
    ("0 1 2\n", "0 1 99999999999999999999\n", "triangle ids"),
])
def test_non_numeric_token_rejected(old, new, match):
    text = square_mesh_text()
    assert old in text
    with pytest.raises(MeshError, match=match):
        load_mesh(text.replace(old, new, 1))


@pytest.mark.parametrize("header", ["-1 0 0", "4 -2 4", "4 2 -4"])
def test_negative_count_rejected(header):
    with pytest.raises(MeshError, match="negative count in header '%s'" % header):
        load_mesh(square_mesh_text().replace("4 2 4", header, 1))


def test_unlabeled_boundary_edge_rejected():
    lines = square_mesh_text().split("\n")
    lines[0] = "4 2 3"
    with pytest.raises(MeshError, match="unlabeled"):
        load_mesh("\n".join(lines[:-1]))


def test_empty_transmission_rejected():
    txt = square_mesh_text(all_labels="S")
    with pytest.raises(MeshError, match="transmission"):
        load_mesh(txt)


_SQUARE = ["0 0", "1 0", "1 1", "0 1"]
_SQUARE_EDGES = ["0 1 T", "1 2 T", "2 3 T", "3 0 T"]


@pytest.mark.parametrize("lines, match", [
    (["3 1 3", "0 0", "1 0", "2 0", "0 1 2", "0 1 T", "1 2 T", "2 0 T"],
     r"degenerate \(zero-area\) triangle"),
    # the diagonal 0 2 in a third triangle, whose apex lies off the square
    (["5 3 4", *_SQUARE, "2 0.5", "0 1 2", "0 2 3", "0 2 4", *_SQUARE_EDGES],
     "edge shared by >2 triangles"),
    (["4 2 5", *_SQUARE, "0 1 2", "0 2 3", *_SQUARE_EDGES, "0 2 T"],
     "labeled edge is not a boundary edge"),
    (["4 2 4", *_SQUARE, "0 1 2", "0 2 3", *_SQUARE_EDGES[:3], "3 0 Q"],
     "unknown boundary label 'Q'"),
    # two unit squares one unit apart
    (["8 4 8", *_SQUARE, "2 0", "3 0", "3 1", "2 1", "0 1 2", "0 2 3", "4 5 6", "4 6 7",
      *_SQUARE_EDGES, "4 5 T", "5 6 T", "6 7 T", "7 4 T"],
     "boundary has more than one component"),
    (["4 2"], "truncated mesh file"),
    (["4 2 4", *_SQUARE, "0 1 2", "0 2 3", *_SQUARE_EDGES[:3]], "truncated mesh file"),
], ids=["zero-area", "edge-in-three-triangles", "labeled-interior-edge", "unknown-label",
        "two-boundary-components", "truncated-header", "truncated-body"])
def test_malformed_mesh_file_rejected(lines, match):
    with pytest.raises(MeshError, match=match):
        load_mesh("\n".join(lines))


@pytest.mark.parametrize("clockwise", ["every", "every-other"])
def test_clockwise_mesh_file_loads_as_counter_clockwise_twin(clockwise):
    # the square-slip preset with its triangles listed clockwise: the mesh
    # turns them back, so it has the vertices, peak-first triangles and
    # boundary loop of the counter-clockwise file, and so do two uniform
    # refinements of it
    text = square_text(2, slip=("b",))
    lines = text.split("\n")
    nv, nt, _ = (int(s) for s in lines[0].split())
    flip = slice(None) if clockwise == "every" else slice(None, None, 2)
    tris = lines[1 + nv:1 + nv + nt]
    tris[flip] = [" ".join(t.split()[::-1]) for t in tris[flip]]
    lines[1 + nv:1 + nv + nt] = tris
    verts = np.array([[float(s) for s in ln.split()] for ln in lines[1:1 + nv]])
    t = np.array([[int(s) for s in ln.split()] for ln in tris])
    turn = meshmod._cross2(verts[t[:, 1]] - verts[t[:, 0]], verts[t[:, 2]] - verts[t[:, 0]])
    assert np.count_nonzero(turn < 0) == len(range(nt)[flip])
    ccw, cw = load_mesh(text), load_mesh("\n".join(lines))
    for a, b in ((ccw, cw), (refine_uniform(ccw, 2), refine_uniform(cw, 2))):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.boundary_edges, b.boundary_edges)
        assert a.boundary_labels == b.boundary_labels
        assert np.array_equal(a.boundary_loop()[0], b.boundary_loop()[0])
        assert a.boundary_loop()[1] == b.boundary_loop()[1]


def test_scaling_applied_for_large_domains():
    m = load_mesh(square_mesh_text(lo=0.0, hi=3.0))
    assert m.scale_factor < 1.0
    loop, _ = m.boundary_loop()
    pts = m.vertices[loop]
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2)
    assert np.sqrt(d2.max()) < 1.0
    assert load_mesh(square_mesh_text(), scale=False).scale_factor == 1.0


def test_mesh_size_diagonal(unit_square):
    h, h_T, h_E = mesh_size(unit_square)
    assert h == pytest.approx(np.sqrt(2.0))
    assert h == pytest.approx(max(h_T))
    assert h_E.max() == pytest.approx(np.sqrt(2.0))


def test_mesh_size_halves_under_two_sweeps(unit_square):
    m2 = refine_uniform(unit_square, 2)
    h0 = mesh_size(unit_square)[0]
    h2 = mesh_size(m2)[0]
    assert h2 == pytest.approx(h0 / 2)


def test_refine_empty_is_identity(unit_square):
    m = refine(unit_square, set())
    assert m is unit_square


def test_refine_single_triangle_conforming(unit_square):
    m = refine(unit_square, {0})
    assert len(m.triangles) >= 3
    _assert_conforming(m)


def test_uniform_refinement_doubles_count(unit_square):
    m = unit_square
    for k in range(1, 4):
        m = refine(m, range(len(m.triangles)))
        assert len(m.triangles) == 2 * 2 ** k
        _assert_conforming(m)


def test_invalid_mark_id(unit_square):
    with pytest.raises(MeshError):
        refine(unit_square, {99})


def test_boundary_labels_inherited():
    m = load_mesh(square_mesh_text(left_label="S"), scale=False)
    m = refine_uniform(m, 3)
    length_S = 0.0
    for (a, b), lab in zip(m.boundary_edges, m.boundary_labels):
        if lab == "S":
            length_S += np.linalg.norm(m.vertices[a] - m.vertices[b])
    assert length_S == pytest.approx(1.0)


def test_boundary_length_preserved(unit_square):
    def blen(m):
        return sum(np.linalg.norm(m.vertices[a] - m.vertices[b])
                   for a, b in m.boundary_edges)
    m = refine_uniform(unit_square, 3)
    assert blen(m) == pytest.approx(blen(unit_square))


def test_shape_regularity_bounded(unit_square):
    rng = np.random.default_rng(7)
    bound0 = shape_regularity(unit_square)
    m = unit_square
    for _ in range(6):
        nmark = max(1, len(m.triangles) // 3)
        marked = rng.choice(len(m.triangles), size=nmark, replace=False)
        m = refine(m, marked)
        assert shape_regularity(m) <= 4.0 * bound0
    _assert_conforming(m)


def test_edge_sets(unit_square):
    interior = unit_square.edge_triangles[:, 1] >= 0
    assert np.count_nonzero(interior) == 1
    assert np.count_nonzero(~interior) == 4
    assert np.all(unit_square.edge_lengths[~interior] > 0)


def _graded_meshes(preset):
    """Uniform sweeps and seeded random local refinements of a preset."""
    rng = np.random.default_rng(11)
    m = load_mesh(MESH_PRESETS[preset](), scale=False)
    out = [m, refine_uniform(m, 2)]
    for _ in range(5):
        m = refine(m, rng.choice(len(m.triangles), size=max(1, len(m.triangles) // 4),
                                 replace=False))
        out.append(m)
    return out


@pytest.mark.parametrize("preset", ["square-slip", "lshape"])
def test_edge_table_matches_dict_incidence(preset):
    for m in _graded_meshes(preset):
        inc = {}
        for k, tri in enumerate(m.triangles.tolist()):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                inc.setdefault((min(a, b), max(a, b)), []).append(k)
        keys = sorted(inc)
        assert [tuple(e) for e in m.edges.tolist()] == keys
        assert m.edge_triangles.tolist() == [(inc[k] + [-1])[:2] for k in keys]
        lengths = [np.linalg.norm(m.vertices[a] - m.vertices[b]) for a, b in keys]
        np.testing.assert_allclose(m.edge_lengths, lengths, rtol=1e-15, atol=0)
        # boundary edges: one owner, and exactly the labeled edges
        rows = m.find_edges(m.boundary_edges[:, 1], m.boundary_edges[:, 0])
        assert sorted(rows.tolist()) == np.nonzero(m.edge_triangles[:, 1] < 0)[0].tolist()
        assert m.edge_triangles[rows, 0].tolist() == [
            inc[(min(a, b), max(a, b))][0] for a, b in m.boundary_edges.tolist()]
        per_tri = np.zeros(len(m.triangles), dtype=int)
        for a, b in m.boundary_edges.tolist():
            per_tri[inc[(min(a, b), max(a, b))][0]] += 1
        owners = m.edge_triangles[m.edge_triangles[:, 1] < 0, 0]
        assert np.bincount(owners).max() == per_tri.max()
        # loop panels carry their edge's label
        label = {tuple(sorted(e)): lab
                 for e, lab in zip(m.boundary_edges.tolist(), m.boundary_labels)}
        loop, labels = m.boundary_loop()
        assert loop[0] == m.boundary_edges.min()
        assert len(set(loop.tolist())) == len(loop) == len(m.boundary_edges)
        pts = m.vertices[loop]
        assert np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                      - np.roll(pts[:, 0], -1) * pts[:, 1]) > 0      # CCW
        assert labels == [label[tuple(sorted((a, b)))]
                          for a, b in zip(loop.tolist(), np.roll(loop, -1).tolist())]
        assert m.boundary_loop()[0] is loop
    assert m.find_edges([loop[0]], [loop[0]]).tolist() == [-1]


_REFINE_MESHES = {
    "square-slip": MESH_PRESETS["square-slip"],
    "lshape": MESH_PRESETS["lshape"],
    "circle": MESH_PRESETS["circle"],
    "square-two-slip": lambda: square_text(2, slip=("b", "r")),
}


def _assert_same_mesh(m, ref):
    for name in ("vertices", "triangles", "boundary_edges", "edges",
                 "edge_triangles"):
        assert np.array_equal(getattr(m, name), getattr(ref, name)), name
    assert m.boundary_labels == ref.boundary_labels
    assert np.array_equal(m.boundary_loop()[0], ref.boundary_loop()[0])
    assert m.boundary_loop()[1] == ref.boundary_loop()[1]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("preset", sorted(_REFINE_MESHES))
def test_array_refine_matches_loop_refine(preset, seed):
    """Two uniform sweeps, random markings of 1/3 to 1/12 of the triangles and
    a single-triangle marking give the tuple/dict refinement's arrays."""
    rng = np.random.default_rng(seed)
    m = load_mesh(_REFINE_MESHES[preset](), scale=False)
    for step in range(9):
        nt = len(m.triangles)
        if step < 2:
            marked = range(nt)
        elif step < 8:
            marked = rng.choice(nt, size=max(1, nt // rng.integers(3, 13)), replace=False)
        else:
            marked = [int(rng.integers(nt))]
        ref = loop_refine(m, marked)
        m = refine(m, marked)
        _assert_same_mesh(m, ref)
        # triangle_edges names the edges (0,1), (1,2), (2,0); h_T and
        # h_T / rho_T from it equal those from per-triangle norms
        t = m.triangles
        assert np.array_equal(m.edges[m.triangle_edges],
                              np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2), axis=2))
        assert not m.triangle_edges.flags.writeable
        p = m.vertices[t]
        a, b, c = (np.linalg.norm(p[:, (i + 1) % 3] - p[:, i], axis=1) for i in range(3))
        h_T = np.maximum(np.maximum(a, b), c)
        assert np.array_equal(mesh_size(m)[1], h_T)
        rho = 4.0 * meshmod.triangle_areas(m) / (a + b + c)
        assert shape_regularity(m) == np.max(h_T / rho)


def test_edge_table_read_only(unit_square):
    for a in (unit_square.edges, unit_square.edge_triangles, unit_square.edge_lengths,
              unit_square.boundary_loop()[0]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_save_load_roundtrip():
    m = refine_uniform(load_mesh(struct_square(2, slip=("b",))), 1)
    m2 = load_mesh(meshmod._mesh_text(m.vertices, m.triangles, m.boundary_edges,
                                      m.boundary_labels) + "\n")
    assert len(m2.triangles) == len(m.triangles)
    assert sorted(m2.boundary_labels) == sorted(m.boundary_labels)


def test_mesh_text_writer_matches_line_writer(monkeypatch):
    # the block writer against the line-by-line one, through every preset
    # at several sizes and on refined meshes
    from febe import presets
    assert presets.square_text(1, slip=("b",)) == (
        "4 2 4\n0.59999999999999998 0.59999999999999998\n1 0.59999999999999998\n"
        "0.59999999999999998 1\n1 1\n0 1 3\n0 3 2\n0 1 S\n1 3 T\n3 2 T\n2 0 T")
    texts = lambda: ([presets.square_text(n, slip) for n in (1, 3, 8)
                      for slip in ((), ("b",), ("b", "r", "t", "l"))]
                     + [presets.lshape_text(n) for n in (2, 4, 10)]
                     + [presets.circle_text(n, r) for n in (3, 17, 64) for r in (0.4, 2.5)]
                     + [f() for f in MESH_PRESETS.values()])
    block = texts()
    with monkeypatch.context() as mp:
        mp.setattr(presets, "_mesh_text", loop_mesh_text)
        assert block == texts()
    for text in block[-4:]:
        m = refine_uniform(load_mesh(text), 1)
        m = refine(m, np.arange(0, len(m.triangles), 5))
        args = m.vertices, m.triangles, m.boundary_edges, m.boundary_labels
        assert meshmod._mesh_text(*args) == loop_mesh_text(*args)


def test_nonconforming_rejected():
    # two triangles overlapping on a partial edge -> hanging node
    txt = "\n".join(["5 2 6",
                     "0 0", "1 0", "0 1", "2 0", "1 1",
                     "0 1 2", "1 3 4",
                     "0 1 T", "1 3 T", "3 4 T", "4 1 T", "1 2 T", "2 0 T"])
    with pytest.raises(MeshError):
        load_mesh(txt)


@pytest.mark.parametrize("coords", [
    ["0 0", "2 0", "1 1", "1 0", "1 -1"],
    ["0 0", "0 2", "-1 1", "0 1", "1 1"],      # hanging edge with no x-extent
])
def test_hanging_node_rejected(coords):
    # vertex 3 is the midpoint of edge (0, 1) of triangle (0, 1, 2) only
    txt = "\n".join(["5 3 7"] + coords + [
        "0 1 2", "0 3 4", "3 1 4",
        "0 1 T", "1 2 T", "2 0 T", "0 3 T", "4 0 T", "3 1 T", "1 4 T"])
    with pytest.raises(MeshError, match="hanging node"):
        load_mesh(txt, scale=False)


def _assert_conforming(m):
    counts = {}
    for tri in m.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
    assert all(c <= 2 for c in counts.values())
    meshmod._scan_hanging(m.vertices, m.triangles, counts.keys())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("preset", ["lshape", "square-slip", "circle"])
def test_refined_meshes_stay_conforming(preset, seed):
    # Mesh does not scan for hanging nodes, since bisection with closure
    # makes none; every refine output, after random local marks and
    # uniform sweeps, passes the scan and the conformity check
    rng = np.random.default_rng(seed)
    m = load_mesh(MESH_PRESETS[preset](), scale=False)
    for step in range(8):
        nt = len(m.triangles)
        if step % 4 == 3:
            marked = range(nt)
        else:
            marked = rng.choice(nt, size=max(1, nt // rng.integers(2, 10)), replace=False)
        m = refine(m, marked)
        meshmod._scan_hanging(m.vertices, m.triangles, m.edges)
        _assert_conforming(m)


@pytest.mark.parametrize("radius", [0.35, 0.4, 2.5])
def test_assign_peaks_matches_per_triangle_norms(radius):
    # circle fans have two equal radial edges per triangle; the peak must be
    # the first longest edge as measured by the per-edge 1-D norm
    from febe.presets import circle_text

    def reference(vertices, triangles):
        out = []
        for tri in triangles:
            p = vertices[list(tri)]
            lens = [np.linalg.norm(p[2] - p[1]), np.linalg.norm(p[0] - p[2]),
                    np.linalg.norm(p[1] - p[0])]
            peak = int(np.argmax(lens))
            out.append((tri[peak], tri[(peak + 1) % 3], tri[(peak + 2) % 3]))
        return np.asarray(out, dtype=np.int64)

    for n in (8, 12, 17, 32, 45, 64, 100, 128):
        text = circle_text(n, radius)
        tok = text.split()
        nv, nt = int(tok[0]), int(tok[1])
        verts = np.asarray(tok[3:3 + 2 * nv], dtype=float).reshape(nv, 2)
        tris = np.asarray(tok[3 + 2 * nv:3 + 2 * nv + 3 * nt],
                          dtype=np.int64).reshape(nt, 3)
        m = load_mesh(text, scale=False)
        assert np.array_equal(m.triangles, reference(verts, tris))


def _x_window_hanging(mesh, edges):
    """The hanging-node check that the grid buckets replaced, which draws
    the candidates of an edge from its padded x-range: its error message,
    or None."""
    a, b = np.asarray(edges).reshape(-1, 2).T
    p = mesh.vertices
    used = np.unique(mesh.triangles)
    used = used[np.argsort(p[used, 0], kind="stable")]
    pa, pb = p[a], p[b]
    d = pb - pa
    L2 = np.einsum("ij,ij->i", d, d)
    pad = 1e-9 * np.sqrt(L2)
    lo = np.searchsorted(p[used, 0], np.minimum(pa[:, 0], pb[:, 0]) - pad, "left")
    n = np.searchsorted(p[used, 0], np.maximum(pa[:, 0], pb[:, 0]) + pad, "right") - lo
    for blk in np.array_split(np.arange(len(a)), 1 + n.sum() // meshmod._HANGING_PAIRS):
        cnt = n[blk]
        e = np.repeat(blk, cnt)
        v = used[np.repeat(lo[blk] - np.cumsum(cnt) + cnt, cnt) + np.arange(len(e))]
        s = np.einsum("ij,ij->i", p[v] - pa[e], d[e]) / L2[e]
        off = p[v] - (pa[e] + s[:, None] * d[e])
        on_line = (np.einsum("ij,ij->i", off, off) < 1e-24 * L2[e])
        interior = (s > 1e-12) & (s < 1 - 1e-12)
        bad = on_line & interior
        if np.any(bad):
            k = e[np.argmax(bad)]
            return ("hanging node %d on edge (%d,%d)"
                    % (v[bad & (e == k)].min(), a[k], b[k]))
    return None


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("inject", ["none", "moved", "axis-edge", "diagonal-edge"])
def test_hanging_check_matches_x_window_version(seed, inject):
    # same verdict and same reported vertex and edge as the x-window check,
    # on random meshes with vertices moved onto, or just off, random edges
    # and with long edges laid over rows of vertices
    from types import SimpleNamespace
    rng = np.random.default_rng(seed)
    m = refine_uniform(load_mesh(struct_square(2 + seed % 3), scale=False), 1 + seed % 2)
    m = refine(m, rng.choice(len(m.triangles), len(m.triangles) // 3, replace=False))
    p, edges = m.vertices.copy(), m.edges.copy()
    if inject == "moved":
        for k in rng.choice(len(edges), 4, replace=False):
            a, b = edges[k]
            v = rng.choice(np.setdiff1d(np.arange(len(p)), [a, b]))
            d = p[b] - p[a]
            # on the line, inside the 1e-12 L tolerance, or beyond it
            off = rng.choice([0.0, 3e-13, 3e-11]) * np.array([-d[1], d[0]])
            p[v] = p[a] + rng.uniform(0.02, 0.98) * d + off
    elif inject != "none":
        corner = [np.argmin(p @ w) for w in ((1, 1), (-1, 1), (-1, -1))]
        long_edge = corner[:2] if inject == "axis-edge" else corner[::2]
        edges = np.insert(edges, rng.integers(len(edges)), long_edge, axis=0)
    mesh = SimpleNamespace(vertices=p, triangles=m.triangles)
    want = _x_window_hanging(mesh, edges)
    if want is None:
        meshmod._scan_hanging(mesh.vertices, mesh.triangles, edges)
    else:
        with pytest.raises(MeshError) as err:
            meshmod._scan_hanging(mesh.vertices, mesh.triangles, edges)
        assert str(err.value) == want
    if inject != "moved":
        assert (want is None) == (inject == "none")


# -- nested-dissection order ---------------------------------------------------

@pytest.mark.parametrize("preset", sorted(MESH_PRESETS) + ["graded"])
def test_dissection_order_is_a_permutation_with_the_boundary_loop_last(preset):
    if preset == "graded":
        m = random_graded_square()
    else:
        m = refine_uniform(load_mesh(MESH_PRESETS[preset](), scale=False), 4)
    order, loop = m.dissection_order, m.boundary_loop()[0]
    assert np.array_equal(np.sort(order), np.arange(len(m.vertices)))
    assert np.array_equal(order[len(order) - len(loop):], loop)


def test_dissection_order_is_computed_once_and_read_only(monkeypatch):
    from febe import material as mat, presets
    from febe.driver import build_system
    from febe.vi import solve_contact_vi, solve_layerpotential_vi
    calls = []
    dissect = meshmod._dissect
    monkeypatch.setattr(meshmod, "_dissect", lambda *a: calls.append(a) or dissect(*a))
    m = refine_uniform(load_mesh(square_text(4, slip=("b",)), scale=False), 2)
    order = m.dissection_order
    assert m.dissection_order is order and len(calls) == 1
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = order[1]
    # every solve of every system on the mesh, both forms, reads the same order
    for p in (1.5, 2.0):
        law = mat.MaterialLaw(p=p)
        system = build_system(m, law, presets.scalar_transition(law).data)
        solve_contact_vi(system)
        solve_layerpotential_vi(system)
    assert len(calls) == 1
    assert refine_uniform(m, 1).dissection_order is not order and len(calls) == 2


def test_dissection_split_and_separator_rule(monkeypatch):
    # groups of more than two vertices split; ties at the median value go up
    monkeypatch.setattr(meshmod, "_LEAF", 2)
    # a chain along x: the median splits {0, 1, 2 | 3, 4, 5, 6}; both ends of
    # the cut edge (2, 3) have one cut edge, and both sides one end, so the
    # lower end 2 is the separator; {3, 4, 5, 6} splits at 5, separator 4
    p = np.column_stack([np.arange(7.0), np.zeros(7)])
    chain = np.column_stack([np.arange(6), np.arange(1, 7)])
    order = meshmod._dissect(p, np.arange(7), chain)
    assert order.tolist() == [0, 1, 3, 5, 6, 4, 2]
    # three of five vertices at the lowest x, the median value: the split
    # by value would leave the lower side empty, so it splits by rank,
    # {0, 3 | 4, 1, 2}.  Of the cut edges, (0, 4) goes to 4 and (3, 1) to 3,
    # which have two cut edges each; (3, 4) is a tie, and both sides have
    # two ends, so it goes to the lower end 3.  The separator {3, 4} comes
    # last in the order of x
    p = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    edges = np.array([[0, 4], [3, 4], [1, 3], [1, 2]])
    assert meshmod._dissect(p, np.arange(5), edges).tolist() == [0, 1, 2, 3, 4]
    # a star from 0 into the upper side: 0 has all three cut edges
    edges = np.array([[0, 4], [0, 1], [0, 2], [3, 0]])
    order = meshmod._dissect(p, np.arange(5), edges)
    assert order[-1] == 0 and sorted(order[:-1]) == [1, 2, 3, 4]


@pytest.mark.parametrize("leaf", [2, 4, 8])
def test_dissection_matches_recursive_reference(monkeypatch, leaf):
    # the level-wise array build, given every mesh edge as dissection_order
    # gives it, against a recursion over the interior graph, on structured,
    # jittered, graded and curved meshes
    monkeypatch.setattr(meshmod, "_LEAF", leaf)
    for m in (refine_uniform(load_mesh(square_text(4, slip=("b",)), scale=False), 4),
              jittered_square(3, 4), random_graded_square(2),
              refine_uniform(load_mesh(MESH_PRESETS["lshape"](), scale=False), 3),
              refine_uniform(load_mesh(MESH_PRESETS["circle"](), scale=False), 1)):
        loop = m.boundary_loop()[0]
        interior = np.setdiff1d(np.arange(len(m.vertices)), loop)
        edges = m.edges[np.isin(m.edges, interior).all(axis=1)]
        assert np.array_equal(meshmod._dissect(m.vertices, interior, m.edges),
                              loop_dissection(m.vertices, interior, edges, leaf))

import numpy as np
import pytest

from febe import mesh as meshmod
from febe.mesh import (MeshError, load_mesh, mesh_size, refine,
                       refine_uniform, save_mesh, shape_regularity)
from febe.presets import MESH_PRESETS

from conftest import square_mesh_text, struct_square


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


def test_unlabeled_boundary_edge_rejected():
    lines = square_mesh_text().split("\n")
    lines[0] = "4 2 3"
    with pytest.raises(MeshError, match="unlabeled"):
        load_mesh("\n".join(lines[:-1]))


def test_empty_transmission_rejected():
    txt = square_mesh_text(all_labels="S")
    with pytest.raises(MeshError, match="transmission"):
        load_mesh(txt)


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


def test_generation_tracking(unit_square):
    m = refine_uniform(unit_square, 2)
    assert m.generation.max() == 2
    assert m.generation.min() >= 1


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
        assert m.max_boundary_edges_per_triangle() == per_tri.max()
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


def test_edge_table_read_only(unit_square):
    for a in (unit_square.edges, unit_square.edge_triangles, unit_square.edge_lengths,
              unit_square.boundary_loop()[0]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_save_load_roundtrip():
    m = refine_uniform(load_mesh(struct_square(2, slip=("b",))), 1)
    m2 = load_mesh(save_mesh(m))
    assert len(m2.triangles) == len(m.triangles)
    assert sorted(m2.boundary_labels) == sorted(m.boundary_labels)


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
    m._check_hanging(counts.keys())


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

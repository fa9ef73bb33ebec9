"""Field output: legacy-ASCII VTK unstructured grids plus CSV mirrors."""

from __future__ import annotations

import os

import numpy as np

from .vi import slip_fields

FMT = "%.17g"


def _fmt(x):
    return FMT % x


def export_fields(sol, system, directory, indicators=None):
    """Write solution.vtk with point/cell data, plus CSV mirrors.

    Point data: displacement u (vector), boundary fields v_n, v_t, sigma_n,
    sigma_t from vi.slip_fields (zero off the slip nodes).  Cell data:
    per-triangle indicator values when given.
    """
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


def read_fields_csv(path):
    """Reload the fields.csv mirror as a dict of arrays (bitwise round-trip)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",").reshape(-1, len(header))
    return {name: data[:, k] for k, name in enumerate(header)}

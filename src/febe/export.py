"""Field output: legacy-ASCII VTK unstructured grids plus CSV mirrors."""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from .vi import slip_fields


def format_rows(fmt, *cols):
    """The lines fmt % row for the rows of the given columns, arrays or
    lists of strings, formatted by one % operation on a tuple of Python
    scalars and strings (numpy floats print alike)."""
    rows = zip(*(c if isinstance(c, list) else np.asarray(c).tolist() for c in cols))
    return (fmt * len(cols[0])) % tuple(chain.from_iterable(rows))


def _g17(values):
    """The values, each formatted once by %.17g."""
    return format_rows("%.17g\n", values).split("\n")[:-1]


def export_fields(sol, system, directory, indicators=None):
    """Write solution.vtk with point/cell data, plus CSV mirrors.

    Point data: displacement u (vector), boundary fields v_n, v_t, sigma_n,
    sigma_t from vi.slip_fields (zero off the slip nodes).  Cell data:
    per-triangle indicator values when given.  Each value is formatted
    once, for both files that hold it.
    """
    os.makedirs(directory, exist_ok=True)
    mesh = system.space.mesh
    d = system.d
    nv = len(mesh.vertices)
    nt = len(mesh.triangles)

    fields = np.zeros((4, nv))          # v_n, v_t, sigma_n, sigma_t
    fields[:, system.bspace.loop[system.slip_nodes]] = slip_fields(sol, system)[:4]
    # x, y, u_0, ..., u_(d-1), v_n, v_t, sigma_n, sigma_t
    cols = [_g17(c) for c in (*mesh.vertices.T, *sol.u.reshape(nv, d).T, *fields)]
    cell_ind = _g17(np.asarray(indicators, dtype=float)
                    if indicators is not None else np.zeros(nt))

    parts = ["# vtk DataFile Version 3.0\nfebe fields\nASCII\n"
             "DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % nv,
             format_rows("%s %s 0\n", *cols[:2]),
             "CELLS %d %d\n" % (nt, 4 * nt),
             format_rows("3 %d %d %d\n", *mesh.triangles.T),
             "CELL_TYPES %d\n" % nt, "5\n" * nt,
             "POINT_DATA %d\nVECTORS u double\n" % nv,
             format_rows("%s %s 0\n" if d == 2 else "%s 0 0\n", *cols[2:2 + d])]
    for name, arr in zip(("v_n", "v_t", "sigma_n", "sigma_t"), cols[2 + d:]):
        parts += ["SCALARS %s double 1\nLOOKUP_TABLE default\n" % name,
                  format_rows("%s\n", arr)]
    parts += ["CELL_DATA %d\nSCALARS indicator double 1\nLOOKUP_TABLE default\n" % nt,
              format_rows("%s\n", cell_ind)]
    with open(os.path.join(directory, "solution.vtk"), "w") as fh:
        fh.write("".join(parts))

    # CSV mirrors
    header = "x,y," + ",".join("u%d" % c for c in range(d)) + ",v_n,v_t,sigma_n,sigma_t\n"
    with open(os.path.join(directory, "fields.csv"), "w") as fh:
        fh.write(header + format_rows(",".join(["%s"] * (6 + d)) + "\n", *cols))
    with open(os.path.join(directory, "cells.csv"), "w") as fh:
        fh.write("triangle,indicator\n"
                 + format_rows("%d,%s\n", np.arange(nt), cell_ind))
    return os.path.join(directory, "solution.vtk")

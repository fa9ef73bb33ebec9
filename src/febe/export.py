"""Field output: legacy-ASCII VTK unstructured grids plus CSV mirrors."""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from .vi import slip_fields


def format_rows(fmt, *cols):
    """The lines fmt % row for the rows of the given columns, formatted by one
    % operation on a tuple of Python scalars (numpy floats print alike)."""
    rows = zip(*(np.asarray(c).tolist() for c in cols))
    return (fmt * len(cols[0])) % tuple(chain.from_iterable(rows))


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
    x, y = mesh.vertices.T

    fields = np.zeros((4, nv))          # v_n, v_t, sigma_n, sigma_t
    fields[:, system.bspace.loop[system.slip_nodes]] = slip_fields(sol, system)[:4]

    cell_ind = (np.asarray(indicators, dtype=float)
                if indicators is not None else np.zeros(nt))

    parts = ["# vtk DataFile Version 3.0\nfebe fields\nASCII\n"
             "DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % nv,
             format_rows("%.17g %.17g 0\n", x, y),
             "CELLS %d %d\n" % (nt, 4 * nt),
             format_rows("3 %d %d %d\n", *mesh.triangles.T),
             "CELL_TYPES %d\n" % nt, "5\n" * nt,
             "POINT_DATA %d\nVECTORS u double\n" % nv,
             format_rows("%.17g %.17g 0\n", u[:, 0],
                         u[:, 1] if d == 2 else np.zeros(nv))]
    for name, arr in zip(("v_n", "v_t", "sigma_n", "sigma_t"), fields):
        parts += ["SCALARS %s double 1\nLOOKUP_TABLE default\n" % name,
                  format_rows("%.17g\n", arr)]
    parts += ["CELL_DATA %d\nSCALARS indicator double 1\nLOOKUP_TABLE default\n" % nt,
              format_rows("%.17g\n", cell_ind)]
    with open(os.path.join(directory, "solution.vtk"), "w") as fh:
        fh.write("".join(parts))

    # CSV mirrors
    header = "x,y," + ",".join("u%d" % c for c in range(d)) + ",v_n,v_t,sigma_n,sigma_t\n"
    with open(os.path.join(directory, "fields.csv"), "w") as fh:
        fh.write(header + format_rows(",".join(["%.17g"] * (6 + d)) + "\n",
                                      x, y, *u.T, *fields))
    with open(os.path.join(directory, "cells.csv"), "w") as fh:
        fh.write("triangle,indicator\n"
                 + format_rows("%d,%.17g\n", np.arange(nt), cell_ind))
    return os.path.join(directory, "solution.vtk")

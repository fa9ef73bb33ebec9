"""Solve-estimate-mark-refine loop with Doerfler bulk marking."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import estimate as est
from .mesh import mesh_size, refine, save_mesh


@dataclass
class AdaptiveRecord:
    level: int
    n_triangles: int
    dofs_interior: int
    dofs_boundary_p1: int
    dofs_boundary_p0: int
    h: float
    estimator_total: float
    estimator_parts: dict
    error: float = np.nan
    iterations: int = 0
    wall_time: float = 0.0


def mark(values, theta):
    """Minimal greedy set of entities whose indicator sum reaches theta*total."""
    if not 0 < theta <= 1:
        raise ValueError("marking fraction must lie in (0, 1]")
    values = np.asarray(values, dtype=float)
    total = values.sum()
    if total <= 0:
        return []
    order = np.argsort(-values, kind="stable")
    pos = order[:np.count_nonzero(values > 0)]
    # cumsum adds in marking order, so acc[k] is the running sum after k + 1
    acc = np.cumsum(values[pos])
    k = np.searchsorted(acc, theta * total - 1e-15 * total)
    return pos[:k + 1].tolist()


def run_adaptive(mesh, build_fn, solve_fn, estimate_fn,
                 theta=0.5, max_dofs=20000, target_eta=0.0, max_levels=30,
                 error_fn=None, out_dir=None):
    """Generic adaptive loop.

    build_fn(mesh)       -> CoupledSystem on the (possibly refined) mesh
    solve_fn(system)     -> DiscreteSolution
    estimate_fn(system, sol) -> IndicatorBreakdown
    error_fn(system, sol) -> scalar (optional, for manufactured runs)
    """
    records = []
    solutions = []
    for level in range(max_levels):
        t0 = time.perf_counter()
        system = build_fn(mesh)
        sol = solve_fn(system)
        ind = estimate_fn(system, sol)
        per_elem = ind.element_indicator()
        total = ind.total()
        err = float(error_fn(system, sol)) if error_fn else np.nan
        rec = AdaptiveRecord(
            level=level,
            n_triangles=len(mesh.triangles),
            dofs_interior=system.nU,
            dofs_boundary_p1=system.bspace.n_nodes * system.d,
            dofs_boundary_p0=system.bspace.n_panels * system.d,
            h=mesh_size(mesh)[0],
            estimator_total=total,
            estimator_parts={k: ind.term_value(k) for k in ind.parts},
            error=err,
            iterations=sol.iterations,
            wall_time=time.perf_counter() - t0)
        records.append(rec)
        solutions.append((system, sol, ind))
        if out_dir is not None:
            ldir = os.path.join(out_dir, "level_%d" % level)
            os.makedirs(ldir, exist_ok=True)
            with open(os.path.join(ldir, "mesh.txt"), "w") as fh:
                fh.write(save_mesh(mesh))
            np.savetxt(os.path.join(ldir, "solution.csv"),
                       sol.u.reshape(-1, system.d), delimiter=",", fmt="%.17g")
            est.indicators_csv(ind, os.path.join(ldir, "indicators.csv"))
        if (level == max_levels - 1 or system.nU >= max_dofs
                or (target_eta > 0 and total <= target_eta)):
            break
        marked = mark(per_elem, theta)
        if not marked:
            break
        mesh = refine(mesh, marked)
    return records, solutions

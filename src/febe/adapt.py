"""Solve-estimate-mark-refine loop with Doerfler bulk marking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import mesh_size, refine


@dataclass
class AdaptiveRecord:
    level: int
    n_triangles: int
    dofs_interior: int
    h: float
    estimator_total: float
    estimator_parts: dict
    error: float = np.nan
    iterations: int = 0


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
                 error_fn=None):
    """Generic adaptive loop; returns one AdaptiveRecord per level.

    build_fn(mesh, previous) -> CoupledSystem on the (possibly refined) mesh
    solve_fn(system)     -> DiscreteSolution
    estimate_fn(system, sol) -> IndicatorBreakdown
    error_fn(system, sol) -> scalar (optional, for manufactured runs)

    previous is the last level's system (None at level 0), handed forward
    so that the build can reuse what refinement left unchanged: the
    boundary-element integrals of every pair of panels whose start and end
    points are bitwise unchanged, and the whole boundary operator set, S
    included, when no panel changed (bem.assemble_operators).  Only the
    current level is kept: while the next system is built, the previous
    one is the only older level still referenced.
    """
    records = []
    system = None
    for level in range(max_levels):
        system = build_fn(mesh, system)
        sol = solve_fn(system)
        ind = estimate_fn(system, sol)
        per_elem = ind.element_indicator()
        total = ind.total()
        err = float(error_fn(system, sol)) if error_fn else np.nan
        rec = AdaptiveRecord(
            level=level,
            n_triangles=len(mesh.triangles),
            dofs_interior=system.nU,
            h=mesh_size(mesh)[0],
            estimator_total=total,
            estimator_parts={k: ind.term_value(k) for k in ind.parts},
            error=err,
            iterations=sol.iterations)
        records.append(rec)
        if (level == max_levels - 1 or system.nU >= max_dofs
                or (target_eta > 0 and total <= target_eta)):
            break
        marked = mark(per_elem, theta)
        if not marked:
            break
        mesh = refine(mesh, marked)
    return records

"""Run orchestration: config -> solve / adaptive loop / convergence tables."""

from __future__ import annotations

import numpy as np

from . import adapt as adapt_mod
from . import estimate as est
from . import material as mat
from .bem import BoundarySpace
from .config import ConfigError, load_data_file, read_text
from .driver import build_system
from .mesh import load_mesh, mesh_size, refine_uniform
from .presets import MESH_PRESETS, Manufactured, data_from_preset
from .quadrature import QuadratureRule
from .vi import (solve_contact_vi, solve_layerpotential_vi, solve_transmission)


def law_from_config(cfg):
    mode = mat.MODE_MATRIX if cfg["problem"] == "vector" else mat.MODE_VECTOR
    return mat.MaterialLaw(p=cfg["material.p"], delta=cfg["material.delta"], mode=mode)


def exterior_from_config(cfg):
    return mat.ExteriorCoefficients(mu=cfg["exterior.mu"],
                                    lam=cfg["exterior.lambda"])


def mesh_from_config(cfg):
    if cfg["mesh.path"]:
        m = load_mesh(read_text(cfg["mesh.path"], "mesh file"))
    else:
        text = MESH_PRESETS[cfg["mesh.preset"]](cfg["mesh.n"])
        m = load_mesh(text, scale=False)
    return refine_uniform(m, cfg["mesh.refine"])


def manufactured_from_config(cfg, mesh):
    law = law_from_config(cfg)
    if cfg["data.file"]:
        data = load_data_file(cfg["data.file"], BoundarySpace(mesh), law.ncomp)
        return Manufactured(data)
    try:
        return data_from_preset(cfg["data.preset"], law)
    except ValueError as exc:
        raise ConfigError("data.preset: %s" % exc)


def build_from_config(cfg, mesh, previous=None):
    """(system, manufactured data) on mesh; previous as in build_system."""
    law = law_from_config(cfg)
    man = manufactured_from_config(cfg, mesh)
    ncompat = cfg["solver.compat_constraints"]
    ncompat = None if ncompat < 0 else ncompat
    system = build_system(mesh, law, man.data,
                          exterior=exterior_from_config(cfg),
                          ncompat=ncompat,
                          bem_quad=cfg["bem.quad_order"],
                          fem_quad=cfg["fem.quad_order"],
                          previous=previous)
    return system, man


def solve_from_config(cfg, system):
    tol = cfg["solver.tol"] or None
    kw = dict(tol=tol, max_iter=cfg["solver.max_iter"])
    if cfg["solver.formulation"] == "layerpotential":
        return solve_layerpotential_vi(system, stabilized=cfg["solver.stabilized"],
                                       **kw)
    if np.any(system.friction.F > 0) or len(system.slip_nodes):
        return solve_contact_vi(system, **kw)
    return solve_transmission(system, **kw)


def estimate_from_config(cfg, system, sol):
    kind = cfg["estimate.kind"]
    if kind == "auto":
        kind = "lp" if cfg["solver.formulation"] == "layerpotential" else "sp"
    if kind == "sp":
        return est.estimate_sp(system, sol, quad_order=cfg["fem.quad_order"])
    if kind == "lp":
        return est.estimate_lp(system, sol, quad_order=cfg["fem.quad_order"])
    return est.estimate_scalar_appendix(system, sol, delta=cfg["estimate.delta"],
                                        quad_order=cfg["fem.quad_order"])


# -- error measures -----------------------------------------------------------

def gradient_error_lp(system, man, sol, quad_order=6):
    """|| grad (u - u_h) ||_{L^p} (scalar) resp. || eps(u - u_h) ||_{L^p}.

    man.exact_grad supplies the gradient (scalar) or the symmetric strain
    (vector mode).
    """
    if man.exact_grad is None:
        return np.nan
    space = system.space
    mesh = space.mesh
    p = system.law.p
    rule = QuadratureRule(quad_order)
    verts = mesh.vertices[mesh.triangles]
    pts = rule.points(verts)
    nt, nq = pts.shape[:2]
    gex = np.asarray(man.exact_grad(pts.reshape(-1, 2)), dtype=float)
    diff = space.strains(sol.u).reshape(nt, 1, -1) - gex.reshape(nt, nq, -1)
    mag = np.sqrt(np.einsum("tqm,tqm->tq", diff, diff))
    val = np.einsum("tq,q,t->", mag ** p, rule.weights, space.areas)
    return float(val ** (1.0 / p))


def boundary_energy_error(system, man, sol):
    """S_h-energy norm of the boundary trace error <S_h e, e>^(1/2)."""
    if man.exact is None:
        return np.nan
    wex = system.bspace.interpolate_nodes(man.exact, system.d)
    e = sol.w - wex
    return float(np.sqrt(max(e @ (system.S @ e), 0.0)))


# -- convergence study ----------------------------------------------------------

def convergence_study(cfg, levels, mode="uniform"):
    """Table of (h, dofs, errors, estimator totals, observed rates).

    A data file indexes the boundary of one mesh, so a study, whose levels
    refine that mesh, rejects it.
    """
    if cfg["data.file"]:
        raise ConfigError("data.file indexes the boundary of one mesh; "
                          "a study refines it, so it takes data.preset only")
    mesh0 = mesh_from_config(cfg)
    rows = []
    if mode == "uniform":
        mesh = mesh0
        for lvl in range(levels):
            system, man = build_from_config(cfg, mesh)
            sol = solve_from_config(cfg, system)
            ind = estimate_from_config(cfg, system, sol)
            rows.append({
                "level": lvl,
                "h": mesh_size(mesh)[0],
                "dofs": system.nU,
                "err_grad": gradient_error_lp(system, man, sol),
                "err_boundary": boundary_energy_error(system, man, sol),
                "estimator": ind.total(),
            })
            if lvl < levels - 1:
                mesh = refine_uniform(mesh, 2)      # halves h
    elif mode == "adaptive":
        man = manufactured_from_config(cfg, mesh0)
        records = adapt_mod.run_adaptive(
            mesh0, lambda m, prev: build_from_config(cfg, m, prev)[0],
            lambda s: solve_from_config(cfg, s),
            lambda s, sol: estimate_from_config(cfg, s, sol),
            theta=cfg["adapt.theta"], max_dofs=cfg["adapt.max_dofs"],
            target_eta=cfg["adapt.target_eta"], max_levels=levels,
            error_fn=lambda s, sol: gradient_error_lp(s, man, sol))
        for rec in records:
            rows.append({
                "level": rec.level, "h": rec.h, "dofs": rec.dofs_interior,
                "err_grad": rec.error, "err_boundary": np.nan,
                "estimator": rec.estimator_total,
            })
    else:
        raise ConfigError("study mode must be uniform or adaptive")

    # observed rates from consecutive rows (log ratios in h or dofs)
    for k, row in enumerate(rows):
        if k == 0 or not np.isfinite(row["err_grad"]):
            row["rate"] = np.nan
            continue
        prev = rows[k - 1]
        if mode == "uniform":
            row["rate"] = (np.log(prev["err_grad"] / row["err_grad"])
                           / np.log(prev["h"] / row["h"]))
        else:
            row["rate"] = (2 * np.log(prev["err_grad"] / row["err_grad"])
                           / np.log(row["dofs"] / prev["dofs"]))
    return rows


def table_csv(rows, path):
    cols = ["level", "h", "dofs", "err_grad", "err_boundary", "estimator", "rate"]
    out = [",".join(cols)]
    for r in rows:
        out.append(",".join("%.17g" % r.get(c, np.nan)
                            if not isinstance(r.get(c), (int, np.integer))
                            else str(r.get(c)) for c in cols))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")

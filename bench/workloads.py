"""The three benchmark workloads: inputs from a seed, one case, its checks.

Each workload builds its inputs in ``setup`` (timed as set-up), runs one
case in ``run`` (timed as a case) through febe's public functions only,
and verifies the case's outputs in ``check`` (not timed).  Seed 0 is the
pinned input; other seeds jitter the coarse mesh's interior vertices (and,
for the sweep, the exponents) without changing any problem size.
"""

from __future__ import annotations

import os

import numpy as np

from febe import driver, estimate, export, presets, study, vi
from febe import material as mat
from febe import mesh as meshmod
from febe.config import load_config

KKT_MAX = 1e-6                 # largest accepted Tresca KKT residual
PAIR_RTOL = 1e-8               # Steklov vs layer-potential objective
OBJECTIVE_RTOL = 1e-8          # seed-0 objective vs the recorded value
ESTIMATOR_RTOL = 1e-6          # seed-0 estimator total vs the recorded value
JITTER = 0.03                  # interior vertex jitter, in coarse mesh widths
COARSE_WIDTH = 0.1             # cell width of the n=4 square and L-shape presets

# Problem sizes.  "full" is what the benchmark measures; "small" is for the
# harness self-tests.
SIZES = {
    "full": {"sweeps": 5, "levels": 11},
    "small": {"sweeps": 2, "levels": 4},
}
ADAPT_MAX_DOFS = 100000        # the level count stops the adaptive loop
# files written by febe's export functions (the manifest is written here)
EXPORTED = ("solution.vtk", "fields.csv", "cells.csv", "indicators.csv")


def jittered_mesh_text(text, rng):
    """Mesh text with interior vertices moved by up to JITTER * COARSE_WIDTH.

    Boundary vertices stay put, so labels, the boundary loop and the mesh
    sizes are those of the preset.
    """
    lines = text.split("\n")
    nv, nt, nb = (int(s) for s in lines[0].split())
    verts = np.array([[float(s) for s in ln.split()] for ln in lines[1:1 + nv]])
    edges = [ln.split() for ln in lines[1 + nv + nt:1 + nv + nt + nb]]
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[[int(e[i]) for e in edges for i in (0, 1)]] = True
    shift = rng.uniform(-1.0, 1.0, size=verts.shape) * JITTER * COARSE_WIDTH
    verts[~on_boundary] += shift[~on_boundary]
    body = ["%.17g %.17g" % tuple(v) for v in verts]
    return "\n".join([lines[0]] + body + lines[1 + nv:])


def _coarse_mesh(kind, seed):
    if kind == "square-slip":
        text = presets.square_text(4, slip=("b",))
    else:
        text = presets.lshape_text(4)
    if seed == 0:
        return text
    return jittered_mesh_text(text, np.random.default_rng(seed))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def check_solution(label, system, sol):
    """The solver's own acceptance conditions, re-checked from outside."""
    errors = []
    if not sol.converged:
        errors.append("%s: not converged" % label)
    kkt = max(vi.kkt_residuals(sol, system).values())
    if not kkt <= KKT_MAX:
        errors.append("%s: KKT residual %.3e > %.0e" % (label, kkt, KKT_MAX))
    # the solver's default tolerance and residual scale
    tol = vi.default_tolerance(system.law)
    scale = max(1.0, np.abs(system.gb).max(), np.abs(system.b_f).max())
    margin = vi.vi_certificate(system, sol)
    if not margin >= -100 * tol * scale:
        errors.append("%s: VI certificate %.3e < %.3e"
                      % (label, margin, -100 * tol * scale))
    return errors


def _close(label, value, ref, rtol):
    if abs(value - ref) <= rtol * abs(ref):
        return []
    return ["%s %.17g differs from the recorded %.17g (rtol %.0e)"
            % (label, value, ref, rtol)]


class Workload:
    name = ""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def setup(self):
        """Build the case inputs from the seed (timed as set-up)."""

    def run(self):
        """One case; returns the facts that ``check`` and the metrics use."""
        raise NotImplementedError

    def check(self, info, reference):
        """List of failed checks; ``reference`` is used for seed 0 only."""
        raise NotImplementedError

    def recorded(self, info):
        """The values that ``check`` compares against a reference."""
        raise NotImplementedError


class PipelineTransition(Workload):
    """The calls `febe solve` makes, mesh refinement and export included."""

    name = "pipeline-transition"

    def setup(self):
        mesh_path = os.path.join(self.workdir, "coarse.mesh")
        _write(mesh_path, _coarse_mesh("square-slip", self.seed))
        cfg_path = os.path.join(self.workdir, "run.cfg")
        _write(cfg_path, "\n".join([
            "problem = scalar",
            "material.p = 1.5",
            "mesh.path = %s" % mesh_path,
            "mesh.refine = %d" % self.size["sweeps"],
            "data.preset = transition",
            "solver.formulation = steklov",
            "out.dir = %s" % os.path.join(self.workdir, "case"),
        ]) + "\n")
        self.cfg = load_config(cfg_path).validate()

    def run(self):
        cfg = self.cfg
        case_dir = cfg["out.dir"]
        mesh = study.mesh_from_config(cfg)
        system, _ = study.build_from_config(cfg, mesh)
        sol = study.solve_from_config(cfg, system)
        ind = study.estimate_from_config(cfg, system, sol)
        os.makedirs(case_dir, exist_ok=True)
        export.export_fields(sol, system, case_dir,
                             indicators=ind.element_indicator())
        estimate.indicators_csv(ind, os.path.join(case_dir, "indicators.csv"))
        total = ind.total()
        _write(os.path.join(case_dir, "manifest.txt"), cfg.manifest({
            "scale_factor": mesh.scale_factor,
            "estimator_total": "%.17g" % total,
            "objective": "%.17g" % sol.objective,
            "iterations": sol.iterations,
        }))
        vi.kkt_residuals(sol, system)
        return {"system": system, "sol": sol, "estimator": total,
                "exported": [os.path.join(case_dir, f) for f in EXPORTED]}

    def check(self, info, reference):
        errors = check_solution("p=1.5 transition", info["system"], info["sol"])
        if not (np.isfinite(info["estimator"]) and info["estimator"] > 0):
            errors.append("estimator total %r is not positive" % info["estimator"])
        if reference is not None:
            errors += _close("objective", info["sol"].objective,
                             reference["objective"], OBJECTIVE_RTOL)
            errors += _close("estimator total", info["estimator"],
                             reference["estimator"], ESTIMATOR_RTOL)
        return errors

    def recorded(self, info):
        return {"objective": info["sol"].objective,
                "estimator": info["estimator"]}


class ContactSweep(Workload):
    """build_system plus a solve for four parameter sets on one mesh."""

    name = "contact-sweep"

    def setup(self):
        text = _coarse_mesh("square-slip", self.seed)
        self.mesh = meshmod.refine_uniform(meshmod.load_mesh(text, scale=False),
                                           self.size["sweeps"])
        if self.seed == 0:
            p_lo, p_hi = 1.2, 4.0
        else:
            u = np.random.default_rng(self.seed + 1000).uniform(size=2)
            p_lo, p_hi = 1.2 + 0.05 * u[0], 4.0 - 0.1 * u[1]
        self.params = [
            ("transition p=%.4g steklov" % p_lo, p_lo, "transition", "steklov"),
            ("transition p=%.4g steklov" % p_hi, p_hi, "transition", "steklov"),
            ("stick-vec p=2 steklov", 2.0, "stick-vec", "steklov"),
            ("stick-vec p=2 layerpotential", 2.0, "stick-vec", "layerpotential"),
        ]

    def run(self):
        solved = []
        for label, p, preset, formulation in self.params:
            mode = mat.MODE_MATRIX if preset.endswith("-vec") else mat.MODE_VECTOR
            law = mat.MaterialLaw(p=p, mode=mode)
            man = presets.data_from_preset(preset, law)
            system = driver.build_system(self.mesh, law, man.data)
            if formulation == "steklov":
                sol = vi.solve_contact_vi(system)
            else:
                sol = vi.solve_layerpotential_vi(system)
            solved.append((label, system, sol))
        return {"solved": solved}

    def check(self, info, reference):
        errors = []
        for label, system, sol in info["solved"]:
            errors += check_solution(label, system, sol)
        sp_obj = info["solved"][2][2].objective
        lp_obj = info["solved"][3][2].objective
        errors += _close("stick-vec layer-potential objective", lp_obj,
                         sp_obj, PAIR_RTOL)
        if reference is not None:
            for (label, _, sol), ref in zip(info["solved"],
                                            reference["objectives"]):
                errors += _close(label + " objective", sol.objective, ref,
                                 OBJECTIVE_RTOL)
        return errors

    def recorded(self, info):
        return {"objectives": [sol.objective for _, _, sol in info["solved"]]}


class AdaptCorner(Workload):
    """convergence_study(..., "adaptive") on the L-shape corner problem."""

    name = "adapt-corner"

    def setup(self):
        mesh_path = os.path.join(self.workdir, "coarse.mesh")
        _write(mesh_path, _coarse_mesh("lshape", self.seed))
        cfg_path = os.path.join(self.workdir, "run.cfg")
        _write(cfg_path, "\n".join([
            "problem = scalar",
            "material.p = 2.0",
            "mesh.path = %s" % mesh_path,
            "data.preset = corner",
            "adapt.theta = 0.5",
            "adapt.max_dofs = %d" % ADAPT_MAX_DOFS,
        ]) + "\n")
        self.cfg = load_config(cfg_path).validate()

    def run(self):
        rows = study.convergence_study(self.cfg, self.size["levels"], "adaptive")
        return {"rows": rows, "levels": len(rows), "final_dofs": rows[-1]["dofs"],
                "dofs": [int(r["dofs"]) for r in rows],
                "estimator": rows[-1]["estimator"]}

    def check(self, info, reference):
        errors = []
        rows = info["rows"]
        if len(rows) != self.size["levels"]:
            errors.append("%d adaptive levels, expected %d"
                          % (len(rows), self.size["levels"]))
        if any(b <= a for a, b in zip(info["dofs"], info["dofs"][1:])):
            errors.append("dofs do not grow: %s" % info["dofs"])
        for r in rows:
            if not (np.isfinite(r["estimator"]) and r["estimator"] > 0
                    and np.isfinite(r["err_grad"])):
                errors.append("level %d: estimator %r, error %r"
                              % (r["level"], r["estimator"], r["err_grad"]))
        if rows[-1]["err_grad"] >= rows[0]["err_grad"]:
            errors.append("error did not decrease under refinement")
        if reference is not None:
            if info["dofs"] != reference["dofs"]:
                errors.append("dof sequence %s differs from the recorded %s"
                              % (info["dofs"], reference["dofs"]))
            errors += _close("final estimator total", info["estimator"],
                             reference["estimator"], ESTIMATOR_RTOL)
        return errors

    def recorded(self, info):
        return {"dofs": info["dofs"], "estimator": info["estimator"]}


WORKLOADS = {w.name: w for w in (PipelineTransition, ContactSweep, AdaptCorner)}

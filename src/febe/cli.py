"""Command line interface: solve, study, oracle, export."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import estimate as est
from .config import ConfigError, load_config
from .export import export_fields
from .mesh import MeshError
from .oracle import OracleError, oracle_vi
from .study import (build_from_config, convergence_study, estimate_from_config,
                    mesh_from_config, solve_from_config, table_csv)
from .vi import SolverError, kkt_residuals


def _out_dir(cfg, dest=""):
    """The output directory, dest or else out.dir (under $FEBE_OUT if set).
    A path that is, or lies under, something other than a directory is a
    ConfigError, raised before anything is built."""
    root = os.environ.get("FEBE_OUT", "")
    out = dest or (os.path.join(root, cfg["out.dir"]) if root else cfg["out.dir"])
    probe = os.path.abspath(out)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError("output path %s: %s exists and is not a directory" % (out, probe))
    return out


def _write_manifest(cfg, directory, extra):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write(cfg.manifest(extra))


def _apply_overrides(cfg, args):
    if getattr(args, "mesh", ""):
        cfg.values["mesh.path"] = args.mesh
    return cfg.validate()


def cmd_solve(args):
    cfg = _apply_overrides(load_config(args.config), args)
    out = _out_dir(cfg)
    mesh = mesh_from_config(cfg)
    system, man = build_from_config(cfg, mesh)
    if args.check_compat:
        res = np.abs(system.compat_data_residual).max()
        if res > 1e-8:
            print("warning: data compatibility residual int f + <t0,1> = %.3e"
                  % res)
        else:
            print("data compatibility residual %.3e" % res)
    sol = solve_from_config(cfg, system)
    ind = estimate_from_config(cfg, system, sol)
    os.makedirs(out, exist_ok=True)
    if cfg["bem.dump"]:
        system.ops.dump_csv(os.path.join(out, "operators"))
    export_fields(sol, system, out, indicators=ind.element_indicator())
    est.indicators_csv(ind, os.path.join(out, "indicators.csv"))
    _write_manifest(cfg, out, {
        "scale_factor": mesh.scale_factor,
        "estimator_total": "%.17g" % ind.total(),
        "objective": "%.17g" % sol.objective,
        "iterations": sol.iterations,
    })
    kkt = kkt_residuals(sol, system)
    print("solve: dofs=%d estimator=%.6e iterations=%d"
          % (system.nU, ind.total(), sol.iterations))
    print("kkt residuals: " + " ".join("%s=%.2e" % kv for kv in kkt.items()))
    return 0


def cmd_study(args):
    cfg = _apply_overrides(load_config(args.config), args)
    out = _out_dir(cfg)
    rows = convergence_study(cfg, args.levels, mode=args.mode)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "convergence_%s.csv" % args.mode)
    table_csv(rows, path)
    _write_manifest(cfg, out, {"study_mode": args.mode, "levels": args.levels})
    for r in rows:
        print("level %d: h=%.4e dofs=%d err=%.6e eta=%.6e rate=%s"
              % (r["level"], r["h"], r["dofs"], r["err_grad"], r["estimator"],
                 ("%.2f" % r["rate"]) if np.isfinite(r.get("rate", np.nan)) else "-"))
    return 0


def cmd_oracle(args):
    cfg = _apply_overrides(load_config(args.config), args)
    mesh = mesh_from_config(cfg)
    system, man = build_from_config(cfg, mesh)
    sol = solve_from_config(cfg, system)
    try:
        val, x = oracle_vi(system)
    except OracleError as exc:
        print("oracle unavailable: %s" % exc)
        return 2
    gap = sol.objective - val
    print("solver objective %.12e | oracle %.12e | gap %.3e"
          % (sol.objective, val, gap))
    return 0 if abs(gap) <= 1e-8 * max(1.0, abs(val)) else 1


def cmd_export(args):
    cfg = _apply_overrides(load_config(args.config), args)
    out = _out_dir(cfg, args.dest)
    mesh = mesh_from_config(cfg)
    system, man = build_from_config(cfg, mesh)
    sol = solve_from_config(cfg, system)
    ind = estimate_from_config(cfg, system, sol)
    path = export_fields(sol, system, out, indicators=ind.element_indicator())
    print("wrote %s" % path)
    return 0


def _positive_int(text):
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return int(text)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="febe",
                                 description="FE-BE coupled contact solver")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("solve", help="single solve with estimator output")
    p.add_argument("--config", required=True)
    p.add_argument("--mesh", default="", help="mesh file overriding the config")
    p.add_argument("--check-compat", action="store_true")
    p.set_defaults(fn=cmd_solve)
    p = sub.add_parser("study", help="convergence study")
    p.add_argument("--config", required=True)
    p.add_argument("--mesh", default="")
    p.add_argument("--levels", type=_positive_int, default=4)
    p.add_argument("--mode", choices=("uniform", "adaptive"), default="uniform")
    p.set_defaults(fn=cmd_study)
    p = sub.add_parser("oracle", help="compare against the enumeration oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--mesh", default="")
    p.set_defaults(fn=cmd_oracle)
    p = sub.add_parser("export", help="write VTK/CSV fields")
    p.add_argument("--config", required=True)
    p.add_argument("--mesh", default="")
    p.add_argument("--dest", default="")
    p.set_defaults(fn=cmd_export)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except MeshError as exc:
        print("mesh error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

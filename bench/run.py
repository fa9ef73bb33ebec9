"""Run one febe benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload pipeline-transition --seed 0 \
        --seconds 30 --trace 0

Cases of the workload run back to back in one process (a closed loop with
one client) until the next case would end after ``--seconds``.  Every case
is checked; a case that raises or fails a check counts as failed.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` cases alternate between untraced and traced
(see ``spans.py``) and the JSON object holds the per-layer metrics.

Times are reported at a reference machine speed: a fixed calibration job
that does not touch febe runs before set-up, after set-up and after every
case, and each measured time is multiplied by ``CAL_REF_S`` over the mean of
the calibrations around it.  Shared machines change speed by tens of percent
from minute to minute; the scaling takes that out and leaves febe's own
changes in.  The raw wall times are printed too.

Run from the repository root; the package is imported from ``src/``, and
every file the run writes goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CAL_REF_S = 0.035      # calibrate() on an idle core of a 2 GHz Xeon (x86_64)
UNITS = {"peak_rss_mb": "MB", "export.bytes": "bytes",
         "vi.evals_per_step": "evals/step",
         "bem.eval_points_per_call": "points/call"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") or name == "estimate.s" else "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (>= 0); 0 is the pinned input")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="problem size; small is for the harness self-tests")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="recorded seed-0 values checked on seed 0")
    ap.add_argument("--record", action="store_true",
                    help="run one seed-0 case and store its values as the "
                         "reference instead of benchmarking")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def calibrate():
    """Time a fixed piece of work that does not touch febe.

    It mixes what a febe case spends its time on: a Python loop over small
    numpy arrays, a sparse LU solve and a dense Cholesky factorization.
    Its duration tracks how fast the machine runs at that moment.
    """
    import numpy as np
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t = time.perf_counter()
    x = np.linspace(0.0, 1.0, 24)
    acc = 0.0
    for k in range(2000):
        y = np.log(np.abs(x - 0.5 + 1e-3 * k) + 1.0) * np.arctan2(x, 1.0 + k)
        acc += float(np.einsum("i,i->", y, x))
    n = 40
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lap = (sp.kron(lap1, sp.identity(n)) + sp.kron(sp.identity(n), lap1)).tocsc()
    for _ in range(3):
        spla.spsolve(lap, np.ones(n * n))
    a = np.random.default_rng(0).standard_normal((160, 160))
    spd = a @ a.T + 160.0 * np.eye(160)
    for _ in range(10):
        sla.cho_solve(sla.cho_factor(spd), np.ones(160))
    return time.perf_counter() - t


def environment(nproc, cpu):
    import numpy
    import scipy
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def load_reference(path, workload, size):
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(size)


def store_reference(path, workload, size, values):
    data = {}
    if path.exists():
        with open(path) as fh:
            data = json.load(fh)
    data.setdefault(workload, {})[size] = values
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def export_bytes(info):
    return sum(os.path.getsize(f) for f in info.get("exported", ()))


def median(xs):
    return statistics.median(xs) if xs else None


def main(argv=None):
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    if not (SRC / "febe" / "__init__.py").is_file():
        print("febe sources not found under %s" % SRC, file=sys.stderr)
        return 2
    # one core for the whole run, so calibrations and cases share its speed
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads                       # imports febe, numpy and scipy
    import_s = time.perf_counter() - t0
    import febe
    import spans
    if not Path(febe.__file__).resolve().is_relative_to(SRC.resolve()):
        print("imported febe from %s, not %s" % (febe.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    env = environment(len(cpus), min(cpus))
    workdir = OUT / args.workload

    # set-up: import once, build the inputs several times, keep the median
    cal = calibrate()
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        work = workloads.WORKLOADS[args.workload](args.seed, args.size,
                                                  str(workdir))
        work.setup()
        builds.append(time.perf_counter() - t)
    cal_after = calibrate()
    setup_wall = import_s + statistics.median(builds)
    setup_s = setup_wall * CAL_REF_S / (0.5 * (cal + cal_after))
    cal = cal_after

    if args.record:
        if args.seed != 0:
            print("--record needs --seed 0", file=sys.stderr)
            return 2
        values = work.recorded(work.run())
        store_reference(args.reference, args.workload, args.size, values)
        print(json.dumps(values))
        return 0
    reference = (load_reference(args.reference, args.workload, args.size)
                 if args.seed == 0 else None)
    if args.seed == 0 and reference is None:
        print("no recorded reference for %s/%s" % (args.workload, args.size),
              file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}       # passed cases' wall times by traced
    speeds = {False: [], True: []}      # CAL_REF_S / calibration around them
    cals = [cal]
    failures = []
    attempted = 0
    info = None
    min_cases = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    while True:
        done = walls[False] + walls[True]
        if attempted >= min_cases and (
                not done
                or time.perf_counter() + statistics.median(done) > deadline):
            break
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            if traced:
                with tracer.installed(), tracer.case_span(attempted) as root:
                    info = work.run()
                elapsed = root.duration
            else:
                t = time.perf_counter()
                info = work.run()
                elapsed = time.perf_counter() - t
            errors = work.check(info, reference)
        except Exception as exc:   # a raising case is counted, not fatal
            errors = ["%s: %s" % (type(exc).__name__, exc)]
        cals.append(calibrate())
        if errors:
            failures.append("case %d: %s" % (attempted, "; ".join(errors)))
            continue
        walls[traced].append(elapsed)
        speeds[traced].append(CAL_REF_S / (0.5 * (cals[-2] + cals[-1])))

    scaled = {k: [w * s for w, s in zip(walls[k], speeds[k])] for k in walls}
    if tracer is None:
        metrics = {
            "case_s": median(scaled[False]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        # per-case means over the traced cases, at the reference speed
        speed = statistics.mean(speeds[True]) if speeds[True] else 1.0
        metrics = {k: v * speed if unit_of(k) == "s" else v
                   for k, v in tracer.summary().items()}
        metrics["trace.overhead_s"] = (
            median(scaled[True]) - median(scaled[False])
            if scaled[True] and scaled[False] else None)
        metrics["adapt.levels"] = info.get("levels", 0) if info else 0
        metrics["adapt.final_dofs"] = info.get("final_dofs", 0) if info else 0
        metrics["export.bytes"] = export_bytes(info) if info else 0
        tracer.dump(workdir / ("trace-seed%d.json" % args.seed),
                    {"workload": args.workload, "seed": args.seed,
                     "speed": speed, **env})

    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    with open(workdir / ("result-seed%d-trace%d.json" % (args.seed, args.trace)),
              "w") as fh:
        json.dump({"env": env, "args": {k: str(v) for k, v in vars(args).items()},
                   "import_s": import_s, "setup_builds_s": builds,
                   "setup_wall_s": setup_wall, "calibration_s": cals,
                   "case_wall_s": walls[False], "case_scaled_s": scaled[False],
                   "traced_wall_s": walls[True], "failures": failures,
                   **result}, fh, indent=1)

    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    print("# %s seed=%d size=%s trace=%d | nproc=%d python=%s numpy=%s "
          "scipy=%s blas_threads=%d"
          % (args.workload, args.seed, args.size, args.trace, env["nproc"],
             env["python"], env["numpy"], env["scipy"], env["blas_threads"]))
    print("# cases: %d attempted, %d failed, failed_frac=%.4g, %d untraced, "
          "%d traced" % (attempted, failed, failed / attempted,
                         len(walls[False]), len(walls[True])))
    print("# wall time: set-up %.4g s, untraced case median %s s; "
          "calibration median %.4g s (reference %g s)"
          % (setup_wall, median(walls[False]), statistics.median(cals),
             CAL_REF_S))
    for k, v in result["metrics"].items():
        print("%-28s %s %s" % (k, v["value"], v["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

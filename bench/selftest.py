"""Self-tests of the benchmark harness, at small size (about half a minute).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced layers' self times add up to the traced case time, that a
wrong recorded reference makes cases fail, and that the benchmark refuses
to run without the febe sources.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"


def run(*args, cwd=ROOT, runner=None):
    cmd = [sys.executable, str(runner or HERE / "run.py"), "--size", "small",
           "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def expect(cond, what, proc=None):
    if not cond:
        detail = "\n" + proc.stdout[-3000:] + proc.stderr[-3000:] if proc else ""
        raise SystemExit("selftest FAILED: %s%s" % (what, detail))


def check_metrics(proc, result, declared, label):
    expect(result is not None, label + ": no result line", proc)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           label + ": cases failed", proc)
    got = result["metrics"]
    expect(set(got) == set(declared),
           "%s: metrics %s, BENCHMARK.json names %s"
           % (label, sorted(got), sorted(declared)), proc)
    report = proc.stdout.splitlines()[:-1]
    for name, unit in declared.items():
        entry = got[name]
        expect(entry["unit"] == unit and isinstance(entry["value"], (int, float)),
               "%s: %s is %r, declared unit %s" % (label, name, entry, unit), proc)
        expect(any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                   for ln in report),
               "%s: %s not printed with its unit" % (label, name), proc)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        proc, result = run("--workload", name, "--seed", "3", "--trace", "0")
        check_metrics(proc, result, end_to_end, name + " untraced")
        proc, result = run("--workload", name, "--seed", "0", "--trace", "1")
        check_metrics(proc, result, per_layer, name + " traced")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        expect(abs(layers - m["trace.case_s"]) <= 1e-9 * m["trace.case_s"],
               "%s: layer self times sum to %r, traced case_s is %r"
               % (name, layers, m["trace.case_s"]), proc)
        print("ok  %s: metrics, units, self-time sum" % name)

    SCRATCH.mkdir(parents=True, exist_ok=True)
    wrong = json.loads((HERE / "reference.json").read_text())
    wrong["pipeline-transition"]["small"]["objective"] *= 1 + 1e-6
    wrong_path = SCRATCH / "wrong-reference.json"
    wrong_path.write_text(json.dumps(wrong))
    proc, result = run("--workload", "pipeline-transition", "--seed", "0",
                       "--reference", str(wrong_path))
    expect(result is not None and not result["correct"]
           and result["failed"] / result["attempted"] > 0,
           "a wrong reference objective did not fail the cases", proc)
    print("ok  wrong reference value: failed_frac = %d/%d"
          % (result["failed"], result["attempted"]))

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("--workload", "pipeline-transition", "--seed", "1",
                       cwd=bare, runner=bare / HERE.name / "run.py")
    expect(proc.returncode != 0 and result is None,
           "the benchmark ran without the febe sources", proc)
    shutil.rmtree(bare)
    print("ok  refuses to run without src/febe (exit %d)" % proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())

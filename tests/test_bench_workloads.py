"""The benchmark workloads run and pass their checks at seed 0, both sizes.

Seed 0 compares against the values recorded in bench/reference.json, so a
change that moves an objective, an estimator total or the adaptive dof
sequence fails here as well as in the benchmark.
"""

import importlib.util
import json
import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("size", ["small", "full"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(name, size, tmp_path):
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)[name][size]
    work = WORKLOADS[name](0, size, str(tmp_path))
    work.setup()
    assert work.check(work.run(), reference) == []


def test_workload_online_sets_need_no_coordinate_scaling(tmp_path, monkeypatch):
    # on every mesh of the three workloads at seed 0, each point the BEM
    # on-line test puts on the line lies within 1e-12 L of it, as before
    # the test scaled with the coordinates
    from conftest import record_online_mismatches
    rows, seen = record_online_mismatches(monkeypatch)
    for name in sorted(WORKLOADS):
        work = WORKLOADS[name](0, "full", str(tmp_path / name))
        work.setup()
        work.run()
    assert seen[0] > 0 and rows == []

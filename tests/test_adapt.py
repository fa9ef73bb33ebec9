import gc
import weakref

import numpy as np
import pytest

from febe import material as mat, presets
from febe.adapt import AdaptiveRecord, mark, run_adaptive
from febe.config import RunConfig
from febe.driver import build_system
from febe.estimate import estimate_sp
from febe.mesh import load_mesh
from febe.study import convergence_study
from febe.vi import solve_contact_vi, solve_transmission

from conftest import loop_mark


def test_mark_theta_one_takes_all_nonzero():
    vals = np.array([0.5, 0.0, 0.2, 0.3])
    got = mark(vals, 1.0)
    assert sorted(got) == [0, 2, 3]


def test_mark_dominant_element():
    vals = np.array([0.99, 0.0025, 0.0025, 0.0025, 0.0025])
    assert mark(vals, 0.5) == [0]


def test_mark_uniform_half():
    for N in (4, 7, 10):
        vals = np.ones(N)
        assert len(mark(vals, 0.5)) == int(np.ceil(N / 2))


def test_mark_validates_theta():
    with pytest.raises(ValueError):
        mark(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        mark(np.ones(3), 1.5)


def test_mark_matches_greedy_loop():
    # random, tied (few distinct values) and zero- or negative-padded
    # indicators, at theta 1, 0.5 and random fractions
    rng = np.random.default_rng(3)
    for case in range(3000):
        n = int(rng.integers(0, 40))
        kind = case % 3
        if kind == 0:
            vals = rng.exponential(size=n) ** 3
        elif kind == 1:
            vals = rng.integers(0, 4, size=n) * 0.1
        else:
            vals = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
            vals[rng.random(n) < 0.1] *= -1.0
        theta = float(rng.choice([1.0, 0.5, rng.uniform(1e-3, 1.0)]))
        assert mark(vals, theta) == loop_mark(vals, theta)
    # a running sum equal to the threshold stops the marking there
    vals = np.array([0.3, 0.2, 0.5, 0.0])
    theta = 0.5 + 1e-15
    assert theta * vals.sum() - 1e-15 * vals.sum() == 0.5
    assert mark(vals, theta) == loop_mark(vals, theta) == [2]


def _loop(max_dofs, theta=0.5, max_levels=6):
    law = mat.MaterialLaw(p=2.0)
    mesh = load_mesh(presets.square_text(2), scale=False)

    def build_fn(m, previous):
        return build_system(m, law, presets.scalar_quadratic(law).data,
                            previous=previous)

    return run_adaptive(mesh, build_fn, solve_transmission,
                        estimate_sp, theta=theta, max_dofs=max_dofs,
                        max_levels=max_levels)


def test_zero_dof_budget_single_record():
    records = _loop(max_dofs=0)
    assert len(records) == 1
    assert records[0].level == 0


def test_adaptive_estimator_decreases():
    records = _loop(max_dofs=800, max_levels=8)
    totals = [r.estimator_total for r in records]
    assert len(records) >= 4
    assert totals[-1] < totals[0]
    dofs = [r.dofs_interior for r in records]
    assert all(b >= a for a, b in zip(dofs, dofs[1:]))
    levels = [r.level for r in records]
    assert levels == sorted(set(levels))


def test_adaptive_deterministic():
    rec_a = _loop(max_dofs=300, max_levels=5)
    rec_b = _loop(max_dofs=300, max_levels=5)
    assert len(rec_a) == len(rec_b)
    for a, b in zip(rec_a, rec_b):
        assert a.n_triangles == b.n_triangles
        assert a.estimator_total == pytest.approx(b.estimator_total, rel=1e-12)


def test_adaptive_loop_holds_one_level():
    # while level k is built, no system older than level k - 1 is alive
    law = mat.MaterialLaw(p=2.0)
    mesh = load_mesh(presets.square_text(2), scale=False)
    refs = []
    alive_at_build = []

    def build_fn(m, previous):
        gc.collect()
        alive_at_build.append([k for k, r in enumerate(refs) if r() is not None])
        system = build_system(m, law, presets.scalar_quadratic(law).data,
                              previous=previous)
        refs.append(weakref.ref(system))
        return system

    records = run_adaptive(mesh, build_fn, solve_transmission, estimate_sp,
                           theta=0.5, max_dofs=10**6, max_levels=5)
    assert isinstance(records, list) and len(records) == 5
    assert all(isinstance(r, AdaptiveRecord) for r in records)
    assert [r.level for r in records] == list(range(5))
    assert alive_at_build == [[]] + [[k - 1] for k in range(1, 5)]


def test_adaptive_loop_with_contact():
    law = mat.MaterialLaw(p=2.0)
    mesh = load_mesh(presets.square_text(4, slip=("b",)), scale=False)

    def build_fn(m, previous):
        return build_system(m, law, presets.scalar_transition(law).data,
                            previous=previous)

    records = run_adaptive(mesh, build_fn, solve_contact_vi,
                           estimate_sp, theta=0.5, max_dofs=400,
                           max_levels=8)
    assert len(records) >= 3
    assert records[-1].estimator_total < records[0].estimator_total
    # per-level outputs carry friction terms
    assert "friction_sigma_t_excess" in records[0].estimator_parts


def test_target_eta_stops_early():
    records = _loop(max_dofs=10**6, max_levels=8)
    big_eta = records[0].estimator_total * 2
    law = mat.MaterialLaw(p=2.0)
    mesh = load_mesh(presets.square_text(2), scale=False)

    def build_fn(m, previous):
        return build_system(m, law, presets.scalar_quadratic(law).data,
                            previous=previous)

    recs = run_adaptive(mesh, build_fn, solve_transmission, estimate_sp,
                        theta=0.5, max_dofs=10**6, target_eta=big_eta,
                        max_levels=8)
    assert len(recs) == 1


def test_no_refinement_after_last_level(monkeypatch):
    from febe import adapt
    calls = []
    refine = adapt.refine

    def counting(mesh, marked):
        calls.append(len(marked))
        return refine(mesh, marked)

    monkeypatch.setattr(adapt, "refine", counting)
    records = _loop(max_dofs=10**6, max_levels=3)
    assert len(records) == 3
    assert len(calls) == 2


def test_loop_stops_when_nothing_is_marked(monkeypatch):
    # every indicator of the first level is zero, so mark returns [] and
    # the loop stops after that level, although the dof budget and the
    # level count would allow more, without refining
    from dataclasses import replace

    from febe import adapt
    refined = []
    monkeypatch.setattr(adapt, "refine", lambda mesh, marked: refined.append(marked) or mesh)

    def zero_estimate(system, sol):
        ind = estimate_sp(system, sol)
        zero = lambda terms: {k: np.zeros_like(v) for k, v in terms.items()}
        return replace(ind, parts=dict.fromkeys(ind.parts, 0.0),
                       element_terms=zero(ind.element_terms),
                       edge_terms=zero(ind.edge_terms),
                       boundary_terms=zero(ind.boundary_terms))

    law = mat.MaterialLaw(p=2.0)
    mesh = load_mesh(presets.square_text(2), scale=False)

    def build_fn(m, previous):
        return build_system(m, law, presets.scalar_quadratic(law).data, previous=previous)

    records = run_adaptive(mesh, build_fn, solve_transmission, zero_estimate,
                           theta=0.5, max_dofs=10**6, max_levels=6)
    assert len(records) == 1 and records[0].estimator_total == 0.0
    assert refined == []


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_adaptivity_pays_off_on_friction(p):
    # the paper's comparison at equal dofs, at the stick/slip transition:
    # adaptive eta at no more dofs than the last uniform level lies below
    # the uniform eta there
    cfg = RunConfig()
    cfg.values.update({"data.preset": "transition", "mesh.preset": "square-slip",
                       "mesh.n": 4, "material.p": p, "adapt.theta": 0.5,
                       "adapt.max_dofs": 289})
    uniform = convergence_study(cfg, 3, "uniform")[-1]
    assert uniform["dofs"] == 289
    rows = convergence_study(cfg, 40, "adaptive")
    assert rows[-1]["dofs"] >= uniform["dofs"]      # the dof budget stopped it
    adaptive = [r for r in rows if r["dofs"] <= uniform["dofs"]][-1]
    assert adaptive["estimator"] < uniform["estimator"]

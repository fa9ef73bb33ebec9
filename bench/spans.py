"""In-memory span tracer that wraps febe's public functions from outside.

Nothing in ``src/febe`` is changed: while a ``Tracer`` is installed, every
module attribute (in the ``febe`` package, plus ``scipy.sparse.linalg``)
that is bound to one of the traced callables is replaced by a wrapper that
records a span ``(name, start, end, parent, case)``.  Spans are recorded
only inside a case (``Tracer.case``), so correctness checks made between
cases are not traced.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name, layer); the span name is what the
# metrics refer to, the layer is the febe module that owns the work.
TRACED = [
    ("febe.mesh", "load_mesh", "load_mesh", "mesh"),
    ("febe.mesh", "refine", "refine", "mesh"),
    ("febe.mesh", "refine_uniform", "refine_uniform", "mesh"),
    ("febe.mesh", "mesh_size", "mesh_size", "mesh"),
    ("febe.material", "stress", "stress", "material"),
    ("febe.material", "tangent_coeffs", "tangent_coeffs", "material"),
    ("febe.material", "potential", "potential", "material"),
    ("febe.fem", "FESpace.__init__", "FESpace", "fem"),
    ("febe.fem", "assemble_residual", "assemble_residual", "fem"),
    ("febe.fem", "assemble_tangent", "assemble_tangent", "fem"),
    ("febe.fem", "assemble_load", "assemble_load", "fem"),
    ("febe.fem", "energy", "energy", "fem"),
    ("febe.bem", "BoundarySpace.__init__", "BoundarySpace", "bem"),
    ("febe.bem", "assemble_operators", "assemble_operators", "bem"),
    ("febe.bem", "BoundaryOperators.steklov_poincare", "steklov_poincare", "bem"),
    ("febe.bem", "eval_single_layer", "eval_single_layer", "bem"),
    ("febe.bem", "eval_double_layer_pv", "eval_double_layer_pv", "bem"),
    ("febe.vi", "CoupledSystem.__init__", "CoupledSystem", "vi"),
    ("febe.vi", "CoupledSystem.objective", "objective", "vi"),
    ("febe.vi", "solve_contact_vi", "solve_contact_vi", "vi"),
    ("febe.vi", "solve_layerpotential_vi", "solve_layerpotential_vi", "vi"),
    ("febe.vi", "solve_transmission", "solve_transmission", "vi"),
    ("febe.vi", "vi_certificate", "vi_certificate", "vi"),
    ("scipy.sparse.linalg", "spsolve", "spsolve", "vi"),
    ("febe.estimate", "estimate_sp", "estimate_sp", "estimate"),
    ("febe.estimate", "estimate_lp", "estimate_lp", "estimate"),
    ("febe.adapt", "run_adaptive", "run_adaptive", "adapt"),
    ("febe.adapt", "mark", "mark", "adapt"),
    ("febe.export", "export_fields", "export_fields", "export"),
    ("febe.estimate", "indicators_csv", "indicators_csv", "export"),
    ("febe.driver", "build_system", "build_system", "study"),
    ("febe.study", "convergence_study", "convergence_study", "study"),
]

LAYERS = ["mesh", "bem", "material", "fem", "vi", "estimate", "adapt",
          "export", "study"]
ROOT = "case"                     # the benchmark's own span around one case
LAYER_OF = {name: layer for _, _, name, layer in TRACED}
LAYER_OF[ROOT] = "study"
SOLVERS = ("solve_contact_vi", "solve_layerpotential_vi", "solve_transmission")


def _points(args, kwargs):
    """Observation points passed to eval_single_layer / eval_double_layer_pv."""
    X = kwargs.get("X", args[3] if len(args) > 3 else None)
    return len(np.atleast_2d(X)) if X is not None else 0


# extra facts recorded on a span: name -> fn(args, kwargs, result)
_FACTS = {
    "FESpace": lambda a, k, r: {"triangles": len(a[1].triangles)},
    "BoundarySpace": lambda a, k, r: {"panels": int(a[0].n_panels)},
    "eval_single_layer": lambda a, k, r: {"points": _points(a, k)},
    "eval_double_layer_pv": lambda a, k, r: {"points": _points(a, k)},
    "solve_contact_vi": lambda a, k, r: {"iterations": int(r.iterations)},
    "solve_layerpotential_vi": lambda a, k, r: {"iterations": int(r.iterations)},
    "solve_transmission": lambda a, k, r: {"iterations": int(r.iterations)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "error", "facts")

    def __init__(self, name, parent, case):
        self.name = name
        self.parent = parent
        self.case = case
        self.start = self.end = 0.0
        self.error = None
        self.facts = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []
        self._patches = []        # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.case)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.case is None:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._exit(span)
            if facts is not None:
                span.facts = facts(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def case_span(self, case_id):
        """Root span of one case; its duration is the traced case time."""
        self.case = case_id
        span = self._enter(ROOT)
        try:
            yield span
        finally:
            self._exit(span)
            self.case = None

    # -- installation -----------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "febe" or k.startswith("febe."))]
        for modname, path, name, _ in TRACED:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:             # a method: patch the class only
                self._patch(owner, attr, original, wrapper)
                continue
            # a function: patch every febe module that bound it by name
            self._patch(owner, attr, original, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        child = np.zeros(len(self.spans))
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return np.array([s.duration for s in self.spans]) - child

    def _has_ancestor(self, span, names):
        p = span.parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def summary(self):
        """Per-case means of the per-layer metrics over all traced cases."""
        spans = self.spans
        ncase = sum(1 for s in spans if s.name == ROOT)
        if ncase == 0:
            raise ValueError("no traced case")
        selft = self.self_times()

        def inclusive(*names):
            """Total time in the named spans, not counting nested repeats."""
            group = set(names)
            return sum(s.duration for s in spans
                       if s.name in group and not self._has_ancestor(s, group))

        def calls(*names):
            return sum(1 for s in spans if s.name in names)

        def facts(key, *names):
            return [s.facts[key] for s in spans
                    if s.name in names and s.facts and key in s.facts]

        def fact(key, *names):
            return sum(facts(key, *names))

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(spans, selft):
            layer_self[LAYER_OF[s.name]] += t
        evals = ("eval_single_layer", "eval_double_layer_pv")
        newton = fact("iterations", *SOLVERS)
        objective_evals = calls("objective")
        out = {
            "trace.case_s": inclusive(ROOT),
            "mesh.refine_s": inclusive("refine", "refine_uniform"),
            "mesh.refine_calls": calls("refine"),
            "bem.assemble_s": inclusive("assemble_operators"),
            "bem.steklov_s": inclusive("steklov_poincare"),
            "bem.eval_s": inclusive(*evals),
            "bem.eval_calls": calls(*evals),
            "bem.eval_points": fact("points", *evals),
            "material.stress_s": inclusive("stress"),
            "material.stress_calls": calls("stress"),
            "material.tangent_s": inclusive("tangent_coeffs"),
            "material.tangent_calls": calls("tangent_coeffs"),
            "material.potential_s": inclusive("potential"),
            "material.potential_calls": calls("potential"),
            "fem.residual_s": inclusive("assemble_residual"),
            "fem.residual_calls": calls("assemble_residual"),
            "fem.tangent_s": inclusive("assemble_tangent"),
            "fem.tangent_calls": calls("assemble_tangent"),
            "fem.energy_s": inclusive("energy"),
            "fem.energy_calls": calls("energy"),
            "vi.system_s": inclusive("CoupledSystem"),
            "vi.solve_s": inclusive(*SOLVERS),
            "vi.newton_iters": newton,
            "vi.linear_solves": calls("spsolve"),
            "vi.linear_solve_s": inclusive("spsolve"),
            "vi.linear_solve_failures": sum(1 for s in spans
                                            if s.name == "spsolve" and s.error),
            "vi.objective_evals": objective_evals,
            "vi.certificate_fallbacks": sum(
                1 for s in spans if s.name == "vi_certificate"
                and self._has_ancestor(s, {"solve_contact_vi"})),
            "estimate.s": inclusive("estimate_sp", "estimate_lp"),
            "adapt.mark_s": inclusive("mark"),
            "export.write_s": inclusive("export_fields", "indicators_csv"),
        }
        out = {k: v / ncase for k, v in out.items()}
        # ratios of totals are per-case independent
        out["vi.evals_per_step"] = objective_evals / newton if newton else 0.0
        eval_calls = calls(*evals)
        out["bem.eval_points_per_call"] = (fact("points", *evals) / eval_calls
                                           if eval_calls else 0.0)
        # sizes: the largest mesh and boundary the case worked on
        out["mesh.triangles"] = max(facts("triangles", "FESpace"), default=0)
        out["bem.panels"] = max(facts("panels", "BoundarySpace"), default=0)
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self[layer] / ncase
        return out

    def dump(self, path, meta):
        """Write every span (name, start, end, parent, case) as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "layer": LAYER_OF[s.name],
                 "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "case": s.case, "error": s.error,
                 **(s.facts or {})} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)

"""Flat key = value run configuration: parsing, validation, defaults."""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _RULES


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "problem": "scalar",                 # scalar | vector
    "material.p": 2.0,
    "material.delta": 0.0,
    "exterior.mu": 1.0,
    "exterior.lambda": 1.0,
    "mesh.preset": "square",
    "mesh.n": 2,
    "mesh.path": "",
    "mesh.refine": 0,
    "data.preset": "quadratic",
    "data.file": "",
    "fem.quad_order": 4,
    "bem.quad_order": 8,
    "bem.dump": False,
    "solver.tol": 0.0,                   # 0 -> by p (1e-10 for p=2, 1e-8 else)
    "solver.max_iter": 200,
    "solver.formulation": "steklov",     # steklov | layerpotential
    "solver.stabilized": False,
    "solver.compat_constraints": -1,     # -1 -> default (1 scalar, 2 vector)
    "estimate.kind": "auto",             # auto | sp | lp | appendix
    "estimate.delta": 0.0,
    "adapt.theta": 0.5,
    "adapt.max_dofs": 20000,
    "adapt.target_eta": 0.0,
    "out.dir": "out",
}

@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    def validate(self):
        v = self.values
        for key, default in _DEFAULTS.items():
            if isinstance(default, float) and not np.isfinite(v[key]):
                raise ConfigError("%s must be finite, got %s" % (key, v[key]))
        aliases = {"scalar-appendix": "scalar", "vector-lame": "vector"}
        v["problem"] = aliases.get(v["problem"], v["problem"])
        if v["problem"] not in ("scalar", "vector"):
            raise ConfigError("problem must be 'scalar' or 'vector'")
        if not v["material.p"] > 1.0:
            raise ConfigError("material.p must be > 1")
        if not 0.0 <= v["material.delta"] <= 1.0:
            raise ConfigError("material.delta must lie in [0, 1]")
        if not v["exterior.mu"] > 0:
            raise ConfigError("exterior.mu must be positive")
        if not v["exterior.lambda"] > -v["exterior.mu"]:
            raise ConfigError("exterior.lambda must exceed -exterior.mu")
        for key in ("mesh.path", "data.file"):
            if v[key] and not os.path.isfile(v[key]):
                raise ConfigError("%s is not an existing regular file: %s"
                                  % (key, v[key]))
        if not v["mesh.path"]:
            from .presets import MESH_PRESETS
            if v["mesh.preset"] not in MESH_PRESETS:
                raise ConfigError("mesh.preset unknown: %s" % v["mesh.preset"])
            if v["mesh.preset"] == "lshape" and v["mesh.n"] % 2:
                raise ConfigError("mesh.preset = lshape needs an even mesh.n")
            least = {"lshape": 2, "circle": 3}.get(v["mesh.preset"], 1)
            if v["mesh.n"] < least:
                raise ConfigError("mesh.preset = %s needs mesh.n >= %d"
                                  % (v["mesh.preset"], least))
        if v["mesh.refine"] < 0:
            raise ConfigError("mesh.refine must be >= 0")
        if not v["data.file"]:
            from .presets import DATA_PRESETS
            if v["data.preset"] not in DATA_PRESETS:
                raise ConfigError("data.preset unknown: %s" % v["data.preset"])
        if v["solver.tol"] < 0:
            raise ConfigError("solver.tol must be >= 0 (0: by material.p)")
        if v["solver.max_iter"] < 0:
            raise ConfigError("solver.max_iter must be >= 0")
        rigid = 1 if v["problem"] == "scalar" else 3
        if not -1 <= v["solver.compat_constraints"] <= rigid:
            raise ConfigError("solver.compat_constraints must lie in [-1, %d] "
                              "for problem = %s" % (rigid, v["problem"]))
        if v["solver.formulation"] not in ("steklov", "layerpotential"):
            raise ConfigError("solver.formulation must be steklov or layerpotential")
        if v["estimate.kind"] not in ("auto", "sp", "lp", "appendix"):
            raise ConfigError("estimate.kind must be auto, sp, lp or appendix")
        if (v["estimate.kind"] == "lp"
                and v["solver.formulation"] != "layerpotential"):
            raise ConfigError("estimate.kind = lp needs "
                              "solver.formulation = layerpotential")
        if v["estimate.kind"] == "appendix" and (v["problem"] != "scalar"
                                                 or v["material.p"] < 2):
            raise ConfigError("estimate.kind = appendix needs problem = scalar "
                              "and material.p >= 2")
        if v["estimate.delta"] < 0:
            raise ConfigError("estimate.delta must be >= 0")
        if not 0 < v["adapt.theta"] <= 1:
            raise ConfigError("adapt.theta must lie in (0, 1]")
        orders = [q for q in sorted(_RULES) if q >= 2]
        if v["fem.quad_order"] not in orders:
            raise ConfigError("fem.quad_order must be one of %s (triangle rules), got %s"
                              % (", ".join(map(str, orders)), v["fem.quad_order"]))
        q = v["bem.quad_order"]
        if not isinstance(q, numbers.Integral) or q < 4:
            raise ConfigError("bem.quad_order must be an integer >= 4")
        return self

    def manifest(self, extra=None):
        lines = ["%s = %s" % (k, self.values[k]) for k in sorted(self.values)]
        for k, val in (extra or {}).items():
            lines.append("%s = %s" % (k, val))
        return "\n".join(lines) + "\n"


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def parse_config(text):
    cfg = RunConfig()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % ln)
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError("unknown config key %r" % key)
        # each value takes the type of its default (bool is an int subtype)
        kind = type(_DEFAULTS[key])
        try:
            if kind is bool:
                cfg.values[key] = _BOOLS[val.lower()]
            else:
                cfg.values[key] = kind(val)
        except (KeyError, ValueError):
            raise ConfigError("bad value for %s: %r" % (key, val))
    return cfg


def read_text(path, what):
    """The text of the file at path; a file that cannot be read or is not
    UTF-8 text is a ConfigError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc.strerror)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError("%s %s is not UTF-8 text: %s at byte %d"
                          % (what, path, exc.reason, exc.start)) from None


def load_config(path):
    """The RunConfig of the file at path (read_text)."""
    return parse_config(read_text(path, "config file"))


def load_data_file(path, bspace, ncomp):
    """File-borne nodal boundary data: CSV rows 'kind,index,comp,value'.

    kinds: u0_node (P1 nodal values), t0_panel (per-panel tractions),
    F_node (nodal friction bound, comp 0).  Returns a ProblemData.  A
    malformed row, a value that is not finite, a negative friction bound, or
    an index or component out of range, is a ConfigError, as is a file that
    read_text rejects.
    """
    from .vi import ProblemData
    u0 = np.zeros((bspace.n_nodes, ncomp))
    t0 = np.zeros((bspace.n_panels, ncomp))
    F = np.zeros((bspace.n_nodes, 1))
    arrays = {"u0_node": u0, "t0_panel": t0, "F_node": F}
    seen = set()
    for ln, raw in enumerate(read_text(path, "data file").split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("kind"):
            continue
        where = "%s line %d" % (path, ln)
        fields = line.split(",")
        if len(fields) != 4:
            raise ConfigError("%s: expected 'kind,index,comp,value', got %r"
                              % (where, line))
        kind = fields[0].strip()
        if kind not in arrays:
            raise ConfigError("%s: unknown data kind %r" % (where, kind))
        try:
            idx, comp, val = int(fields[1]), int(fields[2]), float(fields[3])
        except ValueError:
            raise ConfigError("%s: bad number in %r" % (where, line))
        if not np.isfinite(val):
            raise ConfigError("%s: value is not finite in %r" % (where, line))
        if kind == "F_node" and val < 0:
            raise ConfigError("%s: friction bound is negative in %r" % (where, line))
        arr = arrays[kind]
        if not (0 <= idx < arr.shape[0] and 0 <= comp < arr.shape[1]):
            raise ConfigError("%s: %s index %d, comp %d outside %d x %d"
                              % ((where, kind, idx, comp) + arr.shape))
        arr[idx, comp] = val
        seen.add(kind)
    return ProblemData(f=None,
                       u0=u0.reshape(-1) if "u0_node" in seen else None,
                       t0=t0 if "t0_panel" in seen else None,
                       friction=F[:, 0] if "F_node" in seen else None)

import os
from pathlib import Path

import numpy as np
import pytest

from febe.cli import main
from febe.config import ConfigError, parse_config
from febe.export import read_fields_csv


BASE = """
problem = scalar
material.p = 2.0
mesh.preset = square
mesh.n = 2
mesh.refine = 1
data.preset = quadratic
"""


def write_cfg(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(BASE + extra)
    return str(path)


def test_solve_smoke(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "out"))
    assert main(["solve", "--config", cfg]) == 0
    out = tmp_path / "out"
    for f in ("manifest.txt", "solution.vtk", "fields.csv", "indicators.csv"):
        assert (out / f).exists()
    assert "scale_factor" in (out / "manifest.txt").read_text()


def test_invalid_p_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "material.p = 0.5\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "material.p" in err


def test_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    import febe.cli
    from febe.vi import SolverError

    def fail(cfg, system):
        raise SolverError("contact solve stalled at residual 1.000e+00")

    monkeypatch.setattr(febe.cli, "solve_from_config", fail)
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "out"))
    assert main(["solve", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == "solver error: contact solve stalled at residual 1.000e+00\n"
    assert "Traceback" not in captured.out + captured.err


def test_mesh_error_exit_code(tmp_path, capsys):
    # a square whose boundary edge 3 0 is missing from the edge list
    meshfile = tmp_path / "open.txt"
    meshfile.write_text("4 2 3\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"
                        "0 1 T\n1 2 T\n2 3 T\n")
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "out"))
    assert main(["solve", "--config", cfg, "--mesh", str(meshfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("mesh error: unlabeled boundary edge")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("extra", [
    "fem.quad_order = 8",                                   # no such rule
    "mesh.preset = lshape\nmesh.n = 3",                    # odd subdivision
    "estimate.kind = appendix\nproblem = vector\ndata.preset = stick-vec",
    "estimate.kind = appendix\nmaterial.p = 1.5",
    "problem = vector",                                     # quadratic is scalar
    "data.preset = corner\nmaterial.p = 3.0",              # corner needs p = 2
    "material.delta = 0.5",                                 # quadratic: power law
    "material.kind = carreau",                              # no such key
    "bem.dump = ture",                                      # misspelled boolean
    "solver.stabilized = maybe",                            # not a boolean
    "solver.compat_constraints = 2",                        # 1 rigid motion
    "problem = vector\ndata.preset = stick-vec\nsolver.compat_constraints = 4",
    "solver.compat_constraints = -2",
    "mesh.n = -2",
    "mesh.preset = circle",                                 # n = 2: no triangles
    "solver.tol = -1e-8",
    "mesh.refine = -1",
    "estimate.delta = -0.5",
    # smooth-vec's load x^(p-2) is undefined left of the circle's centre
    "mesh.preset = circle\nmesh.n = 32\nproblem = vector\n"
    "data.preset = smooth-vec\nmaterial.p = 1.5",
], ids=["quad-order", "lshape-odd-n", "appendix-vector", "appendix-p-below-2",
        "quadratic-vector", "corner-p3", "quadratic-carreau", "material-kind", "bool-typo",
        "bool-maybe", "compat-above-scalar", "compat-above-vector", "compat-below",
        "mesh-n-negative", "circle-n2", "tol-negative", "refine-negative", "delta-negative",
        "circle-load-not-finite"])
def test_config_mistakes_exit_2(tmp_path, capsys, extra):
    cfg = write_cfg(tmp_path, "%s\nout.dir = %s\n" % (extra, tmp_path / "out"))
    assert main(["solve", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


def test_readme_example_config_validates():
    # the example config of the README's "Command line" section names only
    # keys the parser knows, with values that validate
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    assert sum("=" in line.split("#", 1)[0] for line in example.splitlines()) >= 5
    parse_config(example).validate()


def test_boolean_spellings():
    # 1/true/yes/on and 0/false/no/off, in any case; anything else is a
    # ConfigError (see test_config_mistakes_exit_2)
    for val, want in (("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                      ("0", False), ("False", False), ("NO", False), ("Off", False)):
        assert parse_config("bem.dump = %s\n" % val)["bem.dump"] is want


def test_fem_quad_order_needs_a_triangle_rule(tmp_path, capsys):
    # order 3 has no rule; it used to run the order-4 rule while the
    # manifest recorded 3
    cfg = write_cfg(tmp_path, "fem.quad_order = 3\nout.dir = %s\n" % (tmp_path / "out"))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fem.quad_order must be one of 2, 4, 5, 6")
    assert err.count("\n") == 1
    for q in (2, 4, 5, 6):
        assert parse_config("fem.quad_order = %d\n" % q).validate()["fem.quad_order"] == q


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("nonsense.key = 1\n")


@pytest.mark.parametrize("text, value", [("2", None), ("3", None), ("8", 8.0), ("8", 6.5)])
def test_bem_quad_order_must_be_integer_at_least_four(text, value):
    # the assembly used to run such an order as max(4, int(order)), while
    # the manifest recorded the value given
    cfg = parse_config("bem.quad_order = %s\n" % text)
    if value is not None:
        cfg.values["bem.quad_order"] = value
    with pytest.raises(ConfigError, match="bem.quad_order"):
        cfg.validate()
    assert parse_config("bem.quad_order = 4\n").validate()["bem.quad_order"] == 4


def test_comments_and_defaults():
    cfg = parse_config("# comment only\nmaterial.p = 3.0  # trailing\n")
    assert cfg["material.p"] == 3.0
    assert cfg["mesh.preset"] == "square"


def test_check_compat_warning(tmp_path, capsys):
    # file-borne constant traction with nonzero mean: incompatible data
    datafile = tmp_path / "data.csv"
    rows = ["kind,index,comp,value"]
    for l in range(8):
        rows.append("t0_panel,%d,0,1.0" % l)
    datafile.write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, "data.file = %s\nout.dir = %s\n"
                    % (datafile, tmp_path / "o2"))
    assert main(["solve", "--config", cfg, "--check-compat"]) == 0
    outtxt = capsys.readouterr().out
    assert "warning" in outtxt and "compatibility" in outtxt


def test_check_compat_builds_system_once(tmp_path, monkeypatch, capsys):
    # the compatibility check reads the system that the solve then uses
    from febe import study
    built = []
    build = study.build_system

    def counting(*args, **kw):
        built.append(args)
        return build(*args, **kw)

    monkeypatch.setattr(study, "build_system", counting)
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "o3"))
    assert main(["solve", "--config", cfg, "--check-compat"]) == 0
    assert "compatibility residual" in capsys.readouterr().out
    assert len(built) == 1


@pytest.mark.parametrize("row", [
    "u0_node,0,1,5.0",          # component 1 of a scalar problem
    "F_node,-1,0,2.0",          # negative node index
    "t0_panel,1000,0,1.0",      # panel index past the end
    "F_node,0,2.0",             # three fields
    "F_node,0,0,nan",           # not finite
    "u0_node,0,0,inf",
])
def test_bad_data_file_row_is_config_error(tmp_path, capsys, row):
    datafile = tmp_path / "data.csv"
    datafile.write_text("kind,index,comp,value\nu0_node,0,0,0.0\n%s\n" % row)
    cfg = write_cfg(tmp_path, "data.file = %s\nout.dir = %s\n"
                    % (datafile, tmp_path / "out"))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s line 3: " % datafile)


def test_exported_friction_stress_within_bound(tmp_path, capsys):
    # a constant traction with nonzero mean loads the compatibility row, so
    # the exported multiplier stress must carry its C^T lam term to stay
    # within the friction bound 0.05
    npanel = 16       # one bisection sweep leaves the 4 x 4 square's boundary as is
    rows = ["kind,index,comp,value"]
    rows += ["t0_panel,%d,0,1.0" % k for k in range(npanel)]
    rows += ["F_node,%d,0,0.05" % k for k in range(npanel)]
    datafile = tmp_path / "data.csv"
    datafile.write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, "material.p = 1.5\nmesh.preset = square-slip\n"
                              "mesh.n = 4\ndata.file = %s\nout.dir = %s\n"
                              % (datafile, tmp_path / "out"))
    assert main(["solve", "--config", cfg]) == 0
    fields = read_fields_csv(tmp_path / "out" / "fields.csv")
    assert np.abs(fields["sigma_t"]).max() <= 0.05 * (1 + 1e-8)


@pytest.mark.parametrize("old, new, message", [
    ("1 0\n", "1 zero\n", "mesh error: vertex coordinates: "
                          "could not convert string to float: 'zero'\n"),
    ("4 2 4", "3 1 x", "mesh error: header 'nv nt nb': "
                       "invalid literal for int() with base 10: 'x'\n"),
    ("4 2 4", "-1 0 0", "mesh error: negative count in header '-1 0 0'\n"),
])
def test_unreadable_mesh_file_exit_code(tmp_path, capsys, old, new, message):
    text = "4 2 4\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n0 1 T\n1 2 T\n2 3 T\n3 0 T\n"
    meshfile = tmp_path / "bad.txt"
    meshfile.write_text(text.replace(old, new, 1))
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "out"))
    assert main(["solve", "--config", cfg, "--mesh", str(meshfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert "Traceback" not in captured.out
    assert not (tmp_path / "out").exists()


def test_study_single_level(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "out_study"))
    assert main(["study", "--config", cfg, "--levels", "1"]) == 0
    table = (tmp_path / "out_study" / "convergence_uniform.csv").read_text()
    lines = table.strip().split("\n")
    assert len(lines) == 2                 # header + one row
    assert lines[1].split(",")[-1] == "nan"


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_study_rejects_levels_below_one(tmp_path, capsys, monkeypatch, levels):
    from febe import study

    def build(*args, **kw):
        raise AssertionError("a study with no levels built a system")

    monkeypatch.setattr(study, "build_system", build)
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", cfg, "--levels", levels])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("argument --levels: expected an integer >= 1, got '%s'\n"
                        % levels)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["uniform", "adaptive"])
def test_study_rejects_data_file(tmp_path, capsys, monkeypatch, mode):
    # the rows index the boundary of one mesh; a study's levels refine it
    from febe import study

    def build(*args, **kw):
        raise AssertionError("a study with data.file built a system")

    monkeypatch.setattr(study, "build_system", build)
    datafile = tmp_path / "data.csv"
    datafile.write_text("kind,index,comp,value\n"
                        + "".join("t0_panel,%d,0,1.0\n" % l for l in range(8)))
    cfg = write_cfg(tmp_path, "data.file = %s\nout.dir = %s\n"
                    % (datafile, tmp_path / "out"))
    assert main(["study", "--config", cfg, "--levels", "2",
                 "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith("config error: data.file")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_oracle_command(tmp_path, p):
    cfg = write_cfg(tmp_path, "mesh.refine = 0\nmesh.preset = square-slip\n"
                              "data.preset = transition\nmaterial.p = %r\n"
                              "out.dir = %s\n" % (p, tmp_path / "out_o"))
    assert main(["oracle", "--config", cfg]) == 0


def test_export_zero_solution_parses(tmp_path):
    datafile = tmp_path / "zero.csv"
    datafile.write_text("kind,index,comp,value\nu0_node,0,0,0.0\n")
    cfg = write_cfg(tmp_path, "data.file = %s\n" % datafile)
    dest = tmp_path / "exp"
    assert main(["export", "--config", cfg, "--dest", str(dest)]) == 0
    txt = (dest / "solution.vtk").read_text().split("\n")
    # minimal legacy VTK structure check
    assert txt[0].startswith("# vtk DataFile")
    assert txt[3] == "DATASET UNSTRUCTURED_GRID"
    npoints = int(txt[4].split()[1])
    k = 5 + npoints
    ncells = int(txt[k].split()[1])
    assert txt[k + ncells + 1].startswith("CELL_TYPES")
    fields = read_fields_csv(dest / "fields.csv")
    assert np.all(fields["u0"] == 0.0)
    assert len(fields["u0"]) == npoints


def test_csv_round_trip_bitwise(tmp_path):
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "rt"))
    main(["solve", "--config", cfg])
    fields = read_fields_csv(tmp_path / "rt" / "fields.csv")
    # rewrite with the same format and reload: bitwise identical
    vals = np.column_stack([fields[k] for k in fields])
    text = "\n".join(",".join("%.17g" % x for x in row) for row in vals)
    vals2 = np.loadtxt(text.split("\n"), delimiter=",")
    assert np.array_equal(vals, vals2)


def test_reproducibility(tmp_path):
    cfg1 = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "r1"), "a.cfg")
    cfg2 = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "r2"), "b.cfg")
    main(["solve", "--config", cfg1])
    main(["solve", "--config", cfg2])
    f1 = read_fields_csv(tmp_path / "r1" / "fields.csv")
    f2 = read_fields_csv(tmp_path / "r2" / "fields.csv")
    for k in f1:
        assert np.array_equal(f1[k], f2[k]), k


def test_env_out_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FEBE_OUT", str(tmp_path / "root"))
    cfg = write_cfg(tmp_path, "out.dir = sub\n")
    assert main(["solve", "--config", cfg]) == 0
    assert (tmp_path / "root" / "sub" / "manifest.txt").exists()


def test_solve_layerpotential_formulation(tmp_path):
    cfg = write_cfg(tmp_path,
                    "solver.formulation = layerpotential\n"
                    "mesh.preset = square-slip\ndata.preset = transition\n"
                    "mesh.refine = 0\nout.dir = %s\n" % (tmp_path / "lp"))
    assert main(["solve", "--config", cfg]) == 0
    assert (tmp_path / "lp" / "manifest.txt").exists()


def test_lp_estimator_needs_layerpotential_formulation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "estimate.kind = lp\nout.dir = %s\n"
                    % (tmp_path / "o"))
    assert main(["solve", "--config", cfg]) == 2
    assert "estimate.kind" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError, match="layerpotential"):
        parse_config("estimate.kind = lp\n").validate()
    parse_config("estimate.kind = lp\n"
                 "solver.formulation = layerpotential\n").validate()


def test_solve_vector_problem(tmp_path):
    body = """
problem = vector
material.p = 2.0
exterior.lambda = 1.3
mesh.preset = square-slip
mesh.n = 2
mesh.refine = 1
data.preset = stick-vec
"""
    p = tmp_path / "vec.cfg"
    p.write_text(body + "out.dir = %s\n" % (tmp_path / "vec_out"))
    assert main(["solve", "--config", str(p)]) == 0
    fields = read_fields_csv(tmp_path / "vec_out" / "fields.csv")
    assert "u1" in fields


def test_mesh_path_override(tmp_path):
    from febe import presets
    meshfile = tmp_path / "m.txt"
    meshfile.write_text(presets.square_text(3))
    cfg = write_cfg(tmp_path, "out.dir = %s\n" % (tmp_path / "ovr"))
    assert main(["solve", "--config", cfg, "--mesh", str(meshfile)]) == 0
    man = (tmp_path / "ovr" / "manifest.txt").read_text()
    assert str(meshfile) in man


def test_slip_side_without_slip_nodes(tmp_path):
    # a single S edge has no interior slip nodes: solve degenerates smoothly
    body = BASE.replace("mesh.n = 2", "mesh.n = 1").replace(
        "mesh.preset = square", "mesh.preset = square-slip").replace(
        "data.preset = quadratic", "data.preset = transition").replace(
        "mesh.refine = 1", "mesh.refine = 0")
    p = tmp_path / "tiny.cfg"
    p.write_text(body + "out.dir = %s\n" % (tmp_path / "tiny"))
    assert main(["solve", "--config", str(p)]) == 0


def test_problem_name_aliases(tmp_path):
    cfg = write_cfg(tmp_path, "problem = scalar-appendix\nout.dir = %s\n"
                    % (tmp_path / "alias"))
    assert main(["solve", "--config", cfg]) == 0


def test_bem_dump_flag(tmp_path):
    cfg = write_cfg(tmp_path, "bem.dump = true\nout.dir = %s\n"
                    % (tmp_path / "dump"))
    assert main(["solve", "--config", cfg]) == 0
    V = np.loadtxt(tmp_path / "dump" / "operators" / "V.csv", delimiter=",")
    assert V.shape[0] == V.shape[1]

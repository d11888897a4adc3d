"""Command-line interface behavior and determinism."""

import pytest

from polystokes import cli
from polystokes import geometry as geo
from polystokes import vemspace as vs
from polystokes.stokes_local import StabilizationConfig


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--nonsense"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_case_exits_1(capsys):
    rc = cli.main(["solve", "--case", "test9", "--family", "hexagonal",
                   "--level", "1", "--k", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown case 'test9'\n"


@pytest.mark.parametrize("name", ["patch_kx", "patch_k"])
def test_unknown_patch_case_exits_1(name, capsys):
    # these printed "invalid literal for int() with base 10"
    rc = cli.main(["solve", "--case", name, "--family", "hexagonal",
                   "--level", "1", "--k", "1"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown case '{name}'\n"


def test_bad_family_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["mesh", "generate", "--family", "nope", "--level", "1",
                  "--output", "x.json"])
    assert exc.value.code == 2


def test_mesh_generate_and_check(tmp_path, capsys):
    out = tmp_path / "mesh.json"
    assert cli.main(["mesh", "generate", "--family", "hexagonal",
                     "--level", "1", "--output", str(out)]) == 0
    assert out.exists()
    assert cli.main(["mesh", "check", "--input", str(out)]) == 0
    text = capsys.readouterr().out
    assert "vertices=62" in text


def test_mesh_generate_prints_the_counts(tmp_path, capsys):
    out = tmp_path / "mesh.json"
    assert cli.main(["mesh", "generate", "--family", "diamond",
                     "--level", "2", "--output", str(out)]) == 0
    assert capsys.readouterr().out == (f"wrote {out}: 149 vertices, "
                                       "296 edges, 148 cells, h=0.25\n")


def test_mesh_check_reports_bad_vertex_index(tmp_path, capsys):
    path = tmp_path / "mesh.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], '
                    '"cells": [[0, 1, 2, 7]]}')
    assert cli.main(["mesh", "check", "--input", str(path)]) == 1
    assert "cell 0: vertex index out of range" in capsys.readouterr().err


def test_mesh_check_reports_no_cells(tmp_path, capsys):
    path = tmp_path / "mesh.json"
    path.write_text('{"vertices": [[0, 0]], "cells": []}')
    assert cli.main(["mesh", "check", "--input", str(path)]) == 1
    assert "mesh has no cells" in capsys.readouterr().err


def test_mesh_check_counts_the_violations(capsys):
    assert cli.main(["mesh", "check", "--family", "random_polygons",
                     "--level", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("star violations=0 distance violations=37 ")


def test_mesh_check_counts_empty_and_thin_kernels(capsys):
    # three random_polygons L3 cells have a kernel ball narrower than
    # STAR_RATIO_MIN of their diameter
    assert cli.main(["mesh", "check", "--family", "random_polygons",
                     "--level", "3"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("star violations=3 distance violations=185 ")


@pytest.mark.parametrize("k", ["0", "-1"])
def test_solve_degree_below_one_exits_1(k, capsys):
    assert cli.main(["solve", "--case", "test1", "--family", "hexagonal",
                     "--level", "1", "--k", k]) == 1
    assert capsys.readouterr().err == "error: degree must be >= 1\n"


def test_solve_patch_prints_small_errors(capsys):
    rc = cli.main(["solve", "--case", "patch", "--k", "1",
                   "--family", "hexagonal", "--level", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    err_line = [l for l in out.splitlines() if l.startswith("err0_u")][0]
    vals = [float(kv.split("=")[1]) for kv in err_line.split()]
    assert all(v <= 1e-9 for v in vals)


def test_solve_prints_its_iterations(capsys):
    assert cli.main(["solve", "--case", "test1", "--k", "2",
                     "--family", "hexagonal", "--level", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    fields = dict(kv.split("=") for kv in line.split())
    assert list(fields) == ["residual", "iterations", "multiplier"]
    assert float(fields["residual"]) <= 1e-10
    assert 1 <= int(fields["iterations"]) <= 100


def test_solve_dump_matrix(tmp_path):
    out = tmp_path / "mat.mtx"
    rc = cli.main(["solve", "--case", "patch", "--k", "1",
                   "--family", "hexagonal", "--level", "1",
                   "--dump-matrix", str(out)])
    assert rc == 0
    assert out.read_text().startswith("%%MatrixMarket")


def test_convergence_csv_shape(tmp_path):
    out = tmp_path / "conv.csv"
    rc = cli.main(["convergence", "--cases", "test1", "--families",
                   "hexagonal", "--levels", "1..2", "--k", "1,2",
                   "--no-timings", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("family,level,k,h,n_dofs,err0_u,err1_u,err0_p,"
                        "rate0_u,rate1_u,rate0_p,seconds")
    assert len(lines) == 1 + 4    # header + 2 levels x 2 degrees


def test_convergence_deterministic(tmp_path):
    args = ["convergence", "--cases", "test1", "--families", "hexagonal",
            "--levels", "1..2", "--k", "1", "--no-timings"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--output", str(p1)]) == 0
    assert cli.main(args + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("names, message", [
    (["--cases", "test1,nope", "--families", "hexagonal"],
     "error: unknown case 'nope'\n"),
    (["--cases", "test1", "--families", "hexagonal,hexagonl"],
     "error: unknown mesh family 'hexagonl'; choose from "
     "hexagonal, voronoi, random_polygons, diamond\n"),
    (["--cases", "patch", "--families", "hexagonal"],
     "error: patch cases exist for k in {1, 2, 3}\n"),
], ids=["case", "family", "patch-degree"])
def test_convergence_checks_names_before_solving(names, message, tmp_path,
                                                  capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.analysis, "generate_mesh",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", *names, "--levels", "1", "--k", "1,4",
                     "--output", str(out)]) == 1
    assert calls == []
    assert capsys.readouterr().err == message
    assert not out.exists()


def _library_message(call, *args):
    """The CLI's line for the ValueError that call(*args) raises."""
    with pytest.raises(ValueError) as exc:
        call(*args)
    return f"error: {exc.value}\n"


@pytest.mark.parametrize("args, refusal", [
    (["convergence", "--cases", "test1", "--families", "hexagonal",
      "--levels", "1,2,7", "--k", "1"], (geo.generate_mesh, "hexagonal", 7)),
    (["convergence", "--cases", "test1", "--families", "hexagonal",
      "--levels", "1", "--k", "1,0"], (vs.check_degree, 0)),
    (["alpha-sweep", "--family", "voronoi", "--level", "1", "--k", "1,0"],
     (vs.check_degree, 0)),
    (["alpha-sweep", "--family", "voronoi", "--level", "1", "--k", "1",
      "--alphas", "1,10,-1"], (StabilizationConfig, -1.0)),
    (["convergence", "--cases", "test1", "--families", "hexagonal",
      "--levels", "1,1", "--k", "1"],
     (cli.analysis.run_convergence, "hexagonal", [1, 1], 1, "test1")),
], ids=["convergence-level", "convergence-k", "alpha-sweep-k",
        "alpha-sweep-alpha", "convergence-repeated-level"])
def test_bad_input_refused_before_solving(args, refusal, tmp_path, capsys,
                                          monkeypatch):
    # these solved (or computed condition numbers for) every earlier row
    # before refusing, and wrote no CSV
    def reached(*args, **kwargs):
        raise AssertionError("a mesh was generated before the input was "
                             "checked")

    monkeypatch.setattr(cli.analysis, "generate_mesh", reached)
    out = tmp_path / "out.csv"
    assert cli.main(args + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == _library_message(*refusal)
    assert not out.exists()


@pytest.mark.parametrize("flags, refusal", [
    (["--k", "1", "--alpha", "-1"], (StabilizationConfig, -1.0)),
    (["--k", "1", "--beta-sharp", "-1"], (StabilizationConfig, 1.0, -1.0)),
    (["--k", "0"], (vs.check_degree, 0)),
], ids=["alpha", "beta-sharp", "k"])
def test_solve_refuses_bad_input_before_the_mesh(flags, refusal, capsys,
                                                 monkeypatch):
    # a bad --alpha was refused only after the mesh was generated (5.7 s
    # on voronoi L3)
    def reached(*args, **kwargs):
        raise AssertionError("the mesh was generated before the input "
                             "was checked")

    monkeypatch.setattr(cli.geometry, "generate_mesh", reached)
    assert cli.main(["solve", "--case", "test1", "--family", "voronoi",
                     "--level", "3", *flags]) == 1
    assert capsys.readouterr().err == _library_message(*refusal)


def test_alpha_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["alpha-sweep", "--family", "hexagonal", "--level", "1",
                   "--k", "1", "--basis", "ortho", "--alphas", "0.01,1",
                   "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "basis,k,alpha,cond"
    assert len(lines) == 3


def test_parse_int_list():
    assert cli._parse_int_list("1..4") == [1, 2, 3, 4]
    assert cli._parse_int_list("2,5,7") == [2, 5, 7]
    assert cli._parse_int_list("3..3") == [3]
    with pytest.raises(ValueError, match="empty range"):
        cli._parse_int_list("3..1")


@pytest.mark.parametrize("args", [
    ["convergence", "--cases", "test1", "--families", "hexagonal",
     "--levels", "3..1", "--k", "1"],
    ["alpha-sweep", "--family", "hexagonal", "--level", "1", "--k", "2..1"],
], ids=["convergence-levels", "alpha-sweep-k"])
def test_reversed_range_exits_1(args, tmp_path, capsys):
    # a reversed range used to write a header-only CSV and exit 0
    out = tmp_path / "out.csv"
    assert cli.main(args + ["--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: empty range")
    assert not out.exists()


def test_unknown_basis_names_the_choices(tmp_path, capsys):
    # the bare KeyError printed only "error: 'foo'"
    rc = cli.main(["alpha-sweep", "--family", "hexagonal", "--level", "1",
                   "--k", "1", "--basis", "monomial,foo",
                   "--output", str(tmp_path / "sweep.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown basis 'foo'")
    assert "monomial" in err and "ortho" in err


@pytest.mark.parametrize("args", [
    ["solve", "--case", "test1", "--family", "hexagonal", "--level", "1",
     "--k", "1", "--alpha", "nan"],
    ["solve", "--case", "test1", "--family", "hexagonal", "--level", "1",
     "--k", "1", "--beta-sharp", "inf"],
    ["alpha-sweep", "--family", "hexagonal", "--level", "1", "--k", "1",
     "--alphas", "nan"],
    ["alpha-sweep", "--family", "hexagonal", "--level", "1", "--k", "1",
     "--alphas", ""],
], ids=["alpha-nan", "beta-sharp-inf", "sweep-alpha-nan",
        "sweep-alphas-empty"])
def test_non_finite_weights_exit_1(args, tmp_path, capsys):
    # NaN passed the old sign checks and ended in a singular-factor traceback;
    # an empty --alphas ran the 13 default alphas
    if args[0] == "alpha-sweep":
        args = args + ["--output", str(tmp_path / "sweep.csv")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "sweep.csv").exists()

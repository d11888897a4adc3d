"""Command-line interface behavior and determinism."""

import pytest

from polystokes import cli


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
    assert "error" in capsys.readouterr().err


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


def test_mesh_check_reports_bad_vertex_index(tmp_path, capsys):
    path = tmp_path / "mesh.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], '
                    '"cells": [[0, 1, 2, 7]]}')
    assert cli.main(["mesh", "check", "--input", str(path)]) == 1
    assert "cell 0: vertex index out of range" in capsys.readouterr().err


def test_solve_patch_prints_small_errors(capsys):
    rc = cli.main(["solve", "--case", "patch", "--k", "1",
                   "--family", "hexagonal", "--level", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    err_line = [l for l in out.splitlines() if l.startswith("err0_u")][0]
    vals = [float(kv.split("=")[1]) for kv in err_line.split()]
    assert all(v <= 1e-9 for v in vals)


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


def test_alpha_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["alpha-sweep", "--family", "hexagonal", "--level", "1",
                   "--k", "1", "--basis", "ortho", "--alphas", "0.01,1",
                   "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "basis,k,alpha,cond"
    assert len(lines) == 3


def test_solve_no_condense_matches(capsys):
    rc = cli.main(["solve", "--case", "patch", "--k", "1",
                   "--family", "hexagonal", "--level", "1", "--no-condense"])
    assert rc == 0
    out = capsys.readouterr().out
    err_line = [l for l in out.splitlines() if l.startswith("err0_u")][0]
    vals = [float(kv.split("=")[1]) for kv in err_line.split()]
    assert all(v <= 1e-9 for v in vals)


def test_parse_int_list():
    assert cli._parse_int_list("1..4") == [1, 2, 3, 4]
    assert cli._parse_int_list("2,5,7") == [2, 5, 7]

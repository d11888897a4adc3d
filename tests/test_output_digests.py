"""The bit gate's comparison in scripts/output_digests.py, on two
three-line files; no solver runs."""

import importlib.util
import pathlib

_SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
           / "output_digests.py")
_spec = importlib.util.spec_from_file_location("output_digests", _SCRIPT)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

PARENT = ["hexagonal L1 k=1 scaled_monomial system 563116de5345c036",
          "hexagonal L1 k=1 scaled_monomial solution da79c51fe6caa204",
          "cli conv.csv c254f6b1"]
# one value moved, one key the parent lacks, one line kept
CHANGED = [PARENT[0],
           "hexagonal L1 k=1 scaled_monomial solution 0000000000000000",
           "cli sweep.csv 98bf15dd"]


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_compare_returns_the_changed_count(tmp_path, capsys):
    parent = _write(tmp_path, "parent.txt", PARENT)
    for lines, want in ((PARENT, 0), (CHANGED, 2)):
        new = _write(tmp_path, "new.txt", lines).read_text().splitlines()
        assert digests.compare(new, parent) == want
    report = capsys.readouterr().err.splitlines()
    assert report[-9:-1] == [
        "blocks: 0 of 0 lines changed", "system: 0 of 1 lines changed",
        "solution: 1 of 1 lines changed", "errors: 0 of 0 lines changed",
        "cond: 0 of 0 lines changed", "mesh: 0 of 0 lines changed",
        "centroids: 0 of 0 lines changed", "cli: 1 of 1 lines changed"]


def test_compare_sets_the_exit_status(tmp_path, monkeypatch, capsys):
    parent = _write(tmp_path, "parent.txt", PARENT)
    for lines, status in ((PARENT, 0), (CHANGED, 1)):
        monkeypatch.setattr(digests, "lines", lambda: iter(lines))
        assert digests.main(["--compare", str(parent)]) == status
        assert capsys.readouterr().out.splitlines() == lines

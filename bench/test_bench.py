"""Tests of the benchmark itself, on hexagonal L1-L2 at k=1.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402
from polystokes.analysis import run_convergence  # noqa: E402
from tracing import NullTracer, Tracer, layer_table, patched, self_times  # noqa: E402
from workloads import Workload, conv_op, generate_meshes, study_pass  # noqa: E402

TINY = Workload("convergence", "hexagonal", (1, 2), (1,),
                ("scaled_monomial",), (1.0,), (0,))


@pytest.fixture(scope="module")
def tiny():
    meshes = generate_meshes(TINY, 0, NullTracer())
    rows = run_convergence("hexagonal", list(TINY.levels), 1, "test1",
                           timings=False)
    return meshes, {conv_op(r["level"]): r for r in rows}


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "op": None, "parent": parent,
            "start": start, "end": end, "error": None}


def test_self_time_on_hand_built_tree():
    spans = [_span(0, "root", 0.0, 10.0),
             _span(1, "a", 1.0, 3.0, parent=0),
             _span(2, "a", 2.0, 5.0, parent=0),      # overlaps its sibling
             _span(3, "b", 6.0, 8.0, parent=0),
             _span(4, "c", 6.5, 7.0, parent=3),
             _span(5, "root", 20.0, 21.0)]
    selfs = self_times(spans)
    assert selfs == {0: 10.0 - 4.0 - 2.0, 1: 2.0, 2: 3.0, 3: 1.5, 4: 0.5,
                     5: 1.0}
    table = layer_table(spans)
    assert table["root"] == {"calls": 2, "inclusive_s": 11.0, "self_s": 5.0,
                             "errors": {}}
    assert table["a"]["inclusive_s"] == table["a"]["self_s"] == 5.0


def test_tiny_workload_matches_run_convergence(tiny):
    meshes, reference = tiny
    results = study_pass(TINY, meshes, reference, NullTracer())
    assert [r["op"] for r in results] == ["L1", "L2"]
    assert all(r["ok"] for r in results), results


def _targets():
    return [(owner, attr, getattr(owner, attr))
            for owner, attr, _, _ in bench.inner_targets(Tracer())]


def test_traced_outputs_identical_and_wrappers_removed(tiny):
    meshes, reference = tiny
    before = _targets()
    plain = study_pass(TINY, meshes, reference, NullTracer())
    tracer = Tracer()
    with patched(tracer, bench.inner_targets(tracer)):
        assert all(getattr(o, a) is not fn for o, a, fn in before)
        traced = study_pass(TINY, meshes, reference, tracer)
    assert all(getattr(o, a) is fn for o, a, fn in before)
    assert bench._outputs(plain) == bench._outputs(traced)

    table = layer_table(tracer.spans)
    cells = sum(len(m.cells) for m in meshes)
    assert table["vemspace.build_element"]["calls"] == cells
    assert table["polybasis.build_basis"]["calls"] == cells
    assert table["assembly.splu"]["calls"] == 2
    assert tracer.counters["assembly.lu_nnz"] > 0
    metrics = bench.layer_metrics(table, tracer.counters, 0.0)
    assert metrics["vemspace.build_element_calls"] == cells
    assert 0 < metrics["vemspace.build_element_self_s"] \
        < metrics["vemspace.build_element_s"]
    with open(bench.SPEC_PATH) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names == set(metrics)


def test_wrappers_removed_when_the_body_raises():
    before = _targets()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer, bench.inner_targets(tracer)):
            raise RuntimeError("boom")
    assert all(getattr(o, a) is fn for o, a, fn in before)


def test_wrong_reference_is_counted_and_the_run_continues(tiny):
    meshes, reference = tiny
    wrong = dict(reference)
    wrong["L1"] = dict(reference["L1"], err0_u=reference["L1"]["err0_u"] * 1.01)
    results = study_pass(TINY, meshes, wrong, NullTracer())
    assert [(r["op"], r["ok"]) for r in results] == [("L1", False),
                                                     ("L2", True)]
    assert "err0_u" in results[0]["problems"][0]


def test_raising_operation_is_counted_and_the_run_continues(tiny, monkeypatch):
    meshes, reference = tiny
    real = workloads.solve
    calls = []

    def flaky(system):
        calls.append(system)
        if len(calls) == 1:
            raise RuntimeError("singular")
        return real(system)

    monkeypatch.setattr(workloads, "solve", flaky)
    results = study_pass(TINY, meshes, reference, NullTracer())
    assert [(r["op"], r["ok"]) for r in results] == [("L1", False),
                                                     ("L2", True)]
    assert results[0]["problems"] == ["RuntimeError: singular"]


def test_refuses_to_run_with_vem_threads(monkeypatch, capsys):
    monkeypatch.setenv("VEM_THREADS", "2")
    assert bench.main(["--workload", "hex_conv"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "VEM_THREADS" in out.err

#!/usr/bin/env python3
"""Stage-timed benchmark of the polystokes pipeline.

    python3 bench/run.py --workload hex_conv --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

One run is one fresh interpreter on one workload (see README.md).  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json, measured
untraced; with `--trace 1` it reports the per-layer metrics from a traced
pass.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A record of each run,
including the environment and, when traced, every span, is written to
bench/out/.  `--workload all` runs every workload untraced and traced, each
in its own interpreter, and prints a summary table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

clock = time.perf_counter


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(key, "")) for key in
                        ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.strip(),
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def warm_up(workload):
    """One untimed solve, so first-call costs stay out of the timings."""
    from polystokes import (compute_errors, generate_mesh, get_case,
                            solve_stokes)
    case = get_case("test1")
    sol = solve_stokes(generate_mesh("hexagonal", 1), 1, f=case.forcing,
                       g=case.velocity, basis_kind=workload.bases[0])
    compute_errors(sol, case)


def untraced_run(name, seed, seconds):
    """Median setup and study times over a run of the given seconds.

    Mesh generation and study passes alternate, so both medians are taken
    over the whole run, not its start or its end: on a shared host the speed
    drifts by tens of percent from one stretch of seconds to the next.  The
    meshes are generated again once the passes on them have
    taken as long as generating them, and while a generation and a pass still
    fit in the run.
    """
    from tracing import NullTracer
    from workloads import WORKLOADS, generate_meshes, load_reference, study_pass
    workload = WORKLOADS[name]
    reference = load_reference(name, seed)
    null = NullTracer()
    warm_up(workload)

    start = clock()
    setup_times, study_times, results = [], [], []
    owed = 0.0      # study time still due on the current meshes
    while True:
        left = seconds - (clock() - start)
        if not setup_times or (owed <= 0 and
                               left > setup_times[-1] + study_times[-1]):
            gc.collect()
            t0 = clock()
            meshes = generate_meshes(workload, seed, null)
            setup_times.append(clock() - t0)
            owed = setup_times[-1]
        gc.collect()
        t0 = clock()
        results += study_pass(workload, meshes, reference, null)
        study_times.append(clock() - t0)
        owed -= study_times[-1]
        if clock() - start + study_times[-1] > seconds:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setup_times),
               "study_s": statistics.median(study_times),
               "peak_rss_mb": rss}
    record = {"setup_times": setup_times, "study_times": study_times}
    return metrics, results, True, record


def inner_targets(tracer):
    """The attributes the library looks up at call time, with span names."""
    from polystokes import assembly, polybasis, vemspace

    def lu_count(lu, matrix, *args, **kwargs):
        tracer.count("assembly.lu_nnz", lu.nnz)   # .L/.U would copy factors

    return [(assembly, "build_element", "vemspace.build_element", None),
            (assembly, "build_blocks", "stokes_local.build_blocks", None),
            (vemspace, "polygon_quadrature", "geometry.polygon_quadrature",
             None),
            (polybasis, "build_basis", "polybasis.build_basis", None),
            (assembly.spla, "splu", "assembly.splu", lu_count)]


def layer_metrics(table, counters, overhead):
    def inclusive(name):
        return table.get(name, {}).get("inclusive_s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    lu_nnz = counters.get("assembly.lu_nnz", 0)
    nnz = counters.get("assembly.matrix_nnz", 0)
    refused = table.get("polybasis.build_basis", {}).get("errors", {})
    return {
        "geometry.generate_mesh_s": inclusive("geometry.generate_mesh"),
        "geometry.cells": counters.get("geometry.cells", 0),
        "geometry.polygon_quadrature_s": inclusive("geometry.polygon_quadrature"),
        "polybasis.build_basis_s": inclusive("polybasis.build_basis"),
        "polybasis.build_basis_calls": calls("polybasis.build_basis"),
        "polybasis.refused": refused.get("IllConditionedBasisError", 0),
        "vemspace.build_element_s": inclusive("vemspace.build_element"),
        "vemspace.build_element_self_s": own("vemspace.build_element"),
        "vemspace.build_element_calls": calls("vemspace.build_element"),
        "stokes_local.build_blocks_s": inclusive("stokes_local.build_blocks"),
        "assembly.assemble_self_s": own("assembly.assemble"),
        "assembly.unknowns": counters.get("assembly.unknowns", 0),
        "assembly.matrix_nnz": nnz,
        "assembly.splu_s": inclusive("assembly.splu"),
        "assembly.lu_nnz": lu_nnz,
        "assembly.lu_fill": lu_nnz / nnz if lu_nnz else 0.0,
        "assembly.solve_self_s": own("assembly.solve"),
        "assembly.max_residual": counters.get("assembly.max_residual", 0.0),
        "assembly.with_alpha_s": inclusive("assembly.with_alpha"),
        "assembly.with_alpha_calls": calls("assembly.with_alpha"),
        "assembly.condition_number_s": inclusive("assembly.condition_number"),
        "assembly.condition_number_calls": calls("assembly.condition_number"),
        "analysis.compute_errors_s": inclusive("analysis.compute_errors"),
        "trace.overhead": overhead,
    }


def _outputs(results):
    return json.dumps([(r["op"], r["values"], r["digest"]) for r in results])


def traced_run(name, seed):
    """One untraced and one traced study pass on the same traced-setup meshes."""
    from tracing import NullTracer, Tracer, layer_table, patched
    from workloads import WORKLOADS, generate_meshes, load_reference, study_pass
    workload = WORKLOADS[name]
    reference = load_reference(name, seed)
    warm_up(workload)

    tracer = Tracer()
    meshes = generate_meshes(workload, seed, tracer)
    t0 = clock()
    plain = study_pass(workload, meshes, reference, NullTracer())
    untraced_s = clock() - t0
    with patched(tracer, inner_targets(tracer)):
        t0 = clock()
        traced = study_pass(workload, meshes, reference, tracer)
        traced_s = clock() - t0
    identical = _outputs(plain) == _outputs(traced)
    table = layer_table(tracer.spans)
    metrics = layer_metrics(table, tracer.counters, traced_s / untraced_s - 1)
    record = {"untraced_study_s": untraced_s, "traced_study_s": traced_s,
              "outputs_identical": identical, "layers": table,
              "counters": tracer.counters, "spans": tracer.spans}
    return metrics, plain + traced, identical, record


def print_layers(table):
    print(f"{'span':32} {'calls':>7} {'inclusive_s':>12} {'self_s':>10}  errors")
    for name, row in sorted(table.items()):
        errors = ", ".join(f"{k} {v}" for k, v in row["errors"].items())
        print(f"{name:32} {row['calls']:7d} {row['inclusive_s']:12.4f} "
              f"{row['self_s']:10.4f}  {errors}")


def run_one(args):
    from workloads import WORKLOADS, mesh_seed
    seed = mesh_seed(WORKLOADS[args.workload], args.seed)
    env = environment()
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values, results, identical, record = traced_run(args.workload,
                                                        args.seed)
    else:
        values, results, identical, record = untraced_run(
            args.workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = [r for r in results if not r["ok"]]
    result = {"correct": identical and not failed, "attempted": len(results),
              "failed": len(failed), "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "mesh_seed": seed, "trace": args.trace,
                   "env": env, "result": result, "operations": results,
                   **record}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed} (mesh seed "
          f"{seed})  trace {args.trace}")
    print("env " + json.dumps(env))
    if args.trace:
        print_layers(record["layers"])
        print(f"traced outputs identical to untraced: {identical}")
    for r in failed:
        print(f"FAILED {r['op']}: {'; '.join(r['problems'])}")
    for name, m in metrics.items():
        print(f"{name:34} {m['value']:>16.6g} {m['unit']}")
    print(f"failed/attempted {len(failed)}/{len(results)}")
    print(f"record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh interpreter."""
    from workloads import WORKLOADS
    rows, ok = [], True
    for name in WORKLOADS:
        row = {"workload": name}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for metric, m in result["metrics"].items():
                row[metric] = f"{m['value']:.4g} {m['unit']}"
            row[f"failed/attempted (trace {trace})"] = \
                f"{result['failed']}/{result['attempted']}"
        rows.append(row)
    columns = ["workload", "setup_s", "study_s", "peak_rss_mb",
               "failed/attempted (trace 0)", "failed/attempted (trace 1)",
               "trace.overhead"]
    print("\n" + " | ".join(columns))
    for row in rows:
        print(" | ".join(row.get(c, "-") for c in columns))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="hex_conv, alpha_sweep or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "VEM_THREADS" in os.environ:
        print("refusing to run: VEM_THREADS is set; the benchmark measures "
              "the library's defaults", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "polystokes")):
        print(f"refusing to run: no polystokes sources under {SRC}",
              file=sys.stderr)
        return 2
    # BLAS runs on one thread, set before numpy loads: a second OpenBLAS
    # thread made hex_conv no faster on 2 cores while using 40% more CPU,
    # and exposed every pass to load on the other core.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Stage times and peak memory of the largest solves, one fresh process each.

Each case (family, level, k) solves `test1` with the default basis: mesh
generation, `assemble`, `solve` and `compute_errors`, timed apart.  After
each stage the process's peak resident set size so far is read, so the
stage that sets the peak shows.  Every case runs in its own interpreter
with one BLAS thread, so no case inherits another's heap.  The rows go to
a CSV, one per case, with the cells, unknowns, stored entries of K and
PCG steps.

    PYTHONPATH=src python3 scripts/run_scale_study.py --output scale.csv
    PYTHONPATH=src python3 scripts/run_scale_study.py diamond:6:1

Positional arguments name cases as family:level:k; without them the study
runs diamond L5-L7 and hexagonal L4-L6 at k=1, then hexagonal L5, k=2.
Diamond L7 takes about a minute and 2 GiB on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

CASES = [("diamond", 5, 1), ("diamond", 6, 1), ("diamond", 7, 1),
         ("hexagonal", 4, 1), ("hexagonal", 5, 1), ("hexagonal", 6, 1),
         ("hexagonal", 5, 2)]
FIELDS = ["family", "level", "k", "cells", "unknowns", "nnz", "iterations",
          "mesh_s", "assemble_s", "solve_s", "errors_s", "rss_mesh_mib",
          "rss_assemble_mib", "rss_solve_mib", "rss_errors_mib"]


def peak_rss_mib():
    """The peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_case(family, level, k):
    """The CSV row of one case, run in this process."""
    from polystokes import (assemble, compute_errors, generate_mesh,
                            get_case, solve)
    case = get_case("test1")
    row = {"family": family, "level": level, "k": k}

    def stage(name, call):
        t0 = time.perf_counter()
        out = call()
        row[f"{name}_s"] = time.perf_counter() - t0
        row[f"rss_{name}_mib"] = peak_rss_mib()
        return out

    mesh = stage("mesh", lambda: generate_mesh(family, level))
    system = stage("assemble", lambda: assemble(
        mesh, k, f=case.forcing, g=case.velocity))
    sol = stage("solve", lambda: solve(system))
    stage("errors", lambda: compute_errors(sol, case))
    row.update(cells=mesh.n_cells, unknowns=sol.n_dofs,
               nnz=system.matrix.nnz, iterations=sol.iterations)
    return row


def parse_case(text):
    family, level, k = text.split(":")
    return family, int(level), int(k)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cases", nargs="*", type=parse_case,
                        metavar="family:level:k")
    parser.add_argument("--output", help="CSV file of the rows")
    parser.add_argument("--one", action="store_true",
                        help="run the one case given here and print its "
                             "row as JSON (what each fresh process does)")
    args = parser.parse_args(argv)
    if args.one:
        (case,) = args.cases
        print(json.dumps(run_case(*case)))
        return
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    rows = []
    for family, level, k in args.cases or CASES:
        out = subprocess.run(
            [sys.executable, __file__, "--one", f"{family}:{level}:{k}"],
            env=env, check=True, capture_output=True, text=True).stdout
        rows.append(json.loads(out))
        print(", ".join(f"{f}={rows[-1][f]:.3f}"
                        if isinstance(rows[-1][f], float)
                        else f"{f}={rows[-1][f]}" for f in FIELDS),
              flush=True)
    if args.output:
        from polystokes import write_csv
        write_csv(args.output, rows, FIELDS)


if __name__ == "__main__":
    main()

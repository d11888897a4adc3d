#!/usr/bin/env python3
"""Record the benchmark's reference values with the library's study functions.

Runs `run_convergence` and `run_alpha_sweep` for every workload and each of
its mesh seeds and writes `reference.json` next to this file.  Run it from
the repository root on the commit whose results are the reference (about
ten minutes on 2 cores):

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from polystokes.analysis import run_alpha_sweep, run_convergence  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, conv_op, sweep_op  # noqa: E402


def record(name, seed):
    """Reference rows of one workload and mesh seed, from the study functions."""
    w = WORKLOADS[name]
    if w.kind == "convergence":
        (k,), (basis,), (alpha,) = w.ks, w.bases, w.alphas
        rows = run_convergence(w.family, list(w.levels), k, w.case,
                               basis_kind=basis, alpha=alpha, rng_seed=seed,
                               timings=False)
        return [{"op": conv_op(r["level"]), "n_dofs": r["n_dofs"],
                 "err0_u": r["err0_u"], "err1_u": r["err1_u"],
                 "err0_p": r["err0_p"]} for r in rows]
    (level,) = w.levels
    out = []
    for k in w.ks:
        rows = run_alpha_sweep(w.family, level, k, alphas=w.alphas,
                               basis_kinds=w.bases, rng_seed=seed)
        out += [{"op": sweep_op(r["basis"], k, r["alpha"]), "cond": r["cond"]}
                for r in rows]
    return out


def main():
    table = {name: {} for name in WORKLOADS}
    for name, workload in WORKLOADS.items():
        for seed in workload.mesh_seeds:
            rows = table[name][str(seed)] = record(name, seed)
            print(f"{name} seed {seed}: {len(rows)} rows", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "unknown"
    data = {"recorded_at": commit, "numpy": np.__version__,
            "scipy": scipy.__version__, "workloads": table}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

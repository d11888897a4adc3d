"""Benchmark workloads: their definitions, one timed study pass, the checks.

A workload is a mesh family with its levels plus the (k, basis, alpha)
combinations solved on them.  Convergence workloads make the calls of
`polystokes.analysis.run_convergence`; the sweep makes those of
`run_alpha_sweep`, so every checked number equals a value of their CSV rows.

The benchmark seed picks one of the workload's mesh seeds, which is passed
as `rng_seed` to `generate_mesh`; `record_reference.py` records reference
values for every mesh seed a workload can pick.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from polystokes import (assemble, compute_errors, condition_number,
                        generate_mesh, get_case, solve, with_alpha)
from polystokes.analysis import DEFAULT_ALPHAS
from polystokes.stokes_local import StabilizationConfig

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Solution.residual is 2e-16..3e-14 on every workload at commit 08c0727; a
# failed or diverged solve lands far above this bound.
RESIDUAL_BOUND = 1e-10
# Error norms: factoring with splu(permc_spec="MMD_AT_PLUS_A",
# diag_pivot_thresh=0, SymmetricMode) instead of the default moves them by at
# most 3e-14 relative on hexagonal L1-4 and voronoi L1-3; a wrong operator or
# right-hand side changes them in the leading digits.
ERR_RTOL = 1e-8
ERR_ATOL = 1e-14
# Condition numbers: the smallest eigenvalue carries an absolute error of
# about eps * ||K||, so the relative error of cond grows like eps * cond (a
# dense SVD differs from the symmetric eigensolve by up to 0.7 eps * cond on
# alpha_sweep).  Values above ~1/eps, at the tiny-alpha end of the sweep, are
# therefore only checked to be of that size.
COND_RTOL = 1e-8
COND_EPS_FACTOR = 10.0


@dataclass(frozen=True)
class Workload:
    kind: str                    # "convergence" or "sweep"
    family: str
    levels: tuple
    ks: tuple
    bases: tuple
    alphas: tuple
    mesh_seeds: tuple            # rng_seed pool; --seed picks one
    case: str = "test1"


WORKLOADS = {
    # A study pass of each workload takes a few seconds, so that a run holds
    # several passes and reports their median: one pass of hexagonal L1-4 or
    # voronoi L1-3 (20-30 s) was all a run could hold, and its time alone
    # spread by a third from run to run on a shared host.
    # The hexagonal family does not depend on rng_seed.
    "hex_conv": Workload("convergence", "hexagonal", (1, 2, 3), (3,),
                         ("scaled_monomial",), (1.0,), (0,)),
    # On L1 the sweep's cost hardly depends on the mesh seed.
    "alpha_sweep": Workload("sweep", "voronoi", (1,), (1, 2),
                            ("scaled_monomial", "l2_orthonormal"),
                            tuple(DEFAULT_ALPHAS), tuple(range(16))),
}


def mesh_seed(workload, seed):
    return workload.mesh_seeds[seed % len(workload.mesh_seeds)]


def generate_meshes(workload, seed, tracer):
    meshes = []
    for level in workload.levels:
        with tracer.span("geometry.generate_mesh"):
            mesh = generate_mesh(workload.family, level,
                                 rng_seed=mesh_seed(workload, seed))
        tracer.count("geometry.cells", len(mesh.cells))
        meshes.append(mesh)
    return meshes


def load_reference(name, seed):
    """Reference values of one workload and seed, keyed by operation id."""
    with open(REFERENCE_PATH) as fh:
        rows = json.load(fh)["workloads"][name]
    rows = rows[str(mesh_seed(WORKLOADS[name], seed))]
    return {row["op"]: row for row in rows}


def conv_op(level):
    return f"L{level}"


def sweep_op(basis, k, alpha):
    return f"{basis}/k{k}/alpha={alpha!r}"


def _close(value, ref, rtol, atol=0.0):
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref) + atol


def check(values, ref):
    """Reasons the operation's values disagree with its reference row."""
    if ref is None:
        return ["no reference value"]
    problems = []
    if "residual" in values and not values["residual"] <= RESIDUAL_BOUND:
        problems.append(f"residual {values['residual']:.3e} > {RESIDUAL_BOUND:.0e}")
    if "n_dofs" in values and values["n_dofs"] != ref["n_dofs"]:
        problems.append(f"n_dofs {values['n_dofs']} != {ref['n_dofs']}")
    for key in ("err0_u", "err1_u", "err0_p"):
        if key in values and not _close(values[key], ref[key], ERR_RTOL, ERR_ATOL):
            problems.append(f"{key} {values[key]!r} != {ref[key]!r}")
    if "cond" in values:
        rtol = COND_RTOL + COND_EPS_FACTOR * np.finfo(float).eps * ref["cond"]
        if not _close(values["cond"], ref["cond"], rtol):
            problems.append(f"cond {values['cond']!r} != {ref['cond']!r}")
    return problems


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _record(results, op, reference, values=None, digest=None, error=None):
    problems = [error] if error else check(values, reference.get(op))
    results.append({"op": op, "ok": not problems, "problems": problems,
                    "values": values, "digest": digest})


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _convergence_pass(workload, meshes, reference, tracer, results):
    case = get_case(workload.case)
    (k,), (basis,), (alpha,) = workload.ks, workload.bases, workload.alphas
    config = StabilizationConfig(alpha=alpha)
    for level, mesh in zip(workload.levels, meshes):
        op = tracer.op = conv_op(level)
        try:
            with tracer.span("assembly.assemble"):
                system = assemble(mesh, k, f=case.forcing, g=case.velocity,
                                  config=config, basis_kind=basis,
                                  condensed=True)
            tracer.count("assembly.unknowns", system.n_dofs)
            tracer.count("assembly.matrix_nnz", system.matrix.nnz)
            with tracer.span("assembly.solve"):
                sol = solve(system)
            tracer.maximum("assembly.max_residual", sol.residual)
            with tracer.span("analysis.compute_errors"):
                rep = compute_errors(sol, case)
        except Exception as exc:   # a failed operation is counted, not fatal
            _record(results, op, reference, error=_failure(exc))
            continue
        values = {"n_dofs": sol.n_dofs, "err0_u": rep.err0_u,
                  "err1_u": rep.err1_u, "err0_p": rep.err0_p,
                  "residual": sol.residual}
        _record(results, op, reference, values,
                _digest(sol.ux, sol.uy, sol.p, sol.bubbles))


def _sweep_pass(workload, meshes, reference, tracer, results):
    (mesh,) = meshes
    for k in workload.ks:
        for basis in workload.bases:
            tracer.op = f"{basis}/k{k}"
            try:
                with tracer.span("assembly.assemble"):
                    base = assemble(mesh, k, g=np.zeros_like,
                                    config=StabilizationConfig(
                                        alpha=workload.alphas[0]),
                                    basis_kind=basis, condensed=True)
                tracer.count("assembly.unknowns", base.n_dofs)
                tracer.count("assembly.matrix_nnz", base.matrix.nnz)
            except Exception as exc:
                for alpha in workload.alphas:
                    _record(results, sweep_op(basis, k, alpha), reference,
                            error=_failure(exc))
                continue
            for alpha in workload.alphas:
                op = tracer.op = sweep_op(basis, k, alpha)
                try:
                    with tracer.span("assembly.with_alpha"):
                        system = with_alpha(base, alpha)
                    with tracer.span("assembly.condition_number"):
                        cond = condition_number(system)
                except Exception as exc:
                    _record(results, op, reference, error=_failure(exc))
                    continue
                _record(results, op, reference, {"cond": cond},
                        _digest(np.float64(cond)))


def study_pass(workload, meshes, reference, tracer):
    """Run every operation once on the generated meshes; one result each."""
    results = []
    if workload.kind == "convergence":
        _convergence_pass(workload, meshes, reference, tracer, results)
    else:
        _sweep_pass(workload, meshes, reference, tracer, results)
    tracer.op = None
    return results

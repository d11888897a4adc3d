"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The convergence and conditioning studies run at full size, so the whole file
takes several minutes.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import polystokes.analysis as an
import polystokes.assembly as asm
import polystokes.geometry as geo
import polystokes.polybasis as pb
import polystokes.vemspace as vs
from oracles import projector_defect


def _report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {label}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


# -- 1. projector identities -------------------------------------------------

def test_criterion_1_projector_identities():
    worst, where = 0.0, None
    for family in geo.MESH_FAMILIES:
        for level in (1, 2):
            mesh = geo.generate_mesh(family, level)
            for k in (1, 2, 3, 4):
                for c, cell in enumerate(mesh.cells):
                    ctx = vs.build_element(mesh.vertices[cell], k)
                    defect = projector_defect(ctx)
                    if defect > worst:
                        worst, where = defect, f"{family} L{level} k={k} cell {c}"
    _report(1, "projector identities", worst <= 1e-11,
            f"max relative L2 defect {worst:.3e} at {where} (tol 1e-11)")


# -- 2. bubble orthogonality to harmonic polynomials --------------------------

def test_criterion_2_bubble_harmonic_orthogonality():
    rng = np.random.default_rng(42)
    cells = []
    for family in geo.MESH_FAMILIES:
        mesh = geo.generate_mesh(family, 1)
        idx = rng.choice(len(mesh.cells), size=13, replace=False)
        cells.extend(mesh.vertices[mesh.cells[i]] for i in idx)
    cells = cells[:50]
    assert len(cells) == 50
    worst = 0.0
    for verts in cells:
        for k in (1, 2):
            ctx = vs.build_element(verts, k)
            H = pb.harmonic_subspace(ctx.basis, k + 2)
            pair = H.T @ ctx.stiffness @ ctx.operators.bubble_pinabla
            scale = (np.linalg.norm(ctx.stiffness) * np.abs(H).max()
                     * max(np.abs(ctx.operators.bubble_pinabla).max(), 1e-30))
            worst = max(worst, np.abs(pair).max() / max(scale, 1.0))
    _report(2, "bubble/harmonic elliptic pairing", worst <= 1e-12,
            f"max relative pairing {worst:.3e} (tol 1e-12) on 50 cells")


# -- 3. patch test -------------------------------------------------------------

def test_criterion_3_patch():
    worst_dof = worst_bub = 0.0
    for family, level in (("hexagonal", 2), ("voronoi", 1)):
        mesh = geo.generate_mesh(family, level)
        for k in (1, 2, 3):
            case = an.get_case(f"patch_k{k}")
            sol = asm.solve_stokes(mesh, k, f=case.forcing, g=case.velocity)
            dm = sol.dof_map
            ux = np.full(dm.n_scalar, np.nan)
            uy = np.full(dm.n_scalar, np.nan)
            p = np.full(dm.n_scalar, np.nan)
            for c, ctx in enumerate(sol.contexts):
                gd = dm.cell_scalar_dofs(mesh, c)
                ux[gd] = vs.interpolate_scalar(ctx, lambda q: case.velocity(q)[:, 0])
                uy[gd] = vs.interpolate_scalar(ctx, lambda q: case.velocity(q)[:, 1])
                p[gd] = vs.interpolate_scalar(ctx, case.pressure)
            err = max(np.abs(sol.ux - ux).max(), np.abs(sol.uy - uy).max(),
                      np.abs(sol.p - p).max())
            worst_dof = max(worst_dof, err)
            worst_bub = max(worst_bub, np.abs(sol.bubbles).max())
    _report(3, "patch test k=1..3", worst_dof <= 1e-9 and worst_bub <= 1e-9,
            f"max DOF error {worst_dof:.3e}, max bubble {worst_bub:.3e} (tol 1e-9)")


# -- 4. convergence rates ------------------------------------------------------

def test_criterion_4_convergence_rates():
    t0 = time.process_time()
    failures = []
    lines = []
    for case in ("test1", "test2"):
        # voronoi meshes use the documented reference instance (seed 42);
        # last-two-level rates on random meshes fluctuate by about +-0.15
        # with the seed, so the measurement needs a fixed instance
        for family, levels, seed in (("hexagonal", [1, 2, 3, 4, 5], 0),
                                     ("voronoi", [1, 2, 3], 42)):
            for k in (1, 2):
                rows = an.run_convergence(family, levels, k, case,
                                          rng_seed=seed, timings=False)
                r = rows[-1]
                ok = (r["rate1_u"] >= k - 0.15 and r["rate0_p"] >= k - 0.25
                      and r["rate0_u"] >= k + 1 - 0.2)
                lines.append(f"{case}/{family}/k={k}: "
                             f"rate0_u={r['rate0_u']:.2f} "
                             f"rate1_u={r['rate1_u']:.2f} "
                             f"rate0_p={r['rate0_p']:.2f}")
                if not ok:
                    failures.append(lines[-1])
    elapsed = time.process_time() - t0
    detail = f"{'; '.join(lines)} [{elapsed:.0f}s CPU]"
    _report(4, "convergence rates", not failures and elapsed < 900, detail)


# -- 5. static condensation equivalence -----------------------------------------

def test_criterion_5_condensation():
    mesh = geo.generate_mesh("hexagonal", 2)
    case = an.get_case("test1")
    worst = 0.0
    for k in (1, 2):
        full = asm.assemble(mesh, k, f=case.forcing, g=case.velocity)
        a = asm.solve(full)
        b = asm.solve(asm.condense(full))
        for fa, fb in ((a.ux, b.ux), (a.uy, b.uy), (a.p, b.p),
                       (a.bubbles, b.bubbles)):
            num = np.linalg.norm(np.ravel(fa) - np.ravel(fb))
            den = max(np.linalg.norm(np.ravel(fb)), 1e-30)
            worst = max(worst, num / den)
    _report(5, "condensed vs uncondensed", worst <= 1e-10,
            f"max relative DOF difference {worst:.3e} (tol 1e-10)")


# -- 6. conditioning study -------------------------------------------------------

# First-run plateau factors max kappa / min kappa over alpha in [1e-5, 1e3]
# on voronoi level 1 with the orthonormal basis (measured 193/177/211/169),
# recorded x1.5 as regression pins
PLATEAU_PIN = {1: 290.0, 2: 266.0, 3: 316.0, 4: 253.0}

ALPHAS_6 = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)


def test_criterion_6_conditioning():
    t0 = time.process_time()
    from polystokes.stokes_local import StabilizationConfig
    mesh = geo.generate_mesh("voronoi", 1)
    g0 = lambda q: np.zeros_like(q)
    details = []
    ok = True
    mono_at_1 = {}
    ortho_at_1 = {}
    for k in (1, 2, 3, 4):
        base = asm.assemble(mesh, k, g=g0,
                            config=StabilizationConfig(alpha=ALPHAS_6[0]),
                            basis_kind="l2_orthonormal", condensed=True)
        conds = np.array([asm.condition_number(asm.with_alpha(base, a))
                          for a in ALPHAS_6])
        ratio = conds.max() / conds.min()
        pin = PLATEAU_PIN[k]
        if pin is not None and ratio > pin:
            ok = False
        ortho_at_1[k] = conds[ALPHAS_6.index(1.0)]
        details.append(f"k={k} plateau factor {ratio:.2f}"
                       + (f" (pin {pin:.1f})" if pin else ""))
        if k in (3, 4):
            mono = asm.assemble(mesh, k, g=g0,
                                config=StabilizationConfig(alpha=1.0),
                                basis_kind="scaled_monomial", condensed=True)
            mono_at_1[k] = asm.condition_number(mono)
            if not mono_at_1[k] > ortho_at_1[k]:
                ok = False
            details.append(f"k={k} kappa mono/ortho at alpha=1: "
                           f"{mono_at_1[k]:.3e}/{ortho_at_1[k]:.3e}")
    elapsed = time.process_time() - t0
    _report(6, "conditioning study", ok and elapsed < 600,
            f"{'; '.join(details)} [{elapsed:.0f}s CPU]")


# -- 7. interpolation order -------------------------------------------------------

def test_criterion_7_interpolation_order():
    t0 = time.process_time()

    def f(q):
        return np.sin(2 * np.pi * q[:, 0]) * np.cos(2 * np.pi * q[:, 1])

    details = []
    ok = True
    for k in (1, 2, 3):
        hs, errs = [], []
        for level in (2, 3, 4, 5):
            mesh = geo.generate_mesh("hexagonal", level)
            e2 = 0.0
            for cell in mesh.cells:
                # degree 2k+2 integrates everything the interpolation path
                # touches exactly (degree-2k mass Gram, degree-(2k-2)
                # moments and stiffness)
                ctx = vs.build_element(mesh.vertices[cell], k,
                                       quad_degree=2 * k + 2)
                dofs = vs.interpolate_scalar(ctx, f)
                coef = ctx.operators.pizero_k @ dofs
                vals = pb.evaluate(ctx.basis, ctx.quad.points)[:, :ctx.slice_hi] @ coef
                e2 += ctx.quad.weights @ (f(ctx.quad.points) - vals) ** 2
            hs.append(mesh.h)
            errs.append(np.sqrt(e2))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        details.append(f"k={k} order {slope:.2f} (need >= {k + 0.85:.2f})")
        if slope < k + 0.85:
            ok = False
    elapsed = time.process_time() - t0
    _report(7, "interpolation order", ok and elapsed < 120,
            f"{'; '.join(details)} [{elapsed:.0f}s CPU]")


# -- 8. CLI determinism --------------------------------------------------------------

def _run_cli(args):
    # the subprocess must import the same polystokes package as the tests
    src = os.path.dirname(os.path.dirname(os.path.abspath(asm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "polystokes.cli"] + args,
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res


def test_criterion_8_cli_determinism(tmp_path):
    pairs = []
    for i in (0, 1):
        out = tmp_path / f"conv{i}.csv"
        _run_cli(["convergence", "--cases", "test1", "--families", "hexagonal",
                  "--levels", "1..3", "--k", "1", "--no-timings",
                  "--output", str(out)])
        pairs.append(out.read_bytes())
    conv_ok = pairs[0] == pairs[1]
    pairs = []
    for i in (0, 1):
        out = tmp_path / f"sweep{i}.csv"
        _run_cli(["alpha-sweep", "--family", "voronoi", "--level", "1",
                  "--k", "1", "--output", str(out)])
        pairs.append(out.read_bytes())
    sweep_ok = pairs[0] == pairs[1]
    _report(8, "CLI determinism", conv_ok and sweep_ok,
            "convergence and alpha-sweep CSVs byte-identical across reruns")

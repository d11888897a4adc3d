"""Manufactured solutions, error norms, and experiment drivers.

Errors are computed against the cellwise L2 projections of the discrete
solution (conforming velocity part and pressure); all norms are relative
unless the exact norm vanishes, in which case the absolute error is
reported.  The convergence study and the conditioning sweep are one call
each; write_csv writes their rows as plain CSV.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from . import polybasis as pb
from .assembly import assemble, condition_number, solve_stokes, with_alpha
from .geometry import check_mesh_level, generate_mesh
from .stokes_local import StabilizationConfig
from .vemspace import check_degree

__all__ = ["ManufacturedCase", "trig_case", "poly_case", "patch_case",
           "case_for", "ErrorReport", "compute_errors", "run_convergence",
           "run_alpha_sweep", "write_csv", "DEFAULT_ALPHAS"]

DEFAULT_ALPHAS = (1e-15, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
                  1.0, 10.0, 1e2, 1e3)


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact Stokes solution on the unit square with zero-mean pressure.

    velocity/forcing map (n, 2) points to (n, 2) values; pressure maps to
    (n,); grad_velocity maps to (n, 2, 2) with [i, c, d] = d u_c / d x_d.
    """

    name: str
    velocity: callable
    pressure: callable
    forcing: callable
    grad_velocity: callable


def trig_case():
    """Divergence-free trigonometric flow with a trigonometric pressure."""
    two_pi = 2.0 * np.pi

    def velocity(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.sin(two_pi * y) * (1.0 - np.cos(two_pi * x)),
                         np.sin(two_pi * x) * (np.cos(two_pi * y) - 1.0)], axis=1)

    def pressure(pts):
        x, y = pts[:, 0], pts[:, 1]
        return two_pi * (np.cos(two_pi * y) - np.cos(two_pi * x))

    def forcing(pts):
        x, y = pts[:, 0], pts[:, 1]
        sx, cx = np.sin(two_pi * x), np.cos(two_pi * x)
        sy, cy = np.sin(two_pi * y), np.cos(two_pi * y)
        f1 = -4.0 * np.pi ** 2 * sy * (2.0 * cx - 1.0) + 4.0 * np.pi ** 2 * sx
        f2 = 4.0 * np.pi ** 2 * sx * (2.0 * cy - 1.0) - 4.0 * np.pi ** 2 * sy
        return np.stack([f1, f2], axis=1)

    def grad_velocity(pts):
        x, y = pts[:, 0], pts[:, 1]
        sx, cx = np.sin(two_pi * x), np.cos(two_pi * x)
        sy, cy = np.sin(two_pi * y), np.cos(two_pi * y)
        g = np.empty((len(pts), 2, 2))
        g[:, 0, 0] = two_pi * sy * sx
        g[:, 0, 1] = two_pi * cy * (1.0 - cx)
        g[:, 1, 0] = two_pi * cx * (cy - 1.0)
        g[:, 1, 1] = -two_pi * sx * sy
        return g

    return ManufacturedCase("test1", velocity, pressure, forcing, grad_velocity)


# the coordinate t and the constant 1, in which the polynomial cases
# write their fields
_T = Polynomial([0.0, 1.0])
_ONE = _T ** 0


def _polynomial_case(name, velocity, pressure):
    """The case whose fields are sums of products a(x) b(y) of Polynomials.

    velocity holds one such sum per component and pressure one sum, each a
    list of (a, b) pairs; forcing = -Δu + ∇p and grad_velocity are derived
    from them.
    """
    def dx(terms):
        return [(a.deriv(), b) for a, b in terms]

    def dy(terms):
        return [(a, b.deriv()) for a, b in terms]

    def minus_laplacian(terms):
        return ([(-a.deriv(2), b) for a, b in terms]
                + [(-a, b.deriv(2)) for a, b in terms])

    grad = [[dx(u), dy(u)] for u in velocity]
    force = [minus_laplacian(u) + dp
             for u, dp in zip(velocity, (dx(pressure), dy(pressure)))]

    def value(terms, pts):
        return sum((a(pts[:, 0]) * b(pts[:, 1]) for a, b in terms),
                   np.zeros(len(pts)))

    def values(sums, pts):
        return np.stack([value(terms, pts) for terms in sums], axis=1)

    return ManufacturedCase(
        name,
        velocity=lambda pts: values(velocity, pts),
        pressure=lambda pts: value(pressure, pts),
        forcing=lambda pts: values(force, pts),
        grad_velocity=lambda pts: np.stack([values(row, pts) for row in grad],
                                           axis=1))


def poly_case():
    """Divergence-free polynomial flow; the pressure is shifted to zero mean."""
    t, one = _T, _ONE
    return _polynomial_case(
        "test2",
        velocity=([(t ** 4 - 2 * t ** 3 + t ** 2, 2 * t ** 3 - t)],
                  [(-(2 * t ** 3 - 3 * t ** 2 + t), t ** 4 - t ** 2)]),
        pressure=[(4 * t ** 3 - 6 * t ** 2 + 2 * t, 2 * t ** 3 - t),
                  (0.2 * (6 * t ** 5 - 15 * t ** 4 + 10 * t ** 3), t),
                  # the raw constant -1/10, shifted by +1/20 to zero mean
                  ((-0.1 + 0.05) * one, one)])


def patch_case(k):
    """Divergence-free polynomial velocity of degree k, and pressure of
    degree k - 1 (degree 1 at k = 1).

    The discrete solution reproduces these fields exactly (up to roundoff)
    for the matching method order.
    """
    t, one = _T, _ONE
    linear = [(t, one), (one, t), (-one, one)]
    fields = {1: (([(one, t)], [(t, one)]), linear),
              2: (([(3 * one, t ** 2)], [(-3 * t ** 2, one)]), linear),
              3: (([(4 * one, t ** 3)], [(-4 * t ** 3, one)]),
                  [(t ** 2, one), (one, t ** 2), (-2.0 / 3.0 * one, one)])}
    if k not in fields:
        raise ValueError("patch cases exist for k in {1, 2, 3}")
    return _polynomial_case(f"patch_k{k}", *fields[k])


_CASES = {"test1": trig_case, "test2": poly_case}


def get_case(name):
    """The case of that name: test1, test2 or patch_k1..3.  Raises
    ValueError for any other name."""
    if name in _CASES:
        return _CASES[name]()
    digits = name.removeprefix("patch_k")
    if digits != name and digits.isdecimal():
        return patch_case(int(digits))
    raise ValueError(f"unknown case {name!r}")


def case_for(case, k):
    """The case to solve at degree k: the case of that name, where the name
    "patch" means patch_k{k}, or a case that is not a name as given."""
    if not isinstance(case, str):
        return case
    return get_case(f"patch_k{k}" if case == "patch" else case)


@dataclass(frozen=True)
class ErrorReport:
    err0_u: float       # relative L2 velocity error of the projection
    err1_u: float       # relative H1-seminorm velocity error
    err0_p: float       # relative L2 pressure error


def _relative(err2, ref2):
    err = np.sqrt(err2)
    ref = np.sqrt(ref2)
    return float(err / ref) if ref > 1e-14 else float(err)


def _dot(w, x):
    """Each cell's weights dotted with its values, (g, n) . (g, n) -> (g,)."""
    return (w[:, None, :] @ x[:, :, None])[:, 0, 0]


def compute_errors(solution, case):
    """Projection-based error norms of a discrete solution.

    Each cell's contributions are computed over the batch records of the
    solution (vemspace.BatchRecord) and then summed in cell order; the
    degree-k basis is evaluated at a batch's quadrature points from one
    stacked power table.
    """
    k = solution.dof_map.k
    # per cell: e0u, e1u, e0p and the exact norms n0u, n1u, n0p, squared
    parts = np.zeros((6, solution.dof_map.n_cells))
    for rec in solution.batches:
        ids = rec.cells
        gd = solution.dof_map.cell_dofs[ids, :rec.layout.n_scalar]
        pz = rec.pizero_k
        cux = pz @ solution.ux[gd][:, :, None]      # (g, nk, 1)
        cuy = pz @ solution.uy[gd][:, :, None]
        cp = pz @ solution.p[gd][:, :, None]
        pts, w = rec.quad.points, rec.quad.weights
        basis = rec.basis
        phi = pb.evaluate(basis, pb.power_table(
            k, basis.centroid[:, None, :], basis.diameter[:, None, None],
            pts))                                   # (g, nq, nk)
        dx, dy = pb.derivative_matrices(basis)

        flat = pts.reshape(-1, 2)
        u = case.velocity(flat).reshape(pts.shape)
        gu = case.grad_velocity(flat).reshape(pts.shape + (2,))
        p = case.pressure(flat).reshape(w.shape)

        du0 = (phi @ cux)[..., 0] - u[..., 0]
        du1 = (phi @ cuy)[..., 0] - u[..., 1]
        dp = (phi @ cp)[..., 0] - p
        parts[0, ids] = _dot(w, du0 ** 2 + du1 ** 2)
        parts[2, ids] = _dot(w, dp ** 2)
        parts[3, ids] = _dot(w, u[..., 0] ** 2 + u[..., 1] ** 2)
        parts[5, ids] = _dot(w, p ** 2)

        # the gradient's coefficients, then its values: (g, nq, 2)
        gh0 = phi @ np.concatenate([dx @ cux, dy @ cux], axis=-1)
        gh1 = phi @ np.concatenate([dx @ cuy, dy @ cuy], axis=-1)
        d0 = gh0 - gu[..., 0, :]
        d1 = gh1 - gu[..., 1, :]
        parts[1, ids] = _dot(w, np.sum(d0 ** 2 + d1 ** 2, axis=-1))
        parts[4, ids] = _dot(w, np.sum(gu[..., 0, :] ** 2 + gu[..., 1, :] ** 2,
                                       axis=-1))

    # np.cumsum adds in order, as a running sum over the cells does
    e0u, e1u, e0p, n0u, n1u, n0p = np.cumsum(parts, axis=1)[:, -1]
    return ErrorReport(err0_u=_relative(e0u, n0u),
                       err1_u=_relative(e1u, n1u),
                       err0_p=_relative(e0p, n0p))


def _rate(prev_err, prev_h, err, h):
    if err <= 0 or prev_err <= 0:
        return float("nan")
    return float(np.log(prev_err / err) / np.log(prev_h / h))


CONVERGENCE_FIELDS = ["family", "level", "k", "h", "n_dofs", "err0_u",
                      "err1_u", "err0_p", "rate0_u", "rate1_u", "rate0_p",
                      "seconds"]


def _listed(value):
    """value as a list: a list or tuple as it is, anything else as one item."""
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _given(values, what):
    """values, unless there are none: then ValueError("no {what} given")."""
    if len(values) == 0:
        raise ValueError(f"no {what} given")
    return values


def _once_each(values, what):
    """values, unless one of them repeats: then ValueError naming it."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{what} {v!r} given twice")
    return values


def run_convergence(family, levels, k, case, basis_kind="scaled_monomial",
                    alpha=1.0, rng_seed=0, timings=True):
    """Solve on mesh sequences and tabulate errors and observed rates.

    family, k and case (a ManufacturedCase or a name for case_for) are each
    one value or a list.  Every input is checked, and an empty list or a
    repeated family or level refused, before the first mesh; each (family,
    level) mesh is generated once, level by level.  Rows come
    in the order case, family, k, level, with rates along each (case,
    family, k) sequence; seconds cover assembly, solve and error norms.
    """
    families = _once_each(_given(_listed(family), "families"), "family")
    ks = _given(_listed(k), "degrees")
    for name in families:
        for level in _once_each(_given(levels, "levels"), "level"):
            check_mesh_level(name, level)
    for degree in ks:
        check_degree(degree)
    solves = [(c, d, degree, case_for(name, degree))
              for c, name in enumerate(_given(_listed(case), "cases"))
              for d, degree in enumerate(ks)]
    config = StabilizationConfig(alpha=alpha)
    pb.check_basis_kind(basis_kind)
    series = {}     # (case, family, k) positions -> rows in level order
    for f, name in enumerate(families):
        for level in levels:
            mesh = generate_mesh(name, level, rng_seed=rng_seed)
            for c, d, degree, exact in solves:
                t0 = time.perf_counter()
                sol = solve_stokes(mesh, degree, f=exact.forcing,
                                   g=exact.velocity, config=config,
                                   basis_kind=basis_kind)
                rep = compute_errors(sol, exact)
                row = {"family": name, "level": level, "k": degree,
                       "h": mesh.h, "n_dofs": sol.n_dofs, **vars(rep),
                       "seconds": time.perf_counter() - t0 if timings else 0.0}
                before = series.setdefault((c, f, d), [])
                for norm in ("0_u", "1_u", "0_p"):
                    row["rate" + norm] = (_rate(before[-1]["err" + norm],
                                                before[-1]["h"],
                                                row["err" + norm], mesh.h)
                                          if before else float("nan"))
                before.append(row)
    return [row for key in sorted(series) for row in series[key]]


ALPHA_FIELDS = ["basis", "k", "alpha", "cond"]


def run_alpha_sweep(family, level, k, alphas=DEFAULT_ALPHAS,
                    basis_kinds=("scaled_monomial", "l2_orthonormal"),
                    rng_seed=0):
    """Condition number of the reduced system over a stabilization sweep at
    one degree k or a list of them; every input is checked, and an empty
    list refused, before the one mesh is generated.  Rows come in the order k, basis kind, alpha."""
    ks = _given(_listed(k), "degrees")
    for degree in ks:
        check_degree(degree)
    configs = [StabilizationConfig(alpha=alpha)
               for alpha in _given(alphas, "alphas")]
    for kind in _given(basis_kinds, "basis kinds"):
        pb.check_basis_kind(kind)
    mesh = generate_mesh(family, level, rng_seed=rng_seed)
    rows = []
    for degree in ks:
        for kind in basis_kinds:
            base = assemble(mesh, degree, config=configs[0], basis_kind=kind)
            for alpha in alphas:
                system = with_alpha(base, alpha)
                rows.append({"basis": kind, "k": degree, "alpha": alpha,
                             "cond": condition_number(system)})
    return rows


def write_csv(path, rows, fields):
    """Write rows (dicts) to CSV with full-precision, repr-stable floats."""
    def fmt(v):
        # repr of a numpy float names its type under numpy 2
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return v

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([fmt(row[f]) for f in fields])

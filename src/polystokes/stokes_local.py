"""Element matrices for the bubble-enriched Stokes discretization.

Velocity DOFs are ordered [x-component scalar DOFs | y-component scalar
DOFs] for the conforming part and [x bubbles | y bubbles] for the
enrichment; there is no coupling block between the two parts.  The
stabilizations are plain dofi-dofi sums on the projector complements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import polybasis as pb

__all__ = ["StabilizationConfig", "LocalStokesBlocks", "local_a", "local_b",
           "local_c", "local_mean", "local_rhs", "build_blocks"]


@dataclass(frozen=True)
class StabilizationConfig:
    """Pressure weight alpha > 0 and bubble stabilization weight >= 0."""

    alpha: float = 1.0
    beta_sharp: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta_sharp < 0:
            raise ValueError("beta_sharp must be nonnegative")


@dataclass(frozen=True)
class LocalStokesBlocks:
    A_u: np.ndarray      # (2 n_sc, 2 n_sc)
    A_b: np.ndarray      # (2 nb, 2 nb)
    B_u: np.ndarray      # (n_sc, 2 n_sc), pressure rows
    B_b: np.ndarray      # (n_sc, 2 nb)
    C_p: np.ndarray      # (n_sc, n_sc)
    mean_weights: np.ndarray   # (n_sc,), pressure-mean constraint row
    F_u: np.ndarray = field(default=None)
    F_b: np.ndarray = field(default=None)


def _block_diag2(M):
    n = M.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = M
    out[n:, n:] = M
    return out


def local_a(ctx, config=StabilizationConfig()):
    """Grad-grad blocks: consistency on the projections, dofi-dofi on the rest."""
    ops = ctx.operators
    nk = ctx.slice_hi
    stiff_k = ctx.stiffness[:nk, :nk]

    cons = ops.pinabla_k.T @ stiff_k @ ops.pinabla_k
    comp = np.eye(ops.dof_matrix.shape[0]) - ops.dof_matrix @ ops.pinabla_k
    A_sc = cons + comp.T @ comp
    A_u = _block_diag2(A_sc)

    cons_b = ops.bubble_pinabla.T @ ctx.stiffness @ ops.bubble_pinabla
    if config.beta_sharp > 0:
        comp_b = np.eye(ctx.layout.n_bubble) - ops.bubble_dof_matrix @ ops.bubble_pinabla
        cons_b = cons_b + config.beta_sharp * comp_b.T @ comp_b
    A_b = _block_diag2(cons_b)
    return A_u, A_b


def local_b(ctx):
    """Discrete divergence blocks b_h^K(v, q) = b^K(v, Pi0 q).

    Conforming part through integration by parts (volume term against
    Pi0 v, boundary term from the edge traces); bubble part is the pure
    volume term since bubbles vanish on the cell boundary.
    """
    ops = ctx.operators
    nk = ctx.slice_hi
    dx, dy = pb.derivative_matrices(ctx.basis.prefix(ctx.k))
    mass_k = ctx.mass[:nk, :nk]
    r_x, r_y = ops.boundary_rx, ops.boundary_ry

    pz = ops.pizero_k
    vol_x = pz.T @ (dx.T @ mass_k) @ pz      # (n_p, n_sc)
    vol_y = pz.T @ (dy.T @ mass_k) @ pz
    bnd_x = pz.T @ r_x
    bnd_y = pz.T @ r_y
    B_u = np.hstack([bnd_x - vol_x, bnd_y - vol_y])

    lo, hi = ctx.slice_lo, ctx.slice_hi
    Bb_x = -ctx.area * (dx @ pz)[lo:hi, :].T   # (n_p, nb)
    Bb_y = -ctx.area * (dy @ pz)[lo:hi, :].T
    B_b = np.hstack([Bb_x, Bb_y])
    return B_u, B_b


def local_c(ctx):
    """Pressure stabilization: area-scaled dofi-dofi on the L2-projection
    complement.

    The |K| factor makes the stabilization spectrally equivalent to the local
    L2 norm on the kernel of the projection (pointwise DOF values scale like
    ``||q||_0 / h``), which is required for the pressure block to stay
    consistent with the L2 setting of the scheme.  Without it the
    stabilization is too strong by h^-2 and pollutes the velocity L2 rate.
    """
    ops = ctx.operators
    comp = np.eye(ops.dof_matrix.shape[0]) - ops.dof_matrix @ ops.pizero_k
    return ctx.area * (comp.T @ comp)


def local_mean(ctx):
    """Integral over the cell of the L2 projection of each scalar DOF basis."""
    nk = ctx.slice_hi
    ints = ctx.quad.weights @ pb.evaluate(ctx.basis, ctx.quad.points)[:, :nk]
    return ints @ ctx.operators.pizero_k


def local_rhs(ctx, f):
    """Load vectors (f, Pi0 v) for the scalar DOF and bubble DOF functions.

    f maps an (n, 2) point array to (n, 2) values.
    """
    ops = ctx.operators
    nk = ctx.slice_hi
    w = ctx.quad.weights
    fv = f(ctx.quad.points)
    phi = pb.evaluate(ctx.basis, ctx.quad.points)[:, :nk]
    pz_vals = phi @ ops.pizero_k              # (nq, n_sc)
    bz_vals = phi @ ops.bubble_pizero_k       # (nq, nb)
    F_u = np.concatenate([(w * fv[:, 0]) @ pz_vals, (w * fv[:, 1]) @ pz_vals])
    F_b = np.concatenate([(w * fv[:, 0]) @ bz_vals, (w * fv[:, 1]) @ bz_vals])
    return F_u, F_b


def build_blocks(ctx, config=StabilizationConfig(), f=None):
    A_u, A_b = local_a(ctx, config)
    B_u, B_b = local_b(ctx)
    C_p = local_c(ctx)
    if f is not None:
        F_u, F_b = local_rhs(ctx, f)
    else:
        F_u = np.zeros(A_u.shape[0])
        F_b = np.zeros(A_b.shape[0])
    return LocalStokesBlocks(A_u=A_u, A_b=A_b, B_u=B_u, B_b=B_b, C_p=C_p,
                             mean_weights=local_mean(ctx), F_u=F_u, F_b=F_b)

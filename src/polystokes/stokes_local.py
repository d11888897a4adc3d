"""Element matrices for the bubble-enriched Stokes discretization.

The velocity space is a pair of scalar spaces, so each velocity block is
stored once, as the block of one component: the grad-grad form is
diag(A_sc, A_sc) on the conforming DOFs and diag(Ab_sc, Ab_sc) on the
bubbles, with no coupling between the components or between the two
parts.  The divergence blocks and loads are stored per component.  The
stabilizations are plain dofi-dofi sums on the projector complements.
The blocks are computed over the element batches of vemspace.build_batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from . import polybasis as pb
from .vemspace import _t, _vecmat

__all__ = ["StabilizationConfig", "LocalStokesBlocks", "build_blocks"]


@dataclass(frozen=True)
class StabilizationConfig:
    """Pressure weight alpha > 0 and bubble stabilization weight >= 0,
    both finite."""

    alpha: float = 1.0
    beta_sharp: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, "
                             f"not {self.alpha!r}")
        if not (math.isfinite(self.beta_sharp) and self.beta_sharp >= 0):
            raise ValueError(f"beta_sharp must be nonnegative and finite, "
                             f"not {self.beta_sharp!r}")


@dataclass(frozen=True)
class LocalStokesBlocks:
    """The blocks of every cell, stacked in cell order along the first axis.

    Each velocity block is that of one component, shared by x and y; the
    divergence blocks (pressure rows) and loads come per component.  Each
    cell's blocks are zero-padded at the end of every n_sc axis to the
    widest cell's n_sc scalar DOFs.  nb = 2k+1 bubble DOFs per component.
    """

    A_sc: np.ndarray     # (n_cells, n_sc, n_sc)
    Ab_sc: np.ndarray    # (n_cells, nb, nb)
    B_x: np.ndarray      # (n_cells, n_sc, n_sc), pressure rows
    B_y: np.ndarray      # (n_cells, n_sc, n_sc)
    Bb_x: np.ndarray     # (n_cells, n_sc, nb)
    Bb_y: np.ndarray     # (n_cells, n_sc, nb)
    C_p: np.ndarray      # (n_cells, n_sc, n_sc)
    M_p: np.ndarray      # (n_cells, n_sc, n_sc), pressure mass Pi0^T M Pi0
    mean_weights: np.ndarray   # (n_cells, n_sc), pressure-mean constraint rows
    F_x: np.ndarray      # (n_cells, n_sc)
    F_y: np.ndarray      # (n_cells, n_sc)
    Fb_x: np.ndarray     # (n_cells, nb)
    Fb_y: np.ndarray     # (n_cells, nb)


# The kernels below take an ElementBatch (vemspace.build_batches): every
# array has a leading cell axis, and each product is one np.matmul
# over the stack, which makes per cell the BLAS call (gemm, syrk, gemv or
# dot) that the same product of one cell's 2-D arrays makes.

def _cellwise(x):
    """A per-cell float (g,) shaped to scale stacked (g, m, n) blocks."""
    return x[:, None, None]


def _local_a(ctx, config):
    """One component's grad-grad blocks: consistency on the projections,
    dofi-dofi on the rest."""
    nk = pb.poly_dim(ctx.k)
    stiff_k = ctx.stiffness[:, :nk, :nk]

    cons = _t(ctx.pinabla_k) @ stiff_k @ ctx.pinabla_k
    comp = np.eye(ctx.layout.n_scalar) - ctx.dof_matrix @ ctx.pinabla_k
    A_sc = cons + _t(comp) @ comp

    cons_b = _t(ctx.bubble_pinabla) @ ctx.stiffness @ ctx.bubble_pinabla
    if config.beta_sharp > 0:
        comp_b = (np.eye(ctx.layout.n_bubble)
                  - ctx.bubble_dof_matrix @ ctx.bubble_pinabla)
        cons_b = cons_b + config.beta_sharp * _t(comp_b) @ comp_b
    return A_sc, cons_b


def _local_b(ctx):
    """Discrete divergence blocks b_h^K(v, q) = b^K(v, Pi0 q), x then y.

    Conforming part through integration by parts (volume term against
    Pi0 v, boundary term from the edge traces); bubble part is the pure
    volume term since bubbles vanish on the cell boundary.
    """
    nk = pb.poly_dim(ctx.k)
    dx, dy = pb.derivative_matrices(ctx.basis.prefix(ctx.k))
    mass_k = ctx.mass[:, :nk, :nk]

    pz = ctx.pizero_k
    vol_x = _t(pz) @ (_t(dx) @ mass_k) @ pz      # (g, n_sc, n_sc)
    vol_y = _t(pz) @ (_t(dy) @ mass_k) @ pz
    bnd_x = _t(pz) @ ctx.boundary_rx
    bnd_y = _t(pz) @ ctx.boundary_ry

    lo = ctx.layout.n_moment
    Bb_x = _cellwise(-ctx.area) * _t((dx @ pz)[:, lo:nk, :])   # (g, n_sc, 2k+1)
    Bb_y = _cellwise(-ctx.area) * _t((dy @ pz)[:, lo:nk, :])
    return bnd_x - vol_x, bnd_y - vol_y, Bb_x, Bb_y


def _local_mass(ctx):
    """Pressure mass (Pi0 p, Pi0 q): the L2 part of the solve's
    preconditioner."""
    nk = pb.poly_dim(ctx.k)
    return _t(ctx.pizero_k) @ ctx.mass[:, :nk, :nk] @ ctx.pizero_k


def _local_c(ctx):
    """Pressure stabilization: area-scaled dofi-dofi on the L2-projection
    complement.

    The |K| factor makes the stabilization spectrally equivalent to the local
    L2 norm on the kernel of the projection (pointwise DOF values scale like
    ``||q||_0 / h``), which is required for the pressure block to stay
    consistent with the L2 setting of the scheme.  Without it the
    stabilization is too strong by h^-2 and pollutes the velocity L2 rate.
    """
    comp = np.eye(ctx.layout.n_scalar) - ctx.dof_matrix @ ctx.pizero_k
    return _cellwise(ctx.area) * (_t(comp) @ comp)


def _local_mean(ctx):
    """Integral over the cell of the L2 projection of each scalar DOF basis."""
    return _vecmat(ctx.member_integrals, ctx.pizero_k)


def _local_rhs(ctx, f):
    """Load vectors (f, Pi0 v) for the scalar DOF and bubble DOF functions:
    the x and y scalar loads, then the x and y bubble loads.

    f maps an (n, 2) point array to (n, 2) values; it is called once, on
    the quadrature points of all cells of the stack.
    """
    w = ctx.quad.weights
    pts = ctx.quad.points
    fv = f(pts.reshape(-1, 2)).reshape(pts.shape)
    phi = ctx.quad_values
    pz_vals = phi @ ctx.pizero_k              # (g, nq, n_sc)
    bz_vals = phi @ ctx.bubble_pizero_k       # (g, nq, 2k+1)
    wx, wy = w * fv[..., 0], w * fv[..., 1]
    return (_vecmat(wx, pz_vals), _vecmat(wy, pz_vals),
            _vecmat(wx, bz_vals), _vecmat(wy, bz_vals))


def build_blocks(batches, config=StabilizationConfig(), f=np.zeros_like):
    """The blocks of every cell of the element batches, computed over each
    batch and stacked in cell order (see LocalStokesBlocks).  f is the body
    force as in _local_rhs (defaults to zero)."""
    n_cells = sum(len(batch.cells) for batch in batches)
    m = max(batch.layout.n_scalar for batch in batches)
    nb = batches[0].layout.n_bubble
    out = LocalStokesBlocks(**{
        name: np.zeros((n_cells, *shape)) for name, shape in (
            ("A_sc", (m, m)), ("Ab_sc", (nb, nb)), ("B_x", (m, m)),
            ("B_y", (m, m)), ("Bb_x", (m, nb)), ("Bb_y", (m, nb)),
            ("C_p", (m, m)), ("M_p", (m, m)), ("mean_weights", (m,)),
            ("F_x", (m,)), ("F_y", (m,)), ("Fb_x", (nb,)), ("Fb_y", (nb,)))})
    for ctx in batches:
        ids, n = ctx.cells, ctx.layout.n_scalar
        out.A_sc[ids, :n, :n], out.Ab_sc[ids] = _local_a(ctx, config)
        (out.B_x[ids, :n, :n], out.B_y[ids, :n, :n], out.Bb_x[ids, :n],
         out.Bb_y[ids, :n]) = _local_b(ctx)
        out.C_p[ids, :n, :n] = _local_c(ctx)
        out.M_p[ids, :n, :n] = _local_mass(ctx)
        out.mean_weights[ids, :n] = _local_mean(ctx)
        (out.F_x[ids, :n], out.F_y[ids, :n], out.Fb_x[ids],
         out.Fb_y[ids]) = _local_rhs(ctx, f)
    return out

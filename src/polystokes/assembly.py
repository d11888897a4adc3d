"""Global assembly, static condensation of bubbles, and the linear solve.

Global unknown ordering: x-velocity scalar DOFs | y-velocity scalar DOFs |
pressure scalar DOFs | one Lagrange multiplier enforcing zero mean
pressure.  The bubbles are not global unknowns: each cell's bubble block is
eliminated through its local Schur complement (static condensation) and
the bubbles are recovered after the solve from the stored cell data.
The element batches are streamed: each is dropped once its cell blocks are
written, and the system keeps of it only the record the error norms read.

Scalar DOFs are shared mesh entities: vertex values, k-1 interior
Gauss-Lobatto values per edge (ordered along the edge from its lower to its
higher vertex index), and dim P_{k-2} moments per cell.  Dirichlet velocity
DOFs are eliminated by substitution at assembly time.

The solve works by blocks: one SPD factor of the scalar velocity block
serves both components, and PCG solves for the pressure on its Schur
complement, preconditioned by an SPD factor of the pressure mass plus the
pressure block; the MINI pair's inf-sup stability keeps the iteration
count from growing with h.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import polybasis as pb
from .geometry import gauss_lobatto_points
from .stokes_local import LocalStokesBlocks, StabilizationConfig, build_blocks
from .vemspace import (_batched, _t, build_element, check_degree,
                       interpolate_scalar)

__all__ = ["GlobalDofMap", "GlobalSystem", "Solution", "build_dof_map",
           "assemble", "solve", "solve_stokes",
           "condition_number", "export_matrix"]

# A relative residual above this marks a failed solve: every workload of the
# benchmark solves to below 1e-13.
RESIDUAL_BOUND = 1e-10
# SuperLU options of solve's factors: no pivoting on the symmetric
# minimum-degree ordering, which is stable on an SPD matrix
SPD_FACTOR = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
# SuperLU options of condition_number's factor of the indefinite K: the
# same ordering with threshold pivoting.  Without pivoting most factors fail
# COND_BACKWARD_ERROR; every threshold from 1e-8 to 1e-3 passed on 910 sweep
# systems, and the larger ones fill more.
COND_FACTOR = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-6,
                   options={"SymmetricMode": True})
# Lanczos basis width of condition_number's run on M: its largest
# eigenvalues come in near-equal pairs (the x and y velocity copies), which
# ARPACK's default width of 20 resolves only after many restarts.  The run
# on M^-1 keeps the default, where 40 costs more solves.
COND_KRYLOV_WIDTH = 40
# PCG on the pressure Schur complement stops once its residual is below
# PCG_TOL relative to its right-hand side, or after MAX_ITERATIONS steps
PCG_TOL = 1e-13
MAX_ITERATIONS = 300
# condition_number refuses a factor whose normwise backward error on its
# start vector exceeds this: the eigenvalues it finds are then those of a
# matrix within 10 eps |K| of K, so the smallest modulus, and with it the
# condition number, is accurate to about 10 eps cond relative.  Under
# COND_FACTOR's threshold pivoting this check bounds the factor's growth.
COND_BACKWARD_ERROR = 10 * np.finfo(float).eps


@dataclass(frozen=True)
class GlobalDofMap:
    """Index bookkeeping between local DOFs and global unknowns."""

    k: int
    n_vertices: int
    n_edges: int
    n_cells: int
    n_moment: int                # moments per cell, dim P_{k-2}
    # global scalar indices in local DOF order, one row per cell: the first
    # ctx.layout.n_scalar entries of row c belong to cell c, the rest are -1
    cell_dofs: np.ndarray = field(compare=False, repr=False)

    @property
    def n_scalar(self):
        return (self.n_vertices + self.n_edges * (self.k - 1)
                + self.n_cells * self.n_moment)

    @property
    def n_system(self):
        """Velocity, pressure and multiplier unknowns before elimination."""
        return 3 * self.n_scalar + 1


def build_dof_map(mesh, k):
    """The DOF counts of the mesh at degree k and its cell→DOF table."""
    check_degree(k)
    n_cells, n_moment = mesh.n_cells, pb.poly_dim(k - 2)
    nv = mesh.cells.sizes
    ring, edge = mesh.cells.values, mesh.cell_edges.values
    cell = np.repeat(np.arange(n_cells), nv)
    pos = np.arange(len(ring)) - mesh.cells.offsets[cell]
    table = np.full((n_cells, k * nv.max() + n_moment), -1, dtype=np.int64)
    table[cell, pos] = ring
    # k-1 edge nodes after the vertices, reversed where the ring traverses
    # the edge from its higher to its lower vertex
    j = np.arange(k - 1)
    along = np.where((mesh.edges[edge, 0] == ring)[:, None], j, k - 2 - j)
    table[cell[:, None], (nv[cell] + pos * (k - 1))[:, None] + j] = \
        mesh.n_vertices + edge[:, None] * (k - 1) + along
    moments = (mesh.n_vertices + mesh.n_edges * (k - 1)
               + np.arange(n_cells * n_moment).reshape(n_cells, n_moment))
    table[np.arange(n_cells)[:, None],
          (k * nv)[:, None] + np.arange(n_moment)] = moments
    return GlobalDofMap(k=k, n_vertices=mesh.n_vertices, n_edges=mesh.n_edges,
                        n_cells=n_cells, n_moment=n_moment, cell_dofs=table)


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled, Dirichlet-eliminated linear system (plus cell data)."""

    config: StabilizationConfig
    dof_map: GlobalDofMap
    matrix: sp.csc_matrix        # reduced system over the free unknowns
    rhs: np.ndarray = field(repr=False)
    # global indices of the reduced unknowns
    free: np.ndarray = field(repr=False)
    # global velocity indices fixed by the data
    constrained: np.ndarray = field(repr=False)
    # values at the constrained indices
    boundary_values: np.ndarray = field(repr=False)
    batches: list = field(repr=False)   # vemspace.BatchRecord
    # the pressure DOFs of the constant 1, (n_scalar,)
    z: np.ndarray = field(repr=False)
    # matrix.data[c_positions] = c_base + alpha c_values holds the pressure
    # block's entries; rhs and free do not depend on alpha
    c_positions: np.ndarray = field(repr=False)
    c_base: np.ndarray = field(repr=False)
    c_values: np.ndarray = field(repr=False)
    # the pressure mass sum Pi0^T M Pi0 at the same positions
    mass_values: np.ndarray = field(repr=False)
    # (inv(A_b) B_b^T, inv(A_b) F_b) per cell, padded like dof_map.cell_dofs
    recovery: tuple = field(repr=False)

    @property
    def n_dofs(self):
        return self.matrix.shape[0]

    @property
    def signs(self):
        """+1 on the velocity rows, -1 on the pressure and multiplier."""
        return np.where(self.free < 2 * self.dof_map.n_scalar, 1.0, -1.0)


@dataclass(frozen=True)
class Solution:
    dof_map: GlobalDofMap
    # scalar DOF values, x-velocity component
    ux: np.ndarray = field(repr=False)
    uy: np.ndarray = field(repr=False)
    # pressure scalar DOF values
    p: np.ndarray = field(repr=False)
    # (n_cells, 2*(2k+1)), x bubbles then y
    bubbles: np.ndarray = field(repr=False)
    multiplier: float
    residual: float              # relative residual of the reduced solve
    iterations: int              # PCG steps on the pressure Schur complement
    n_dofs: int                  # size of the solved system
    batches: list = field(repr=False)   # vemspace.BatchRecord


def _boundary_scalar_data(mesh, dof_map, g):
    """Constrained velocity indices (both components) and their values.

    g maps an (n, 2) point array to (n, 2) velocity values.
    """
    k = dof_map.k
    verts = np.flatnonzero(mesh.boundary_vertex_flags)
    edges = np.flatnonzero(mesh.boundary_edge_flags)
    p0, p1 = mesh.vertices[mesh.edges[edges].T]
    t = 0.5 * (gauss_lobatto_points(k + 1)[1:-1, None] + 1.0)
    idx = np.concatenate([verts, (dof_map.n_vertices + edges[:, None] * (k - 1)
                                  + np.arange(k - 1)).ravel()])
    vals = g(np.concatenate([mesh.vertices[verts], (
        p0[:, None, :] + t * (p1 - p0)[:, None, :]).reshape(-1, 2)]))
    return np.concatenate([idx, idx + dof_map.n_scalar]), vals.T.ravel()


def _affine(dof_map, b, constrained, boundary_values, alpha):
    """GlobalSystem's rhs, free, matrix (at alpha), c_positions, c_base,
    c_values, mass_values and recovery, gathered once from the stacked cell
    blocks b (padded to the width of dof_map.cell_dofs)."""
    table = dof_map.cell_dofs
    n_sc, n_cells = dof_map.n_scalar, dof_map.n_cells
    n_sys, width = dof_map.n_system, table.shape[1]

    # global index of each local slot of the x velocity, the y velocity and
    # the pressure; padding goes to n_sys
    ux, uy, prs = (np.where(table < 0, n_sys, table + shift)
                   for shift in (0, n_sc, 2 * n_sc))
    mult = np.full((n_cells, 1), n_sys - 1)
    # bubbles = inv(Ab_sc) (Fb + Bb^T p) for both components, from one
    # batched solve with the scalar bubble block
    W_x, W_y, g_x, g_y = np.split(np.linalg.solve(b.Ab_sc, np.concatenate(
        [_t(b.Bb_x), _t(b.Bb_y), b.Fb_x[:, :, None], b.Fb_y[:, :, None]],
        axis=2)), [width, 2 * width, -1], axis=2)
    recovery = (np.concatenate([W_x, W_y], axis=1),
                np.concatenate([g_x, g_y], axis=1)[:, :, 0])
    blocks = [(prs, prs, b.Bb_x @ W_x + b.Bb_y @ W_y),
              (ux, ux, b.A_sc), (uy, uy, b.A_sc),
              (ux, prs, -_t(b.B_x)), (uy, prs, -_t(b.B_y)),
              (prs, ux, b.B_x), (prs, uy, b.B_y),
              (prs, mult, b.mean_weights[:, :, None]),
              (mult, prs, b.mean_weights[:, None, :])]
    loads = [(ux, b.F_x), (uy, b.F_y),
             (prs, -(b.Bb_x @ g_x + b.Bb_y @ g_y)[:, :, 0])]

    free = np.setdiff1d(np.arange(n_sys), constrained)
    n = len(free)
    # -1: constrained or padding; int32, scipy's index type at this size
    reduced = np.full(n_sys + 1, -1, dtype=np.int32)
    reduced[free] = np.arange(n)
    fixed = np.zeros(n_sys + 1)
    fixed[constrained] = boundary_values

    # the Dirichlet data moves to the right-hand side
    loads += [(r, -(v @ fixed[c][:, :, None])[:, :, 0]) for r, c, v in blocks]
    rhs = sum(np.bincount(r.ravel(), f.ravel(), n_sys + 1)
              for r, f in loads)[free]

    def between_free(blocks):
        """(rows, cols, values) of the blocks' entries between free
        unknowns, block after block, each block's in row-major order."""
        parts = [np.broadcast_arrays(reduced[r][:, :, None],
                                     reduced[c][:, None, :], v)
                 for r, c, v in blocks]
        inside = [(r >= 0) & (c >= 0) for r, c, _ in parts]
        ends = np.cumsum([np.count_nonzero(m) for m in inside])
        out = (np.empty(ends[-1], np.int32), np.empty(ends[-1], np.int32),
               np.empty(ends[-1]))
        for part, mask, start, end in zip(parts, inside, [0, *ends], ends):
            for buffer, x in zip(out, part):
                buffer[start:end] = x[mask]
        return out

    def csc(rows, cols, vals):   # duplicates summed, explicit zeros kept
        return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))

    def compact(m):
        """m with data and indices of their own: summing duplicates leaves
        them views into buffers of the triplets' length, unless those hold
        more than twice the stored entries.  Called once the triplets are
        freed, so the copies do not add to their peak."""
        m.data, m.indices = m.data.copy(), m.indices.copy()
        return m

    def keys(m):                 # col * n + row, ascending in CSC order
        return np.repeat(np.arange(n) * n, np.diff(m.indptr)) + m.indices

    # every block contributes its whole pattern, zeros included, so the
    # pattern of K holds each cell's whole pressure block and with it that
    # of C; no block couples the x and y velocities
    K = compact(csc(*between_free(blocks)))
    C, mass = (compact(csc(*between_free([(prs, prs, v)])))
               for v in (b.C_p, b.M_p))
    positions = np.searchsorted(keys(K), keys(C))
    base = K.data[positions]
    K.data[positions] += alpha * C.data
    return dict(rhs=rhs, free=free, matrix=K, c_positions=positions,
                c_base=base, c_values=C.data, mass_values=mass.data,
                recovery=recovery)


def assemble(mesh, k, f=np.zeros_like, g=np.zeros_like,
             config=StabilizationConfig(), basis_kind="scaled_monomial", *,
             condensed=True):
    """Assemble the global Stokes system with the bubbles condensed out.

    f: body force, (n, 2) points -> (n, 2) values (defaults to zero);
    g: Dirichlet velocity data with the same signature, imposed on the
    whole boundary (defaults to zero).

    The element batches are built one at a time in build_batches' order
    (vertex count ascending, then cell id), each from the build_element
    contexts of its own cells; of several cells that build_element would
    refuse, the first in that order is named.  Each batch writes its cells'
    blocks into blocks sized from the DOF map and its share of the constant
    pressure z, and is dropped once its BatchRecord is kept.
    """
    # only bench/workloads.py passes condensed (True); ROADMAP item 1 drops it
    if condensed is not True:
        raise ValueError(f"only the condensed system is assembled; "
                         f"condensed must be True, not {condensed!r}")
    pb.check_basis_kind(basis_kind)
    dof_map = build_dof_map(mesh, k)
    table = dof_map.cell_dofs
    blocks = LocalStokesBlocks.zeros(mesh.n_cells, table.shape[1], 2 * k + 1)
    z, records = np.zeros(dof_map.n_scalar), []
    # looked up at each call, so a wrapper set on build_element sees them all
    for batch in _batched(mesh.cells.sizes, lambda c: build_element(
            mesh, c, k, basis_kind=basis_kind)):
        build_blocks([batch], config, f, out=blocks)
        z[table[batch.cells, :batch.layout.n_scalar]] = interpolate_scalar(
            batch, lambda x: np.ones(len(x)))
        records.append(batch.record())
        del batch                # before the next batch is built
    constrained, values = _boundary_scalar_data(mesh, dof_map, g)
    return GlobalSystem(
        config=config, dof_map=dof_map, constrained=constrained,
        boundary_values=values, batches=records, z=z, **_affine(
            dof_map, blocks, constrained, values, config.alpha))


def with_alpha(system, alpha):
    """The system at another pressure weight: a copy of the matrix with its
    pressure-block entries rewritten, equal to assemble's at alpha."""
    K, data = system.matrix, system.matrix.data.copy()
    data[system.c_positions] = system.c_base + alpha * system.c_values
    return replace(system, config=replace(system.config, alpha=alpha),
                   matrix=sp.csc_matrix((data, K.indices, K.indptr), K.shape))


def solve(system):
    """Block solve of the condensed system, then bubble recovery.

    The free velocity rows are A u_x - B_x^T p = f_x and A u_y - B_y^T p =
    f_y with one SPD scalar block A, so one factor of A eliminates both
    components.  What is left is S p + w lam = r, w^T p = f_lam, with the
    Schur complement S = B A^-1 B^T + D (D is K's pressure block) and the
    mean weights w.  S annihilates the pressure z of the constant 1, so
    lam = z^T r / z^T w, and (S + w w^T) p = r - w lam + w f_lam is SPD.
    PCG solves it to PCG_TOL, preconditioned by the SPD M_p = sum Pi0^T M
    Pi0 + D; a zero right-hand side takes no step.  A and M_p are factored
    together, as the SPD block diagonal diag(A, M_p), by one SPD_FACTOR
    call on K's slices A and D (plus mass_values): a solve makes one
    SuperLU factor.  Then K's pressure columns are copied once, split at
    the velocity rows into -B^T and [D; w^T]; B acts as the transpose of
    the first, so a PCG step multiplies by these two blocks only, and the
    whole of K multiplies once, in the residual check.  Warns
    (RuntimeWarning) when the relative residual of the whole system is not
    finite or exceeds RESIDUAL_BOUND.
    """
    K, b, dof_map = system.matrix, system.rhs, system.dof_map
    n, n_sc = K.shape[0], dof_map.n_scalar
    nx = np.count_nonzero(system.free < n_sc)   # free DOFs per component
    u, p = slice(0, 2 * nx), slice(2 * nx, n - 1)
    w = K[:, -1].toarray()[p, 0]
    # diag(A, M_p) in CSC: A's columns, then M_p's with its rows past A's
    A, M_p = K[:nx, :nx], K[p, p]
    A.resize(nx + n_sc, nx)
    M_p.resize(nx + n_sc, n_sc)
    M_p.data += system.mass_values
    M_p.indices += nx
    factor = spla.splu(sp.hstack([A, M_p], format="csc"), **SPD_FACTOR)
    del A, M_p
    # K's pressure columns split at the velocity rows: -B^T and [D; w^T]
    minus_bt, lower = K[u, p], K[p.start:, p]

    def velocity(v):             # A^-1 on each component
        rhs = np.zeros((nx + n_sc, 2))
        rhs[:nx] = v.reshape(2, nx).T
        return factor.solve(rhs)[:nx].T.ravel()

    def precondition(r):         # M_p^-1 r
        return factor.solve(np.r_[np.zeros(nx), r])[nx:]

    def schur(d):                # (S + w w^T) d, with B = -(minus_bt^T)
        y = lower @ d            # [D d; w^T d]
        return y[:-1] + minus_bt.T @ velocity(minus_bt @ d) + w * y[-1]

    z = system.z
    r = b[p] + minus_bt.T @ velocity(b[u])
    lam = (z @ r) / (z @ w)
    res = r + w * (b[-1] - lam)
    x, d, rho = np.zeros(n_sc), np.zeros(n_sc), np.inf
    stop, iterations = PCG_TOL * np.linalg.norm(res), 0
    while np.linalg.norm(res) > stop and iterations < MAX_ITERATIONS:
        s = precondition(res)
        rho, old = res @ s, rho
        d = s + (rho / old) * d
        q = schur(d)
        step = rho / (d @ q)
        x += step * d
        res -= step * q
        iterations += 1

    reduced = np.r_[velocity(b[u] - minus_bt @ x), x, lam]
    residual = np.linalg.norm(K @ reduced - b) / (np.linalg.norm(b) or 1.0)
    if not residual <= RESIDUAL_BOUND:
        warnings.warn(f"relative residual {residual:.3e} of the solve "
                      f"exceeds {RESIDUAL_BOUND:.0e}", RuntimeWarning,
                      stacklevel=2)
    full = np.empty(dof_map.n_system)
    full[system.free] = reduced
    full[system.constrained] = system.boundary_values
    pressure = full[2 * n_sc:3 * n_sc]
    W, g = system.recovery
    bubbles = g + np.einsum("cbi,ci->cb", W,
                            np.append(pressure, 0.0)[dof_map.cell_dofs])
    return Solution(dof_map=dof_map, ux=full[:n_sc], uy=full[n_sc:2 * n_sc],
                    p=pressure, bubbles=bubbles, multiplier=full[-1],
                    residual=float(residual), iterations=iterations,
                    n_dofs=system.n_dofs, batches=system.batches)


def solve_stokes(mesh, k, f=np.zeros_like, g=np.zeros_like,
                 config=StabilizationConfig(), basis_kind="scaled_monomial"):
    """Assemble and solve in one call."""
    return solve(assemble(mesh, k, f=f, g=g, config=config,
                          basis_kind=basis_kind))


def condition_number(system):
    """Spectral (2-norm) condition number of the reduced system matrix K.

    With the pressure and multiplier rows negated, M = diag(signs) K is
    symmetric, and the moduli of its eigenvalues are the singular values of
    K.  Lanczos (ARPACK) finds the largest from products with M, and the
    smallest as the inverse of the largest of M^-1 = K^-1 diag(signs),
    applied through one LU factor of K (COND_FACTOR: minimum degree on
    K^T + K with threshold pivoting).  The first run keeps a Lanczos basis
    of COND_KRYLOV_WIDTH vectors, the second ARPACK's default.  Raises
    ValueError when M is not symmetric and RuntimeError when the factor's
    backward error exceeds COND_BACKWARD_ERROR.
    """
    K, signs = system.matrix, system.signs
    M = sp.diags(signs) @ K
    if abs(M - M.T).max() > 1e-8 * max(1.0, abs(M).max()):
        raise ValueError("the sign-flipped system matrix is not symmetric")
    n = K.shape[0]
    # ARPACK's default start vector is random; the sweep CSVs must repeat
    v0 = np.random.default_rng(0).standard_normal(n)
    lu = spla.splu(K, **COND_FACTOR)
    x = lu.solve(v0)
    error = np.abs(v0 - K @ x).max() / (
        spla.norm(K, np.inf) * np.abs(x).max() + np.abs(v0).max())
    if not error <= COND_BACKWARD_ERROR:
        raise RuntimeError(f"backward error {error:.3e} of the factor "
                           f"exceeds {COND_BACKWARD_ERROR:.0e}")
    inverse = spla.LinearOperator(
        (n, n), matvec=lambda v: lu.solve(signs * np.ravel(v)), dtype=float)

    def largest(op, ncv=None):
        return abs(spla.eigsh(op, k=1, which="LM", v0=v0, tol=0, ncv=ncv,
                              return_eigenvectors=False)[0])

    return float(largest(M, min(n, COND_KRYLOV_WIDTH)) * largest(inverse))


def export_matrix(system, path):
    """Write the reduced system matrix in Matrix Market format to path
    (mmwrite given a file name would append .mtx to it)."""
    import scipy.io     # only here: most processes never export
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, system.matrix.tocoo())

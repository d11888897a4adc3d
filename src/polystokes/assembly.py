"""Global assembly, static condensation of bubbles, and the linear solve.

Global unknown ordering (uncondensed): x-velocity scalar DOFs | y-velocity
scalar DOFs | per-cell bubble DOFs (x bubbles then y bubbles within each
cell) | pressure scalar DOFs | one Lagrange multiplier enforcing zero mean
pressure.  Condensation removes the bubble range; each cell's bubble block
is eliminated through its local Schur complement and recovered after the
solve from the stored cell data.

Scalar DOFs are shared mesh entities: vertex values, k-1 interior
Gauss-Lobatto values per edge (ordered along the edge from its lower to its
higher vertex index), and dim P_{k-2} moments per cell.  Dirichlet velocity
DOFs are eliminated by substitution at assembly time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import polybasis as pb
from .geometry import gauss_lobatto_points
from .stokes_local import StabilizationConfig, build_blocks
from .vemspace import build_element

__all__ = ["GlobalDofMap", "GlobalSystem", "Solution", "build_dof_map",
           "assemble", "condense", "solve", "solve_stokes",
           "condition_number", "export_matrix"]

DENSE_LIMIT = 6000
# A relative residual above this marks a failed solve: every workload of the
# benchmark solves to 2e-16..3e-14.
RESIDUAL_BOUND = 1e-10
# Iterative refinement stops after MAX_REFINE steps, or once a correction
# is below REFINE_TOL relative to the solution.
REFINE_TOL = 1e-14
MAX_REFINE = 5


@dataclass(frozen=True)
class GlobalDofMap:
    """Index bookkeeping between local DOFs and global unknowns."""

    k: int
    n_vertices: int
    n_edges: int
    n_cells: int
    n_moment: int                # moments per cell, dim P_{k-2}

    @property
    def n_scalar(self):
        return (self.n_vertices + self.n_edges * (self.k - 1)
                + self.n_cells * self.n_moment)

    @property
    def n_bubble_cell(self):
        """Bubble DOFs per cell, both components."""
        return 2 * (2 * self.k + 1)

    @property
    def n_bubble(self):
        return self.n_cells * self.n_bubble_cell

    def n_system(self, condensed):
        n = 3 * self.n_scalar + 1
        return n if condensed else n + self.n_bubble

    def pressure_offset(self, condensed):
        return 2 * self.n_scalar + (0 if condensed else self.n_bubble)

    def bubble_dofs(self, c):
        base = 2 * self.n_scalar + c * self.n_bubble_cell
        return np.arange(base, base + self.n_bubble_cell)

    def cell_scalar_dofs(self, mesh, c):
        """Global scalar indices in local DOF order for cell c."""
        ring = mesh.cells[c]
        nv = len(ring)
        k = self.k
        idx = np.empty(nv + nv * (k - 1) + self.n_moment, dtype=np.int64)
        idx[:nv] = ring
        pos = nv
        for i in range(nv):
            e = mesh.cell_edges[c][i]
            base = self.n_vertices + e * (k - 1)
            ids = np.arange(base, base + k - 1)
            if mesh.edges[e][0] != ring[i]:
                ids = ids[::-1]          # ring traverses the edge backwards
            idx[pos:pos + k - 1] = ids
            pos += k - 1
        base = self.n_vertices + self.n_edges * (k - 1) + c * self.n_moment
        idx[pos:] = np.arange(base, base + self.n_moment)
        return idx


def build_dof_map(mesh, k):
    return GlobalDofMap(k=k, n_vertices=mesh.n_vertices, n_edges=mesh.n_edges,
                        n_cells=len(mesh.cells), n_moment=pb.poly_dim(k - 2))


@dataclass
class GlobalSystem:
    """Assembled, Dirichlet-eliminated linear system (plus cell data)."""

    mesh: object
    k: int
    config: StabilizationConfig
    basis_kind: str
    condensed: bool
    dof_map: GlobalDofMap
    matrix: sp.csc_matrix        # reduced system over the free unknowns
    rhs: np.ndarray
    free: np.ndarray             # global indices of the reduced unknowns
    constrained: np.ndarray      # global velocity indices fixed by the data
    boundary_values: np.ndarray  # values at the constrained indices
    signs: np.ndarray            # +1 velocity rows, -1 pressure/multiplier
    contexts: list = field(repr=False, default=None)
    cell_blocks: list = field(repr=False, default=None)

    @property
    def n_dofs(self):
        return self.matrix.shape[0]


@dataclass
class Solution:
    mesh: object
    k: int
    dof_map: GlobalDofMap
    ux: np.ndarray               # scalar DOF values, x-velocity component
    uy: np.ndarray
    p: np.ndarray                # pressure scalar DOF values
    bubbles: np.ndarray          # (n_cells, 2*(2k+1)), x bubbles then y
    multiplier: float
    residual: float              # relative residual of the reduced solve
    n_dofs: int                  # size of the solved system
    contexts: list = field(repr=False, default=None)


def _boundary_scalar_data(mesh, dof_map, g):
    """Constrained velocity indices (both components) and their values.

    g maps an (n, 2) point array to (n, 2) velocity values.
    """
    k = dof_map.k
    n_sc = dof_map.n_scalar
    idx, gx, gy = [], [], []
    bverts = np.where(mesh.boundary_vertex_flags)[0]
    if len(bverts):
        vals = g(mesh.vertices[bverts])
        idx.extend(bverts.tolist())
        gx.extend(vals[:, 0].tolist())
        gy.extend(vals[:, 1].tolist())
    if k > 1:
        gl = gauss_lobatto_points(k + 1)[1:-1]
        for e in np.where(mesh.boundary_edge_flags)[0]:
            lo, hi = mesh.edges[e]
            p0, p1 = mesh.vertices[lo], mesh.vertices[hi]
            pts = p0[None, :] + 0.5 * (gl[:, None] + 1.0) * (p1 - p0)[None, :]
            vals = g(pts)
            base = dof_map.n_vertices + e * (k - 1)
            idx.extend(range(base, base + k - 1))
            gx.extend(vals[:, 0].tolist())
            gy.extend(vals[:, 1].tolist())
    idx = np.asarray(idx, dtype=np.int64)
    constrained = np.concatenate([idx, idx + n_sc])
    values = np.concatenate([np.asarray(gx), np.asarray(gy)])
    return constrained, values


class _Scatter:
    """COO triplet accumulator."""

    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, block, r, c):
        rr, cc = np.meshgrid(r, c, indexing="ij")
        self.rows.append(rr.ravel())
        self.cols.append(cc.ravel())
        self.vals.append(np.asarray(block).ravel())

    def matrix(self, n):
        return sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(n, n)).tocsc()


def _build_matrix(mesh, dof_map, config, cell_blocks, condensed):
    """Assemble the global matrix and rhs in the requested form."""
    n_sc = dof_map.n_scalar
    n_sys = dof_map.n_system(condensed)
    p_off = dof_map.pressure_offset(condensed)
    mult = n_sys - 1
    acc = _Scatter()
    rhs = np.zeros(n_sys)

    for c, blocks in enumerate(cell_blocks):
        gd = dof_map.cell_scalar_dofs(mesh, c)
        vel = np.concatenate([gd, gd + n_sc])
        prs = gd + p_off
        w = blocks.mean_weights
        acc.add(blocks.A_u, vel, vel)
        acc.add(-blocks.B_u.T, vel, prs)
        acc.add(blocks.B_u, prs, vel)
        acc.add(w[:, None], prs, np.array([mult]))
        acc.add(w[None, :], np.array([mult]), prs)
        rhs[vel] += blocks.F_u
        if condensed:
            s = blocks.B_b @ np.linalg.inv(blocks.A_b)
            acc.add(config.alpha * blocks.C_p + s @ blocks.B_b.T, prs, prs)
            rhs[prs] += -s @ blocks.F_b
        else:
            bub = dof_map.bubble_dofs(c)
            acc.add(config.alpha * blocks.C_p, prs, prs)
            acc.add(blocks.A_b, bub, bub)
            acc.add(-blocks.B_b.T, bub, prs)
            acc.add(blocks.B_b, prs, bub)
            rhs[bub] += blocks.F_b
    return acc.matrix(n_sys), rhs


def _reduce(K, rhs, dof_map, condensed, constrained, values):
    n_sys = dof_map.n_system(condensed)
    mask = np.ones(n_sys, dtype=bool)
    mask[constrained] = False
    free = np.where(mask)[0]
    K_f = K[free]
    K_ff = K_f[:, free].tocsc()
    rhs_f = rhs[free]
    if len(constrained):
        rhs_f = rhs_f - K_f[:, constrained] @ values
    signs = np.ones(n_sys)
    signs[dof_map.pressure_offset(condensed):] = -1.0
    return K_ff, rhs_f, free, signs[free]


def _assembled(system, **changes):
    """The system with the given fields changed and its reduced matrix, rhs,
    free set and signs scattered again from its cell blocks."""
    system = replace(system, **changes)
    K, rhs = _build_matrix(system.mesh, system.dof_map, system.config,
                           system.cell_blocks, system.condensed)
    K_ff, rhs_f, free, signs = _reduce(K, rhs, system.dof_map,
                                       system.condensed, system.constrained,
                                       system.boundary_values)
    return replace(system, matrix=K_ff, rhs=rhs_f, free=free, signs=signs)


def assemble(mesh, k, f=None, g=None, config=None, basis_kind="scaled_monomial",
             quad_degree=None, condensed=False):
    """Assemble the global Stokes system (uncondensed by default).

    f: body force, (n, 2) points -> (n, 2) values (defaults to zero);
    g: Dirichlet velocity data with the same signature (defaults to none,
    i.e. no constrained DOFs).
    """
    if config is None:
        config = StabilizationConfig()
    dof_map = build_dof_map(mesh, k)
    contexts = [build_element(mesh.vertices[cell], k, basis_kind=basis_kind,
                              quad_degree=quad_degree) for cell in mesh.cells]
    cell_blocks = [build_blocks(ctx, config, f) for ctx in contexts]
    if g is None:
        constrained = np.array([], dtype=np.int64)
        values = np.array([])
    else:
        constrained, values = _boundary_scalar_data(mesh, dof_map, g)
    return _assembled(GlobalSystem(
        mesh=mesh, k=k, config=config, basis_kind=basis_kind,
        condensed=condensed, dof_map=dof_map, matrix=None, rhs=None,
        free=None, constrained=constrained, boundary_values=values,
        signs=None, contexts=contexts, cell_blocks=cell_blocks))


def with_alpha(system, alpha):
    """Rebuild the system for a different pressure weight.

    Reuses the per-cell blocks (which do not depend on alpha), so a sweep
    over alpha pays for element construction only once.
    """
    return _assembled(system, config=replace(system.config, alpha=alpha))


def condense(system):
    """Eliminate the bubble DOFs cell by cell; solve recovers them from the
    cell blocks."""
    return system if system.condensed else _assembled(system, condensed=True)


def solve(system):
    """Direct sparse solve with iterative refinement, then bubble recovery.

    Warns (RuntimeWarning) when the final relative residual is not finite
    or exceeds RESIDUAL_BOUND.
    """
    K, b = system.matrix, system.rhs
    lu = spla.splu(K)
    x = lu.solve(b)
    # residuals in extended precision: refinement then reduces the forward
    # error below cond(K) * eps, which matters for patch-exactness checks
    Kl = K.astype(np.longdouble)
    bl = b.astype(np.longdouble)
    bnorm = float(np.linalg.norm(b)) or 1.0

    def residual(vec):
        return np.asarray(bl - Kl @ vec.astype(np.longdouble),
                          dtype=np.float64)

    # a tiny residual does not imply a small forward error at large
    # condition numbers, so the loop watches the correction size instead
    r = residual(x)
    xnorm = float(np.linalg.norm(x)) or 1.0
    prev = np.inf
    for _ in range(MAX_REFINE):
        d = lu.solve(r)
        dnorm = np.linalg.norm(d)
        if not np.isfinite(dnorm) or dnorm >= prev:
            break
        x = x + d
        r = residual(x)
        if dnorm <= REFINE_TOL * xnorm:
            break
        prev = dnorm
    res = np.linalg.norm(r) / bnorm
    if not res <= RESIDUAL_BOUND:
        warnings.warn(f"relative residual {res:.3e} of the solve exceeds "
                      f"{RESIDUAL_BOUND:.0e}", RuntimeWarning, stacklevel=2)

    dof_map = system.dof_map
    n_sc = dof_map.n_scalar
    full = np.empty(dof_map.n_system(system.condensed))
    full[system.free] = x
    if len(system.constrained):
        full[system.constrained] = system.boundary_values

    p_off = dof_map.pressure_offset(system.condensed)
    ux = full[:n_sc]
    uy = full[n_sc:2 * n_sc]
    p = full[p_off:p_off + n_sc]
    multiplier = full[-1]

    bubbles = np.zeros((dof_map.n_cells, dof_map.n_bubble_cell))
    if system.condensed:
        for c, blocks in enumerate(system.cell_blocks):
            gd = dof_map.cell_scalar_dofs(system.mesh, c)
            bubbles[c] = np.linalg.inv(blocks.A_b) @ (
                blocks.F_b + blocks.B_b.T @ p[gd])
    else:
        for c in range(dof_map.n_cells):
            bubbles[c] = full[dof_map.bubble_dofs(c)]

    return Solution(mesh=system.mesh, k=system.k, dof_map=dof_map,
                    ux=ux, uy=uy, p=p, bubbles=bubbles, multiplier=multiplier,
                    residual=float(res), n_dofs=K.shape[0],
                    contexts=system.contexts)


def solve_stokes(mesh, k, f=None, g=None, config=None,
                 basis_kind="scaled_monomial", quad_degree=None):
    """Assemble (condensed) and solve in one call."""
    system = assemble(mesh, k, f=f, g=g, config=config, basis_kind=basis_kind,
                      quad_degree=quad_degree, condensed=True)
    return solve(system)


def condition_number(system, method="dense_svd", dense_limit=DENSE_LIMIT):
    """Condition number of the reduced system matrix.

    dense_svd: spectral (2-norm) condition number.  Flipping the sign of
    the pressure/multiplier rows makes the matrix symmetric, so the
    singular values are the moduli of the eigenvalues of the symmetrized
    matrix; the dense symmetric eigensolve is much cheaper than an SVD at
    the sweep sizes.  norm_estimate: 1-norm estimate via sparse LU.
    """
    if method == "dense_svd":
        n = system.matrix.shape[0]
        if n > dense_limit:
            raise ValueError(f"system size {n} exceeds dense limit {dense_limit}")
        M = (sp.diags(system.signs) @ system.matrix).toarray()
        asym = np.abs(M - M.T).max()
        if asym > 1e-8 * max(1.0, np.abs(M).max()):
            svals = np.linalg.svd(system.matrix.toarray(), compute_uv=False)
        else:
            svals = np.abs(np.linalg.eigvalsh(0.5 * (M + M.T)))
        return float(svals.max() / svals.min())
    if method == "norm_estimate":
        K = system.matrix
        lu = spla.splu(K)
        op = spla.LinearOperator(K.shape, matvec=lu.solve,
                                 rmatvec=lambda v: lu.solve(v, trans="T"))
        return float(spla.onenormest(K) * spla.onenormest(op))
    raise ValueError(f"unknown method {method!r}")


def export_matrix(system, path):
    """Write the reduced system matrix in Matrix Market format."""
    scipy.io.mmwrite(str(path), system.matrix.tocoo())

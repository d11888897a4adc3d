"""Local virtual-element spaces: DOF layouts, projectors and interpolation.

Each cell carries an enhanced scalar space of degree k (vertex values, k-1
Gauss-Lobatto interior values per edge, moments against the degree-(k-2)
basis prefix scaled by 1/|K|) and an interior bubble space identified by
its moments against the degree-k slice beyond that prefix (2k+1 per scalar
component).  Bubbles are handled purely through their moments and projector
images; nothing is ever evaluated inside the cell.

All projector matrices map DOF vectors to coefficient vectors in the cell's
polynomial basis of degree k+2 (whose graded prefixes serve as the degree-k
and degree-(k-2) bases).

Element construction is split at the basis: build_element makes one mesh
cell's quadrature, power table there and basis, and build_batches stacks
cells of equal vertex count, one batch at a time, and computes their
layout, edge nodes, projectors and matrices over the stack.  A batch's
record keeps only what the error norms read of it once it is dropped.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import polybasis as pb
from .geometry import (
    _size_groups,
    _successors,
    edge_quadrature,
    gauss_legendre_rule,
    gauss_lobatto_points,
    polygon_quadrature,
)

__all__ = [
    "LocalDofLayout",
    "ElementContext",
    "ElementBatch",
    "BatchRecord",
    "build_element",
    "build_batches",
    "build_layout",
    "check_degree",
    "interpolate_scalar",
]


@dataclass(frozen=True)
class LocalDofLayout:
    """Counts of the local scalar / bubble DOF sets."""

    k: int
    n_vertex: int
    n_edge: int                 # total edge-interior DOFs, (k-1) per edge
    n_moment: int               # dim P_{k-2}
    n_bubble: int               # per scalar component, 2k+1

    @property
    def n_scalar(self):
        return self.n_vertex + self.n_edge + self.n_moment


@dataclass(frozen=True)
class _Cell:
    """The fields that an ElementBatch keeps of its cells' contexts."""

    verts: np.ndarray
    k: int
    basis: pb.PolyBasis          # degree k+2
    quad: object
    area: float


@dataclass(frozen=True)
class ElementContext(_Cell):
    """One cell's quadrature, basis and area, the inputs of build_batches,
    and the PowerTable at the quadrature points that the basis was built on."""

    at_quad: pb.PowerTable


@dataclass(frozen=True)
class ElementBatch(_Cell):
    """Cells of equal vertex count, stacked, with their projectors.

    Every array and float of the fields kept of the contexts, and every
    field added here but the layout, carries a leading cell axis; ints and
    strings, equal within a batch, are kept once.  Shapes are per cell.
    """

    cells: np.ndarray            # positions in the list given to build_batches
    layout: LocalDofLayout
    edge_nodes: np.ndarray       # (n_edges, k-1, 2) interior trace nodes
    mass: np.ndarray             # (dim P_{k+2})^2 Gram matrices
    stiffness: np.ndarray
    # energy and L2 projections of the scalar DOF basis functions
    pinabla_k: np.ndarray        # (dim P_k, n_scalar)
    pizero_k: np.ndarray         # (dim P_k, n_scalar)
    # ... and of the bubble DOF basis functions
    bubble_pinabla: np.ndarray   # (dim P_{k+2}, 2k+1)
    bubble_pizero_k: np.ndarray  # (dim P_k, 2k+1)
    dof_matrix: np.ndarray       # (n_scalar, dim P_k) DOFs of the P_k members
    # (dim P_k, n_scalar) boundary integrals of each scalar DOF basis
    # function times each degree-k member times n_x, resp. n_y
    boundary_rx: np.ndarray
    boundary_ry: np.ndarray
    quad_values: np.ndarray
    # (dim P_k,): their integrals, quad.weights @ quad_values
    member_integrals: np.ndarray

    def record(self):
        """The BatchRecord of this batch."""
        return BatchRecord(cells=self.cells, layout=self.layout,
                           quad=self.quad, basis=self.basis.prefix(self.k),
                           pizero_k=self.pizero_k)


@dataclass(frozen=True)
class BatchRecord:
    """What the error norms read of an ElementBatch, kept after the batch
    is dropped: no mass, stiffness or projector but the L2 one."""

    cells: np.ndarray
    layout: LocalDofLayout
    quad: object
    basis: pb.PolyBasis          # degree k, the prefix of the batch's basis
    pizero_k: np.ndarray         # (dim P_k, n_scalar)


# Cells per batch, which bounds the stacked temporaries.  A hexagonal L5,
# k=2 solve with whole vertex-count groups as batches peaked at 414 MiB and
# assembled in 1.32 s; with batches of 32 cells, 408 MiB and 1.11 s.
_BATCH = 32


@functools.cache
def _lagrange_matrix(k):
    """Values of the Lagrange basis on the k+1 Gauss-Lobatto nodes of [-1, 1]
    at the reference points of the degree-(2k+3) edge rule, (n_qpoints, k+1)."""
    nodes = gauss_lobatto_points(k + 1)
    ts = gauss_legendre_rule(2 * k + 3)[0]
    out = np.ones((len(ts), k + 1))
    for j in range(k + 1):
        for m in range(k + 1):
            if m != j:
                out[:, j] *= (ts - nodes[m]) / (nodes[j] - nodes[m])
    out.flags.writeable = False         # shared by every caller
    return out


def check_degree(k):
    """Raise ValueError unless the degree k is an integer of at least 1."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"degree must be an integer, not {k!r}")
    if k < 1:
        raise ValueError("degree must be >= 1")


def build_layout(n_vertex, k):
    check_degree(k)
    return LocalDofLayout(k=k, n_vertex=n_vertex, n_edge=n_vertex * (k - 1),
                          n_moment=pb.poly_dim(k - 2), n_bubble=2 * k + 1)


def build_element(mesh, c, k, basis_kind="scaled_monomial", quad_degree=None):
    """Cell c's quadrature and basis (QR of its scaled monomials), from its
    vertices, centroid, diameter and area on the mesh.  Raises
    IllConditionedBasisError as build_basis and ValueError as
    polygon_quadrature, naming the cell."""
    verts = mesh.vertices[mesh.cells[c]]
    centroid = mesh.cell_centroids[c]
    if quad_degree is None:
        quad_degree = 2 * k + 6
    try:
        quad = polygon_quadrature(verts, quad_degree, centroid)
        at_quad = pb.power_table(k + 2, centroid, mesh.cell_diameters[c],
                                 quad.points)
        basis = pb.build_basis(at_quad, quad.weights, basis_kind)
    except (pb.IllConditionedBasisError, ValueError) as exc:
        raise type(exc)(f"cell {c}: {exc}") from exc
    return ElementContext(verts=verts, k=k, basis=basis, quad=quad,
                          area=mesh.cell_areas[c], at_quad=at_quad)


def _stacked(items, name=""):
    """Equal-shaped items stacked along a new first axis, dataclasses field
    by field; ints and strings are kept once.  Raises ValueError naming the
    field when those differ between the items."""
    first = items[0]
    if dataclasses.is_dataclass(first):
        return type(first)(**{f.name: _stacked([getattr(x, f.name)
                                                for x in items],
                                               name + "." + f.name)
                              for f in dataclasses.fields(first)})
    if isinstance(first, (np.ndarray, float)):
        # np.stack keeps each item's memory layout (np.array does not), and
        # OpenBLAS rounds some products differently on another layout
        return np.stack(items)
    for x in items:
        if x != first:
            raise ValueError(f"cells of one batch differ in {name[1:]}: "
                             f"{first!r} and {x!r}")
    return first


def build_batches(contexts):
    """The cells of the contexts in batches of at most _BATCH cells of equal
    vertex count, in increasing vertex count, each with its projectors and
    matrices.  All contexts must share k, the basis kind and the quadrature
    degree: ValueError otherwise."""
    return list(_batched([len(ctx.verts) for ctx in contexts],
                         contexts.__getitem__))


def _batched(sizes, element):
    """The batches of build_batches for cells of the given vertex counts,
    yielded one at a time: each built from the contexts element(c) of its
    cells, in increasing vertex count and then position c, which are
    dropped once their batch is built."""
    for _, ids in _size_groups(sizes):
        for s in range(0, len(ids), _BATCH):
            cells = ids[s:s + _BATCH]
            yield _build_batch(cells, _stacked([element(c) for c in cells]))


# The kernels below take stacked contexts: every array has a leading cell
# axis, and each product is one np.matmul over the stack, which makes per
# cell the BLAS call that the same product of one cell's 2-D arrays makes,
# on operands of the same memory layout.

def _t(a):
    """Each cell's matrix transposed."""
    return a.swapaxes(-1, -2)


def _vecmat(v, M):
    """Each cell's vector times its matrix (or a shared one), one gemv per
    cell: (g, m) @ (g, m, n) -> (g, n)."""
    return (v[:, None, :] @ M)[:, 0, :]


@functools.cache
def _edge_trace(layout):
    """Value of every scalar DOF basis function of a cell with this layout
    at its edge quadrature points, (n_e * nq, n_scalar), read-only.  Edge e
    runs from vertex e to vertex e+1; its trace DOFs are those two vertices
    and its k-1 interior nodes."""
    nv, k, n_scalar = layout.n_vertex, layout.k, layout.n_scalar
    e = np.arange(nv)
    trace = np.column_stack([e, nv + e[:, None] * (k - 1) + np.arange(k - 1),
                             (e + 1) % nv])                       # (n_e, k+1)
    lagrange = _lagrange_matrix(k)
    nq = len(lagrange)
    phi = np.zeros((nv, nq, n_scalar))
    phi[e[:, None, None], np.arange(nq)[:, None], trace[:, None, :]] = lagrange
    phi = phi.reshape(-1, n_scalar)
    phi.flags.writeable = False
    return phi


def _boundary(ctx):
    """Points (g, n_pts, 2), weights (g, n_pts) and outward unit normals
    (g, n_pts, 2) of the degree-(2k+3) quadrature of every edge."""
    verts = ctx.verts
    ends = _successors(verts, axis=1)
    rule = edge_quadrature(verts, ends, 2 * ctx.k + 3)
    d = ends - verts
    normals = (np.stack([d[..., 1], -d[..., 0]], axis=-1)
               / np.linalg.norm(d, axis=-1)[..., None])
    g, _, nq = rule.weights.shape
    return (rule.points.reshape(g, -1, 2), rule.weights.reshape(g, -1),
            np.repeat(normals, nq, axis=1))


def _build_batch(cells, ctx):
    """DOF layout, areas, edge nodes, projectors, DOF matrices, mass and
    stiffness of the stacked contexts, the matrices in their bases.

    Every Gram system is solved in the orthonormal basis q = m R^-1 (mass
    matrix I), which conditions like R rather than like R^T R.  A member of
    the cell's basis is p = q A, with A = R for scaled monomials and A = I
    for the orthonormal kind.  So coefficients map back by T = A^-1 and
    moment DOFs of p are A^T times those of q: a projector is T Pi^orth S,
    with S = diag(I, T_low^T) on the moment DOFs.
    """
    k, verts, basis = ctx.k, ctx.verts, ctx.basis
    g, nv = verts.shape[:2]
    lay = build_layout(nv, k)
    gl = gauss_lobatto_points(k + 1)[1:-1]
    edge_nodes = (verts[:, :, None, :] + 0.5 * (gl[:, None] + 1.0)
                  * (_successors(verts, axis=1) - verts)[:, :, None, :])
    nk = pb.poly_dim(k)
    nk2 = pb.poly_dim(k + 2)
    nlow = pb.poly_dim(k - 2)
    nsc = lay.n_scalar
    sl = slice(nlow, nk)
    moment0 = lay.n_vertex + lay.n_edge
    area = ctx.area[:, None, None]
    centroid = basis.centroid[:, None, :]
    diameter = basis.diameter[:, None, None]

    ortho = basis.orthonormal()
    if basis.kind == "l2_orthonormal":
        A = T = np.broadcast_to(np.eye(nk2), (g, nk2, nk2))
    else:
        A, T = basis.monomial_factor, ortho.change_of_basis
    mass = _t(A) @ A
    # the orthonormal members' derivatives in their own coefficients: the
    # Gram matrix of their gradients is DX^T DX + DY^T DY, and a degree-k
    # member's derivatives lie in the first nk members
    DX, DY = pb.derivative_matrices(ortho)
    stiff_o = _t(DX) @ DX + _t(DY) @ DY
    ortho_k = ortho.prefix(k)

    # boundary functionals ------------------------------------------------
    pts, w, nrm = _boundary(ctx)
    phi = _edge_trace(lay)                         # the same for every cell
    at_edges = pb.power_table(k + 2, centroid, diameter, pts)
    vals = pb.evaluate(ortho, at_edges)                        # (g, n_pts, nk2)
    dn = ((vals[..., :nk] @ DX[:, :nk, :nk]) * nrm[..., :1]
          + (vals[..., :nk] @ DY[:, :nk, :nk]) * nrm[..., 1:])  # grad q_i . n
    w_phi = w[..., None] * phi
    perimeter = w.sum(axis=1)[:, None]
    p0_basis = _vecmat(w, vals) / perimeter   # boundary mean of each basis member
    p0_dof = _vecmat(w, phi) / perimeter      # ... of each DOF basis function
    bnd_flux = _t(dn) @ w_phi                 # \oint phi (grad q_i . n)
    r_x = _t(vals[..., :nk] * nrm[..., :1]) @ w_phi           # \oint phi q_i n_x
    r_y = _t(vals[..., :nk] * nrm[..., 1:]) @ w_phi

    # DOF matrix of the degree-k members ----------------------------------
    D = np.empty((g, nsc, nk))
    D[:, :moment0] = pb.evaluate(basis.prefix(k), pb.power_table(
        k, centroid, diameter, _nodes(verts, edge_nodes)))
    D[:, moment0:] = mass[:, :nlow, :nk] / area

    # elliptic projector on the scalar space ------------------------------
    lap_k = pb.laplacian_in_lower_basis(ortho_k)              # (g, nlow, nk)
    G = stiff_o[:, :nk, :nk].copy()
    G[:, 0, :] = p0_basis[:, :nk]
    B = bnd_flux.copy()
    if nlow:
        B[:, :, moment0:] -= area * _t(lap_k)
    B[:, 0, :] = p0_dof
    S = np.tile(np.eye(nsc), (g, 1, 1))
    S[:, moment0:, moment0:] = _t(T[:, :nlow, :nlow])
    pinabla_o = np.linalg.solve(G, B) @ S
    pinabla = T[:, :nk, :nk] @ pinabla_o

    # L2 projector via the enhancement identity ---------------------------
    # The constraint is imposed against the kind's own degree-(k-1, k)
    # members, so it is solved in the kind's basis: M_k = A_k^T A_k.
    Ak = A[:, :nk, :nk]
    c = np.zeros((g, nk, nsc))
    c[:, :nlow, moment0:] = area * np.eye(nlow)
    c[:, sl, :] = (_t(Ak) @ pinabla_o)[:, sl, :]
    pizero = pb._solve_upper(Ak, pb._solve_upper(Ak, c, trans="T"))

    # bubble projectors ----------------------------------------------------
    lap_k2 = pb.laplacian_in_lower_basis(ortho)               # (g, nk, nk2)
    G2 = stiff_o.copy()
    G2[:, 0, :] = p0_basis
    # -\int b lap(q_i): only the slice moments of b are nonzero (value 1/|K| scale)
    RB = -area * _t(lap_k2[:, sl, :])
    RB[:, 0, :] = 0.0                                          # \oint pinabla b = 0
    # bubbles have zero moments against P_{k-2}, so the slice moments of q
    # are T[sl, sl]^T times those of p; Pi0_k b is their exact L2 projection
    Sb = _t(T[:, sl, sl])
    bubble_pinabla = T @ np.linalg.solve(G2, RB) @ Sb
    bubble_pizero = area * T[:, :nk, sl] @ Sb

    values = pb.evaluate(basis, ctx.at_quad)[..., :nk]
    return ElementBatch(
        **{f.name: getattr(ctx, f.name) for f in dataclasses.fields(_Cell)},
        cells=cells, layout=lay, edge_nodes=edge_nodes,
        mass=mass, stiffness=_t(A) @ stiff_o @ A,
        pinabla_k=pinabla, pizero_k=pizero, bubble_pinabla=bubble_pinabla,
        bubble_pizero_k=bubble_pizero, dof_matrix=D,
        boundary_rx=_t(Ak) @ r_x, boundary_ry=_t(Ak) @ r_y,
        quad_values=np.ascontiguousarray(values),
        # from values, not the contiguous quad_values: OpenBLAS rounds
        # differently on a contiguous matrix of fewer than 4 columns (k = 1)
        member_integrals=_vecmat(ctx.quad.weights, values))


def _nodes(verts, edge_nodes):
    """The points of each cell's point-value DOFs, vertices then edge
    nodes, (g, n_vertex + n_edge, 2)."""
    return np.concatenate([verts, edge_nodes.reshape(len(verts), -1, 2)],
                          axis=1)


def interpolate_scalar(batch, f):
    """Scalar DOF vectors interpolating f (point values plus scaled
    moments) on every cell of an ElementBatch, (cells, n_scalar).

    f maps an (n, 2) point array to n values; it is called once on the
    DOF nodes and once on the quadrature points of all cells."""
    nodes = _nodes(batch.verts, batch.edge_nodes)
    pts, w = batch.quad.points, batch.quad.weights
    vals = f(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    phi = batch.quad_values[..., :batch.layout.n_moment]
    moments = _vecmat(w * vals, phi) / batch.area[:, None]
    return np.concatenate([f(nodes.reshape(-1, 2)).reshape(nodes.shape[:2]),
                           moments], axis=1)

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
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import polybasis as pb
from .geometry import (
    _size_groups,
    edge_quadrature,
    gauss_legendre_rule,
    gauss_lobatto_points,
    polygon_area,
    polygon_centroid,
    polygon_diameter,
    polygon_quadrature,
)

__all__ = [
    "LocalDofLayout",
    "LocalOperators",
    "ElementContext",
    "build_element",
    "build_layout",
    "context_groups",
    "interpolate_scalar",
    "interpolate_velocity",
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

    @property
    def n_velocity(self):
        return 2 * self.n_scalar + 2 * self.n_bubble


@dataclass(frozen=True)
class LocalOperators:
    """Projector and DOF matrices for one cell.

    pinabla_k: (dim P_k, n_scalar) energy projection of each scalar DOF
    basis function; pizero_k: same shape, L2 projection; bubble_pinabla:
    (dim P_{k+2}, 2k+1) energy projection of the bubble DOF basis;
    bubble_pizero_k: (dim P_k, 2k+1); dof_matrix: (n_scalar, dim P_k) DOF
    values of the polynomial members; bubble_dof_matrix: (2k+1, dim P_{k+2})
    bubble-moment values of the degree-(k+2) members; boundary_rx,
    boundary_ry: (dim P_k, n_scalar) boundary integrals of each scalar DOF
    basis function times each degree-k member times n_x, resp. n_y.
    """

    pinabla_k: np.ndarray
    pizero_k: np.ndarray
    bubble_pinabla: np.ndarray
    bubble_pizero_k: np.ndarray
    dof_matrix: np.ndarray
    bubble_dof_matrix: np.ndarray
    boundary_rx: np.ndarray
    boundary_ry: np.ndarray


@dataclass(frozen=True)
class ElementContext:
    """Everything local solvers need about one cell.

    context_groups stacks the contexts of cells with equal vertex count into
    one ElementContext whose arrays and floats carry a leading cell axis.
    """

    verts: np.ndarray
    k: int
    basis: pb.PolyBasis          # degree k+2
    quad: object
    layout: LocalDofLayout
    area: float
    mass: np.ndarray             # (dim P_{k+2})^2 Gram matrices
    stiffness: np.ndarray
    edge_nodes: np.ndarray       # (n_edges, k-1, 2) interior trace nodes
    operators: LocalOperators
    slice_lo: int
    slice_hi: int
    # (n_qpoints, dim P_k): the degree-k members of basis at quad.points,
    # evaluate(basis, quad.points)[:, :dim P_k]
    quad_values: np.ndarray
    # (dim P_k,): their integrals, quad.weights @ quad_values
    member_integrals: np.ndarray


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


def build_layout(verts, k):
    if k < 1:
        raise ValueError("degree must be >= 1")
    nv = len(verts)
    return LocalDofLayout(k=k, n_vertex=nv, n_edge=nv * (k - 1),
                          n_moment=pb.poly_dim(k - 2), n_bubble=2 * k + 1)


def _boundary_trace(verts, k, n_scalar):
    """Edge quadrature of all edges, stacked, and the boundary trace matrix.

    Returns the points (n_e * nq, 2), weights (n_e * nq,) and outward unit
    normals (n_e * nq, 2) at every edge quadrature point, and the value of
    every scalar DOF basis function there, (n_e * nq, n_scalar).  Edge e
    runs from vertex e to vertex e+1; its trace DOFs are those two vertices
    and its k-1 interior nodes.
    """
    nv = len(verts)
    ends = np.roll(verts, -1, axis=0)
    rule = edge_quadrature(verts, ends, 2 * k + 3)
    d = ends - verts
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / np.linalg.norm(d, axis=1)[:, None]
    e = np.arange(nv)
    trace = np.column_stack([e, nv + e[:, None] * (k - 1) + np.arange(k - 1),
                             (e + 1) % nv])                       # (n_e, k+1)
    lagrange = _lagrange_matrix(k)
    nq = len(lagrange)
    phi = np.zeros((nv, nq, n_scalar))
    phi[e[:, None, None], np.arange(nq)[:, None], trace[:, None, :]] = lagrange
    return (rule.points.reshape(-1, 2), rule.weights.ravel(),
            np.repeat(normals, nq, axis=0), phi.reshape(-1, n_scalar))


def _build_operators(verts, k, basis, quad, at_quad, layout, edge_nodes, area):
    """Projectors, DOF matrices, mass and stiffness in the cell's basis.

    Every Gram system is solved in the orthonormal basis q = m R^-1 (mass
    matrix I), which conditions like R rather than like R^T R.  A member of
    the cell's basis is p = q A, with A = R for scaled monomials and A = I
    for the orthonormal kind.  So coefficients map back by T = A^-1 and
    moment DOFs of p are A^T times those of q: a projector is T Pi^orth S,
    with S = diag(I, T_low^T) on the moment DOFs.
    """
    nk = pb.poly_dim(k)
    nk2 = pb.poly_dim(k + 2)
    nlow = pb.poly_dim(k - 2)
    nsc = layout.n_scalar
    nv = layout.n_vertex
    sl = slice(nlow, nk)
    moment0 = nv + layout.n_edge

    ortho = basis.orthonormal()
    if basis.kind == "l2_orthonormal":
        A = T = np.eye(nk2)
    else:
        A, T = basis.monomial_factor, ortho.change_of_basis
    mass = A.T @ A
    stiff_o = pb.stiffness(ortho, quad.weights, at_quad)
    ortho_k = ortho.prefix(k)

    # boundary functionals ------------------------------------------------
    pts, w, nrm, phi = _boundary_trace(verts, k, nsc)
    at_edges = pb.power_table(k + 2, basis.centroid, basis.diameter, pts)
    vals = pb.evaluate(ortho, at_edges)                        # (n_pts, nk2)
    grads = pb.gradient(ortho_k, at_edges)                     # (n_pts, nk, 2)
    dn = grads[:, :, 0] * nrm[:, :1] + grads[:, :, 1] * nrm[:, 1:]
    w_phi = w[:, None] * phi
    perimeter = w.sum()
    p0_basis = w @ vals / perimeter   # boundary mean of each basis member
    p0_dof = w @ phi / perimeter      # boundary mean of each DOF basis function
    bnd_flux = dn.T @ w_phi           # \oint phi (grad q_i . n)
    r_x = (vals[:, :nk] * nrm[:, :1]).T @ w_phi               # \oint phi q_i n_x
    r_y = (vals[:, :nk] * nrm[:, 1:]).T @ w_phi

    # DOF matrix of the degree-k members ----------------------------------
    D = np.empty((nsc, nk))
    D[:moment0] = pb.evaluate(basis.prefix(k),
                              np.vstack([verts, edge_nodes.reshape(-1, 2)]))
    D[moment0:] = mass[:nlow, :nk] / area

    # elliptic projector on the scalar space ------------------------------
    lap_k = pb.laplacian_in_lower_basis(ortho_k)              # (nlow, nk)
    G = stiff_o[:nk, :nk].copy()
    G[0, :] = p0_basis[:nk]
    B = bnd_flux.copy()
    if nlow:
        B[:, moment0:] -= area * lap_k.T
    B[0, :] = p0_dof
    S = np.eye(nsc)
    S[moment0:, moment0:] = T[:nlow, :nlow].T
    pinabla_o = np.linalg.solve(G, B) @ S
    pinabla = T[:nk, :nk] @ pinabla_o

    # L2 projector via the enhancement identity ---------------------------
    # The constraint is imposed against the kind's own degree-(k-1, k)
    # members, so it is solved in the kind's basis: M_k = A_k^T A_k.
    Ak = A[:nk, :nk]
    c = np.zeros((nk, nsc))
    c[:nlow, moment0:] = area * np.eye(nlow)
    c[sl, :] = (Ak.T @ pinabla_o)[sl, :]
    pizero = solve_triangular(Ak, solve_triangular(Ak, c, trans="T"))

    # bubble projectors ----------------------------------------------------
    lap_k2 = pb.laplacian_in_lower_basis(ortho)               # (nk, nk2)
    G2 = stiff_o.copy()
    G2[0, :] = p0_basis
    # -\int b lap(q_i): only the slice moments of b are nonzero (value 1/|K| scale)
    RB = -area * lap_k2[sl, :].T
    RB[0, :] = 0.0                                             # \oint pinabla b = 0
    # bubbles have zero moments against P_{k-2}, so the slice moments of q
    # are T[sl, sl]^T times those of p; Pi0_k b is their exact L2 projection
    Sb = T[sl, sl].T
    bubble_pinabla = T @ np.linalg.solve(G2, RB) @ Sb
    bubble_pizero = area * T[:nk, sl] @ Sb

    Db = mass[sl, :] / area                                    # (nb, nk2)

    ops = LocalOperators(pinabla_k=pinabla, pizero_k=pizero,
                         bubble_pinabla=bubble_pinabla,
                         bubble_pizero_k=bubble_pizero,
                         dof_matrix=D, bubble_dof_matrix=Db,
                         boundary_rx=Ak.T @ r_x, boundary_ry=Ak.T @ r_y)
    return ops, mass, A.T @ stiff_o @ A


def build_element(verts, k, basis_kind="scaled_monomial", quad_degree=None):
    """Build the full per-cell context: basis, quadrature, DOFs, projectors."""
    verts = np.asarray(verts, dtype=float)
    if quad_degree is None:
        quad_degree = 2 * k + 6
    quad = polygon_quadrature(verts, quad_degree)
    # the one table of powers at the quadrature points: the basis's QR, the
    # stiffness and quad_values all read it
    at_quad = pb.power_table(k + 2, polygon_centroid(verts),
                             polygon_diameter(verts), quad.points)
    basis = pb.build_basis(at_quad, quad.weights, basis_kind)
    layout = build_layout(verts, k)
    gl = gauss_lobatto_points(k + 1)[1:-1]
    edge_nodes = (verts[:, None, :] + 0.5 * (gl[:, None] + 1.0)
                  * (np.roll(verts, -1, axis=0) - verts)[:, None, :])
    area = float(polygon_area(verts))
    ops, mass, stiff = _build_operators(verts, k, basis, quad, at_quad,
                                        layout, edge_nodes, area)
    nk = pb.poly_dim(k)
    values = pb.evaluate(basis, at_quad)[:, :nk]
    return ElementContext(verts=verts, k=k, basis=basis, quad=quad,
                          layout=layout, area=area, mass=mass,
                          stiffness=stiff, edge_nodes=edge_nodes, operators=ops,
                          slice_lo=pb.poly_dim(k - 2), slice_hi=nk,
                          quad_values=np.ascontiguousarray(values),
                          # from the strided slice: OpenBLAS's gemv rounds
                          # differently on a contiguous matrix of fewer than
                          # 4 columns (k = 1)
                          member_integrals=quad.weights @ values)


def _stacked(items):
    """Equal-shaped items stacked along a new first axis, dataclasses field
    by field; ints and strings, equal within a group, are kept once."""
    first = items[0]
    if dataclasses.is_dataclass(first):
        return type(first)(**{f.name: _stacked([getattr(x, f.name)
                                                for x in items])
                              for f in dataclasses.fields(first)})
    if isinstance(first, (np.ndarray, float)):
        # np.stack keeps each item's memory layout (np.array does not), and
        # OpenBLAS rounds some products differently on another layout
        return np.stack(items)
    return first


def context_groups(contexts):
    """The contexts grouped by vertex count: (positions, stacked context)
    pairs, in increasing vertex count.  All contexts share k, the basis
    kind and the quadrature degree."""
    for _, ids in _size_groups([ctx.layout.n_vertex for ctx in contexts]):
        yield ids, _stacked([contexts[i] for i in ids])


def interpolate_scalar(ctx, f):
    """Scalar DOF vector interpolating f (point values plus scaled moments)."""
    lay = ctx.layout
    nodes = np.vstack([ctx.verts, ctx.edge_nodes.reshape(-1, 2)])
    dofs = np.empty(lay.n_scalar)
    dofs[:len(nodes)] = f(nodes)
    if lay.n_moment:
        vals = f(ctx.quad.points)
        phi = ctx.quad_values[:, :lay.n_moment]
        dofs[len(nodes):] = (ctx.quad.weights * vals) @ phi / ctx.area
    return dofs


def interpolate_velocity(ctx, u):
    """Velocity DOFs of a smooth field; bubble DOFs are set to zero.

    u maps an (n, 2) point array to (n, 2) values.  Returns
    (x-component scalar DOFs, y-component scalar DOFs, zero bubble DOFs).
    """
    ux = interpolate_scalar(ctx, lambda p: u(p)[:, 0])
    uy = interpolate_scalar(ctx, lambda p: u(p)[:, 1])
    return ux, uy, np.zeros(2 * ctx.layout.n_bubble)

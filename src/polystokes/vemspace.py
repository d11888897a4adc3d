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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import polybasis as pb
from .geometry import (
    edge_quadrature,
    gauss_lobatto_points,
    polygon_area,
    polygon_quadrature,
)

__all__ = [
    "LocalDofLayout",
    "LocalOperators",
    "ElementContext",
    "build_element",
    "build_layout",
    "interpolate_scalar",
    "interpolate_velocity",
]


@dataclass(frozen=True)
class LocalDofLayout:
    """Counts and descriptors of the local scalar / bubble DOF sets."""

    k: int
    n_vertex: int
    n_edge: int                 # total edge-interior DOFs, (k-1) per edge
    n_moment: int               # dim P_{k-2}
    n_bubble: int               # per scalar component, 2k+1
    descriptors: tuple          # (kind, entity index, sub index) per scalar DOF

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
class EdgeData:
    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray
    length: float
    qpoints: np.ndarray
    qweights: np.ndarray
    trace_dofs: np.ndarray      # local scalar DOF ids of the k+1 trace nodes
    lagrange: np.ndarray        # (n_qpoints, k+1) trace shape values
    node_points: np.ndarray     # trace node coordinates along the edge


@dataclass(frozen=True)
class ElementContext:
    """Everything local solvers need about one cell."""

    verts: np.ndarray
    k: int
    basis: pb.PolyBasis          # degree k+2
    quad: object
    layout: LocalDofLayout
    area: float
    mass: np.ndarray             # (dim P_{k+2})^2 Gram matrices
    stiffness: np.ndarray
    edges: tuple
    operators: LocalOperators
    slice_lo: int
    slice_hi: int


def _lagrange_matrix(nodes, ts):
    """Values of the Lagrange basis on nodes at parameters ts."""
    n = len(nodes)
    out = np.ones((len(ts), n))
    for j in range(n):
        for m in range(n):
            if m != j:
                out[:, j] *= (ts - nodes[m]) / (nodes[j] - nodes[m])
    return out


def build_layout(verts, k):
    if k < 1:
        raise ValueError("degree must be >= 1")
    nv = len(verts)
    n_moment = pb.poly_dim(k - 2)
    descriptors = []
    for v in range(nv):
        descriptors.append(("vertex", v, 0))
    for e in range(nv):
        for j in range(k - 1):
            descriptors.append(("edge", e, j))
    for m in range(n_moment):
        descriptors.append(("moment", 0, m))
    return LocalDofLayout(k=k, n_vertex=nv, n_edge=nv * (k - 1),
                          n_moment=n_moment, n_bubble=2 * k + 1,
                          descriptors=tuple(descriptors))


def _edge_data(verts, layout, k, quad_degree):
    nv = layout.n_vertex
    gl = gauss_lobatto_points(k + 1)
    nodes = gl  # includes endpoints -1, 1
    edges = []
    for e in range(nv):
        p0, p1 = verts[e], verts[(e + 1) % nv]
        d = p1 - p0
        length = float(np.linalg.norm(d))
        normal = np.array([d[1], -d[0]]) / length
        rule = edge_quadrature(p0, p1, quad_degree)
        # parameters of the quadrature points on [-1, 1]
        rel = rule.points - p0[None, :]
        ts = 2.0 * (rel @ d) / (length * length) - 1.0
        trace = np.empty(k + 1, dtype=np.int64)
        trace[0] = e
        trace[-1] = (e + 1) % nv
        for j in range(k - 1):
            trace[1 + j] = nv + e * (k - 1) + j
        tnodes = p0[None, :] + 0.5 * (nodes[:, None] + 1.0) * d[None, :]
        edges.append(EdgeData(p0=p0, p1=p1, normal=normal, length=length,
                              qpoints=rule.points, qweights=rule.weights,
                              trace_dofs=trace, lagrange=_lagrange_matrix(nodes, ts),
                              node_points=tnodes))
    return tuple(edges)


def _build_operators(verts, k, basis, quad, layout, edges, area):
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
    stiff_o = pb.stiffness(ortho, quad)
    ortho_k = ortho.prefix(k)

    # boundary functionals ------------------------------------------------
    perimeter = sum(e.length for e in edges)
    p0_basis = np.zeros(nk2)          # boundary mean of each basis member
    p0_dof = np.zeros(nsc)            # boundary mean of each DOF basis function
    bnd_flux = np.zeros((nk, nsc))    # \oint phi (grad q_i . n)
    r_x = np.zeros((nk, nsc))         # \oint phi q_i n_x
    r_y = np.zeros((nk, nsc))
    for ed in edges:
        vals = pb.evaluate(ortho, ed.qpoints)                  # (nq, nk2)
        grads = pb.gradient(ortho_k, ed.qpoints)               # (nq, nk, 2)
        dn = grads[:, :, 0] * ed.normal[0] + grads[:, :, 1] * ed.normal[1]
        wL = ed.qweights[:, None] * ed.lagrange                # (nq, k+1)
        p0_basis += ed.qweights @ vals
        np.add.at(p0_dof, ed.trace_dofs, ed.qweights @ ed.lagrange)
        contrib = dn.T @ wL                                    # (nk, k+1)
        cx = (vals[:, :nk] * ed.normal[0]).T @ wL
        cy = (vals[:, :nk] * ed.normal[1]).T @ wL
        for jj, dof in enumerate(ed.trace_dofs):
            bnd_flux[:, dof] += contrib[:, jj]
            r_x[:, dof] += cx[:, jj]
            r_y[:, dof] += cy[:, jj]
    p0_basis /= perimeter
    p0_dof /= perimeter

    # DOF matrix of the degree-k members ----------------------------------
    basis_k = basis.prefix(k)
    D = np.zeros((nsc, nk))
    D[:nv, :] = pb.evaluate(basis_k, verts)
    row = nv
    for ed in edges:
        pts = ed.node_points[1:-1]
        if len(pts):
            D[row:row + k - 1, :] = pb.evaluate(basis_k, pts)
        row += k - 1
    if nlow:
        D[row:row + nlow, :] = mass[:nlow, :nk] / area

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
    basis = pb.build_basis(verts, k + 2, basis_kind, quadrature=quad)
    layout = build_layout(verts, k)
    edges = _edge_data(verts, layout, k, 2 * k + 3)
    area = float(polygon_area(verts))
    ops, mass, stiff = _build_operators(verts, k, basis, quad, layout, edges,
                                        area)
    return ElementContext(verts=verts, k=k, basis=basis, quad=quad,
                          layout=layout, area=area, mass=mass,
                          stiffness=stiff, edges=edges, operators=ops,
                          slice_lo=pb.poly_dim(k - 2), slice_hi=pb.poly_dim(k))


def interpolate_scalar(ctx, f):
    """Scalar DOF vector interpolating f (point values plus scaled moments)."""
    lay = ctx.layout
    dofs = np.empty(lay.n_scalar)
    dofs[:lay.n_vertex] = f(ctx.verts)
    row = lay.n_vertex
    for ed in ctx.edges:
        pts = ed.node_points[1:-1]
        if len(pts):
            dofs[row:row + ctx.k - 1] = f(pts)
        row += ctx.k - 1
    if lay.n_moment:
        vals = f(ctx.quad.points)
        phi = pb.evaluate(ctx.basis, ctx.quad.points)[:, :lay.n_moment]
        dofs[row:] = (ctx.quad.weights * vals) @ phi / ctx.area
    return dofs


def interpolate_velocity(ctx, u):
    """Velocity DOFs of a smooth field; bubble DOFs are set to zero.

    u maps an (n, 2) point array to (n, 2) values.  Returns
    (x-component scalar DOFs, y-component scalar DOFs, zero bubble DOFs).
    """
    ux = interpolate_scalar(ctx, lambda p: u(p)[:, 0])
    uy = interpolate_scalar(ctx, lambda p: u(p)[:, 1])
    return ux, uy, np.zeros(2 * ctx.layout.n_bubble)

"""Independent reference computations used to pin expected test values.

The monomial integrator here works by Green's theorem on the polygon
boundary with exact 1D Gauss quadrature per edge, sharing no code with the
library's fan-triangulation quadrature.
"""

import dataclasses
import itertools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu
from scipy.spatial import Voronoi, cKDTree

from polystokes import geometry as geo
from polystokes import polybasis as pb
from polystokes import stokes_local as sl
from polystokes import vemspace as vs
from polystokes.geometry import edge_quadrature, gauss_lobatto_points


def monomial_integral(verts, a, b):
    """Exact integral of x^a y^b over a simple polygon (CCW ring).

    Green's theorem: int x^a y^b dA = (1/(a+1)) oint x^(a+1) y^b n_x ds.
    Each edge integrand is a polynomial of degree a+b+1 in the edge
    parameter, integrated exactly with Gauss-Legendre.
    """
    verts = np.asarray(verts, dtype=float)
    n = len(verts)
    deg = a + b + 1
    t, w = np.polynomial.legendre.leggauss(deg // 2 + 1)
    total = 0.0
    for i in range(n):
        p0, p1 = verts[i], verts[(i + 1) % n]
        d = p1 - p0
        # n_x ds = dy along the edge
        pts = p0[None, :] + 0.5 * (t[:, None] + 1.0) * d[None, :]
        vals = pts[:, 0] ** (a + 1) * pts[:, 1] ** b
        total += 0.5 * d[1] * (w @ vals)
    return total / (a + 1)


def scaled_monomial_integral(verts, centroid, diameter, a, b):
    """Integral of ((x-cx)/h)^a ((y-cy)/h)^b via binomial expansion."""
    from math import comb
    cx, cy = centroid
    total = 0.0
    for i in range(a + 1):
        for j in range(b + 1):
            coef = (comb(a, i) * comb(b, j)
                    * (-cx) ** (a - i) * (-cy) ** (b - j))
            total += coef * monomial_integral(verts, i, j)
    return total / diameter ** (a + b)


# ---------------------------------------------------------------------------
# the integer tables of the scaled monomials, one exponent pair at a time
# ---------------------------------------------------------------------------
# The library places every entry through the closed-form graded-lex index;
# these dictionary-indexed loops are the reference it must equal bit for bit.

def monomial_exponents(k):
    """Graded-lex exponent pairs (a, b) for all degrees <= k."""
    return [(a, d - a) for d in range(k + 1) for a in range(d, -1, -1)]


def derivative_exponents(k):
    """d/dx and d/dy of the unscaled monomials of degree <= k."""
    exps = monomial_exponents(k)
    idx = {e: i for i, e in enumerate(exps)}
    dx = np.zeros((len(exps), len(exps)))
    dy = np.zeros((len(exps), len(exps)))
    for i, (a, b) in enumerate(exps):
        if a > 0:
            dx[idx[(a - 1, b)], i] = a
        if b > 0:
            dy[idx[(a, b - 1)], i] = b
    return dx, dy


def laplacian_exponents(k):
    """The laplacian of the unscaled monomials of degree <= k in those of
    degree <= k-2."""
    exps = monomial_exponents(k)
    low = {e: i for i, e in enumerate(monomial_exponents(k - 2))}
    L = np.zeros((len(low), len(exps)))
    for i, (a, b) in enumerate(exps):
        if a >= 2:
            L[low[(a - 2, b)], i] = a * (a - 1)
        if b >= 2:
            L[low[(a, b - 2)], i] = b * (b - 1)
    return L


def harmonic_subspace(basis, k):
    """Re and Im of (x+iy)^m, m <= k, in the coordinates of basis."""
    from math import comb
    exps = monomial_exponents(basis.degree)
    idx = {e: i for i, e in enumerate(exps)}
    cols = []
    for m in range(k + 1):
        re = np.zeros(len(exps))
        im = np.zeros(len(exps))
        for j in range(m + 1):
            c = comb(m, j) * (1j ** j)
            re[idx[(m - j, j)]] += c.real
            im[idx[(m - j, j)]] += c.imag
        cols.append(re)
        if m >= 1:
            cols.append(im)
    return solve_triangular(basis.change_of_basis, np.column_stack(cols))


def table(basis, points):
    """The PowerTable of a one-cell basis at points, of the basis's degree."""
    return pb.power_table(basis.degree, basis.centroid, basis.diameter, points)


def power(x, d):
    """x^d as ((x x) x) ..., one factor at a time, for one exponent d."""
    out = np.ones_like(x)
    for _ in range(d):
        out = out * x
    return out


# ---------------------------------------------------------------------------
# gradients at points
# ---------------------------------------------------------------------------
# The library takes every derivative on coefficients (derivative_matrices);
# these pointwise gradients and their quadrature Gram matrix are the
# reference it must agree with.

def gradient(basis, at):
    """Member gradients of a one-cell basis at the points of a PowerTable
    at (degree >= basis.degree), shape (n_points, dimension, 2)."""
    a, b = pb._exponent_arrays(basis.degree)
    # a * x^(a-1) is zero for a = 0 whatever power it multiplies
    dx = a * at.x[:, np.maximum(a - 1, 0)] * at.y[:, b] / at.diameter
    dy = b * at.x[:, a] * at.y[:, np.maximum(b - 1, 0)] / at.diameter
    return np.stack([dx @ basis.change_of_basis, dy @ basis.change_of_basis],
                    axis=-1)


def stiffness(basis, quad):
    """Quadrature Gram matrix of the gradients of a one-cell basis's
    members, on the quadrature it was built on."""
    G = gradient(basis, table(basis, quad.points))
    return np.einsum("q,qid,qjd->ij", quad.weights, G, G)


def projector_defect(ctx):
    """Worst relative L2 error of Pi(m_j) - m_j over the degree-k members.

    Both the elliptic and the L2 projector of a one-cell element are applied
    to the DOFs of each basis member; the error is measured in the cell's
    mass matrix and divided by the member's own L2 norm.
    """
    nk = pb.poly_dim(ctx.k)
    M = ctx.mass[:nk, :nk]
    worst = 0.0
    for P in (ctx.pinabla_k, ctx.pizero_k):
        E = P @ ctx.dof_matrix - np.eye(nk)
        num = np.sqrt(np.maximum(np.einsum("ij,ik,kj->j", E, M, E), 0.0))
        worst = max(worst, (num / np.sqrt(np.diag(M))).max())
    return worst


def dense_condition_number(system):
    """Spectral condition number of a reduced system matrix from a dense
    symmetric eigensolve: flipping the sign of the pressure and multiplier
    rows makes the matrix symmetric, and its singular values are the moduli
    of the eigenvalues of the flipped matrix."""
    M = system.signs[:, None] * system.matrix.toarray()
    svals = np.abs(np.linalg.eigvalsh(0.5 * (M + M.T)))
    return float(svals.max() / svals.min())


def block_diagonal(system):
    """The SPD block diagonal diag(A, M_p) that assembly.solve factors, in
    CSC, gathered by position: A's columns sliced out of K, then those of
    M_p = D + mass_values read from K's data and indices at c_positions,
    their rows moved up to follow A's."""
    K, at = system.matrix, system.c_positions
    n_sc = system.dof_map.n_scalar
    nx = np.count_nonzero(system.free < n_sc)   # free DOFs per component
    A, m, p0 = K[:nx, :nx], len(at), 2 * nx
    data = np.empty(A.nnz + m)
    indices = np.empty(A.nnz + m, K.indices.dtype)
    indptr = np.empty(nx + n_sc + 1, K.indptr.dtype)
    data[:A.nnz], indices[:A.nnz], indptr[:nx + 1] = \
        A.data, A.indices, A.indptr
    data[A.nnz:] = K.data[at] + system.mass_values
    indices[A.nnz:] = K.indices[at] - (p0 - nx)
    indptr[nx + 1:] = A.nnz + np.searchsorted(
        at, K.indptr[p0 + 1:p0 + n_sc + 1])
    return sp.csc_matrix((data, indices, indptr),
                         shape=(nx + n_sc, nx + n_sc))


# SuperLU options in the order direct_solve tries them: LU without pivoting
# on the symmetric minimum-degree ordering of K^T + K, then the default COLAMD
# with partial pivoting
DIRECT_FACTORIZATIONS = (
    dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
         options={"SymmetricMode": True}),
    {},
)


def _refined_solve(K, b, options):
    """Factor K with the SuperLU options and solve K x = b, refined on
    long-double residuals for at most five steps, until a correction grows,
    stops being finite, or falls below 1e-14 relative to the solution;
    returns x and its relative residual."""
    lu = splu(K, **options)
    x = lu.solve(b)
    K_long, b_long = K.astype(np.longdouble), b.astype(np.longdouble)

    def residual(v):
        return np.asarray(b_long - K_long @ v.astype(np.longdouble),
                          dtype=np.float64)

    r = residual(x)
    xnorm = float(np.linalg.norm(x)) or 1.0
    prev = np.inf
    for _ in range(5):
        d = lu.solve(r)
        dnorm = np.linalg.norm(d)
        if not np.isfinite(dnorm) or dnorm >= prev:
            break
        x = x + d
        r = residual(x)
        if dnorm <= 1e-14 * xnorm:
            break
        prev = dnorm
    return x, np.linalg.norm(r) / (float(np.linalg.norm(b)) or 1.0)


def direct_solve(system):
    """The reduced solution of a library system by one sparse LU of the
    whole matrix: the first of DIRECT_FACTORIZATIONS, refined, and the
    COLAMD factor only when that one is singular or its relative residual
    is not finite or exceeds 1e-10 (assembly.RESIDUAL_BOUND)."""
    first, fallback = DIRECT_FACTORIZATIONS
    try:
        x, res = _refined_solve(system.matrix, system.rhs, first)
        if res <= 1e-10:
            return x
    except RuntimeError:
        pass
    return _refined_solve(system.matrix, system.rhs, fallback)[0]


def cell_scalar_dofs(mesh, dof_map, c):
    """Global scalar indices in local DOF order for cell c, one edge at a
    time: vertices, k-1 nodes per edge in ring order, then the moments."""
    ring = mesh.cells[c]
    k = dof_map.k
    idx = list(ring)
    for i, e in enumerate(mesh.cell_edges[c]):
        ids = list(range(dof_map.n_vertices + e * (k - 1),
                         dof_map.n_vertices + (e + 1) * (k - 1)))
        if mesh.edges[e][0] != ring[i]:
            ids = ids[::-1]          # ring traverses the edge backwards
        idx += ids
    base = (dof_map.n_vertices + dof_map.n_edges * (k - 1)
            + c * dof_map.n_moment)
    return np.array(idx + list(range(base, base + dof_map.n_moment)))


def boundary_scalar_data(mesh, dof_map, g):
    """Constrained velocity indices and values, one boundary edge at a time."""
    k = dof_map.k
    idx, vals = [], []
    verts = np.where(mesh.boundary_vertex_flags)[0]
    idx.extend(verts.tolist())
    vals.append(g(mesh.vertices[verts]))
    gl = gauss_lobatto_points(k + 1)[1:-1]
    for e in np.where(mesh.boundary_edge_flags)[0]:
        p0, p1 = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
        vals.append(g(p0[None, :]
                      + 0.5 * (gl[:, None] + 1.0) * (p1 - p0)[None, :]))
        base = dof_map.n_vertices + e * (k - 1)
        idx.extend(range(base, base + k - 1))
    idx = np.array(idx, dtype=np.int64)
    vals = np.concatenate(vals)
    return (np.concatenate([idx, idx + dof_map.n_scalar]),
            np.concatenate([vals[:, 0], vals[:, 1]]))


def uncondensed_solve(mesh, system, f, g):
    """The Stokes problem of a library system solved with its bubbles kept
    as unknowns.

    The library's blocks of the mesh's cells, from element batches rebuilt
    at the system's degree and basis kind, each cell's velocity blocks
    doubled to diag(A_sc, A_sc) and diag(Ab_sc, Ab_sc) and its divergence
    blocks and loads joined x then y, are scattered one cell at a time into
    the ordering x velocity | y velocity | bubbles (x then y within each
    cell) | pressure | multiplier; the velocity DOFs fixed by g are
    eliminated, and the rest is solved by SuperLU with COLAMD and partial
    pivoting, without refinement.  Returns ux, uy, p, the
    (n_cells, 2(2k+1)) bubbles and the size of the solved system.
    """
    dof_map = system.dof_map
    _, batches = element_set(mesh, dof_map.k, system.batches[0].basis.kind)
    blocks = sl.build_blocks(batches, system.config, f)
    n_sc, nb = dof_map.n_scalar, 2 * blocks.Ab_sc.shape[1]
    p_off = 2 * n_sc + dof_map.n_cells * nb
    n = p_off + n_sc + 1
    mult = np.array([n - 1])
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)

    def add(r, c, v):
        rows.append(np.repeat(r, len(c)))
        cols.append(np.tile(c, len(r)))
        vals.append(np.ravel(v))

    for c in range(dof_map.n_cells):
        gd = cell_scalar_dofs(mesh, dof_map, c)
        m = len(gd)
        vel = np.concatenate([gd, gd + n_sc])
        bub = 2 * n_sc + c * nb + np.arange(nb)
        prs = p_off + gd
        B_u = np.hstack([blocks.B_x[c, :m, :m], blocks.B_y[c, :m, :m]])
        B_b = np.hstack([blocks.Bb_x[c, :m], blocks.Bb_y[c, :m]])
        w = blocks.mean_weights[c, :m]
        add(vel, vel, _block_diag2(blocks.A_sc[c, :m, :m]))
        add(vel, prs, -B_u.T)
        add(prs, vel, B_u)
        add(bub, bub, _block_diag2(blocks.Ab_sc[c]))
        add(bub, prs, -B_b.T)
        add(prs, bub, B_b)
        add(prs, prs, system.config.alpha * blocks.C_p[c, :m, :m])
        add(prs, mult, w)
        add(mult, prs, w)
        rhs[vel] += np.concatenate([blocks.F_x[c, :m], blocks.F_y[c, :m]])
        rhs[bub] += np.concatenate([blocks.Fb_x[c], blocks.Fb_y[c]])
    K = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    constrained, values = boundary_scalar_data(mesh, dof_map, g)
    free = np.setdiff1d(np.arange(n), constrained)
    x = np.zeros(n)
    x[constrained] = values
    x[free] = splu(K[free][:, free].tocsc()).solve(
        rhs[free] - K[free][:, constrained] @ values)
    return (x[:n_sc], x[n_sc:2 * n_sc], x[p_off:p_off + n_sc],
            x[2 * n_sc:p_off].reshape(dof_map.n_cells, nb), len(free))


# ---------------------------------------------------------------------------
# one cell's element: the batch step on that cell, and its per-cell reference
# ---------------------------------------------------------------------------

def unstacked(batch, i):
    """Cell i of an ElementBatch (or of any stacked dataclass): every array
    indexed at i, ints and strings kept."""
    if dataclasses.is_dataclass(batch):
        return type(batch)(**{f.name: unstacked(getattr(batch, f.name), i)
                              for f in dataclasses.fields(batch)})
    return batch[i] if isinstance(batch, np.ndarray) else batch


def batch(ctx):
    """The one ElementBatch of vemspace.build_batches run on one cell's
    ElementContext."""
    (out,) = vs.build_batches([ctx])
    return out


def one_cell(verts):
    """The one-cell mesh of a simple CCW polygon, for build_element."""
    return geo.build_mesh(verts, [np.arange(len(verts))])


def element_set(mesh, k, kind):
    """Every cell's ElementContext on a mesh, and build_batches of them."""
    contexts = [vs.build_element(mesh, c, k, basis_kind=kind)
                for c in range(mesh.n_cells)]
    return contexts, vs.build_batches(contexts)


def element(ctx):
    """One cell's ElementContext with its layout, area, edge nodes, mass,
    stiffness, projector and DOF matrices and quadrature values: the batch
    of that cell alone, unstacked."""
    return unstacked(batch(ctx), 0)


def cell_elements(batches):
    """(cell, one-cell view) for every cell of the batches (ElementBatch or
    BatchRecord), in cell order."""
    return sorted(((int(c), unstacked(batch, i)) for batch in batches
                   for i, c in enumerate(batch.cells)), key=lambda x: x[0])


def boundary_trace(verts, k, n_scalar):
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
    lagrange = vs._lagrange_matrix(k)
    nq = len(lagrange)
    phi = np.zeros((nv, nq, n_scalar))
    phi[e[:, None, None], np.arange(nq)[:, None], trace[:, None, :]] = lagrange
    return (rule.points.reshape(-1, 2), rule.weights.ravel(),
            np.repeat(normals, nq, axis=0), phi.reshape(-1, n_scalar))


def cell_geometry(ctx):
    """One cell's DOF layout, area and (n_edges, k-1, 2) edge nodes,
    computed for that cell alone."""
    verts, k = ctx.verts, ctx.k
    gl = gauss_lobatto_points(k + 1)[1:-1]
    edge_nodes = (verts[:, None, :] + 0.5 * (gl[:, None] + 1.0)
                  * (np.roll(verts, -1, axis=0) - verts)[:, None, :])
    return (vs.build_layout(len(verts), k), float(geo.polygon_area(verts)),
            edge_nodes)


def interpolate_scalar(ctx, f):
    """Scalar DOF vector interpolating f (point values plus scaled moments)
    on one cell's ElementContext: the reference of
    vemspace.interpolate_scalar."""
    layout, area, edge_nodes = cell_geometry(ctx)
    nodes = np.vstack([ctx.verts, edge_nodes.reshape(-1, 2)])
    dofs = np.empty(layout.n_scalar)
    dofs[:len(nodes)] = f(nodes)
    if layout.n_moment:
        vals = f(ctx.quad.points)
        phi = pb.evaluate(ctx.basis, table(ctx.basis, ctx.quad.points))[
            :, :layout.n_moment]
        dofs[len(nodes):] = (ctx.quad.weights * vals) @ phi / area
    return dofs


def build_operators(ctx):
    """One cell's ElementBatch fields beyond the ElementContext ones but the
    cell index (layout, edge nodes, mass, stiffness, projector and DOF
    matrices, quadrature values and member integrals) as a dict, computed
    for that cell alone, on its own area: the reference that the batches
    of vemspace.build_batches must equal bit for bit.

    Every Gram system is solved in the orthonormal basis q = m R^-1, and a
    projector is T Pi^orth S (see vemspace._build_batch).
    """
    verts, k, basis, quad = ctx.verts, ctx.k, ctx.basis, ctx.quad
    layout, area, edge_nodes = cell_geometry(ctx)
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
    dx, dy = pb.derivative_matrices(ortho)
    stiff_o = dx.T @ dx + dy.T @ dy
    ortho_k = ortho.prefix(k)

    pts, w, nrm, phi = boundary_trace(verts, k, nsc)
    vals = pb.evaluate(ortho, table(ortho, pts))
    dn = ((vals[:, :nk] @ dx[:nk, :nk]) * nrm[:, :1]
          + (vals[:, :nk] @ dy[:nk, :nk]) * nrm[:, 1:])
    w_phi = w[:, None] * phi
    perimeter = w.sum()
    p0_basis = w @ vals / perimeter
    p0_dof = w @ phi / perimeter
    bnd_flux = dn.T @ w_phi
    r_x = (vals[:, :nk] * nrm[:, :1]).T @ w_phi
    r_y = (vals[:, :nk] * nrm[:, 1:]).T @ w_phi

    D = np.empty((nsc, nk))
    D[:moment0] = pb.evaluate(basis.prefix(k), table(
        basis.prefix(k), np.vstack([verts, edge_nodes.reshape(-1, 2)])))
    D[moment0:] = mass[:nlow, :nk] / area

    lap_k = pb.laplacian_in_lower_basis(ortho_k)
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

    Ak = A[:nk, :nk]
    c = np.zeros((nk, nsc))
    c[:nlow, moment0:] = area * np.eye(nlow)
    c[sl, :] = (Ak.T @ pinabla_o)[sl, :]
    pizero = solve_triangular(Ak, solve_triangular(Ak, c, trans="T"))

    lap_k2 = pb.laplacian_in_lower_basis(ortho)
    G2 = stiff_o.copy()
    G2[0, :] = p0_basis
    RB = -area * lap_k2[sl, :].T
    RB[0, :] = 0.0
    Sb = T[sl, sl].T
    bubble_pinabla = T @ np.linalg.solve(G2, RB) @ Sb
    bubble_pizero = area * T[:nk, sl] @ Sb

    values = pb.evaluate(basis, table(basis, quad.points))[:, :nk]
    return dict(layout=layout, edge_nodes=edge_nodes,
                mass=mass, stiffness=A.T @ stiff_o @ A,
                pinabla_k=pinabla, pizero_k=pizero,
                bubble_pinabla=bubble_pinabla, bubble_pizero_k=bubble_pizero,
                dof_matrix=D,
                boundary_rx=Ak.T @ r_x, boundary_ry=Ak.T @ r_y,
                quad_values=np.ascontiguousarray(values),
                member_integrals=quad.weights @ values)


# ---------------------------------------------------------------------------
# local blocks and error norms, one cell at a time
# ---------------------------------------------------------------------------
# The library computes these over element batches; the per-cell code below,
# on the one-cell views of the batches, is the reference they must equal
# bit for bit.

def _block_diag2(M):
    """diag(M, M): one component's block for both velocity components."""
    n = M.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = M
    out[n:, n:] = M
    return out


def local_a(ctx, config):
    nk = pb.poly_dim(ctx.k)
    stiff_k = ctx.stiffness[:nk, :nk]

    cons = ctx.pinabla_k.T @ stiff_k @ ctx.pinabla_k
    comp = np.eye(ctx.dof_matrix.shape[0]) - ctx.dof_matrix @ ctx.pinabla_k
    A_sc = cons + comp.T @ comp
    A_u = _block_diag2(A_sc)

    cons_b = ctx.bubble_pinabla.T @ ctx.stiffness @ ctx.bubble_pinabla
    if config.beta_sharp > 0:
        dofs_b = ctx.mass[ctx.layout.n_moment:nk, :] / ctx.area
        comp_b = np.eye(ctx.layout.n_bubble) - dofs_b @ ctx.bubble_pinabla
        cons_b = cons_b + config.beta_sharp * comp_b.T @ comp_b
    A_b = _block_diag2(cons_b)
    return A_u, A_b


def local_b(ctx):
    nk = pb.poly_dim(ctx.k)
    dx, dy = pb.derivative_matrices(ctx.basis.prefix(ctx.k))
    mass_k = ctx.mass[:nk, :nk]
    r_x, r_y = ctx.boundary_rx, ctx.boundary_ry

    pz = ctx.pizero_k
    vol_x = pz.T @ (dx.T @ mass_k) @ pz
    vol_y = pz.T @ (dy.T @ mass_k) @ pz
    bnd_x = pz.T @ r_x
    bnd_y = pz.T @ r_y
    B_u = np.hstack([bnd_x - vol_x, bnd_y - vol_y])

    lo = ctx.layout.n_moment
    Bb_x = -ctx.area * (dx @ pz)[lo:nk, :].T
    Bb_y = -ctx.area * (dy @ pz)[lo:nk, :].T
    B_b = np.hstack([Bb_x, Bb_y])
    return B_u, B_b


def local_c(ctx):
    comp = np.eye(ctx.dof_matrix.shape[0]) - ctx.dof_matrix @ ctx.pizero_k
    return ctx.area * (comp.T @ comp)


def local_mass(ctx):
    nk = pb.poly_dim(ctx.k)
    return ctx.pizero_k.T @ ctx.mass[:nk, :nk] @ ctx.pizero_k


def local_mean(ctx):
    nk = pb.poly_dim(ctx.k)
    phi = pb.evaluate(ctx.basis, table(ctx.basis, ctx.quad.points))[:, :nk]
    ints = ctx.quad.weights @ phi
    return ints @ ctx.pizero_k


def local_rhs(ctx, f):
    nk = pb.poly_dim(ctx.k)
    w = ctx.quad.weights
    fv = f(ctx.quad.points)
    phi = pb.evaluate(ctx.basis, table(ctx.basis, ctx.quad.points))[:, :nk]
    pz_vals = phi @ ctx.pizero_k
    bz_vals = phi @ ctx.bubble_pizero_k
    F_u = np.concatenate([(w * fv[:, 0]) @ pz_vals, (w * fv[:, 1]) @ pz_vals])
    F_b = np.concatenate([(w * fv[:, 0]) @ bz_vals, (w * fv[:, 1]) @ bz_vals])
    return F_u, F_b


def build_blocks(ctx, config, f=np.zeros_like):
    """One cell's blocks, unpadded: a dict of A_u, A_b, B_u, B_b, C_p, M_p,
    mean_weights, F_u and F_b."""
    A_u, A_b = local_a(ctx, config)
    B_u, B_b = local_b(ctx)
    F_u, F_b = local_rhs(ctx, f)
    return dict(A_u=A_u, A_b=A_b, B_u=B_u, B_b=B_b, C_p=local_c(ctx),
                M_p=local_mass(ctx), mean_weights=local_mean(ctx), F_u=F_u,
                F_b=F_b)


def compute_errors(mesh, solution, case):
    """The ErrorReport floats (err0_u, err1_u, err0_p) of a solution on the
    mesh, one cell at a time."""
    k = solution.dof_map.k
    dof_map = solution.dof_map
    e0u = e1u = e0p = n0u = n1u = n0p = 0.0
    for c, ctx in cell_elements(solution.batches):
        gd = cell_scalar_dofs(mesh, dof_map, c)
        cux = ctx.pizero_k @ solution.ux[gd]
        cuy = ctx.pizero_k @ solution.uy[gd]
        cp = ctx.pizero_k @ solution.p[gd]
        pts, w = ctx.quad.points, ctx.quad.weights
        basis_k = ctx.basis.prefix(k)
        phi = pb.evaluate(basis_k, table(basis_k, pts))
        dx, dy = pb.derivative_matrices(basis_k)

        u = case.velocity(pts)
        gu = case.grad_velocity(pts)
        p = case.pressure(pts)

        du0 = phi @ cux - u[:, 0]
        du1 = phi @ cuy - u[:, 1]
        dp = phi @ cp - p
        e0u += w @ (du0 ** 2 + du1 ** 2)
        e0p += w @ (dp ** 2)
        n0u += w @ (u[:, 0] ** 2 + u[:, 1] ** 2)
        n0p += w @ (p ** 2)

        d0 = phi @ np.column_stack([dx @ cux, dy @ cux]) - gu[:, 0, :]
        d1 = phi @ np.column_stack([dx @ cuy, dy @ cuy]) - gu[:, 1, :]
        e1u += w @ np.sum(d0 ** 2 + d1 ** 2, axis=1)
        n1u += w @ np.sum(gu[:, 0, :] ** 2 + gu[:, 1, :] ** 2, axis=1)

    def relative(err2, ref2):
        err, ref = np.sqrt(err2), np.sqrt(ref2)
        return float(err / ref) if ref > 1e-14 else float(err)

    return relative(e0u, n0u), relative(e1u, n1u), relative(e0p, n0p)


# ---------------------------------------------------------------------------
# mesh generation and validation, one cell at a time
# ---------------------------------------------------------------------------
# The library runs these over rings grouped by vertex count; the per-cell
# loops below are the reference the grouped kernels must equal bit for bit.

def polygon_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def polygon_centroid(verts):
    x, y = verts[:, 0], verts[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * a)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * a)
    return np.array([cx, cy])


def polygon_diameter(verts):
    d = verts[:, None, :] - verts[None, :, :]
    return np.sqrt(np.max(np.sum(d * d, axis=2)))


def _segments_intersect(p1, p2, q1, q2):
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return np.sign(v)

    return (orient(p1, p2, q1) != orient(p1, p2, q2)
            and orient(q1, q2, p1) != orient(q1, q2, p2))


def ring_is_simple(verts):
    n = len(verts)
    for i in range(n):
        a1, a2 = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(a1, a2, verts[j], verts[(j + 1) % n]):
                return False
    return True


def first_appearance(rows):
    """The distinct rows of an array numbered in order of first appearance,
    through a row-wise np.unique: the number of every row and the position
    of each number's first row."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse.ravel()], first[order]


def build_mesh(vertices, cells, check_domain_area=None):
    """The mesh container with every check made cell by cell."""
    vertices = np.asarray(vertices, dtype=float)
    rings = [np.asarray(c, dtype=np.int64) for c in cells]
    areas = np.empty(len(rings))
    centroids = np.empty((len(rings), 2))
    diams = np.empty(len(rings))
    for ci, ring in enumerate(rings):
        if len(ring) < 3 or len(np.unique(ring)) != len(ring):
            raise geo.MeshError(f"cell {ci}: ring must have >=3 distinct vertices")
        poly = vertices[ring]
        a = polygon_area(poly)
        if a <= 0:
            raise geo.MeshError(f"cell {ci}: ring is clockwise or degenerate")
        if not ring_is_simple(poly):
            raise geo.MeshError(f"cell {ci}: ring is self-intersecting")
        areas[ci] = a
        centroids[ci] = polygon_centroid(poly)
        diams[ci] = polygon_diameter(poly)

    edge_index = {}
    edge_count = {}
    cell_edges = []
    for ring in rings:
        ce = np.empty(len(ring), dtype=np.int64)
        for i in range(len(ring)):
            a, b = int(ring[i]), int(ring[(i + 1) % len(ring)])
            key = (a, b) if a < b else (b, a)
            if key not in edge_index:
                edge_index[key] = len(edge_index)
            ce[i] = edge_index[key]
            edge_count[key] = edge_count.get(key, 0) + 1
        cell_edges.append(ce)
    edges = np.array(sorted(edge_index, key=edge_index.get), dtype=np.int64)
    counts = np.array([edge_count[tuple(e)] for e in edges])
    assert not np.any(counts > 2)
    assert len(vertices) - len(edges) + len(rings) == 1
    boundary_edges = counts == 1
    boundary_verts = np.zeros(len(vertices), dtype=bool)
    boundary_verts[edges[boundary_edges].ravel()] = True
    if check_domain_area is not None:
        total = float(np.sum(areas))
        assert abs(total - check_domain_area) <= 1e-12 * check_domain_area
    return geo.PolygonalMesh(
        vertices=vertices, cells=rings, edges=edges, cell_edges=cell_edges,
        boundary_vertex_flags=boundary_verts, boundary_edge_flags=boundary_edges,
        h=float(np.max(diams)), cell_areas=areas, cell_centroids=centroids,
        cell_diameters=diams)


def clipped_voronoi_cells(points):
    pts = np.asarray(points, dtype=float)
    mirrors = [pts * [-1.0, 1.0], pts * [1.0, -1.0],
               np.column_stack([2.0 - pts[:, 0], pts[:, 1]]),
               np.column_stack([pts[:, 0], 2.0 - pts[:, 1]])]
    vor = Voronoi(np.vstack([pts] + mirrors))
    polys = []
    for i in range(len(pts)):
        region = vor.regions[vor.point_region[i]]
        assert -1 not in region
        poly = vor.vertices[region]
        if polygon_area(poly) < 0:
            poly = poly[::-1]
        poly = np.where(np.abs(poly) < geo._MERGE_TOL, 0.0, poly)
        poly = np.where(np.abs(poly - 1.0) < geo._MERGE_TOL, 1.0, poly)
        polys.append(poly)
    return polys


def lloyd(points, iterations):
    pts = points
    for _ in range(iterations):
        polys = clipped_voronoi_cells(pts)
        pts = np.array([polygon_centroid(p) for p in polys])
    return pts


def matched_vertex_distance(mesh, ref):
    """The largest distance between a vertex of mesh and its match in ref,
    for two meshes that are the same up to rounding and vertex numbering.

    Each vertex of mesh is matched to its nearest vertex of ref (a cKDTree
    query).  Raises AssertionError unless the vertex, edge and cell counts
    are equal, the match is one to one, and the matched corners of each
    cell of mesh are the corners of the cell of ref with the same number.
    """
    assert (mesh.n_vertices, mesh.n_edges, mesh.n_cells) == (
        ref.n_vertices, ref.n_edges, ref.n_cells)
    distance, match = cKDTree(ref.vertices).query(mesh.vertices)
    assert len(np.unique(match)) == mesh.n_vertices, "not a bijection"
    for c, (ring, want) in enumerate(zip(mesh.cells, ref.cells)):
        assert sorted(match[ring]) == sorted(want), f"cell {c}"
    return float(distance.max())


# The reference merge and clipper: per-point dict and list loops, with the
# ring repair that the clipper's output needs (the clipper repeats a corner
# where it cuts a side at a vertex).

def mesh_from_polygons(polys):
    """Merge per-cell polygons into a shared-vertex mesh."""
    vmap = {}
    verts = []
    rings = []
    for poly in polys:
        ring = []
        for p in poly:
            key = (round(p[0] / geo._MERGE_TOL), round(p[1] / geo._MERGE_TOL))
            idx = vmap.get(key)
            if idx is None:
                idx = len(verts)
                vmap[key] = idx
                verts.append(p)
            if not ring or ring[-1] != idx:
                ring.append(idx)
        if len(ring) > 1 and ring[0] == ring[-1]:
            ring.pop()
        rings.append(ring)
    return np.array(verts), rings


def clip_to_unit_square(poly):
    """Sutherland-Hodgman clip of a CCW polygon against (0,1)^2."""
    def clip(pts, inside, intersect):
        out = []
        n = len(pts)
        for i in range(n):
            cur, nxt = pts[i], pts[(i + 1) % n]
            if inside(cur):
                out.append(cur)
                if not inside(nxt):
                    out.append(intersect(cur, nxt))
            elif inside(nxt):
                out.append(intersect(cur, nxt))
        return out

    def x_cut(level, keep_ge):
        def inside(p):
            return p[0] >= level if keep_ge else p[0] <= level

        def inter(a, b):
            t = (level - a[0]) / (b[0] - a[0])
            return np.array([level, a[1] + t * (b[1] - a[1])])
        return inside, inter

    def y_cut(level, keep_ge):
        def inside(p):
            return p[1] >= level if keep_ge else p[1] <= level

        def inter(a, b):
            t = (level - a[1]) / (b[1] - a[1])
            return np.array([a[0] + t * (b[0] - a[0]), level])
        return inside, inter

    pts = list(poly)
    for inside, inter in (x_cut(0.0, True), x_cut(1.0, False),
                          y_cut(0.0, True), y_cut(1.0, False)):
        pts = clip(pts, inside, inter)
        if len(pts) < 3:
            return None
    out = np.array(pts)
    if polygon_area(out) < 1e-14:
        return None
    return out


def _random_polygons_mesh(level, rng_seed):
    n = 64 * 2 ** (level - 1)
    rng = np.random.default_rng(rng_seed)
    seeds = rng.uniform(0.03, 0.97, size=(n, 2))
    base = build_mesh(*mesh_from_polygons(clipped_voronoi_cells(seeds)),
                      check_domain_area=1.0)
    offsets = rng.uniform(-0.2, 0.2, size=base.n_edges)
    new_verts = list(base.vertices)
    mid_index = np.full(base.n_edges, -1, dtype=np.int64)
    for e, (a, b) in enumerate(base.edges):
        if base.boundary_edge_flags[e]:
            continue
        pa, pb = base.vertices[a], base.vertices[b]
        d = pb - pa
        normal = np.array([d[1], -d[0]])
        mid_index[e] = len(new_verts)
        new_verts.append(0.5 * (pa + pb) + offsets[e] * normal)
    new_verts = np.array(new_verts)
    new_rings = []
    for ring, ce in zip(base.cells, base.cell_edges):
        out = []
        for i, v in enumerate(ring):
            out.append(v)
            if mid_index[ce[i]] >= 0:
                out.append(mid_index[ce[i]])
        new_rings.append(out)
    for _ in range(60):
        bad = set()
        for ring in new_rings:
            poly = new_verts[ring]
            d = poly - polygon_centroid(poly)
            cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
            if np.min(cross) <= 1e-12:
                bad.update(int(v) for v in ring if v >= base.n_vertices)
        if not bad:
            break
        for e in range(base.n_edges):
            if mid_index[e] in bad:
                a, b = base.edges[e]
                mid = 0.5 * (base.vertices[a] + base.vertices[b])
                new_verts[mid_index[e]] = 0.5 * (new_verts[mid_index[e]] + mid)
    return build_mesh(new_verts, new_rings, check_domain_area=1.0)


def generate_mesh(family, level, rng_seed=0):
    """The four mesh families, generated and checked cell by cell."""
    if family == "hexagonal":
        polys = clipped_voronoi_cells(geo._triangular_lattice(*geo._HEX_LEVELS[level]))
    elif family == "voronoi":
        rng = np.random.default_rng(rng_seed)
        seeds = rng.uniform(0.02, 0.98, size=(64 * 4 ** (level - 1), 2))
        polys = clipped_voronoi_cells(lloyd(seeds, 100))
    elif family == "random_polygons":
        return _random_polygons_mesh(level, rng_seed)
    else:
        nx = 2 ** level
        ny = 4 * nx
        w, hh = 1.0 / nx, 1.0 / ny
        polys = []
        for i in range(2 * nx + 1):
            for j in range(2 * ny + 1):
                if (i + j) % 2:
                    cx, cy = i * w / 2.0, j * hh / 2.0
                    clipped = clip_to_unit_square(np.array(
                        [[cx - w / 2, cy], [cx, cy - hh / 2],
                         [cx + w / 2, cy], [cx, cy + hh / 2]]))
                    if clipped is not None:
                        polys.append(clipped)
    return build_mesh(*mesh_from_polygons(polys), check_domain_area=1.0)


def kernel_ball_radius(verts):
    """Radius of the largest ball inside one ring's kernel: the least dual
    value b.y over the triples of sides whose weights have one sign."""
    local = verts - verts[0]
    d = np.roll(local, -1, axis=0) - local
    n = (np.column_stack([d[:, 1], -d[:, 0]])
         / np.hypot(d[:, 0], d[:, 1])[:, None])
    b = n[:, 0] * local[:, 0] + n[:, 1] * local[:, 1]
    sides = np.array(list(itertools.combinations(range(len(verts)), 3)))
    nt, bt = n[sides], b[sides]
    nj, nk = nt[:, [1, 2, 0]], nt[:, [2, 0, 1]]
    w = nj[..., 0] * nk[..., 1] - nj[..., 1] * nk[..., 0]
    s = w.sum(axis=1)
    feasible = ((w >= 0).all(axis=1) | (w <= 0).all(axis=1)) & (s != 0)
    return float(np.min((bt[feasible] * w[feasible]).sum(axis=1)
                        / s[feasible]))


def validate_geometry(mesh):
    """The shape-regularity report, one cell at a time."""
    n = mesh.n_cells
    star = np.empty(n)
    mind = np.empty(n)
    for c in range(n):
        poly = mesh.vertices[mesh.cells[c]]
        star[c] = max(2.0 * kernel_ball_radius(poly) / mesh.cell_diameters[c],
                      0.0)
        d = poly[:, None, :] - poly[None, :, :]
        dist = np.sqrt(np.sum(d * d, axis=2))
        np.fill_diagonal(dist, np.inf)
        mind[c] = float(np.min(dist)) / mesh.cell_diameters[c]
    return geo.GeometryReport(star_ratio=star, min_distance_ratio=mind)

"""Independent reference computations used to pin expected test values.

The monomial integrator here works by Green's theorem on the polygon
boundary with exact 1D Gauss quadrature per edge, sharing no code with the
library's fan-triangulation quadrature.
"""

import numpy as np

from polystokes.geometry import gauss_lobatto_points


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


def polynomial_integral(verts, coeffs, exps):
    """Integral of sum_i coeffs[i] x^a_i y^b_i over the polygon."""
    return sum(c * monomial_integral(verts, a, b)
               for c, (a, b) in zip(coeffs, exps))


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


def projector_defect(ctx):
    """Worst relative L2 error of Pi(m_j) - m_j over the degree-k members.

    Both the elliptic and the L2 projector of a cell context are applied to
    the DOFs of each basis member; the error is measured in the cell's mass
    matrix and divided by the member's own L2 norm.
    """
    ops = ctx.operators
    nk = ctx.slice_hi
    M = ctx.mass[:nk, :nk]
    worst = 0.0
    for P in (ops.pinabla_k, ops.pizero_k):
        E = P @ ops.dof_matrix - np.eye(nk)
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

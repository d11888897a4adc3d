"""Independent reference computations used to pin expected test values.

The monomial integrator here works by Green's theorem on the polygon
boundary with exact 1D Gauss quadrature per edge, sharing no code with the
library's fan-triangulation quadrature.
"""

import numpy as np
from scipy.spatial import Voronoi

from polystokes import geometry as geo
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


def build_mesh(vertices, cells, check_domain_area=None):
    """The mesh container with every check made cell by cell."""
    vertices = np.asarray(vertices, dtype=float)
    rings = [np.asarray(c, dtype=np.int64) for c in cells]
    areas = np.empty(len(rings))
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
        h=float(np.max(diams)), cell_areas=areas, cell_diameters=diams)


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


def _random_polygons_mesh(level, rng_seed):
    n = 64 * 2 ** (level - 1)
    rng = np.random.default_rng(rng_seed)
    seeds = rng.uniform(0.03, 0.97, size=(n, 2))
    base = build_mesh(*geo._mesh_from_polygons(clipped_voronoi_cells(seeds)),
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
                    clipped = geo._clip_to_unit_square(np.array(
                        [[cx - w / 2, cy], [cx, cy - hh / 2],
                         [cx + w / 2, cy], [cx, cy + hh / 2]]))
                    if clipped is not None:
                        polys.append(clipped)
    return build_mesh(*geo._mesh_from_polygons(polys), check_domain_area=1.0)


def _distance_to_boundary(points, verts):
    n = len(verts)
    dmin = np.full(len(points), np.inf)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        d = b - a
        t = np.clip(((points - a) @ d) / (d @ d), 0.0, 1.0)
        proj = a + t[:, None] * d[None, :]
        dist = np.linalg.norm(points - proj, axis=1)
        dmin = np.minimum(dmin, dist)
    return dmin


def _kernel_samples(verts):
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    gx = np.linspace(lo[0], hi[0], 32)
    gy = np.linspace(lo[1], hi[1], 32)
    pts = np.column_stack([np.repeat(gx, 32), np.tile(gy, 32)])
    return np.vstack([pts, polygon_centroid(verts)[None, :]])


def star_ratio(verts):
    pts = _kernel_samples(verts)
    a = verts[None, :, :] - pts[:, None, :]
    b = np.roll(verts, -1, axis=0)[None, :, :] - pts[:, None, :]
    kernel = ((a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]) >= 0).all(axis=1)
    if not kernel.any():
        return 0.0
    radii = _distance_to_boundary(pts[kernel], verts)
    return float(2.0 * np.max(radii) / polygon_diameter(verts))


def validate_geometry(mesh, rho1=0.1, rho2=0.1):
    """The shape-regularity report, one cell at a time."""
    n = mesh.n_cells
    star = np.empty(n)
    mind = np.empty(n)
    for c in range(n):
        poly = mesh.cell_polygon(c)
        star[c] = star_ratio(poly)
        d = poly[:, None, :] - poly[None, :, :]
        dist = np.sqrt(np.sum(d * d, axis=2))
        np.fill_diagonal(dist, np.inf)
        mind[c] = float(np.min(dist)) / mesh.cell_diameters[c]
    return geo.GeometryReport(
        star_ratio=star, min_distance_ratio=mind,
        areas=mesh.cell_areas.copy(), diameters=mesh.cell_diameters.copy(),
        star_violations=star < rho1, distance_violations=mind < rho2)

"""Polygonal meshes on the unit square: generators, validation, quadrature.

Meshes are plain vertex/cell-ring containers with derived edge connectivity.
All generators are deterministic given their arguments; the voronoi and
random families draw from a seeded numpy Generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Voronoi

__all__ = [
    "PolygonalMesh",
    "GeometryReport",
    "QuadratureRule",
    "generate_mesh",
    "import_mesh",
    "export_mesh",
    "validate_geometry",
    "polygon_quadrature",
    "edge_quadrature",
    "polygon_area",
    "polygon_centroid",
    "polygon_diameter",
    "triangle_rule",
    "gauss_legendre_rule",
    "gauss_lobatto_points",
]

MESH_FAMILIES = ("hexagonal", "voronoi", "random_polygons", "diamond")

# lattice sizes reproducing the hexagonal mesh sequence counts
# (level 1: 62 vertices / 91 edges / 30 cells, and so on)
_HEX_LEVELS = {1: (5, 6), 2: (10, 12), 3: (15, 18), 4: (20, 23), 5: (40, 46), 6: (80, 93)}

_MERGE_TOL = 1e-9

# Lloyd smoothing steps of the voronoi family
LLOYD_ITERATIONS = 100


class MeshError(ValueError):
    """Invalid mesh data (orientation, connectivity or coverage)."""


# ---------------------------------------------------------------------------
# polygon primitives
# ---------------------------------------------------------------------------
# The per-ring kernels take rings stacked as (..., m, 2) coordinates and
# reduce along the ring axis, so one cell (m, 2) and a group of cells with
# the same vertex count (g, m, 2) run the same code.  Each ring sum is
# np.sum over the last, contiguous axis, which gives the same bits for a
# ring alone or in a group.  np.add.reduceat over concatenated rings does
# not: it sums in order, while np.sum sums rings of 8 or more vertices
# pairwise, and 100 Lloyd steps amplify the difference.

def _ring_groups(rings):
    """Rings grouped by vertex count: (cell ids, (g, m) vertex indices) pairs."""
    sizes = np.array([len(r) for r in rings], dtype=np.int64)
    groups = []
    for m in np.unique(sizes):
        ids = np.flatnonzero(sizes == m)
        ring = np.array([rings[i] for i in ids], dtype=np.int64)
        groups.append((ids, ring.reshape(len(ids), m)))
    return groups


def _shoelace(verts):
    """Ring coordinates, their successors and the shoelace cross terms."""
    x, y = verts[..., 0], verts[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    return x, y, xn, yn, x * yn - xn * y


def polygon_area(verts):
    """Signed area, positive for CCW rings, of rings stacked as (..., m, 2)."""
    return 0.5 * np.sum(_shoelace(verts)[-1], axis=-1)


def polygon_centroid(verts):
    """Centroids (..., 2) of rings stacked as (..., m, 2)."""
    x, y, xn, yn, cross = _shoelace(verts)
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)


def polygon_diameter(verts):
    """Largest vertex-pair distance of rings stacked as (..., m, 2)."""
    d = verts[..., :, None, :] - verts[..., None, :, :]
    return np.sqrt(np.max(np.sum(d * d, axis=-1), axis=(-2, -1)))


def _orient(a, b, c):
    return np.sign((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                   - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _ring_is_simple(verts):
    """Whether no two non-adjacent sides of rings (..., m, 2) intersect."""
    m = verts.shape[-2]
    i, j = np.triu_indices(m, 2)
    keep = (i > 0) | (j < m - 1)
    i, j = i[keep], j[keep]
    p1, p2 = verts[..., i, :], verts[..., (i + 1) % m, :]
    q1, q2 = verts[..., j, :], verts[..., (j + 1) % m, :]
    crossing = ((_orient(p1, p2, q1) != _orient(p1, p2, q2))
                & (_orient(q1, q2, p1) != _orient(q1, q2, p2)))
    return ~crossing.any(axis=-1)


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolygonalMesh:
    """Planar polygonal subdivision with derived connectivity.

    ``cells`` are CCW vertex-index rings.  ``edges`` holds unique vertex
    pairs (lo, hi).  ``cell_edges[c][i]`` is the edge index of the ring
    segment from ``cells[c][i]`` to ``cells[c][i+1]``.
    """

    vertices: np.ndarray
    cells: list
    edges: np.ndarray
    cell_edges: list
    boundary_vertex_flags: np.ndarray
    boundary_edge_flags: np.ndarray
    h: float
    cell_areas: np.ndarray = field(repr=False, default=None)
    cell_diameters: np.ndarray = field(repr=False, default=None)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_cells(self):
        return len(self.cells)

    def cell_polygon(self, c):
        return self.vertices[self.cells[c]]


def build_mesh(vertices, cells, check_domain_area=None):
    """Assemble a PolygonalMesh and enforce its invariants.

    check_domain_area: if given, total cell area must match it to 1e-12
    relative.
    """
    vertices, rings = _checked_input(vertices, cells)

    n_k = len(rings)
    areas = np.zeros(n_k)
    diams = np.zeros(n_k)
    distinct = np.zeros(n_k, dtype=bool)
    simple = np.ones(n_k, dtype=bool)
    for ids, ring in _ring_groups(rings):
        if ring.shape[1] < 3:
            continue
        poly = vertices[ring]
        distinct[ids] = (np.diff(np.sort(ring, axis=1), axis=1) != 0).all(axis=1)
        areas[ids] = polygon_area(poly)
        simple[ids] = _ring_is_simple(poly)
        diams[ids] = polygon_diameter(poly)
    valid = distinct & (areas > 0) & simple
    if not valid.all():
        ci = int(np.argmin(valid))
        if not distinct[ci]:
            raise MeshError(f"cell {ci}: ring must have >=3 distinct vertices")
        if areas[ci] <= 0:
            raise MeshError(f"cell {ci}: ring is clockwise or degenerate "
                            f"(area {areas[ci]:g})")
        raise MeshError(f"cell {ci}: ring is self-intersecting")

    edge_index = {}
    edge_count = {}
    cell_edges = []
    for ci, ring in enumerate(rings):
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
    if np.any(counts > 2):
        bad = int(np.argmax(counts > 2))
        raise MeshError(f"edge {tuple(edges[bad])} shared by more than two cells")

    n_v, n_e, n_k = len(vertices), len(edges), len(rings)
    if n_v - n_e + n_k != 1:
        raise MeshError(f"Euler relation violated: {n_v} - {n_e} + {n_k} != 1")

    boundary_edges = counts == 1
    boundary_verts = np.zeros(n_v, dtype=bool)
    boundary_verts[edges[boundary_edges].ravel()] = True

    if check_domain_area is not None:
        total = float(np.sum(areas))
        if abs(total - check_domain_area) > 1e-12 * check_domain_area:
            raise MeshError(f"cells cover area {total!r}, expected {check_domain_area!r}")

    return PolygonalMesh(
        vertices=vertices, cells=rings, edges=edges, cell_edges=cell_edges,
        boundary_vertex_flags=boundary_verts, boundary_edge_flags=boundary_edges,
        h=float(np.max(diams)), cell_areas=areas, cell_diameters=diams)


def _checked_input(vertices, cells):
    """Vertices as a finite (n, 2) float array and rings as int64 arrays of
    indices in [0, n); raises MeshError on anything else."""
    try:
        vertices = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"vertices are not an array of numbers: {exc}") from exc
    if vertices.ndim != 2 or vertices.shape[1] != 2 or not np.isfinite(vertices).all():
        raise MeshError("vertices must be a finite (n, 2) array, "
                        f"got shape {vertices.shape}")
    n = len(vertices)
    try:
        cells = list(cells)
    except TypeError as exc:
        raise MeshError(f"cells are not a sequence of rings: {exc}") from exc
    rings = []
    for ci, cell in enumerate(cells):
        try:
            ring = np.asarray(cell)
        except (TypeError, ValueError):
            ring = None
        if ring is None or ring.ndim != 1 or (ring.size and ring.dtype.kind not in "iu"):
            raise MeshError(f"cell {ci}: ring must be a sequence of integer "
                            "vertex indices")
        if ring.size and (ring.min() < 0 or ring.max() >= n):
            raise MeshError(f"cell {ci}: vertex index out of range [0, {n})")
        rings.append(ring.astype(np.int64, copy=False))
    return vertices, rings


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _voronoi_groups(points):
    """Voronoi cells of points in (0,1)^2, clipped exactly to the square.

    Mirrors the generators across the four sides so every cell of an
    original point is bounded and its boundary pieces land on the square.
    Returns the CCW cells grouped by vertex count: (point ids, (g, m, 2)
    coordinates) pairs.
    """
    pts = np.asarray(points, dtype=float)
    mirrors = [pts * [-1.0, 1.0], pts * [1.0, -1.0],
               np.column_stack([2.0 - pts[:, 0], pts[:, 1]]),
               np.column_stack([pts[:, 0], 2.0 - pts[:, 1]])]
    vor = Voronoi(np.vstack([pts] + mirrors))
    regions = [vor.regions[r] for r in vor.point_region[:len(pts)]]
    groups = []
    for ids, ring in _ring_groups(regions):
        if (ring < 0).any():
            raise MeshError("unbounded Voronoi cell; generator outside (0,1)^2?")
        poly = vor.vertices[ring]
        clockwise = polygon_area(poly) < 0
        poly[clockwise] = poly[clockwise, ::-1]
        # snap coordinates that should sit on the square boundary
        poly = np.where(np.abs(poly) < _MERGE_TOL, 0.0, poly)
        poly = np.where(np.abs(poly - 1.0) < _MERGE_TOL, 1.0, poly)
        groups.append((ids, poly))
    return groups


def _clipped_voronoi_cells(points):
    """The cells of _voronoi_groups as a list of (m, 2) rings in point order."""
    polys = [None] * len(points)
    for ids, poly in _voronoi_groups(points):
        for i, p in zip(ids, poly):
            polys[i] = p
    return polys


def _mesh_from_polygons(polys):
    """Merge per-cell polygons into a shared-vertex mesh."""
    vmap = {}
    verts = []
    rings = []
    for poly in polys:
        ring = []
        for p in poly:
            key = (round(p[0] / _MERGE_TOL), round(p[1] / _MERGE_TOL))
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


def _triangular_lattice(nx, ny):
    i = np.arange(nx)
    pts = []
    for j in range(ny):
        x = (i + 0.25 + 0.5 * (j % 2)) / nx
        y = np.full(nx, (j + 0.5) / ny)
        pts.append(np.column_stack([x, y]))
    return np.vstack(pts)


def _lloyd(points, iterations):
    pts = points
    for _ in range(iterations):
        groups = _voronoi_groups(pts)
        pts = np.empty(pts.shape)
        for ids, poly in groups:
            pts[ids] = polygon_centroid(poly)
    return pts


def _hexagonal_mesh(level):
    if level not in _HEX_LEVELS:
        raise ValueError(f"hexagonal family supports levels {sorted(_HEX_LEVELS)}, got {level}")
    nx, ny = _HEX_LEVELS[level]
    polys = _clipped_voronoi_cells(_triangular_lattice(nx, ny))
    return build_mesh(*_mesh_from_polygons(polys), check_domain_area=1.0)


def _voronoi_mesh(level, rng_seed):
    if not 1 <= level <= 4:
        raise ValueError(f"voronoi family supports levels 1..4, got {level}")
    n = 64 * 4 ** (level - 1)
    rng = np.random.default_rng(rng_seed)
    seeds = rng.uniform(0.02, 0.98, size=(n, 2))
    seeds = _lloyd(seeds, LLOYD_ITERATIONS)
    polys = _clipped_voronoi_cells(seeds)
    return build_mesh(*_mesh_from_polygons(polys), check_domain_area=1.0)


def _random_polygons_mesh(level, rng_seed):
    if not 1 <= level <= 6:
        raise ValueError(f"random_polygons family supports levels 1..6, got {level}")
    n = 64 * 2 ** (level - 1)
    rng = np.random.default_rng(rng_seed)
    seeds = rng.uniform(0.03, 0.97, size=(n, 2))
    polys = _clipped_voronoi_cells(seeds)
    verts, rings = _mesh_from_polygons(polys)

    base = build_mesh(verts, rings, check_domain_area=1.0)
    # split every interior edge at a randomly offset midpoint
    offsets = rng.uniform(-0.2, 0.2, size=base.n_edges)
    split = np.flatnonzero(~base.boundary_edge_flags)
    pa, pb = base.vertices[base.edges[split, 0]], base.vertices[base.edges[split, 1]]
    d = pb - pa
    normal = np.column_stack([d[:, 1], -d[:, 0]])
    mids = 0.5 * (pa + pb)
    mid_index = np.full(base.n_edges, -1, dtype=np.int64)
    mid_index[split] = base.n_vertices + np.arange(len(split))
    new_verts = np.vstack([base.vertices, mids + offsets[split, None] * normal])

    def expand(ring, ce):
        out = []
        for i, v in enumerate(ring):
            out.append(v)
            m = mid_index[ce[i]]
            if m >= 0:
                out.append(m)
        return out

    new_rings = [expand(r, ce) for r, ce in zip(base.cells, base.cell_edges)]

    # damp offsets that break a centroid star-shaped fan
    groups = _ring_groups(new_rings)
    for _ in range(60):
        bad = np.zeros(len(new_verts), dtype=bool)
        for ids, ring in groups:
            poly = new_verts[ring]
            d = poly - polygon_centroid(poly)[:, None, :]
            cross = (d[..., 0] * np.roll(d[..., 1], -1, axis=-1)
                     - d[..., 1] * np.roll(d[..., 0], -1, axis=-1))
            bad[ring[np.min(cross, axis=-1) <= 1e-12]] = True
        damp = bad[mid_index[split]]
        if not damp.any():
            break
        moved = mid_index[split[damp]]
        new_verts[moved] = 0.5 * (new_verts[moved] + mids[damp])
    return build_mesh(new_verts, new_rings, check_domain_area=1.0)


def _diamond_mesh(level, aspect=4):
    if not 1 <= level <= 7:
        raise ValueError(f"diamond family supports levels 1..7, got {level}")
    nx = 2 ** level
    ny = aspect * nx
    w, hh = 1.0 / nx, 1.0 / ny
    polys = []
    for i in range(2 * nx + 1):
        for j in range(2 * ny + 1):
            if (i + j) % 2 == 0:
                continue
            cx, cy = i * w / 2.0, j * hh / 2.0
            diamond = np.array([[cx - w / 2, cy], [cx, cy - hh / 2],
                                [cx + w / 2, cy], [cx, cy + hh / 2]])
            clipped = _clip_to_unit_square(diamond)
            if clipped is not None:
                polys.append(clipped)
    return build_mesh(*_mesh_from_polygons(polys), check_domain_area=1.0)


def _clip_to_unit_square(poly):
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


def generate_mesh(family, level, rng_seed=0):
    """Generate one of the four built-in mesh families on (0,1)^2."""
    if family == "hexagonal":
        return _hexagonal_mesh(level)
    if family == "voronoi":
        return _voronoi_mesh(level, rng_seed)
    if family == "random_polygons":
        return _random_polygons_mesh(level, rng_seed)
    if family == "diamond":
        return _diamond_mesh(level)
    raise ValueError(f"unknown mesh family {family!r}; choose from {MESH_FAMILIES}")


# ---------------------------------------------------------------------------
# JSON import/export
# ---------------------------------------------------------------------------

def export_mesh(mesh, path):
    data = {"vertices": [[float(x), float(y)] for x, y in mesh.vertices],
            "cells": [[int(v) for v in ring] for ring in mesh.cells]}
    with open(path, "w") as f:
        json.dump(data, f)


def import_mesh(path):
    try:
        with open(path) as f:
            data = json.load(f)
        vertices = data["vertices"]
        cells = data["cells"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MeshError(f"cannot parse mesh file {path}: {exc}") from exc
    return build_mesh(vertices, cells)


# ---------------------------------------------------------------------------
# geometric validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryReport:
    """Per-cell shape diagnostics against the star-shapedness / edge-length thresholds."""

    star_ratio: np.ndarray       # inscribed-ball diameter / cell diameter
    min_distance_ratio: np.ndarray  # min vertex-pair distance / cell diameter
    areas: np.ndarray
    diameters: np.ndarray
    star_violations: np.ndarray
    distance_violations: np.ndarray

    @property
    def all_pass(self):
        return not (self.star_violations.any() or self.distance_violations.any())


def _distance_to_boundary(points, verts):
    """Distance from points (..., p, 2) to the sides of rings (..., m, 2)."""
    m = verts.shape[-2]
    px, py = points[..., 0], points[..., 1]
    dmin = np.full(px.shape, np.inf)
    for i in range(m):
        a = verts[..., i:i + 1, :]
        d = verts[..., (i + 1) % m, None, :] - a
        # a matmul, not x * dx + y * dy: BLAS rounds these dot products its
        # own way (with FMA), and it does so alike for one ring or a group
        dt = np.swapaxes(d, -1, -2)
        t = np.clip(((points - a) @ dt)[..., 0] / (d @ dt)[..., 0], 0.0, 1.0)
        ex = px - (a[..., 0] + t * d[..., 0])
        ey = py - (a[..., 1] + t * d[..., 1])
        dmin = np.minimum(dmin, np.sqrt(ex * ex + ey * ey))
    return dmin


def _fan_jacobians(verts, centers):
    """Twice the signed area of each fan triangle (c, v_i, v_{i+1}), for
    rings (..., m, 2) and centers (..., n_centers, 2): shape
    (..., n_centers, m)."""
    x, y = verts[..., None, :, 0], verts[..., None, :, 1]
    cx, cy = centers[..., :, None, 0], centers[..., :, None, 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    return (x - cx) * (yn - cy) - (y - cy) * (xn - cx)


def _kernel_samples(verts):
    """A 32 x 32 grid over each ring's bounding box, plus its centroid."""
    lo, hi = verts.min(axis=-2), verts.max(axis=-2)
    gx = np.linspace(lo[..., 0], hi[..., 0], 32, axis=-1)
    gy = np.linspace(lo[..., 1], hi[..., 1], 32, axis=-1)
    grid = np.stack([np.repeat(gx, 32, axis=-1), np.tile(gy, 32)], axis=-1)
    return np.concatenate([grid, polygon_centroid(verts)[..., None, :]], axis=-2)


def _star_ratio(verts):
    """Largest inscribed-ball diameter over diameter, ball center in the
    kernel, of rings (..., m, 2); 0 where no sample lies in the kernel.

    Kernel membership is sampled on _kernel_samples; a center must see
    every edge from its inner side.
    """
    pts = _kernel_samples(verts)
    kernel = (_fan_jacobians(verts, pts) >= 0).all(axis=-1)
    radii = np.where(kernel, _distance_to_boundary(pts, verts), -np.inf)
    return np.where(kernel.any(axis=-1),
                    2.0 * radii.max(axis=-1) / polygon_diameter(verts), 0.0)


# cells per batch in validate_geometry, bounding its (cells, samples, m)
# temporaries to a few MB
_VALIDATE_BATCH = 32


def validate_geometry(mesh, rho1=0.1, rho2=0.1):
    """Estimate the shape-regularity ratios of every cell.

    star_ratio reports the inscribed-ball diameter relative to the cell
    diameter (a sampled lower bound); min_distance_ratio the smallest
    vertex-pair distance relative to the cell diameter.  Violations of the
    thresholds are flagged, not fatal.
    """
    star = np.empty(mesh.n_cells)
    mind = np.empty(mesh.n_cells)
    for ids, ring in _ring_groups(mesh.cells):
        diag = np.arange(ring.shape[1])
        for s in range(0, len(ids), _VALIDATE_BATCH):
            cells = ids[s:s + _VALIDATE_BATCH]
            poly = mesh.vertices[ring[s:s + _VALIDATE_BATCH]]
            star[cells] = _star_ratio(poly)
            d = poly[:, :, None, :] - poly[:, None, :, :]
            dist = np.sqrt(np.sum(d * d, axis=-1))
            dist[:, diag, diag] = np.inf
            mind[cells] = dist.min(axis=(1, 2)) / mesh.cell_diameters[cells]
    return GeometryReport(
        star_ratio=star, min_distance_ratio=mind,
        areas=mesh.cell_areas.copy(), diameters=mesh.cell_diameters.copy(),
        star_violations=star < rho1, distance_violations=mind < rho2)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int


_TRIANGLE_RULES = {}


def triangle_rule(degree):
    """Rule on the reference triangle {x,y>=0, x+y<=1}, exact to degree.

    Collapsed-coordinate construction: Gauss-Jacobi(1,0) radially and
    Gauss-Legendre transversally absorb the Duffy Jacobian exactly.
    """
    if degree in _TRIANGLE_RULES:
        return _TRIANGLE_RULES[degree]
    from scipy.special import roots_jacobi, roots_legendre
    n = max(1, (degree + 2) // 2)
    xj, wj = roots_jacobi(n, 1.0, 0.0)   # weight (1-u) on [-1,1]
    xl, wl = roots_legendre(n)
    u = 0.5 * (xj + 1.0)
    v = 0.5 * (xl + 1.0)
    wu = wj * 0.25                        # 1/2 interval map, 1/2 jacobi weight scale
    wv = wl * 0.5
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    w = (WU * WV).ravel()
    rule = (np.column_stack([x, y]), w)
    _TRIANGLE_RULES[degree] = rule
    return rule


def polygon_quadrature(verts, exactness_degree):
    """Quadrature over a polygon by fanning triangles from a kernel point.

    The fan center is the centroid when every fan triangle has positive
    area there; otherwise the point of _kernel_samples whose smallest fan
    triangle is largest.  Raises ValueError when no sample lies strictly
    inside the kernel.
    """
    verts = np.asarray(verts, dtype=float)
    if exactness_degree < 0:
        raise ValueError("exactness_degree must be >= 0")
    ref_pts, ref_w = triangle_rule(exactness_degree)
    c = polygon_centroid(verts)
    jac = _fan_jacobians(verts, c[None, :])[0]
    if jac.min() <= 0:
        centers = _kernel_samples(verts)
        jacs = _fan_jacobians(verts, centers)
        best = np.argmax(jacs.min(axis=1))
        if jacs[best].min() <= 0:
            raise ValueError("polygon is not star-shaped: no sampled point "
                             "lies strictly inside its kernel")
        c, jac = centers[best], jacs[best]
    a = verts - c
    b = np.roll(verts, -1, axis=0) - c
    pts = (c + ref_pts[None, :, 0:1] * a[:, None, :]
           + ref_pts[None, :, 1:2] * b[:, None, :])
    return QuadratureRule(pts.reshape(-1, 2), (jac[:, None] * ref_w).ravel(),
                          exactness_degree)


_LEGENDRE_RULES = {}


def gauss_legendre_rule(exactness_degree):
    """Gauss-Legendre points and weights on [-1, 1], exact to the degree."""
    n = max(1, (exactness_degree + 2) // 2)
    if n not in _LEGENDRE_RULES:
        _LEGENDRE_RULES[n] = np.polynomial.legendre.leggauss(n)
    return _LEGENDRE_RULES[n]


def edge_quadrature(p0, p1, exactness_degree):
    """Gauss-Legendre rule along the segments p0 -> p1.

    p0 and p1 of shape (..., 2) give points (..., nq, 2) and weights
    (..., nq); a single segment gives (nq, 2) and (nq,).
    """
    x, w = gauss_legendre_rule(exactness_degree)
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    t = 0.5 * (x + 1.0)
    pts = p0[..., None, :] + t[:, None] * d[..., None, :]
    length = np.linalg.norm(d, axis=-1)
    return QuadratureRule(pts, 0.5 * w * length[..., None], exactness_degree)


_LOBATTO_CACHE = {}


def gauss_lobatto_points(n):
    """n Gauss-Lobatto points on [-1,1] (endpoints included), n >= 2."""
    if n in _LOBATTO_CACHE:
        return _LOBATTO_CACHE[n]
    if n < 2:
        raise ValueError("need at least 2 Lobatto points")
    if n == 2:
        pts = np.array([-1.0, 1.0])
    else:
        interior = np.polynomial.legendre.Legendre.basis(n - 1).deriv().roots()
        pts = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    _LOBATTO_CACHE[n] = pts
    return pts

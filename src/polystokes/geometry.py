"""Polygonal meshes on the unit square: generators, validation, quadrature.

Meshes are plain vertex/cell-ring containers with derived edge connectivity.
All generators are deterministic given their arguments; the voronoi and
random families draw from a seeded numpy Generator.  The Voronoi-based
families clip their cells to the square with mirror images of the
generators across its sides (_voronoi_cells); the Lloyd steps of the
voronoi family mirror only the generators whose cells reach a side.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Voronoi

__all__ = [
    "PolygonalMesh",
    "Rings",
    "GeometryReport",
    "QuadratureRule",
    "generate_mesh",
    "check_mesh_level",
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

# lattice sizes reproducing the hexagonal mesh sequence counts
# (level 1: 62 vertices / 91 edges / 30 cells, and so on)
_HEX_LEVELS = {1: (5, 6), 2: (10, 12), 3: (15, 18), 4: (20, 23), 5: (40, 46), 6: (80, 93)}

# the levels that generate_mesh supports for each family
MESH_LEVELS = {"hexagonal": range(1, len(_HEX_LEVELS) + 1),
               "voronoi": range(1, 5), "random_polygons": range(1, 7),
               "diamond": range(1, 8)}
MESH_FAMILIES = tuple(MESH_LEVELS)

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

def _size_groups(sizes):
    """Positions grouped by size: (size, positions) pairs, sizes ascending."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return [(m, np.flatnonzero(sizes == m)) for m in np.unique(sizes)]


def _first_appearance(rows):
    """Number distinct (n, 2) integer rows by first appearance: each row's
    number and each number's first row.  Rows are coded as one int64, below
    n_vertices² for ring sides and (1e9 + 1)² for rounded point keys."""
    rows = rows - rows.min(axis=0)
    codes = rows[:, 0] * (rows[:, 1].max() + 1) + rows[:, 1]
    _, first, inverse = np.unique(codes, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse.ravel()], first[order]


def _successors(a, axis=-1):
    """Each entry's successor along an axis, cyclically: the values of
    np.roll(a, -1, axis), from a slice and a concatenation."""
    head = (slice(None),) * (axis % a.ndim)
    return np.concatenate([a[head + (slice(1, None),)],
                           a[head + (slice(None, 1),)]], axis=axis)


def _shoelace(verts):
    """Ring coordinates, their successors and the shoelace cross terms."""
    x, y = verts[..., 0], verts[..., 1]
    xn, yn = _successors(x), _successors(y)
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

@dataclass(frozen=True, eq=False)
class Rings:
    """Index rings stored flat: ring c is values[offsets[c]:offsets[c+1]].

    ``groups`` holds the rings by vertex count, ascending: (ring ids,
    (g, m) values) pairs.  Rings.of builds one.  Its arrays are read-only,
    as a write through one ring would reach the array all rings share.
    ``rings[c]`` is a view of ring c, and iteration yields them in order.
    """

    values: np.ndarray
    offsets: np.ndarray
    groups: tuple = field(repr=False)

    @classmethod
    def of(cls, values, sizes):
        """The rings of the given vertex counts, back to back in values."""
        values = np.asarray(values, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        groups = tuple((ids, values[offsets[ids, None] + np.arange(m)])
                       for m, ids in _size_groups(sizes))
        for array in (values, offsets, *itertools.chain(*groups)):
            array.flags.writeable = False
        return cls(values, offsets, groups)

    @property
    def sizes(self):
        return np.diff(self.offsets)

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, c):
        # range checks c, counts a negative c from the end, and its
        # IndexError past the last ring ends iteration
        c = range(len(self))[c]
        return self.values[self.offsets[c]:self.offsets[c + 1]]


@dataclass(frozen=True)
class PolygonalMesh:
    """Planar polygonal subdivision with derived connectivity.

    ``cells`` are CCW vertex-index rings.  ``edges`` holds unique vertex
    pairs (lo, hi).  ``cell_edges[c][i]`` is the edge index of the ring
    segment from ``cells[c][i]`` to ``cells[c][i+1]``.
    """

    vertices: np.ndarray
    cells: Rings
    edges: np.ndarray
    cell_edges: Rings
    boundary_vertex_flags: np.ndarray
    boundary_edge_flags: np.ndarray
    h: float
    cell_areas: np.ndarray = field(repr=False)
    cell_centroids: np.ndarray = field(repr=False)   # (n_cells, 2)
    cell_diameters: np.ndarray = field(repr=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_cells(self):
        return len(self.cells)


def build_mesh(vertices, cells, check_domain_area=None):
    """Assemble a PolygonalMesh and enforce its invariants.

    check_domain_area: if given, total cell area must match it to 1e-12
    relative.
    """
    vertices, rings = _checked_input(vertices, cells)
    if len(rings) == 0:
        raise MeshError("mesh has no cells")

    n_k = len(rings)
    areas = np.zeros(n_k)
    diams = np.zeros(n_k)
    distinct = np.zeros(n_k, dtype=bool)
    simple = np.ones(n_k, dtype=bool)
    for ids, ring in rings.groups:
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
    centroids = np.empty((n_k, 2))
    for ids, ring in rings.groups:
        centroids[ids] = polygon_centroid(vertices[ring])

    starts = rings.values
    successor = np.arange(1, len(starts) + 1)
    successor[rings.offsets[1:] - 1] = rings.offsets[:-1]
    sides = np.sort(np.column_stack([starts, starts[successor]]), axis=1)
    side_edge, first = _first_appearance(sides)
    edges = sides[first]
    cell_edges = Rings.of(side_edge, rings.sizes)
    counts = np.bincount(side_edge)
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
        h=float(np.max(diams)), cell_areas=areas, cell_centroids=centroids,
        cell_diameters=diams)


def _checked_input(vertices, cells):
    """Vertices as a finite (n, 2) float array and cells, Rings or a
    sequence of rings, as Rings of indices in [0, n); raises MeshError on
    anything else, naming the first bad cell."""
    try:
        vertices = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"vertices are not an array of numbers: {exc}") from exc
    if vertices.ndim != 2 or vertices.shape[1] != 2 or not np.isfinite(vertices).all():
        raise MeshError("vertices must be a finite (n, 2) array, "
                        f"got shape {vertices.shape}")
    n = len(vertices)
    untyped = None   # the first cell that is not a ring of integer indices
    if isinstance(cells, Rings):
        rings = cells
    else:
        try:
            cells = list(cells)
        except TypeError as exc:
            raise MeshError(f"cells are not a sequence of rings: {exc}") from exc
        typed = []
        for cell in cells:
            try:
                ring = np.asarray(cell)
            except (TypeError, ValueError):
                ring = None
            if ring is None or ring.ndim != 1 or (ring.size and ring.dtype.kind not in "iu"):
                untyped = len(typed)
                break
            typed.append(ring.astype(np.int64, copy=False))
        rings = Rings.of(np.concatenate([np.empty(0, np.int64), *typed]),
                         [len(r) for r in typed])
    # an index out of range is reported for the first cell that has one,
    # even when a later cell is not integer indices
    outside = np.flatnonzero((rings.values < 0) | (rings.values >= n))
    if outside.size:
        ci = np.searchsorted(rings.offsets, outside[0], side="right") - 1
        raise MeshError(f"cell {ci}: vertex index out of range [0, {n})")
    if untyped is not None:
        raise MeshError(f"cell {untyped}: ring must be a sequence of integer "
                        "vertex indices")
    return vertices, rings


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _reflections(pts, mirror):
    """The generators reflected across x = 0, y = 0, x = 1 and y = 1, in
    that order: copy s holds the rows of pts whose mirror[:, s] is set."""
    copies = []
    for side in range(4):
        copy = pts[mirror[:, side]]
        axis = side % 2
        copy[:, axis] = -copy[:, axis] if side < 2 else 2.0 - copy[:, axis]
        copies.append(copy)
    return copies


def _cell_sides(flags, sizes):
    """(n, 4) booleans: whether any corner of cell c has flags[:, s] set,
    for corner flags (N, 4) per side (x = 0, y = 0, x = 1, y = 1) stacked
    cell by cell with the given corner counts."""
    corners, sides = np.nonzero(flags)
    cell_sides = np.zeros((len(sizes), 4), dtype=bool)
    cell_sides[np.repeat(np.arange(len(sizes)), sizes)[corners], sides] = True
    return cell_sides


def _voronoi_cells(points, mirror=None):
    """Voronoi cells of points in (0,1)^2, clipped exactly to the square.

    Qhull runs on the generators and their reflections across the sides:
    those across side s (x = 0, y = 0, x = 1, y = 1) of the generators
    whose (n, 4) boolean mirror[:, s] is set, all of them by default.  The
    reflection of a generator across a side bounds its cell by that side.
    Inside the square the reflection of a generator q is never closer than
    q itself, so the reflections cut no cell there: a cell that lies inside
    the square is exactly its clipped cell, whichever generators are
    reflected.  A cell that is unbounded, or reaches past a side its
    generator is not reflected across, gets the missing reflections (all
    of them when unbounded) and Qhull runs again, so the cells are exact
    for any mask.  A cell still unbounded with all four raises MeshError.

    Returns the corners of the CCW cells, stacked as (N, 2) coordinates in
    point order, and the Rings of their positions in that stack.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    mirror = (np.ones((n, 4), dtype=bool) if mirror is None
              else np.array(mirror, dtype=bool))
    while True:
        vor = Voronoi(np.vstack([pts, *_reflections(pts, mirror)]))
        regions = [vor.regions[r] for r in vor.point_region[:n]]
        sizes = [len(r) for r in regions]
        region_vertices = np.fromiter(itertools.chain.from_iterable(regions),
                                      np.int64)
        corners = vor.vertices[region_vertices]
        # an unbounded cell's -1 entries lie past all four sides
        past = np.concatenate([corners < 0.0, corners > 1.0], axis=1)
        past[region_vertices < 0] = True
        missing = _cell_sides(past, sizes) & ~mirror
        if not missing.any():
            break
        mirror |= missing
    if (region_vertices < 0).any():
        raise MeshError("unbounded Voronoi cell; generator outside (0,1)^2?")
    cells = Rings.of(np.arange(len(corners)), sizes)
    for _, at in cells.groups:
        poly = corners[at]
        clockwise = polygon_area(poly) < 0
        corners[at[clockwise]] = poly[clockwise, ::-1]
    # snap coordinates that should sit on the square boundary
    corners = np.where(np.abs(corners) < _MERGE_TOL, 0.0, corners)
    corners = np.where(np.abs(corners - 1.0) < _MERGE_TOL, 1.0, corners)
    return corners, cells


def _mesh_from_polygons(points, sizes):
    """Merge polygons, their corners stacked as (N, 2) points with the
    given vertex counts, into a shared-vertex mesh: (vertices, Rings).

    Points whose coordinates round to the same multiples of _MERGE_TOL
    share the vertex of the first of them, at its coordinates.  Points
    closer than _MERGE_TOL that round apart stay separate vertices.
    """
    keys = np.rint(points / _MERGE_TOL).astype(np.int64)
    ids, first = _first_appearance(keys)
    return points[first], Rings.of(ids, sizes)


def _triangular_lattice(nx, ny):
    i = np.arange(nx)
    pts = []
    for j in range(ny):
        x = (i + 0.25 + 0.5 * (j % 2)) / nx
        y = np.full(nx, (j + 0.5) / ny)
        pts.append(np.column_stack([x, y]))
    return np.vstack(pts)


def _lloyd(points, iterations):
    """Lloyd steps: each generator moves to the centroid of its clipped
    Voronoi cell.  A step reflects a generator only across the sides its
    cell touched in the step before (all four in the first step), and
    _voronoi_cells adds the reflections a moved cell turns out to need."""
    pts = points
    mirror = np.ones((len(pts), 4), dtype=bool)
    for _ in range(iterations):
        corners, cells = _voronoi_cells(pts, mirror)
        pts = np.empty(pts.shape)
        for ids, at in cells.groups:
            pts[ids] = polygon_centroid(corners[at])
        # corners on a side were snapped onto it exactly
        mirror = _cell_sides(np.concatenate([corners == 0.0, corners == 1.0],
                                            axis=1), cells.sizes)
    return pts


def _hexagonal_mesh(level):
    nx, ny = _HEX_LEVELS[level]
    corners, cells = _voronoi_cells(_triangular_lattice(nx, ny))
    return build_mesh(*_mesh_from_polygons(corners, cells.sizes),
                      check_domain_area=1.0)


def _voronoi_mesh(level, rng_seed):
    n = 64 * 4 ** (level - 1)
    rng = np.random.default_rng(rng_seed)
    seeds = rng.uniform(0.02, 0.98, size=(n, 2))
    corners, cells = _voronoi_cells(_lloyd(seeds, LLOYD_ITERATIONS))
    return build_mesh(*_mesh_from_polygons(corners, cells.sizes),
                      check_domain_area=1.0)


def _random_polygons_mesh(level, rng_seed):
    n = 64 * 2 ** (level - 1)
    rng = np.random.default_rng(rng_seed)
    seeds = rng.uniform(0.03, 0.97, size=(n, 2))
    corners, cells = _voronoi_cells(seeds)
    base = build_mesh(*_mesh_from_polygons(corners, cells.sizes),
                      check_domain_area=1.0)
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

    # each ring vertex, then the midpoint of the side it starts if split
    both = np.column_stack([base.cells.values,
                            mid_index[base.cell_edges.values]]).ravel()
    kept = both >= 0
    # ring c's entries of both end at 2 offsets[c+1]
    ends = np.cumsum(kept)[2 * base.cells.offsets[1:] - 1]
    new_rings = Rings.of(both[kept], np.diff(ends, prepend=0))

    # damp offsets that break a centroid star-shaped fan
    for _ in range(60):
        bad = np.zeros(len(new_verts), dtype=bool)
        for ids, ring in new_rings.groups:
            poly = new_verts[ring]
            jac = _fan_jacobians(poly, polygon_centroid(poly)[:, None, :])
            bad[ring[jac.min(axis=(1, 2)) <= 1e-12]] = True
        damp = bad[mid_index[split]]
        if not damp.any():
            break
        moved = mid_index[split[damp]]
        new_verts[moved] = 0.5 * (new_verts[moved] + mids[damp])
    return build_mesh(new_verts, new_rings, check_domain_area=1.0)


def _diamond_mesh(level):
    """Diamonds centred at the half-grid points (i, j), i + j odd, of an
    nx x 4nx grid; the corners of the cells on the sides lie outside the
    square and are dropped, which leaves triangles."""
    nx = 2 ** level
    ny = 4 * nx
    w, hh = 1.0 / nx, 1.0 / ny
    i, j = np.divmod(np.arange((2 * nx + 1) * (2 * ny + 1)), 2 * ny + 1)
    odd = (i + j) % 2 == 1
    cx, cy = i[odd] * w / 2.0, j[odd] * hh / 2.0
    corners = np.stack([np.column_stack([cx - w / 2, cy]),    # left
                        np.column_stack([cx, cy - hh / 2]),   # bottom
                        np.column_stack([cx + w / 2, cy]),    # right
                        np.column_stack([cx, cy + hh / 2])],  # top
                       axis=1)
    inside = ((corners >= 0.0) & (corners <= 1.0)).all(axis=-1)
    return build_mesh(*_mesh_from_polygons(corners[inside], inside.sum(axis=1)),
                      check_domain_area=1.0)


def check_mesh_level(family, level):
    """Raise ValueError unless family is one of MESH_FAMILIES and level one
    of its MESH_LEVELS."""
    if family not in MESH_LEVELS:
        raise ValueError(f"unknown mesh family {family!r}; choose from "
                         f"{', '.join(MESH_FAMILIES)}")
    levels = MESH_LEVELS[family]
    if level not in levels:
        raise ValueError(f"{family} family supports levels {levels[0]}.."
                         f"{levels[-1]}, got {level}")


def generate_mesh(family, level, rng_seed=0):
    """Generate a MESH_FAMILIES mesh on (0,1)^2 at one of its MESH_LEVELS."""
    check_mesh_level(family, level)
    if family == "hexagonal":
        return _hexagonal_mesh(level)
    if family == "voronoi":
        return _voronoi_mesh(level, rng_seed)
    if family == "random_polygons":
        return _random_polygons_mesh(level, rng_seed)
    return _diamond_mesh(level)


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

# a cell whose star ratio, or minimum distance ratio, lies below its
# threshold violates the shape-regularity assumptions
STAR_RATIO_MIN = 0.1
DISTANCE_RATIO_MIN = 0.1


@dataclass(frozen=True)
class GeometryReport:
    """Per-cell shape diagnostics against STAR_RATIO_MIN and
    DISTANCE_RATIO_MIN.  The kernel ball is the largest ball inside the
    cell's kernel, the points that see the whole cell."""

    star_ratio: np.ndarray       # kernel-ball diameter / cell diameter
    min_distance_ratio: np.ndarray  # min vertex-pair distance / cell diameter

    @property
    def star_violations(self):
        return self.star_ratio < STAR_RATIO_MIN

    @property
    def distance_violations(self):
        return self.min_distance_ratio < DISTANCE_RATIO_MIN


def _fan_jacobians(verts, centers):
    """Twice the signed area of each fan triangle (c, v_i, v_{i+1}), for
    rings (..., m, 2) and centers (..., n_centers, 2): shape
    (..., n_centers, m)."""
    x, y = verts[..., None, :, 0], verts[..., None, :, 1]
    cx, cy = centers[..., :, None, 0], centers[..., :, None, 1]
    xn, yn = _successors(x), _successors(y)
    return (x - cx) * (yn - cy) - (y - cy) * (xn - cx)


# (cell, side triple) pairs times vertex count per chunk of _side_triples,
# which bounds each temporary to a few MB whatever the cells
_CHUNK = 1 << 18
# relative to the cell diameter: a kernel ball no wider than this is empty
_KERNEL_TOL = 1e-12


def _sides(verts):
    """Unit outer normals n (g, m, 2) and offsets b (g, m) of the sides of
    rings (g, m, 2), whose kernels are n_i.x <= b_i; b is taken from each
    ring's first vertex, on the scale of the cell, not its place."""
    local = verts - verts[:, :1]
    d = _successors(local, axis=1) - local
    n = np.stack([d[..., 1], -d[..., 0]], axis=-1) / np.hypot(
        d[..., 0], d[..., 1])[..., None]
    return n, n[..., 0] * local[..., 0] + n[..., 1] * local[..., 1]


def _side_triples(n, b):
    """The (ring, side triple) pairs of sides n (g, m, 2), b (g, m) whose
    weights y ~ (n_j x n_k, n_k x n_i, n_i x n_j) have one sign, in chunks:
    rings (q,), normals (q, 3, 2), offsets (q, 3) and weights (q, 3).  They
    are the vertices of the dual of the kernel's Chebyshev-ball LP, max r
    subject to n_i.x + r <= b_i, and b.y is the dual value of each."""
    g, m = b.shape
    # triple t is (i, j, j + 1 + t - first[p]) for the pair p = (i, j) that
    # it extends, and there are first[-1] triples
    i, j = np.triu_indices(m, 1)
    first = np.cumsum(m - 1 - j) - (m - 1 - j)
    total, step = g * first[-1], max(1, _CHUNK // m)
    for start in range(0, total, step):
        cells, t = np.divmod(np.arange(start, min(start + step, total)),
                             first[-1])
        p = np.searchsorted(first, t, side="right") - 1
        sides = np.stack([i[p], j[p], j[p] + 1 + t - first[p]], axis=1)
        nt, bt = n[cells[:, None], sides], b[cells[:, None], sides]
        # each side's weight is the cross of the next two, cyclically
        nj, nk = nt[:, [1, 2, 0]], nt[:, [2, 0, 1]]
        w = nj[..., 0] * nk[..., 1] - nj[..., 1] * nk[..., 0]
        one_sign = (((w >= 0).all(axis=1) | (w <= 0).all(axis=1))
                    & (w.sum(axis=1) != 0))
        yield cells[one_sign], nt[one_sign], bt[one_sign], w[one_sign]


def _kernel_radii(verts):
    """Radii (g,) of the largest balls inside the kernels of rings
    (g, m, 2), r <= 0 where the kernel is empty: by LP duality, the least
    dual value b.y over the one-sign side triples."""
    r = np.full(len(verts), np.inf)
    for cells, _, bt, w in _side_triples(*_sides(verts)):
        np.minimum.at(r, cells, (bt * w).sum(axis=1) / w.sum(axis=1))
    return r


def _kernel_centre(verts):
    """The centre (2,) of the largest ball inside the kernel of one ring
    (m, 2), and its clearance min_i (b_i - n_i.x), which is the ball's
    radius: of the points at equal distance from the three sides of a
    one-sign triple, the one farthest inside every side."""
    n, b = _sides(verts[None])
    centre, clearance = np.zeros(2), -np.inf
    for _, nt, bt, w in _side_triples(n, b):
        # the point solves (n_i - n_k).x = b_i - b_k and
        # (n_j - n_k).x = b_j - b_k, whose determinant is the weights' sum
        e, f = nt[:, :2] - nt[:, 2:], bt[:, :2] - bt[:, 2:]
        x = np.stack([f[:, 0] * e[:, 1, 1] - f[:, 1] * e[:, 0, 1],
                      e[:, 0, 0] * f[:, 1] - e[:, 1, 0] * f[:, 0]], axis=1)
        x /= w.sum(axis=1)[:, None]
        clear = (b - n[..., 0] * x[:, :1] - n[..., 1] * x[:, 1:]).min(axis=1)
        if clear.size and clear.max() > clearance:
            best = np.argmax(clear)
            centre, clearance = x[best], clear[best]
    return centre + verts[0], clearance


def validate_geometry(mesh):
    """The shape-regularity ratios of every cell.

    star_ratio is the diameter of the largest ball inside the cell's kernel
    (the points that see the whole cell) relative to the cell diameter, 0
    where the kernel is empty; min_distance_ratio the smallest vertex-pair
    distance relative to the cell diameter.  The report flags cells below
    STAR_RATIO_MIN or DISTANCE_RATIO_MIN; they are not fatal.
    """
    star = np.empty(mesh.n_cells)
    mind = np.empty(mesh.n_cells)
    for ids, ring in mesh.cells.groups:
        poly, diameters = mesh.vertices[ring], mesh.cell_diameters[ids]
        star[ids] = np.maximum(2.0 * _kernel_radii(poly) / diameters, 0.0)
        i, j = np.triu_indices(ring.shape[1], 1)
        d = poly[:, i] - poly[:, j]
        mind[ids] = np.sqrt(np.sum(d * d, axis=-1)).min(axis=1) / diameters
    return GeometryReport(star_ratio=star, min_distance_ratio=mind)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int


@functools.cache
def triangle_rule(degree):
    """Rule on the reference triangle {x,y>=0, x+y<=1}, exact to degree,
    as read-only points and weights shared by every caller.

    Collapsed-coordinate construction: Gauss-Jacobi(1,0) radially and
    Gauss-Legendre transversally absorb the Duffy Jacobian exactly.
    """
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
    pts = np.column_stack([x, y])
    pts.flags.writeable = w.flags.writeable = False
    return pts, w


def polygon_quadrature(verts, exactness_degree, centre):
    """Quadrature over a polygon by fanning triangles from a kernel point.

    The fan centre is the given centre (2,) when every fan triangle has
    positive area there; otherwise the centre of the largest ball inside
    the kernel (the points that see the whole polygon).  Raises ValueError
    for a clockwise or degenerate ring, and when that ball's radius is at
    most _KERNEL_TOL times the diameter.
    """
    verts = np.asarray(verts, dtype=float)
    if exactness_degree < 0:
        raise ValueError("exactness_degree must be >= 0")
    ref_pts, ref_w = triangle_rule(exactness_degree)
    jac = _fan_jacobians(verts, centre[None, :])[0]
    if jac.min() <= 0:
        # a clockwise ring's sides face inwards: its kernel would read as empty
        area = polygon_area(verts)
        if area <= 0:
            raise ValueError(f"ring is clockwise or degenerate (area {area:g})")
        centre, r = _kernel_centre(verts)
        if r <= _KERNEL_TOL * polygon_diameter(verts):
            raise ValueError("polygon is not star-shaped: the largest ball "
                             f"in its kernel has radius {r:.3g}")
        jac = _fan_jacobians(verts, centre[None, :])[0]
    a = verts - centre
    b = _successors(verts, axis=0) - centre
    pts = (centre + ref_pts[None, :, 0:1] * a[:, None, :]
           + ref_pts[None, :, 1:2] * b[:, None, :])
    return QuadratureRule(pts.reshape(-1, 2), (jac[:, None] * ref_w).ravel(),
                          exactness_degree)


@functools.cache
def gauss_legendre_rule(exactness_degree):
    """Gauss-Legendre points and weights on [-1, 1], exact to the degree,
    read-only and shared by every caller."""
    x, w = np.polynomial.legendre.leggauss(max(1, (exactness_degree + 2) // 2))
    x.flags.writeable = w.flags.writeable = False
    return x, w


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


@functools.cache
def gauss_lobatto_points(n):
    """n Gauss-Lobatto points on [-1,1] (endpoints included), n >= 2,
    read-only and shared by every caller."""
    if n < 2:
        raise ValueError("need at least 2 Lobatto points")
    if n == 2:
        pts = np.array([-1.0, 1.0])
    else:
        interior = np.polynomial.legendre.Legendre.basis(n - 1).deriv().roots()
        pts = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    pts.flags.writeable = False
    return pts

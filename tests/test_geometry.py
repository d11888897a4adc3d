"""Mesh generators, validation, and quadrature."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import Voronoi

from polystokes import geometry as geo
import oracles
from oracles import monomial_integral
from test_assembly import COMB
from test_vemspace import star_polygons

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([[0.0, 0.0], [0.7, 0.1], [1.1, 0.6], [0.5, 1.2],
                     [-0.2, 0.7]])


# ---------------------------------------------------------------------------
# polygon primitives
# ---------------------------------------------------------------------------

def test_polygon_area_square():
    assert geo.polygon_area(UNIT_SQUARE) == pytest.approx(1.0)


def test_polygon_centroid_square():
    assert geo.polygon_centroid(UNIT_SQUARE) == pytest.approx([0.5, 0.5])


def test_polygon_diameter_square():
    assert geo.polygon_diameter(UNIT_SQUARE) == pytest.approx(np.sqrt(2.0))


def test_polygon_area_matches_oracle_pentagon():
    assert geo.polygon_area(PENTAGON) == pytest.approx(
        monomial_integral(PENTAGON, 0, 0), rel=1e-13)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", [1, 2, 4, 7, 10])
@pytest.mark.parametrize("verts", [UNIT_SQUARE, PENTAGON], ids=["square", "pentagon"])
def test_polygon_quadrature_exact_on_monomials(verts, degree):
    rule = geo.polygon_quadrature(verts, degree, geo.polygon_centroid(verts))
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(rule.weights * rule.points[:, 0] ** a
                         * rule.points[:, 1] ** b)
            want = monomial_integral(verts, a, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_polygon_quadrature_positive_weights():
    rule = geo.polygon_quadrature(PENTAGON, 8, geo.polygon_centroid(PENTAGON))
    assert np.all(rule.weights > 0)


def test_polygon_quadrature_rejects_nonstar_fan():
    # centroid of this "pac-man as seen by its own centroid" ring falls
    # outside one of the fan triangles
    verts = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 3], [4, 3],
                      [4, 4], [0, 4.0]])
    with pytest.raises(ValueError):
        geo.polygon_quadrature(verts, 2, geo.polygon_centroid(verts))


@pytest.mark.parametrize("verts", [UNIT_SQUARE, PENTAGON],
                         ids=["square", "pentagon"])
def test_polygon_quadrature_refuses_clockwise_ring(verts):
    # a clockwise ring was called not star-shaped, its kernel radius the
    # negative of the inscribed ball's
    cw = verts[::-1]
    area = geo.polygon_area(cw)
    assert area < 0
    with pytest.raises(ValueError) as exc:
        geo.polygon_quadrature(cw, 2, geo.polygon_centroid(cw))
    assert str(exc.value) == f"ring is clockwise or degenerate (area {area:g})"


# An L-shaped cell whose centroid lies outside its kernel: the centroid fan
# has a triangle of negative area, yet the validator accepts the cell.
L_CELL = np.array([[0, 0], [3, 0], [3, 0.6], [1, 0.6], [1, 1.6], [0, 1.6]])


def _assert_quadrature_exact(verts, degree):
    rule = geo.polygon_quadrature(verts, degree, geo.polygon_centroid(verts))
    assert np.all(rule.weights > 0)
    for d in range(degree + 1):
        for a in range(d + 1):
            b = d - a
            got = np.sum(rule.weights * rule.points[:, 0] ** a
                         * rule.points[:, 1] ** b)
            want = monomial_integral(verts, a, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_polygon_quadrature_star_cell_off_centroid_kernel():
    rep = geo.validate_geometry(geo.build_mesh(L_CELL, [np.arange(6)]))
    assert not rep.star_violations.any() and not rep.distance_violations.any()
    _assert_quadrature_exact(L_CELL, 8)


# An hourglass whose kernel is a sliver about (1.5, 0.5) between its two
# reflex corners: its centroid (0.832, 0.5) lies outside the kernel, and a
# 32 x 32 grid over its bounding box has no point inside it.
HOURGLASS = np.array([[-2, -1], [3, 0], [1.52, 0.5], [3, 1], [-2, 2],
                      [1.48, 0.5]])


def test_polygon_quadrature_thin_kernel():
    rep = geo.validate_geometry(geo.build_mesh(HOURGLASS, [np.arange(6)]))
    assert rep.star_ratio[0] == pytest.approx(0.0026290, abs=5e-8)
    _assert_quadrature_exact(HOURGLASS, 8)


def _assert_kernel_ball(verts):
    verts = np.asarray(verts, dtype=float)
    diameter = geo.polygon_diameter(verts)
    centre, r = geo._kernel_centre(verts)[0], geo._kernel_radii(verts[None])
    d = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / np.linalg.norm(
        d, axis=1)[:, None]
    clearance = np.min(np.sum(normals * (verts - centre), axis=1))
    # the clearance of the centre is r to 1e-12 of the diameter
    assert abs(clearance - r[0]) <= 1e-12 * diameter
    assert geo._fan_jacobians(verts, centre[None]).min() > 0


@given(star_polygons())
@settings(max_examples=50, deadline=None)
def test_kernel_ball_centre_sees_every_side(verts):
    _assert_kernel_ball(verts)


@pytest.mark.parametrize("verts", [L_CELL, HOURGLASS],
                         ids=["l_cell", "hourglass"])
def test_kernel_ball_centre_in_a_kernel_off_the_centroid(verts):
    _assert_kernel_ball(verts)


def _assert_chunks_change_nothing(rings):
    """The kernel routines on rings (g, m, 2) give the same radii, bit for
    bit, when every chunk holds a few (ring, triple) pairs: 40 // 6 = 6 of
    them for 6-gons, so a chunk straddles two rings of 20 triples each."""
    rings = np.asarray(rings, dtype=float)
    want = geo._kernel_radii(rings)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "_CHUNK", 40)
        got = geo._kernel_radii(rings)
        assert np.array_equal(got, want)
        assert got.tolist() == [oracles.kernel_ball_radius(v) for v in rings]
        for verts, r in zip(rings, got):
            if r > 0:
                _assert_kernel_ball(verts)
            else:
                with pytest.raises(ValueError, match="not star-shaped"):
                    geo.polygon_quadrature(verts, 2,
                                           geo.polygon_centroid(verts))


@pytest.mark.parametrize("rings", [[L_CELL, HOURGLASS], [COMB]],
                         ids=["l_cell+hourglass", "comb"])
def test_kernel_routines_across_chunk_boundaries(rings):
    _assert_chunks_change_nothing(rings)


@given(star_polygons())
@settings(max_examples=30, deadline=None)
def test_kernel_routines_across_chunk_boundaries_on_star_polygons(verts):
    # the ring and the same ring numbered from its second vertex
    _assert_chunks_change_nothing([verts, np.roll(verts, 1, axis=0)])


@pytest.mark.parametrize("degree", [1, 3, 6, 9])
def test_edge_quadrature_exact(degree):
    p0, p1 = np.array([0.2, -0.3]), np.array([1.1, 0.8])
    rule = geo.edge_quadrature(p0, p1, degree)
    length = np.linalg.norm(p1 - p0)
    for d in range(degree + 1):
        # integrate the affine parameter t^d along the edge
        t = ((rule.points - p0) @ (p1 - p0)) / length ** 2
        got = np.sum(rule.weights * t ** d)
        assert got == pytest.approx(length / (d + 1), rel=1e-13)


def test_triangle_rule_reference_area_and_moments():
    pts, w = geo.triangle_rule(5)
    assert np.sum(w) == pytest.approx(0.5, rel=1e-13)
    # int x^2 y over the reference triangle = 1/60
    got = np.sum(w * pts[:, 0] ** 2 * pts[:, 1])
    assert got == pytest.approx(1.0 / 60.0, rel=1e-13)


def test_gauss_lobatto_points():
    assert geo.gauss_lobatto_points(2) == pytest.approx([-1.0, 1.0])
    assert geo.gauss_lobatto_points(3) == pytest.approx([-1.0, 0.0, 1.0])
    pts4 = geo.gauss_lobatto_points(4)
    assert pts4 == pytest.approx([-1.0, -1 / np.sqrt(5), 1 / np.sqrt(5), 1.0])


def test_cached_rules_are_read_only():
    # every caller gets the same arrays, so none may write into them
    for arrays in (geo.triangle_rule(5), geo.gauss_legendre_rule(5),
                   (geo.gauss_lobatto_points(3),)):
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[1] = 0.5
    assert geo.gauss_lobatto_points(3)[1] == 0.0


# ---------------------------------------------------------------------------
# mesh construction and invariants
# ---------------------------------------------------------------------------

def _single_square_mesh():
    return geo.build_mesh(UNIT_SQUARE, [[0, 1, 2, 3]])


def test_build_mesh_single_square():
    mesh = _single_square_mesh()
    assert mesh.n_vertices == 4
    assert mesh.n_edges == 4
    assert len(mesh.cells) == 1
    assert mesh.cell_areas[0] == pytest.approx(1.0)
    assert np.all(mesh.boundary_vertex_flags)
    assert np.all(mesh.boundary_edge_flags)


def test_build_mesh_rejects_clockwise_ring():
    with pytest.raises(geo.MeshError):
        geo.build_mesh(UNIT_SQUARE, [[3, 2, 1, 0]])


def test_build_mesh_rejects_self_intersection():
    verts = np.array([[0, 0], [1, 0], [0, 1], [1, 1.0]])
    with pytest.raises(geo.MeshError):
        geo.build_mesh(verts, [[0, 1, 2, 3]])


def test_build_mesh_rejects_bad_area():
    with pytest.raises(geo.MeshError):
        geo.build_mesh(UNIT_SQUARE, [[0, 1, 2, 3]], check_domain_area=2.0)


def test_build_mesh_rejects_no_cells():
    with pytest.raises(geo.MeshError, match="no cells"):
        geo.build_mesh([[0, 0]], [])


def test_mesh_from_polygons_merges_first_copies():
    # the right square's corners at x = 1 sit 1e-12 off the left square's:
    # they take the left square's vertices, numbered where they first
    # appeared and placed at its coordinates
    left = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
    right = np.array([[2, 0], [2, 1], [1, 1 + 1e-12], [1 - 1e-12, 0]])
    verts, rings = geo._mesh_from_polygons(np.vstack([left, right]), [4, 4])
    assert np.array_equal(verts, np.vstack([left, [[2, 0], [2, 1.0]]]))
    assert [list(r) for r in rings] == [[0, 1, 2, 3], [4, 5, 2, 1]]
    # 1e-6 apart is beyond the merge tolerance: every point is its own vertex
    verts, rings = geo._mesh_from_polygons(
        np.vstack([left, right + [1e-6, 0.0]]), [4, 4])
    assert len(verts) == 8
    assert [list(r) for r in rings] == [[0, 1, 2, 3], [4, 5, 6, 7]]


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=40),
       st.sampled_from([1, 10 ** 9]))
@settings(max_examples=60, deadline=None)
def test_first_appearance_equals_row_unique(pairs, scale):
    # the one-int64 encoding numbers rows as the row-wise np.unique does,
    # also for negative entries and rounded unit-square keys near 1e9
    rows = np.array(pairs, dtype=np.int64) * scale
    got = geo._first_appearance(rows)
    want = oracles.first_appearance(rows)
    assert all(np.array_equal(g, w) and g.dtype == w.dtype
               for g, w in zip(got, want))


TWO_SQUARES = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1.0]])


@pytest.mark.parametrize("ring", [[1, 2, 3, -1], [1, 2, 3.7, 4], [1, 2, 3, 7],
                                  ["1", "2", "3", "4"], [[1, 2], [3, 4]]],
                         ids=["negative", "fractional", "beyond", "string",
                              "nested"])
def test_build_mesh_rejects_bad_ring_index(ring):
    with pytest.raises(geo.MeshError, match="cell 1:"):
        geo.build_mesh(TWO_SQUARES, [[0, 1, 4, 5], ring])


@pytest.mark.parametrize("vertices", [
    np.column_stack([UNIT_SQUARE, np.zeros(4)]), UNIT_SQUARE[:, :1],
    UNIT_SQUARE.ravel(), np.where(UNIT_SQUARE == 1.0, np.nan, UNIT_SQUARE),
    np.where(UNIT_SQUARE == 1.0, np.inf, UNIT_SQUARE), [[0, 0], [1, "a"]]],
    ids=["3-columns", "1-column", "flat", "nan", "inf", "text"])
def test_build_mesh_rejects_bad_vertices(vertices):
    with pytest.raises(geo.MeshError, match="vertices"):
        geo.build_mesh(vertices, [[0, 1, 2, 3]])


@pytest.mark.parametrize("last", [[1, 2, 3, -1], [1.5, 2, 3, 4]],
                         ids=["out-of-range", "fractional"])
def test_build_mesh_names_the_first_bad_cell(last):
    # cells of 4, 3 and 4 vertices: the first bad cell is found across the
    # vertex-count groups, and before a later cell that is not integers
    with pytest.raises(geo.MeshError,
                       match=r"^cell 1: vertex index out of range \[0, 6\)$"):
        geo.build_mesh(TWO_SQUARES, [[0, 1, 4, 5], [1, 2, 9], last])


@pytest.mark.parametrize("name", ["cells", "cell_edges"])
def test_mesh_rings_are_read_only(name):
    # every ring is a view of one flat array shared by all rings
    rings = getattr(geo.generate_mesh("hexagonal", 1), name)
    with pytest.raises(ValueError, match="read-only"):
        rings[3][0] = 0
    with pytest.raises(ValueError, match="read-only"):
        rings.values[0] = 0


def test_import_mesh_rejects_bad_index(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"vertices": UNIT_SQUARE.tolist(),
                                "cells": [[0, 1, 2, -1]]}))
    with pytest.raises(geo.MeshError, match="cell 0:"):
        geo.import_mesh(path)


@pytest.mark.parametrize("family", geo.MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2])
def test_generated_mesh_invariants(family, level):
    mesh = geo.generate_mesh(family, level)
    # Euler characteristic of a planar subdivision of a disk
    assert mesh.n_vertices - mesh.n_edges + len(mesh.cells) == 1
    assert np.sum(mesh.cell_areas) == pytest.approx(1.0, rel=1e-9)
    assert np.all(mesh.cell_areas > 0)
    # covers the unit square
    assert mesh.vertices.min() == pytest.approx(0.0, abs=1e-12)
    assert mesh.vertices.max() == pytest.approx(1.0, abs=1e-12)


def test_hexagonal_level_counts():
    expected = {1: (62, 91, 30), 2: (242, 361, 120), 3: (542, 811, 270)}
    for level, (nv, ne, nc) in expected.items():
        mesh = geo.generate_mesh("hexagonal", level)
        assert (mesh.n_vertices, mesh.n_edges, len(mesh.cells)) == (nv, ne, nc)


def test_mesh_h_decreases_with_level():
    for family in geo.MESH_FAMILIES:
        h = [geo.generate_mesh(family, lvl).h for lvl in (1, 2, 3)]
        assert h[0] > h[1] > h[2]


def _assert_meshes_equal(mesh, ref):
    for name in ("vertices", "edges", "boundary_vertex_flags",
                 "boundary_edge_flags", "cell_areas", "cell_centroids",
                 "cell_diameters"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mesh.h == ref.h
    for name in ("cells", "cell_edges"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert len(got) == len(want)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(got, want)), name


# The library's Lloyd steps reflect only the generators at the sides, the
# oracle's all of them, so voronoi meshes are the same meshes up to
# rounding and vertex numbering: equal counts, the same cells as corner
# sets, and coordinates within this bound.
LLOYD_MATCH_TOL = 1e-9


@pytest.mark.parametrize("family", geo.MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2])
def test_generated_mesh_equals_per_cell_loops(family, level):
    mesh = geo.generate_mesh(family, level)
    ref = oracles.generate_mesh(family, level)
    if family == "voronoi":
        assert oracles.matched_vertex_distance(mesh, ref) <= LLOYD_MATCH_TOL
    else:
        _assert_meshes_equal(mesh, ref)


@pytest.mark.parametrize("seed", [0, 9])
def test_lloyd_equals_per_cell_loop(seed):
    points = np.random.default_rng(seed).uniform(0.02, 0.98, size=(64, 2))
    got = geo._lloyd(points, geo.LLOYD_ITERATIONS)
    assert geo.LLOYD_ITERATIONS == 100
    want = oracles.lloyd(points, 100)
    assert np.abs(got - want).max() <= LLOYD_MATCH_TOL
    corners, cells = geo._voronoi_cells(got)
    mesh = geo.build_mesh(*geo._mesh_from_polygons(corners, cells.sizes))
    ref = oracles.build_mesh(*oracles.mesh_from_polygons(
        oracles.clipped_voronoi_cells(want)))
    assert oracles.matched_vertex_distance(mesh, ref) <= LLOYD_MATCH_TOL


def _generators_at_the_sides(seed):
    """Uniform points in (0,1)^2 and points within 1e-6 of a side or a
    corner of the square."""
    rng = np.random.default_rng(seed)
    t, gap = rng.uniform(0.05, 0.95, size=8), rng.uniform(1e-8, 1e-6, size=8)
    near = np.array([[gap[0], t[0]], [t[1], gap[1]], [1.0 - gap[2], t[2]],
                     [t[3], 1.0 - gap[3]], [gap[4], gap[5]],
                     [1.0 - gap[6], 1.0 - gap[7]]])
    return np.vstack([rng.uniform(0.0, 1.0, size=(60, 2)), near])


def _centroids(corners, cells):
    out = np.empty((len(cells), 2))
    for ids, at in cells.groups:
        out[ids] = geo.polygon_centroid(corners[at])
    return out


class _RecordingVoronoi:
    """geo.Voronoi that records each point set it is given."""

    def __init__(self):
        self.inputs = []

    def __call__(self, points):
        self.inputs.append(points)
        return Voronoi(points)

    @property
    def sizes(self):
        return [len(p) for p in self.inputs]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reduced_mirror_step_equals_full_mirror_step(seed, monkeypatch):
    points = _generators_at_the_sides(seed)
    corners, cells = geo._voronoi_cells(points)
    # the mask a Lloyd step carries: the sides each cell touches
    mirror = geo._cell_sides(np.concatenate([corners == 0.0, corners == 1.0],
                                            axis=1), cells.sizes)
    assert mirror.sum() < mirror.size // 2
    qhull = _RecordingVoronoi()
    monkeypatch.setattr(geo, "Voronoi", qhull)
    reduced = _centroids(*geo._voronoi_cells(points, mirror))
    assert qhull.sizes == [len(points) + mirror.sum()]
    assert np.abs(reduced - _centroids(corners, cells)).max() <= 1e-12


@pytest.mark.parametrize("points", [
    _generators_at_the_sides(4),
    # unmirrored, the hull points' cells are unbounded with every finite
    # corner inside the square
    0.4 + 0.2 * np.random.default_rng(0).uniform(size=(12, 2))],
    ids=["sides", "cluster"])
def test_short_mask_grows_and_redoes(points, monkeypatch):
    want = _centroids(*geo._voronoi_cells(points))
    qhull = _RecordingVoronoi()
    monkeypatch.setattr(geo, "Voronoi", qhull)
    got = _centroids(*geo._voronoi_cells(points, np.zeros((len(points), 4),
                                                          dtype=bool)))
    assert qhull.sizes[0] == len(points) and len(qhull.sizes) > 1
    assert qhull.sizes[-1] < 5 * len(points)
    assert np.abs(got - want).max() <= 1e-12


def test_all_true_mask_stacks_the_full_reflections(monkeypatch):
    points = _generators_at_the_sides(5)
    x, y = points[:, 0], points[:, 1]
    qhull = _RecordingVoronoi()
    monkeypatch.setattr(geo, "Voronoi", qhull)
    geo._voronoi_cells(points)
    assert len(qhull.inputs) == 1
    assert np.array_equal(qhull.inputs[0], np.vstack([
        points, points * [-1.0, 1.0], points * [1.0, -1.0],
        np.column_stack([2.0 - x, y]), np.column_stack([x, 2.0 - y])]))


@pytest.mark.parametrize("reflected", [True, False])
@pytest.mark.parametrize("outside", [(3.0, 0.37), (-2.0, 0.4), (2.5, 2.5)])
def test_generator_outside_the_square_is_refused(outside, reflected):
    points = np.vstack([_generators_at_the_sides(6), [outside]])
    mirror = np.full((len(points), 4), reflected)
    with pytest.raises(geo.MeshError, match="unbounded Voronoi cell"):
        geo._voronoi_cells(points, mirror)


def test_grouped_shoelace_sums_in_per_ring_order():
    # rings of 8 or more vertices are where np.sum's pairwise order and an
    # in-order segment sum part
    rng = np.random.default_rng(3)
    for m in range(8, 13):
        theta = np.sort(rng.uniform(0, 2 * np.pi, size=(40, m)), axis=1)
        r = rng.uniform(0.5, 1.5, size=(40, m))
        rings = (rng.uniform(-5, 5, size=(40, 1, 2))
                 + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1))
        want_c = np.array([oracles.polygon_centroid(p) for p in rings])
        want_a = np.array([oracles.polygon_area(p) for p in rings])
        assert np.array_equal(geo.polygon_centroid(rings), want_c)
        assert np.array_equal(geo.polygon_area(rings), want_a)
        assert all(np.array_equal(geo.polygon_centroid(p), c)
                   for p, c in zip(rings, want_c))


def test_ring_checks_equal_per_cell_loops():
    rng = np.random.default_rng(5)
    for m in range(3, 10):
        rings = rng.uniform(0, 1, size=(60, m, 2))
        assert np.array_equal(geo._ring_is_simple(rings),
                              [oracles.ring_is_simple(p) for p in rings])
        assert np.array_equal(geo.polygon_diameter(rings),
                              [oracles.polygon_diameter(p) for p in rings])


def test_voronoi_seed_reproducible():
    m1 = geo.generate_mesh("voronoi", 1, rng_seed=7)
    m2 = geo.generate_mesh("voronoi", 1, rng_seed=7)
    assert np.array_equal(m1.vertices, m2.vertices)
    m3 = geo.generate_mesh("voronoi", 1, rng_seed=8)
    assert m3.n_vertices != m1.n_vertices or not np.array_equal(
        m3.vertices, m1.vertices)


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        geo.generate_mesh("nope", 1)


@pytest.mark.parametrize("family", geo.MESH_FAMILIES)
def test_generate_mesh_refuses_levels_outside_the_table(family, monkeypatch):
    # the level is checked against MESH_LEVELS before any generator runs
    def refuse(*args):
        raise AssertionError("a mesh was generated")

    for name in ("_hexagonal_mesh", "_voronoi_mesh", "_random_polygons_mesh",
                 "_diamond_mesh"):
        monkeypatch.setattr(geo, name, refuse)
    levels = geo.MESH_LEVELS[family]
    for level in (levels[0] - 1, levels[-1] + 1):
        message = (rf"^{family} family supports levels "
                   rf"{levels[0]}\.\.{levels[-1]}, got {level}$")
        with pytest.raises(ValueError, match=message):
            geo.generate_mesh(family, level)


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

def test_validate_geometry_square():
    mesh = _single_square_mesh()
    rep = geo.validate_geometry(mesh)
    assert rep.min_distance_ratio[0] == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert not rep.star_violations.any()


@pytest.mark.parametrize("m", [4, 6, 200])
def test_validate_geometry_regular_polygon(m):
    # the kernel ball of a regular m-gon is its inscribed circle, of radius
    # cos(pi/m) times the circumradius, and an even m has diameter 2
    t = 2 * np.pi * np.arange(m) / m
    mesh = geo.build_mesh(np.column_stack([np.cos(t), np.sin(t)]),
                          [np.arange(m)])
    tracemalloc.start()
    try:
        rep = geo.validate_geometry(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.star_ratio[0] == pytest.approx(np.cos(np.pi / m), abs=1e-12)
    # the (cell, side triple) pairs go in chunks: about 10 MiB at m = 200,
    # where all 1,313,400 of them at once take 1.6 GiB
    assert peak < 32 * 2 ** 20


def _assert_reports_equal(rep, ref):
    for name in ("star_ratio", "min_distance_ratio", "star_violations",
                 "distance_violations"):
        got, want = getattr(rep, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("family", geo.MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2])
def test_validate_geometry_equals_per_cell_loop(family, level):
    mesh = geo.generate_mesh(family, level)
    _assert_reports_equal(geo.validate_geometry(mesh),
                          oracles.validate_geometry(mesh))


def test_validate_geometry_equals_per_cell_loop_on_l_cell():
    mesh = geo.build_mesh(L_CELL, [np.arange(6)])
    _assert_reports_equal(geo.validate_geometry(mesh),
                          oracles.validate_geometry(mesh))


def _linprog_star_ratio(verts, diameter):
    """The star ratio at the kernel-ball centre HiGHS finds, from the
    clearance of its x rather than its reported r."""
    d = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / np.linalg.norm(
        d, axis=1)[:, None]
    offsets = np.sum(normals * verts, axis=1)
    res = linprog([0, 0, -1], A_ub=np.column_stack([normals, np.ones(len(d))]),
                  b_ub=offsets, bounds=[(None, None)] * 3, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    clearance = np.min(offsets - normals @ res.x[:2])
    return max(2.0 * clearance / diameter, 0.0)


@pytest.mark.parametrize("family, level", [
    ("random_polygons", 1), ("random_polygons", 2), ("random_polygons", 3),
    ("voronoi", 1), ("hexagonal", 2), ("diamond", 2)])
def test_validate_geometry_matches_linprog(family, level):
    mesh = geo.generate_mesh(family, level)
    rep = geo.validate_geometry(mesh)
    want = [_linprog_star_ratio(mesh.vertices[ring], diameter)
            for ring, diameter in zip(mesh.cells, mesh.cell_diameters)]
    # the kernel-ball radius within 1e-9 of the diameter
    assert np.abs(rep.star_ratio - want).max() <= 2e-9


# ---------------------------------------------------------------------------
# import / export
# ---------------------------------------------------------------------------

def test_mesh_roundtrip(tmp_path):
    mesh = geo.generate_mesh("voronoi", 1)
    path = tmp_path / "mesh.json"
    geo.export_mesh(mesh, path)
    back = geo.import_mesh(path)
    # JSON writes the shortest repr of each float, which reads back exactly
    assert len(back.cells) == len(mesh.cells)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert [c.tolist() for c in back.cells] == [c.tolist() for c in mesh.cells]
    assert np.array_equal(back.edges, mesh.edges)
    assert ([e.tolist() for e in back.cell_edges]
            == [e.tolist() for e in mesh.cell_edges])


def test_import_mesh_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"vertices\": 3}")
    with pytest.raises(geo.MeshError):
        geo.import_mesh(path)


def test_export_mesh_is_plain_json(tmp_path):
    mesh = geo.generate_mesh("hexagonal", 1)
    path = tmp_path / "mesh.json"
    geo.export_mesh(mesh, path)
    data = json.loads(path.read_text())
    assert set(data) == {"vertices", "cells"}


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def convex_polygons(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    # angles strictly increasing around a random center with jittered radii
    base = np.sort(draw(st.lists(
        st.floats(min_value=0.0, max_value=2 * np.pi - 0.3,
                  allow_nan=False), min_size=n, max_size=n, unique=True)))
    if len(base) < 3 or np.min(np.diff(base)) < 0.05:
        base = np.linspace(0, 2 * np.pi, n, endpoint=False)
    r = draw(st.floats(min_value=0.2, max_value=3.0))
    return np.column_stack([r * np.cos(base), r * np.sin(base)])


@given(convex_polygons(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_quadrature_matches_oracle_on_random_polygons(verts, a, b):
    rule = geo.polygon_quadrature(verts, a + b, geo.polygon_centroid(verts))
    got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
    want = monomial_integral(verts, a, b)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_edge_quadrature_length(degree):
    p0, p1 = np.array([0.0, 0.0]), np.array([0.6, 0.8])
    rule = geo.edge_quadrature(p0, p1, degree)
    assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-13)


def test_edge_quadrature_stacked_segments():
    p0 = np.array([[[0.0, 0.0], [0.2, -0.3]], [[1.0, 1.0], [0.5, 0.5]]])
    p1 = np.array([[[0.6, 0.8], [1.1, 0.8]], [[1.0, 2.0], [0.0, 0.5]]])
    rule = geo.edge_quadrature(p0, p1, 5)
    assert rule.points.shape == (2, 2, 3, 2)
    assert rule.weights.shape == (2, 2, 3)
    for i in range(2):
        for j in range(2):
            one = geo.edge_quadrature(p0[i, j], p1[i, j], 5)
            assert rule.points[i, j] == pytest.approx(one.points, abs=1e-15)
            assert rule.weights[i, j] == pytest.approx(one.weights, rel=1e-15)

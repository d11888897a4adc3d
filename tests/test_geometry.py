"""Mesh generators, validation, and quadrature."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystokes import geometry as geo
import oracles
from oracles import monomial_integral

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
    rule = geo.polygon_quadrature(verts, degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(rule.weights * rule.points[:, 0] ** a
                         * rule.points[:, 1] ** b)
            want = monomial_integral(verts, a, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_polygon_quadrature_positive_weights():
    rule = geo.polygon_quadrature(PENTAGON, 8)
    assert np.all(rule.weights > 0)


def test_polygon_quadrature_rejects_nonstar_fan():
    # centroid of this "pac-man as seen by its own centroid" ring falls
    # outside one of the fan triangles
    verts = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 3], [4, 3],
                      [4, 4], [0, 4.0]])
    with pytest.raises(ValueError):
        geo.polygon_quadrature(verts, 2)


# An L-shaped cell whose centroid lies outside its kernel: the centroid fan
# has a triangle of negative area, yet the validator accepts the cell.
L_CELL = np.array([[0, 0], [3, 0], [3, 0.6], [1, 0.6], [1, 1.6], [0, 1.6]])


def test_polygon_quadrature_star_cell_off_centroid_kernel():
    rep = geo.validate_geometry(geo.build_mesh(L_CELL, [np.arange(6)]))
    assert rep.star_ratio[0] >= 0.1 and rep.all_pass
    degree = 8
    rule = geo.polygon_quadrature(L_CELL, degree)
    assert np.all(rule.weights > 0)
    for d in range(degree + 1):
        for a in range(d + 1):
            b = d - a
            got = np.sum(rule.weights * rule.points[:, 0] ** a
                         * rule.points[:, 1] ** b)
            want = monomial_integral(L_CELL, a, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


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
                 "boundary_edge_flags", "cell_areas", "cell_diameters"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mesh.h == ref.h
    for name in ("cells", "cell_edges"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert len(got) == len(want)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(got, want)), name


@pytest.mark.parametrize("family", geo.MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2])
def test_generated_mesh_equals_per_cell_loops(family, level):
    _assert_meshes_equal(geo.generate_mesh(family, level),
                         oracles.generate_mesh(family, level))


@pytest.mark.parametrize("seed", [0, 9])
def test_lloyd_equals_per_cell_loop(seed):
    points = np.random.default_rng(seed).uniform(0.02, 0.98, size=(64, 2))
    got = geo._lloyd(points, geo.LLOYD_ITERATIONS)
    assert geo.LLOYD_ITERATIONS == 100
    assert np.array_equal(got, oracles.lloyd(points, 100))


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


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

def test_validate_geometry_square():
    mesh = _single_square_mesh()
    rep = geo.validate_geometry(mesh)
    # inscribed-ball diameter 1 over cell diameter sqrt(2)
    assert rep.star_ratio[0] == pytest.approx(1 / np.sqrt(2), abs=0.02)
    assert rep.star_ratio[0] >= 0.5
    assert rep.min_distance_ratio[0] == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert not rep.star_violations.any()


def _assert_reports_equal(rep, ref):
    for name in ("star_ratio", "min_distance_ratio", "areas", "diameters",
                 "star_violations", "distance_violations"):
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


def test_validate_geometry_hexagon():
    # regular hexagon: inscribed diameter sqrt(3), diameter 2
    t = np.linspace(0, 2 * np.pi, 7)[:-1]
    verts = np.column_stack([np.cos(t), np.sin(t)])
    mesh = geo.build_mesh(verts, [list(range(6))])
    rep = geo.validate_geometry(mesh)
    assert rep.star_ratio[0] == pytest.approx(np.sqrt(3) / 2, abs=0.02)


# ---------------------------------------------------------------------------
# import / export
# ---------------------------------------------------------------------------

def test_mesh_roundtrip(tmp_path):
    mesh = geo.generate_mesh("voronoi", 1)
    path = tmp_path / "mesh.json"
    geo.export_mesh(mesh, path)
    back = geo.import_mesh(path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(back.cells, mesh.cells))


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
    rule = geo.polygon_quadrature(verts, a + b)
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

"""Local spaces: DOF layouts, projectors, bubbles, interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystokes import geometry as geo
from polystokes import polybasis as pb
from polystokes import vemspace as vs
from oracles import projector_defect

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([[0.0, 0.0], [0.7, 0.1], [1.1, 0.6], [0.5, 1.2],
                     [-0.2, 0.7]])


def test_layout_counts():
    lay = vs.build_layout(PENTAGON, 2)
    assert lay.n_vertex == 5
    assert lay.n_edge == 5          # one interior point per edge at k=2
    assert lay.n_moment == 1
    assert lay.n_scalar == 11
    assert lay.n_bubble == 5
    assert lay.n_velocity == 2 * 11 + 2 * 5


def test_layout_rejects_k0():
    with pytest.raises(ValueError):
        vs.build_layout(PENTAGON, 0)


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projectors_reproduce_polynomials(k, kind):
    ctx = vs.build_element(PENTAGON, k, basis_kind=kind)
    ops = ctx.operators
    nk = ctx.slice_hi
    assert np.abs(ops.pinabla_k @ ops.dof_matrix - np.eye(nk)).max() < 1e-11
    assert np.abs(ops.pizero_k @ ops.dof_matrix - np.eye(nk)).max() < 1e-11


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
def test_projectors_on_badly_shaped_cell(kind):
    # random_polygons L2, cell 109 at k=4: its degree-6 scaled-monomial mass
    # matrix has condition number 3.4e15, so solves against monomial Gram
    # matrices lose the projector identities there
    mesh = geo.generate_mesh("random_polygons", 2)
    cell = mesh.cells[109]
    assert len(cell) == 12
    ctx = vs.build_element(mesh.vertices[cell], 4, basis_kind=kind)
    assert projector_defect(ctx) <= 1e-11


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projectors_on_star_cell_off_centroid_kernel(k):
    # L-shaped cell whose centroid lies outside its kernel, so its
    # quadrature fans from another kernel point
    verts = np.array([[0, 0], [3, 0], [3, 0.6], [1, 0.6], [1, 1.6], [0, 1.6]])
    ctx = vs.build_element(verts, k)
    ops = ctx.operators
    nk = ctx.slice_hi
    assert np.abs(ops.pinabla_k @ ops.dof_matrix - np.eye(nk)).max() < 1e-11
    assert np.abs(ops.pizero_k @ ops.dof_matrix - np.eye(nk)).max() < 1e-11
    assert projector_defect(ctx) <= 1e-11


def test_pinabla_square_example():
    # unit square, k=1: vertex values (0,0,1,0) project to -1/4 + x/2 + y/2
    ctx = vs.build_element(UNIT_SQUARE, 1)
    coef = ctx.operators.pinabla_k @ np.array([0.0, 0.0, 1.0, 0.0])
    pts = np.array([[0.3, 0.4], [0.9, 0.1], [0.0, 0.0]])
    got = pb.evaluate(ctx.basis.prefix(1), pts) @ coef
    want = -0.25 + pts[:, 0] / 2 + pts[:, 1] / 2
    assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pizero_is_l2_projection(k):
    # interpolate a non-polynomial and check quadrature orthogonality of
    # the residual moments encoded in the DOFs themselves
    ctx = vs.build_element(UNIT_SQUARE, k)

    def f(p):
        return np.sin(p[:, 0] + 0.5 * p[:, 1])

    dofs = vs.interpolate_scalar(ctx, f)
    coeffs = ctx.operators.pizero_k @ dofs
    # moments of the projection against the degree-(k-2) prefix must match
    # the moment DOFs exactly (they are shared data)
    nlow = ctx.slice_lo
    if nlow:
        nk = ctx.slice_hi
        moments = ctx.mass[:nlow, :nk] @ coeffs / ctx.area
        assert moments == pytest.approx(dofs[-nlow:], abs=1e-12)


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolated_polynomial_projects_to_itself(k, kind):
    ctx = vs.build_element(PENTAGON, k, basis_kind=kind)
    rng = np.random.default_rng(k)
    coeffs = rng.standard_normal(ctx.slice_hi)

    def f(p):
        return pb.evaluate(ctx.basis.prefix(k), p) @ coeffs

    dofs = vs.interpolate_scalar(ctx, f)
    assert ctx.operators.pizero_k @ dofs == pytest.approx(coeffs, rel=1e-9,
                                                          abs=1e-10)
    assert ctx.operators.pinabla_k @ dofs == pytest.approx(coeffs, rel=1e-9,
                                                           abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bubble_projection_energy_orthogonal_to_pk(k):
    # grad of the projected bubble is orthogonal to grad P_k: the bubble
    # vanishes on the boundary and its P_(k-2) moments are zero
    ctx = vs.build_element(PENTAGON, k)
    nk = ctx.slice_hi
    pair = ctx.stiffness[:nk, :] @ ctx.operators.bubble_pinabla
    scale = np.linalg.norm(ctx.stiffness) * np.abs(ctx.operators.bubble_pinabla).max()
    assert np.abs(pair).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bubble_projection_orthogonal_to_harmonics(k):
    # harmonic polynomials of degree <= k+2 pair to zero in energy
    ctx = vs.build_element(PENTAGON, k)
    H = pb.harmonic_subspace(ctx.basis, k + 2)
    pair = H.T @ ctx.stiffness @ ctx.operators.bubble_pinabla
    scale = (np.linalg.norm(ctx.stiffness) * np.abs(H).max()
             * np.abs(ctx.operators.bubble_pinabla).max())
    assert np.abs(pair).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bubble_pizero_moments(k):
    ctx = vs.build_element(PENTAGON, k)
    nk = ctx.slice_hi
    lo, hi = ctx.slice_lo, ctx.slice_hi
    got = ctx.mass[lo:hi, :nk] @ ctx.operators.bubble_pizero_k / ctx.area
    assert np.abs(got - np.eye(ctx.layout.n_bubble)).max() < 1e-11
    if lo:
        low = ctx.mass[:lo, :nk] @ ctx.operators.bubble_pizero_k / ctx.area
        assert np.abs(low).max() < 1e-11


def test_edge_trace_dofs_ordering():
    ctx = vs.build_element(UNIT_SQUARE, 3)
    # the first edge runs from vertex 0 to vertex 1; its k-1 interior nodes
    # are the Gauss-Lobatto points of the edge
    gl = geo.gauss_lobatto_points(4)[1:-1]
    want = np.column_stack([(gl + 1) / 2, np.zeros(2)])
    assert ctx.edge_nodes.shape == (4, 2, 2)
    assert ctx.edge_nodes[0] == pytest.approx(want)
    # and they carry scalar DOFs 4 and 5, after the four vertex DOFs
    dofs = vs.interpolate_scalar(ctx, lambda p: p[:, 0] + 10 * p[:, 1])
    assert dofs[:4] == pytest.approx([0.0, 1.0, 11.0, 10.0])
    assert dofs[4:6] == pytest.approx(want[:, 0])


def test_interpolate_velocity_shapes():
    ctx = vs.build_element(PENTAGON, 2)

    def u(p):
        return np.stack([p[:, 1], -p[:, 0]], axis=1)

    ux, uy, bub = vs.interpolate_velocity(ctx, u)
    assert ux.shape == (ctx.layout.n_scalar,)
    assert uy.shape == (ctx.layout.n_scalar,)
    assert bub.shape == (2 * ctx.layout.n_bubble,)
    assert np.all(bub == 0.0)
    assert ux[:5] == pytest.approx(PENTAGON[:, 1])


@st.composite
def star_polygons(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    jitter = draw(st.lists(st.floats(min_value=-0.2, max_value=0.2),
                           min_size=n, max_size=n))
    t = np.linspace(0, 2 * np.pi, n, endpoint=False) + np.asarray(jitter)
    r = 1.0 + np.asarray(draw(st.lists(
        st.floats(min_value=-0.3, max_value=0.3), min_size=n, max_size=n)))
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


@given(star_polygons(), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_projector_identity_random_cells(verts, k):
    ctx = vs.build_element(verts, k)
    ops = ctx.operators
    nk = ctx.slice_hi
    assert np.abs(ops.pinabla_k @ ops.dof_matrix - np.eye(nk)).max() < 1e-9
    assert np.abs(ops.pizero_k @ ops.dof_matrix - np.eye(nk)).max() < 1e-9

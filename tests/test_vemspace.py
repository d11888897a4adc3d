"""Local spaces: DOF layouts, projectors, bubbles, interpolation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystokes import geometry as geo
from polystokes import polybasis as pb
from polystokes import vemspace as vs
import oracles
from oracles import one_cell, projector_defect

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([[0.0, 0.0], [0.7, 0.1], [1.1, 0.6], [0.5, 1.2],
                     [-0.2, 0.7]])


def test_layout_counts():
    lay = vs.build_layout(len(PENTAGON), 2)
    assert lay.n_vertex == 5
    assert lay.n_edge == 5          # one interior point per edge at k=2
    assert lay.n_moment == 1
    assert lay.n_scalar == 11
    assert lay.n_bubble == 5


def test_layout_rejects_k0():
    with pytest.raises(ValueError):
        vs.build_layout(len(PENTAGON), 0)


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projectors_reproduce_polynomials(k, kind):
    ctx = oracles.element(vs.build_element(one_cell(PENTAGON), 0, k,
                                           basis_kind=kind))
    nk = pb.poly_dim(k)
    assert np.abs(ctx.pinabla_k @ ctx.dof_matrix - np.eye(nk)).max() < 1e-11
    assert np.abs(ctx.pizero_k @ ctx.dof_matrix - np.eye(nk)).max() < 1e-11


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
def test_projectors_on_badly_shaped_cell(kind):
    # random_polygons L2, cell 109 at k=4: its degree-6 scaled-monomial mass
    # matrix has condition number 3.4e15, so solves against monomial Gram
    # matrices lose the projector identities there
    mesh = geo.generate_mesh("random_polygons", 2)
    assert len(mesh.cells[109]) == 12
    ctx = oracles.element(vs.build_element(mesh, 109, 4, basis_kind=kind))
    assert projector_defect(ctx) <= 1e-11


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projectors_on_star_cell_off_centroid_kernel(k):
    # L-shaped cell whose centroid lies outside its kernel, so its
    # quadrature fans from another kernel point
    verts = np.array([[0, 0], [3, 0], [3, 0.6], [1, 0.6], [1, 1.6], [0, 1.6]])
    ctx = oracles.element(vs.build_element(one_cell(verts), 0, k))
    nk = pb.poly_dim(k)
    assert np.abs(ctx.pinabla_k @ ctx.dof_matrix - np.eye(nk)).max() < 1e-11
    assert np.abs(ctx.pizero_k @ ctx.dof_matrix - np.eye(nk)).max() < 1e-11
    assert projector_defect(ctx) <= 1e-11


def test_pinabla_square_example():
    # unit square, k=1: vertex values (0,0,1,0) project to -1/4 + x/2 + y/2
    ctx = oracles.element(vs.build_element(one_cell(UNIT_SQUARE), 0, 1))
    coef = ctx.pinabla_k @ np.array([0.0, 0.0, 1.0, 0.0])
    pts = np.array([[0.3, 0.4], [0.9, 0.1], [0.0, 0.0]])
    basis = ctx.basis.prefix(1)
    got = pb.evaluate(basis, oracles.table(basis, pts)) @ coef
    want = -0.25 + pts[:, 0] / 2 + pts[:, 1] / 2
    assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pizero_is_l2_projection(k):
    # interpolate a non-polynomial and check quadrature orthogonality of
    # the residual moments encoded in the DOFs themselves
    batch = oracles.batch(vs.build_element(one_cell(UNIT_SQUARE), 0, k))
    ctx = oracles.unstacked(batch, 0)

    def f(p):
        return np.sin(p[:, 0] + 0.5 * p[:, 1])

    (dofs,) = vs.interpolate_scalar(batch, f)
    coeffs = ctx.pizero_k @ dofs
    # moments of the projection against the degree-(k-2) prefix must match
    # the moment DOFs exactly (they are shared data)
    nlow = ctx.layout.n_moment
    if nlow:
        nk = pb.poly_dim(k)
        moments = ctx.mass[:nlow, :nk] @ coeffs / ctx.area
        assert moments == pytest.approx(dofs[-nlow:], abs=1e-12)


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolated_polynomial_projects_to_itself(k, kind):
    batch = oracles.batch(vs.build_element(one_cell(PENTAGON), 0, k,
                                           basis_kind=kind))
    ctx = oracles.unstacked(batch, 0)
    rng = np.random.default_rng(k)
    coeffs = rng.standard_normal(pb.poly_dim(k))
    basis = ctx.basis.prefix(k)

    def f(p):
        return pb.evaluate(basis, oracles.table(basis, p)) @ coeffs

    (dofs,) = vs.interpolate_scalar(batch, f)
    assert ctx.pizero_k @ dofs == pytest.approx(coeffs, rel=1e-9, abs=1e-10)
    assert ctx.pinabla_k @ dofs == pytest.approx(coeffs, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bubble_projection_energy_orthogonal_to_pk(k):
    # grad of the projected bubble is orthogonal to grad P_k: the bubble
    # vanishes on the boundary and its P_(k-2) moments are zero
    ctx = oracles.element(vs.build_element(one_cell(PENTAGON), 0, k))
    nk = pb.poly_dim(k)
    pair = ctx.stiffness[:nk, :] @ ctx.bubble_pinabla
    scale = np.linalg.norm(ctx.stiffness) * np.abs(ctx.bubble_pinabla).max()
    assert np.abs(pair).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bubble_projection_orthogonal_to_harmonics(k):
    # harmonic polynomials of degree <= k+2 pair to zero in energy
    ctx = oracles.element(vs.build_element(one_cell(PENTAGON), 0, k))
    H = oracles.harmonic_subspace(ctx.basis, k + 2)
    pair = H.T @ ctx.stiffness @ ctx.bubble_pinabla
    scale = (np.linalg.norm(ctx.stiffness) * np.abs(H).max()
             * np.abs(ctx.bubble_pinabla).max())
    assert np.abs(pair).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bubble_pizero_moments(k):
    ctx = oracles.element(vs.build_element(one_cell(PENTAGON), 0, k))
    nk = pb.poly_dim(k)
    lo = ctx.layout.n_moment
    got = ctx.mass[lo:nk, :nk] @ ctx.bubble_pizero_k / ctx.area
    assert np.abs(got - np.eye(ctx.layout.n_bubble)).max() < 1e-11
    if lo:
        low = ctx.mass[:lo, :nk] @ ctx.bubble_pizero_k / ctx.area
        assert np.abs(low).max() < 1e-11


def test_edge_trace_dofs_ordering():
    batch = oracles.batch(vs.build_element(one_cell(UNIT_SQUARE), 0, 3))
    # the first edge runs from vertex 0 to vertex 1; its k-1 interior nodes
    # are the Gauss-Lobatto points of the edge
    gl = geo.gauss_lobatto_points(4)[1:-1]
    want = np.column_stack([(gl + 1) / 2, np.zeros(2)])
    assert batch.edge_nodes.shape == (1, 4, 2, 2)
    assert batch.edge_nodes[0, 0] == pytest.approx(want)
    # and they carry scalar DOFs 4 and 5, after the four vertex DOFs
    (dofs,) = vs.interpolate_scalar(batch, lambda p: p[:, 0] + 10 * p[:, 1])
    assert dofs[:4] == pytest.approx([0.0, 1.0, 11.0, 10.0])
    assert dofs[4:6] == pytest.approx(want[:, 0])


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
    ctx = oracles.element(vs.build_element(one_cell(verts), 0, k))
    nk = pb.poly_dim(k)
    assert np.abs(ctx.pinabla_k @ ctx.dof_matrix - np.eye(nk)).max() < 1e-9
    assert np.abs(ctx.pizero_k @ ctx.dof_matrix - np.eye(nk)).max() < 1e-9


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stored_quadrature_values(kind, k):
    # the context keeps the degree-k values the blocks read, and
    # interpolation reads its moments from them with unchanged bits
    batch = oracles.batch(vs.build_element(one_cell(PENTAGON), 0, k,
                                           basis_kind=kind))
    ctx = oracles.unstacked(batch, 0)
    nk = pb.poly_dim(k)
    full = pb.evaluate(ctx.basis, oracles.table(ctx.basis, ctx.quad.points))
    assert np.array_equal(ctx.quad_values, full[:, :nk])
    assert np.array_equal(ctx.member_integrals,
                          ctx.quad.weights @ full[:, :nk])

    def f(p):
        return np.sin(p[:, 0]) + p[:, 1] ** 3

    lay = ctx.layout
    nodes = np.vstack([ctx.verts, ctx.edge_nodes.reshape(-1, 2)])
    want = np.empty(lay.n_scalar)
    want[:len(nodes)] = f(nodes)
    want[len(nodes):] = ((ctx.quad.weights * f(ctx.quad.points))
                         @ full[:, :lay.n_moment] / ctx.area)
    assert np.array_equal(vs.interpolate_scalar(batch, f)[0], want)


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
def test_power_table_travels_with_the_context_only(kind):
    # the table the basis was built from is the one the batch reads; the
    # batch keeps no table, and no context or batch field is None
    mesh = one_cell(PENTAGON)
    ctx = vs.build_element(mesh, 0, 2, basis_kind=kind)
    want = pb.power_table(4, mesh.cell_centroids[0], mesh.cell_diameters[0],
                          ctx.quad.points)
    assert (ctx.at_quad.degree, ctx.at_quad.centroid, ctx.at_quad.diameter) \
        == (4, ctx.basis.centroid, ctx.basis.diameter)
    assert np.array_equal(ctx.at_quad.x, want.x)
    assert np.array_equal(ctx.at_quad.y, want.y)
    batch = oracles.batch(ctx)
    for record in (ctx, batch):
        fields = [getattr(record, f.name) for f in dataclasses.fields(record)]
        assert all(x is not None for x in fields)
    assert not any(isinstance(getattr(batch, f.name), pb.PowerTable)
                   for f in dataclasses.fields(batch))


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
def test_batch_record_holds_only_what_the_error_norms_read(kind):
    # the record keeps the batch's cells, layout, quadrature and L2
    # projector as they are, and the degree-k prefix of its basis; no array
    # of it shares memory with the batch's mass, stiffness, other
    # projectors, DOF matrices or values
    k = 2
    batch = oracles.batch(vs.build_element(one_cell(PENTAGON), 0, k,
                                           basis_kind=kind))
    record = batch.record()
    assert [f.name for f in dataclasses.fields(record)] == \
        ["cells", "layout", "quad", "basis", "pizero_k"]
    assert record.cells is batch.cells and record.quad is batch.quad
    assert record.layout == batch.layout
    assert record.pizero_k is batch.pizero_k
    nk = pb.poly_dim(k)
    assert record.basis.degree == k and record.basis.kind == kind
    assert np.array_equal(record.basis.change_of_basis,
                          batch.basis.change_of_basis[:, :nk, :nk])

    def arrays(x):
        if dataclasses.is_dataclass(x):
            return [a for f in dataclasses.fields(x)
                    for a in arrays(getattr(x, f.name))]
        return [x] if isinstance(x, np.ndarray) else []

    kept = {"cells", "layout", "quad", "basis", "pizero_k", "verts", "area",
            "k"}
    dropped = [a for f in dataclasses.fields(batch) if f.name not in kept
               for a in arrays(getattr(batch, f.name))]
    assert dropped
    assert not any(np.shares_memory(a, b) for a in arrays(record)
                   for b in dropped)


# The ElementBatch fields computed by the batch step: all but the cell
# positions and the per-cell inputs of build_batches
_BATCH_STEP_FIELDS = tuple(
    f.name for f in dataclasses.fields(vs.ElementBatch)
    if f.name != "cells"
    and f.name not in {g.name for g in dataclasses.fields(vs.ElementContext)})


def test_batches_equal_per_cell_oracle(element_sets):
    # every field the batch step computes equals the per-cell reference bit
    # for bit; the 224 hexagons of hexagonal L3 span several batches of one
    # vertex count
    family, sets = element_sets
    items = list(sets.items())
    if family == "hexagonal":
        mesh = geo.generate_mesh(family, 3)
        items += [((3, k, kind), oracles.element_set(mesh, k, kind))
                  for k in (1, 2, 3, 4)
                  for kind in ("scaled_monomial", "l2_orthonormal")]
    for key, (contexts, batches) in items:
        assert all(len(b.cells) <= vs._BATCH for b in batches)
        sizes = [b.layout.n_vertex for b in batches]
        assert sizes == sorted(sizes)
        if key[0] == 3:
            assert sizes.count(6) > 1
        elements = oracles.cell_elements(batches)
        assert [c for c, _ in elements] == list(range(len(contexts)))
        for c, el in elements:
            want = oracles.build_operators(contexts[c])
            assert sorted(want) == sorted(_BATCH_STEP_FIELDS)
            for name in _BATCH_STEP_FIELDS:
                assert np.array_equal(getattr(el, name), want[name]), \
                    (key, c, name)


def test_batch_stiffness_equals_quadrature_gram(element_sets):
    # the batch forms the stiffness from derivative matrices; the Gram
    # matrix of the members' gradients at the quadrature points agrees to
    # 1e-12 of each cell's largest entry
    _, sets = element_sets
    for key, (contexts, batches) in sets.items():
        for c, el in oracles.cell_elements(batches):
            want = oracles.stiffness(contexts[c].basis, contexts[c].quad)
            assert (np.abs(el.stiffness - want).max()
                    <= 1e-12 * np.abs(want).max()), (key, c)


def test_interpolate_scalar_equals_per_cell_oracle(element_sets):
    # one call of f on the nodes and one on the quadrature points of a whole
    # batch give every cell the DOFs of the per-cell interpolation, bit for bit
    def f(p):
        return np.sin(3.0 * p[:, 0]) + p[:, 1] ** 3

    _, sets = element_sets
    for key, (contexts, batches) in sets.items():
        for batch in batches:
            dofs = vs.interpolate_scalar(batch, f)
            assert dofs.shape == (len(batch.cells), batch.layout.n_scalar)
            for c, got in zip(batch.cells, dofs):
                want = oracles.interpolate_scalar(contexts[c], f)
                assert np.array_equal(got, want), (key, c)


def test_build_batches_refuses_mixed_cells():
    # cells of equal vertex count share a batch, which keeps one basis kind
    # and one quadrature degree: cells that differ in them are refused
    pentagon = one_cell(PENTAGON)
    mixed = {"basis.kind": [vs.build_element(pentagon, 0, 2),
                            vs.build_element(pentagon, 0, 2, "l2_orthonormal")],
             # degrees 10 and 11 give rules of the same size
             "quad.exactness_degree": [
                 vs.build_element(pentagon, 0, 2),
                 vs.build_element(pentagon, 0, 2, quad_degree=11)]}
    for name, contexts in mixed.items():
        with pytest.raises(ValueError, match=name):
            vs.build_batches(contexts)

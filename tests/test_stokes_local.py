"""Element matrices: symmetry, consistency, kernels, scaling."""

import dataclasses

import numpy as np
import pytest

import oracles
from polystokes import polybasis as pb
from polystokes import stokes_local as sl
from polystokes import vemspace as vs
from polystokes.analysis import get_case
from oracles import monomial_integral, one_cell

PENTAGON = np.array([[0.0, 0.0], [0.7, 0.1], [1.1, 0.6], [0.5, 1.2],
                     [-0.2, 0.7]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _blocks(ctx, config=sl.StabilizationConfig(), f=np.zeros_like):
    """One cell's blocks: build_blocks on a one-cell batch pads nothing."""
    b = sl.build_blocks(vs.build_batches([ctx]), config, f)
    return sl.LocalStokesBlocks(*(getattr(b, fd.name)[0]
                                  for fd in dataclasses.fields(b)))


def test_stabilization_config_validation():
    with pytest.raises(ValueError):
        sl.StabilizationConfig(alpha=0.0)
    with pytest.raises(ValueError):
        sl.StabilizationConfig(beta_sharp=-1.0)
    # NaN passes both comparisons, and neither weight may be infinite
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            sl.StabilizationConfig(alpha=bad)
        with pytest.raises(ValueError):
            sl.StabilizationConfig(beta_sharp=bad)
    cfg = sl.StabilizationConfig(alpha=0.5, beta_sharp=2.0)
    assert cfg.alpha == 0.5 and cfg.beta_sharp == 2.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_blocks_symmetric(k):
    ctx = vs.build_element(one_cell(PENTAGON), 0, k)
    b = _blocks(ctx)
    for A in (b.A_sc, b.Ab_sc):
        assert np.abs(A - A.T).max() <= 1e-13 * max(np.abs(A).max(), 1.0)


@pytest.mark.parametrize("k", [1, 2])
def test_a_positive_semidefinite_with_constant_kernel(k):
    ctx = vs.build_element(one_cell(PENTAGON), 0, k)
    A_sc = _blocks(ctx).A_sc
    eigs = np.linalg.eigvalsh(A_sc)
    assert eigs.min() > -1e-12
    # a constant velocity component is in the kernel
    (const,) = vs.interpolate_scalar(oracles.batch(ctx),
                                     lambda p: np.ones(len(p)))
    assert np.abs(A_sc @ const).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_consistency_on_polynomials(k):
    # for polynomial DOF vectors the stabilization part vanishes and the
    # block reduces to the exact grad-grad pairing of the polynomials
    ctx = vs.build_element(one_cell(PENTAGON), 0, k)
    el = oracles.element(ctx)
    nk = pb.poly_dim(k)
    A_sc = _blocks(ctx).A_sc
    rng = np.random.default_rng(k)
    p_co = rng.standard_normal(nk)
    q_co = rng.standard_normal(nk)
    vp, vq = el.dof_matrix @ p_co, el.dof_matrix @ q_co
    want = p_co @ el.stiffness[:nk, :nk] @ q_co
    assert vp @ A_sc @ vq == pytest.approx(want, rel=1e-10, abs=1e-11)
    # the complement term alone is exactly zero on polynomial DOF vectors
    comp = el.dof_matrix @ el.pinabla_k @ (el.dof_matrix @ p_co) \
        - el.dof_matrix @ p_co
    assert np.abs(comp).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2, 3])
def test_c_symmetric_and_polynomial_kernel(k):
    ctx = vs.build_element(one_cell(PENTAGON), 0, k)
    C = _blocks(ctx).C_p
    assert np.abs(C - C.T).max() <= 1e-14 * max(np.abs(C).max(), 1.0)
    rng = np.random.default_rng(7)
    q = oracles.element(ctx).dof_matrix @ rng.standard_normal(pb.poly_dim(k))
    assert np.abs(C @ q).max() < 1e-11


def test_c_positive_on_nonpolynomial_mode():
    # a single vertex hat on a pentagon at k=1 is not a polynomial
    ctx = vs.build_element(one_cell(PENTAGON), 0, 1)
    C = _blocks(ctx).C_p
    q = np.zeros(len(C))
    q[0] = 1.0
    assert q @ C @ q > 1e-6


@pytest.mark.parametrize("k", [1, 2])
def test_b_consistency_polynomial_pair(k):
    # for v = interpolated polynomial velocity and q = polynomial pressure
    # DOFs, B matches the exact integral of q div v
    ctx = vs.build_element(one_cell(UNIT_SQUARE), 0, k)
    b = _blocks(ctx)
    # v = (x^k, 0), q = x^(k-1): int q div v = k int x^(2k-2)
    batch = oracles.batch(ctx)
    (ux,) = vs.interpolate_scalar(batch, lambda p: p[:, 0] ** k)
    (uy,) = vs.interpolate_scalar(batch, lambda p: np.zeros(len(p)))
    (qd,) = vs.interpolate_scalar(batch, lambda p: p[:, 0] ** (k - 1))
    val = qd @ (b.B_x @ ux + b.B_y @ uy)
    want = k * monomial_integral(UNIT_SQUARE, 2 * k - 2, 0)
    assert val == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_b_bubble_vanishes_for_low_order_pressure():
    # bubble divergence pairing uses only the top-degree pressure slice
    ctx = vs.build_element(one_cell(PENTAGON), 0, 2)
    b = _blocks(ctx)
    # constant pressure: zero pairing (bubbles vanish on the boundary)
    (qd,) = vs.interpolate_scalar(oracles.batch(ctx),
                                  lambda p: np.ones(len(p)))
    for Bb in (b.Bb_x, b.Bb_y):
        assert np.abs(qd @ Bb).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_scaling_of_blocks(k):
    # scaling coordinates by s leaves A unchanged and multiplies B by s
    ctx1 = vs.build_element(one_cell(PENTAGON), 0, k)
    ctx2 = vs.build_element(one_cell(2.0 * PENTAGON), 0, k)
    b1, b2 = _blocks(ctx1), _blocks(ctx2)
    for name in ("A_sc", "Ab_sc"):
        assert getattr(b2, name) == pytest.approx(getattr(b1, name),
                                                  rel=1e-10, abs=1e-11)
    for name in ("B_x", "B_y", "Bb_x", "Bb_y"):
        assert getattr(b2, name) == pytest.approx(2.0 * getattr(b1, name),
                                                  rel=1e-10, abs=1e-11)


def test_rhs_zero_forcing():
    ctx = vs.build_element(one_cell(PENTAGON), 0, 1)
    b = _blocks(ctx, f=lambda p: np.zeros((len(p), 2)))
    for F in (b.F_x, b.F_y, b.Fb_x, b.Fb_y):
        assert np.all(F == 0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_rhs_constant_forcing_partition_of_unity(k):
    # sum over one component's scalar DOFs of (f, pizero phi_i) = c |K|
    ctx = vs.build_element(one_cell(PENTAGON), 0, k)
    c1, c2 = 2.0, -3.0
    b = _blocks(ctx, f=lambda p: np.tile([c1, c2], (len(p), 1)))
    batch = oracles.batch(ctx)
    (area,) = batch.area
    # partition of unity: DOFs of the constant 1 give sum_i dof_i(1) phi_i = 1
    (ones,) = vs.interpolate_scalar(batch, lambda p: np.ones(len(p)))
    got1 = ones @ b.F_x
    got2 = ones @ b.F_y
    assert got1 == pytest.approx(c1 * area, rel=1e-12)
    assert got2 == pytest.approx(c2 * area, rel=1e-12)


def test_beta_sharp_adds_bubble_stabilization():
    ctx = vs.build_element(one_cell(PENTAGON), 0, 1)
    Ab0 = _blocks(ctx, sl.StabilizationConfig(beta_sharp=0.0)).Ab_sc
    Ab1 = _blocks(ctx, sl.StabilizationConfig(beta_sharp=1.0)).Ab_sc
    diff = Ab1 - Ab0
    assert np.abs(diff).max() > 0.0
    eigs = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    assert eigs.min() > -1e-12


def test_build_blocks_shapes():
    # cells stacked in list order, padded to the widest cell
    small = vs.build_element(one_cell(UNIT_SQUARE), 0, 2)
    ctx = vs.build_element(one_cell(PENTAGON), 0, 2)
    blocks = sl.build_blocks(vs.build_batches([ctx, small, ctx]),
                             f=lambda p: np.ones((len(p), 2)))
    lay = vs.build_layout(len(PENTAGON), 2)
    n, nb = lay.n_scalar, lay.n_bubble
    shapes = dict(A_sc=(n, n), Ab_sc=(nb, nb), B_x=(n, n), B_y=(n, n),
                  Bb_x=(n, nb), Bb_y=(n, nb), C_p=(n, n), mean_weights=(n,),
                  F_x=(n,), F_y=(n,), Fb_x=(nb,), Fb_y=(nb,))
    assert [fd.name for fd in dataclasses.fields(blocks)] == list(shapes)
    m = vs.build_layout(len(UNIT_SQUARE), 2).n_scalar
    one = _blocks(small, f=lambda p: np.ones((len(p), 2)))
    for name, shape in shapes.items():
        got = getattr(blocks, name)
        assert got.shape == (3, *shape), name
        # the small cell's own blocks, then zeros along every n_sc axis
        inside = tuple(slice(m if d == n else d) for d in shape)
        assert np.array_equal(got[1][inside], getattr(one, name)), name
        padding = got[1].copy()
        padding[inside] = 0.0
        assert not padding.any(), name


def _split_by_component(want, n, nb):
    """The per-cell oracle's blocks (A_u, A_b, B_u, B_b, F_u and F_b over
    both velocity components) under the library's per-component names.

    A_u and A_b must be diag(A, A): each diagonal block is paired with the
    library's one block, and the off-diagonal blocks must be exactly zero.
    """
    for name, h in (("A_u", n), ("A_b", nb)):
        assert not want[name][:h, h:].any() and not want[name][h:, :h].any()
    return [("A_sc", want["A_u"][:n, :n]), ("A_sc", want["A_u"][n:, n:]),
            ("Ab_sc", want["A_b"][:nb, :nb]), ("Ab_sc", want["A_b"][nb:, nb:]),
            ("B_x", want["B_u"][:, :n]), ("B_y", want["B_u"][:, n:]),
            ("Bb_x", want["B_b"][:, :nb]), ("Bb_y", want["B_b"][:, nb:]),
            ("C_p", want["C_p"]), ("mean_weights", want["mean_weights"]),
            ("F_x", want["F_u"][:n]), ("F_y", want["F_u"][n:]),
            ("Fb_x", want["F_b"][:nb]), ("Fb_y", want["F_b"][nb:])]


def test_stacked_blocks_equal_per_cell_oracle(element_sets):
    # voronoi and random_polygons mix vertex counts in cell order, so the
    # groups' results are scattered back to interleaved cells
    _, sets = element_sets
    forcing = get_case("test1").forcing
    for key, (_, batches) in sets.items():
        elements = oracles.cell_elements(batches)
        for beta, f in ((0.0, np.zeros_like), (1.0, forcing)):
            config = sl.StabilizationConfig(beta_sharp=beta)
            blocks = sl.build_blocks(batches, config, f)
            for c, el in elements:
                want = _split_by_component(
                    oracles.build_blocks(el, config, f),
                    el.layout.n_scalar, el.layout.n_bubble)
                for name, block in want:
                    got = getattr(blocks, name)[c]
                    inside = tuple(map(slice, block.shape))
                    assert np.array_equal(got[inside], block), \
                        (key, beta, c, name)
                    got = got.copy()
                    got[inside] = 0.0
                    assert not got.any()

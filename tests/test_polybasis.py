"""Polynomial bases: nesting, orthonormality, calculus operators."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from polystokes import geometry as geo
from polystokes import polybasis as pb
from polystokes import vemspace as vs
import oracles
from oracles import scaled_monomial_integral, table

PENTAGON = np.array([[0.0, 0.0], [0.7, 0.1], [1.1, 0.6], [0.5, 1.2],
                     [-0.2, 0.7]])


def _basis(k, kind="scaled_monomial", verts=PENTAGON):
    centroid = geo.polygon_centroid(verts)
    quad = geo.polygon_quadrature(verts, 2 * k + 2, centroid)
    powers = pb.power_table(k, centroid, geo.polygon_diameter(verts),
                            quad.points)
    return pb.build_basis(powers, quad.weights, kind), quad


def test_poly_dim():
    assert [pb.poly_dim(k) for k in (-1, 0, 1, 2, 3, 4)] == [0, 1, 3, 6, 10, 15]


def test_monomial_exponents_graded():
    a, b = pb._exponent_arrays(2)
    assert list(zip(a.tolist(), b.tolist())) == [(0, 0), (1, 0), (0, 1),
                                                 (2, 0), (1, 1), (0, 2)]


def test_monomial_exponents_in_index_order():
    a, b = pb._exponent_arrays(8)
    assert np.array_equal(pb._index(a, b), np.arange(pb.poly_dim(8)))


@pytest.mark.parametrize("k", range(9))
def test_integer_tables_equal_dictionary_loops(k):
    # every entry is placed through the graded-lex index; the
    # dictionary-indexed loops give the same arrays, dtypes and shapes
    pairs = [(np.stack(pb._exponent_arrays(k)),
              np.array(oracles.monomial_exponents(k)).T),
             *zip(pb._derivative_exponents(k), oracles.derivative_exponents(k)),
             (pb._laplacian_exponents(k), oracles.laplacian_exponents(k))]
    for got, want in pairs:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_scaled_monomial_member_values():
    basis, _ = _basis(2)
    c, h = basis.centroid, basis.diameter
    pts = np.array([[0.3, 0.4], [0.9, 0.2]])
    vals = pb.evaluate(basis, table(basis, pts))
    xs, ys = (pts[:, 0] - c[0]) / h, (pts[:, 1] - c[1]) / h
    assert vals[:, 0] == pytest.approx(np.ones(2))
    assert vals[:, 1] == pytest.approx(xs)
    assert vals[:, 2] == pytest.approx(ys)
    assert vals[:, 3] == pytest.approx(xs ** 2)


def test_scaled_monomial_integrals_match_oracle():
    basis, quad = _basis(3)
    vals = pb.evaluate(basis, table(basis, quad.points))
    for i, (a, b) in enumerate(oracles.monomial_exponents(3)):
        want = scaled_monomial_integral(PENTAGON, basis.centroid,
                                        basis.diameter, a, b)
        assert quad.weights @ vals[:, i] == pytest.approx(want, rel=1e-12,
                                                          abs=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2, 4, 6])
def test_scaled_monomials_match_per_exponent_loop(k):
    # the power table multiplies its powers up one factor at a time, so the
    # values equal that loop, one column per exponent pair, bit for bit
    basis, _ = _basis(k)
    c, h = basis.centroid, basis.diameter
    pts = np.random.default_rng(k).uniform(-0.5, 1.5, (40, 2))
    xs, ys = (pts[:, 0] - c[0]) / h, (pts[:, 1] - c[1]) / h
    vals = np.zeros((len(pts), pb.poly_dim(k)))
    for i, (a, b) in enumerate(oracles.monomial_exponents(k)):
        vals[:, i] = oracles.power(xs, a) * oracles.power(ys, b)
    assert np.array_equal(pb.evaluate(basis, table(basis, pts)), vals)


def test_power_table_within_product_rounding_of_exact_powers():
    # n multiplications in binary64 err by at most gamma_n = n u / (1 - n u)
    # relative, u = 2^-53 (Higham, Accuracy and Stability of Numerical
    # Algorithms, Lemma 3.1), and by at most n u where n is small against
    # u^(-1/2) (Rump, Bunger and Jeannerod, BIT 56, 2016).  x^d takes
    # d - 1 products and x^a y^b at most a + b - 1; the bounds checked are
    # (d - 1) u and (a + b) u, against the exact powers of the table's own
    # first-degree entries, on points on both sides of the centroid
    k = 8
    basis, _ = _basis(k)
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, (40, 2))
    powers = table(basis, pts)
    u = Fraction(1, 2 ** 53)
    coords = [[Fraction(v) for v in col] for col in (powers.x[:, 1],
                                                     powers.y[:, 1])]
    assert all(min(col) < 0 < max(col) for col in coords)
    for got, col in ((powers.x, coords[0]), (powers.y, coords[1])):
        for d in range(2, k + 1):
            for v, exact in zip(got[:, d].tolist(), col):
                exact = exact ** d
                assert abs(Fraction(v) - exact) <= (d - 1) * u * abs(exact)
    vals = powers.values(k)
    for i, (a, b) in enumerate(oracles.monomial_exponents(k)):
        for v, x, y in zip(vals[:, i].tolist(), *coords):
            exact = x ** a * y ** b
            assert abs(Fraction(v) - exact) <= (a + b) * u * abs(exact)


def test_laplacian_map_divides_by_exact_squares_of_diameters():
    # h * h is h^2 rounded once; a libm pow need not round a square so
    h = np.random.default_rng(5).uniform(1e-3, 1.0, 20_000)
    squares = np.array([float(Fraction(v) ** 2) for v in h.tolist()])
    want = pb._laplacian_exponents(4) / squares[:, None, None]
    assert np.array_equal(pb._monomial_laplacian_map(4, h), want)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_orthonormal_basis_gram_is_identity(k):
    basis, quad = _basis(k, "l2_orthonormal")
    V = pb.evaluate(basis, table(basis, quad.points))
    mass = V.T @ (quad.weights[:, None] * V)
    n = pb.poly_dim(k)
    assert np.abs(mass - np.eye(n)).max() < 1e-12


def test_orthonormal_change_of_basis_triangular():
    basis, _ = _basis(3, "l2_orthonormal")
    C = basis.change_of_basis
    assert np.abs(np.tril(C, -1)).max() == 0.0


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
def test_prefix_nesting_exact(kind):
    basis, _ = _basis(4, kind)
    sub = basis.prefix(2)
    pts = np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.6]])
    full = pb.evaluate(basis, table(basis, pts))[:, :pb.poly_dim(2)]
    assert pb.evaluate(sub, table(sub, pts)) == pytest.approx(full, abs=1e-14)


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
def test_derivative_matrices(kind):
    basis, _ = _basis(3, kind)
    dx, dy = pb.derivative_matrices(basis)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(pb.poly_dim(3))
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    at = table(basis, pts)
    grads = np.einsum("pid,i->pd", oracles.gradient(basis, at), coeffs)
    vx = pb.evaluate(basis, at) @ (dx @ coeffs)
    vy = pb.evaluate(basis, at) @ (dy @ coeffs)
    assert vx == pytest.approx(grads[:, 0], rel=1e-11, abs=1e-12)
    assert vy == pytest.approx(grads[:, 1], rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("kind", ["scaled_monomial", "l2_orthonormal"])
def test_laplacian_in_lower_basis(kind):
    basis, _ = _basis(4, kind)
    lap = pb.laplacian_in_lower_basis(basis)       # (dim P_2, dim P_4)
    assert lap.shape == (pb.poly_dim(2), pb.poly_dim(4))
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(pb.poly_dim(4))
    pts = rng.uniform(0.0, 1.0, size=(15, 2))
    low = basis.prefix(2)
    got = pb.evaluate(low, table(low, pts)) @ (lap @ coeffs)
    # reference laplacian by central differences
    eps = 1e-5

    def f(q):
        return pb.evaluate(basis, table(basis, q)) @ coeffs

    ref = np.zeros(len(pts))
    for d in range(2):
        e = np.zeros(2)
        e[d] = eps
        ref += (f(pts + e) - 2 * f(pts) + f(pts - e)) / eps ** 2
    assert got == pytest.approx(ref, rel=1e-5, abs=1e-4)


def test_stiffness_constant_row_zero():
    # DX and DY have a zero first column, so the constant's row of the
    # batch stiffness is exactly 0
    for kind in ("scaled_monomial", "l2_orthonormal"):
        K = oracles.element(vs.build_element(oracles.one_cell(PENTAGON), 0, 2,
                                             basis_kind=kind)).stiffness
        assert np.all(K[0, :] == 0.0), kind


@pytest.mark.parametrize("k", [1, 2, 3])
def test_harmonic_subspace(k):
    basis, _ = _basis(k + 2)
    H = oracles.harmonic_subspace(basis, k + 2)
    assert H.shape[1] == 2 * (k + 2) + 1
    lap = pb.laplacian_in_lower_basis(basis)
    assert np.abs(lap @ H).max() < 1e-12


def test_ill_conditioned_basis_raises():
    # degenerate sliver drives the scaled-monomial mass matrix singular
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-13], [1.0, 1e-13]])
    centroid = geo.polygon_centroid(verts)
    quad = geo.polygon_quadrature(verts, 14, centroid)
    powers = pb.power_table(6, centroid, geo.polygon_diameter(verts),
                            quad.points)
    with pytest.raises(pb.IllConditionedBasisError):
        pb.build_basis(powers, quad.weights, "l2_orthonormal")


def test_power_table_serves_lower_degrees_and_stacked_cells():
    # one table of degree 5 gives every degree's values with the bits of a
    # table of that degree; a stack of cells gives each cell's own table
    basis, quad = _basis(5, "l2_orthonormal")
    full = table(basis, quad.points)
    for j in (0, 1, 3, 5):
        sub = basis.prefix(j)
        assert np.array_equal(pb.evaluate(sub, full),
                              pb.evaluate(sub, table(sub, quad.points)))
    other, quad2 = _basis(5, "l2_orthonormal", verts=1.7 * PENTAGON + 0.3)
    pts = np.stack([quad.points, quad2.points])
    centroids = np.stack([basis.centroid, other.centroid])[:, None]
    diameters = np.array([basis.diameter, other.diameter])[:, None, None]
    stacked = pb.power_table(3, centroids, diameters, pts)
    for i, b in enumerate((basis, other)):
        one = pb.power_table(3, b.centroid, b.diameter, pts[i])
        assert np.array_equal(stacked.values(3)[i], one.values(3))


def _upper(rng, shape):
    """Upper-triangular factors with diagonal entries in [1, 2]."""
    R = np.triu(rng.uniform(-1.0, 1.0, shape))
    n = shape[-1]
    R[..., np.arange(n), np.arange(n)] = rng.uniform(1.0, 2.0, shape[:-1])
    return R


def test_solve_upper_equals_solve_triangular():
    # the bits and the layout of scipy's batched solve: each slice is
    # column-major, and a row-major factor goes to LAPACK transposed
    rng = np.random.default_rng(7)
    R = _upper(rng, (5, 21, 21))
    B = rng.standard_normal((5, 21, 4))
    cases = [(R, B), (R, np.eye(21)), (R[..., :10, :10], B[:, :10]),
             (R[..., :6, :6], rng.standard_normal((5, 6, 10))),
             (np.asfortranarray(R[0]), B[0]), (R[0], B[0]),
             (R[1], np.eye(21)), (R[:, :3, :3], B[:, :3, :2]),
             # one column: dtrtrs on R and on R^T, lower, then round apart
             (R[2], B[2, :, :1])]
    # a stack of column-major factors, as solve_triangular returns one
    cases.append((solve_triangular(R, np.eye(21)), B))
    for R_, B_ in cases:
        for trans in ("N", "T"):
            want = solve_triangular(R_, B_, trans=trans)
            got = pb._solve_upper(R_, B_, trans=trans)
            assert got.strides == want.strides and np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_upper_refuses_what_solve_triangular_refuses(bad):
    rng = np.random.default_rng(8)
    R = _upper(rng, (3, 6, 6))
    B = rng.standard_normal((3, 6, 2))
    for which in (0, 1):
        args = [R.copy(), B.copy()]
        args[which][1, 1, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_triangular(*args)
        with pytest.raises(ValueError, match="infs or NaNs"):
            pb._solve_upper(*args)
    singular = R.copy()
    singular[2, 4, 4] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 4"):
        solve_triangular(singular, B)
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 4"):
        pb._solve_upper(singular, B)


class _Values:
    """A stand-in for a PowerTable whose monomial values are V."""

    def __init__(self, V):
        self.V = V

    def values(self, k):
        return self.V


def _refused(k, weights, powers):
    try:
        pb._monomial_factor(k, weights, powers)
    except pb.IllConditionedBasisError:
        return True
    return False


def test_svd_screen_refuses_exactly_the_factors_above_1e15():
    # ||R||_F ||R^-1||_F bounds cond_2(R) from above, so it only decides
    # when the SVD runs, never what is refused
    rng = np.random.default_rng(9)
    n = pb.poly_dim(5)
    Q = np.linalg.qr(rng.standard_normal((60, n)))[0]
    cases = []
    for e in (12, 13, 13.5, 14, 14.5, 15, 15.2, 15.5, 16, 17):
        U, _, Wt = np.linalg.svd(rng.standard_normal((n, n)))
        R = np.linalg.qr(U * np.logspace(0, -e, n) @ Wt, mode="r")
        cases.append((5, np.ones(60), _Values(Q @ R)))
    # the sliver cell of test_ill_conditioned_refusal_names_its_cell
    sliver = geo.build_mesh([[0, 0], [1, 0], [2, 1e-13], [1, 1e-13]],
                            [np.arange(4)])
    verts, centroid = sliver.vertices, sliver.cell_centroids[0]
    for k in (1, 2):
        quad = geo.polygon_quadrature(verts, 2 * k + 6, centroid)
        cases.append((k + 2, quad.weights, pb.power_table(
            k + 2, centroid, sliver.cell_diameters[0], quad.points)))
    refusals = []
    for k, weights, powers in cases:
        R = np.linalg.qr(np.sqrt(weights)[:, None] * powers.values(k),
                         mode="r")
        refusals.append(np.linalg.cond(R) > 1e15)
        assert _refused(k, weights, powers) == refusals[-1]
    assert 0 < sum(refusals[:10]) < 10 and all(refusals[10:])


def test_svd_screen_clears_every_cell_of_hexagonal_l2(monkeypatch):
    calls = []
    real = np.linalg.cond

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    mesh = geo.generate_mesh("hexagonal", 2)
    for kind in ("scaled_monomial", "l2_orthonormal"):
        for c in range(mesh.n_cells):
            vs.build_element(mesh, c, 3, kind)
    assert calls == []

"""Per-cell polynomial bases: scaled monomials and their L2-orthonormalization.

Members are indexed in graded lexicographic order (1, x, y, x^2, xy, y^2, ...)
in the scaled coordinates (x - x_K)/h_K, so degree-j prefixes span P_j.
Every member is stored as a coefficient column against the scaled monomials;
the change-of-basis matrix is upper triangular, which keeps the bases nested.

The orthonormal basis comes from a Householder QR factorization
sqrt(W) V = Q R of the scaled monomials V at the cell's quadrature points
(weights W): its change of basis is R^-1.  The factor R conditions like V,
not like the monomial mass matrix V^T W V = R^T R, whose condition number is
the square of R's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .geometry import polygon_centroid, polygon_diameter

__all__ = [
    "PolyBasis",
    "IllConditionedBasisError",
    "poly_dim",
    "monomial_exponents",
    "build_basis",
    "evaluate",
    "gradient",
    "stiffness",
    "laplacian_in_lower_basis",
    "derivative_matrices",
    "harmonic_subspace",
]


def poly_dim(k):
    return 0 if k < 0 else (k + 1) * (k + 2) // 2


def monomial_exponents(k):
    """Graded-lex exponent pairs (a, b) for all degrees <= k."""
    exps = []
    for d in range(k + 1):
        for a in range(d, -1, -1):
            exps.append((a, d - a))
    return exps


BASIS_KINDS = ("scaled_monomial", "l2_orthonormal")


@dataclass(frozen=True)
class PolyBasis:
    """Polynomial basis of degree k attached to one cell.

    change_of_basis columns hold each member's coefficients against the
    scaled monomials (identity for kind 'scaled_monomial').  monomial_factor
    is the upper-triangular R, with positive diagonal, of the Householder QR
    of the weighted scaled monomials at the quadrature the basis was built
    on, so R^T R is their mass matrix.
    """

    kind: str
    degree: int
    centroid: np.ndarray
    diameter: float
    change_of_basis: np.ndarray
    monomial_factor: np.ndarray

    @property
    def dimension(self):
        return poly_dim(self.degree)

    def prefix(self, j):
        """The sub-basis of degree j <= degree (nesting is exact)."""
        n = poly_dim(j)
        return PolyBasis(self.kind, j, self.centroid, self.diameter,
                         self.change_of_basis[:n, :n].copy(),
                         self.monomial_factor[:n, :n].copy())

    def orthonormal(self):
        """The basis R^-1 on the same cell: its members are orthonormal in
        the quadrature inner product that monomial_factor was built on."""
        if self.kind == "l2_orthonormal":
            return self
        R = self.monomial_factor
        C = solve_triangular(R, np.eye(len(R)))
        return PolyBasis("l2_orthonormal", self.degree, self.centroid,
                         self.diameter, C, R)

    def monomial_to_basis(self, coeffs):
        """Convert scaled-monomial coefficient columns to this basis."""
        return solve_triangular(self.change_of_basis, coeffs)

    def basis_to_monomial(self, coeffs):
        return self.change_of_basis @ coeffs


def _scaled_monomial_values(exps, centroid, diameter, points):
    xs = (points[:, 0] - centroid[0]) / diameter
    ys = (points[:, 1] - centroid[1]) / diameter
    return np.column_stack([xs ** a * ys ** b for a, b in exps])


def _scaled_monomial_gradients(exps, centroid, diameter, points):
    xs = (points[:, 0] - centroid[0]) / diameter
    ys = (points[:, 1] - centroid[1]) / diameter
    out = np.zeros((len(points), len(exps), 2))
    for i, (a, b) in enumerate(exps):
        if a > 0:
            out[:, i, 0] = a * xs ** (a - 1) * ys ** b / diameter
        if b > 0:
            out[:, i, 1] = b * xs ** a * ys ** (b - 1) / diameter
    return out


def _monomial_laplacian_map(k, diameter):
    """Matrix L with L[:, i] = coefficients of laplacian(m_i) in M_{k-2}."""
    exps = monomial_exponents(k)
    low = {e: i for i, e in enumerate(monomial_exponents(k - 2))} if k >= 2 else {}
    L = np.zeros((poly_dim(k - 2), poly_dim(k)))
    for i, (a, b) in enumerate(exps):
        if a >= 2:
            L[low[(a - 2, b)], i] += a * (a - 1) / diameter ** 2
        if b >= 2:
            L[low[(a, b - 2)], i] += b * (b - 1) / diameter ** 2
    return L


def _monomial_derivative_maps(k, diameter):
    exps = monomial_exponents(k)
    idx = {e: i for i, e in enumerate(exps)}
    n = poly_dim(k)
    dx = np.zeros((n, n))
    dy = np.zeros((n, n))
    for i, (a, b) in enumerate(exps):
        if a > 0:
            dx[idx[(a - 1, b)], i] = a / diameter
        if b > 0:
            dy[idx[(a, b - 1)], i] = b / diameter
    return dx, dy


class IllConditionedBasisError(RuntimeError):
    """The scaled monomials are numerically dependent at the quadrature points."""


def _monomial_factor(k, centroid, diameter, quadrature):
    """R of the Householder QR sqrt(W) V = Q R, with diag(R) > 0."""
    V = _scaled_monomial_values(monomial_exponents(k), centroid, diameter,
                                quadrature.points)
    R = np.linalg.qr(np.sqrt(quadrature.weights)[:, None] * V, mode="r")
    if np.linalg.cond(R) > 1e15:
        raise IllConditionedBasisError(
            "scaled monomials numerically dependent at the quadrature "
            "points; reduce the degree or improve the cell shape")
    return np.copysign(1.0, np.diag(R))[:, None] * R


def build_basis(verts, k, kind="scaled_monomial", *, quadrature):
    """Build the degree-k basis on a polygonal cell.

    The basis carries the QR factor R of its scaled monomials at the
    quadrature (see PolyBasis).  Kind 'l2_orthonormal' has change of basis
    R^-1, so its members are orthonormal in the quadrature inner product.
    Raises IllConditionedBasisError when R is numerically singular.
    """
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    verts = np.asarray(verts, dtype=float)
    centroid = polygon_centroid(verts)
    diameter = polygon_diameter(verts)
    R = _monomial_factor(k, centroid, diameter, quadrature)
    basis = PolyBasis("scaled_monomial", k, centroid, diameter,
                      np.eye(poly_dim(k)), R)
    return basis if kind == "scaled_monomial" else basis.orthonormal()


def evaluate(basis, points):
    """Member values at points, shape (n_points, dimension)."""
    exps = monomial_exponents(basis.degree)
    V = _scaled_monomial_values(exps, basis.centroid, basis.diameter, np.atleast_2d(points))
    return V @ basis.change_of_basis


def gradient(basis, points):
    """Member gradients at points, shape (n_points, dimension, 2)."""
    exps = monomial_exponents(basis.degree)
    G = _scaled_monomial_gradients(exps, basis.centroid, basis.diameter, np.atleast_2d(points))
    return (G.swapaxes(1, 2) @ basis.change_of_basis).swapaxes(1, 2)


def laplacian_in_lower_basis(basis):
    """Coefficients of each member's laplacian in the degree-(k-2) prefix."""
    k = basis.degree
    L = _monomial_laplacian_map(k, basis.diameter)
    mono = L @ basis.change_of_basis
    n_low = poly_dim(k - 2)
    if n_low == 0:
        return mono
    return solve_triangular(basis.change_of_basis[:n_low, :n_low], mono)


def derivative_matrices(basis):
    """(DX, DY) with DX @ c = basis coefficients of d/dx of the polynomial c."""
    dx, dy = _monomial_derivative_maps(basis.degree, basis.diameter)
    C = basis.change_of_basis
    return (solve_triangular(C, dx @ C), solve_triangular(C, dy @ C))


def stiffness(basis, quad):
    """Quadrature Gram matrix of the gradients of the basis members."""
    G = gradient(basis, quad.points) * np.sqrt(quad.weights)[:, None, None]
    G = G.transpose(0, 2, 1).reshape(-1, G.shape[1])
    return G.T @ G


def harmonic_subspace(basis, k):
    """Columns spanning the harmonic polynomials of degree <= k, in basis coords.

    Uses Re((x+iy)^m), Im((x+iy)^m) in the scaled coordinates; 2k+1 columns
    for k >= 1, a single constant column for k = 0.
    """
    exps = monomial_exponents(basis.degree)
    idx = {e: i for i, e in enumerate(exps)}
    cols = []
    from math import comb
    for m in range(k + 1):
        re = np.zeros(len(exps))
        im = np.zeros(len(exps))
        for j in range(m + 1):
            c = comb(m, j) * (1j ** j)
            re[idx[(m - j, j)]] += c.real
            im[idx[(m - j, j)]] += c.imag
        cols.append(re)
        if m >= 1:
            cols.append(im)
    mono = np.column_stack(cols)
    return basis.monomial_to_basis(mono)

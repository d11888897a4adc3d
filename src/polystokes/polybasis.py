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

Derivatives are taken on coefficients, never at points: derivative_matrices
maps a member's coefficients to those of its x- and y-derivatives in the
same basis, which holds them because the bases are nested.  So the Gram
matrix of the gradients of the orthonormal members is DX^T DX + DY^T DY in
the quadrature they are orthonormal in, and the exact one where that
quadrature is exact to degree 2k - 2 for a basis of degree k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg.lapack import dtrtri, dtrtrs

__all__ = [
    "PolyBasis",
    "PowerTable",
    "IllConditionedBasisError",
    "poly_dim",
    "check_basis_kind",
    "build_basis",
    "power_table",
    "evaluate",
    "laplacian_in_lower_basis",
    "derivative_matrices",
]


def poly_dim(k):
    return 0 if k < 0 else (k + 1) * (k + 2) // 2


def _index(a, b):
    """Position of x^a y^b in graded-lex order."""
    return (a + b) * (a + b + 1) // 2 + b


@cache
def _exponent_arrays(k):
    """The exponents (a, b) of the monomials of degree <= k in graded-lex
    order, two read-only integer arrays."""
    degree = np.repeat(np.arange(k + 1), np.arange(1, k + 2))
    b = np.arange(poly_dim(k)) - _index(degree, 0)
    a = degree - b
    a.flags.writeable = b.flags.writeable = False
    return a, b


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

    def prefix(self, j):
        """The sub-basis of degree j <= degree (nesting is exact)."""
        n = poly_dim(j)
        return PolyBasis(self.kind, j, self.centroid, self.diameter,
                         self.change_of_basis[..., :n, :n].copy(),
                         self.monomial_factor[..., :n, :n].copy())

    def orthonormal(self):
        """The basis R^-1 on the same cell: its members are orthonormal in
        the quadrature inner product that monomial_factor was built on."""
        if self.kind == "l2_orthonormal":
            return self
        R = self.monomial_factor
        C = _solve_upper(R, np.eye(R.shape[-1]))
        return PolyBasis("l2_orthonormal", self.degree, self.centroid,
                         self.diameter, C, R)


def _scaled_powers(k, centroid, diameter, points):
    """Powers 0..k of the scaled coordinates, two (..., n_points, k+1) tables.

    Power d is power d-1 times the coordinate, never a pow: its bits do not
    depend on which pow numpy dispatches to, and a negative coordinate costs
    what a positive one does.  Both tables are views of one array
    (..., n_points, 2, k+1)."""
    scaled = (points - centroid) / diameter
    powers = np.empty(scaled.shape + (k + 1,))
    powers[..., 0] = 1.0
    if k > 0:
        powers[..., 1] = scaled
    for d in range(2, k + 1):
        np.multiply(powers[..., d - 1], scaled, out=powers[..., d])
    return powers[..., 0, :], powers[..., 1, :]


@dataclass(frozen=True)
class PowerTable:
    """Powers 0..degree of the scaled coordinates of a set of points.

    x and y are (..., n_points, degree+1).  Leading axes stack cells; the
    centroid and diameter are then arrays that broadcast against the points
    (..., n_points, 2) and against (..., n_points, 1).
    Each power is the one below it times the coordinate, by repeated
    multiplication, not pow.  The scaled monomials of every degree <= degree
    are products of table entries, so one table serves them all.
    """

    degree: int
    centroid: np.ndarray
    diameter: float | np.ndarray
    x: np.ndarray
    y: np.ndarray

    def values(self, k):
        """Scaled monomials of degree <= k, (..., n_points, poly_dim(k))."""
        a, b = _exponent_arrays(k)
        return self.x[..., a] * self.y[..., b]


def power_table(degree, centroid, diameter, points):
    """The PowerTable of degree at points (..., n_points, 2) on cells with
    centroids (..., 1, 2) and diameters (..., 1, 1), or on one cell."""
    return PowerTable(degree, centroid, diameter,
                      *_scaled_powers(degree, centroid, diameter, points))


@cache
def _laplacian_exponents(k):
    """The laplacian of the unscaled monomials of degree <= k in those of
    degree <= k-2, read-only."""
    dx, dy = _derivative_exponents(k)
    L = (dx @ dx + dy @ dy)[:poly_dim(k - 2)]
    L.flags.writeable = False
    return L


def _monomial_laplacian_map(k, diameter):
    """Matrix L with L[:, i] = coefficients of laplacian(m_i) in M_{k-2},
    on cells of the given diameter (a float, or an array of them)."""
    diameter = np.asarray(diameter, dtype=float)
    return _laplacian_exponents(k) / (diameter * diameter)[..., None, None]


@cache
def _derivative_exponents(k):
    """d/dx and d/dy of the unscaled monomials of degree <= k as matrices
    on their coefficients, read-only."""
    a, b = _exponent_arrays(k)
    n = poly_dim(k)
    dx, dy = np.zeros((n, n)), np.zeros((n, n))
    # column i has one entry; where a (or b) is 0 it is a 0 on the diagonal
    dx[_index(np.maximum(a - 1, 0), b), np.arange(n)] = a
    dy[_index(a, np.maximum(b - 1, 0)), np.arange(n)] = b
    dx.flags.writeable = dy.flags.writeable = False
    return dx, dy


def _monomial_derivative_maps(k, diameter):
    """The derivative matrices of the scaled monomials on cells of the
    given diameter (a float, or an array of them)."""
    dx, dy = _derivative_exponents(k)
    diameter = np.asarray(diameter)[..., None, None]
    return dx / diameter, dy / diameter


def _solve_upper(R, B, trans="N"):
    """X with R X = B (R^T X = B for trans "T"), R (n, n) upper triangular,
    B (n, m), either stacked along leading axes that broadcast: one LAPACK
    dtrtrs per slice with scipy.linalg.solve_triangular's arguments, into
    column-major slices as there, so with its bits and layout but not its
    per-slice Python checks.  Raises ValueError when R or B is not finite
    and LinAlgError when R has a zero on its diagonal."""
    if not (np.isfinite(R).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    stack = np.broadcast_shapes(R.shape[:-2], B.shape[:-2])
    R = np.broadcast_to(R, stack + R.shape[-2:])
    X = np.empty(stack + B.shape[-1:] + B.shape[-2:-1]).swapaxes(-1, -2)
    X[...] = B
    t = int(trans == "T")
    for i in np.ndindex(stack):
        # solved in place in X[i]; an R[i] that is not column-major goes as
        # its transpose, the lower factor of the transposed system
        flip = not R[i].flags.f_contiguous
        _, info = dtrtrs(R[i].T if flip else R[i], X[i], lower=flip,
                         trans=t ^ flip, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}")
    return X


class IllConditionedBasisError(RuntimeError):
    """The scaled monomials are numerically dependent at the quadrature points."""


def _monomial_factor(k, weights, powers):
    """R of the Householder QR sqrt(W) V = Q R, with diag(R) > 0."""
    V = powers.values(k)
    R = np.linalg.qr(np.sqrt(weights)[:, None] * V, mode="r")
    # ||R||_F ||R^-1||_F >= cond_2(R), so the SVD of np.linalg.cond runs only
    # on the factors that this bound, two orders below 1e15, cannot clear
    inv, info = dtrtri(R)
    bound = np.linalg.norm(R) * np.linalg.norm(inv) if info == 0 else np.inf
    if not bound <= 1e13 and np.linalg.cond(R) > 1e15:
        raise IllConditionedBasisError(
            "scaled monomials numerically dependent at the quadrature "
            "points; reduce the degree or improve the cell shape")
    return np.copysign(1.0, np.diag(R))[:, None] * R


def check_basis_kind(kind):
    """Raise ValueError unless kind is one of BASIS_KINDS."""
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")


def build_basis(powers, weights, kind="scaled_monomial"):
    """Build the basis of degree powers.degree on the cell of a PowerTable.

    powers is the table at a quadrature's points and weights its weights.
    The basis carries the QR factor R of its scaled monomials at that
    quadrature (see PolyBasis).  Kind 'l2_orthonormal' has change of basis
    R^-1, so its members are orthonormal in the quadrature inner product.
    Raises IllConditionedBasisError when R is numerically singular.
    """
    check_basis_kind(kind)
    k = powers.degree
    R = _monomial_factor(k, weights, powers)
    basis = PolyBasis("scaled_monomial", k, powers.centroid, powers.diameter,
                      np.eye(poly_dim(k)), R)
    return basis if kind == "scaled_monomial" else basis.orthonormal()


def evaluate(basis, at):
    """Member values at the points of a PowerTable at (of the basis's cell,
    degree >= basis.degree), shape (n_points, dimension)."""
    return at.values(basis.degree) @ basis.change_of_basis


def laplacian_in_lower_basis(basis):
    """Coefficients of each member's laplacian in the degree-(k-2) prefix;
    stacked for a stacked basis."""
    k = basis.degree
    L = _monomial_laplacian_map(k, basis.diameter)
    mono = L @ basis.change_of_basis
    n_low = poly_dim(k - 2)
    if n_low == 0:
        return mono
    return _solve_upper(basis.change_of_basis[..., :n_low, :n_low], mono)


def derivative_matrices(basis):
    """(DX, DY) with DX @ c = basis coefficients of d/dx of the polynomial c;
    stacked for a stacked basis."""
    dx, dy = _monomial_derivative_maps(basis.degree, basis.diameter)
    C = basis.change_of_basis
    return _solve_upper(C, dx @ C), _solve_upper(C, dy @ C)

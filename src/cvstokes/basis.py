"""Reference-element basis and quadrature rules.

The velocity space on a triangle uses the four-function enriched linear
basis: three modified vertex functions plus a cubic bubble.  On the
reference triangle with vertices (0,0), (1,0), (0,1) the bubble is

    phi_b = 27 x y (1 - x - y)

and the modified vertex functions are

    phi_i = lambda_i - (1/3) phi_b

with lambda_i the barycentric coordinates.  The set is nodal with respect
to the three vertices and the centroid: each function equals one at its
own node and zero at the other three.  Pressure uses the plain barycentric
(hat) basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_TRIANGLE_DEGREE = 8
MAX_SEGMENT_DEGREE = 5

@dataclass(frozen=True)
class ReferenceBasisEval:
    """Velocity basis values and gradients at a batch of points.

    Attributes
    ----------
    values : ndarray, shape (n, 4)
        Basis function values, ordered vertex 0, 1, 2, bubble.
    gradients : ndarray, shape (n, 4, 2)
        Corresponding gradients (reference or physical, depending on the
        evaluation routine that produced them).
    """

    values: np.ndarray
    gradients: np.ndarray


def _eval_unchecked(points: np.ndarray) -> ReferenceBasisEval:
    """Evaluate the reference basis at points (..., 2), which are not
    checked to lie in the reference triangle."""
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    lam0 = 1.0 - x - y
    bubble = 27.0 * lam0 * x * y

    values = np.empty(pts.shape[:-1] + (4,))
    values[..., 0] = lam0 - bubble / 3.0
    values[..., 1] = x - bubble / 3.0
    values[..., 2] = y - bubble / 3.0
    values[..., 3] = bubble

    # grad phi_b = 27 (y (1 - 2x - y), x (1 - x - 2y))
    gb = np.empty_like(pts)
    gb[..., 0] = 27.0 * y * (1.0 - 2.0 * x - y)
    gb[..., 1] = 27.0 * x * (1.0 - x - 2.0 * y)

    gradients = np.empty(pts.shape[:-1] + (4, 2))
    gradients[..., 0, :] = -1.0 - gb / 3.0
    gradients[..., 1, 0] = 1.0 - gb[..., 0] / 3.0
    gradients[..., 1, 1] = -gb[..., 1] / 3.0
    gradients[..., 2, 0] = -gb[..., 0] / 3.0
    gradients[..., 2, 1] = 1.0 - gb[..., 1] / 3.0
    gradients[..., 3, :] = gb
    return ReferenceBasisEval(values, gradients)


def barycentric(points: np.ndarray) -> np.ndarray:
    """Plain hat-function (barycentric) values, shape (..., 3)."""
    pts = np.asarray(points, dtype=float)
    lam = np.empty(pts.shape[:-1] + (3,))
    lam[..., 0] = 1.0 - pts[..., 0] - pts[..., 1]
    lam[..., 1] = pts[..., 0]
    lam[..., 2] = pts[..., 1]
    return lam


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on the reference triangle or unit segment.

    Weights are strictly positive and sum to the reference measure (1/2 for
    the triangle, 1 for the segment).  `exact_degree` is the highest total
    polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    exact_degree: int


# Degree-2 symmetric rule: midpoints of the medians, weight 1/6 each.
_TRI_DEG2 = (
    np.array([[1.0 / 6.0, 1.0 / 6.0], [2.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 2.0 / 3.0]]),
    np.full(3, 1.0 / 6.0),
)


def triangle_rule(degree: int) -> QuadratureRule:
    """Positive-weight quadrature on the reference triangle, degrees 1 to 8.

    Degrees 1 and 2 use the classic symmetric rules; higher degrees use a
    tensor Gauss-Legendre rule collapsed onto the triangle, which keeps all
    weights positive at every degree.
    """
    if not 1 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    if degree == 1:
        return QuadratureRule(np.array([[1.0 / 3.0, 1.0 / 3.0]]), np.array([0.5]), 1)
    if degree == 2:
        pts, wts = _TRI_DEG2
        return QuadratureRule(pts.copy(), wts.copy(), 2)
    # Collapsed tensor rule: x = u (1 - v), y = v, jacobian (1 - v).
    n = (degree + 3) // 2
    nodes, weights = leggauss(n)
    u = 0.5 * (nodes + 1.0)
    wu = 0.5 * weights
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - vv)
    pts = np.column_stack(((uu * (1.0 - vv)).ravel(), vv.ravel()))
    return QuadratureRule(pts, ww.ravel(), degree)


def segment_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on the unit segment [0, 1], degrees 1 to 5."""
    if not 1 <= degree <= MAX_SEGMENT_DEGREE:
        raise ValueError(f"unsupported segment quadrature degree {degree}")
    n = (degree + 2) // 2
    nodes, weights = leggauss(n)
    return QuadratureRule(0.5 * (nodes + 1.0), 0.5 * weights, 2 * n - 1)

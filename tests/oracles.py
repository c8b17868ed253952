"""Reference implementations the tests compare the package against.

A per-triangle affine map and basis evaluation, the exact monomial
integrals of the reference triangle, a pointwise basis evaluation over a
discretization's elements, and the face fluxes of a whole control-volume
set.  None of these is on the solve path; they exist so that the tests
have something independent of the vectorized kernels to check them with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cvstokes.basis import ReferenceBasisEval, _eval_unchecked, barycentric, eval_reference
from cvstokes.geometry import ControlVolumeSet, ElementData, GridDiscretization, to_reference
from cvstokes.schemes import _mass_fluxes, _momentum_fluxes

#: Nodes of the four reference basis functions: vertices, then centroid.
REFERENCE_NODES = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0 / 3.0, 1.0 / 3.0]]
)


@dataclass(frozen=True)
class AffineMap:
    """Affine map x = origin + J xi from the reference triangle.

    `jacobian` holds the edge vectors v1-v0 and v2-v0 as columns, so `det`
    equals twice the (signed) triangle area and must be positive.
    """

    origin: np.ndarray
    jacobian: np.ndarray
    det: float
    inverse: np.ndarray

    @classmethod
    def from_triangle(cls, coords: np.ndarray) -> "AffineMap":
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (3, 2):
            raise ValueError("coords must have shape (3, 2)")
        jac = np.column_stack((coords[1] - coords[0], coords[2] - coords[0]))
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if det <= 0.0:
            raise ValueError(f"triangle is degenerate or negatively oriented (det={det:g})")
        inv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det
        return cls(coords[0].copy(), jac, float(det), inv)

    @property
    def inverse_transpose(self) -> np.ndarray:
        return self.inverse.T

    def to_physical(self, ref_points: np.ndarray) -> np.ndarray:
        ref = np.asarray(ref_points, dtype=float)
        return self.origin + ref @ self.jacobian.T

    def to_reference(self, phys_points: np.ndarray) -> np.ndarray:
        phys = np.asarray(phys_points, dtype=float)
        return (phys - self.origin) @ self.inverse.T


def eval_physical(coords: np.ndarray, points: np.ndarray, tol: float = 1e-10) -> ReferenceBasisEval:
    """Evaluate the basis on a physical triangle at physical points.

    Returns values and physical-space gradients.  Points must lie in the
    closed triangle up to `tol` in reference coordinates.
    """
    amap = AffineMap.from_triangle(coords)
    ref = amap.to_reference(points)
    ev = eval_reference(ref, tol=tol)
    grads = ev.gradients @ amap.inverse
    return ReferenceBasisEval(ev.values, grads)


def monomial_integral_triangle(a: int, b: int) -> float:
    """Exact value of the integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def basis_at(eldata: ElementData, elements: np.ndarray, points: np.ndarray):
    """Basis values, physical gradients, and hat values at physical points.

    Points must lie inside their elements; no containment check is done.
    Shapes: values (..., 4), gradients (..., 4, 2), hats (..., 3).
    """
    ref = to_reference(eldata, elements, points)
    ev = _eval_unchecked(ref)
    inv = eldata.inv_jacobians[elements]
    grads = np.einsum("...bi,...ia->...ba", ev.gradients, inv)
    return ev.values, grads, barycentric(ref)


def face_fluxes(disc: GridDiscretization, cvset: ControlVolumeSet, viscosity, velocity, pressure):
    """Mass (F,) and momentum (F, 2) flux of every face of a CV set, from inside to outside."""
    faces = cvset.pieces("face")
    return _mass_fluxes(disc, faces, velocity), _momentum_fluxes(disc, faces, viscosity, velocity, pressure)

"""Assembly of the four locally conservative Stokes discretizations.

Unknowns are the enriched linear velocity (vertex values plus one bubble
per element, two components each, interleaved x/y) followed by the linear
vertex pressure.  Momentum equations, one pair per velocity location:

- non-overlapping and overlapping: flux balances of the velocity control
  volumes, integral of (-2 mu D(v) + p I) n over the volume boundary
  equals the integral of the body force over the volume;
- hybrid: flux balances for the vertex volumes, Galerkin equations tested
  with the bubble for the bubble unknowns;
- fem: Galerkin equations for all velocity test functions.

Mass equations are identical for all schemes: the flux balance of the
pressure boxes, integral of v . n over the box boundary equals the mass
source integral (zero when the problem has no mass source).  Dirichlet
conditions replace the momentum rows of boundary vertices with identity
rows (columns are kept, which preserves the exact mass balance of
boundary boxes); traction data enters the right-hand side of Neumann
boundary pieces, integrated once over the boundary half-segments: plainly
for the flux balances, against the element's vertex hats for Galerkin rows.

Every face and boundary segment is the affine image of one of the twelve
reference pieces (`geometry.REFERENCE_PIECES`), so the averages of the
basis values, reference gradients and pressure hats over it are
constants, computed once with the two-point Gauss rule, which is exact
for the cubic basis.  A flux-balance entry is such an average (gradients
mapped by the element's inverse Jacobian) times the face's normal times
its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import _eval_unchecked, barycentric, segment_rule, triangle_rule
from .geometry import (
    REFERENCE_PIECES,
    ControlVolumeSet,
    ElementData,
    GridDiscretization,
    _segment_quad,
    to_reference,
)
from .mesh import BCKind

SOURCE_QUAD_DEGREE = 6
NEUMANN_QUAD_DEGREE = 5


class ConfigurationError(ValueError):
    pass


def _zero_vector_field(points: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(points, dtype=float))


def _zero_traction(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(points, dtype=float))


@dataclass
class StokesProblem:
    """Problem data: viscosity, sources, and boundary data.

    All callables are vectorized over points of shape (..., 2).
    `neumann` receives the outward unit normals alongside the points and
    returns the boundary traction (the negative normal stress).
    `mass_source` is None when there is no mass source.
    """

    viscosity: float
    body_force: callable = _zero_vector_field
    dirichlet: callable = _zero_vector_field
    neumann: callable = _zero_traction
    mass_source: callable | None = None


def _piece_averages():
    """Basis values, reference gradients and hats averaged over each reference piece."""
    pts, _ = _segment_quad(REFERENCE_PIECES[:, 0], REFERENCE_PIECES[:, 1])   # (12, 2, 2)
    ev = _eval_unchecked(pts)
    return ev.values.mean(axis=1), ev.gradients.mean(axis=1), barycentric(pts).mean(axis=1)


_PIECE_VALUES, _PIECE_GRADIENTS, _PIECE_HATS = _piece_averages()


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


def split_solution(disc: GridDiscretization, x: np.ndarray):
    """Split a solution vector into velocity (n_u, 2) and pressure (n_p,)."""
    n_u = disc.n_velocity_locations
    vel = x[: 2 * n_u].reshape(n_u, 2)
    return vel, x[2 * n_u :]


def _faces(cvset: ControlVolumeSet):
    """Element, quadrature points and weights, unit normal of every face."""
    return cvset.face_element, cvset.face_qpoints, cvset.face_qweights, cvset.face_normal


def _segments(cvset: ControlVolumeSet):
    """Like `_faces`, for the boundary segments (outward normals)."""
    return cvset.seg_element, cvset.seg_qpoints, cvset.seg_qweights, cvset.seg_normal


def _mass_fluxes(disc, pieces, velocity):
    """Volume flux of v_h through pieces, (F,).

    Each piece lies in one element and carries a quadrature rule along it
    and a unit normal, as returned by `_faces` or `_segments`.
    """
    elements, qpoints, qweights, normals = pieces
    coeff = velocity[disc.element_velocity_dofs()[elements]]         # (F, 4, 2)
    vals = _eval_unchecked(to_reference(disc.elements, elements[:, None], qpoints)).values
    v = np.einsum("fqb,fbk->fqk", vals, coeff)
    return np.einsum("fq,fqk,fk->f", qweights, v, normals)


def _momentum_fluxes(disc, pieces, viscosity, velocity, pressure):
    """Momentum flux of (-2 mu D(v_h) + p_h I) through pieces, (F, 2)."""
    elements, qpoints, qweights, normals = pieces
    coeff = velocity[disc.element_velocity_dofs()[elements]]         # (F, 4, 2)
    _, grads, hats = basis_at(disc.elements, elements[:, None], qpoints)
    gradv = np.einsum("fqba,fbk->fqka", grads, coeff)
    sym = 0.5 * (gradv + np.swapaxes(gradv, 2, 3))
    p = np.einsum("fqj,fj->fq", hats, pressure[disc.mesh.triangles[elements]])
    mom = np.einsum("fq,fqka,fa->fk", qweights, -2.0 * viscosity * sym, normals)
    mom += np.einsum("fq,fq,fk->fk", qweights, p, normals)
    return mom


def face_fluxes(disc: GridDiscretization, cvset: ControlVolumeSet, viscosity, velocity, pressure):
    """Vectorized mass and momentum flux of every face of a CV set.

    Returns (mass (F,), momentum (F, 2)), oriented from inside to outside.
    """
    faces = _faces(cvset)
    return (
        _mass_fluxes(disc, faces, velocity),
        _momentum_fluxes(disc, faces, viscosity, velocity, pressure),
    )


@dataclass
class SaddleSystem:
    """Assembled saddle-point system [[A, B], [C, 0]] with right-hand side.

    A acts on velocity unknowns (2 per location, interleaved), B couples
    pressure into the momentum rows, C holds the mass balances.  Dirichlet
    rows of A are identity rows; `dirichlet_dofs` lists the scalar velocity
    dofs so constrained.  If a pressure unknown is pinned its mass row is
    replaced by an identity row stored in the otherwise empty block.
    `bubble_dofs` is the contiguous range of bubble velocity dofs, which
    the solvers eliminate element by element.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    rhs_momentum: np.ndarray
    rhs_mass: np.ndarray
    dirichlet_dofs: np.ndarray
    pinned_pressure: int | None = None
    bubble_dofs: range = range(0)
    _matrix: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def n_velocity(self) -> int:
        return self.A.shape[0]

    @property
    def n_pressure(self) -> int:
        return self.C.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.n_velocity + self.n_pressure

    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            n_p = self.n_pressure
            if self.pinned_pressure is None:
                D = None
            else:
                k = self.pinned_pressure
                D = sp.coo_matrix(([1.0], ([k], [k])), shape=(n_p, n_p))
            self._matrix = sp.bmat([[self.A, self.B], [self.C, D]], format="csr")
        return self._matrix

    def rhs(self) -> np.ndarray:
        return np.concatenate((self.rhs_momentum, self.rhs_mass))

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.rhs() - self.matrix() @ x


def _append(out, rows, cols, vals):
    """Append COO triplets; the row and column ids broadcast to the entries."""
    out[0].append(np.broadcast_to(rows, vals.shape).ravel())
    out[1].append(np.broadcast_to(cols, vals.shape).ravel())
    out[2].append(vals.ravel())


def _xy(ids):
    """Scalar unknown ids (..., 2) of both velocity components at locations `ids`."""
    return 2 * ids[..., None] + np.arange(2)


def _flux_momentum_entries(disc, cvset, mu, outA, outB):
    """Momentum flux-balance entries from the interior faces of a CV set.

    A entries are indexed [face, trial, row comp, col comp], B entries
    [face, hat, row comp]; the outside volume takes them negated.
    """
    e = cvset.face_element
    nl = cvset.face_normal * cvset.face_length[:, None]
    grads = _PIECE_GRADIENTS[cvset.face_slot] @ disc.elements.inv_jacobians[e]   # (F, 4, 2)
    gn = grads[:, :, 0] * nl[:, None, 0] + grads[:, :, 1] * nl[:, None, 1]
    Apair = -mu * (gn[:, :, None, None] * np.eye(2) + grads[:, :, :, None] * nl[:, None, None, :])
    Bpair = _PIECE_HATS[cvset.face_slot][:, :, None] * nl[:, None, :]

    dofs = _xy(disc.element_velocity_dofs()[e])
    tris = disc.mesh.triangles[e]
    has_out = cvset.face_outside >= 0
    for sel, row_cv, sign in ((slice(None), cvset.face_inside, 1.0), (has_out, cvset.face_outside[has_out], -1.0)):
        rows = _xy(row_cv)[:, None]
        _append(outA, rows[..., None], dofs[sel][:, :, None], sign * Apair[sel])
        _append(outB, rows, tris[sel][:, :, None], sign * Bpair[sel])


def _mass_pairs(slots, normals, lengths):
    """Volume-flux entries [piece, trial, component] of pieces in reference slots."""
    nl = normals * lengths[:, None]
    return _PIECE_VALUES[slots][:, :, None] * nl[:, None, :]


def _mass_entries(disc, cvset, outC):
    """Mass flux-balance entries: interior faces plus boundary segments."""
    eldofs = disc.element_velocity_dofs()
    face = _mass_pairs(cvset.face_slot, cvset.face_normal, cvset.face_length)
    has_out = cvset.face_outside >= 0
    for pair, elements, row_cv in (
        (face, cvset.face_element, cvset.face_inside),
        (-face[has_out], cvset.face_element[has_out], cvset.face_outside[has_out]),
        (_mass_pairs(cvset.seg_slot, cvset.seg_normal, cvset.seg_length), cvset.seg_element, cvset.seg_cv),
    ):
        _append(outC, row_cv[:, None, None], _xy(eldofs[elements]), pair)


def _fan_triangles(cvset):
    """Decompose sub-volumes into signed fan triangles from their first vertex."""
    polys = cvset.scv_polys
    cv = cvset.scv_cv
    quad = cvset.scv_nverts == 4
    tris = [polys[:, :3]]
    owners = [cv]
    if np.any(quad):
        tris.append(polys[quad][:, [0, 2, 3]])
        owners.append(cv[quad])
    return np.concatenate(tris), np.concatenate(owners)


def _integrate_over_cvs(cvset, func):
    """Integral of a scalar or vector field over each control volume id."""
    tris, owners = _fan_triangles(cvset)
    rule = triangle_rule(SOURCE_QUAD_DEGREE)
    p0 = tris[:, 0]
    d1 = tris[:, 1] - p0
    d2 = tris[:, 2] - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    pts = (
        p0[:, None, :]
        + rule.points[None, :, 0, None] * d1[:, None, :]
        + rule.points[None, :, 1, None] * d2[:, None, :]
    )
    w = rule.weights[None, :] * det[:, None]
    vals = np.asarray(func(pts.reshape(-1, 2)), dtype=float)
    vals = vals.reshape(pts.shape[:2] + vals.shape[1:])
    out = np.zeros((cvset.n_cvs,) + vals.shape[2:])
    np.add.at(out, owners, np.einsum("tq,tq...->t...", w, vals))
    return out


def _mass_source_integrals(cvset, problem) -> np.ndarray:
    """Integral of the mass source over each control volume; zeros without a source."""
    if problem.mass_source is None:
        return np.zeros(cvset.n_cvs)
    return _integrate_over_cvs(cvset, problem.mass_source)


def _traction_hats():
    """Vertex hats at the traction rule's points on each reference piece, (12, nq, 3)."""
    t = segment_rule(NEUMANN_QUAD_DEGREE).points[:, None]
    a, b = REFERENCE_PIECES[:, None, 0], REFERENCE_PIECES[:, None, 1]
    return barycentric(a + t * (b - a))


_TRACTION_HATS = _traction_hats()


def segment_tractions(disc, problem):
    """Traction integrals over the boundary half-segments, zero on Dirichlet ones.

    Every control-volume family shares the segments of `disc.pressure`.
    Returns the plain integrals (S, 2) and the integrals against the three
    vertex hats of each segment's element (S, 3, 2).
    """
    segs = disc.pressure
    plain = np.zeros((segs.n_segments, 2))
    hats = np.zeros((segs.n_segments, 3, 2))
    kinds = np.array([disc.mesh.markers[name] is BCKind.NEUMANN for name in segs.marker_names])
    neu = kinds[segs.seg_marker]
    if np.any(neu):
        a = segs.seg_a[neu]
        b = segs.seg_b[neu]
        rule = segment_rule(NEUMANN_QUAD_DEGREE)
        pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
        w = rule.weights[None, :] * segs.seg_length[neu][:, None]
        nn = np.broadcast_to(segs.seg_normal[neu][:, None, :], pts.shape)
        tn = np.asarray(problem.neumann(pts.reshape(-1, 2), nn.reshape(-1, 2)), dtype=float)
        tn = tn.reshape(pts.shape)
        plain[neu] = np.einsum("sq,sqk->sk", w, tn)
        hats[neu] = np.einsum("sq,sqj,sqk->sjk", w, _TRACTION_HATS[segs.seg_slot[neu]], tn)
    return plain, hats


def _galerkin_momentum(disc, problem, tests, outA, outB, load):
    """Galerkin momentum rows for the given local test functions (0..3).

    Loads accumulate into `load`, one (x, y) pair per velocity location.

    The element matrices come from reference-element tensors, integrated
    once with the degree-6 rule and mapped by each element's inverse
    Jacobian and 2 * area:

        K[t, b, i, j] = sum_q w_q d_i phi_b d_j phi_t
        L[t, j, i]    = sum_q w_q lambda_j d_i phi_t

    The vertex hats also take the traction load; the bubble has zero trace.
    """
    mu = float(problem.viscosity)
    el = disc.elements
    ne = disc.mesh.n_elements
    eldofs = disc.element_velocity_dofs()
    rule = triangle_rule(SOURCE_QUAD_DEGREE)
    ev = _eval_unchecked(rule.points)
    lam = barycentric(rule.points)      # (nq, 3)
    w = rule.weights

    tests = np.asarray(tests, dtype=np.int64)
    T = tests.size
    gt = ev.gradients[:, tests]         # (nq, T, 2)
    K = np.einsum("q,qbi,qtj->tbij", w, ev.gradients, gt)
    # The trial functions sum to one, so the rows of K sum to zero.  The
    # quadrature leaves the same rounding residue in every element, which
    # adds up coherently over a mesh; taking trial 0 from the other three
    # keeps the identity.
    K[:, 0] = -K[:, 1:].sum(axis=1)
    L = np.einsum("q,qj,qti->tji", w, lam, gt)

    # Apair[e, t, a, b, k] multiplies trial (b, k) in the row of test (t, a):
    #   mu 2|e| sum_ij K[t, b, i, j] (inv[i, c] inv[j, c] delta_ak + inv[i, a] inv[j, k])
    inv = el.inv_jacobians
    Q = inv[:, :, None, :, None] * inv[:, None, :, None, :]          # [e, i, j, a, k]
    metric = Q[..., 0, 0] + Q[..., 1, 1]                              # [e, i, j]
    Q[..., 0, 0] += metric
    Q[..., 1, 1] += metric
    Q *= (mu * 2.0 * el.areas)[:, None, None, None, None]
    Apair = (Q.reshape(ne, 4, 4).swapaxes(1, 2) @ K.reshape(4 * T, 4).T)  # [e, ak, tb]
    Apair = Apair.reshape(ne, 2, 2, T, 4).transpose(0, 3, 1, 4, 2)
    # Bpair[e, t, a, j] = -2|e| sum_i L[t, j, i] inv[i, a]
    Bpair = np.swapaxes(inv, 1, 2)[:, None] @ np.swapaxes(L, 1, 2)[None]     # [e, t, a, j]
    Bpair *= (-2.0 * el.areas)[:, None, None, None]

    rows = _xy(eldofs[:, tests])        # (ne, T, 2)
    _append(outA, rows[..., None, None], _xy(eldofs)[:, None, None], Apair)
    _append(outB, rows[..., None], disc.mesh.triangles[:, None, None], Bpair)

    wdet = w[None, :] * (2.0 * el.areas)[:, None]
    pts = el.coords[:, :1] + rule.points @ np.swapaxes(el.jacobians, 1, 2)
    fv = np.asarray(problem.body_force(pts.reshape(-1, 2)), dtype=float).reshape(ne, -1, 2)
    rhs_el = ev.values[:, tests].T @ (wdet[:, :, None] * fv)        # (ne, T, 2)
    np.add.at(load, eldofs[:, tests].T, rhs_el.swapaxes(0, 1))
    if min(tests) < 3:
        tris = disc.mesh.triangles[disc.pressure.seg_element]
        np.subtract.at(load, tris, segment_tractions(disc, problem)[1])


def assemble(disc: GridDiscretization, problem: StokesProblem, pin_pressure: int | None = None) -> SaddleSystem:
    """Assemble the saddle-point system of the discretization's scheme.

    With no Neumann boundary the pressure is only determined up to a
    constant; in that case a pressure unknown must be pinned explicitly via
    `pin_pressure` (its mass row becomes p_k = 0), otherwise a
    ConfigurationError is raised.
    """
    mesh = disc.mesh
    mu = float(problem.viscosity)
    n_u = disc.n_velocity_locations
    n_p = disc.n_pressure_dofs

    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigurationError(f"viscosity must be finite and positive, got {mu}")
    has_neumann = any(kind is BCKind.NEUMANN for kind in mesh.markers.values())
    if not has_neumann and pin_pressure is None:
        raise ConfigurationError(
            "all boundary markers are Dirichlet; the pressure is defined only up "
            "to a constant, pass pin_pressure to fix one pressure unknown"
        )
    if pin_pressure is not None and not 0 <= pin_pressure < n_p:
        raise ConfigurationError(f"pin_pressure index {pin_pressure} out of range")

    outA = ([], [], [])
    outB = ([], [], [])
    outC = ([], [], [])
    rhs_u = np.zeros(2 * n_u)
    load = rhs_u.reshape(n_u, 2)

    spec = disc.scheme.spec
    if spec.flux_momentum:
        vset = disc.velocity
        _flux_momentum_entries(disc, vset, mu, outA, outB)
        load[: vset.n_cvs] += _integrate_over_cvs(vset, problem.body_force)
        np.subtract.at(load, vset.seg_cv, segment_tractions(disc, problem)[0])
    if spec.galerkin_tests:
        _galerkin_momentum(disc, problem, spec.galerkin_tests, outA, outB, load)

    _mass_entries(disc, disc.pressure, outC)
    rhs_p = _mass_source_integrals(disc.pressure, problem)

    # Dirichlet rows become identity rows on both components of marked
    # vertices; a pinned pressure's mass row becomes p_k = 0.
    dverts = mesh.dirichlet_vertices()
    ddofs = _xy(dverts).ravel()
    drop_u = np.zeros(2 * n_u, dtype=bool)
    drop_u[ddofs] = True
    drop_p = np.zeros(n_p, dtype=bool)
    if pin_pressure is not None:
        drop_p[pin_pressure] = True
        rhs_p[pin_pressure] = 0.0
    if dverts.size:
        load[dverts] = np.asarray(problem.dirichlet(mesh.vertices[dverts]), dtype=float)

    def finalize(out, shape, drop):
        rows, cols, vals = (np.concatenate(col) for col in out)
        vals[drop[rows]] = 0.0
        M = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        M.eliminate_zeros()    # the dropped rows and entries that cancel exactly
        return M

    A = finalize(outA, (2 * n_u, 2 * n_u), drop_u)
    B = finalize(outB, (2 * n_u, n_p), drop_u)
    A = (A + sp.coo_matrix((np.ones(ddofs.size), (ddofs, ddofs)), shape=A.shape)).tocsr()
    C = finalize(outC, (n_p, 2 * n_u), drop_p)

    return SaddleSystem(
        A=A,
        B=B,
        C=C,
        rhs_momentum=rhs_u,
        rhs_mass=rhs_p,
        dirichlet_dofs=ddofs,
        pinned_pressure=pin_pressure,
        bubble_dofs=range(2 * mesh.n_vertices, 2 * n_u),
    )

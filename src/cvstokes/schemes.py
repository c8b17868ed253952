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
source integral.  Dirichlet conditions replace the momentum rows of
boundary vertices with identity rows (columns are kept, which preserves
the exact mass balance of boundary boxes); traction data enters the
right-hand side of Neumann boundary pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import _eval_unchecked, barycentric, segment_rule, triangle_rule
from .geometry import (
    ControlVolumeSet,
    ElementData,
    GridDiscretization,
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


def _zero_scalar_field(points: np.ndarray) -> np.ndarray:
    return np.zeros(np.asarray(points).shape[:-1])


@dataclass
class StokesProblem:
    """Problem data: viscosity, sources, and boundary data.

    All callables are vectorized over points of shape (..., 2).
    `neumann` receives the outward unit normals alongside the points and
    returns the boundary traction (the negative normal stress).
    """

    viscosity: float
    body_force: callable = _zero_vector_field
    dirichlet: callable = _zero_vector_field
    neumann: callable = _zero_traction
    mass_source: callable = _zero_scalar_field


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


def _fluxes(disc, elements, qpoints, qweights, normals, viscosity, velocity, pressure):
    """Mass and momentum flux of v_h and (-2 mu D(v_h) + p_h I) through pieces.

    Each piece lies in one element and carries a quadrature rule along it
    and a unit normal; returns (mass (F,), momentum (F, 2)).
    """
    dofs = disc.element_velocity_dofs()[elements]           # (F, 4)
    vals, grads, hats = basis_at(disc.elements, elements[:, None], qpoints)
    coeff = velocity[dofs]                                # (F, 4, 2)

    v = np.einsum("fqb,fbk->fqk", vals, coeff)
    mass = np.einsum("fq,fqk,fk->f", qweights, v, normals)

    gradv = np.einsum("fqba,fbk->fqka", grads, coeff)
    sym = 0.5 * (gradv + np.swapaxes(gradv, 2, 3))
    p = np.einsum("fqj,fj->fq", hats, pressure[disc.mesh.triangles[elements]])
    mom = np.einsum("fq,fqka,fa->fk", qweights, -2.0 * viscosity * sym, normals)
    mom += np.einsum("fq,fq,fk->fk", qweights, p, normals)
    return mass, mom


def face_fluxes(disc: GridDiscretization, cvset: ControlVolumeSet, viscosity, velocity, pressure):
    """Vectorized mass and momentum flux of every face of a CV set.

    Returns (mass (F,), momentum (F, 2)), oriented from inside to outside.
    """
    return _fluxes(
        disc, cvset.face_element, cvset.face_qpoints, cvset.face_qweights, cvset.face_normal,
        viscosity, velocity, pressure,
    )


def segment_fluxes(disc: GridDiscretization, cvset: ControlVolumeSet, viscosity, velocity, pressure):
    """Like `face_fluxes`, for the boundary segments (outward normals)."""
    return _fluxes(
        disc, cvset.seg_element, cvset.seg_qpoints, cvset.seg_qweights, cvset.seg_normal,
        viscosity, velocity, pressure,
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


def _scatter_A(pair, row_cv, dofcols, sign, out):
    """Scatter (F, 4, 2, 2) momentum entries indexed [face, trial, row comp, col comp]."""
    rows = (2 * row_cv)[:, None, None, None] + np.arange(2)[None, None, :, None]
    cols = (2 * dofcols)[:, :, None, None] + np.arange(2)[None, None, None, :]
    shape = pair.shape
    out[0].append(np.broadcast_to(rows, shape).ravel())
    out[1].append(np.broadcast_to(cols, shape).ravel())
    out[2].append(sign * pair.reshape(-1))


def _scatter_B(pair, row_cv, tris, sign, out):
    """Scatter (F, 3, 2) pressure-coupling entries indexed [face, hat, row comp]."""
    rows = (2 * row_cv)[:, None, None] + np.arange(2)[None, None, :]
    cols = np.broadcast_to(tris[:, :, None], pair.shape)
    out[0].append(np.broadcast_to(rows, pair.shape).ravel())
    out[1].append(cols.ravel())
    out[2].append(sign * pair.reshape(-1))


def _flux_momentum_entries(disc, cvset, mu, outA, outB):
    """Momentum flux-balance entries from the interior faces of a CV set."""
    e = cvset.face_element
    dofcols = disc.element_velocity_dofs()[e]
    _, grads, hats = basis_at(disc.elements, e[:, None], cvset.face_qpoints)
    n = cvset.face_normal
    w = cvset.face_qweights

    gn = np.einsum("fqba,fa->fqb", grads, n)
    term1 = np.einsum("fq,fqb->fb", w, gn)
    term2 = np.einsum("fq,fqba,fk->fbak", w, grads, n)
    Apair = -mu * (term1[:, :, None, None] * np.eye(2)[None, None] + term2)
    Bpair = np.einsum("fq,fqj,fa->fja", w, hats, n)

    tris = disc.mesh.triangles[e]
    inside = cvset.face_inside
    _scatter_A(Apair, inside, dofcols, 1.0, outA)
    _scatter_B(Bpair, inside, tris, 1.0, outB)

    has_out = cvset.face_outside >= 0
    if np.any(has_out):
        outside = cvset.face_outside[has_out]
        _scatter_A(Apair[has_out], outside, dofcols[has_out], -1.0, outA)
        _scatter_B(Bpair[has_out], outside, tris[has_out], -1.0, outB)


def _mass_entries(disc, cvset, outC):
    """Mass flux-balance entries: interior faces plus boundary segments."""
    e = cvset.face_element
    dofcols = disc.element_velocity_dofs()[e]
    vals, _, _ = basis_at(disc.elements, e[:, None], cvset.face_qpoints)
    pair = np.einsum("fq,fqb,fk->fbk", cvset.face_qweights, vals, cvset.face_normal)

    def scatter(p, row_cv, dc, sign):
        rows = np.broadcast_to(row_cv[:, None, None], p.shape)
        cols = (2 * dc)[:, :, None] + np.arange(2)[None, None, :]
        outC[0].append(rows.ravel())
        outC[1].append(np.broadcast_to(cols, p.shape).ravel())
        outC[2].append(sign * p.reshape(-1))

    scatter(pair, cvset.face_inside, dofcols, 1.0)
    has_out = cvset.face_outside >= 0
    if np.any(has_out):
        scatter(pair[has_out], cvset.face_outside[has_out], dofcols[has_out], -1.0)

    if cvset.n_segments:
        es = cvset.seg_element
        dofcols_s = disc.element_velocity_dofs()[es]
        vals_s, _, _ = basis_at(disc.elements, es[:, None], cvset.seg_qpoints)
        pair_s = np.einsum("sq,sqb,sk->sbk", cvset.seg_qweights, vals_s, cvset.seg_normal)
        scatter(pair_s, cvset.seg_cv, dofcols_s, 1.0)


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


def _integrate_over_cvs(cvset, func, n_components):
    """Integral of a (vector) field over each control volume id."""
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
    if n_components == 1:
        vals = vals.reshape(pts.shape[:2])
        contrib = np.einsum("tq,tq->t", w, vals)
        total = np.zeros(cvset.n_cvs)
        np.add.at(total, owners, contrib)
        return total
    vals = vals.reshape(pts.shape[:2] + (n_components,))
    contrib = np.einsum("tq,tqk->tk", w, vals)
    total = np.zeros((cvset.n_cvs, n_components))
    np.add.at(total, owners, contrib)
    return total


def segment_tractions(disc, cvset, problem) -> np.ndarray:
    """Integral of the traction data over each boundary segment, (S, 2).

    Segments on Dirichlet boundaries get zero.
    """
    out = np.zeros((cvset.n_segments, 2))
    kinds = np.array(
        [disc.mesh.markers[name] is BCKind.NEUMANN for name in cvset.marker_names]
    )
    neu = kinds[cvset.seg_marker]
    if not np.any(neu):
        return out
    a = cvset.seg_a[neu]
    b = cvset.seg_b[neu]
    rule = segment_rule(NEUMANN_QUAD_DEGREE)
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    w = rule.weights[None, :] * cvset.seg_length[neu][:, None]
    nn = np.broadcast_to(cvset.seg_normal[neu][:, None, :], pts.shape)
    tn = np.asarray(problem.neumann(pts.reshape(-1, 2), nn.reshape(-1, 2)), dtype=float)
    out[neu] = np.einsum("sq,sqk->sk", w, tn.reshape(pts.shape))
    return out


def _neumann_galerkin_rhs(disc, problem, rhs_u):
    """Traction data tested with the vertex hat traces (fem scheme)."""
    mesh = disc.mesh
    kinds = mesh.facet_kinds()
    neu = np.array([k is BCKind.NEUMANN for k in kinds])
    if not np.any(neu):
        return
    facets = mesh.boundary_facets[neu]
    va = mesh.vertices[facets[:, 0]]
    vb = mesh.vertices[facets[:, 1]]
    d = vb - va
    length = np.linalg.norm(d, axis=1)
    normal = np.stack((d[:, 1], -d[:, 0]), axis=-1) / length[:, None]
    rule = segment_rule(NEUMANN_QUAD_DEGREE)
    pts = va[:, None, :] + rule.points[None, :, None] * d[:, None, :]
    w = rule.weights[None, :] * length[:, None]
    nn = np.broadcast_to(normal[:, None, :], pts.shape)
    tn = np.asarray(problem.neumann(pts.reshape(-1, 2), nn.reshape(-1, 2)), dtype=float)
    tn = tn.reshape(pts.shape)
    hat_a = 1.0 - rule.points
    contrib_a = np.einsum("sq,q,sqk->sk", w, hat_a, tn)
    contrib_b = np.einsum("sq,q,sqk->sk", w, rule.points, tn)
    for verts, contrib in ((facets[:, 0], contrib_a), (facets[:, 1], contrib_b)):
        np.add.at(rhs_u, 2 * verts, -contrib[:, 0])
        np.add.at(rhs_u, 2 * verts + 1, -contrib[:, 1])


def _galerkin_momentum(disc, problem, tests, outA, outB, rhs_u):
    """Galerkin momentum rows for the given local test functions (0..3).

    The vertex hats also take the traction load; the bubble has zero trace.
    """
    mu = float(problem.viscosity)
    el = disc.elements
    ne = disc.mesh.n_elements
    eldofs = disc.element_velocity_dofs()
    rule = triangle_rule(SOURCE_QUAD_DEGREE)
    ev = _eval_unchecked(rule.points)
    V = ev.values                       # (nq, 4)
    lam = barycentric(rule.points)      # (nq, 3)
    G = np.einsum("qbi,eia->eqba", ev.gradients, el.inv_jacobians)
    wdet = rule.weights[None, :] * (2.0 * el.areas)[:, None]

    tests = np.asarray(tests, dtype=np.int64)
    Gt = G[:, :, tests, :]              # (ne, nq, T, 2)
    dot = np.einsum("eq,eqbi,eqti->etb", wdet, G, Gt)
    term2 = np.einsum("eq,eqba,eqtk->etabk", wdet, G, Gt)
    Apair = mu * (dot[:, :, None, :, None] * np.eye(2)[None, None, :, None, :] + term2)
    # Apair[e, t, a, b, k] multiplies trial (b, k) in the row of test (t, a)
    Bpair = -np.einsum("eq,qj,eqta->etaj", wdet, lam, Gt)

    rows_t = eldofs[:, tests]           # (ne, T)
    rows = (2 * rows_t)[:, :, None, None, None] + np.arange(2)[None, None, :, None, None]
    cols = (2 * eldofs)[:, None, None, :, None] + np.arange(2)[None, None, None, None, :]
    outA[0].append(np.broadcast_to(rows, Apair.shape).ravel())
    outA[1].append(np.broadcast_to(cols, Apair.shape).ravel())
    outA[2].append(Apair.reshape(-1))

    rowsB = (2 * rows_t)[:, :, None, None] + np.arange(2)[None, None, :, None]
    colsB = np.broadcast_to(
        disc.mesh.triangles[:, None, None, :], Bpair.shape
    )
    outB[0].append(np.broadcast_to(rowsB, Bpair.shape).ravel())
    outB[1].append(colsB.ravel())
    outB[2].append(Bpair.reshape(-1))

    pts = el.coords[:, 0][:, None, :] + np.einsum("eai,qi->eqa", el.jacobians, rule.points)
    fv = np.asarray(problem.body_force(pts.reshape(-1, 2)), dtype=float).reshape(ne, -1, 2)
    rhs_el = np.einsum("eq,qt,eqk->etk", wdet, V[:, tests], fv)
    for ti, t in enumerate(tests):
        np.add.at(rhs_u, 2 * eldofs[:, t], rhs_el[:, ti, 0])
        np.add.at(rhs_u, 2 * eldofs[:, t] + 1, rhs_el[:, ti, 1])
    if min(tests) < 3:
        _neumann_galerkin_rhs(disc, problem, rhs_u)


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

    has_neumann = any(kind is BCKind.NEUMANN for kind in mesh.markers.values())
    if not has_neumann and pin_pressure is None:
        raise ConfigurationError(
            "all boundary markers are Dirichlet; the pressure is defined only up "
            "to a constant, pass pin_pressure to fix one pressure unknown"
        )

    outA = ([], [], [])
    outB = ([], [], [])
    outC = ([], [], [])
    rhs_u = np.zeros(2 * n_u)
    rhs_p = np.zeros(n_p)

    spec = disc.scheme.spec
    if spec.flux_momentum:
        vset = disc.velocity
        _flux_momentum_entries(disc, vset, mu, outA, outB)
        load = _integrate_over_cvs(vset, problem.body_force, 2)
        np.add.at(load, vset.seg_cv, -segment_tractions(disc, vset, problem))
        rhs_u[: 2 * vset.n_cvs] = load.ravel()
    if spec.galerkin_tests:
        _galerkin_momentum(disc, problem, spec.galerkin_tests, outA, outB, rhs_u)

    _mass_entries(disc, disc.pressure, outC)
    rhs_p[:] = _integrate_over_cvs(disc.pressure, problem.mass_source, 1)

    # Dirichlet rows: identity on both components of marked vertices.
    dverts = mesh.dirichlet_vertices()
    ddofs = np.stack((2 * dverts, 2 * dverts + 1), axis=1).ravel()
    dmask = np.zeros(2 * n_u, dtype=bool)
    dmask[ddofs] = True

    def finalize(out, shape, drop_dirichlet_rows):
        rows, cols, vals = (np.concatenate(col) for col in out)
        if drop_dirichlet_rows:
            keep = ~dmask[rows]
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()

    A = finalize(outA, (2 * n_u, 2 * n_u), True)
    B = finalize(outB, (2 * n_u, n_p), True)
    A = (A + sp.coo_matrix((np.ones(ddofs.size), (ddofs, ddofs)), shape=A.shape)).tocsr()
    if dverts.size:
        dvals = np.asarray(problem.dirichlet(mesh.vertices[dverts]), dtype=float)
        rhs_u[ddofs] = dvals.reshape(-1)

    if pin_pressure is not None:
        if not 0 <= pin_pressure < n_p:
            raise ConfigurationError(f"pin_pressure index {pin_pressure} out of range")
        C = finalize(outC, (n_p, 2 * n_u), False).tolil()
        C[pin_pressure, :] = 0.0
        C = C.tocsr()
        C.eliminate_zeros()
        rhs_p[pin_pressure] = 0.0
    else:
        C = finalize(outC, (n_p, 2 * n_u), False)

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

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
boundary boxes).

A scheme is its reference tensors (`_SCHEME_TENSORS`) and its load rule
(`_SCHEME_LOADS`), computed once at import from `geometry.SCHEME_SPECS`:
per local test a momentum tensor (trial, 2, 2), a pressure tensor (hat, 2)
and body-force weights, and one box volume-flux tensor (box, trial, 2).
A Galerkin row holds the degree-6 integrals of its test's gradient against
the trials' gradients and the hats, and its test times the degree-6 element
rule.  A flux row sums the flux through its face rows
(`geometry.REFERENCE_FACES`), plus as their inside owner and minus as their
outside one, and takes its sub-volume's row of the 28-point degree-6 rule of
every control-volume source (`_SOURCE_RULES`, derived from the degree-6 rule
on the fan triangles of `geometry.REFERENCE_CELLS`).  The flux through one of
the twelve reference pieces (`geometry.REFERENCE_PIECES`) is a reference
tensor too: the basis averaged over the piece (two Gauss points, exact for
the cubic basis) times r = rot(b - a), since by the cofactor identity a
physical piece's n |piece| = rot(J (b - a)) is 2|e| J^-T r.  `_map_momentum`
(by `_momentum_metric`) and `_map_vectors` map any tensor by each element's
inverse Jacobian and 2|e|, A_e = A0 : G_e (Kirby & Logg, ACM TOMS 32(3),
2006), into owner-major element blocks [owner, e, trial, comp, comp], which
go straight into CSR on one pattern per assembly (`_closure`,
`_closure_csr`).  The audit builds the metric once and contracts each face
row's mapped tensors with a solution, one slot over all elements at a time
(`_mass_flux_slots`, `_momentum_flux_slots`).  Volume integrals map a
reference rule by each element's X0 + J xi, `_BLOCK` elements at a time: the
load in one pass per assembly, a control-volume source by its family's rows.
Traction data enters through one (S, 3, 2) array over the boundary
half-segments (`segment_tractions`), tested as the load rule says: with the
indicator of the segment's vertex end for flux rows, the vertex hats for
Galerkin rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr

from .basis import _eval_unchecked, barycentric, segment_rule, triangle_rule
from .geometry import (
    REFERENCE_CELLS,
    REFERENCE_FACES,
    REFERENCE_PIECES,
    SCHEME_SPECS,
    SEGMENT_OWNERS,
    ElementData,
    GridDiscretization,
    to_physical,
)
from .mesh import BCKind

SOURCE_QUAD_DEGREE = 6
NEUMANN_QUAD_DEGREE = 5
# Elements per block of the volume kernels (`_integrate_elements`).
_BLOCK = 512


class ConfigurationError(ValueError):
    pass


def _checked_viscosity(viscosity) -> float:
    """The viscosity as a float; ConfigurationError unless it is a finite, positive real number."""
    mu = float(viscosity) if isinstance(viscosity, numbers.Real) else np.nan
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigurationError(f"viscosity must be finite and positive, got {viscosity!r}")
    return mu


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


def _piece_points(degree):
    """The points of the degree-`degree` Gauss rule on each reference piece, (12, nq, 2)."""
    t = segment_rule(degree).points[:, None]
    a, b = REFERENCE_PIECES[:, None, 0], REFERENCE_PIECES[:, None, 1]
    return a + t * (b - a)


def _slot_tensors():
    """The flux through each reference piece, from its inside to its outside,
    as reference tensors: momentum (12, trial, 2, 2), pressure (12, hat, 2)
    and volume (12, trial, 2), from the basis averaged over the piece."""
    points = _piece_points(3)
    ev = _eval_unchecked(points)
    d = REFERENCE_PIECES[:, 1] - REFERENCE_PIECES[:, 0]
    r = np.stack((d[:, 1], -d[:, 0]), axis=-1)[:, None]
    momentum = -ev.gradients.mean(axis=1)[..., None] * r[..., None, :]
    return momentum, barycentric(points).mean(axis=1)[..., None] * r, ev.values.mean(axis=1)[..., None] * r


_SLOT_MOMENTUM, _SLOT_PRESSURE, _SLOT_VOLUME = _slot_tensors()


def _owner_tensors(family, slot_tensors):
    """The flux balances of local owners 0-3 of a family: each face row's
    slot tensor enters its inside owner and leaves its outside owner (the
    owner "none" keeps nothing)."""
    signs = np.zeros((5, len(slot_tensors)))
    for slot, inside, outside in REFERENCE_FACES[family]:
        signs[inside, slot] += 1.0
        signs[outside, slot] -= 1.0
    return np.tensordot(signs[:4], slot_tensors, axes=1)


def _volume_rule(cells):
    """The degree-6 rule on the fan triangles (from the first vertex) of a
    family's reference sub-volumes: points (nq, 2), weights (rows, nq)."""
    rule = triangle_rule(SOURCE_QUAD_DEGREE)
    fans = [(row, poly[[0, k, k + 1]]) for row, poly in enumerate(cells) for k in range(1, len(poly) - 1)]
    points, weights = [], np.zeros((len(cells), len(fans), rule.weights.size))
    for i, (row, (p0, p1, p2)) in enumerate(fans):
        d = np.column_stack((p1 - p0, p2 - p0))
        points.append(p0 + rule.points @ d.T)
        weights[row, i] = rule.weights * np.linalg.det(d)
    return np.concatenate(points), weights.reshape(len(cells), -1)


def _vandermonde(points):
    """The products P_a(2x - 1) P_b(2y - 1) of Legendre polynomials of total
    degree a + b <= 6 at points (n, 2): (n, 28)."""
    d = SOURCE_QUAD_DEGREE
    V = np.polynomial.legendre.legvander2d(2.0 * points[:, 0] - 1.0, 2.0 * points[:, 1] - 1.0, [d, d])
    return V[:, (np.arange(d + 1)[:, None] + np.arange(d + 1)).ravel() <= d]


def _compressed_rules(rules):
    """One 28-point degree-6 rule that every family shares, from the fan rules.

    The points are approximate Fekete points of the union of the fan points:
    QR with column pivoting of the transposed Vandermonde matrix picks 28 of
    them (Bos, De Marchi, Sommariva & Vianello, SIAM J. Numer. Anal. 48,
    2010).  Each sub-volume row's weights then reproduce that row's fan-rule
    moments of the degree-6 basis (Sommariva & Vianello, Numer. Funct. Anal.
    Optim., 2015), so the rule is exact to degree 6 like the fan rule.
    """
    fan = np.concatenate([points for points, _ in rules.values()])
    V = _vandermonde(fan)
    pivots = qr(V.T, pivoting=True, mode="r")[1][: V.shape[1]]
    points = fan[pivots]
    V = _vandermonde(points).T
    return {family: (points, np.linalg.solve(V, _vandermonde(p).T @ w.T).T) for family, (p, w) in rules.items()}


# The 28-point rule of every control-volume source, from the fan rules
# (16 points per fan triangle: 96, 64 and 112 per element).
_SOURCE_RULES = _compressed_rules({family: _volume_rule(cells) for family, cells in REFERENCE_CELLS.items()})


# The Gauss rule of the traction on a boundary segment.
_TRACTION_RULE = segment_rule(NEUMANN_QUAD_DEGREE)


def _galerkin_tensors():
    """The Galerkin momentum and pressure tensors of the four local tests,
    integrated with the degree-6 rule:

        K[t, b, i, j] = sum_q w_q d_i phi_b d_j phi_t
        L[t, j, i]    = -sum_q w_q lambda_j d_i phi_t
    """
    rule = triangle_rule(SOURCE_QUAD_DEGREE)
    grads = _eval_unchecked(rule.points).gradients
    K = np.einsum("q,qbi,qtj->tbij", rule.weights, grads, grads)
    # The trial functions sum to one, so the rows of K sum to zero.  The
    # quadrature leaves the same rounding residue in every element, which
    # adds up coherently over a mesh; taking trial 0 from the other three
    # keeps the identity.
    K[:, 0] = -K[:, 1:].sum(axis=1)
    return K, -np.einsum("q,qj,qti->tji", rule.weights, barycentric(rule.points), grads)


def _scheme_tensors(spec):
    """A scheme's momentum tensor (test, trial, 2, 2) and pressure tensor
    (test, hat, 2): the Galerkin tensors in the rows of `galerkin_tests`,
    the flux balances of the velocity control volumes in the others."""
    K, L = _galerkin_tensors()
    flux = [t for t in range(4) if t not in spec.galerkin_tests]
    K[flux] = _owner_tensors(spec.velocity_cvs, _SLOT_MOMENTUM)[flux]
    L[flux] = _owner_tensors(spec.velocity_cvs, _SLOT_PRESSURE)[flux]
    return K, L


def _scheme_load(spec):
    """A scheme's load rule: body-force points (nq, 2) and weights (test, nq),
    and the traction tests of its vertex rows at the traction rule's points
    on each slot, (12, nq, 3).  A flux row takes its sub-volume's row of the
    source rule and the indicator of the slot's vertex end, a Galerkin row the
    degree-6 element rule times its basis function and the vertex hats; a
    scheme with rows of both kinds holds the two point sets side by side."""
    rule, galerkin = triangle_rule(SOURCE_QUAD_DEGREE), np.isin(np.arange(4), spec.galerkin_tests)[:, None]
    points, weights = _SOURCE_RULES[spec.velocity_cvs]
    flux = np.where(galerkin, 0.0, np.pad(weights, ((0, 4 - len(weights)), (0, 0))))
    element = np.where(galerkin, _eval_unchecked(rule.points).values.T * rule.weights, 0.0)
    sets = [(p, w) for p, w in ((points, flux), (rule.points, element)) if w.any()]
    indicators = (SEGMENT_OWNERS[:, None, None] == np.arange(3)).astype(float)
    return (np.concatenate([p for p, _ in sets]), np.concatenate([w for _, w in sets], axis=1),
            np.where(galerkin[:3, 0], barycentric(_piece_points(NEUMANN_QUAD_DEGREE)), indicators))


# Every scheme is its reference tensors and its load rule, and the pressure
# boxes' volume-flux tensor (box, trial, 2) is the same in all of them.
_SCHEME_TENSORS = {kind: _scheme_tensors(spec) for kind, spec in SCHEME_SPECS.items()}
_SCHEME_LOADS = {kind: _scheme_load(spec) for kind, spec in SCHEME_SPECS.items()}
_BOX_VOLUME = _owner_tensors("boxes", _SLOT_VOLUME)[:3]


def split_solution(disc: GridDiscretization, x: np.ndarray):
    """Split a solution vector into velocity (n_u, 2) and pressure (n_p,).

    Raises ValueError unless `x` has one entry per unknown of `disc`.
    """
    if np.ndim(x) != 1 or len(x) != disc.n_dofs:
        raise ValueError(f"solution vector has shape {np.shape(x)}, but the discretization has {disc.n_dofs} unknowns")
    n_u = disc.n_velocity_locations
    vel = x[: 2 * n_u].reshape(n_u, 2)
    return vel, x[2 * n_u :]


@dataclass(eq=False)
class SaddleSystem:
    """Assembled saddle-point system [[A, B], [C, D]] with right-hand side.

    A acts on velocity unknowns (2 per location, interleaved), B couples
    pressure into the momentum rows, C holds the mass balances and D is
    the pressure-pressure block.  Dirichlet rows of A are identity rows;
    `dirichlet_dofs` lists the scalar velocity dofs so constrained.  D
    holds the identity entry of a pinned pressure, whose mass row of C is
    empty, or no entries at all.  `bubble_dofs` is the contiguous range of
    bubble velocity dofs, the last ones, which the solvers eliminate
    element by element; `_elimination` keeps that elimination once a
    solver has built it from the blocks.  `matrix()` forms the full matrix
    for the tests and the benchmark's tracer; no solver calls it.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    D: sp.csr_matrix
    rhs_momentum: np.ndarray
    rhs_mass: np.ndarray
    dirichlet_dofs: np.ndarray
    bubble_dofs: range = range(0)
    _elimination: object = field(default=None, init=False, repr=False)

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
        return sp.bmat([[self.A, self.B], [self.C, self.D]], format="csr")

    def rhs(self) -> np.ndarray:
        return np.concatenate((self.rhs_momentum, self.rhs_mass))

    def residual(self, x: np.ndarray) -> np.ndarray:
        """rhs - J x, summed block by block: rhs - (A u + B p, C u + D p)."""
        u, p = x[: self.n_velocity], x[self.n_velocity :]
        r_u = self.rhs_momentum - (self.A @ u + self.B @ p)
        return np.concatenate((r_u, self.rhs_mass - (self.C @ u + self.D @ p)))


def _xy(ids):
    """Scalar unknown ids (..., 2) of both velocity components at locations `ids`."""
    return 2 * ids[..., None] + np.arange(2)


def _momentum_metric(eldata, mu, elements=slice(None)):
    """The metric [e, ak, ij] = mu 2|e| (inv[i, c] inv[j, c] delta_ak + inv[i, a] inv[j, k])
    of the elements in `elements`, by which `_map_momentum` maps momentum tensors."""
    inv = eldata.inv_jacobians[elements]
    Q = inv[:, :, None, :, None] * inv[:, None, :, None, :]          # [e, i, j, a, k]
    metric = Q[..., 0, 0] + Q[..., 1, 1]                              # [e, i, j]
    Q[..., 0, 0] += metric
    Q[..., 1, 1] += metric
    Q *= (mu * 2.0 * eldata.areas[elements])[:, None, None, None, None]
    return Q.reshape(-1, 4, 4).swapaxes(1, 2)


def _map_momentum(metric, K):
    """Momentum blocks [t, e, b, a, k] = sum_ij K[t, b, i, j] metric[e, ak, ij] of reference
    tensors K (T, trial, 2, 2): the entry multiplies trial (b, k) in the row of test or owner
    t, component a."""
    n, T = metric.shape[0], K.shape[0]
    A = metric @ K.reshape(4 * T, 4).T                                # [e, ak, tb]
    return A.reshape(n, 2, 2, T, 4).transpose(3, 0, 4, 1, 2)


def _map_vectors(eldata, T, elements=slice(None)):
    """Blocks [..., n, a] = 2|e| sum_i T[..., n, i] inv[i, a] of reference
    tensors T (..., n, 2) whose leading axes broadcast against the ids of
    `elements`: the blocks of B and C and every volume flux."""
    out = np.swapaxes(eldata.inv_jacobians[elements], -1, -2) @ np.swapaxes(T, -1, -2)
    out *= (2.0 * eldata.areas[elements])[:, None, None]
    return np.swapaxes(out, -1, -2)


def _mass_blocks(disc):
    """Element block C [box, e, trial, comp] of the pressure boxes' flux
    balances: the box tensor mapped by every element, and at a boundary
    segment its slot's volume flux, which leaves the box of its vertex end."""
    el = disc.elements
    C = _map_vectors(el, _BOX_VOLUME[:, None])
    e, slots = disc.pressure.seg_element, disc.pressure.seg_slot
    np.add.at(C, (SEGMENT_OWNERS[slots], e), _map_vectors(el, _SLOT_VOLUME[slots], e))
    return C


def _mass_flux_slots(disc, velocity):
    """Volume flux of v_h through the box faces, one (ne,) row per row of
    `REFERENCE_FACES["boxes"]`, and through the boundary segments, (S,)."""
    el, coeff = disc.elements, velocity[disc.element_velocity_dofs()]
    faces = [np.einsum("ebk,ebk->e", _map_vectors(el, _SLOT_VOLUME[slot]), coeff)
             for slot, _, _ in REFERENCE_FACES["boxes"]]
    e, slots = disc.pressure.seg_element, disc.pressure.seg_slot
    return faces, np.einsum("sbk,sbk->s", _map_vectors(el, _SLOT_VOLUME[slots], e), coeff[e])


def _momentum_flux_slots(disc, mu, velocity, pressure):
    """Momentum flux of (-2 mu D(v_h) + p_h I) through the faces of the velocity
    control volumes, one (ne, 2) row per row of `REFERENCE_FACES`."""
    el, metric = disc.elements, _momentum_metric(disc.elements, mu)
    u, p = velocity[disc.element_velocity_dofs()], pressure[disc.mesh.triangles]
    return [np.einsum("ebak,ebk->ea", _map_momentum(metric, _SLOT_MOMENTUM[[slot]])[0], u)
            + np.einsum("eja,ej->ea", _map_vectors(el, _SLOT_PRESSURE[slot]), p)
            for slot, _, _ in REFERENCE_FACES[disc.velocity.family]]


@dataclass(frozen=True, eq=False)
class _Closure:
    """The sparsity pattern of element closures over the velocity locations:
    the vertices, then one bubble per element.  Location r couples to
    location c when both belong to one element.  `indptr` and `cols` are its
    CSR structure, sorted within each row, so that the first vertex rows
    restricted to vertex columns are the pattern of the vertices alone.
    `slots[a, e, b]`, owner-major like the element blocks, is the entry of
    an element's local locations a and b (vertices 0-2, bubble 3), and
    `diagonal[r]` the entry of (r, r)."""

    indptr: np.ndarray
    cols: np.ndarray
    slots: np.ndarray
    diagonal: np.ndarray


def _closure(mesh) -> _Closure:
    """The closure pattern of the mesh's vertices and bubbles.

    A vertex row holds its lower edge neighbours, itself, its upper edge
    neighbours and the bubbles of its elements in element order: each edge
    of the sorted edge table is one entry in the row of its lower end and
    one in the row of its upper end.  A bubble row holds its element's
    vertices, sorted, then itself.
    """
    tri, nv, ne = mesh.triangles, mesh.n_vertices, mesh.n_elements
    nxt = np.roll(tri, -1, axis=1)                  # local edge k runs from vertex k to k + 1
    edges, edge = np.unique(np.minimum(tri, nxt) * nv + np.maximum(tri, nxt), return_inverse=True)
    edge = edge.reshape(ne, 3)
    lo, hi = np.divmod(edges, nv)
    above, below = np.bincount(lo, minlength=nv), np.bincount(hi, minlength=nv)
    incident = np.bincount(tri.ravel(), minlength=nv)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate((below + 1 + above + incident, np.full(ne, 4))))))
    diagonal = indptr[:-1] + np.concatenate((below, np.full(ne, 3)))
    ids = np.arange(edges.size)
    upper = diagonal[lo] + 1 + ids - np.concatenate(([0], np.cumsum(above)))[lo]
    by_hi = np.argsort(hi, kind="stable")
    lower = np.empty(edges.size, dtype=np.intp)
    lower[by_hi] = indptr[hi[by_hi]] + ids - np.concatenate(([0], np.cumsum(below)))[hi[by_hi]]
    cols = np.empty(indptr[-1], dtype=np.int32)
    cols[diagonal], cols[upper], cols[lower] = np.arange(nv + ne), hi, lo

    slots = np.empty((ne, 4, 4), dtype=np.intp)
    k, k1 = np.arange(3), (np.arange(3) + 1) % 3
    ascending = tri < nxt
    slots[:, k, k] = diagonal[tri]
    slots[:, k, k1] = np.where(ascending, upper[edge], lower[edge])
    slots[:, k1, k] = np.where(ascending, lower[edge], upper[edge])
    by_vertex = np.argsort(tri, axis=None, kind="stable")   # element order within each vertex
    rank = np.empty(by_vertex.size, dtype=np.intp)
    rank[by_vertex] = np.arange(by_vertex.size)
    slots[:, :3, 3] = (indptr[1 : nv + 1] - np.cumsum(incident))[tri] + rank.reshape(ne, 3)
    cols[slots[:, :3, 3]] = nv + np.arange(ne)[:, None]
    within = (tri > nxt).astype(np.intp) + (tri > np.roll(tri, 1, axis=1))   # rank in the element
    slots[:, 3, :3] = indptr[nv:-1, None] + within
    cols[slots[:, 3, :3]] = tri
    slots[:, 3, 3] = diagonal[nv:]
    return _Closure(indptr, cols, np.ascontiguousarray(np.swapaxes(slots, 0, 1)), diagonal)


def _closure_csr(closure, blocks, shape, dropped=(), diagonal=()) -> sp.csr_matrix:
    """CSR of element blocks [owner, e, trial, comp, comp] on a closure pattern.

    The owners and trials are each element's first local locations, and
    each (owner, trial) pair holds a small block of row components by
    column components (1 or 2 each).  The rows and columns are the
    pattern's first locations, as many as `shape` holds, so a location row
    keeps its columns below that count.  A sparse product with one unit per
    block entry sums the small blocks into the pattern's slots, and they
    expand to CSR.  The `dropped` rows are then zeroed, each `diagonal` id
    takes a one in its slot, and entries that cancel exactly are not
    stored.  Indices are int32.
    """
    owners, ne, trials, cr, cc = blocks.shape
    nr, nc = shape[0] // cr, shape[1] // cc
    kept = closure.cols < nc
    rank = np.concatenate(([0], np.cumsum(kept, dtype=np.int32)))   # pattern entry -> index among the kept ones
    indptr = rank[closure.indptr[: nr + 1]]
    slots = rank[closure.slots[:owners, :, :trials]].ravel()
    summation = sp.csc_matrix((np.ones(slots.size), slots, np.arange(slots.size + 1, dtype=np.int32)),
                              shape=(indptr[-1], slots.size))
    data = (summation @ blocks.reshape(slots.size, cr * cc)).reshape(-1, cr, cc)
    M = sp.bsr_matrix((data, closure.cols[kept][: indptr[-1]], indptr), shape=shape).tocsr()
    dropped_rows = np.zeros(shape[0], dtype=bool)
    dropped_rows[np.asarray(dropped, dtype=np.intp)] = True
    M.data[np.repeat(dropped_rows, np.diff(M.indptr))] = 0.0
    # Scalar row (r, c) lists kept entry q of location row r at cc (q - indptr[r]) + k.
    r, c = np.divmod(np.asarray(diagonal, dtype=np.intp), cr)
    M.data[M.indptr[cr * r + c] + cc * (rank[closure.diagonal[r]] - indptr[r]) + c] = 1.0
    M.eliminate_zeros()
    return M


def _evaluate(func, name, points, shape):
    """`func` at the points (..., 2), checked to return finite values of `shape` per point."""
    n = points.size // 2
    flat = points.reshape(n, 2)
    vals = np.asarray(func(flat), dtype=float)
    if vals.shape != (n,) + shape:
        raise ConfigurationError(f"{name} returned shape {vals.shape} for {n} points, not {(n,) + shape}")
    if not np.isfinite(vals).all():
        bad = ~np.isfinite(vals).all(axis=tuple(range(1, vals.ndim)))
        raise ConfigurationError(f"{name} is not finite at {bad.sum()} of {n} points, first at {flat[bad.argmax()].tolist()}")
    return vals.reshape(points.shape[:-1] + shape)


def _integrate_elements(eldata: ElementData, points, weights, integrand, shape) -> np.ndarray:
    """Element integrals det J_e sum_q weights[r, q] f(X0_e + J_e points[q]), (rows, ne, *shape).

    Elements go in blocks of `_BLOCK`, so that every per-point temporary
    stays in cache: `integrand(elements, x)` takes a block's element slice
    and its points x (nq, B, 2) and returns f (nq, B, *shape).
    """
    nq = points.shape[0]
    scale = 2.0 * eldata.areas
    out = np.empty((weights.shape[0],) + scale.shape + shape)
    for sl in (slice(start, start + _BLOCK) for start in range(0, scale.shape[0], _BLOCK)):
        x = (points @ eldata.jacobians[sl].transpose(2, 0, 1).reshape(2, -1)).reshape(nq, -1, 2) + eldata.coords[sl, 0]
        local = (weights @ integrand(sl, x).reshape(nq, -1)).reshape(out[:, sl].shape)
        out[:, sl] = local * scale[sl].reshape((-1,) + (1,) * len(shape))
    return out


def _integrate_over_cvs(disc, cvset, problem, source):
    """Integral of a source of the problem, "body_force" or "mass_source", over each
    control volume by `_SOURCE_RULES`, element by element through `owners`;
    zeros when the source is None."""
    shape = (2,) if source == "body_force" else ()
    func = getattr(problem, source)
    out = np.zeros((cvset.n_cvs,) + shape)
    if func is not None:
        points, weights = _SOURCE_RULES[cvset.family]
        local = _integrate_elements(disc.elements, points, weights,
                                    lambda sl, x: _evaluate(func, source, x, shape), shape)
        np.add.at(out, cvset.owners[:, : local.shape[0]], np.swapaxes(local, 0, 1))
    return out


def segment_tractions(disc, problem):
    """Traction integrals over the boundary half-segments, (S, 3, 2), zero on Dirichlet ones.

    Entry [s, j] tests the traction on segment s (of `disc.pressure`, shared by
    every family) for the row of vertex j of its element: with the indicator
    of the segment's vertex end for a flux balance, with the vertex hat for
    a Galerkin row (fem); the bubble has zero trace.
    """
    segs = disc.pressure
    out = np.zeros((segs.n_segments, 3, 2))
    neu = np.array([disc.mesh.markers[name] is BCKind.NEUMANN for name in disc.mesh.marker_names])[segs.seg_marker]
    if np.any(neu):
        slots = segs.seg_slot[neu]
        ends = to_physical(disc.elements, segs.seg_element[neu, None], REFERENCE_PIECES[slots])
        a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
        length = np.linalg.norm(d, axis=-1)
        normal = np.stack((d[:, 1], -d[:, 0]), axis=-1) / length[:, None]
        pts = a[:, None, :] + _TRACTION_RULE.points[None, :, None] * d[:, None, :]
        w = _TRACTION_RULE.weights[None, :] * length[:, None]
        nn = np.broadcast_to(normal[:, None, :], pts.shape).reshape(-1, 2)
        tn = _evaluate(lambda x: problem.neumann(x, nn), "neumann", pts, (2,))
        tests = _SCHEME_LOADS[disc.scheme][2][slots]
        out[neu] = np.einsum("sq,sqj,sqk->sjk", w, tests, tn)
    return out


def assemble(disc: GridDiscretization, problem: StokesProblem, pin_pressure: int | None = None) -> SaddleSystem:
    """Assemble the saddle-point system of the discretization's scheme.

    With no Neumann boundary the pressure is only determined up to a
    constant; in that case a pressure unknown must be pinned explicitly via
    `pin_pressure` (its mass row becomes p_k = 0), otherwise a
    ConfigurationError is raised.
    """
    mesh = disc.mesh
    mu = _checked_viscosity(problem.viscosity)
    n_u, n_p = disc.n_velocity_locations, disc.n_pressure_dofs

    has_neumann = any(kind is BCKind.NEUMANN for kind in mesh.markers.values())
    if not has_neumann and pin_pressure is None:
        raise ConfigurationError(
            "all boundary markers are Dirichlet; the pressure is defined only up "
            "to a constant, pass pin_pressure to fix one pressure unknown"
        )
    if pin_pressure is not None:
        if isinstance(pin_pressure, bool) or not isinstance(pin_pressure, (int, np.integer)):
            raise ConfigurationError(f"pin_pressure must be an integer index, got {pin_pressure!r}")
        pin_pressure = int(pin_pressure)
        if not 0 <= pin_pressure < n_p:
            raise ConfigurationError(f"pin_pressure index {pin_pressure} out of range")

    rhs_u = np.zeros(2 * n_u)
    load = rhs_u.reshape(n_u, 2)
    points, weights, _ = _SCHEME_LOADS[disc.scheme]
    force = _integrate_elements(disc.elements, points, weights,     # (test, ne, 2)
                                lambda sl, x: _evaluate(problem.body_force, "body_force", x, (2,)), (2,))
    np.add.at(load, disc.element_velocity_dofs().T, force)
    np.subtract.at(load, mesh.triangles[disc.pressure.seg_element], segment_tractions(disc, problem))
    rhs_p = _integrate_over_cvs(disc, disc.pressure, problem, "mass_source")

    # Dirichlet rows become identity rows on both components of marked
    # vertices; a pinned pressure's mass row becomes p_k = 0.
    dverts = mesh.dirichlet_vertices()
    ddofs = _xy(dverts).ravel()
    pinned = [] if pin_pressure is None else [pin_pressure]
    rhs_p[pinned] = 0.0
    if dverts.size:
        load[dverts] = _evaluate(problem.dirichlet, "dirichlet", mesh.vertices[dverts], (2,))

    # One closure pattern over the velocity locations serves every block: the
    # momentum rows are its owners, the mass rows and the pressure columns its
    # vertices, which come first.  The blocks are the scheme's reference
    # tensors mapped by every element.
    closure = _closure(mesh)
    K, L = _SCHEME_TENSORS[disc.scheme]
    A = _closure_csr(closure, _map_momentum(_momentum_metric(disc.elements, mu), K), (2 * n_u, 2 * n_u), ddofs, ddofs)
    B = _closure_csr(closure, _map_vectors(disc.elements, L[:, None])[..., None], (2 * n_u, n_p), ddofs)
    C = _closure_csr(closure, _mass_blocks(disc)[:, :, :, None], (n_p, 2 * n_u), pinned)

    return SaddleSystem(
        A=A,
        B=B,
        C=C,
        D=sp.csr_matrix((np.ones(len(pinned)), (pinned, pinned)), shape=(n_p, n_p)),
        rhs_momentum=rhs_u,
        rhs_mass=rhs_p,
        dirichlet_dofs=ddofs,
        bubble_dofs=range(2 * mesh.n_vertices, 2 * n_u),
    )

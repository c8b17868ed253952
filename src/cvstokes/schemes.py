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
2006), into owner-major element blocks [owner, e, trial, comp, comp].  The
system is stored as four parts (`Condensation`), with the kept unknowns
(vertex velocities, then pressures) apart from the bubbles: J_kk, the
blocks' sums on the vertex pairs, taken by np.bincount into CSC on the
mesh's vertex pattern (`_vertex_closure`, built once per mesh); J_kb and
J_bk, each element's 9 x 2 and 2 x 9 bubble numbers, on one shared int32
array of its nine kept unknowns; and J_bb, its (ne, 2, 2) bubble blocks.
J_kk less each element's bubble correction is the condensed system J_c,
which shares J_kk's indices (`_condense`).  A, B, C and D are formed from
the parts only on request.  The audit builds the metric once and contracts
each face row's mapped tensors with a solution, one slot over all elements
at a time (`_mass_flux_slots`, `_momentum_flux_slots`).  Volume integrals map a
reference rule by each element's X0 + J xi, in blocks of about `_BLOCK_POINTS`
quadrature points (512 elements of a 16-point rule, 186 of the 44 points of
hybrid's load): the load in one pass per assembly, a control-volume source by
its family's rows.
Traction data enters through one (S, 3, 2) array over the boundary
half-segments (`segment_tractions`), tested as the load rule says: with the
indicator of the segment's vertex end for flux rows, the vertex hats for
Galerkin rows.
"""

from __future__ import annotations

import numbers
import weakref
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
    _add_at,
    to_physical,
)
from .mesh import BCKind

SOURCE_QUAD_DEGREE = 6
NEUMANN_QUAD_DEGREE = 5
# Quadrature points per block of the volume kernels (`_integrate_elements`):
# 512 elements of a 16-point rule, fewer of a longer one, so that a block's
# per-point temporaries take about the same memory whatever the rule.
_BLOCK_POINTS = 8192


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


class BubbleStructureError(ValueError):
    """An element's 2x2 bubble block is singular, so its bubbles cannot be condensed out."""


@dataclass(frozen=True, eq=False)
class Condensation:
    """A saddle system J as its kept and bubble parts, and its bubbles condensed out.

    The kept unknowns (k) are the vertex velocities, x and y interleaved,
    then the pressures; the bubbles (b), two per element, are the unknowns
    `bubble_dofs` of J, between the two.  In that split

        J = [[J_kk, J_kb], [J_bk, J_bb]],

    `kk` is J_kk in CSC, `kb` is J_kb in CSC and `bk` is J_bk in CSR, `bb`
    (ne, 2, 2) holds J_bb's per-element blocks and `inverses` their
    inverses, and `matrix` is J_c = J_kk - J_kb J_bb^{-1} J_bk in CSC.  An
    assembled system stores J_kk on J_c's own indices and indptr, and J_kb
    and J_bk as each element's 9 x 2 and 2 x 9 bubble numbers on one
    shared element-major array of its nine kept unknowns, sorted; their
    Dirichlet and pinned rows are zero.  A system without bubbles is its
    own J_c.
    """

    matrix: sp.csc_matrix
    kk: sp.csc_matrix
    kb: sp.csc_matrix
    bk: sp.csr_matrix
    bb: np.ndarray
    inverses: np.ndarray
    bubble_dofs: range

    def split(self, v: np.ndarray):
        """(v_k, v_b): the entries of `v` on the kept unknowns and on the bubbles."""
        lo, hi = self.bubble_dofs.start, self.bubble_dofs.stop
        return np.concatenate((v[:lo], v[hi:])), v[lo:hi]

    def join(self, v_k: np.ndarray, v_b: np.ndarray) -> np.ndarray:
        """The vector whose kept and bubble entries are v_k and v_b."""
        lo = self.bubble_dofs.start
        return np.concatenate((v_k[:lo], v_b, v_k[lo:]))

    def _invert(self, r_b: np.ndarray) -> np.ndarray:
        return _per_element(self.inverses, r_b)

    def condense(self, r: np.ndarray) -> np.ndarray:
        """Right-hand side r_k - J_kb J_bb^{-1} r_b of the condensed system."""
        r_k, r_b = self.split(r)
        return r_k - self.kb @ self._invert(r_b)

    def recover(self, r: np.ndarray, y_k: np.ndarray) -> np.ndarray:
        """Full solution from its kept part y_k: y_b = J_bb^{-1} (r_b - J_bk y_k)."""
        return self.join(y_k, self._invert(self.split(r)[1] - self.bk @ y_k))

    def solve(self, solve_condensed, r: np.ndarray) -> np.ndarray:
        """Solve J y = r, given a solver of the condensed system."""
        return self.recover(r, solve_condensed(self.condense(r)))

    def product(self, x: np.ndarray, absolute: bool = False) -> np.ndarray:
        """J x summed part by part, or |J| x with `absolute`."""
        kk, kb, bk, bb = self.kk, self.kb, self.bk, self.bb
        if absolute:
            kk, kb, bk = (type(M)((np.abs(M.data), M.indices, M.indptr), shape=M.shape) for M in (kk, kb, bk))
            bb = np.abs(bb)
        x_k, x_b = self.split(x)
        return self.join(kk @ x_k + kb @ x_b, bk @ x_k + _per_element(bb, x_b))


def _per_element(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each element's 2x2 block of `blocks` (ne, 2, 2) times its two entries of `v`."""
    return np.einsum("eij,ej->ei", blocks, v.reshape(-1, 2)).reshape(-1)


def _full_matrix(condensation: Condensation, rows=slice(None), cols=slice(None)) -> sp.csr_matrix:
    """The block [rows, cols] of J as CSR, from its four parts; zeros are not stored."""
    c = condensation
    lo, n_b = c.bubble_dofs.start, len(c.bubble_dofs)
    n = c.kk.shape[0] + n_b

    def place(ids):                                         # kept unknown -> unknown of J
        return ids + n_b * (ids >= lo)

    kk, kb, bk = c.kk.tocoo(), c.kb.tocoo(), c.bk.tocoo()
    b = lo + np.arange(n_b).reshape(-1, 2)                  # each element's bubbles
    i = np.concatenate((place(kk.row), place(kb.row), lo + bk.row, np.repeat(b, 2, axis=1).ravel()))
    j = np.concatenate((place(kk.col), lo + kb.col, place(bk.col), np.tile(b, 2).ravel()))
    data = np.concatenate((kk.data, kb.data, bk.data, c.bb.ravel()))
    (r0, r1, _), (c0, c1, _) = rows.indices(n), cols.indices(n)
    keep = (data != 0.0) & (i >= r0) & (i < r1) & (j >= c0) & (j < c1)
    return sp.csr_matrix((data[keep], (i[keep] - r0, j[keep] - c0)), shape=(r1 - r0, c1 - c0))


@dataclass(frozen=True, eq=False)
class SaddleSystem:
    """Assembled saddle-point system [[A, B], [C, D]] with right-hand side.

    A acts on velocity unknowns (2 per location, interleaved), B couples
    pressure into the momentum rows, C holds the mass balances and D is
    the pressure-pressure block.  Dirichlet rows of A are identity rows;
    `dirichlet_dofs` lists the scalar velocity dofs so constrained.  D
    holds the identity entry of a pinned pressure, whose mass row of C is
    empty, or no entries at all.  The system is stored as its
    `condensation` alone: the bubble velocity dofs `bubble_dofs`, the last
    ones, are eliminated element by element by `assemble`, and the solvers
    condense, recover and evaluate the residual through its parts.  A, B,
    C, D and `matrix()` are formed from them on request, for the tests and
    the benchmark's tracer, and not kept; no solver reads them.
    `from_blocks` makes a system without bubbles from its four blocks.
    """

    condensation: Condensation = field(repr=False)
    rhs_momentum: np.ndarray
    rhs_mass: np.ndarray
    dirichlet_dofs: np.ndarray

    @classmethod
    def from_blocks(cls, A, B, C, D, rhs_momentum, rhs_mass, dirichlet_dofs) -> "SaddleSystem":
        """The system [[A, B], [C, D]] without bubbles, which is its own J_c."""
        J = sp.bmat([[A, B], [C, D]], format="csc")
        n, n_u = J.shape[0], A.shape[0]
        condensation = Condensation(J, J, sp.csc_matrix((n, 0)), sp.csr_matrix((0, n)),
                                    np.empty((0, 2, 2)), np.empty((0, 2, 2)), range(n_u, n_u))
        return cls(condensation, np.asarray(rhs_momentum, dtype=float), np.asarray(rhs_mass, dtype=float),
                   np.asarray(dirichlet_dofs))

    @property
    def bubble_dofs(self) -> range:
        return self.condensation.bubble_dofs

    @property
    def n_velocity(self) -> int:
        return self.rhs_momentum.shape[0]

    @property
    def n_pressure(self) -> int:
        return self.rhs_mass.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.n_velocity + self.n_pressure

    @property
    def A(self) -> sp.csr_matrix:
        return _full_matrix(self.condensation, slice(None, self.n_velocity), slice(None, self.n_velocity))

    @property
    def B(self) -> sp.csr_matrix:
        return _full_matrix(self.condensation, slice(None, self.n_velocity), slice(self.n_velocity, None))

    @property
    def C(self) -> sp.csr_matrix:
        return _full_matrix(self.condensation, slice(self.n_velocity, None), slice(None, self.n_velocity))

    @property
    def D(self) -> sp.csr_matrix:
        return _full_matrix(self.condensation, slice(self.n_velocity, None), slice(self.n_velocity, None))

    def matrix(self) -> sp.csr_matrix:
        return _full_matrix(self.condensation)

    def rhs(self) -> np.ndarray:
        return np.concatenate((self.rhs_momentum, self.rhs_mass))

    def residual(self, x: np.ndarray) -> np.ndarray:
        """rhs - J x, with J x summed part by part (`Condensation.product`)."""
        return self.rhs() - self.condensation.product(x)


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
    """The sparsity pattern of element closures over the mesh's vertices:
    vertex r couples to vertex c when both belong to one element.  `indptr`
    and `cols` are its CSR structure, sorted within each row,
    `slots[a, e, b]`, owner-major like the element blocks, is the entry of
    an element's local vertices a and b, and `diagonal[r]` the entry of
    (r, r)."""

    indptr: np.ndarray
    cols: np.ndarray
    slots: np.ndarray
    diagonal: np.ndarray


# The vertex pattern of each live mesh, built once: `assemble` and
# `solver.assemble_pressure_mass` both sum on it.
_PATTERNS = weakref.WeakKeyDictionary()


def _vertex_closure(mesh) -> _Closure:
    """The closure pattern of the mesh's vertices, kept while the mesh lives.

    A row holds its lower edge neighbours, itself and its upper edge
    neighbours, since each edge of the sorted edge table is one entry in the
    row of its lower end and one in the row of its upper end.  It is
    structurally symmetric.
    """
    pattern = _PATTERNS.get(mesh)
    if pattern is None:
        pattern = _PATTERNS[mesh] = _build_vertex_closure(mesh)
    return pattern


def _build_vertex_closure(mesh) -> _Closure:
    tri, nv, ne = mesh.triangles, mesh.n_vertices, mesh.n_elements
    nxt = np.roll(tri, -1, axis=1)                  # local edge k runs from vertex k to k + 1
    edges, edge = np.unique(np.minimum(tri, nxt) * nv + np.maximum(tri, nxt), return_inverse=True)
    edge = edge.reshape(ne, 3)
    lo, hi = np.divmod(edges, nv)
    above, below = np.bincount(lo, minlength=nv), np.bincount(hi, minlength=nv)
    indptr = np.concatenate(([0], np.cumsum(below + 1 + above)))
    diagonal = indptr[:-1] + below
    ids = np.arange(edges.size)
    upper = diagonal[lo] + 1 + ids - np.concatenate(([0], np.cumsum(above)))[lo]
    by_hi = np.argsort(hi, kind="stable")
    lower = np.empty(edges.size, dtype=np.intp)
    lower[by_hi] = indptr[hi[by_hi]] + ids - np.concatenate(([0], np.cumsum(below)))[hi[by_hi]]
    cols = np.empty(indptr[-1], dtype=np.int32)
    cols[diagonal], cols[upper], cols[lower] = np.arange(nv), hi, lo

    slots = np.empty((3, ne, 3), dtype=np.int32)
    k, k1 = np.arange(3), (np.arange(3) + 1) % 3
    ascending = (tri < nxt).T
    slots[k, :, k] = diagonal[tri].T
    slots[k, :, k1] = np.where(ascending, upper[edge.T], lower[edge.T])
    slots[k1, :, k] = np.where(ascending, lower[edge.T], upper[edge.T])
    return _Closure(indptr, cols, slots, diagonal)


def _csc_positions(vertices):
    """Where J_c's CSC data on the vertex pattern stores its entries: a
    function of (k, a), a, k in (x, y, p), whose value at entry q = (c, r)
    of the (symmetric) pattern is the position of J_c's entry in row (r, a)
    and column (c, k).

    The kept unknowns are the vertex velocities, x and y interleaved, then
    the vertex pressures.  Column (c, k) lists the entries of pattern row
    c: the velocity rows of its neighbours r, x and y interleaved, then
    their pressure rows.  Every vertex pair stores its nine entries, zeros
    too.
    """
    N = vertices.cols.size
    degree = np.diff(vertices.indptr)
    start, d = np.repeat(vertices.indptr[:-1], degree), np.repeat(degree, degree)
    t = np.arange(N) - start                                # rank of q in row c

    def at(k, a):
        column = 6 * N + 3 * start if k == 2 else 6 * start + 3 * k * d
        return column + (2 * d + t if a == 2 else 2 * t + a)

    return at


def _vertex_csc(vertices, at, data) -> sp.csc_matrix:
    """The CSC matrix on the kept unknowns whose entries at the positions
    `at` of `_csc_positions` are `data`."""
    nv, N = vertices.indptr.size - 1, vertices.cols.size
    indices = np.empty(9 * N, dtype=np.int32)
    for k in range(3):
        for a in range(3):
            indices[at(k, a)] = 2 * nv + vertices.cols if a == 2 else 2 * vertices.cols + a
    velocity = 6 * vertices.indptr[:-1, None] + 3 * np.diff(vertices.indptr)[:, None] * np.arange(2)
    indptr = np.concatenate((velocity.ravel(), 6 * N + 3 * vertices.indptr)).astype(np.int32)
    return sp.csc_matrix((data, indices, indptr), shape=(3 * nv, 3 * nv))


def _condense(vertices, at, data, kb, bk, bb):
    """Condense the bubbles out of J_kk element by element, in place of its
    CSC `data` (positions `at`); returns the inverses (ne, 2, 2) of the
    bubble blocks bb (ne, 2, 2).

    Each element's rows of its bubble columns are kb [a, b, vertex, e], and
    the columns of its bubble rows bk [b, k, vertex, e], for a, k in (x, y,
    p) and b its two bubble components.  Its correction kb bb^-1 bk is
    subtracted from its vertex pairs one component (a, k) at a time, so no
    (ne, 9, 9) array is made.  Raises BubbleStructureError, naming the
    first, if a bubble block is singular: |det| <= eps max|bb|^2.
    """
    det = bb[:, 0, 0] * bb[:, 1, 1] - bb[:, 0, 1] * bb[:, 1, 0]
    singular = ~(np.abs(det) > np.finfo(float).eps * np.max(np.abs(bb), axis=(1, 2), initial=0.0) ** 2)
    if np.any(singular):
        raise BubbleStructureError(
            f"{int(singular.sum())} singular 2x2 bubble blocks, first at element {int(np.flatnonzero(singular)[0])}"
        )
    inverse = np.array([[bb[:, 1, 1], -bb[:, 0, 1]], [-bb[:, 1, 0], bb[:, 0, 0]]])
    inverse /= det
    ids = vertices.slots.transpose(2, 0, 1).astype(np.intp).ravel()   # the transposed entry of (row i, column j)
    for k in range(3):
        W = -(inverse[:, 0, None] * bk[0, k] + inverse[:, 1, None] * bk[1, k])      # [b, vertex, e]
        for a in range(3):
            correction = kb[a, 0, :, None] * W[0]
            correction += kb[a, 1, :, None] * W[1]
            data[at(k, a)] += np.bincount(ids, correction.ravel(), minlength=vertices.cols.size)
    return np.ascontiguousarray(inverse.transpose(2, 0, 1))


def _element_ids(mesh):
    """The local order (ne, 3) that sorts each element's vertices, and the
    CSC or CSR indices and indptr of a matrix whose two columns or rows per
    element list its nine kept unknowns, sorted: one int32 array for J_kb
    and J_bk."""
    nv, ne = mesh.n_vertices, mesh.n_elements
    order = np.argsort(mesh.triangles, axis=1)
    v = np.take_along_axis(mesh.triangles, order, axis=1).astype(np.int32)
    ids = np.empty((ne, 9), dtype=np.int32)
    ids[:, :6] = (2 * v[:, :, None] + np.arange(2, dtype=np.int32)).reshape(ne, 6)
    ids[:, 6:] = 2 * nv + v
    indices = np.repeat(ids, 2, axis=0).ravel()
    return order, indices, np.arange(0, indices.size + 1, 9, dtype=np.int32)


def _element_major(parts, order):
    """kb [a, b, vertex, e] (or bk with its first two axes swapped) as
    [e, b, kept unknown], the kept unknowns in `_element_ids`' order."""
    ne = order.shape[0]
    out, e = np.empty((ne, 2, 9)), np.arange(ne)
    for r in range(3):
        lowest = parts[:, :, order[:, r], e]                # [a, b, e] at each element's r-th lowest vertex
        out[:, :, 2 * r : 2 * r + 2] = lowest[:2].transpose(2, 1, 0)
        out[:, :, 6 + r] = lowest[2].T
    return out.ravel()


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

    Elements go in blocks of B = max(1, `_BLOCK_POINTS` // nq), so that a
    block's per-point temporaries take about the same memory whatever the rule:
    `integrand(elements, x)` takes a block's element slice and its points
    x (nq, B, 2) and returns f (nq, B, *shape).
    """
    nq = points.shape[0]
    scale = 2.0 * eldata.areas
    out = np.empty((weights.shape[0],) + scale.shape + shape)
    block = max(1, _BLOCK_POINTS // nq)
    for sl in (slice(start, start + block) for start in range(0, scale.shape[0], block)):
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
        _add_at(out, cvset.owners[:, : local.shape[0]], np.swapaxes(local, 0, 1))
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
    # The load, then minus the tractions, summed in this order as by np.add.at.
    _add_at(load, np.concatenate((disc.element_velocity_dofs().T.ravel(), mesh.triangles[disc.pressure.seg_element].ravel())),
            np.concatenate((force.reshape(-1, 2), -segment_tractions(disc, problem).reshape(-1, 2))))
    del force
    rhs_p = _integrate_over_cvs(disc, disc.pressure, problem, "mass_source")

    # Dirichlet rows become identity rows on both components of marked
    # vertices; a pinned pressure's mass row becomes p_k = 0.
    dverts = mesh.dirichlet_vertices()
    ddofs = _xy(dverts).ravel()
    pinned = [] if pin_pressure is None else [pin_pressure]
    rhs_p[pinned] = 0.0
    if dverts.size:
        load[dverts] = _evaluate(problem.dirichlet, "dirichlet", mesh.vertices[dverts], (2,))

    # Every block is the scheme's reference tensors mapped by every element.
    # Its vertex entries are summed on the vertex pattern by np.bincount, in
    # (owner, element, trial) order, into `data`, J_kk's CSC values at the
    # positions `at`.  Every bubble row and column belongs to one element,
    # which keeps them (kb, bk and bb of `_condense`).  Every array is
    # dropped once used: the heap keeps assemble's high-water mark resident,
    # under the direct LU that follows.
    vertices = _vertex_closure(mesh)
    nv, ne, N = mesh.n_vertices, mesh.n_elements, vertices.cols.size
    at = _csc_positions(vertices)
    data = np.zeros(9 * N)
    ids = vertices.slots.transpose(2, 1, 0).astype(np.intp).ravel()   # (owner i, e, trial j) -> the entry (j, i)
    K, L = _SCHEME_TENSORS[disc.scheme]
    blocks = _map_momentum(_momentum_metric(disc.elements, mu), K)      # [owner, e, trial, a, k]
    for a in range(2):
        for k in range(2):
            data[at(k, a)] = np.bincount(ids, blocks[:3, :, :3, a, k].ravel(), minlength=N)
    kb, bk = np.empty((3, 2, 3, ne)), np.empty((2, 3, 3, ne))
    kb[:2] = blocks[:3, :, 3].transpose(2, 3, 0, 1)
    bk[:, :2] = blocks[3, :, :3].transpose(2, 3, 1, 0)
    bb = blocks[3, :, 3].copy()
    del blocks
    blocks = _map_vectors(disc.elements, L[:, None])                    # [owner, e, hat, a]
    for a in range(2):
        data[at(2, a)] = np.bincount(ids, blocks[:3, ..., a].ravel(), minlength=N)
    bk[:, 2] = blocks[3].transpose(2, 1, 0)
    del blocks
    blocks = _mass_blocks(disc)                                         # [box, e, trial, k]
    for k in range(2):
        data[at(k, 2)] = np.bincount(ids, blocks[:, :, :3, k].ravel(), minlength=N)
    kb[2] = blocks[:, :, 3].transpose(2, 0, 1)
    del blocks, ids

    # The Dirichlet velocity dofs and the pinned pressure become identity
    # rows of J_kk, and their rows of J_kb are zero, so the condensation
    # leaves them as they are.
    identity = np.zeros((nv, 3), dtype=bool)
    identity[np.divmod(ddofs, 2)] = True
    identity[pinned, 2] = True
    for a in range(3):
        rows = identity[vertices.cols, a]
        for k in range(3):
            data[at(k, a)[rows]] = 0.0
        data[at(a, a)[vertices.diagonal[identity[:, a]]]] = 1.0
    np.copyto(kb, 0.0, where=identity[mesh.triangles].transpose(2, 1, 0)[:, None])
    kk = _vertex_csc(vertices, at, data)
    J_c = sp.csc_matrix((data.copy(), kk.indices, kk.indptr), shape=kk.shape)
    del data
    inverses = _condense(vertices, at, J_c.data, kb, bk, bb)
    del at
    order, indices, indptr = _element_ids(mesh)
    J_kb = sp.csc_matrix((_element_major(kb, order), indices, indptr), shape=(3 * nv, 2 * ne))
    del kb
    J_bk = sp.csr_matrix((_element_major(bk.swapaxes(0, 1), order), indices, indptr), shape=(2 * ne, 3 * nv))
    del bk

    return SaddleSystem(
        Condensation(J_c, kk, J_kb, J_bk, bb, inverses, range(2 * nv, 2 * n_u)),
        rhs_momentum=rhs_u,
        rhs_mass=rhs_p,
        dirichlet_dofs=ddofs,
    )

"""Reference implementations the tests compare the package against.

A checked reference-basis evaluation, a per-triangle affine map and basis
evaluation, the exact monomial integrals of the reference triangle, the
map of physical points back to their elements, a pointwise basis
evaluation over a discretization's elements, the fluxes through faces
and boundary segments from the basis at their Gauss points, and the
element blocks of every scheme contracted at quadrature points
(`quadrature_blocks`: Galerkin rows on the element's degree-6 rule, flux
rows and box balances at the Gauss points of each face and segment).  None
of these is on the solve path; they exist so that the tests have something
independent of the package's reference tensors to check them with.

The package keeps a control-volume family as reference tables only
(`REFERENCE_CELLS`, `REFERENCE_FACES`) walked through the shared owner
table.  `pieces`, `sub_volumes` and `dof_locations` lay the same rows out
in physical coordinates, one face, segment or sub-volume at a time and
element by element, from each triangle's own vertices, edge midpoints and
centroid: the geometric oracle of closure, tiling, normals, segments and
polygons.  `cv_integrals` adds the package's own sub-volume integrals one
sub-volume at a time, so that it checks only the owner map, and
`two_pass_rhs_momentum` integrates the body force once per kind of row, to
check each scheme's one-pass load rule.  `coo_blocks`
turns element blocks into CSR by one COO conversion each, with explicit
row and column ids, to check the blocks formed on request.
`closure_system` is the system as the package once stored it: A, B and C
summed into CSR on the closure pattern of the vertices and bubbles
(`closure`, `closure_csr`), and J_c condensed from their sums at the vertex
pairs; the tests check the four stored parts bitwise against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from cvstokes import schemes
from cvstokes.basis import ReferenceBasisEval, _eval_unchecked, barycentric, triangle_rule
from cvstokes.geometry import (
    REFERENCE_CELLS,
    REFERENCE_FACES,
    REFERENCE_PIECES,
    ControlVolumeSet,
    ElementData,
    GridDiscretization,
)

#: Nodes of the four reference basis functions: vertices, then centroid.
REFERENCE_NODES = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0 / 3.0, 1.0 / 3.0]]
)
#: Nodes of the two-point Gauss rule on [0, 1].
GAUSS2 = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])


def eval_reference(points: np.ndarray, tol: float = 1e-12) -> ReferenceBasisEval:
    """Evaluate the four reference basis functions and their gradients.

    `points` (..., 2) are in reference coordinates; a ValueError is raised
    if any lies outside the closed reference triangle by more than `tol`.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError("points must have shape (..., 2)")
    x = pts[..., 0]
    y = pts[..., 1]
    if np.any(x < -tol) or np.any(y < -tol) or np.any(x + y > 1.0 + tol):
        raise ValueError("point outside the reference triangle")
    return _eval_unchecked(pts)


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


def to_reference(eldata: ElementData, elements: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map physical points to reference coordinates of their elements.

    `elements` and `points` broadcast along the leading axes; points has
    shape (..., 2) and elements indexes its leading dimension.
    """
    inv = eldata.inv_jacobians[elements]
    d = points - eldata.coords[elements, 0]
    return inv[..., 0] * d[..., :1] + inv[..., 1] * d[..., 1:]


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


def local_points(coords: np.ndarray) -> np.ndarray:
    """The seven local points of each triangle (..., 3, 2): X_0-2, the edge
    midpoints M_k = (X_k + X_k+1) / 2, the centroid; (..., 7, 2)."""
    mids = 0.5 * (coords + np.roll(coords, -1, axis=-2))
    return np.concatenate((coords, mids, coords.mean(axis=-2, keepdims=True)), axis=-2)


_REFERENCE_LOCAL = local_points(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def local_ids(reference: np.ndarray) -> np.ndarray:
    """The local point ids of reference points (..., 2), which must each be one of the seven."""
    match = np.all(reference[..., None, :] == _REFERENCE_LOCAL, axis=-1)
    assert np.all(match.sum(axis=-1) == 1), reference
    return match.argmax(axis=-1)


class Pieces(NamedTuple):
    """Faces or boundary segments in physical coordinates.  A segment's
    inside is its control volume and its outside -1."""

    element: np.ndarray
    slot: np.ndarray        # index into REFERENCE_PIECES
    inside: np.ndarray
    outside: np.ndarray     # -1 when the flux has no receiving balance
    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray      # unit, to the right of a -> b
    length: np.ndarray


def pieces(cvset: ControlVolumeSet, kind: str) -> Pieces:
    """The faces ("face", every row of `REFERENCE_FACES` in every element,
    element by element) or the boundary segments ("seg") of a CV set."""
    if kind == "face":
        rows = np.array(REFERENCE_FACES[cvset.family])
        e = np.repeat(np.arange(cvset.mesh.n_elements), len(rows))
        slot, inside, outside = rows[np.tile(np.arange(len(rows)), cvset.mesh.n_elements)].T
        inside, outside = cvset.owners[e, inside], cvset.owners[e, outside]
    else:
        e, slot, inside = cvset.seg_element, cvset.seg_slot, cvset.seg_cv
        outside = np.full(e.size, -1)
    points = local_points(cvset.mesh.vertices[cvset.mesh.triangles[e]])
    ends = np.take_along_axis(points, local_ids(REFERENCE_PIECES[slot])[..., None], axis=1)
    a, b = ends[:, 0], ends[:, 1]
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    return Pieces(e, slot, inside, outside, a, b, np.column_stack((d[:, 1], -d[:, 0])) / length[:, None], length)


class SubVolumes(NamedTuple):
    """Sub-volume polygons in physical coordinates, element by element."""

    element: np.ndarray
    row: np.ndarray         # index into REFERENCE_CELLS[family]
    cv: np.ndarray
    polygon: np.ndarray     # (m, 4, 2), padded by repeating the last vertex
    nverts: np.ndarray
    volume: np.ndarray      # shoelace area of the polygon


def sub_volumes(cvset: ControlVolumeSet) -> SubVolumes:
    """Every row of `REFERENCE_CELLS[family]` in every element, element by
    element, owned by local owner `row`."""
    cells = REFERENCE_CELLS[cvset.family]
    ids = [list(local_ids(cell)) for cell in cells]
    ids = np.array([i + i[-1:] * (4 - len(i)) for i in ids])
    ne = cvset.mesh.n_elements
    e, row = np.repeat(np.arange(ne), len(cells)), np.tile(np.arange(len(cells)), ne)
    points = local_points(cvset.mesh.vertices[cvset.mesh.triangles[e]])
    polygon = np.take_along_axis(points, ids[row][..., None], axis=1)
    x, y = polygon[..., 0], polygon[..., 1]
    volume = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
    nverts = np.array([len(cell) for cell in cells])[row]
    return SubVolumes(e, row, cvset.owners[e, row], polygon, nverts, volume)


def dof_locations(cvset: ControlVolumeSet) -> np.ndarray:
    """(n_cvs, 2): the vertices, then the centroids of the bubble volumes' elements."""
    mesh = cvset.mesh
    bubbles = mesh.vertices[mesh.triangles[: cvset.n_cvs - mesh.n_vertices]].mean(axis=1)
    return np.vstack((mesh.vertices, bubbles))


def gauss_rule(piece: Pieces):
    """The two-point Gauss rule on each piece: points (n, 2, 2) and weights
    (n, 2), which sum to its length."""
    points = piece.a[:, None, :] + GAUSS2[None, :, None] * (piece.b - piece.a)[:, None, :]
    return points, np.repeat(0.5 * piece.length[:, None], 2, axis=1)


def piece_fluxes(disc: GridDiscretization, piece: Pieces, viscosity, velocity, pressure):
    """Mass (n,) and momentum (n, 2) flux through pieces, along their normals.

    The basis is evaluated at each piece's Gauss points, mapped back to its
    element; the momentum flux is that of -2 mu D(v_h) + p_h I.
    """
    e = piece.element
    points, w = gauss_rule(piece)
    vals, grads, hats = basis_at(disc.elements, e[:, None], points)
    coeff = velocity[disc.element_velocity_dofs()[e]]                   # (n, 4, 2)
    n = piece.normal
    v = np.einsum("fq,fqb,fbk->fk", w, vals, coeff)
    grad_v = np.einsum("fq,fqba,fbk->fka", w, grads, coeff)             # [f, k, a] = int dv_k/dx_a
    p = np.einsum("fq,fqj,fj->f", w, hats, pressure[disc.mesh.triangles[e]])
    viscous = np.einsum("fka,fa->fk", grad_v, n) + np.einsum("fak,fa->fk", grad_v, n)
    return np.einsum("fk,fk->f", v, n), p[:, None] * n - viscosity * viscous


def face_fluxes(disc: GridDiscretization, cvset: ControlVolumeSet, viscosity, velocity, pressure):
    """Mass (F,) and momentum (F, 2) flux of every face of a CV set, from inside to outside."""
    return piece_fluxes(disc, pieces(cvset, "face"), viscosity, velocity, pressure)


#: The degree-6 rule on the fan triangles of each family's reference
#: sub-volumes (96, 64 and 112 points per element), from which the package
#: derives its 28-point source rule.
FAN_RULES = {family: schemes._volume_rule(cells) for family, cells in REFERENCE_CELLS.items()}


def cv_integrals(disc: GridDiscretization, cvset: ControlVolumeSet, problem, source: str, rules) -> np.ndarray:
    """Integral of "body_force" or "mass_source" over each control volume: the
    package's per-element sub-volume integrals by the reference `rules`
    (`schemes._SOURCE_RULES` or `FAN_RULES`), added one sub-volume at a
    time in the order of `sub_volumes`."""
    shape = (2,) if source == "body_force" else ()
    func = getattr(problem, source)
    points, weights = rules[cvset.family]
    local = schemes._integrate_elements(disc.elements, points, weights,
                                        lambda sl, x: schemes._evaluate(func, source, x, shape), shape)
    out = np.zeros((cvset.n_cvs,) + shape)
    scv = sub_volumes(cvset)
    np.add.at(out, scv.cv, local[scv.row, scv.element])
    return out


def two_pass_rhs_momentum(disc: GridDiscretization, problem) -> np.ndarray:
    """The momentum right-hand side with the body force integrated in two
    passes, one per kind of row: the flux rows over their control volumes by
    `schemes._integrate_over_cvs`, the Galerkin rows by the degree-6 element
    rule times their basis function; then the tractions and the Dirichlet
    values as `assemble` takes them.  Every scheme held its load so before it
    became one reference rule per scheme."""
    mesh, spec = disc.mesh, disc.scheme.spec
    load = np.zeros((disc.n_velocity_locations, 2))
    if spec.flux_momentum:
        load[: disc.velocity.n_cvs] += schemes._integrate_over_cvs(disc, disc.velocity, problem, "body_force")
    tests = list(spec.galerkin_tests)
    if tests:
        rule = triangle_rule(schemes.SOURCE_QUAD_DEGREE)
        weights = (_eval_unchecked(rule.points).values[:, tests] * rule.weights[:, None]).T
        force = schemes._integrate_elements(disc.elements, rule.points, weights,
                                            lambda sl, x: schemes._evaluate(problem.body_force, "body_force", x, (2,)), (2,))
        np.add.at(load, disc.element_velocity_dofs()[:, tests].T, force)
    np.subtract.at(load, mesh.triangles[disc.pressure.seg_element], schemes.segment_tractions(disc, problem))
    dverts = mesh.dirichlet_vertices()
    load[dverts] = problem.dirichlet(mesh.vertices[dverts])
    return load.ravel()


def coo_to_csr(blocks, row_ids, col_ids, shape, dropped, diagonal=np.empty(0, dtype=np.int64)):
    """One COO -> CSR conversion of element blocks, whose row and column ids
    broadcast to them.  The `dropped` rows are zeroed, then each `diagonal`
    id takes a one; entries that cancel exactly are not stored."""
    np.copyto(blocks, 0.0, where=np.isin(row_ids, dropped))
    rows, cols = (np.concatenate((np.broadcast_to(ids, blocks.shape), diagonal), axis=None) for ids in (row_ids, col_ids))
    M = sp.coo_matrix((np.concatenate((blocks, np.ones(diagonal.size)), axis=None), (rows, cols)), shape=shape).tocsr()
    M.eliminate_zeros()
    return M


def package_blocks(disc: GridDiscretization, viscosity):
    """The package's element blocks A [owner, e, trial, comp, comp], B [owner,
    e, hat, comp] and C [box, e, trial, comp]: the scheme's reference tensors
    mapped by every element, as `assemble` takes them."""
    K, L = schemes._SCHEME_TENSORS[disc.scheme]
    return (schemes._map_momentum(schemes._momentum_metric(disc.elements, viscosity), K),
            schemes._map_vectors(disc.elements, L[:, None]), schemes._mass_blocks(disc))


def local_owners(disc: GridDiscretization, elements, cvs):
    """The local owner (vertex 0-2, bubble 3) of the control volumes `cvs` in `elements`."""
    mesh = disc.mesh
    owners = np.column_stack((mesh.triangles, mesh.n_vertices + np.arange(mesh.n_elements)))
    local = np.argmax(owners[elements] == cvs[:, None], axis=1)
    assert np.array_equal(owners[elements, local], cvs)
    return local


def galerkin_blocks(disc: GridDiscretization, viscosity, tests):
    """Galerkin element blocks of the local `tests`, A [test, e, trial, comp,
    comp] and B [test, e, hat, comp], contracted at every point of the
    degree-6 rule."""
    el = disc.elements
    rule = triangle_rule(schemes.SOURCE_QUAD_DEGREE)
    ev = eval_reference(rule.points)
    lam = barycentric(rule.points)
    G = np.einsum("qbi,eia->eqba", ev.gradients, el.inv_jacobians)
    wdet = rule.weights[None, :] * (2.0 * el.areas)[:, None]
    Gt = G[:, :, list(tests), :]
    dot = np.einsum("eq,eqbi,eqti->etb", wdet, G, Gt)
    term2 = np.einsum("eq,eqba,eqtk->etabk", wdet, G, Gt)
    A = viscosity * (dot[:, :, None, :, None] * np.eye(2)[None, None, :, None, :] + term2)   # [e, t, a, b, k]
    B = -np.einsum("eq,qj,eqta->etaj", wdet, lam, Gt)
    return A.transpose(1, 0, 3, 2, 4), B.transpose(1, 0, 3, 2)


def flux_momentum_blocks(disc: GridDiscretization, viscosity, A, B):
    """Add the momentum flux balances of the velocity control volumes,
    contracted at the Gauss points of every face, to A and B: a face's flux
    enters its inside owner and leaves its outside owner, if it has one."""
    faces = pieces(disc.velocity, "face")
    e = faces.element
    points, w = gauss_rule(faces)
    _, grads, hats = basis_at(disc.elements, e[:, None], points)
    n = faces.normal
    gn = np.einsum("fqba,fa->fqb", grads, n)
    term1 = np.einsum("fq,fqb->fb", w, gn)
    term2 = np.einsum("fq,fqba,fk->fabk", w, grads, n)
    Apair = -viscosity * (term1[:, None, :, None] * np.eye(2)[None, :, None, :] + term2)   # [f, a, b, k]
    Apair = np.swapaxes(Apair, 1, 2)
    Bpair = np.einsum("fq,fqj,fa->fja", w, hats, n)
    for cvs, sign in ((faces.inside, 1.0), (faces.outside, -1.0)):
        owned = cvs >= 0
        local = local_owners(disc, e[owned], cvs[owned])
        np.add.at(A, (local, e[owned]), sign * Apair[owned])
        np.add.at(B, (local, e[owned]), sign * Bpair[owned])


def mass_blocks(disc: GridDiscretization):
    """C [box, e, trial, comp] of the box balances, contracted at the Gauss
    points of every face and boundary segment."""
    C = np.zeros((3, disc.mesh.n_elements, 4, 2))
    for kind, side, sign in (("face", "inside", 1.0), ("face", "outside", -1.0), ("seg", "inside", 1.0)):
        piece = pieces(disc.pressure, kind)
        e, n = piece.element, piece.normal
        points, w = gauss_rule(piece)
        vals, _, _ = basis_at(disc.elements, e[:, None], points)
        pair = np.einsum("fq,fqb,fk->fbk", w, vals, n)
        np.add.at(C, (local_owners(disc, e, getattr(piece, side)), e), sign * pair)
    return C


def quadrature_blocks(disc: GridDiscretization, viscosity):
    """A, B and C element blocks as `package_blocks` lays them out, from the
    basis at quadrature points: the Galerkin rows of the scheme by
    `galerkin_blocks`, its flux rows by `flux_momentum_blocks`, the box
    balances by `mass_blocks`."""
    ne, spec = disc.mesh.n_elements, disc.scheme.spec
    A, B = np.zeros((4, ne, 4, 2, 2)), np.zeros((4, ne, 3, 2))
    if spec.flux_momentum:
        flux_momentum_blocks(disc, viscosity, A, B)
    tests = list(spec.galerkin_tests)
    if tests:
        A[tests], B[tests] = galerkin_blocks(disc, viscosity, tests)
    return A, B, mass_blocks(disc)


def coo_blocks(disc: GridDiscretization, blocks, pin_pressure=None):
    """The CSR blocks A, B and C of the element `blocks` of `package_blocks`
    or `quadrature_blocks`, each put through `coo_to_csr` with its row and
    column ids instead of the package's closure pattern, with Dirichlet and
    pinned rows as `assemble` makes them."""
    mesh = disc.mesh
    n_u, n_p = disc.n_velocity_locations, disc.n_pressure_dofs
    A, B, C = blocks
    ddofs = (2 * mesh.dirichlet_vertices()[:, None] + np.arange(2)).ravel()
    pinned = [] if pin_pressure is None else [pin_pressure]
    dofs = 2 * disc.element_velocity_dofs()[..., None] + np.arange(2)     # [e, local, comp]
    rows = np.swapaxes(dofs, 0, 1)                                        # [owner, e, comp]
    tri = mesh.triangles
    return (coo_to_csr(A, rows[:, :, None, :, None], dofs[None, :, :, None, :], (2 * n_u, 2 * n_u), ddofs, ddofs),
            coo_to_csr(B, rows[:, :, None, :], tri[None, :, :, None], (2 * n_u, n_p), ddofs),
            coo_to_csr(C, tri.T[:, :, None, None], dofs[None], (n_p, 2 * n_u), pinned))


def closure(mesh, vertices):
    """The closure pattern of the mesh's vertices and bubbles, from that of
    its vertices: a vertex row holds its vertex entries, then the bubbles of
    its elements in element order; a bubble row holds its element's
    vertices, sorted, then itself."""
    tri, nv, ne = mesh.triangles, mesh.n_vertices, mesh.n_elements
    incident = np.bincount(tri.ravel(), minlength=nv)
    shift = np.concatenate(([0], np.cumsum(incident)))      # bubble entries in the rows above
    degree = np.diff(vertices.indptr)
    indptr = np.concatenate((vertices.indptr + shift, vertices.indptr[-1] + shift[-1] + 4 * np.arange(1, ne + 1)))
    diagonal = np.concatenate((vertices.diagonal + shift[:-1], indptr[nv:-1] + 3))
    cols = np.empty(indptr[-1], dtype=np.int32)
    cols[np.arange(vertices.cols.size) + np.repeat(shift[:-1], degree)] = vertices.cols

    slots = np.empty((4, ne, 4), dtype=np.int32)
    slots[:3, :, :3] = vertices.slots + shift[tri.T][:, :, None]
    by_vertex = np.argsort(tri, axis=None, kind="stable")   # element order within each vertex
    rank = np.empty(by_vertex.size, dtype=np.intp)
    rank[by_vertex] = np.arange(by_vertex.size)
    slots[:3, :, 3] = (indptr[1 : nv + 1] - shift[1:])[tri.T] + rank.reshape(ne, 3).T
    cols[slots[:3, :, 3]] = nv + np.arange(ne)
    within = (tri > np.roll(tri, -1, axis=1)).astype(np.intp) + (tri > np.roll(tri, 1, axis=1))   # rank in the element
    slots[3, :, :3] = indptr[nv:-1, None] + within
    cols[slots[3, :, :3]] = tri
    slots[3, :, 3] = diagonal[nv:]
    cols[diagonal[nv:]] = nv + np.arange(ne)
    return schemes._Closure(indptr, cols, slots, diagonal)


def closure_csr(closure, blocks, shape, pairs, dropped=(), diagonal=()):
    """CSR of element blocks [owner, e, trial, comp, comp] on a closure
    pattern, and the blocks summed into the pattern entries `pairs`.

    The owners and trials are each element's first local locations, and
    each (owner, trial) pair holds a small block of row components by
    column components (1 or 2 each).  The rows and columns are the
    pattern's first locations, as many as `shape` holds, so a location row
    keeps its columns below that count.  A sparse product with one unit per
    block entry sums the small blocks into the pattern's slots, and they
    expand to CSR.  The `dropped` rows are then zeroed, each `diagonal` id
    takes a one in its slot, and entries that cancel exactly are not
    stored.  Indices are int32.  The sums at `pairs` (entries, comp, comp)
    are taken before any row is dropped.
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
    return M, data[rank[pairs]]


def closure_system(disc: GridDiscretization, problem, pin_pressure=None):
    """A, B, C and D of `assemble`'s system as CSR on the closure pattern of
    the vertices and bubbles, and J_c and the bubble inverses (ne, 2, 2)
    condensed from the blocks' sums at the vertex pairs: each element's
    correction subtracted first, then the Dirichlet and pinned rows made
    identity rows."""
    mesh = disc.mesh
    tri, nv, ne = mesh.triangles, mesh.n_vertices, mesh.n_elements
    n_u, n_p = disc.n_velocity_locations, disc.n_pressure_dofs
    ddofs = (2 * mesh.dirichlet_vertices()[:, None] + np.arange(2)).ravel()
    pinned = [] if pin_pressure is None else [pin_pressure]
    vertices = schemes._build_vertex_closure(mesh)
    pattern = closure(mesh, vertices)
    transpose = np.empty(vertices.cols.size, dtype=np.intp)     # the entry (c, r) of the entry (r, c)
    transpose[vertices.slots] = vertices.slots.swapaxes(0, 2)
    pairs = (np.arange(transpose.size) + np.repeat(pattern.indptr[:nv] - vertices.indptr[:-1], np.diff(vertices.indptr)))[transpose]
    A_blocks, B_blocks, C_blocks = package_blocks(disc, problem.viscosity)
    A, A_pairs = closure_csr(pattern, A_blocks, (2 * n_u, 2 * n_u), pairs, ddofs, ddofs)
    B, B_pairs = closure_csr(pattern, B_blocks[..., None], (2 * n_u, n_p), pairs, ddofs)
    C, C_pairs = closure_csr(pattern, C_blocks[:, :, :, None], (n_p, 2 * n_u), pairs, pinned)
    D = sp.csr_matrix((np.ones(len(pinned)), (pinned, pinned)), shape=(n_p, n_p))

    Y = np.zeros((3, 3, vertices.cols.size))
    Y[:2, :2], Y[2, :2], Y[:2, 2] = A_pairs.transpose(2, 1, 0), B_pairs[..., 0].T, C_pairs[:, 0].T
    kb, bk = np.empty((3, 2, 3, ne)), np.empty((2, 3, 3, ne))
    kb[:2], kb[2] = A_blocks[:3, :, 3].transpose(2, 3, 0, 1), C_blocks[:, :, 3].transpose(2, 0, 1)
    bk[:, :2], bk[:, 2] = A_blocks[3, :, :3].transpose(2, 3, 1, 0), B_blocks[3].transpose(2, 1, 0)
    bb = A_blocks[3, :, 3].transpose(1, 2, 0)
    inverse = np.array([[bb[1, 1], -bb[0, 1]], [-bb[1, 0], bb[0, 0]]])
    inverse /= bb[0, 0] * bb[1, 1] - bb[0, 1] * bb[1, 0]
    W = -(inverse[:, 0, None, None] * bk[0] + inverse[:, 1, None, None] * bk[1])    # [b, k, vertex, e]
    ids = vertices.slots.transpose(2, 0, 1).ravel()         # the transposed entry of (row i, column j)
    for a in range(3):
        for k in range(3):
            correction = kb[a, 0, :, None] * W[0, k] + kb[a, 1, :, None] * W[1, k]
            Y[k, a] += np.bincount(ids, correction.ravel(), minlength=Y.shape[-1])
    identity = np.zeros((nv, 3), dtype=bool)
    identity[np.divmod(ddofs, 2)] = True
    identity[pinned, 2] = True
    for a in range(3):
        Y[:, a, identity[vertices.cols, a]] = 0.0
        Y[a, a, vertices.diagonal[identity[:, a]]] = 1.0
    at, data = schemes._csc_positions(vertices), np.empty(Y.size)
    for k in range(3):
        for a in range(3):
            data[at(k, a)] = Y[k, a]
    return A, B, C, D, schemes._vertex_csc(vertices, at, data), np.ascontiguousarray(inverse.transpose(2, 0, 1))

"""Control-volume geometry for the four discretization schemes.

Every scheme shares the same pressure control volumes: the classic boxes,
where the box of vertex v collects, from each incident triangle, the
quadrilateral spanned by v, the two adjacent edge midpoints, and the
centroid.  Velocity control volumes differ per scheme:

- non-overlapping: per-vertex unions of corner triangles (vertex plus the
  two adjacent edge midpoints) and, per element, the medial triangle as
  the bubble control volume.  These tile the domain exactly.
- overlapping: boxes for the vertex unknowns plus the medial triangles for
  the bubbles; the medial triangles overlap the boxes, and only the boxes
  form a partition of the domain.
- hybrid and fem: boxes only (bubble unknowns take Galerkin equations, so
  they need no control volume).

`SCHEME_SPECS` holds these differences as data, one row per scheme, for
`build`, the assembly and the conservation audit to read.

All interior faces are straight segments strictly inside one triangle
(they meet element edges only at midpoints), each stored once with a unit
normal pointing from the `inside` control volume to the `outside` one.
Boundary pieces of control volumes are kept separately with their marker
and the outward domain normal.

Every face and boundary segment is the image of one of the twelve fixed
segments of the reference triangle listed in `REFERENCE_PIECES`, and
records which one in `face_slot` / `seg_slot`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .mesh import _TRIANGLE_EDGES, Mesh, _edge_keys

_GAUSS2 = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)

# The twelve reference pieces, as (a, b) endpoints on the reference
# triangle V0=(0,0), V1=(1,0), V2=(0,1), with M_k the midpoint of edge
# (V_k, V_k+1) and C the centroid:
#   slots 0-2   box faces        M_k -> C
#   slots 3-5   medial faces     M_k -> M_k+1
#   slots 6-11  boundary halves  V_j -> M_j (6 + 2j) and M_j -> V_j+1 (7 + 2j)
_V = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
_M = ((0.5, 0.0), (0.5, 0.5), (0.0, 0.5))
_C = (1.0 / 3.0, 1.0 / 3.0)
REFERENCE_PIECES = np.array(
    [(_M[k], _C) for k in range(3)]
    + [(_M[k], _M[(k + 1) % 3]) for k in range(3)]
    + [piece for j in range(3) for piece in ((_V[j], _M[j]), (_M[j], _V[(j + 1) % 3]))]
)
_BOX_SLOT, _MEDIAL_SLOT, _BOUNDARY_SLOT = 0, 3, 6


class SchemeKind(enum.Enum):
    NONOVERLAPPING = "non-overlapping"
    OVERLAPPING = "overlapping"
    HYBRID = "hybrid"
    FEM = "fem"

    @classmethod
    def parse(cls, name) -> "SchemeKind":
        if isinstance(name, cls):
            return name
        key = str(name).strip().lower().replace("_", "-")
        aliases = {
            "non-overlapping": cls.NONOVERLAPPING,
            "nonoverlapping": cls.NONOVERLAPPING,
            "overlapping": cls.OVERLAPPING,
            "hybrid": cls.HYBRID,
            "fem": cls.FEM,
        }
        if key not in aliases:
            raise ValueError(f"unknown scheme {name!r}; choose from {sorted(aliases)}")
        return aliases[key]

    @property
    def spec(self) -> "SchemeSpec":
        return SCHEME_SPECS[self]


@dataclass(frozen=True)
class SchemeSpec:
    """What sets one scheme apart; everything else is shared.

    `velocity_cvs` names the velocity control-volume family ("boxes" are
    the pressure boxes themselves).  `flux_momentum` says whether the
    velocity control volumes carry momentum flux balances, which are then
    assembled and audited.  `galerkin_tests` lists the local test
    functions (0-2 vertex hats, 3 the bubble) whose momentum rows are
    Galerkin equations; the vertex hats come all together or not at all.
    """

    velocity_cvs: str
    flux_momentum: bool
    galerkin_tests: tuple


SCHEME_SPECS = {
    SchemeKind.NONOVERLAPPING: SchemeSpec("non-overlapping", True, ()),
    SchemeKind.OVERLAPPING: SchemeSpec("overlapping", True, ()),
    SchemeKind.HYBRID: SchemeSpec("boxes", True, (3,)),
    SchemeKind.FEM: SchemeSpec("boxes", False, (0, 1, 2, 3)),
}


@dataclass(frozen=True)
class ElementData:
    """Per-element geometry used by basis evaluation and assembly."""

    coords: np.ndarray        # (ne, 3, 2)
    centroids: np.ndarray     # (ne, 2)
    areas: np.ndarray         # (ne,)
    jacobians: np.ndarray     # (ne, 2, 2), columns are edge vectors
    inv_jacobians: np.ndarray  # (ne, 2, 2)


def element_data(mesh: Mesh) -> ElementData:
    coords = mesh.vertices[mesh.triangles]
    centroids = coords.mean(axis=1)
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    jac = np.empty((mesh.n_elements, 2, 2))
    jac[:, :, 0] = d1
    jac[:, :, 1] = d2
    inv = np.empty_like(jac)
    inv[:, 0, 0] = d2[:, 1]
    inv[:, 0, 1] = -d2[:, 0]
    inv[:, 1, 0] = -d1[:, 1]
    inv[:, 1, 1] = d1[:, 0]
    inv /= det[:, None, None]
    return ElementData(coords, centroids, 0.5 * det, jac, inv)


def to_reference(eldata: ElementData, elements: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map physical points to reference coordinates of their elements.

    `elements` and `points` broadcast along the leading axes; points has
    shape (..., 2) and elements indexes its leading dimension.
    """
    origin = eldata.coords[elements, 0]
    inv = eldata.inv_jacobians[elements]
    d = points - origin
    return np.einsum("...ik,...k->...i", inv, d)


def _rot_minus90(d: np.ndarray) -> np.ndarray:
    return np.stack((d[..., 1], -d[..., 0]), axis=-1)


def _segment_quad(a: np.ndarray, b: np.ndarray):
    t0, t1 = _GAUSS2
    pts = np.stack((a + t0 * (b - a), a + t1 * (b - a)), axis=-2)
    lengths = np.linalg.norm(b - a, axis=-1)
    weights = np.repeat(0.5 * lengths[..., None], 2, axis=-1)
    return pts, weights


def _polygon_areas(polys: np.ndarray) -> np.ndarray:
    """Shoelace area of padded polygons (last vertex may repeat)."""
    x = polys[..., 0]
    y = polys[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    return 0.5 * np.sum(x * yn - xn * y, axis=-1)


@dataclass(frozen=True)
class ControlVolumeSet:
    """Structure-of-arrays description of one family of control volumes.

    Control-volume ids double as unknown ids: vertex control volumes use
    the vertex index, bubble control volumes use n_vertices + element.
    `partition` marks the ids whose volumes tile the domain.  Faces and
    boundary segments both carry a two-point Gauss rule whose weights sum
    to their length.
    """

    dof_locations: np.ndarray   # (n_cvs, 2)
    partition: np.ndarray       # (n_cvs,) bool
    scv_cv: np.ndarray
    scv_element: np.ndarray
    scv_nverts: np.ndarray
    scv_polys: np.ndarray       # (m, 4, 2), padded by repeating the last vertex
    scv_volumes: np.ndarray
    face_element: np.ndarray
    face_slot: np.ndarray       # index into REFERENCE_PIECES
    face_inside: np.ndarray
    face_outside: np.ndarray    # -1 when the flux has no receiving balance
    face_a: np.ndarray
    face_b: np.ndarray
    face_normal: np.ndarray
    face_length: np.ndarray
    face_qpoints: np.ndarray    # (F, 2, 2)
    face_qweights: np.ndarray   # (F, 2)
    seg_cv: np.ndarray
    seg_element: np.ndarray
    seg_slot: np.ndarray        # index into REFERENCE_PIECES
    seg_a: np.ndarray
    seg_b: np.ndarray
    seg_normal: np.ndarray
    seg_length: np.ndarray
    seg_qpoints: np.ndarray     # (S, 2, 2)
    seg_qweights: np.ndarray    # (S, 2)
    seg_marker: np.ndarray      # index into marker_names
    marker_names: tuple

    @property
    def n_cvs(self) -> int:
        return self.dof_locations.shape[0]

    @property
    def n_faces(self) -> int:
        return self.face_inside.shape[0]

    @property
    def n_segments(self) -> int:
        return self.seg_cv.shape[0]

    def cv_volumes(self) -> np.ndarray:
        """Total volume per control-volume id."""
        vol = np.zeros(self.n_cvs)
        np.add.at(vol, self.scv_cv, self.scv_volumes)
        return vol


def _pad_tris(polys3: np.ndarray) -> np.ndarray:
    return np.concatenate((polys3, polys3[:, -1:, :]), axis=1)


def _boundary_segments(mesh: Mesh):
    """Split every boundary facet at its midpoint into two CV pieces."""
    facets = mesh.boundary_facets
    # Owner of facet (a, b): the triangle whose edge runs from a to b.
    _, directed = _edge_keys(mesh.triangles[:, _TRIANGLE_EDGES], mesh.n_vertices)
    _, facet_directed = _edge_keys(facets, mesh.n_vertices)
    order = np.argsort(directed, axis=None)
    owner, edge = np.divmod(order[np.searchsorted(directed.ravel(), facet_directed, sorter=order)], 3)
    va = mesh.vertices[facets[:, 0]]
    vb = mesh.vertices[facets[:, 1]]
    mid = 0.5 * (va + vb)
    pa = np.stack((va, mid), axis=1).reshape(-1, 2)
    pb = np.stack((mid, vb), axis=1).reshape(-1, 2)
    d = pb - pa
    lengths = np.linalg.norm(d, axis=1)
    qpoints, qweights = _segment_quad(pa, pb)
    return dict(
        seg_cv=facets.reshape(-1),
        seg_element=np.repeat(owner, 2),
        seg_slot=(_BOUNDARY_SLOT + 2 * edge[:, None] + np.arange(2)).ravel(),
        seg_a=pa,
        seg_b=pb,
        seg_normal=_rot_minus90(d) / lengths[:, None],
        seg_length=lengths,
        seg_qpoints=qpoints,
        seg_qweights=qweights,
        seg_marker=np.repeat(mesh.facet_markers, 2),
    )


def _box_pieces(mesh: Mesh, eldata: ElementData):
    """Sub-volumes and interior faces of the vertex boxes."""
    ne = mesh.n_elements
    X = eldata.coords
    C = eldata.centroids
    M = 0.5 * (X + np.roll(X, -1, axis=1))   # M[:, k] = midpoint of edge (k, k+1)
    Mprev = np.roll(M, 1, axis=1)
    T = mesh.triangles

    Cb = np.broadcast_to(C[:, None, :], X.shape)
    polys = np.stack((X, M, Cb, Mprev), axis=2).reshape(-1, 4, 2)
    scv_cv = T.reshape(-1).astype(np.int64)
    scv_elem = np.repeat(np.arange(ne, dtype=np.int64), 3)
    volumes = _polygon_areas(polys)

    face_a = M.reshape(-1, 2)
    face_b = np.repeat(C, 3, axis=0)
    d = face_b - face_a
    lengths = np.linalg.norm(d, axis=1)
    normals = _rot_minus90(d) / lengths[:, None]
    inside = T.reshape(-1).astype(np.int64)
    outside = np.roll(T, -1, axis=1).reshape(-1).astype(np.int64)
    elem = np.repeat(np.arange(ne, dtype=np.int64), 3)
    slot = np.tile(_BOX_SLOT + np.arange(3), ne)
    return (polys, scv_cv, scv_elem, volumes), (face_a, face_b, normals, lengths, inside, outside, elem, slot)


def _medial_pieces(mesh: Mesh, eldata: ElementData, outside_kind: str):
    """Medial-triangle bubble volumes and their three faces per element.

    outside_kind "vertex" routes each face flux into the opposite corner's
    vertex balance (non-overlapping); "none" leaves the outside empty
    (overlapping).
    """
    ne = mesh.n_elements
    nv = mesh.n_vertices
    X = eldata.coords
    M = 0.5 * (X + np.roll(X, -1, axis=1))
    T = mesh.triangles

    polys = _pad_tris(M)
    scv_cv = nv + np.arange(ne, dtype=np.int64)
    scv_elem = np.arange(ne, dtype=np.int64)
    volumes = _polygon_areas(polys)

    Mnext = np.roll(M, -1, axis=1)
    face_a = M.reshape(-1, 2)
    face_b = Mnext.reshape(-1, 2)
    d = face_b - face_a
    lengths = np.linalg.norm(d, axis=1)
    normals = _rot_minus90(d) / lengths[:, None]
    inside = np.repeat(scv_cv, 3)
    if outside_kind == "vertex":
        # face k runs from midpoint k to midpoint k+1 and cuts off vertex k+1
        outside = np.roll(T, -1, axis=1).reshape(-1).astype(np.int64)
    else:
        outside = np.full(3 * ne, -1, dtype=np.int64)
    elem = np.repeat(np.arange(ne, dtype=np.int64), 3)
    slot = np.tile(_MEDIAL_SLOT + np.arange(3), ne)
    return (polys, scv_cv, scv_elem, volumes), (face_a, face_b, normals, lengths, inside, outside, elem, slot)


def _corner_pieces(mesh: Mesh, eldata: ElementData):
    """Corner-triangle sub-volumes of the non-overlapping vertex volumes."""
    ne = mesh.n_elements
    X = eldata.coords
    M = 0.5 * (X + np.roll(X, -1, axis=1))
    Mprev = np.roll(M, 1, axis=1)
    polys = _pad_tris(np.stack((X, M, Mprev), axis=2).reshape(-1, 3, 2))
    scv_cv = mesh.triangles.reshape(-1).astype(np.int64)
    scv_elem = np.repeat(np.arange(ne, dtype=np.int64), 3)
    volumes = _polygon_areas(polys)
    return polys, scv_cv, scv_elem, volumes


def _assemble_set(mesh, dof_locations, partition, scvs, faces, segments) -> ControlVolumeSet:
    polys, scv_cv, scv_elem, volumes = (np.concatenate(col) for col in zip(*scvs))
    nverts = np.concatenate(
        [np.full(s[0].shape[0], 3 if np.array_equal(s[0][:, 2], s[0][:, 3]) else 4, dtype=np.int64) for s in scvs]
    )
    face_a, face_b, face_n, face_l, face_in, face_out, face_e, face_s = (
        np.concatenate(col) for col in zip(*faces)
    )
    qpts, qwts = _segment_quad(face_a, face_b)
    return ControlVolumeSet(
        dof_locations=dof_locations,
        partition=partition,
        scv_cv=scv_cv,
        scv_element=scv_elem,
        scv_nverts=nverts,
        scv_polys=polys,
        scv_volumes=volumes,
        face_element=face_e,
        face_slot=face_s,
        face_inside=face_in,
        face_outside=face_out,
        face_a=face_a,
        face_b=face_b,
        face_normal=face_n,
        face_length=face_l,
        face_qpoints=qpts,
        face_qweights=qwts,
        marker_names=mesh.marker_names,
        **segments,
    )


def _build_family(family: str, mesh: Mesh, eldata=None, segments=None) -> ControlVolumeSet:
    """One control-volume family: "boxes", "non-overlapping" or "overlapping"."""
    eldata = eldata or element_data(mesh)
    segments = segments or _boundary_segments(mesh)
    nv = mesh.n_vertices
    if family == "boxes":
        box_scv, box_faces = _box_pieces(mesh, eldata)
        return _assemble_set(mesh, mesh.vertices, np.ones(nv, dtype=bool), [box_scv], [box_faces], segments)
    dofs = np.vstack((mesh.vertices, eldata.centroids))
    partition = np.ones(nv + mesh.n_elements, dtype=bool)
    if family == "non-overlapping":
        medial_scv, medial_faces = _medial_pieces(mesh, eldata, "vertex")
        scvs, faces = [_corner_pieces(mesh, eldata), medial_scv], [medial_faces]
    else:
        box_scv, box_faces = _box_pieces(mesh, eldata)
        medial_scv, medial_faces = _medial_pieces(mesh, eldata, "none")
        scvs, faces = [box_scv, medial_scv], [box_faces, medial_faces]
        partition[nv:] = False
    return _assemble_set(mesh, dofs, partition, scvs, faces, segments)


def build_boxes(mesh: Mesh, eldata: ElementData | None = None) -> ControlVolumeSet:
    """Vertex boxes: the pressure control volumes of every scheme."""
    return _build_family("boxes", mesh, eldata)


def build_nonoverlapping(mesh: Mesh, eldata: ElementData | None = None) -> ControlVolumeSet:
    """Corner-triangle vertex volumes plus medial bubble volumes (a tiling).

    The only interior faces are the medial edges; corner pieces of the same
    vertex volume meet along element edges and need no face there.
    """
    return _build_family("non-overlapping", mesh, eldata)


def build_overlapping(mesh: Mesh, eldata: ElementData | None = None) -> ControlVolumeSet:
    """Boxes for vertex unknowns plus overlapping medial bubble volumes."""
    return _build_family("overlapping", mesh, eldata)


@dataclass(frozen=True)
class GridDiscretization:
    """Mesh plus the pressure and velocity control volumes of one scheme."""

    mesh: Mesh
    scheme: SchemeKind
    elements: ElementData
    pressure: ControlVolumeSet
    velocity: ControlVolumeSet

    @property
    def n_velocity_locations(self) -> int:
        return self.mesh.n_vertices + self.mesh.n_elements

    @property
    def n_pressure_dofs(self) -> int:
        return self.mesh.n_vertices

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_velocity_locations + self.n_pressure_dofs

    @property
    def velocity_dof_locations(self) -> np.ndarray:
        return np.vstack((self.mesh.vertices, self.elements.centroids))

    def element_velocity_dofs(self) -> np.ndarray:
        """Velocity unknown ids per element: three vertices plus the bubble."""
        ne = self.mesh.n_elements
        bubbles = self.mesh.n_vertices + np.arange(ne, dtype=np.int64)
        return np.column_stack((self.mesh.triangles, bubbles))


def build(mesh: Mesh, scheme) -> GridDiscretization:
    """Build the control-volume discretization for a scheme.

    Element data and boundary segments are computed once and shared; when
    the scheme's velocity volumes are the boxes, `velocity` is `pressure`.
    """
    scheme = SchemeKind.parse(scheme)
    eldata = element_data(mesh)
    segments = _boundary_segments(mesh)
    pressure = _build_family("boxes", mesh, eldata, segments)
    family = scheme.spec.velocity_cvs
    velocity = pressure if family == "boxes" else _build_family(family, mesh, eldata, segments)
    return GridDiscretization(mesh, scheme, eldata, pressure, velocity)

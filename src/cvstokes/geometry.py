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

Every piece is a tuple of ids into the seven local points of its
triangle: ids 0-2 are the vertices X_k, ids 3-5 the edge midpoints
M_k = (X_k + X_k+1) / 2 and id 6 the centroid C.  Faces and boundary
segments are pairs of ids, the twelve slots of `_SLOTS`; evaluated at the
reference triangle's local points they give `REFERENCE_PIECES`, and every
face and segment records its slot in `face_slot` / `seg_slot`.  Each
control-volume family is a few rows of `_FAMILIES` over these ids, and one
builder gathers them element by element.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .mesh import _TRIANGLE_EDGES, Mesh, _edge_keys

_GAUSS2 = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)

# The twelve slots, as (a, b) pairs of local point ids.
_SLOTS = np.array([
    (3, 6), (4, 6), (5, 6),                          # 0-2   box faces        M_k -> C
    (3, 4), (4, 5), (5, 3),                          # 3-5   medial faces     M_k -> M_k+1
    (0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0),  # 6-11  boundary halves  X_j -> M_j -> X_j+1
])


def _local_points(coords: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The seven local points of each triangle, (ne, 7, 2): X_0-2, M_0-2, C."""
    mids = 0.5 * (coords + np.roll(coords, -1, axis=1))
    return np.concatenate((coords, mids, centroids[:, None, :]), axis=1)


_REFERENCE_TRIANGLE = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
REFERENCE_PIECES = _local_points(_REFERENCE_TRIANGLE, _REFERENCE_TRIANGLE.mean(axis=1))[0, _SLOTS]

# A family is a list of groups, each laid out element-major.  A group holds
# sub-volume rows (polygon, owner) and face rows (slot, inside, outside);
# an owner is local vertex 0-2, the element's bubble or none, and a face's
# normal points from inside to outside.  The flag says whether the bubble
# volumes belong to the partition of the domain.
_BUBBLE, _NONE = 3, 4
_BOXES = (
    (((0, 3, 6, 5), 0), ((1, 4, 6, 3), 1), ((2, 5, 6, 4), 2)),
    ((0, 0, 1), (1, 1, 2), (2, 2, 0)),
)
_CORNERS = ((((0, 3, 5), 0), ((1, 4, 3), 1), ((2, 5, 4), 2)), ())
# Medial face k cuts off corner k + 1, which receives its flux or not.
_MEDIAL_TO_CORNERS = ((((3, 4, 5), _BUBBLE),), ((3, _BUBBLE, 1), (4, _BUBBLE, 2), (5, _BUBBLE, 0)))
_MEDIAL_OPEN = ((((3, 4, 5), _BUBBLE),), ((3, _BUBBLE, _NONE), (4, _BUBBLE, _NONE), (5, _BUBBLE, _NONE)))
_FAMILIES = {
    "boxes": ((_BOXES,), True),
    "non-overlapping": ((_CORNERS, _MEDIAL_TO_CORNERS), True),
    "overlapping": ((_BOXES, _MEDIAL_OPEN), False),
}


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


def _pieces(kind: str, points: np.ndarray, elements: np.ndarray, slots: np.ndarray) -> dict:
    """`ControlVolumeSet` fields of the slot pieces `slots` of `elements`.

    `kind` is the field prefix, "face" or "seg"; normals are the unit
    vectors to the right of a -> b.
    """
    a = _take(points, elements, _SLOTS[slots, 0])
    b = _take(points, elements, _SLOTS[slots, 1])
    d = b - a
    lengths = np.linalg.norm(d, axis=1)
    qpoints, qweights = _segment_quad(a, b)
    fields = dict(element=elements, slot=slots, a=a, b=b, normal=_rot_minus90(d) / lengths[:, None],
                  length=lengths, qpoints=qpoints, qweights=qweights)
    return {f"{kind}_{name}": value for name, value in fields.items()}


def _boundary_segments(mesh: Mesh, points: np.ndarray) -> dict:
    """Split every boundary facet at its midpoint into two CV pieces."""
    facets = mesh.boundary_facets
    # Owner of facet (a, b): the triangle whose edge j runs from a to b.
    _, directed = _edge_keys(mesh.triangles[:, _TRIANGLE_EDGES], mesh.n_vertices)
    _, facet_directed = _edge_keys(facets, mesh.n_vertices)
    order = np.argsort(directed, axis=None)
    owner, edge = np.divmod(order[np.searchsorted(directed.ravel(), facet_directed, sorter=order)], 3)
    slots = (6 + 2 * edge[:, None] + np.arange(2)).ravel()
    return dict(
        seg_cv=facets.reshape(-1),
        seg_marker=np.repeat(mesh.facet_markers, 2),
        **_pieces("seg", points, np.repeat(owner, 2), slots),
    )


def _take(table: np.ndarray, elements: np.ndarray, local: np.ndarray) -> np.ndarray:
    """`table[elements, local]` for a per-element table, as one flat take."""
    return table.reshape(-1, *table.shape[2:]).take(table.shape[1] * elements + local, axis=0)


def _layout(groups, part: int, ne: int):
    """The rows of one kind (0 sub-volumes, 1 faces) of a family's groups.

    Also returns the element and the row of every entry; entries run group
    by group, element-major within a group.
    """
    rows, elements, index = [], [], []
    for group in groups:
        n = len(group[part])
        elements.append(np.repeat(np.arange(ne), n))
        index.append(np.tile(np.arange(len(rows), len(rows) + n), ne))
        rows += group[part]
    return rows, np.concatenate(elements), np.concatenate(index)


def _build_family(family: str, mesh: Mesh, eldata=None, points=None, segments=None) -> ControlVolumeSet:
    """One control-volume family of `_FAMILIES`: "boxes", "non-overlapping" or "overlapping"."""
    eldata = eldata or element_data(mesh)
    points = _local_points(eldata.coords, eldata.centroids) if points is None else points
    segments = segments or _boundary_segments(mesh, points)
    groups, bubbles_tile = _FAMILIES[family]
    ne, nv = mesh.n_elements, mesh.n_vertices
    # Owner ids per element, by local owner: the vertices, the bubble, none.
    owners = np.column_stack((mesh.triangles, nv + np.arange(ne), np.full(ne, -1))).astype(np.int64)

    cells, cell_element, cell_row = _layout(groups, 0, ne)
    polygons, cell_owner = zip(*cells)
    padded = np.array([p + p[-1:] * (4 - len(p)) for p in polygons])
    scv_polys = _take(points, cell_element[:, None], padded[cell_row])
    scv_cv = _take(owners, cell_element, np.array(cell_owner)[cell_row])
    bubbles = ne if np.any(scv_cv >= nv) else 0

    walls, face_element, face_row = _layout(groups, 1, ne)
    slot, inside, outside = (np.array(column)[face_row] for column in zip(*walls))
    return ControlVolumeSet(
        dof_locations=np.vstack((mesh.vertices, eldata.centroids[:bubbles])),
        partition=np.repeat((True, bubbles_tile), (nv, bubbles)),
        scv_cv=scv_cv,
        scv_nverts=np.array([len(p) for p in polygons])[cell_row],
        scv_polys=scv_polys,
        scv_volumes=_polygon_areas(scv_polys),
        face_inside=_take(owners, face_element, inside),
        face_outside=_take(owners, face_element, outside),
        marker_names=mesh.marker_names,
        **_pieces("face", points, face_element, slot),
        **segments,
    )


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

    def element_velocity_dofs(self) -> np.ndarray:
        """Velocity unknown ids per element: three vertices plus the bubble."""
        ne = self.mesh.n_elements
        bubbles = self.mesh.n_vertices + np.arange(ne, dtype=np.int64)
        return np.column_stack((self.mesh.triangles, bubbles))


def build(mesh: Mesh, scheme) -> GridDiscretization:
    """Build the control-volume discretization for a scheme.

    Element data, local points and boundary segments are computed once and
    shared; when the scheme's velocity volumes are the boxes, `velocity` is
    `pressure`.
    """
    scheme = SchemeKind.parse(scheme)
    eldata = element_data(mesh)
    points = _local_points(eldata.coords, eldata.centroids)
    segments = _boundary_segments(mesh, points)
    pressure = _build_family("boxes", mesh, eldata, points, segments)
    family = scheme.spec.velocity_cvs
    velocity = pressure if family == "boxes" else _build_family(family, mesh, eldata, points, segments)
    return GridDiscretization(mesh, scheme, eldata, pressure, velocity)

"""Control-volume geometry for the four discretization schemes.

Every scheme shares the same pressure control volumes: the classic boxes,
where the box of vertex v collects, from each incident triangle, the
quadrilateral spanned by v, the two adjacent edge midpoints, and the
centroid.  Velocity control volumes differ per scheme:

- non-overlapping: per-vertex unions of corner triangles (vertex plus the
  two adjacent edge midpoints) and, per element, the medial triangle as
  the bubble control volume.  These tile the domain exactly; the only
  interior faces are the medial edges, since corner pieces of the same
  vertex volume meet along element edges and need no face there.
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
reference triangle's local points they give `REFERENCE_PIECES`.  Each
control-volume family is a few rows of `_FAMILIES` over these ids, the
same in every element: sub-volume rows (`REFERENCE_CELLS`), row r owned by
local owner r, and face rows (slot, inside owner, outside owner,
`REFERENCE_FACES`).  A `ControlVolumeSet` stores no array of its own, only
the tables every family of a mesh shares, among them the (ne, 5) `owners`;
all ids and coordinates are derived on access.  The assembly and the audit
walk the rows slot by slot over all elements, reading owners from `owners`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import Mesh, facet_edges

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
_REFERENCE_POINTS = _local_points(_REFERENCE_TRIANGLE, _REFERENCE_TRIANGLE.mean(axis=1))[0]
REFERENCE_PIECES = _REFERENCE_POINTS[_SLOTS]

# A family is a list of groups, each laid out element-major.  A group holds
# sub-volume rows (polygons) and face rows (slot, inside, outside); an owner
# is local vertex 0-2, the element's bubble or none, and a face's normal
# points from inside to outside.  Sub-volume row r, counted over the
# family's groups, is owned by local owner r: the vertices, then the bubble.
# The flag says whether the bubble volumes belong to the partition of the
# domain.
_BUBBLE, _NONE = 3, 4
_BOXES = (((0, 3, 6, 5), (1, 4, 6, 3), (2, 5, 6, 4)), ((0, 0, 1), (1, 1, 2), (2, 2, 0)))
_CORNERS = (((0, 3, 5), (1, 4, 3), (2, 5, 4)), ())
# Medial face k cuts off corner k + 1, which receives its flux or not.
_MEDIAL_TO_CORNERS = (((3, 4, 5),), ((3, _BUBBLE, 1), (4, _BUBBLE, 2), (5, _BUBBLE, 0)))
_MEDIAL_OPEN = (((3, 4, 5),), ((3, _BUBBLE, _NONE), (4, _BUBBLE, _NONE), (5, _BUBBLE, _NONE)))
_FAMILIES = {
    "boxes": ((_BOXES,), True),
    "non-overlapping": ((_CORNERS, _MEDIAL_TO_CORNERS), True),
    "overlapping": ((_BOXES, _MEDIAL_OPEN), False),
}
# Each family's sub-volume polygons in the reference triangle, indexed by `scv_row`.
REFERENCE_CELLS = {family: [_REFERENCE_POINTS[list(polygon)] for group in groups for polygon in group[0]]
                   for family, (groups, _) in _FAMILIES.items()}
# Each family's sub-volume polygons as local point ids, padded to four by
# repeating the last, and their vertex counts, indexed by `scv_row`.
_CELL_IDS = {family: np.array([p + p[-1:] * (4 - len(p)) for group in groups for p in group[0]])
             for family, (groups, _) in _FAMILIES.items()}
_CELL_SIZES = {family: np.array([len(cell) for cell in cells]) for family, cells in REFERENCE_CELLS.items()}
# Each family's face rows (slot, inside owner, outside owner), the same in every element.
REFERENCE_FACES = {family: [face for group in groups for face in group[1]] for family, (groups, _) in _FAMILIES.items()}
# The owner of a boundary slot's segment, its vertex end (the only id below 3), indexed by slot.
SEGMENT_OWNERS = _SLOTS.min(axis=1)


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
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown scheme {name!r}; choose from {sorted(s.value for s in cls)}") from None

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


@dataclass(frozen=True, eq=False)
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


def _rot_minus90(d: np.ndarray) -> np.ndarray:
    return np.stack((d[..., 1], -d[..., 0]), axis=-1)


def _polygon_areas(polys: np.ndarray) -> np.ndarray:
    """Shoelace area of padded polygons (last vertex may repeat)."""
    x = polys[..., 0]
    y = polys[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    return 0.5 * np.sum(x * yn - xn * y, axis=-1)


class Pieces(NamedTuple):
    """Faces or boundary segments, each the image of a reference slot in its element."""

    element: np.ndarray
    slot: np.ndarray        # index into REFERENCE_PIECES
    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray      # unit, to the right of a -> b
    length: np.ndarray


def _pieces(points: np.ndarray, elements: np.ndarray, slots: np.ndarray) -> Pieces:
    """The slot pieces `slots` of `elements`, from the local points (ne, 7, 2)."""
    a = _take(points, elements, _SLOTS[slots, 0])
    b = _take(points, elements, _SLOTS[slots, 1])
    d = b - a
    lengths = np.linalg.norm(d, axis=-1)
    return Pieces(elements, slots, a, b, _rot_minus90(d) / lengths[..., None], lengths)


@dataclass(frozen=True, eq=False)
class ControlVolumeSet:
    """One family of control volumes, a view of tables shared by all families of a mesh.

    Control-volume ids double as unknown ids: vertex control volumes use
    the vertex index, bubble control volumes use n_vertices + element.
    `partition` marks the ids whose volumes tile the domain.  A set stores
    no array of its own: the mesh, its element data, `owners` (ne, 5, by
    local owner: the vertices, the bubble, none = -1) and the boundary
    segments are shared by the families of a mesh.  Sub-volume row r of an
    element is owned by its local owner r.  Every other id and coordinate
    is derived on access.
    """

    family: str                 # key of REFERENCE_CELLS
    mesh: Mesh
    elements: ElementData
    owners: np.ndarray          # (ne, 5)
    seg_cv: np.ndarray
    seg_element: np.ndarray
    seg_slot: np.ndarray        # index into REFERENCE_PIECES
    seg_marker: np.ndarray      # index into marker_names

    def pieces(self, kind: str, which=slice(None)) -> Pieces:
        """The faces ("face") or boundary segments ("seg", outward normals)
        `which`, every field derived once from their element and slot; local
        points are computed for the elements of these pieces only."""
        elements = getattr(self, f"{kind}_element")[which]
        near, local = np.unique(elements, return_inverse=True)
        points = _local_points(self.elements.coords[near], self.elements.centroids[near])
        return _pieces(points, local, getattr(self, f"{kind}_slot")[which])._replace(element=elements)

    def _ids(self, part: int, column: int) -> np.ndarray:
        """One id per sub-volume (part 0) or face (part 1), group by group and
        element-major within a group: its element (column -1), its row of
        `REFERENCE_CELLS` or its slot (0), or its owner (1), for a face the
        inside (1) or outside (2) one."""
        ne, elements, rows, start = self.owners.shape[0], [], [], 0
        for group in _FAMILIES[self.family][0]:
            n = len(group[part])
            elements.append(np.repeat(np.arange(ne), n))
            rows.append(np.tile(np.arange(start, start + n), ne))
            start += n
        elements, rows = np.concatenate(elements), np.concatenate(rows)
        if column < 0:
            return elements
        local = rows if part == 0 else np.array(REFERENCE_FACES[self.family])[rows, column]
        return local if column == 0 else _take(self.owners, elements, local)

    scv_element = property(lambda self: self._ids(0, -1))
    scv_row = property(lambda self: self._ids(0, 0))            # index into REFERENCE_CELLS[family]
    scv_cv = property(lambda self: self._ids(0, 1))
    face_element = property(lambda self: self._ids(1, -1))
    face_slot = property(lambda self: self._ids(1, 0))          # index into REFERENCE_PIECES
    face_inside = property(lambda self: self._ids(1, 1))
    face_outside = property(lambda self: self._ids(1, 2))       # -1 when the flux has no receiving balance
    marker_names = property(lambda self: self.mesh.marker_names)

    @property
    def n_cvs(self) -> int:
        """Vertex volumes, plus one bubble volume per element if a sub-volume row is the bubble's."""
        return self.mesh.n_vertices + self.mesh.n_elements * (len(REFERENCE_CELLS[self.family]) > _BUBBLE)

    @property
    def dof_locations(self) -> np.ndarray:
        """(n_cvs, 2): the vertices, then the centroids of the bubble volumes' elements."""
        return np.vstack((self.mesh.vertices, self.elements.centroids[: self.n_cvs - self.mesh.n_vertices]))

    @property
    def partition(self) -> np.ndarray:
        nv = self.mesh.n_vertices
        return np.repeat((True, _FAMILIES[self.family][1]), (nv, self.n_cvs - nv))

    @property
    def scv_polys(self) -> np.ndarray:
        """(m, 4, 2) sub-volume polygons, padded by repeating the last vertex."""
        points = _local_points(self.elements.coords, self.elements.centroids)
        return _take(points, self.scv_element[:, None], _CELL_IDS[self.family][self.scv_row])

    @property
    def scv_nverts(self) -> np.ndarray:
        return _CELL_SIZES[self.family][self.scv_row]

    @property
    def scv_volumes(self) -> np.ndarray:
        return _polygon_areas(self.scv_polys)

    @property
    def n_faces(self) -> int:
        return self.owners.shape[0] * len(REFERENCE_FACES[self.family])

    @property
    def n_segments(self) -> int:
        return self.seg_cv.shape[0]

    def cv_volumes(self) -> np.ndarray:
        """Total volume per control-volume id."""
        vol = np.zeros(self.n_cvs)
        np.add.at(vol, self.scv_cv, self.scv_volumes)
        return vol


def _boundary_segments(mesh: Mesh) -> dict:
    """Split every boundary facet at its midpoint into two CV pieces."""
    facets = mesh.boundary_facets
    # Owner of facet (a, b): the triangle whose edge runs from a to b.
    owner, edge = np.divmod(facet_edges(mesh.triangles, facets, mesh.n_vertices), 3)
    slots = (6 + 2 * edge[:, None] + np.arange(2)).ravel()
    return dict(seg_cv=facets.reshape(-1), seg_element=np.repeat(owner, 2), seg_slot=slots,
                seg_marker=np.repeat(mesh.facet_markers, 2))


def _take(table: np.ndarray, elements: np.ndarray, local: np.ndarray) -> np.ndarray:
    """`table[elements, local]` for a per-element table, as one flat take."""
    return table.reshape(-1, *table.shape[2:]).take(table.shape[1] * elements + local, axis=0)


@dataclass(frozen=True, eq=False)
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
        """Velocity unknown ids per element, (ne, 4): three vertices plus the bubble; read-only."""
        return self.pressure.owners[:, :4]


def build(mesh: Mesh, scheme) -> GridDiscretization:
    """Build the control-volume discretization for a scheme.

    Element data, local owners and boundary segments are computed once
    and shared by both sets; when the scheme's velocity volumes are the
    boxes, `velocity` is `pressure`.
    """
    scheme = SchemeKind.parse(scheme)
    eldata = element_data(mesh)
    ne, nv = mesh.n_elements, mesh.n_vertices
    owners = np.column_stack((mesh.triangles, nv + np.arange(ne), np.full(ne, -1))).astype(np.int64)
    owners.setflags(write=False)
    segments = _boundary_segments(mesh)
    pressure = ControlVolumeSet("boxes", mesh, eldata, owners, **segments)
    family = scheme.spec.velocity_cvs
    velocity = pressure if family == "boxes" else ControlVolumeSet(family, mesh, eldata, owners, **segments)
    return GridDiscretization(mesh, scheme, eldata, pressure, velocity)

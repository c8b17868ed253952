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
(they meet element edges only at midpoints), each one face row of its
family, whose normal (to the right of its slot's a -> b) points from the
`inside` control volume to the `outside` one.  Boundary pieces of control
volumes are kept separately with their marker; their normal points out of
the domain.

Every piece is a tuple of ids into the seven local points of its
triangle: ids 0-2 are the vertices X_k, ids 3-5 the edge midpoints
M_k = (X_k + X_k+1) / 2 and id 6 the centroid C.  Faces and boundary
segments are pairs of ids, the twelve slots of `_SLOTS`; evaluated at the
reference triangle's local points they give `REFERENCE_PIECES`.  Each
control-volume family is a row of `_FAMILIES` over these ids, the same in
every element: sub-volume polygons (`REFERENCE_CELLS`), row r owned by
local owner r, and face rows (slot, inside owner, outside owner,
`REFERENCE_FACES`).  These reference tables and each element's map are
the only geometry: a `ControlVolumeSet` stores no array of its own, only
the tables every family of a mesh shares, among them the (ne, 5) `owners`.
Assembly sums the face rows into one reference tensor per owner, and the
audit walks them slot by slot over all elements, reading owners from
`owners`; `to_physical` maps reference points into elements where
physical coordinates are needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .basis import barycentric
from .mesh import Mesh, facet_edges

# The twelve slots, as (a, b) pairs of local point ids.
_SLOTS = np.array([
    (3, 6), (4, 6), (5, 6),                          # 0-2   box faces        M_k -> C
    (3, 4), (4, 5), (5, 3),                          # 3-5   medial faces     M_k -> M_k+1
    (0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0),  # 6-11  boundary halves  X_j -> M_j -> X_j+1
])
# The seven local points of the reference triangle: X_0-2, M_0-2, C.
_REFERENCE_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5], [1 / 3, 1 / 3]])
REFERENCE_PIECES = _REFERENCE_POINTS[_SLOTS]

# A family is its sub-volume polygons, its face rows (slot, inside, outside)
# and a flag that says whether the bubble volumes belong to the partition of
# the domain.  An owner is local vertex 0-2, the element's bubble or none,
# and a face's normal points from inside to outside.  Sub-volume row r is
# owned by local owner r: the vertices, then the bubble.
_BUBBLE, _NONE = 3, 4
_BOXES = ((0, 3, 6, 5), (1, 4, 6, 3), (2, 5, 6, 4))
_BOX_FACES = ((0, 0, 1), (1, 1, 2), (2, 2, 0))
_MEDIAL = ((3, 4, 5),)
_FAMILIES = {
    "boxes": (_BOXES, _BOX_FACES, True),
    # Medial face k cuts off corner k + 1, which receives its flux or not.
    "non-overlapping": (((0, 3, 5), (1, 4, 3), (2, 5, 4)) + _MEDIAL,
                        ((3, _BUBBLE, 1), (4, _BUBBLE, 2), (5, _BUBBLE, 0)), True),
    "overlapping": (_BOXES + _MEDIAL,
                    _BOX_FACES + ((3, _BUBBLE, _NONE), (4, _BUBBLE, _NONE), (5, _BUBBLE, _NONE)), False),
}
# Each family's sub-volume polygons in the reference triangle, row by row.
REFERENCE_CELLS = {family: [_REFERENCE_POINTS[list(cell)] for cell in cells]
                   for family, (cells, _, _) in _FAMILIES.items()}
# Each family's face rows (slot, inside owner, outside owner), the same in every element.
REFERENCE_FACES = {family: list(faces) for family, (_, faces, _) in _FAMILIES.items()}
# The owner of a boundary slot's segment, its vertex end (the only id below 3), indexed by slot.
SEGMENT_OWNERS = _SLOTS.min(axis=1)


def _shoelace(polygon: np.ndarray) -> float:
    x, y = polygon.T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# Each family's reference sub-volume areas, row by row.
_CELL_AREAS = {family: np.array([_shoelace(cell) for cell in cells]) for family, cells in REFERENCE_CELLS.items()}


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
    the pressure boxes themselves).  `galerkin_tests` lists the local test
    functions (0-2 vertex hats, 3 the bubble) whose momentum rows are
    Galerkin equations; the vertex hats come all together or not at all.
    """

    velocity_cvs: str
    galerkin_tests: tuple

    @property
    def flux_momentum(self) -> bool:
        """Whether the velocity control volumes carry momentum flux balances,
        which are then assembled and audited: unless the vertex rows are Galerkin."""
        return 0 not in self.galerkin_tests


SCHEME_SPECS = {
    SchemeKind.NONOVERLAPPING: SchemeSpec("non-overlapping", ()),
    SchemeKind.OVERLAPPING: SchemeSpec("overlapping", ()),
    SchemeKind.HYBRID: SchemeSpec("boxes", (3,)),
    SchemeKind.FEM: SchemeSpec("boxes", (0, 1, 2, 3)),
}


@dataclass(frozen=True, eq=False)
class ElementData:
    """Per-element geometry used by basis evaluation and assembly."""

    coords: np.ndarray        # (ne, 3, 2)
    areas: np.ndarray         # (ne,)
    jacobians: np.ndarray     # (ne, 2, 2), columns are edge vectors
    inv_jacobians: np.ndarray  # (ne, 2, 2)


def element_data(mesh: Mesh) -> ElementData:
    coords = mesh.vertices[mesh.triangles]
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
    return ElementData(coords, 0.5 * det, jac, inv)


def to_physical(eldata: ElementData, elements, reference: np.ndarray) -> np.ndarray:
    """The images sum_k lambda_k(xi) X_k of reference points xi (..., 2) in
    `elements`, whose ids broadcast against the points' leading axes, (..., 2).
    A reference vertex maps to its vertex and a reference edge midpoint to
    exactly (X_j + X_k) / 2."""
    lam = barycentric(reference)[..., None]
    x = eldata.coords[elements]
    return lam[..., 0, :] * x[..., 0, :] + lam[..., 1, :] * x[..., 1, :] + lam[..., 2, :] * x[..., 2, :]


@dataclass(frozen=True, eq=False)
class ControlVolumeSet:
    """One family of control volumes, a view of tables shared by all families of a mesh.

    Control-volume ids double as unknown ids: vertex control volumes use
    the vertex index, bubble control volumes use n_vertices + element.
    `partition` marks the ids whose volumes tile the domain.  A set stores
    no array of its own: the mesh, its element data, `owners` (ne, 5, by
    local owner: the vertices, the bubble, none = -1) and the boundary
    segments are shared by the families of a mesh.  Its sub-volumes and
    faces are the rows of `REFERENCE_CELLS[family]` and
    `REFERENCE_FACES[family]` in every element; sub-volume row r of an
    element is owned by its local owner r.
    """

    family: str                 # key of REFERENCE_CELLS
    mesh: Mesh
    elements: ElementData
    owners: np.ndarray          # (ne, 5)
    seg_cv: np.ndarray
    seg_element: np.ndarray
    seg_slot: np.ndarray        # index into REFERENCE_PIECES
    seg_marker: np.ndarray      # index into mesh.marker_names

    @property
    def n_cvs(self) -> int:
        """Vertex volumes, plus one bubble volume per element if a sub-volume row is the bubble's."""
        return self.mesh.n_vertices + self.mesh.n_elements * (len(REFERENCE_CELLS[self.family]) > _BUBBLE)

    @property
    def partition(self) -> np.ndarray:
        nv = self.mesh.n_vertices
        return np.repeat((True, _FAMILIES[self.family][2]), (nv, self.n_cvs - nv))

    @property
    def n_faces(self) -> int:
        return self.owners.shape[0] * len(REFERENCE_FACES[self.family])

    @property
    def n_segments(self) -> int:
        return self.seg_cv.shape[0]

    def cv_volumes(self) -> np.ndarray:
        """Total volume per control-volume id: each reference sub-volume's
        area times 2|e|, added element by element through `owners`."""
        areas = _CELL_AREAS[self.family]
        vol = np.zeros(self.n_cvs)
        np.add.at(vol, self.owners[:, : areas.size], (2.0 * self.elements.areas)[:, None] * areas)
        return vol


def _boundary_segments(mesh: Mesh) -> dict:
    """Split every boundary facet at its midpoint into two CV pieces."""
    facets = mesh.boundary_facets
    # Owner of facet (a, b): the triangle whose edge runs from a to b.
    owner, edge = np.divmod(facet_edges(mesh.triangles, facets, mesh.n_vertices), 3)
    slots = (6 + 2 * edge[:, None] + np.arange(2)).ravel()
    return dict(seg_cv=facets.reshape(-1), seg_element=np.repeat(owner, 2), seg_slot=slots,
                seg_marker=np.repeat(mesh.facet_markers, 2))


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

"""Conforming triangle meshes with marked boundaries.

Provides structured unit-square style meshes, seeded random vertex
distortion that leaves the boundary fixed, a reader for ASCII MSH 2.2
files, and mesh statistics including the characteristic lengths

    h_p = (area / n_pressure_locations)^(1/2)
    h_v = (area / n_velocity_locations)^(1/2)

where pressure locations are the vertices and velocity locations are the
vertices plus the element centroids.

`validate` guards meshes from outside (`read_msh` runs it on every file);
`generate_structured` checks its arguments and `distort` the one invariant
it can break, positive areas, so the meshes they make are not validated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np


class BCKind(enum.Enum):
    """Boundary condition kind attached to a marker."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class MeshValidationError(ValueError):
    pass


class MshParseError(ValueError):
    pass


class DistortionError(RuntimeError):
    """Raised when random distortion produces a degenerate triangle."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable conforming triangle mesh.

    Attributes
    ----------
    vertices : ndarray, shape (n_vertices, 2)
    triangles : ndarray, shape (n_elements, 3)
        Vertex indices, counterclockwise.
    boundary_facets : ndarray, shape (n_facets, 2)
        Boundary edges oriented counterclockwise with respect to their
        owning triangle, so the outward normal is the edge direction
        rotated by -90 degrees.
    facet_markers : ndarray, shape (n_facets,)
        Index into `marker_names` per boundary facet.
    marker_names : tuple of str
    markers : dict
        Maps each marker name to its BCKind.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_facets: np.ndarray
    facet_markers: np.ndarray
    marker_names: tuple
    markers: dict

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def with_bc(self, markers: dict) -> "Mesh":
        """Return a copy with boundary-condition kinds reassigned."""
        unknown = set(markers) - set(self.marker_names)
        if unknown:
            raise ValueError(f"unknown marker names: {sorted(unknown)}")
        _check_bc_kinds(markers)
        merged = dict(self.markers)
        merged.update(markers)
        return replace(self, markers=merged)

    def facet_kinds(self) -> np.ndarray:
        """BCKind per boundary facet, aligned with `boundary_facets`."""
        kinds = np.array([self.markers[name] for name in self.marker_names], dtype=object)
        return kinds[self.facet_markers]

    def dirichlet_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on a Dirichlet-marked facet."""
        kinds = self.facet_kinds()
        on_d = self.boundary_facets[kinds == BCKind.DIRICHLET]
        return np.unique(on_d)

    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.boundary_facets)


def _check_bc_kinds(markers: dict) -> None:
    for name, kind in markers.items():
        if not isinstance(kind, BCKind):
            raise MeshValidationError(f"marker {name!r} has boundary kind {kind!r}, not a BCKind")


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas, positive for counterclockwise triangles."""
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


#: Vertex pairs of the three edges of a triangle, each run counterclockwise.
_TRIANGLE_EDGES = np.array([[0, 1], [1, 2], [2, 0]])


def _edge_keys(edges: np.ndarray, n_vertices: int):
    """Integer keys of edges given as vertex pairs of shape (..., 2).

    Returns the undirected key min * n_vertices + max and the directed key
    2 * undirected + (tail > head), which tells (a, b) from (b, a).  Keys
    are 64-bit, so narrower vertex ids cannot wrap around.
    """
    edges = np.asarray(edges, dtype=np.int64)
    a = edges[..., 0]
    b = edges[..., 1]
    key = np.minimum(a, b) * n_vertices + np.maximum(a, b)
    return key, 2 * key + (a > b)


def facet_edges(triangles: np.ndarray, facets: np.ndarray, n_vertices: int) -> np.ndarray:
    """For each facet (a, b), element * 3 + edge of the triangle edge that runs
    from a to b (edges as in `_TRIANGLE_EDGES`), or -1 where no edge does."""
    directed = _edge_keys(triangles[:, _TRIANGLE_EDGES], n_vertices)[1].ravel()
    facet_directed = _edge_keys(facets, n_vertices)[1]
    order = np.argsort(directed)
    found = np.append(order, -1)[np.searchsorted(directed, facet_directed, sorter=order)]
    found[np.append(directed, -1)[found] != facet_directed] = -1
    return found


def validate(mesh: Mesh) -> None:
    """Check mesh invariants, raising MeshValidationError on the first failure."""
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != 2:
        raise MeshValidationError("vertices must have shape (n, 2)")
    if not np.all(np.isfinite(mesh.vertices)):
        raise MeshValidationError("non-finite vertex coordinates")
    if mesh.triangles.ndim != 2 or mesh.triangles.shape[1] != 3:
        raise MeshValidationError("triangles must have shape (n, 3)")
    n = mesh.n_vertices
    if mesh.triangles.size and (mesh.triangles.min() < 0 or mesh.triangles.max() >= n):
        raise MeshValidationError("triangle vertex index out of range")
    unused = np.bincount(mesh.triangles.ravel(), minlength=n) == 0
    if unused.any():
        raise MeshValidationError(f"vertex {int(np.argmax(unused))} belongs to no triangle")

    areas = triangle_areas(mesh.vertices, mesh.triangles)
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshValidationError(
            f"triangle {bad} has non-positive area {areas[bad]:.3e}"
        )

    edge_keys = _edge_keys(mesh.triangles[:, _TRIANGLE_EDGES], n)[0]
    keys, counts = np.unique(edge_keys, return_counts=True)
    if np.any(counts > 2):
        raise MeshValidationError("non-conforming mesh: edge shared by >2 triangles")
    boundary_edges = keys[counts == 1]

    facets = mesh.boundary_facets
    facet_keys = _edge_keys(facets, n)[0]
    # A facet naming a vertex outside the mesh is no edge at all.
    not_boundary = ~np.isin(facet_keys, boundary_edges) | np.any((facets < 0) | (facets >= n), axis=1)
    repeated = np.ones(facet_keys.size, dtype=bool)
    repeated[np.unique(facet_keys, return_index=True)[1]] = False
    failed = not_boundary | repeated
    if failed.any():
        bad = int(np.argmax(failed))
        a, b = facets[bad]
        reason = "is not a boundary edge" if not_boundary[bad] else "listed twice"
        raise MeshValidationError(f"facet ({a}, {b}) {reason}")
    missing = np.count_nonzero(~np.isin(boundary_edges, facet_keys))
    if missing:
        raise MeshValidationError(f"{missing} boundary edges lack a marked facet")

    if mesh.facet_markers.shape[0] != mesh.boundary_facets.shape[0]:
        raise MeshValidationError("facet_markers length mismatch")
    if mesh.facet_markers.size and mesh.facet_markers.max() >= len(mesh.marker_names):
        raise MeshValidationError("facet marker index out of range")
    for name in mesh.marker_names:
        if name not in mesh.markers:
            raise MeshValidationError(f"marker {name!r} has no boundary-condition kind")
    _check_bc_kinds(mesh.markers)

    # Facet orientation must be counterclockwise in the owning triangle.
    against = facet_edges(mesh.triangles, facets, n) < 0
    if against.any():
        a, b = facets[int(np.argmax(against))]
        raise MeshValidationError(
            f"facet ({a}, {b}) is oriented against its owning triangle"
        )


def _mesh(vertices, triangles, facets, facet_markers, marker_names) -> Mesh:
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    facets = np.ascontiguousarray(facets, dtype=np.int64).reshape(-1, 2)
    facet_markers = np.ascontiguousarray(facet_markers, dtype=np.int64)
    for arr in (vertices, triangles, facets, facet_markers):
        arr.setflags(write=False)
    names = tuple(marker_names)
    return Mesh(vertices, triangles, facets, facet_markers, names, dict.fromkeys(names, BCKind.DIRICHLET))


def generate_structured(
    nx: int,
    ny: int,
    lower=(0.0, 0.0),
    upper=(1.0, 1.0),
    markers: dict | None = None,
) -> Mesh:
    """Structured triangulation of a rectangle: nx by ny cells, two triangles each.

    Cells are split along the diagonal from the lower-left to the upper-right
    corner.  Boundary markers are "left", "right", "bottom", "top"; all
    default to Dirichlet unless `markers` overrides them through `Mesh.with_bc`.
    Raises ValueError unless nx, ny are integers >= 1 and lower < upper, both finite.
    """
    for name, n in (("nx", nx), ("ny", ny)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {n!r}")
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be positive")
    if not (np.all(np.isfinite((lower, upper))) and np.all(np.less(lower, upper))):
        raise ValueError(f"box corners must be finite with lower < upper, got lower={lower}, upper={upper}")
    x = np.linspace(lower[0], upper[0], nx + 1)
    y = np.linspace(lower[1], upper[1], ny + 1)
    xx, yy = np.meshgrid(x, y, indexing="xy")
    vertices = np.column_stack((xx.ravel(), yy.ravel()))

    # Cell (i, j) has lower-left vertex j * (nx + 1) + i; cells run row by row.
    j, i = np.divmod(np.arange(nx * ny), nx)
    v00 = j * (nx + 1) + i
    v10 = v00 + 1
    v01 = v00 + nx + 1
    v11 = v01 + 1
    tris = np.stack((v00, v10, v11, v00, v11, v01), axis=1).reshape(-1, 3)

    marker_names = ("left", "right", "bottom", "top")
    rows = np.arange(ny) * (nx + 1)
    cols = np.arange(nx)
    # Per row: left facet then right facet; per column: bottom then top.
    sides = np.stack((rows + nx + 1, rows, rows + nx, rows + 2 * nx + 1), axis=1)
    caps = np.stack((cols, cols + 1, cols + 1 + ny * (nx + 1), cols + ny * (nx + 1)), axis=1)
    facets = np.concatenate((sides.reshape(-1, 2), caps.reshape(-1, 2)))
    fmark = np.concatenate((np.tile([0, 1], ny), np.tile([2, 3], nx)))

    return _mesh(vertices, tris, facets, fmark, marker_names).with_bc(markers or {})


def _shortest_incident_edge(mesh: Mesh) -> np.ndarray:
    """Length of the shortest mesh edge incident to each vertex."""
    tri = mesh.triangles
    shortest = np.full(mesh.n_vertices, np.inf)
    for k in range(3):
        a = tri[:, k]
        b = tri[:, (k + 1) % 3]
        lengths = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b], axis=1)
        np.minimum.at(shortest, a, lengths)
        np.minimum.at(shortest, b, lengths)
    return shortest


def distort(mesh: Mesh, fraction: float, seed: int) -> Mesh:
    """Randomly displace interior vertices; boundary vertices stay fixed.

    Each interior vertex moves by an independent uniform draw in
    [-fraction * l, fraction * l] per coordinate, where l is the shortest
    edge incident to that vertex in the undistorted mesh.  The draw is
    deterministic for a given seed.  Raises DistortionError if any triangle
    degenerates.
    """
    if not 0.0 <= fraction < 0.5:
        raise ValueError("fraction must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    scale = fraction * _shortest_incident_edge(mesh)
    disp = rng.uniform(-1.0, 1.0, size=mesh.vertices.shape) * scale[:, None]
    disp[mesh.boundary_vertices()] = 0.0
    moved = mesh.vertices + disp

    areas = triangle_areas(moved, mesh.triangles)
    if np.any(areas <= 0.0):
        raise DistortionError(
            f"distortion with fraction {fraction} and seed {seed} "
            f"degenerated {int(np.sum(areas <= 0.0))} triangle(s)"
        )
    moved.setflags(write=False)
    return replace(mesh, vertices=moved, markers=dict(mesh.markers))


def _orient(vertices, triangles, facets):
    """Fix triangle orientation to CCW and orient facets CCW in their owner."""
    areas = triangle_areas(vertices, triangles)
    flip = areas < 0.0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    against = facet_edges(triangles, facets, vertices.shape[0]) < 0
    return triangles, np.where(against[:, None], facets[:, ::-1], facets)


def read_msh(path: str) -> Mesh:
    """Read an ASCII MSH 2.2 file (nodes, line and triangle elements).

    Line elements carry boundary markers through their first (physical)
    tag; the names of dimension-1 groups in $PhysicalNames are used when
    present (tags are numbered per dimension), otherwise the marker is
    called "tag<N>".  All markers default to Dirichlet.  Nodes that no
    triangle uses (such as point-element nodes) are dropped.  Binary files,
    nonzero z coordinates, malformed or truncated sections and line
    elements on a dropped node raise MshParseError with the offending line
    number.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()

    def err(lineno, message):
        # Past the end of the file, point at its last line.
        return MshParseError(f"{path}:{min(lineno, max(len(lines) - 1, 0)) + 1}: {message}")

    idx = 0

    def line():
        if idx >= len(lines):
            raise err(idx, "unexpected end of file")
        return lines[idx]

    def expect(token):
        nonlocal idx
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines) or lines[idx].strip() != token:
            raise err(idx, f"expected {token}")
        idx += 1

    def ints(what):
        tokens = line().split()
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise err(idx, f"malformed {what}") from None

    def count(what):
        nonlocal idx
        n = ints(f"{what} count")
        if len(n) != 1 or n[0] < 0:
            raise err(idx, f"malformed {what} count")
        idx += 1
        return n[0]

    expect("$MeshFormat")
    fields = line().split()
    if len(fields) != 3:
        raise err(idx, "malformed $MeshFormat line")
    if fields[0] != "2.2":
        raise err(idx, f"unsupported MSH version {fields[0]} (need 2.2)")
    if fields[1] != "0":
        raise err(idx, "binary MSH files are unsupported")
    idx += 1
    expect("$EndMeshFormat")

    phys_names = {}
    save = idx
    try:
        expect("$PhysicalNames")
    except MshParseError:
        idx = save
    else:
        for _ in range(count("physical name")):
            parts = line().split(maxsplit=2)
            try:
                phys_names[int(parts[0]), int(parts[1])] = parts[2].strip().strip('"')
            except (IndexError, ValueError):
                raise err(idx, "malformed physical name") from None
            idx += 1
        expect("$EndPhysicalNames")

    expect("$Nodes")
    n_nodes = count("node")
    coords = np.empty((n_nodes, 2))
    node_ids = {}
    for k in range(n_nodes):
        parts = line().split()
        try:
            node_ids[int(parts[0])] = k
            x, y, z = map(float, parts[1:])
        except (IndexError, ValueError):
            raise err(idx, "malformed node line") from None
        if z != 0.0:
            raise err(idx, f"node has nonzero z coordinate {z:g}; only planar meshes are supported")
        coords[k] = (x, y)
        idx += 1
    expect("$EndNodes")

    expect("$Elements")
    n_elems = count("element")
    triangles = []
    facets = []
    facet_tags = []
    facet_lines = []
    for _ in range(n_elems):
        parts = ints("element line")
        if len(parts) < 3:
            raise err(idx, "malformed element line")
        etype, ntags = parts[1], parts[2]
        tags = parts[3 : 3 + ntags]
        try:
            nodes = [node_ids[c] for c in parts[3 + ntags :]]
        except KeyError as exc:
            raise err(idx, f"element references unknown node {exc.args[0]}") from None
        if etype == 1:
            if len(nodes) != 2:
                raise err(idx, "line element needs 2 nodes")
            facets.append(nodes)
            facet_tags.append(tags[0] if tags else 0)
            facet_lines.append(idx)
        elif etype == 2:
            if len(nodes) != 3:
                raise err(idx, "triangle element needs 3 nodes")
            triangles.append(nodes)
        elif etype == 15:
            pass  # isolated point elements carry no geometry here
        else:
            raise err(idx, f"unsupported element type {etype}")
        idx += 1
    expect("$EndElements")

    if not triangles:
        raise MshParseError(f"{path}: file contains no triangles")
    used, triangles = np.unique(np.array(triangles, dtype=np.int64), return_inverse=True)
    renumber = np.full(n_nodes, -1, dtype=np.int64)
    renumber[used] = np.arange(used.size)
    coords = coords[used]
    facets = np.array(facets, dtype=np.int64).reshape(-1, 2)
    orphans = np.flatnonzero(renumber[facets] < 0)
    if orphans.size:
        i, j = divmod(int(orphans[0]), 2)
        node = next(nid for nid, k in node_ids.items() if k == facets[i, j])
        raise err(facet_lines[i], f"line element references node {node}, which no triangle uses")
    facets = renumber[facets]
    triangles, facets = _orient(coords, triangles.reshape(-1, 3), facets)

    tag_list = sorted(set(facet_tags))
    marker_names = tuple(phys_names.get((1, t), f"tag{t}") for t in tag_list)
    tag_to_idx = {t: i for i, t in enumerate(tag_list)}
    facet_markers = np.array([tag_to_idx[t] for t in facet_tags], dtype=np.int64)
    mesh = _mesh(coords, triangles, facets, facet_markers, marker_names)
    validate(mesh)
    return mesh


@dataclass(frozen=True)
class MeshStats:
    """Size statistics and characteristic lengths of a mesh."""

    n_vertices: int
    n_elements: int
    area: float
    h_p: float
    h_v: float


def stats(mesh: Mesh) -> MeshStats:
    """Vertex/element counts, total area, and characteristic lengths."""
    area = float(np.sum(triangle_areas(mesh.vertices, mesh.triangles)))
    n_p = mesh.n_vertices
    n_v = mesh.n_vertices + mesh.n_elements
    return MeshStats(
        n_vertices=mesh.n_vertices,
        n_elements=mesh.n_elements,
        area=area,
        h_p=float(np.sqrt(area / n_p)),
        h_v=float(np.sqrt(area / n_v)),
    )

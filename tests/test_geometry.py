"""Control-volume geometry: boxes, corner/medial volumes, faces, closure."""

import dataclasses

import numpy as np
import pytest

from conftest import random_distorted_mesh, single_triangle_mesh
from oracles import dof_locations, pieces, sub_volumes, to_reference
from cvstokes import geometry
from cvstokes.geometry import (
    REFERENCE_CELLS,
    REFERENCE_PIECES,
    SchemeKind,
    SchemeSpec,
    build,
    SCHEME_SPECS,
    element_data,
    to_physical,
)
from cvstokes.mesh import distort, generate_structured, triangle_areas

# A scheme whose velocity volumes are each control-volume family; the fem
# velocity volumes are the pressure boxes.
FAMILY_SCHEMES = {"boxes": "fem", "non-overlapping": "non-overlapping", "overlapping": "overlapping"}
# The ids keep the names the suite reports these tests under.
BY_FAMILY = pytest.mark.parametrize(
    "family", list(FAMILY_SCHEMES), ids=["build_boxes", "build_nonoverlapping", "build_overlapping"]
)


def family_set(mesh, family):
    """The control volumes of one family, as `build` makes them."""
    return build(mesh, FAMILY_SCHEMES[family]).velocity


def _closure_defects(vset):
    """Net outward length-weighted normal per control volume (zero if closed)."""
    n = vset.n_cvs
    net = np.zeros((n, 2))
    scale = np.zeros(n)
    faces = pieces(vset, "face")
    nl = faces.normal * faces.length[:, None]
    np.add.at(net, faces.inside, nl)
    np.add.at(scale, faces.inside, faces.length)
    interior = faces.outside >= 0
    np.subtract.at(net, faces.outside[interior], nl[interior])
    np.add.at(scale, faces.outside[interior], faces.length[interior])
    if vset.n_segments:
        segs = pieces(vset, "seg")
        np.add.at(net, vset.seg_cv, segs.normal * segs.length[:, None])
        np.add.at(scale, vset.seg_cv, segs.length)
    return net, scale


def test_element_data_single_triangle():
    mesh = single_triangle_mesh()
    el = element_data(mesh)
    assert el.areas[0] == pytest.approx(0.5, rel=1e-15)
    assert np.allclose(el.coords[0].mean(axis=0), [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert np.allclose(el.jacobians[0], np.eye(2), atol=1e-15)
    assert np.allclose(el.inv_jacobians[0], np.eye(2), atol=1e-15)


def test_to_reference_roundtrip():
    mesh = random_distorted_mesh(3, n=4)
    el = element_data(mesh)
    rng = np.random.default_rng(0)
    elements = rng.integers(0, mesh.n_elements, size=40)
    ref = rng.dirichlet((1.0, 1.0, 1.0), size=40)[:, 1:]
    phys = el.coords[elements, 0] + np.einsum("eai,ei->ea", el.jacobians[elements], ref)
    back = to_reference(el, elements, phys)
    assert np.allclose(back, ref, atol=1e-13)


def test_boxes_single_triangle():
    mesh = single_triangle_mesh()
    vset = family_set(mesh, "boxes")
    assert vset.n_cvs == 3
    assert np.all(vset.partition)
    assert np.allclose(vset.cv_volumes(), 1.0 / 6.0, rtol=1e-14)
    assert vset.n_faces == 3
    assert vset.n_segments == 6
    # Face 0 runs from the midpoint of edge (0, 1) to the centroid.
    faces = pieces(vset, "face")
    assert np.allclose(faces.a[0], [0.5, 0.0], atol=1e-15)
    assert np.allclose(faces.b[0], [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert (faces.inside[0], faces.outside[0]) == (0, 1)
    d = faces.b[0] - faces.a[0]
    length = faces.length[0]
    normal = faces.normal[0]
    assert length == pytest.approx(np.hypot(*d), rel=1e-14)
    assert np.allclose(normal, np.array([d[1], -d[0]]) / length, atol=1e-15)
    assert np.linalg.norm(normal) == pytest.approx(1.0, rel=1e-15)


@BY_FAMILY
def test_pieces_are_images_of_their_reference_slots(family):
    mesh = random_distorted_mesh(21, n=6)
    el = element_data(mesh)
    vset = family_set(mesh, family)
    for kind in ("face", "seg"):
        piece = pieces(vset, kind)
        ends = np.stack((piece.a, piece.b), axis=1)
        assert np.max(np.abs(to_reference(el, piece.element[:, None], ends) - REFERENCE_PIECES[piece.slot])) <= 1e-12


def test_bubble_cv_is_medial_triangle():
    mesh = single_triangle_mesh(scale=2.0)
    coords = mesh.vertices
    vset = family_set(mesh, "overlapping")
    scvs = sub_volumes(vset)
    (scv,) = np.flatnonzero(scvs.cv == 3)
    mids = 0.5 * (coords + np.roll(coords, -1, axis=0))
    assert scvs.nverts[scv] == 3
    assert np.allclose(scvs.polygon[scv, :3], mids, atol=1e-15)
    assert scvs.volume[scv] == pytest.approx(0.5, rel=1e-14)  # a quarter of area 2
    assert vset.cv_volumes()[3] == pytest.approx(0.5, rel=1e-14)
    faces = pieces(vset, "face")
    bubble = faces.inside == 3
    assert np.sum(bubble) == 3
    assert np.all(faces.outside[bubble] == -1)
    center = mids.mean(axis=0)
    for a, b, normal in zip(faces.a[bubble], faces.b[bubble], faces.normal[bubble]):
        mid = 0.5 * (a + b)
        assert np.dot(normal, mid - center) > 0.0
        assert np.linalg.norm(normal) == pytest.approx(1.0, rel=1e-14)


def test_nonoverlapping_single_triangle():
    mesh = single_triangle_mesh()
    vset = family_set(mesh, "non-overlapping")
    assert vset.n_cvs == 4
    assert np.all(vset.partition)
    vols = vset.cv_volumes()
    assert np.allclose(vols, 0.125, rtol=1e-14)
    assert np.sum(vols) == pytest.approx(0.5, rel=1e-14)
    assert vset.n_faces == 3
    # Every face lies between the bubble volume and the cut-off corner.
    faces = pieces(vset, "face")
    assert np.all(faces.inside == 3)
    assert sorted(faces.outside) == [0, 1, 2]
    # The face from midpoint(0,1) to midpoint(1,2) cuts off vertex 1.
    a = faces.a
    k = int(np.flatnonzero(np.isclose(a[:, 0], 0.5) & np.isclose(a[:, 1], 0.0))[0])
    assert faces.outside[k] == 1


def test_overlapping_counts_two_elements():
    mesh = generate_structured(1, 1)
    vset = family_set(mesh, "overlapping")
    assert vset.n_cvs == 6
    assert np.array_equal(vset.partition, [True] * 4 + [False] * 2)
    vols = vset.cv_volumes()
    assert np.sum(vols[vset.partition]) == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(vols[4:], 0.125, rtol=1e-14)
    assert vset.n_faces == 12
    # Bubble faces route their flux only into the bubble balance.
    faces = pieces(vset, "face")
    bubble_faces = faces.inside >= 4
    assert np.sum(bubble_faces) == 6
    assert np.all(faces.outside[bubble_faces] == -1)
    assert np.all(faces.outside[~bubble_faces] >= 0)


def test_velocity_dof_locations():
    mesh = generate_structured(2, 2)
    vset = family_set(mesh, "overlapping")
    el = element_data(mesh)
    locations = dof_locations(vset)
    assert locations.shape == (vset.n_cvs, 2)
    assert np.allclose(locations[vset.owners[:, :3]], el.coords)
    assert np.allclose(locations[vset.owners[:, 3]], el.coords.mean(axis=1))


@BY_FAMILY
def test_cv_closure_random_meshes(family):
    for seed in range(10):
        mesh = random_distorted_mesh(seed, n=4, fraction=0.25)
        vset = family_set(mesh, family)
        net, scale = _closure_defects(vset)
        assert np.all(np.linalg.norm(net, axis=1) <= 1e-13 * np.maximum(scale, 1e-30))


@BY_FAMILY
def test_partition_volumes_random_meshes(family):
    for seed in range(10):
        mesh = random_distorted_mesh(seed + 10, n=4, fraction=0.25)
        area = np.sum(triangle_areas(mesh.vertices, mesh.triangles))
        vset = family_set(mesh, family)
        vols = vset.cv_volumes()
        assert np.all(vols > 0.0)
        total = np.sum(vols[vset.partition])
        assert total == pytest.approx(area, rel=1e-12)
        if family == "overlapping":
            assert np.sum(vols) == pytest.approx(1.25 * area, rel=1e-12)


def test_face_normals_point_from_inside_to_outside():
    for seed in range(5):
        mesh = random_distorted_mesh(seed, n=4, fraction=0.25)
        for family in FAMILY_SCHEMES:
            vset = family_set(mesh, family)
            faces = pieces(vset, "face")
            sel = faces.outside >= 0
            locations = dof_locations(vset)
            d = locations[faces.outside[sel]] - locations[faces.inside[sel]]
            dots = np.sum(faces.normal[sel] * d, axis=1)
            assert np.all(dots > 0.0)


def test_boundary_segments_cover_perimeter():
    mesh = generate_structured(3, 3)
    vset = family_set(mesh, "boxes")
    segs = pieces(vset, "seg")
    assert np.sum(segs.length) == pytest.approx(4.0, rel=1e-14)
    mids = 0.5 * (segs.a + segs.b)
    outward = np.sum(segs.normal * (mids - 0.5), axis=1)
    assert np.all(outward > 0.0)
    # Segment markers agree with the geometric side.
    for i in range(vset.n_segments):
        mid = mids[i]
        side = {
            "left": mid[0] == 0.0,
            "right": mid[0] == 1.0,
            "bottom": mid[1] == 0.0,
            "top": mid[1] == 1.0,
        }
        assert side[mesh.marker_names[vset.seg_marker[i]]]


def test_boundary_segment_splitting():
    mesh = generate_structured(2, 2)
    vset = family_set(mesh, "boxes")
    # Each of the 8 boundary facets splits at its midpoint into 2 pieces.
    assert vset.n_segments == 16
    segs = pieces(vset, "seg")
    assert np.allclose(segs.length, 0.25, rtol=1e-14)
    # Each piece belongs to the vertex at its unsplit end.
    for i in range(vset.n_segments):
        v = mesh.vertices[vset.seg_cv[i]]
        assert min(np.linalg.norm(segs.a[i] - v), np.linalg.norm(segs.b[i] - v)) < 1e-14


def test_subcontrol_volume_polygons():
    mesh = random_distorted_mesh(1, n=3)
    vset = family_set(mesh, "overlapping")
    scvs = sub_volumes(vset)
    total = 0.0
    for i in range(scvs.cv.shape[0]):
        poly = scvs.polygon[i, : scvs.nverts[i]]
        x, y = poly[:, 0], poly[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0.0
        assert scvs.volume[i] == pytest.approx(area, rel=1e-12)
        total += scvs.volume[i]
    area = np.sum(triangle_areas(mesh.vertices, mesh.triangles))
    assert total == pytest.approx(1.25 * area, rel=1e-12)
    oracle = np.zeros(vset.n_cvs)
    np.add.at(oracle, scvs.cv, scvs.volume)
    assert np.max(np.abs(vset.cv_volumes() - oracle)) <= 1e-12 * np.max(oracle)


def test_scheme_parse():
    assert SchemeKind.parse("non_overlapping") is SchemeKind.NONOVERLAPPING
    assert SchemeKind.parse("Non-Overlapping") is SchemeKind.NONOVERLAPPING
    assert SchemeKind.parse("fem") is SchemeKind.FEM
    assert SchemeKind.parse(SchemeKind.HYBRID) is SchemeKind.HYBRID
    with pytest.raises(ValueError):
        SchemeKind.parse("spectral")


def test_grid_discretization_layout():
    mesh = generate_structured(2, 2)
    for scheme in ("overlapping", "non-overlapping", "hybrid", "fem"):
        disc = build(mesh, scheme)
        nv, ne = mesh.n_vertices, mesh.n_elements
        assert disc.n_velocity_locations == nv + ne
        assert disc.n_pressure_dofs == nv
        assert disc.n_dofs == 2 * (nv + ne) + nv
        dofs = disc.element_velocity_dofs()
        assert dofs.shape == (ne, 4)
        assert np.array_equal(dofs[:, :3], mesh.triangles)
        assert np.array_equal(dofs[:, 3], nv + np.arange(ne))
        # Pressure volumes are the boxes for every scheme.
        assert disc.pressure.n_cvs == nv
        assert np.all(disc.pressure.partition)
    hybrid = build(mesh, "hybrid")
    assert hybrid.velocity.n_cvs == mesh.n_vertices
    over = build(mesh, "overlapping")
    assert over.velocity.n_cvs == mesh.n_vertices + mesh.n_elements


def test_every_scheme_has_a_spec_row():
    assert set(SCHEME_SPECS) == set(SchemeKind)
    # Whether momentum is a flux balance follows from the Galerkin tests, so
    # a spec cannot say otherwise.
    assert [f.name for f in dataclasses.fields(SchemeSpec)] == ["velocity_cvs", "galerkin_tests"]
    for scheme in SchemeKind:
        spec = scheme.spec
        assert spec.velocity_cvs in ("boxes", "non-overlapping", "overlapping")
        assert spec.galerkin_tests in ((), (3,), (0, 1, 2, 3))
        assert spec.flux_momentum == (0 not in spec.galerkin_tests), scheme
        # Each bubble gets exactly one momentum equation: a flux balance of
        # its control volume or a Galerkin row.
        bubble_flux = spec.flux_momentum and spec.velocity_cvs != "boxes"
        assert bubble_flux != (3 in spec.galerkin_tests), scheme


def test_hybrid_and_fem_velocity_set_is_the_pressure_set():
    mesh = random_distorted_mesh(4, n=3)
    for scheme in ("hybrid", "fem"):
        disc = build(mesh, scheme)
        assert disc.velocity is disc.pressure
    for scheme in ("overlapping", "non-overlapping"):
        disc = build(mesh, scheme)
        assert disc.velocity is not disc.pressure
        assert disc.velocity.n_cvs == mesh.n_vertices + mesh.n_elements


def test_control_volume_set_is_frozen():
    vset = family_set(generate_structured(2, 2), "boxes")
    with pytest.raises(dataclasses.FrozenInstanceError):
        vset.owners = None


def _kept_bytes(*records):
    """Bytes of the distinct arrays the records keep alive, following the
    fields of nested dataclasses (views count their base)."""
    roots, todo = {}, list(records)
    while todo:
        record = todo.pop()
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            if dataclasses.is_dataclass(value):
                todo.append(value)
            while isinstance(value, np.ndarray) and isinstance(value.base, np.ndarray):
                value = value.base
            if isinstance(value, np.ndarray):
                roots[id(value)] = value.nbytes
    return sum(roots.values())


@pytest.mark.parametrize("n", [24, 64])
def test_overlapping_discretization_keeps_at_most_240_bytes_per_element(n):
    # The mesh, the element data and the owner and segment tables, shared by
    # both control-volume sets, which store no array of their own; sub-volume
    # and face ids, local points and coordinates are derived on access (about
    # 530 bytes per element with stored local points and sub-volume ids).
    mesh = generate_structured(n, n)
    disc = build(mesh, "overlapping")
    assert _kept_bytes(disc) <= 240 * mesh.n_elements


@pytest.mark.parametrize("family", list(FAMILY_SCHEMES))
def test_sub_volume_row_r_is_owned_by_local_owner_r(family):
    # The unknown of local owner r (vertex r, or the bubble at the centroid)
    # lies in the closed polygon of sub-volume row r of every element.
    cvset = family_set(random_distorted_mesh(6, n=5), family)
    scvs = sub_volumes(cvset)
    assert np.array_equal(scvs.cv, cvset.owners[scvs.element, scvs.row])
    d = scvs.polygon - dof_locations(cvset)[scvs.cv][:, None]
    d_next = np.roll(d, -1, axis=1)
    cross = d[..., 0] * d_next[..., 1] - d[..., 1] * d_next[..., 0]
    assert np.all(cross >= -1e-15)
    assert [f.name for f in dataclasses.fields(cvset)] == [
        "family", "mesh", "elements", "owners", "seg_cv", "seg_element", "seg_slot", "seg_marker"]


def test_families_share_the_owner_table_and_count_faces_by_row():
    mesh = random_distorted_mesh(10, n=3)
    disc = build(mesh, "overlapping")
    assert disc.velocity.owners is disc.pressure.owners
    assert np.shares_memory(disc.element_velocity_dofs(), disc.pressure.owners)
    for cvset in (disc.pressure, disc.velocity):
        rows = geometry.REFERENCE_FACES[cvset.family]
        assert cvset.n_faces == mesh.n_elements * len(rows) == pieces(cvset, "face").inside.size
        assert cvset.n_segments == 2 * len(mesh.boundary_facets) == pieces(cvset, "seg").inside.size


def test_array_holding_records_compare_and_hash_by_identity():
    # Field-wise == would ask an array for one truth value, and a field-wise
    # hash would fail on the arrays.
    m = generate_structured(2, 2)
    assert m == m
    assert m != generate_structured(2, 2)
    disc = build(m, "overlapping")
    assert disc != build(m, "overlapping")
    objects = (m, disc.elements, disc.pressure, disc.velocity, disc)
    assert len(set(objects)) == len(objects)
    for obj in objects:
        assert obj == obj and obj in {obj}


@pytest.mark.parametrize("family", list(FAMILY_SCHEMES))
def test_derived_coordinates_equal_a_pieces_oracle(family):
    # The package's one physical path, reference tables through each
    # element's map, against the oracle's local points element by element.
    mesh = random_distorted_mesh(17, n=7)
    cvset = family_set(mesh, family)
    el = element_data(mesh)
    for kind in ("face", "seg"):
        piece = pieces(cvset, kind)
        ends = to_physical(el, piece.element[:, None], REFERENCE_PIECES[piece.slot])
        want = np.stack((piece.a, piece.b), axis=1)
        assert np.max(np.abs(ends - want)) <= 1e-15, kind
        if kind == "seg":
            # Vertices and edge midpoints, all a segment's ends, map to the
            # same bits as the oracle's.
            assert np.array_equal(ends, want)
    scvs = sub_volumes(cvset)
    for row, cell in enumerate(REFERENCE_CELLS[family]):
        mine = scvs.row == row
        polygon = to_physical(el, scvs.element[mine, None], cell)
        assert np.max(np.abs(polygon - scvs.polygon[mine, : len(cell)])) <= 1e-15
    oracle = np.zeros(cvset.n_cvs)
    np.add.at(oracle, scvs.cv, scvs.volume)
    assert np.max(np.abs(cvset.cv_volumes() - oracle) / oracle) <= 1e-13


@pytest.mark.parametrize("family", list(FAMILY_SCHEMES))
def test_cv_volumes_keep_their_accuracy_away_from_the_origin(family):
    # Volumes come from the edge vectors, so shifting the mesh costs only
    # the rounding of its coordinates (shoelace sums of physical
    # coordinates lost about 3e-6 at a shift of 1e3).
    scheme = FAMILY_SCHEMES[family]
    base = distort(generate_structured(40, 40), 0.2, seed=3)
    far = distort(generate_structured(40, 40, lower=(1e3, 1e3), upper=(1e3 + 1.0, 1e3 + 1.0)), 0.2, seed=3)
    near, shifted = (build(m, scheme).velocity.cv_volumes() for m in (base, far))
    assert np.max(np.abs(shifted - near) / near) <= 1e-9

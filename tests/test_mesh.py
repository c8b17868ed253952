"""Structured mesh generation, validation, distortion, MSH parsing, stats."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    ORPHAN_LINE_MSH,
    ORPHAN_LINE_NO,
    random_distorted_mesh,
    single_triangle_mesh,
    write_msh22,
)
from cvstokes import mesh as mesh_module
from cvstokes.mesh import (
    BCKind,
    DistortionError,
    Mesh,
    MeshValidationError,
    MshParseError,
    _edge_keys,
    distort,
    facet_edges,
    generate_structured,
    read_msh,
    stats,
    triangle_areas,
    validate,
)


def test_structured_counts_and_areas():
    mesh = generate_structured(2, 2)
    assert mesh.n_vertices == 9
    assert mesh.n_elements == 8
    assert mesh.boundary_facets.shape[0] == 8
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    assert np.allclose(areas, 0.125, atol=1e-15)
    assert np.sum(areas) == pytest.approx(1.0, rel=1e-14)


def test_structured_two_element_mesh():
    mesh = generate_structured(1, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    assert np.sum(triangle_areas(mesh.vertices, mesh.triangles)) == pytest.approx(1.0)


def test_structured_custom_extent():
    mesh = generate_structured(3, 2, lower=(-1.0, 0.5), upper=(2.0, 1.5))
    assert mesh.vertices[:, 0].min() == pytest.approx(-1.0)
    assert mesh.vertices[:, 0].max() == pytest.approx(2.0)
    assert np.sum(triangle_areas(mesh.vertices, mesh.triangles)) == pytest.approx(3.0)


def test_structured_markers_and_default_bc():
    mesh = generate_structured(4, 4)
    assert set(mesh.marker_names) == {"left", "right", "bottom", "top"}
    assert all(kind is BCKind.DIRICHLET for kind in mesh.markers.values())
    # Each side of an n x n grid contributes n facets.
    counts = np.bincount(mesh.facet_markers, minlength=4)
    assert np.all(counts == 4)
    # Facets marked "left" really lie on x = 0.
    left_idx = mesh.marker_names.index("left")
    on_left = mesh.boundary_facets[mesh.facet_markers == left_idx]
    assert np.allclose(mesh.vertices[on_left][:, :, 0], 0.0, atol=1e-15)


def test_with_bc_override():
    mesh = generate_structured(2, 2)
    mixed = mesh.with_bc({"right": BCKind.NEUMANN, "top": BCKind.NEUMANN})
    assert mixed.markers["right"] is BCKind.NEUMANN
    assert mixed.markers["left"] is BCKind.DIRICHLET
    # The original object is unchanged.
    assert mesh.markers["right"] is BCKind.DIRICHLET
    with pytest.raises(ValueError):
        mesh.with_bc({"nose": BCKind.NEUMANN})
    # A string kind would leave "right" neither Dirichlet nor Neumann, so
    # its traction would silently never be applied.
    with pytest.raises(ValueError, match="marker 'right' has boundary kind 'neumann', not a BCKind"):
        mesh.with_bc({"left": BCKind.DIRICHLET, "right": "neumann", "top": BCKind.NEUMANN})


def test_structured_markers_go_through_with_bc():
    # A misspelt name used to leave "left" Dirichlet and add a stray "lefft" key.
    with pytest.raises(ValueError, match=re.escape("unknown marker names: ['lefft']")):
        generate_structured(2, 2, markers={"lefft": BCKind.NEUMANN})
    mesh = generate_structured(2, 2, markers={"left": BCKind.NEUMANN})
    assert mesh.markers == {"left": BCKind.NEUMANN, "right": BCKind.DIRICHLET,
                            "bottom": BCKind.DIRICHLET, "top": BCKind.DIRICHLET}


@pytest.mark.parametrize("lower, upper", [
    ((0.0, 0.0), (0.0, 1.0)),
    ((0.0, 1.0), (1.0, 0.5)),
    ((0.0, float("nan")), (1.0, 1.0)),
    ((0.0, 0.0), (float("inf"), 1.0)),
])
def test_structured_rejects_an_empty_or_infinite_box(lower, upper):
    # An inverted or flat box used to fail later as "triangle 0 has non-positive area".
    with pytest.raises(ValueError) as info:
        generate_structured(2, 2, lower=lower, upper=upper)
    assert str(info.value) == (
        f"box corners must be finite with lower < upper, got lower={lower}, upper={upper}"
    )


@pytest.mark.parametrize("kwargs", [
    dict(nx=1, ny=1),
    dict(nx=1, ny=4),
    dict(nx=5, ny=2),
    dict(nx=3, ny=7),
    dict(nx=16, ny=16),
    dict(nx=3, ny=2, lower=(-1.0, 0.5), upper=(2.0, 1.5)),
    dict(nx=4, ny=3, lower=(1e-3, -7.0), upper=(2e-3, -6.5)),
    dict(nx=2, ny=5, markers={"right": BCKind.NEUMANN, "top": BCKind.NEUMANN}),
])
def test_generated_meshes_are_valid(kwargs):
    # generate_structured does not validate its output; this test does.
    mesh = generate_structured(**kwargs)
    validate(mesh)
    for moved in (mesh, distort(mesh, 0.3, seed=kwargs["nx"])):
        for arr in (moved.vertices, moved.triangles, moved.boundary_facets, moved.facet_markers):
            assert arr.flags.c_contiguous and not arr.flags.writeable


def test_validate_runs_once_per_read_msh_and_never_on_package_meshes(tmp_path, monkeypatch):
    calls = []
    real = mesh_module.validate
    monkeypatch.setattr(mesh_module, "validate", lambda mesh: calls.append(mesh) or real(mesh))
    grid = generate_structured(6, 4, markers={"top": BCKind.NEUMANN})
    moved = distort(grid, 0.3, seed=4)
    assert calls == []
    path = tmp_path / "m.msh"
    write_msh22(path, moved)
    meshes = [read_msh(str(path)) for _ in range(2)]
    assert len(calls) == 2 and all(a is b for a, b in zip(calls, meshes))


def test_dirichlet_vertices_mixed_layout():
    mesh = generate_structured(2, 2).with_bc(
        {"right": BCKind.NEUMANN, "top": BCKind.NEUMANN}
    )
    dv = mesh.dirichlet_vertices()
    coords = mesh.vertices[dv]
    assert np.all((np.abs(coords[:, 0]) < 1e-14) | (np.abs(coords[:, 1]) < 1e-14))
    # All boundary vertices minus the interior of the two Neumann sides.
    assert len(dv) == 5
    assert len(mesh.boundary_vertices()) == 8


def test_validate_rejects_clockwise_triangle():
    good = single_triangle_mesh()
    bad = Mesh(
        good.vertices,
        np.array([[0, 2, 1]], dtype=np.int64),
        good.boundary_facets,
        good.facet_markers,
        good.marker_names,
        good.markers,
    )
    with pytest.raises(MeshValidationError):
        validate(bad)


def test_validate_rejects_missing_facet():
    good = single_triangle_mesh()
    bad = Mesh(
        good.vertices,
        good.triangles,
        good.boundary_facets[:2],
        good.facet_markers[:2],
        good.marker_names,
        good.markers,
    )
    with pytest.raises(MeshValidationError):
        validate(bad)


def test_validate_rejects_flipped_facet():
    good = single_triangle_mesh()
    facets = np.array([[1, 0], [1, 2], [2, 0]], dtype=np.int64)
    bad = Mesh(
        good.vertices,
        good.triangles,
        facets,
        good.facet_markers,
        good.marker_names,
        good.markers,
    )
    with pytest.raises(MeshValidationError):
        validate(bad)


def _with_facets(mesh, facets):
    """The mesh with other boundary facets, all carrying marker 0."""
    facets = np.asarray(facets, dtype=np.int64)
    markers = np.zeros(len(facets), dtype=np.int64)
    return Mesh(mesh.vertices, mesh.triangles, facets, markers, mesh.marker_names, mesh.markers)


def test_validate_messages_name_the_failure():
    grid = generate_structured(2, 2)          # 3 x 3 vertices, vertex 4 in the middle
    facets = grid.boundary_facets.tolist()
    assert facets[:2] == [[3, 0], [2, 5]] and [1, 2] in facets
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    three = Mesh(
        vertices, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]), np.zeros((0, 2), dtype=np.int64),
        np.zeros(0, dtype=np.int64), ("wall",), {"wall": BCKind.DIRICHLET},
    )
    cases = [
        (three, "non-conforming mesh: edge shared by >2 triangles"),
        (_with_facets(grid, [[0, 4]] + facets[1:]), "facet (0, 4) is not a boundary edge"),
        (_with_facets(grid, facets[:3] + [facets[1]] + facets[4:]), "facet (2, 5) listed twice"),
        (_with_facets(grid, facets[1:]), "1 boundary edges lack a marked facet"),
        (_with_facets(grid, [[0, 3]] + facets[1:]), "facet (0, 3) is oriented against its owning triangle"),
        # (0, 11) has the integer key 0 * 9 + 11 of the boundary edge (1, 2), but 11 is no vertex.
        (_with_facets(grid, [facets[0], [0, 11]] + facets[2:]), "facet (0, 11) is not a boundary edge"),
        (_with_facets(grid, [facets[0], [-1, 2]] + facets[2:]), "facet (-1, 2) is not a boundary edge"),
        (dataclasses.replace(grid, markers={**grid.markers, "top": "neumann"}),
         "marker 'top' has boundary kind 'neumann', not a BCKind"),
    ]
    for mesh, message in cases:
        with pytest.raises(MeshValidationError) as info:
            validate(mesh)
        assert str(info.value) == message
    with pytest.raises(MeshValidationError, match="marker 'top' has boundary kind None"):
        generate_structured(2, 2, markers={"top": None})


def test_edge_keys_do_not_wrap_for_int32_ids():
    # With 70001 vertices the keys pass 2^32; int32 vertex ids must not wrap them.
    edges = np.array([[69999, 70000], [70000, 3], [5, 69998]])
    for got, want in zip(_edge_keys(edges.astype(np.int32), 70001), (
        np.array([69999 * 70001 + 70000, 3 * 70001 + 70000, 5 * 70001 + 69998]),
        np.array([2 * (69999 * 70001 + 70000), 2 * (3 * 70001 + 70000) + 1, 2 * (5 * 70001 + 69998)]),
    )):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def _nested_loop_structured(nx, ny):
    """Triangles and facets of generate_structured, built cell by cell."""

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    facets, marks = [], []
    for j in range(ny):
        facets += [(vid(0, j + 1), vid(0, j)), (vid(nx, j), vid(nx, j + 1))]
        marks += [0, 1]
    for i in range(nx):
        facets += [(vid(i, 0), vid(i + 1, 0)), (vid(i + 1, ny), vid(i, ny))]
        marks += [2, 3]
    return np.array(tris), np.array(facets), np.array(marks)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (5, 2), (3, 7)])
def test_structured_matches_nested_loop_reference(nx, ny):
    mesh = generate_structured(nx, ny)
    tris, facets, marks = _nested_loop_structured(nx, ny)
    for got, want in ((mesh.triangles, tris), (mesh.boundary_facets, facets), (mesh.facet_markers, marks)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_msh_reader_reorients_triangles_and_facets(tmp_path):
    mesh = distort(generate_structured(3, 2), 0.2, seed=8)
    triangles = mesh.triangles.copy()
    triangles[4] = triangles[4, [0, 2, 1]]            # clockwise
    facets = mesh.boundary_facets.copy()
    facets[3] = facets[3, ::-1]                       # against its triangle
    flipped = SimpleNamespace(
        vertices=mesh.vertices, triangles=triangles, boundary_facets=facets,
        facet_markers=mesh.facet_markers, marker_names=mesh.marker_names,
        n_vertices=mesh.n_vertices, n_elements=mesh.n_elements,
    )
    path = tmp_path / "flipped.msh"
    write_msh22(path, flipped)
    back = read_msh(str(path))
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_facets, mesh.boundary_facets)


def test_validate_rejects_unnamed_marker():
    good = single_triangle_mesh()
    bad = Mesh(
        good.vertices,
        good.triangles,
        good.boundary_facets,
        good.facet_markers,
        good.marker_names,
        {},
    )
    with pytest.raises(MeshValidationError):
        validate(bad)


def test_distort_deterministic_and_boundary_fixed():
    base = generate_structured(6, 6)
    m1 = distort(base, 0.2, seed=5)
    m2 = distort(base, 0.2, seed=5)
    assert np.array_equal(m1.vertices, m2.vertices)
    m3 = distort(base, 0.2, seed=6)
    assert not np.array_equal(m1.vertices, m3.vertices)
    bv = base.boundary_vertices()
    assert np.array_equal(m1.vertices[bv], base.vertices[bv])
    interior = np.setdiff1d(np.arange(base.n_vertices), bv)
    assert np.all(np.any(m1.vertices[interior] != base.vertices[interior], axis=1))


def test_distort_zero_fraction_is_identity():
    base = generate_structured(4, 4)
    moved = distort(base, 0.0, seed=1)
    assert np.array_equal(moved.vertices, base.vertices)


def test_distort_does_not_mutate_input():
    base = generate_structured(4, 4)
    before = base.vertices.copy()
    distort(base, 0.3, seed=2)
    assert np.array_equal(base.vertices, before)


def test_distort_rejects_large_fraction():
    base = generate_structured(4, 4)
    with pytest.raises(ValueError):
        distort(base, 0.5, seed=1)
    with pytest.raises(ValueError):
        distort(base, -0.1, seed=1)


def test_distort_bound_on_displacement():
    base = generate_structured(8, 8)
    frac = 0.25
    moved = distort(base, frac, seed=9)
    # Every coordinate moves at most frac times the shortest incident edge,
    # which on this structured grid is bounded by the cell width 1/8.
    assert np.max(np.abs(moved.vertices - base.vertices)) <= frac / 8.0 + 1e-15


def test_distorted_meshes_stay_valid():
    for seed in range(20):
        mesh = random_distorted_mesh(seed, n=5, fraction=0.25)
        validate(mesh)
        assert np.all(triangle_areas(mesh.vertices, mesh.triangles) > 0.0)


def test_stats_structured():
    st = stats(generate_structured(2, 2))
    assert st.n_vertices == 9
    assert st.n_elements == 8
    assert st.h_p == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert st.h_v == pytest.approx(np.sqrt(1.0 / 17.0), rel=1e-14)
    assert st.area == pytest.approx(1.0, rel=1e-14)


def test_stats_scale_with_domain_size():
    st = stats(generate_structured(2, 2, upper=(2.0, 2.0)))
    assert st.h_p == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_stats_match_reported_mesh_scales():
    # For a mesh with 59488 pressure and 173611 velocity locations on the
    # unit square the characteristic lengths round to 4.1e-3 and 2.4e-3.
    h_p = np.sqrt(1.0 / 59488.0)
    h_v = np.sqrt(1.0 / (59488.0 + 114123.0))
    assert f"{h_p:.1e}" == "4.1e-03"
    assert f"{h_v:.1e}" == "2.4e-03"


def test_msh_roundtrip(tmp_path):
    mesh = distort(generate_structured(3, 3), 0.2, seed=4)
    path = tmp_path / "square.msh"
    write_msh22(path, mesh)
    back = read_msh(str(path))
    assert back.n_vertices == mesh.n_vertices
    assert back.n_elements == mesh.n_elements
    assert np.allclose(back.vertices, mesh.vertices, atol=1e-15)
    assert set(back.marker_names) == set(mesh.marker_names)
    # Facet markers land on the same geometric sides.
    for name in mesh.marker_names:
        want = np.sort(
            mesh.boundary_facets[mesh.facet_markers == mesh.marker_names.index(name)],
            axis=None,
        )
        got = np.sort(
            back.boundary_facets[back.facet_markers == back.marker_names.index(name)],
            axis=None,
        )
        assert np.array_equal(want, got)
    assert np.sum(triangle_areas(back.vertices, back.triangles)) == pytest.approx(1.0)


def test_msh_without_physical_names(tmp_path):
    mesh = generate_structured(2, 2)
    path = tmp_path / "plain.msh"
    write_msh22(path, mesh, physical_names=False)
    back = read_msh(str(path))
    assert all(name.startswith("tag") for name in back.marker_names)
    assert all(kind is BCKind.DIRICHLET for kind in back.markers.values())


def test_msh_minimal_handwritten(tmp_path):
    text = "\n".join(
        [
            "$MeshFormat",
            "2.2 0 8",
            "$EndMeshFormat",
            "$Nodes",
            "3",
            "1 0 0 0",
            "2 1 0 0",
            "3 0 1 0",
            "$EndNodes",
            "$Elements",
            "4",
            "1 1 2 7 1 1 2",
            "2 1 2 7 1 2 3",
            "3 1 2 7 1 3 1",
            "4 2 2 1 1 1 3 2",  # clockwise on purpose; the reader reorients
            "$EndElements",
            "",
        ]
    )
    path = tmp_path / "tri.msh"
    path.write_text(text)
    mesh = read_msh(str(path))
    assert mesh.n_vertices == 3
    assert mesh.n_elements == 1
    assert mesh.marker_names == ("tag7",)
    assert triangle_areas(mesh.vertices, mesh.triangles)[0] == pytest.approx(0.5)
    validate(mesh)


def test_msh_marker_names_come_from_dimension_one(tmp_path):
    # Physical tags are numbered per dimension: tag 1 names the wall lines
    # and, separately, the fluid surface.
    text = "\n".join(
        [
            "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
            "$PhysicalNames", "2", '1 1 "wall"', '2 1 "fluid"', "$EndPhysicalNames",
            "$Nodes", "3", "1 0 0 0", "2 1 0 0", "3 0 1 0", "$EndNodes",
            "$Elements", "4",
            "1 1 2 1 1 1 2", "2 1 2 1 1 2 3", "3 1 2 1 1 3 1",
            "4 2 2 1 1 1 2 3",
            "$EndElements", "",
        ]
    )
    path = tmp_path / "named.msh"
    path.write_text(text)
    assert read_msh(str(path)).marker_names == ("wall",)


def test_msh_rejects_binary(tmp_path):
    path = tmp_path / "bin.msh"
    path.write_text("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n")
    with pytest.raises(MshParseError, match="binary"):
        read_msh(str(path))


def test_msh_rejects_wrong_version(tmp_path):
    path = tmp_path / "v41.msh"
    path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(MshParseError, match="4.1"):
        read_msh(str(path))


def test_msh_rejects_nonzero_z(tmp_path):
    path = tmp_path / "z.msh"
    path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        "$Nodes\n1\n1 0 0 0.5\n$EndNodes\n"
        "$Elements\n0\n$EndElements\n"
    )
    with pytest.raises(MshParseError, match="z"):
        read_msh(str(path))


def test_msh_rejects_unsupported_element_type(tmp_path):
    path = tmp_path / "quad.msh"
    path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 1 1 0\n4 0 1 0\n$EndNodes\n"
        "$Elements\n1\n1 3 2 1 1 1 2 3 4\n$EndElements\n"
    )
    with pytest.raises(MshParseError, match="type 3"):
        read_msh(str(path))


def test_msh_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n")
    with pytest.raises(MshParseError, match="bad.msh:2"):
        read_msh(str(path))


def test_msh_empty_file(tmp_path):
    path = tmp_path / "empty.msh"
    path.write_text("")
    with pytest.raises(MshParseError, match=r"empty\.msh:1: expected \$MeshFormat"):
        read_msh(str(path))


def _msh_lines(tmp_path):
    path = tmp_path / "ok.msh"
    write_msh22(path, generate_structured(2, 2))
    return path.read_text().splitlines()


@pytest.mark.parametrize("section", ["$Nodes", "$Elements"])
def test_msh_truncated_section_reports_end_of_file(tmp_path, section):
    lines = _msh_lines(tmp_path)
    kept = lines[: lines.index(section) + 4]     # header, count and two entries
    path = tmp_path / "cut.msh"
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(MshParseError, match=rf"cut\.msh:{len(kept)}: unexpected end of file"):
        read_msh(str(path))


@pytest.mark.parametrize(
    "section, offset, text, message",
    [
        ("$PhysicalNames", 1, "five", "malformed physical name count"),
        ("$PhysicalNames", 2, '1 one "left"', "malformed physical name"),
        ("$Nodes", 1, "nine", "malformed node count"),
        ("$Nodes", 1, "-1", "malformed node count"),
        ("$Nodes", 2, "1 zero 0 0", "malformed node line"),
        ("$Nodes", 2, "1 0 0", "malformed node line"),
        ("$Elements", 1, "many", "malformed element count"),
        ("$Elements", 2, "1 line 2 1 1 1 2", "malformed element line"),
    ],
)
def test_msh_non_numeric_fields_report_their_line(tmp_path, section, offset, text, message):
    lines = _msh_lines(tmp_path)
    k = lines.index(section) + offset
    lines[k] = text
    path = tmp_path / "bad.msh"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MshParseError, match=rf"bad\.msh:{k + 1}: {message}"):
        read_msh(str(path))


def test_msh_drops_nodes_no_triangle_uses(tmp_path):
    text = "\n".join(
        [
            "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
            "$Nodes", "4",
            "9 5 5 0",          # a point node, listed first
            "1 0 0 0", "2 1 0 0", "3 0 1 0",
            "$EndNodes",
            "$Elements", "5",
            "1 15 2 3 3 9",
            "2 1 2 7 1 1 2", "3 1 2 7 1 2 3", "4 1 2 7 1 3 1",
            "5 2 2 1 1 1 2 3",
            "$EndElements", "",
        ]
    )
    path = tmp_path / "point.msh"
    path.write_text(text)
    mesh = read_msh(str(path))
    assert np.array_equal(mesh.vertices, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(mesh.triangles, [[0, 1, 2]])
    assert np.array_equal(np.sort(mesh.boundary_facets, axis=None), [0, 0, 1, 1, 2, 2])


def test_msh_rejects_line_element_on_node_no_triangle_uses(tmp_path):
    path = tmp_path / "orphan.msh"
    path.write_text("\n".join(ORPHAN_LINE_MSH) + "\n")
    message = rf"orphan\.msh:{ORPHAN_LINE_NO}: line element references node 9, which no triangle"
    with pytest.raises(MshParseError, match=message):
        read_msh(str(path))


def test_msh_orphan_line_element_reports_first_offender(tmp_path):
    # The node id is the file's, not the reader's internal numbering, and
    # the first offending line element is the one named.
    lines = list(ORPHAN_LINE_MSH)
    lines[lines.index("$Elements") + 1] = "6"
    lines.insert(ORPHAN_LINE_NO - 1, "6 1 2 7 1 9 3")
    path = tmp_path / "two.msh"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MshParseError, match=rf"two\.msh:{ORPHAN_LINE_NO}: .* node 9,") as info:
        read_msh(str(path))
    # The message starts with the file path, which may hold "-1" (pytest-1).
    message = str(info.value).split(f"two.msh:{ORPHAN_LINE_NO}: ", 1)[1]
    assert "-1" not in message
    assert "node 9," in message


def test_validate_rejects_vertex_in_no_triangle():
    mesh = single_triangle_mesh()
    lonely = dataclasses.replace(mesh, vertices=np.vstack((mesh.vertices, [[2.0, 2.0]])))
    with pytest.raises(MeshValidationError, match="vertex 3 belongs to no triangle"):
        validate(lonely)


def test_facet_edges_find_the_triangle_edge_running_along_each_facet():
    mesh = random_distorted_mesh(5, n=4)
    tris, facets, n = mesh.triangles, mesh.boundary_facets, mesh.n_vertices
    element, edge = np.divmod(facet_edges(tris, facets, n), 3)
    assert np.array_equal(tris[element, edge], facets[:, 0])
    assert np.array_equal(tris[element, (edge + 1) % 3], facets[:, 1])
    # Against the direction of every edge, or with no triangles, nothing matches.
    assert np.all(facet_edges(tris, facets[:, ::-1], n) == -1)
    assert np.all(facet_edges(tris[:0], facets, n) == -1)
    # Interior edges too: edge 0 of each triangle runs from its vertex 0 to 1.
    assert np.array_equal(facet_edges(tris, tris[:, :2], n), 3 * np.arange(mesh.n_elements))
    empty = facet_edges(tris, facets[:0], n)
    assert empty.shape == (0,) and empty.dtype == np.int64


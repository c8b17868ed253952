"""Shared test fixtures: tiny meshes, an MSH exporter, acceptance reporting."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cvstokes.mesh import BCKind, Mesh, distort, generate_structured, validate

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Results of the acceptance-criteria tests, filled in by the `criterion`
# fixture and printed as one line per criterion after the run.
_ACCEPTANCE = {}


@pytest.fixture(scope="session")
def criterion():
    def record(num, passed, detail=""):
        _ACCEPTANCE[num] = (passed, detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        passed, detail = _ACCEPTANCE[num]
        status = "INFO" if passed is None else ("PASS" if passed else "FAIL")
        terminalreporter.write_line(f"criterion {num}: {status}  {detail}")


def single_triangle_mesh(scale=1.0):
    """The reference triangle, scaled, as a one-element mesh, all-Dirichlet."""
    vertices = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]], dtype=np.int64)
    facets = np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64)
    markers = np.zeros(3, dtype=np.int64)
    mesh = Mesh(vertices, triangles, facets, markers, ("wall",), {"wall": BCKind.DIRICHLET})
    validate(mesh)
    return mesh


def random_distorted_mesh(seed, n=5, fraction=0.25):
    return distort(generate_structured(n, n), fraction, seed)


def write_msh22(path, mesh, physical_names=True):
    """Export a mesh to ASCII MSH 2.2 for parser round-trip tests."""
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat"]
    if physical_names:
        lines.append("$PhysicalNames")
        lines.append(str(len(mesh.marker_names) + 1))
        for i, name in enumerate(mesh.marker_names):
            lines.append(f'1 {i + 1} "{name}"')
        lines.append(f'2 {len(mesh.marker_names) + 1} "domain"')
        lines.append("$EndPhysicalNames")
    lines.append("$Nodes")
    lines.append(str(mesh.n_vertices))
    for i, (x, y) in enumerate(mesh.vertices, start=1):
        lines.append(f"{i} {float(x)!r} {float(y)!r} 0")
    lines.append("$EndNodes")
    lines.append("$Elements")
    lines.append(str(mesh.boundary_facets.shape[0] + mesh.n_elements))
    eid = 1
    for (a, b), m in zip(mesh.boundary_facets, mesh.facet_markers):
        lines.append(f"{eid} 1 2 {m + 1} {m + 1} {a + 1} {b + 1}")
        eid += 1
    dom = len(mesh.marker_names) + 1
    for a, b, c in mesh.triangles:
        lines.append(f"{eid} 2 2 {dom} {dom} {a + 1} {b + 1} {c + 1}")
        eid += 1
    lines.append("$EndElements")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# A three-node triangle file with an extra line element `1 9` to a node that
# no triangle uses; that element is on line ORPHAN_LINE_NO.
ORPHAN_LINE_MSH = [
    "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
    "$Nodes", "4",
    "1 0 0 0", "2 1 0 0", "3 0 1 0", "9 5 5 0",
    "$EndNodes",
    "$Elements", "5",
    "1 1 2 7 1 1 2", "2 1 2 7 1 2 3", "3 1 2 7 1 3 1",
    "4 1 2 7 1 1 9",
    "5 2 2 1 1 1 2 3",
    "$EndElements",
]
ORPHAN_LINE_NO = ORPHAN_LINE_MSH.index("4 1 2 7 1 1 9") + 1


def run_python(args, cwd):
    """Run this interpreter with `src/` on PYTHONPATH, as an uninstalled user would."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )

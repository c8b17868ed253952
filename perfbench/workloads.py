"""The benchmark's workloads: inputs made from the seed, problems, output checks.

A workload turns a seed into a fixed list of tasks (one *pass*).  A task
calls into ``cvstokes`` through module attributes, so that the tracer's
wrappers see every call, and returns one pass/fail flag per problem it
solved.  It calls ``ctx.begin_problem()`` when each problem starts; a
problem is one mesh level, timed from its mesh to its checked output.

The sizes are fixed; the seed chooses the distortion of every mesh, the
GMRES start vectors, the order of the small meshes and the audited box
unions.  So every seed does the same amount of work, and no operation is
expected to fail on any seed.
"""

from __future__ import annotations

import csv
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import partial

import numpy as np

from cvstokes import cli_io, geometry, mesh, schemes, solver, verification

SCHEMES = ("non-overlapping", "overlapping", "hybrid", "fem")
DISTORTION = 0.2
MAX_ITERATIONS = 45          # acceptance criterion 3
MIN_RATE_L2_VELOCITY = 1.9
MIN_RATE_H1_VELOCITY = 0.9
CONSERVATION_TOL = 1e-12     # acceptance criteria 4 and 5, relative to the largest flux
DISTORT_ATTEMPTS = 6


def distorted(n: int, seed: int):
    """Distorted n x n unit-square mesh, retrying seeds like run_convergence does."""
    base = mesh.generate_structured(n, n)
    for attempt in range(DISTORT_ATTEMPTS):
        try:
            return mesh.distort(base, DISTORTION, seed + 1000 * attempt)
        except mesh.DistortionError:
            if attempt == DISTORT_ATTEMPTS - 1:
                raise


def csv_matches(path: str, report) -> bool:
    """The CSV parses back, with the report's iterations and finite errors."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != cli_io.CSV_COLUMNS or len(rows) != len(report.levels) + 1:
        return False
    for row, lv in zip(rows[1:], report.levels):
        l2v = float(row[4])
        if not (math.isfinite(float(row[1])) and math.isfinite(float(row[6]))):
            return False
        if int(row[8]) != lv.iterations or not math.isclose(l2v, lv.l2_velocity, rel_tol=1e-5):
            return False
    return True


def vtu_matches(path: str, n_vertices: int, n_elements: int) -> bool:
    """The VTU parses back with the mesh's sizes and finite solution arrays."""
    piece = ET.parse(path).getroot().find("UnstructuredGrid/Piece")
    if int(piece.get("NumberOfPoints")) != n_vertices or int(piece.get("NumberOfCells")) != n_elements:
        return False
    expected = {"velocity": 3 * n_vertices, "pressure": n_vertices, "bubble_velocity": 3 * n_elements}
    for array in piece.iter("DataArray"):
        size = expected.pop(array.get("Name"), None)
        if size is not None:
            values = np.array(array.text.split(), dtype=float)
            if values.size != size or not np.all(np.isfinite(values)):
                return False
    return not expected


@dataclass(frozen=True)
class Study:
    """The default CLI path: Donea-Huerta, GMRES, CSV output, all four schemes.

    This is what ``cvstokes``, ``run_convergence`` and acceptance criteria
    1-3 run.  Its time spreads over assembly, preconditioner LU, GMRES and
    error norms; it never calls ``direct_solve`` or the audit.
    """

    levels: int = 4              # 10^2, 20^2, 40^2, 80^2
    schemes: tuple = SCHEMES
    name: str = "study"

    def warm_up(self, workdir: str) -> None:
        for scheme in self.schemes:
            cli_io.run(cli_io.RunConfig(scheme=scheme, levels=1, out_dir=workdir))

    def tasks(self, seed: int, workdir: str):
        return [(self.levels, partial(self._run, scheme, seed, workdir)) for scheme in self.schemes]

    def _run(self, scheme, seed, workdir, ctx):
        config = cli_io.RunConfig(
            case="donea-huerta", scheme=scheme, levels=self.levels,
            distortion=DISTORTION, seed=seed, out_dir=workdir,
        )
        # Level boundaries: run_convergence builds each level's mesh with
        # generate_structured, looked up in the verification module.
        generate = verification.generate_structured

        def level_start(*args, **kwargs):
            ctx.begin_problem()
            return generate(*args, **kwargs)

        verification.generate_structured = level_start
        try:
            report = cli_io.run(config)
        finally:
            verification.generate_structured = generate
        rates_ok = (
            report.window_rate("l2_velocity") >= MIN_RATE_L2_VELOCITY
            and report.window_rate("h1_velocity") >= MIN_RATE_H1_VELOCITY
        )
        csv_ok = csv_matches(os.path.join(workdir, f"donea-huerta_{scheme}.csv"), report)
        return [
            rates_ok and csv_ok and lv.converged and lv.iterations <= MAX_ITERATIONS
            for lv in report.levels
        ]


@dataclass(frozen=True)
class DirectAudit:
    """One large distorted mesh, direct LU, then the local-conservation audit.

    ``overlapping`` audits momentum as well as mass; ``fem`` audits mass
    only.  Sparse LU dominates time and peak memory; GMRES and the error
    norms are never called.
    """

    n: int = 128
    schemes: tuple = ("overlapping", "fem")
    name: str = "direct-audit"

    def warm_up(self, workdir: str) -> None:
        for k, scheme in enumerate(self.schemes):
            self._run(scheme, 4, k, None)

    def tasks(self, seed: int, workdir: str):
        return [(1, partial(self._run, scheme, self.n, seed)) for scheme in self.schemes]

    def _run(self, scheme, n, seed, ctx):
        if ctx is not None:
            ctx.begin_problem()
        case = verification.donea_huerta_case()
        problem = case.problem()
        disc = geometry.build(case.apply_bc(distorted(n, seed)), scheme)
        system = schemes.assemble(disc, problem)
        x = solver.direct_solve(system)
        audit = verification.conservation_audit(disc, x, problem)
        rng = np.random.default_rng([seed, self.schemes.index(scheme)])
        n_p = disc.n_pressure_dofs
        boxes = rng.choice(n_p, size=int(rng.integers(n_p // 4, n_p // 2 + 1)), replace=False)
        region = verification.region_mass_balance(disc, x, problem, boxes)

        mass_tol = CONSERVATION_TOL * audit.max_mass_flux
        ok = np.max(np.abs(audit.mass_residuals)) <= mass_tol and abs(region) <= mass_tol
        if audit.momentum_audited.any():
            res = np.linalg.norm(audit.momentum_residuals, axis=1)[audit.momentum_interior]
            ok = ok and res.size > 0 and res.max() <= CONSERVATION_TOL * audit.max_momentum_flux
        return [bool(ok)]


def write_msh22(path: str, m) -> None:
    """ASCII MSH 2.2 with named physical boundary groups."""
    names = m.marker_names
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$PhysicalNames", str(len(names))]
    lines += [f'1 {i + 1} "{name}"' for i, name in enumerate(names)]
    lines += ["$EndPhysicalNames", "$Nodes", str(m.n_vertices)]
    lines += [f"{i + 1} {x!r} {y!r} 0" for i, (x, y) in enumerate(m.vertices.tolist())]
    lines += ["$EndNodes", "$Elements", str(len(m.boundary_facets) + m.n_elements)]
    eid = 0
    for (a, b), mark in zip(m.boundary_facets.tolist(), m.facet_markers.tolist()):
        eid += 1
        lines.append(f"{eid} 1 2 {mark + 1} {mark + 1} {a + 1} {b + 1}")
    domain = len(names) + 1
    for a, b, c in m.triangles.tolist():
        eid += 1
        lines.append(f"{eid} 2 2 {domain} {domain} {a + 1} {b + 1} {c + 1}")
    lines.append("$EndElements")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SmallMsh:
    """Many small user meshes through ``--case custom-msh --vtk``.

    Every (size, scheme) pair occurs ``repeats`` times; the seed sets the
    order and the distortion.  Per-call cost and Python loops dominate,
    the mesh layer is reached through ``read_msh`` and ``validate``, and
    every call writes a CSV and a VTU file.
    """

    sizes: tuple = tuple(range(6, 17))
    repeats: int = 3
    schemes: tuple = SCHEMES
    name: str = "small-msh"

    def warm_up(self, workdir: str) -> None:
        path = os.path.join(workdir, "warm.msh")
        write_msh22(path, distorted(4, 0))
        for k, scheme in enumerate(self.schemes):
            self._run(path, scheme, 4, k, workdir, None)

    def tasks(self, seed: int, workdir: str):
        """Write every mesh before any timing; one task per mesh."""
        rng = np.random.default_rng(seed)
        count = len(self.schemes) * len(self.sizes) * self.repeats
        orders = [rng.permutation(np.repeat(self.sizes, self.repeats)) for _ in self.schemes]
        tasks = []
        for k in range(count):
            scheme = self.schemes[k % len(self.schemes)]
            n = int(orders[k % len(self.schemes)][k // len(self.schemes)])
            path = os.path.join(workdir, f"mesh{k:03d}.msh")
            write_msh22(path, distorted(n, int(rng.integers(2**31))))
            tasks.append((1, partial(self._run, path, scheme, n, int(rng.integers(2**31)), workdir)))
        return tasks

    def _run(self, path, scheme, n, seed, workdir, ctx):
        if ctx is not None:
            ctx.begin_problem()
        config = cli_io.RunConfig(
            case="custom-msh", scheme=scheme, seed=seed, out_dir=workdir,
            write_vtk=True, mesh_files=(path,),
        )
        report = cli_io.run(config)
        lv = report.levels[0]
        tag = os.path.join(workdir, f"custom-msh_{scheme}")
        ok = (
            lv.converged
            and all(math.isfinite(e) for e in (lv.l2_pressure, lv.l2_velocity, lv.h1_velocity))
            and csv_matches(tag + ".csv", report)
            and vtu_matches(tag + "_level0.vtu", (n + 1) ** 2, 2 * n * n)
        )
        return [bool(ok)]


WORKLOADS = {w.name: w for w in (Study(), DirectAudit(), SmallMsh())}

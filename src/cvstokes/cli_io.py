"""CSV and VTU output plus the `cvstokes` command line front end.

The CSV layout mirrors the convergence tables: one row per refinement
level with columns h_p, L2_p, rate, h_v, L2_v, rate, H1_v, rate, it.
Rate cells are empty where a rate is undefined (first level, or errors at
round-off).  VTU files are ASCII XML unstructured grids carrying the
vertex velocity and pressure as point data and the bubble velocity as
cell data.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import REFERENCE_CELLS, GridDiscretization, SchemeKind, to_physical
from .mesh import DistortionError
from .schemes import split_solution
from .verification import CASES, ConvergenceReport, donea_huerta_case, run_convergence

log = logging.getLogger(__name__)

CSV_COLUMNS = ("h_p", "L2_p", "rate", "h_v", "L2_v", "rate", "H1_v", "rate", "it")
LOG_ENV_VAR = "CVSTOKES_LOG"


def write_convergence_csv(report: ConvergenceReport, path: str) -> None:
    """Write a convergence report in the standard table layout."""
    rates = report.rates()

    def cell(r):
        return "" if np.isnan(r) else f"{r:.3f}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for k, lv in enumerate(report.levels):
            writer.writerow(
                [
                    f"{lv.h_p:.6e}",
                    f"{lv.l2_pressure:.6e}",
                    cell(rates["l2_pressure"][k]),
                    f"{lv.h_v:.6e}",
                    f"{lv.l2_velocity:.6e}",
                    cell(rates["l2_velocity"][k]),
                    f"{lv.h1_velocity:.6e}",
                    cell(rates["h1_velocity"][k]),
                    str(lv.iterations),
                ]
            )


def format_report(report: ConvergenceReport) -> str:
    """Plain-text convergence table."""
    rates = report.rates()
    lines = [f"case={report.case} scheme={report.scheme.value}"]
    header = f"{'h_p':>10} {'L2_p':>12} {'rate':>6} {'h_v':>10} {'L2_v':>12} {'rate':>6} {'H1_v':>12} {'rate':>6} {'it':>4}"
    lines.append(header)

    def cell(r):
        return "  --  " if np.isnan(r) else f"{r:6.2f}"

    for k, lv in enumerate(report.levels):
        lines.append(
            f"{lv.h_p:10.2e} {lv.l2_pressure:12.4e} {cell(rates['l2_pressure'][k])} "
            f"{lv.h_v:10.2e} {lv.l2_velocity:12.4e} {cell(rates['l2_velocity'][k])} "
            f"{lv.h1_velocity:12.4e} {cell(rates['h1_velocity'][k])} {lv.iterations:4d}"
        )
    return "\n".join(lines)


def _vtu_array(lines, name, data, ncomp):
    data = np.asarray(data).reshape(-1, ncomp)
    kind = "Int64" if data.dtype.kind in "iu" else "Float64"
    lines.append(
        f'        <DataArray type="{kind}" Name="{name}" '
        f'NumberOfComponents="{ncomp}" format="ascii">'
    )
    row = "          " + " ".join(["%.17g"] * ncomp)
    lines.extend(row % tuple(values) for values in data.tolist())
    lines.append("        </DataArray>")


def _write_grid(path, points, cells, cell_type, point_data=(), cell_data=()):
    """Write an ASCII XML unstructured grid of 2D points and polygon cells.

    `cells` lists each cell's point ids as Python ints; `point_data` and `cell_data` are
    (name, values, components) triples, and each 3-component array becomes
    the section's active vector, each 1-component one its active scalar.
    """
    offsets = np.cumsum([len(c) for c in cells]).tolist()
    lines = [
        '<?xml version="1.0"?>',
        '<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">',
        "  <UnstructuredGrid>",
        f'    <Piece NumberOfPoints="{points.shape[0]}" NumberOfCells="{len(cells)}">',
        "      <Points>",
    ]
    _vtu_array(lines, "points", np.column_stack((points, np.zeros(points.shape[0]))), 3)
    lines.append("      </Points>")
    lines.append("      <Cells>")
    lines.append('        <DataArray type="Int64" Name="connectivity" format="ascii">')
    rows = {n: "          " + " ".join(["%d"] * n) for n in {len(c) for c in cells}}
    lines.extend(rows[len(cell)] % tuple(cell) for cell in cells)
    lines.append("        </DataArray>")
    lines.append('        <DataArray type="Int64" Name="offsets" format="ascii">')
    lines.append("          " + " ".join(map(str, offsets)))
    lines.append("        </DataArray>")
    lines.append('        <DataArray type="UInt8" Name="types" format="ascii">')
    lines.append("          " + " ".join([str(cell_type)] * len(cells)))
    lines.append("        </DataArray>")
    lines.append("      </Cells>")
    for tag, arrays in (("PointData", point_data), ("CellData", cell_data)):
        if not arrays:
            continue
        active = "".join(
            f' {"Vectors" if ncomp == 3 else "Scalars"}="{name}"' for name, _, ncomp in arrays
        )
        lines.append(f"      <{tag}{active}>")
        for name, data, ncomp in arrays:
            _vtu_array(lines, name, data, ncomp)
        lines.append(f"      </{tag}>")
    lines.append("    </Piece>")
    lines.append("  </UnstructuredGrid>")
    lines.append("</VTKFile>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtu(disc: GridDiscretization, solution: np.ndarray, path: str) -> None:
    """Write the solution as an ASCII XML unstructured grid."""
    mesh = disc.mesh
    vel, pres = split_solution(disc, solution)
    nv = mesh.n_vertices
    _write_grid(
        path,
        mesh.vertices,
        mesh.triangles.tolist(),
        5,
        point_data=(
            ("velocity", np.column_stack((vel[:nv], np.zeros(nv))), 3),
            ("pressure", pres, 1),
        ),
        cell_data=(("bubble_velocity", np.column_stack((vel[nv:], np.zeros(mesh.n_elements))), 3),),
    )


def write_cv_debug_vtu(disc: GridDiscretization, which: str, path: str) -> None:
    """Dump the sub-control-volume polygons of one CV family for inspection:
    row by row of `REFERENCE_CELLS`, each row in every element, with the id
    of its control volume."""
    families = {"pressure": disc.pressure, "velocity": disc.velocity}
    if which not in families:
        raise ValueError(f"unknown control-volume family {which!r}; choose from {sorted(families)}")
    cvset = families[which]
    cells = REFERENCE_CELLS[cvset.family]
    elements = np.arange(disc.mesh.n_elements)[:, None]
    points = np.concatenate([to_physical(disc.elements, elements, cell).reshape(-1, 2) for cell in cells])
    sizes = np.repeat([len(cell) for cell in cells], disc.mesh.n_elements)
    polygons = [c.tolist() for c in np.split(np.arange(points.shape[0]), np.cumsum(sizes)[:-1])]
    cv = cvset.owners[:, : len(cells)].T.ravel()
    _write_grid(path, points, polygons, 7, cell_data=(("cv", cv, 1),))


@dataclass
class RunConfig:
    """Configuration of one convergence run."""

    case: str = "donea-huerta"
    scheme: str = "overlapping"
    levels: int = 5
    distortion: float = 0.2
    seed: int = 7
    out_dir: str = "."
    write_vtk: bool = False
    mesh_files: tuple = ()


def run(config: RunConfig) -> ConvergenceReport:
    """Execute a convergence study and write its outputs.

    The `custom-msh` case runs the Donea-Huerta fields on user-supplied
    unit-square MSH meshes whose boundary markers must be named left,
    right, bottom, top; like the built-in cases, left and bottom get
    Dirichlet data and right and top get traction data.  Mesh files are
    used as read, one per level, so `levels` and `distortion` keep their defaults.
    """
    ignored = [f"--{k}" for k in ("levels", "distortion") if getattr(config, k) != getattr(RunConfig, k)]
    if config.mesh_files and ignored:
        raise ValueError(" and ".join(ignored) + " cannot be used with --mesh, whose files are used as read")
    if config.case == "custom-msh":
        if not config.mesh_files:
            raise ValueError("case custom-msh requires at least one --mesh file")
        case = donea_huerta_case()
    elif config.case in CASES:
        case = CASES[config.case]()
    else:
        raise ValueError(f"unknown case {config.case!r}; choose from "
                         f"{sorted(CASES) + ['custom-msh']}")
    mesh_files = list(config.mesh_files) or None

    scheme = SchemeKind.parse(config.scheme)
    os.makedirs(config.out_dir, exist_ok=True)
    tag = f"{config.case}_{scheme.value}"

    on_level = None
    if config.write_vtk:
        def on_level(level, disc, solution):
            write_vtu(disc, solution, os.path.join(config.out_dir, f"{tag}_level{level}.vtu"))

    report = run_convergence(
        case,
        scheme,
        n_levels=config.levels,
        distortion=config.distortion,
        seed=config.seed,
        mesh_files=mesh_files,
        on_level=on_level,
    )
    write_convergence_csv(report, os.path.join(config.out_dir, f"{tag}.csv"))
    return report


class _AppendToTuple(argparse.Action):
    """Like `append`, but onto a tuple, the type of `RunConfig.mesh_files`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, getattr(namespace, self.dest) + (values,))


def build_parser() -> argparse.ArgumentParser:
    """The command line of `RunConfig`: each flag's dest is a field, its default the field's."""
    parser = argparse.ArgumentParser(
        prog="cvstokes",
        description="Convergence studies for locally conservative Stokes schemes.",
    )
    parser.set_defaults(**vars(RunConfig()))
    parser.add_argument(
        "--case",
        choices=sorted(CASES) + ["custom-msh"],
        help="benchmark case; custom-msh runs the donea-huerta fields on --mesh files",
    )
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in SchemeKind],
        help="discretization scheme",
    )
    parser.add_argument("--levels", type=int, help="number of refinement levels")
    parser.add_argument("--distortion", type=float, help="random vertex distortion fraction")
    parser.add_argument("--seed", type=int, help="seed for distortion and start vectors")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory for CSV/VTU files")
    parser.add_argument("--vtk", dest="write_vtk", action="store_true", help="write a VTU file per level")
    parser.add_argument(
        "--mesh",
        dest="mesh_files",
        action=_AppendToTuple,
        metavar="PATH",
        help="MSH 2.2 mesh file, one per level (required for custom-msh; "
        "markers must be named left/right/bottom/top)",
    )
    return parser


def main(argv=None) -> int:
    level = os.environ.get(LOG_ENV_VAR, "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: {LOG_ENV_VAR}={level!r} is not a logging level; "
              "use DEBUG, INFO, WARNING, ERROR or CRITICAL", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        report = run(config)
    except (ValueError, OSError, DistortionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(report))
    return 0


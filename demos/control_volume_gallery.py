"""
Control-volume geometry gallery.

Builds the velocity and pressure control volumes of each scheme on a
small distorted grid and writes them as VTU files (one polygon per
sub-control-volume, colored by owning control volume), plus a solved
flow field for the same grid.  Open the files in ParaView and color by
"cv" to see the tilings:

  * pressure boxes: one polygon fan around every vertex, all schemes
  * non-overlapping velocity volumes: corner triangles around vertices and
    a medial triangle per element, tiling the domain
  * overlapping velocity volumes: the boxes again, with the medial
    triangles drawn on top of them

Run from the repository root:

    python3 demos/control_volume_gallery.py
"""
import pathlib

from cvstokes.cli_io import write_cv_debug_vtu, write_vtu
from cvstokes.geometry import build
from cvstokes.mesh import distort, generate_structured
from cvstokes.schemes import assemble
from cvstokes.solver import direct_solve
from cvstokes.verification import donea_huerta_case

out_dir = pathlib.Path("demo_output")
out_dir.mkdir(exist_ok=True)

case = donea_huerta_case()
mesh = case.apply_bc(distort(generate_structured(6, 6), 0.25, seed=11))

for scheme in ("non-overlapping", "overlapping", "hybrid"):
    disc = build(mesh, scheme)
    for which in ("pressure", "velocity"):
        path = out_dir / f"cv_{scheme}_{which}.vtu"
        write_cv_debug_vtu(disc, which, str(path))
        vset = disc.pressure if which == "pressure" else disc.velocity
        print(
            f"{path}: {vset.n_cvs} control volumes, "
            f"{vset.n_faces} interior faces, {vset.n_segments} boundary segments"
        )

disc = build(mesh, "overlapping")
x = direct_solve(assemble(disc, case.problem()))
solution_path = out_dir / "donea_huerta_overlapping_6x6.vtu"
write_vtu(disc, x, str(solution_path))
print(f"{solution_path}: velocity and pressure fields")

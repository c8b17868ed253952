"""CSV/VTU writers, run configuration, and the command-line entry point."""

import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import (
    ORPHAN_LINE_MSH,
    ORPHAN_LINE_NO,
    random_distorted_mesh,
    run_python,
    write_msh22,
)
from oracles import sub_volumes
from cvstokes.cli_io import (
    CSV_COLUMNS,
    RunConfig,
    build_parser,
    format_report,
    main,
    run,
    write_convergence_csv,
    write_cv_debug_vtu,
    write_vtu,
)
from cvstokes.geometry import REFERENCE_CELLS, build
from cvstokes.mesh import distort, generate_structured
from cvstokes.schemes import split_solution
from cvstokes.verification import ConvergenceReport, LevelResult, SchemeKind


def _synthetic_report(n_levels=3):
    levels = [
        LevelResult(
            level=k,
            n_vertices=(k + 2) ** 2,
            n_elements=2 * (k + 1) ** 2,
            h_p=0.2 / 2**k,
            h_v=0.1 / 2**k,
            l2_pressure=0.3 / 2**k,
            l2_velocity=0.01 / 4**k,
            h1_velocity=0.5 / 2**k,
            iterations=20 + k,
            converged=True,
        )
        for k in range(n_levels)
    ]
    return ConvergenceReport("donea-huerta", SchemeKind.OVERLAPPING, levels)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_write_convergence_csv_layout(tmp_path):
    report = _synthetic_report()
    path = tmp_path / "table.csv"
    write_convergence_csv(report, str(path))
    rows = _read_csv(path)
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    # First data row has empty rate cells, later rows numeric ones.
    assert rows[1][2] == "" and rows[1][5] == "" and rows[1][7] == ""
    assert float(rows[2][2]) == pytest.approx(1.0, abs=5e-4)
    assert float(rows[2][5]) == pytest.approx(2.0, abs=5e-4)
    assert float(rows[1][0]) == pytest.approx(0.2, rel=1e-12)
    assert float(rows[3][4]) == pytest.approx(0.01 / 16.0, rel=1e-6)
    assert rows[1][8] == "20" and rows[3][8] == "22"


def test_write_convergence_csv_deterministic(tmp_path):
    report = _synthetic_report()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_convergence_csv(report, str(a))
    write_convergence_csv(report, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_format_report():
    text = format_report(_synthetic_report())
    lines = text.splitlines()
    assert lines[0] == "case=donea-huerta scheme=overlapping"
    assert "h_p" in lines[1] and "it" in lines[1]
    assert len(lines) == 5
    assert "--" in lines[2]  # first level has no rate
    assert "--" not in lines[3]


def _vtu_array(root, name):
    for da in root.iter("DataArray"):
        if da.get("Name") == name:
            return np.array(da.text.split(), dtype=float)
    raise KeyError(name)


def test_write_vtu_roundtrip(tmp_path):
    mesh = random_distorted_mesh(3, n=3)
    disc = build(mesh, "overlapping")
    rng = np.random.default_rng(8)
    x = rng.standard_normal(disc.n_dofs)
    path = tmp_path / "sol.vtu"
    write_vtu(disc, x, str(path))

    root = ET.parse(path).getroot()
    piece = root.find(".//Piece")
    assert int(piece.get("NumberOfPoints")) == mesh.n_vertices
    assert int(piece.get("NumberOfCells")) == mesh.n_elements

    pts = _vtu_array(root, "points").reshape(-1, 3)
    assert np.allclose(pts[:, :2], mesh.vertices, atol=1e-14)
    assert np.all(pts[:, 2] == 0.0)

    vel, pres = split_solution(disc, x)
    vtu_vel = _vtu_array(root, "velocity").reshape(-1, 3)
    assert np.allclose(vtu_vel[:, :2], vel[: mesh.n_vertices], atol=1e-14)
    vtu_pres = _vtu_array(root, "pressure")
    assert np.allclose(vtu_pres, pres, atol=1e-14)
    bub = _vtu_array(root, "bubble_velocity").reshape(-1, 3)
    assert np.allclose(bub[:, :2], vel[mesh.n_vertices :], atol=1e-14)

    conn = _vtu_array(root, "connectivity").astype(int).reshape(-1, 3)
    assert np.array_equal(conn, mesh.triangles)
    types = _vtu_array(root, "types").astype(int)
    assert np.all(types == 5)
    offsets = _vtu_array(root, "offsets").astype(int)
    assert np.array_equal(offsets, 3 * np.arange(1, mesh.n_elements + 1))


@pytest.mark.parametrize("which", ["pressure", "velocity"])
def test_write_cv_debug_vtu(tmp_path, which):
    mesh = generate_structured(2, 2)
    disc = build(mesh, "non-overlapping")
    path = tmp_path / f"{which}.vtu"
    write_cv_debug_vtu(disc, which, str(path))
    root = ET.parse(path).getroot()
    cvset = disc.pressure if which == "pressure" else disc.velocity
    rows = len(REFERENCE_CELLS[cvset.family])
    piece = root.find(".//Piece")
    assert int(piece.get("NumberOfCells")) == mesh.n_elements * rows
    types = _vtu_array(root, "types").astype(int)
    assert np.all(types == 7)
    ids = _vtu_array(root, "cv").astype(int)
    assert np.array_equal(ids, cvset.owners[:, :rows].T.ravel())


@pytest.mark.parametrize("scheme", ["fem", "non-overlapping", "overlapping"],
                         ids=["boxes", "non-overlapping", "overlapping"])
def test_cv_debug_vtu_cells_are_the_oracle_sub_volumes(tmp_path, scheme):
    # Row by row of REFERENCE_CELLS, each row in every element: cell
    # r * ne + e is reference cell r mapped into element e, owned by owners[e, r].
    mesh = distort(generate_structured(6, 5), 0.2, seed=31)
    disc = build(mesh, scheme)
    path = tmp_path / "cv.vtu"
    write_cv_debug_vtu(disc, "velocity", str(path))
    root = ET.parse(path).getroot()
    cvset, ne = disc.velocity, mesh.n_elements
    scvs = sub_volumes(cvset)
    rows = len(REFERENCE_CELLS[cvset.family])
    assert int(root.find(".//Piece").get("NumberOfCells")) == ne * rows
    points = _vtu_array(root, "points").reshape(-1, 3)[:, :2]
    offsets = _vtu_array(root, "offsets").astype(int)
    conn = _vtu_array(root, "connectivity").astype(int)
    ids = _vtu_array(root, "cv").astype(int)
    cells = np.split(points[conn], offsets[:-1])
    order = np.argsort(scvs.row * ne + scvs.element, kind="stable")
    assert np.array_equal(ids, scvs.cv[order])
    area = np.zeros(cvset.n_cvs)
    for k, (cell, i) in enumerate(zip(cells, order)):
        r, e = divmod(k, ne)
        assert (scvs.row[i], scvs.element[i]) == (r, e)
        assert np.max(np.abs(cell - scvs.polygon[i, : scvs.nverts[i]])) <= 1e-15
        x, y = cell.T
        area[ids[k]] += 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert np.max(np.abs(area - cvset.cv_volumes())) <= 1e-12 * np.max(area)


def test_write_cv_debug_vtu_rejects_unknown_family(tmp_path):
    disc = build(generate_structured(2, 2), "overlapping")
    path = tmp_path / "bubbles.vtu"
    with pytest.raises(ValueError, match="'pressure', 'velocity'"):
        write_cv_debug_vtu(disc, "bubbles", str(path))
    assert not path.exists()


def test_run_writes_outputs(tmp_path):
    config = RunConfig(
        case="donea-huerta",
        scheme="fem",
        levels=1,
        distortion=0.1,
        seed=3,
        out_dir=str(tmp_path / "out"),
        write_vtk=True,
    )
    report = run(config)
    assert len(report.levels) == 1
    csv_path = tmp_path / "out" / "donea-huerta_fem.csv"
    vtu_path = tmp_path / "out" / "donea-huerta_fem_level0.vtu"
    assert csv_path.exists()
    assert vtu_path.exists()
    rows = _read_csv(csv_path)
    assert len(rows) == 2
    assert float(rows[1][4]) == pytest.approx(report.levels[0].l2_velocity, rel=1e-5)
    ET.parse(vtu_path)  # well-formed XML


def test_run_is_deterministic(tmp_path):
    cfg = dict(case="bercovier-engelman", scheme="overlapping", levels=1,
               distortion=0.2, seed=11)
    run(RunConfig(out_dir=str(tmp_path / "r1"), **cfg))
    run(RunConfig(out_dir=str(tmp_path / "r2"), **cfg))
    a = (tmp_path / "r1" / "bercovier-engelman_overlapping.csv").read_bytes()
    b = (tmp_path / "r2" / "bercovier-engelman_overlapping.csv").read_bytes()
    assert a == b


def test_run_custom_msh(tmp_path):
    paths = []
    for i, n in enumerate((4, 8)):
        mesh = distort(generate_structured(n, n), 0.15, seed=50 + i)
        p = tmp_path / f"m{i}.msh"
        write_msh22(p, mesh)
        paths.append(str(p))
    config = RunConfig(
        case="custom-msh",
        scheme="hybrid",
        out_dir=str(tmp_path),
        mesh_files=tuple(paths),
    )
    report = run(config)
    assert len(report.levels) == 2
    assert report.levels[1].l2_velocity < report.levels[0].l2_velocity
    assert (tmp_path / "custom-msh_hybrid.csv").exists()


def test_main_leaves_rates_between_equal_levels_undefined(tmp_path, capsys):
    # The same mesh twice: a rate between two levels of one size is
    # undefined, not +-inf (and no numpy warning is raised).
    path = tmp_path / "a.msh"
    write_msh22(path, distort(generate_structured(4, 4), 0.15, seed=53))
    code = main(["--case", "custom-msh", "--mesh", str(path), "--mesh", str(path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "inf" not in out
    assert out.splitlines()[-1].count("--") == 3
    with open(tmp_path / "custom-msh_overlapping.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [rows[2][i] for i in (2, 5, 7)] == ["", "", ""]


def test_run_custom_msh_uses_mixed_boundary_layout(tmp_path):
    # Markers read from MSH default to Dirichlet; the run replaces them with
    # Dirichlet left/bottom and traction right/top, as for the built-in cases.
    mesh = distort(generate_structured(6, 6), 0.15, seed=52)
    path = tmp_path / "m.msh"
    write_msh22(path, mesh)
    config = RunConfig(
        case="custom-msh",
        scheme="overlapping",
        out_dir=str(tmp_path),
        write_vtk=True,
        mesh_files=(str(path),),
    )
    run(config)
    root = ET.parse(tmp_path / "custom-msh_overlapping_level0.vtu").getroot()
    pts = _vtu_array(root, "points").reshape(-1, 3)[:, :2]
    vel = _vtu_array(root, "velocity").reshape(-1, 3)[:, :2]
    on_dirichlet = (pts[:, 0] == 0.0) | (pts[:, 1] == 0.0)
    on_traction = ((pts[:, 0] == 1.0) | (pts[:, 1] == 1.0)) & ~on_dirichlet
    assert on_traction.sum() == 11
    # The Donea-Huerta velocity vanishes on the whole boundary.  Dirichlet
    # vertices hold it up to the GMRES tolerance; traction vertices are free
    # and carry the discretization error.
    assert np.abs(vel[on_dirichlet]).max() <= 1e-12
    assert np.abs(vel[on_traction]).max(axis=1).min() > 1e-6


def test_run_custom_msh_requires_files(tmp_path):
    with pytest.raises(ValueError, match="custom-msh"):
        run(RunConfig(case="custom-msh", out_dir=str(tmp_path)))


def test_run_unknown_case(tmp_path):
    with pytest.raises(ValueError, match="unknown case"):
        run(RunConfig(case="lid-cavity", out_dir=str(tmp_path)))


def test_parser_defaults_and_choices():
    parser = build_parser()
    args = parser.parse_args([])
    assert args.case == "donea-huerta"
    assert args.scheme == "overlapping"
    assert args.levels == 5
    assert args.distortion == 0.2
    assert args.mesh_files == ()
    with pytest.raises(SystemExit):
        parser.parse_args(["--scheme", "spectral"])
    args = parser.parse_args(["--mesh", "a.msh", "--mesh", "b.msh", "--vtk"])
    assert args.mesh_files == ("a.msh", "b.msh")
    assert args.write_vtk is True
    with pytest.raises(SystemExit):
        parser.parse_args(["--deterministic"])


def test_parser_defaults_are_the_run_config_defaults():
    assert RunConfig(**vars(build_parser().parse_args([]))) == RunConfig()
    args = ["--out", "results", "--mesh", "a.msh", "--levels", "2", "--case", "custom-msh"]
    config = RunConfig(**vars(build_parser().parse_args(args)))
    assert config == RunConfig(case="custom-msh", levels=2, out_dir="results", mesh_files=("a.msh",))


def test_main_end_to_end(tmp_path, capsys):
    code = main(
        [
            "--case", "donea-huerta",
            "--scheme", "non-overlapping",
            "--levels", "1",
            "--distortion", "0.1",
            "--seed", "2",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "case=donea-huerta scheme=non-overlapping" in out
    assert (tmp_path / "donea-huerta_non-overlapping.csv").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    code = main(["--case", "custom-msh", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["verbose", "10", ""])
def test_main_reports_an_unknown_log_level(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CVSTOKES_LOG", value)
    code = main(["--levels", "1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: CVSTOKES_LOG={value!r} ")
    assert not list(tmp_path.iterdir())


def test_main_reports_truncated_mesh_file(tmp_path, capsys):
    path = tmp_path / "cut.msh"
    write_msh22(path, generate_structured(4, 4))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: lines.index("$Elements") + 4]) + "\n")
    out = tmp_path / "out"
    code = main(["--case", "custom-msh", "--mesh", str(path), "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_main_reports_line_element_on_unused_node(tmp_path, capsys):
    path = tmp_path / "orphan.msh"
    path.write_text("\n".join(ORPHAN_LINE_MSH) + "\n")
    out = tmp_path / "out"
    code = main(["--case", "custom-msh", "--mesh", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{ORPHAN_LINE_NO}: ")
    assert "node 9" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_main_reports_degenerate_distortion(tmp_path, capsys):
    # Every distortion seed degenerates a triangle of the 20 x 20 level.
    code = main(["--levels", "2", "--distortion", "0.45", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: distortion with fraction 0.45")
    assert not list(tmp_path.rglob("*.csv"))


def test_python_dash_m_runs_the_cli(tmp_path):
    args = ["-W", "error", "-m", "cvstokes", "--levels", "1", "--out", str(tmp_path)]
    proc = run_python(args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [p.suffix for p in tmp_path.iterdir()] == [".csv"]


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_main_rejects_fewer_than_one_level(tmp_path, capsys, levels):
    code = main(["--levels", levels, "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("distortion", ["-0.3", "nan"])
def test_main_rejects_negative_or_nonfinite_distortion(tmp_path, capsys, distortion):
    code = main(["--levels", "1", "--distortion", distortion, "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("distortion", ["0.7", "0.5"])
def test_main_names_the_distortion_out_of_range(tmp_path, capsys, distortion):
    code = main(["--levels", "1", "--distortion", distortion, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: distortion must lie in [0, 0.5), got {distortion}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, named", [
    (["--levels", "7"], "--levels"),
    (["--distortion", "0.45"], "--distortion"),
    (["--levels", "7", "--distortion", "0.45"], "--levels and --distortion"),
])
def test_main_rejects_flags_that_mesh_files_would_ignore(tmp_path, capsys, flags, named):
    # Each mesh file is one level, used as read: these flags ran the files
    # undistorted and exited 0.
    path = tmp_path / "a.msh"
    write_msh22(path, generate_structured(2, 2))
    out = tmp_path / "out"
    code = main(["--case", "custom-msh", "--mesh", str(path), "--mesh", str(path), *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {named} cannot be used with --mesh, whose files are used as read\n"
    assert not out.exists()


def test_main_accepts_default_levels_and_distortion_with_mesh_files(tmp_path):
    path = tmp_path / "a.msh"
    write_msh22(path, distort(generate_structured(3, 3), 0.15, seed=54))
    args = ["--case", "custom-msh", "--mesh", str(path), "--levels", "5", "--distortion", "0.2"]
    assert main([*args, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("seed, distortion", [("-5", "0.2"), ("-1", "0")])
def test_main_rejects_a_negative_seed(tmp_path, capsys, seed, distortion):
    # numpy's "expected non-negative integer" named neither the flag nor the
    # value, and without distortion seeds -900 to -1 passed.
    code = main(["--levels", "1", "--seed", seed, "--distortion", distortion, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert not list(tmp_path.iterdir())

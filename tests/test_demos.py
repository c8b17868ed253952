"""The demo scripts run to completion from a clean directory and write their files."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMES = ("non-overlapping", "overlapping", "hybrid", "fem")

# Files each demo writes under demo_output/ in its working directory.
DEMO_FILES = {
    "conservation_audit.py": [],
    "control_volume_gallery.py": [
        f"cv_{scheme}_{which}.vtu"
        for scheme in ("non-overlapping", "overlapping", "hybrid")
        for which in ("pressure", "velocity")
    ]
    + ["donea_huerta_overlapping_6x6.vtu"],
    "convergence_study.py": [f"donea_huerta_{scheme}.csv" for scheme in SCHEMES],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_FILES)


@pytest.mark.parametrize("demo", sorted(DEMO_FILES))
def test_demo_runs_and_writes_its_files(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "demo_output").glob("*"))
    assert written == sorted(DEMO_FILES[demo])
    for name in written:
        assert (tmp_path / "demo_output" / name).stat().st_size > 0
    if demo == "conservation_audit.py":
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert sorted(row[0] for row in rows if row and row[0] in SCHEMES) == sorted(SCHEMES)

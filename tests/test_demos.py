"""The demo scripts run to completion from a clean directory and write their files."""

import pytest

from conftest import ROOT, run_python

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
    proc = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "demo_output").glob("*"))
    assert written == sorted(DEMO_FILES[demo])
    for name in written:
        assert (tmp_path / "demo_output" / name).stat().st_size > 0
    if demo == "conservation_audit.py":
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert sorted(row[0] for row in rows if row and row[0] in SCHEMES) == sorted(SCHEMES)

"""Checks of the benchmark itself, on tiny configurations.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cvstokes  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "study": workloads.Study(schemes=("overlapping",)),
    "direct-audit": workloads.DirectAudit(n=8),
    "small-msh": workloads.SmallMsh(sizes=(3, 4), repeats=1),
}


def traced(workload, seed, tmp_path, seconds=0.0):
    workdir = tmp_path / f"work-{workload.name}-{seed}"
    workdir.mkdir(exist_ok=True)
    return worker.measure(workload, seed, seconds, 1, str(workdir), str(tmp_path))


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat_for_a_seed(name, tmp_path):
    first = traced(TINY[name], 3, tmp_path, seconds=1.0)
    second = traced(TINY[name], 3, tmp_path)
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["counts_repeat"]
    for key in tracer.EXACT_COUNTS:
        assert first["layers"][key] == second["layers"][key], key
    assert first["layers"]["schemes.dofs"] > 0


def test_layers_a_workload_bypasses_read_zero(tmp_path):
    audit = traced(TINY["direct-audit"], 1, tmp_path)["layers"]
    assert audit["solver.gmres_s"] == 0 and audit["solver.gmres_iterations"] == 0
    assert audit["solver.direct_s"] > 0 and audit["solver.direct_lu_fill"] > 0
    study = traced(TINY["study"], 1, tmp_path)["layers"]
    assert study["solver.direct_s"] == 0 and study["verification.audit_s"] == 0
    assert study["solver.gmres_iterations"] > 0 and study["solver.precond_lu_fill"] > 0
    assert 0 < study["solver.gmres_true_residual"] < 1e-6


def test_tracer_restores_the_library():
    before = (cvstokes.solver.gmres_solve, cvstokes.verification.assemble,
              cvstokes.schemes.SaddleSystem.__dict__["matrix"],
              cvstokes.solver.BlockPreconditioner.__dict__["build"])
    with tracer.Tracer():
        assert cvstokes.verification.assemble is not before[1]
    after = (cvstokes.solver.gmres_solve, cvstokes.verification.assemble,
             cvstokes.schemes.SaddleSystem.__dict__["matrix"],
             cvstokes.solver.BlockPreconditioner.__dict__["build"])
    assert after == before


def test_self_time_excludes_child_wrappers():
    spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0], ["inner", 6.0, 7.0, 0, 0]]
    covers = [(1, 1.9, 5.1), (2, 5.9, 7.1)]
    assert tracer.self_times(spans, covers) == pytest.approx([10.0 - 3.2 - 1.2, 3.0, 1.0])


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)

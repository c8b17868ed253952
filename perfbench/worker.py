"""One workload in one fresh process; started by run.py, not by hand.

The process imports cvstokes and warms it up (one tiny solve per scheme
the workload uses), which is the set-up that ``setup_s`` times from the
moment run.py started the process.  With ``--setup-only`` it stops there.
Otherwise it makes the workload's inputs from the seed (untimed), then
repeats the workload's fixed list of problems, one *pass* at a time,
while another pass still fits in ``--seconds`` (at least one pass).  The
last line of its output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import cvstokes
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def git_commit(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": git_commit(ROOT),
    }


class Runner:
    """Times problems and passes; hands problem ids to the tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.problems = []       # [start, duration, ok, pass]
        self.pass_index = 0
        self.attempted = 0
        self.failed = 0

    def begin_problem(self):
        self.problems.append([perf_counter(), None, False, self.pass_index])
        if self.tracer is not None:
            self.tracer.problem = len(self.problems) - 1

    def run_task(self, expected, task):
        first = len(self.problems)
        try:
            flags = task(self)
        except Exception:
            traceback.print_exc()
            flags = None
        end = perf_counter()
        begun = self.problems[first:]
        if flags is None or len(flags) != expected or len(begun) != expected:
            flags = [False] * len(begun)
        for k, record in enumerate(begun):
            stop = begun[k + 1][0] if k + 1 < len(begun) else end
            record[1], record[2] = stop - record[0], bool(flags[k])
        self.attempted += max(expected, len(begun))
        self.failed += max(expected, len(begun)) - sum(bool(f) for f in flags)
        if self.tracer is not None:
            self.tracer.problem = -1
            self.tracer.flush()


def layer_metrics(tr, pass_counts, pass_overhead, problem_pass, n_passes) -> dict:
    """Per-layer values: median self time over passes, counts of the first pass."""
    per_pass = [dict.fromkeys(tracing.TIME_METRICS, 0.0) for _ in range(n_passes)]
    owner = {span: metric for metric, spans in tracing.TIME_METRICS.items() for span in spans}
    for span, self_s in zip(tr.spans, tracing.self_times(tr.spans, tr.covers)):
        metric = owner.get(span[0])
        if metric is not None and span[4] >= 0:
            per_pass[problem_pass[span[4]]][metric] += self_s
    out = {m: statistics.median(p[m] for p in per_pass) for m in tracing.TIME_METRICS}
    first = pass_counts[0]
    out.update({m: first.get(m, 0) for m in tracing.EXACT_COUNTS})
    out.update({m: tr.worst.get(m, 0.0) for m in tracing.WORST_VALUES})
    iters = first.get("solver.gmres_iterations", 0)
    out["solver.gmres_s_per_iter"] = out["solver.gmres_s"] / iters if iters else 0.0
    out["trace.overhead_s"] = statistics.median(pass_overhead)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(cvstokes.__file__).resolve().parent != ROOT / "src" / "cvstokes":
        print(f"error: imported cvstokes from {cvstokes.__file__}, not this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(args.out, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.warm_up(workdir)
        setup_s = time.time() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(workload, args.seed, args.seconds, args.trace, workdir, args.out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def measure(workload, seed, seconds, trace, workdir, out_dir) -> dict:
    """Make the inputs, then run passes while another one fits in `seconds`."""
    tasks = workload.tasks(seed, workdir)
    tr = tracing.Tracer().install() if trace else None
    runner = Runner(tr)
    pass_walls, pass_counts, pass_overhead = [], [], []
    start = perf_counter()
    try:
        while True:
            t0 = perf_counter()
            for expected, task in tasks:
                runner.run_task(expected, task)
            pass_walls.append(perf_counter() - t0)
            if tr is not None:
                pass_counts.append(dict(tr.counts))
                pass_overhead.append(tr.overhead)
                tr.counts.clear()
                tr.overhead = 0.0
                tr.defer = False
            runner.pass_index += 1
            if perf_counter() - start + pass_walls[-1] > seconds:
                break
    finally:
        if tr is not None:
            tr.uninstall()

    out = {
        "pass_walls": pass_walls,
        "problem_times": [p[1] for p in runner.problems],
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    if tr is not None:
        problem_pass = [p[3] for p in runner.problems]
        out["layers"] = layer_metrics(tr, pass_counts, pass_overhead, problem_pass, len(pass_walls))
        # Counts read on every pass must agree between passes (same inputs).
        every_pass = [{k: v for k, v in c.items() if k in pass_counts[-1]} for c in pass_counts]
        out["counts_repeat"] = all(c == every_pass[-1] for c in every_pass)
        spans_path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "problem"],
                       "problem_pass": problem_pass, "spans": tr.spans}, fh)
        out["spans_file"] = spans_path
    return out


if __name__ == "__main__":
    sys.exit(main())

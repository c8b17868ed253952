"""cvstokes benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py [--workload study|direct-audit|small-msh|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the package is imported from ``src/`` next to
this directory.  Each workload runs in fresh processes (worker.py) with
BLAS threads capped at the number of usable cores, so ``peak_rss_mb``
belongs to that workload alone.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics taken from
spans around the calls into each ``cvstokes`` module.  The last line of
the output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans and full results are written under
``perfbench/out/``.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("study", "direct-audit", "small-msh")
SETUP_SAMPLES = 5            # fresh processes timed per untraced run; the last one measures
TIME_LIMIT_S = 170.0         # for one workload, all of its processes included
P90_MIN_BEYOND = 10          # report p90 only with this many samples above it


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("_s_per_iter"):
        return "s"
    if name.endswith("defect") or name.endswith("residual"):
        return "ratio"
    return "bytes" if name.endswith("bytes_written") else "count"


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, seconds, trace, setup_only, deadline):
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(workload, seed, seconds, trace, True, deadline)["setup_s"])
    res = run_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(res["setup_s"])
    times = res["problem_times"]
    if trace:
        metrics = {name: (value, layer_unit(name)) for name, value in res["layers"].items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(res["pass_walls"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    notes = {
        "passes": len(res["pass_walls"]),
        "pass_walls": res["pass_walls"],
        "problems": len(times),
        "setup_samples": len(setups),
        "fail_rate": res["failed"] / res["attempted"],
    }
    if not trace and len(times) >= 2:
        notes["problem_p50_s"] = statistics.median(times)
        p90 = statistics.quantiles(times, n=10)[-1]
        if sum(t > p90 for t in times) >= P90_MIN_BEYOND:
            notes["problem_p90_s"] = p90
    if trace:
        notes["counts_repeat"] = res["counts_repeat"]
        notes["spans_file"] = res["spans_file"]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": res["env"], "notes": notes, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record, metrics


def report(record, metrics):
    notes = record["notes"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {notes['passes']}  problems {notes['problems']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for name in ("problem_p50_s", "problem_p90_s"):
        if name in notes:
            print(f"  {name:34s} {notes[name]:.6g} s  ({notes['problems']} samples)")
    print(f"  {'fail_rate':34s} {notes['fail_rate']:.6g}  "
          f"({record['failed']}/{record['attempted']} problems failed their check)")
    if record["trace"] and not notes["counts_repeat"]:
        print("  warning: exact counts differed between passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cvstokes" / "__init__.py").is_file():
        print(f"error: no cvstokes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record, metrics = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(record, metrics)
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for key, (value, unit) in metrics.items():
            summary["metrics"][prefix + key] = {"value": value, "unit": unit}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

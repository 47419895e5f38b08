"""Benchmark of ccsica separations, end to end and layer by layer.

    python3 perfbench/run.py --workload jacobi-grid --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Run it from the root of a checkout; it imports the package from `src/`.
Each workload runs in fresh interpreters (see worker.py): with --trace 0, a
few set-up probes and one closed-loop measurement with tracing off; with
--trace 1, one run of untraced and traced passes that gives the per-layer
metrics and the tracing overhead.  The metric names and units are those in
BENCHMARK.json.  Every metric is printed as `name = value unit`, the whole
record (environment, extra metrics, spans) is written to
perfbench/results/, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
nonzero when a separation fails its checks or the package cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# BENCHMARK.json lists the workloads whose runs are steady enough to bound;
# noisy-long is left out of it (see README.md) but runs here too
WORKLOADS = ("jacobi-grid", "gd-fig4", "noisy-long")
# fresh interpreters timed from start to the end of set-up; the median is setup_s
SETUP_PROBES = 9
# the separation path is elementwise numpy; one BLAS thread keeps runs steady
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every worker of one call must finish by then
DEADLINE_S = 170.0


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def _spawn(args, workload: str, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up seconds and, unless probing, its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = _clock()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=_child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - _clock()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    setup_s = json.loads(lines[0])["ready"]
    return setup_s, (json.loads(lines[-1]) if mode != "probe" else None)


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_sha() -> str:
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read_text(ROOT / ".git" / ref)
    if sha:
        return sha
    for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu() -> dict:
    model = "unknown"
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {"model": model, **caches}


def environment() -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": affinity,
        "cpu": _cpu(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "blas_thread_vars": list(BLAS_VARS),
    }


def run_workload(args, workload: str, deadline: float) -> dict:
    if args.trace:
        _, result = _spawn(args, workload, "trace", deadline)
    else:
        setups = [_spawn(args, workload, "probe", deadline)[0] for _ in range(SETUP_PROBES - 1)]
        setup_s, result = _spawn(args, workload, "measure", deadline)
        setups.append(setup_s)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["setup_probes_s"] = setups
    return result


def _compare_counts(path: Path, counts: dict) -> list[str] | None:
    """Counts that differ from an earlier traced run of the same seed, if any."""
    earlier = _read_text(path)
    if earlier is None:
        return None
    old = json.loads(earlier).get("counts", {})
    return sorted(k for k in set(old) | set(counts) if old.get(k, 0) != counts.get(k, 0))


def report(workload: str, args, result: dict, wanted: list[dict]) -> dict:
    """Print one workload's metrics, save its record, return its contract metrics."""
    mode = "traced" if args.trace else "untraced"
    print(f"== {workload}: seed {args.seed}, {args.seconds:g} s, {mode}")
    print(f"{workload}  environment {json.dumps(result['environment'])}")
    for name, m in sorted(result["metrics"].items()):
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}  attempted = {result['attempted']}, failed = {result['failed']}")
    for problem in result["problems"]:
        print(f"{workload}  FAILED {problem}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        changed = _compare_counts(path, result["counts"])
        if result["count_mismatches"]:
            print(f"{workload}  COUNTS DIFFER between traced passes: {result['count_mismatches']}")
        if changed:
            print(f"{workload}  COUNTS DIFFER from the earlier run of this seed: {changed}")
        result["counts_changed_since_last_run"] = changed
    path.write_text(json.dumps(result, indent=1))
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{workload} did not report {missing}")
    return {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in wanted}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ccsica" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    env = environment()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = _clock() + DEADLINE_S * len(names)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            result = run_workload(args, workload, deadline)
            result["environment"] = {**env, **result.pop("numpy")}
            metrics = report(workload, args, result, wanted)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{workload}." if args.workload == "all" else ""
        out["metrics"].update({prefix + k: v for k, v in metrics.items()})
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

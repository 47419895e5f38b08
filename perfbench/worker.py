"""One workload in one fresh interpreter: set-up, then a timed or traced loop.

run.py starts this file with PYTHONPATH pointing at the checkout's `src/`
and the BLAS thread count already set, so numpy sees it on import.

    --mode probe    set up and stop; run.py times set-up over several probes
    --mode measure  closed loop, one separation at a time, tracing off
    --mode trace    alternate untraced and traced passes over a fixed trial list

Set-up is import, input generation and one warm-up contrast evaluation.  Its
length is reported against the CLOCK_MONOTONIC reading run.py passes in
--t0, taken just before it started this process.  Every mode but probe ends
by printing one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import nullcontext

MIB = float(1 << 20)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_pass(wl, rounds, tally, tracer=None, pass_id=""):
    """Separate and check every trial of the given rounds, in order.

    Returns the separation latencies in seconds, round by round.
    """
    round_latencies = []
    for trials in rounds:
        latencies = []
        for trial in trials:
            if tracer is not None:
                tracer.trial = pass_id + trial.trial_id
            result, error = None, None
            start = time.perf_counter()
            try:
                result = wl.run_trial(trial)
            except wl.CcsIcaError as exc:
                error = exc
            latencies.append(time.perf_counter() - start)
            with tracer.span("metrics.score") if tracer is not None else nullcontext():
                outcome = wl.check(trial, result, error)
            tally.record(trial, result, outcome)
        round_latencies.append(latencies)
    return round_latencies


class Tally:
    """Outcomes of every separation of a run, and the rerun check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict = {}
        self._demixers: dict = {}

    def record(self, trial, result, outcome) -> None:
        if result is not None:
            key = result.demixer.tobytes()
            if self._demixers.setdefault(trial.trial_id, key) != key:
                outcome.problems.append("a rerun of the same input gave another demixer")
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems.extend(f"{trial.trial_id}: {p}" for p in outcome.problems)
        self.first.setdefault(trial.trial_id, outcome)

    def quality(self, trials) -> dict:
        """Median Amari index x 100 and SIR over the given trials' first runs."""
        outcomes = [self.first[t.trial_id] for t in trials]
        amari = [o.amari_x100 for o in outcomes if o.sir_db]
        sir = [v for o in outcomes for v in o.sir_db]
        if not amari:
            return {}
        return {
            "metrics.amari_x100.median": _metric(statistics.median(amari), "1"),
            "metrics.sir_db.median": _metric(statistics.median(sir), "dB"),
        }

    def summary(self, wl) -> dict:
        """Counts and problems, after the run-level check on the median
        Amari index; that check adds one failure when it trips."""
        amari = [o.amari_x100 for o in self.first.values() if o.sir_db]
        median = statistics.median(amari) if amari else float("nan")
        if not median < wl.AMARI_X100_MEDIAN_MAX:
            self.failed += 1
            self.problems.append(f"median amari x100 {median:.3f} over {len(amari)} separations"
                                 f" not under {wl.AMARI_X100_MEDIAN_MAX}")
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "scores": [(o.trial_id, o.amari_x100, o.sir_db) for o in self.first.values()],
        }


def measure(wl, workload, rounds, seconds: float) -> dict:
    """Closed loop with one client, cycling the rounds until time is up."""
    tally = Tally()
    latencies: list[float] = []
    done = 0
    start = last = time.perf_counter()
    # a round starts only if it should end within the time given
    while done < workload.fixed_rounds or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        (lat,) = _run_pass(wl, [rounds[done % len(rounds)]], tally)
        latencies.extend(lat)
        done += 1
    summary = tally.summary(wl)
    ms = sorted(1e3 * v for v in latencies)
    n = len(ms)
    metrics = {
        "separations_per_s": _metric(n / sum(latencies), "1/s"),
        "separate_ms.p50": _metric(statistics.median(ms), "ms"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_ratio": _metric(tally.failed / tally.attempted, "1"),
        "separations": _metric(n, "count"),
        "rounds": _metric(done, "count"),
    }
    # the highest percentile with at least ten samples beyond it
    if n >= 20:
        metrics["separate_ms.tail"] = _metric(ms[n - 11], "ms")
        metrics["separate_ms.tail_percentile"] = _metric(100.0 * (n - 10) / n, "%")
    quality_trials = [t for r in rounds[: workload.fixed_rounds] for t in r]
    metrics.update(tally.quality(quality_trials))
    return {**summary, "metrics": metrics, "latencies_ms": [1e3 * v for v in latencies]}


def _layer_metrics(tracer, counts: Counter, first_span: int) -> dict:
    """Per-layer metrics of one traced pass, whose spans start at first_span."""
    busy = tracer.busy(first_span)
    value_terms = counts["objective.value.marginal_terms"]
    grad_terms = counts["objective.value_and_gradient.marginal_terms"]
    eval_busy = busy["objective.value.busy_s"] + busy["objective.value_and_gradient.busy_s"]
    visits = counts["optimizers.jacobi.pair_visits"]
    out = {k: _metric(counts[k], "count") for k in (
        "objective.value.calls", "objective.value.marginal_terms",
        "objective.value_and_gradient.calls", "objective.value_and_gradient.marginal_terms",
        "objective.build.calls", "objective.build.joint_terms", "objective.errors",
        "optimizers.separate.calls", "optimizers.iterations", "optimizers.jacobi.pair_visits",
    )}
    for name in ("objective.value.busy_s", "objective.value_and_gradient.busy_s",
                 "objective.build.busy_s", "density.joint.busy_s",
                 "optimizers.separate.busy_s", "optimizers.separate.self_s",
                 "preprocess.center_and_whiten.busy_s", "metrics.score.busy_s"):
        out[name] = _metric(busy[name], "s")
    out.update({
        "objective.eval.busy_s": _metric(eval_busy, "s"),
        "objective.ns_per_term": _metric(1e9 * eval_busy / (value_terms + grad_terms), "ns"),
        "optimizers.jacobi.evals_per_visit": _metric(
            counts["objective.value.calls"] / visits if visits else 0.0, "count"),
    })
    return out


def _traced_pass(wl, tracer, rounds, tally, pass_id: str, memory: bool):
    """One pass with the wrappers installed; returns its counts, first span
    index and wall seconds.  With memory on, tracemalloc runs too."""
    first_span = len(tracer.spans)
    before = Counter(tracer.counts)
    tracer.peak_call_bytes = tracer.max_chunk_bytes = 0
    tracer.install()
    if memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        _run_pass(wl, rounds, tally, tracer, pass_id)
    finally:
        wall = time.perf_counter() - t0
        tracemalloc.stop()
        tracer.uninstall()
    counts = Counter(tracer.counts)
    counts.subtract(before)
    return +counts, first_span, wall


def trace(wl, tracer, rounds, seconds: float, setup_busy: Counter) -> dict:
    """Untraced and traced passes in turn until time is up, then one pass
    under tracemalloc for the memory peaks.

    Times are medians over the traced passes; tracemalloc slows numpy's
    allocations, so its pass is not timed.  The counts of every traced pass
    must equal those of the first.
    """
    tally = Tally()
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    pass_counts: list[Counter] = []
    start = last = time.perf_counter()
    # a pair of passes starts only if it should end within the time given
    while len(layers) < 2 or 2 * time.perf_counter() - last - start <= seconds:
        t0 = last = time.perf_counter()
        _run_pass(wl, rounds, tally)
        untraced.append(time.perf_counter() - t0)
        counts, first_span, wall = _traced_pass(wl, tracer, rounds, tally, f"p{len(layers)}.", False)
        pass_counts.append(counts)
        traced.append(wall)
        layers.append(_layer_metrics(tracer, counts, first_span))
    counts, _, _ = _traced_pass(wl, tracer, rounds, tally, "mem.", True)
    pass_counts.append(counts)

    first = pass_counts[0]
    mismatched = sorted({k for c in pass_counts[1:] for k in set(c) | set(first) if c[k] != first[k]})
    metrics = {}
    for name, m in layers[0].items():
        # counts come from the first pass; any pass that differs is flagged
        value = m["value"] if m["unit"] == "count" else statistics.median(p[name]["value"] for p in layers)
        metrics[name] = _metric(value, m["unit"])
    base = statistics.median(untraced)
    overhead = statistics.median(traced) - base
    metrics.update({
        "objective.chunk_mib.computed": _metric(tracer.max_chunk_bytes / MIB, "MiB"),
        "objective.peak_traced_mib": _metric(tracer.peak_call_bytes / MIB, "MiB"),
        "sources.mix.busy_s": _metric(setup_busy["sources.mix.busy_s"], "s"),
        "sources.draw.busy_s": _metric(setup_busy["sources.draw.busy_s"], "s"),
        "tracing.untraced_pass_s": _metric(base, "s"),
        "tracing.overhead_s": _metric(overhead, "s"),
        "tracing.overhead_share": _metric(overhead / base, "1"),
        "tracing.passes": _metric(len(layers), "count"),
        "tracing.count_mismatches": _metric(len(mismatched), "count"),
    })
    metrics.update(tally.quality([t for r in rounds for t in r]))
    return {
        **tally.summary(wl),
        "metrics": metrics,
        "counts": dict(sorted(first.items())),
        "count_mismatches": mismatched,
        "spans": tracer.spans,
    }


def numpy_record(np) -> dict:
    record = {"numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import numpy as np
    from ccsica import density, objective, optimizers, sources

    import workloads as wl
    from tracer import Tracer

    workload = wl.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        tracer = Tracer(getattr(density, "_CHUNK", 1024), (sources, objective, optimizers))
        tracer.install()
        rounds = wl.make_rounds(workload, args.seed, workload.fixed_rounds)
        tracer.uninstall()
    else:
        rounds = wl.make_rounds(workload, args.seed, workload.rounds)
    wl.warm_up(rounds[0][0])
    setup_s = _clock() - args.t0
    print(json.dumps({"ready": setup_s}), flush=True)
    if args.mode == "probe":
        return 0
    if args.mode == "measure":
        result = measure(wl, workload, rounds, args.seconds)
    else:
        result = trace(wl, tracer, rounds, args.seconds, tracer.busy())
    result["numpy"] = numpy_record(np)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

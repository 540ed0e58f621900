"""The repository's benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload zipf-dense --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's entry points (see ``tracing.py``) and
reports the per-layer metrics instead, plus the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
human-readable table.  A failed operation or output check exits with code 1.
A schema-v1 result file (``benchmarks/_common.write_result``) and, for traced
runs, the recorded spans land in ``perfbench/results/``.

Workloads, metrics and the layer map are explained in ``RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

# One busy thread per side of the service loop: keep BLAS from adding more.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# write_result records the checkout's git sha; never look above the checkout.
os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))

from benchmarks._common import percentile, write_result  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import SPAN_FIELDS, Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    ALGORITHMS,
    WORKLOADS,
    Ledger,
    Workload,
    quality,
    run_window,
    set_up,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: End-to-end metrics (name, unit), reported on every workload by ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    *((f"solve_s.{name}", "s") for name in ALGORITHMS),
    ("quality.hor_vs_alg", "ratio"),
    ("quality.alg_vs_exact", "ratio"),
    ("resolve_p50_ms", "ms"),
    ("resolve_p90_ms", "ms"),
    ("mutate_p50_ms", "ms"),
    ("mutate_p98_ms", "ms"),
    ("serve_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-solve layer metrics (name, unit, key in :func:`tracing.layer_totals`
#: or ``counter:<SchedulerResult.counters key>``), suffixed ``.<algorithm>``.
#: Times are self times.
SOLVE_LAYERS = (
    ("storage.block_s", "s", "storage.s"),
    ("storage.block_calls", "count", "storage.calls"),
    ("storage.block_bytes", "bytes", "storage.bytes"),
    ("patterns.mine_s", "s", "patterns.s"),
    ("patterns.mine_calls", "count", "patterns.calls"),
    ("patterns.classes_per_user", "ratio", "patterns.classes_per_user"),
    ("kernel.s", "s", "kernel.s"),
    ("kernel.calls", "count", "kernel.calls"),
    ("kernel.cells", "count", "kernel.cells"),
    ("kernel.bytes", "bytes", "kernel.bytes"),
    ("grid.s", "s", "grid.s"),
    ("grid.cells", "count", "grid.cells"),
    ("refresh.s", "s", "refresh.s"),
    ("refresh.calls", "count", "refresh.calls"),
    ("select.self_s", "s", "select.s"),
    ("score_computations", "count", "counter:score_computations"),
    ("assignments_examined", "count", "counter:assignments_examined"),
    ("solve.minor_faults", "count", "minor_faults"),
)

#: The Φ bound layer, reported for the algorithms that consult it.
BOUND_LAYER = (
    ("bound.s", "s", "bound.s"),
    ("bound.calls", "count", "bound.calls"),
    ("bound.evaluations", "count", "counter:extra.phi_bound_evaluations"),
    ("bound.interval_skips", "count", "counter:extra.phi_bound_interval_skips"),
)
BOUND_ALGORITHMS = ("INC", "HOR-I")

#: Self time of the solve layers inside the service's resolves, summed over the trace.
SERVE_LAYERS = (
    ("storage.block_s.serve", "storage.s"),
    ("patterns.mine_s.serve", "patterns.s"),
    ("bound.s.serve", "bound.s"),
    ("kernel.s.serve", "kernel.s"),
    ("grid.s.serve", "grid.s"),
    ("refresh.s.serve", "refresh.s"),
    ("select.self_s.serve", "select.s"),
)

#: Service and wire metrics of the trace, plus the tracing overhead.
SERVICE_METRICS = (
    ("session.apply_s", "s"),
    ("session.resolve_s", "s"),
    ("session.scores_saved", "count"),
    ("session.scores_recomputed", "count"),
    ("session.saved_ratio", "ratio"),
    ("wire.roundtrips", "count"),
    ("wire.bytes_sent", "bytes"),
    ("wire.bytes_recv", "bytes"),
    ("wire.wait_s", "s"),
    ("mutate_rejected", "count"),
    ("trace.overhead", "ratio"),
)


def per_layer_metrics() -> List[tuple]:
    """Every per-layer metric (name, unit) that ``--trace 1`` reports."""
    metrics = []
    for name in ALGORITHMS:
        layers = SOLVE_LAYERS + (BOUND_LAYER if name in BOUND_ALGORITHMS else ())
        metrics.extend((f"{metric}.{name}", unit) for metric, unit, _ in layers)
    metrics.extend((metric, "s") for metric, _ in SERVE_LAYERS)
    metrics.extend(SERVICE_METRICS)
    return metrics


def _ms(samples: Sequence[float], rank: float) -> float:
    return percentile(samples, rank) * 1000.0


def measure(workload: Workload, seed: int, seconds: float, ledger: Ledger) -> tuple:
    """The untraced run: repeated set-up, service trace, solve rounds and quality.

    Every timing is in reference seconds (see ``speed.py``), except
    ``mutate_p98_ms``: that tail is a delayed-ACK timer wait, which does not
    scale with the host's speed, so it is the measured wall time.
    """
    scratch = HERE / "results"
    probe = SpeedProbe()
    setup_walls, setup_times = [], []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        begin = time.perf_counter()
        service = set_up(workload, seed, scratch, ledger)
        setup_walls.append(time.perf_counter() - begin)
        setup_times.append(setup_walls[-1] * probe.factor())
    try:
        trace, solves = run_window(workload, seed, service, seconds, ledger, probe)
        ratios = quality(workload, seed, service.instance, solves, ledger)
    finally:
        service.close()
    values = {"setup_s": statistics.median(setup_times)}
    for name in ALGORITHMS:
        if solves.times[name]:
            values[f"solve_s.{name}"] = statistics.median(solves.times[name])
    values.update(ratios)
    if trace.resolve and trace.mutate:
        values["resolve_p50_ms"] = _ms(trace.resolve, 50.0)
        values["resolve_p90_ms"] = _ms(trace.resolve, 90.0)
        values["mutate_p50_ms"] = _ms(trace.mutate, 50.0)
        values["mutate_p98_ms"] = _ms(trace.wall["mutate"], 98.0)
        values["serve_ops_per_s"] = trace.operations / trace.elapsed
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "setup": len(setup_times),
        "solve_rounds": solves.rounds,
        "resolves": len(trace.resolve),
        "mutations": len(trace.mutate),
        "queries": len(trace.query),
        "mutate_rejected": trace.rejected,
    }
    raw = {
        "probe_s": probe.samples,
        "setup_s": setup_times,
        "solve_s": solves.times,
        "resolve_s": trace.resolve,
        "mutate_s": trace.mutate,
        "query_s": trace.query,
        "wall": {
            "setup_s": setup_walls,
            "solve_s": solves.wall,
            **{f"{kind}_s": samples for kind, samples in trace.wall.items()},
        },
    }
    return values, samples, raw


def _round_value(totals: Dict[str, float], key: str) -> float:
    """One traced solve's value of a layer key (classes per user is a mean per mining)."""
    if key == "patterns.classes_per_user":
        return totals.get(key, 0.0) / max(totals.get("patterns.calls", 0.0), 1.0)
    return totals.get(key, 0.0)


def measure_traced(
    workload: Workload, seed: int, seconds: float, ledger: Ledger, tracer: Tracer
) -> tuple:
    """The traced run: one set-up, then the trace and solve rounds under the tracer."""
    service = set_up(workload, seed, HERE / "results", ledger)
    try:
        trace, solves = run_window(workload, seed, service, seconds, ledger, SpeedProbe(), tracer)
    finally:
        service.close()

    values: Dict[str, float] = {}
    for name in ALGORITHMS:
        per_round = [
            {**layer_totals(tracer, f"solve:{name}:{index}"), "minor_faults": faults}
            for index, faults in enumerate(solves.minor_faults[name])
        ]
        counters = solves.counters.get(name, {})
        layers = SOLVE_LAYERS + (BOUND_LAYER if name in BOUND_ALGORITHMS else ())
        for metric, _, key in layers:
            if key.startswith("counter:"):
                value = float(counters.get(key[len("counter:"):], 0))
            elif per_round:
                value = statistics.median(_round_value(totals, key) for totals in per_round)
            else:
                value = 0.0
            values[f"{metric}.{name}"] = value

    serve = layer_totals(tracer, "serve:")
    for metric, key in SERVE_LAYERS:
        values[metric] = serve.get(key, 0.0)
    session_s = serve.get("session.apply.total_s", 0.0) + serve.get("session.resolve.total_s", 0.0)
    saved = trace.stats.get("scores_saved", 0)
    recomputed = trace.stats.get("scores_recomputed", 0)
    values.update(
        {
            "session.apply_s": serve.get("session.apply.total_s", 0.0),
            "session.resolve_s": serve.get("session.resolve.total_s", 0.0),
            "session.scores_saved": float(saved),
            "session.scores_recomputed": float(recomputed),
            "session.saved_ratio": saved / max(recomputed, 1),
            "wire.roundtrips": serve.get("wire.recv.calls", 0.0),
            "wire.bytes_sent": serve.get("wire.send.bytes_sent", 0.0),
            "wire.bytes_recv": serve.get("wire.recv.bytes_recv", 0.0),
            "wire.wait_s": serve.get("wire.send.total_s", 0.0)
            + serve.get("wire.recv.total_s", 0.0)
            - session_s,
            "mutate_rejected": float(trace.rejected),
        }
    )
    untraced = [sum(times) for times in zip(*solves.times.values())]
    traced_sums = [sum(times) for times in zip(*solves.traced_times.values())]
    values["trace.overhead"] = (
        statistics.median(traced_sums) / statistics.median(untraced)
        if untraced and traced_sums
        else 0.0
    )
    samples = {
        "solve_rounds": solves.rounds,
        "spans": len(tracer.spans),
        "resolves": len(trace.resolve),
        "mutations": len(trace.mutate),
        "mutate_rejected": trace.rejected,
    }
    raw = {"solve_s": solves.times, "traced_solve_s": solves.traced_times}
    return values, samples, raw


def parse_args(argv: Optional[Sequence[str]], workloads: Dict[str, Workload]):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(
    argv: Optional[Sequence[str]] = None,
    workloads: Optional[Dict[str, Workload]] = None,
) -> int:
    """Run one workload, print the table and the result line; 0 when every check held."""
    workloads = workloads or WORKLOADS
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]
    ledger = Ledger()
    (HERE / "results").mkdir(exist_ok=True)
    if args.trace:
        tracer = Tracer()
        values, samples, raw = measure_traced(workload, args.seed, args.seconds, ledger, tracer)
        declared = per_layer_metrics()
    else:
        tracer = None
        values, samples, raw = measure(workload, args.seed, args.seconds, ledger)
        declared = END_TO_END
    for name, _ in declared:
        ledger.check(name in values, f"metric {name} was not measured")
    correct = not ledger.problems
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared
        if name in values
    }

    label = f"perfbench-{workload.name}" + ("-traced" if args.trace else "")
    write_result(
        label,
        HERE / "results",
        scale="default",
        instance={**workload.params(), "seed": args.seed, "nproc": os.cpu_count()},
        timings={name: entry["value"] for name, entry in metrics.items() if entry["unit"] == "s"},
        counters={"attempted": ledger.attempted, "failed": ledger.failed, **samples},
        rows=[{"metric": name, **entry} for name, entry in metrics.items()],
        extra={
            "workload": workload.name,
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "problems": ledger.problems,
            "raw_samples": raw,
        },
    )
    if tracer is not None:
        (HERE / "results" / f"{label}.spans.json").write_text(
            json.dumps({"fields": SPAN_FIELDS, "spans": tracer.spans}), encoding="utf-8"
        )

    for problem in ledger.problems:
        print(problem, file=sys.stderr)
    print(f"# workload {workload.name}  seed {args.seed}  samples {json.dumps(samples)}")
    for name, entry in metrics.items():
        print(f"{name:<34} {entry['value']:>16.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    # The closed loop never runs its two threads at once, so one core loses
    # no work, and a round trip then hands over within the core instead of
    # waking an idle virtual CPU, a wait that the host's load sets.  Threads
    # started later inherit the pin.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())

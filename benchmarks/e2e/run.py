#!/usr/bin/env python3
"""End-to-end benchmark runner.

    python3 benchmarks/e2e/run.py --workload graph_hot_preds --seed 1 \
        --seconds 10 --trace 0

makes the workload's inputs from the seed, sets up three times (the
median is reported) with a third of the ``--seconds`` timed phase after
each, checks the outputs, prints every metric as ``name value unit``
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  Times are reference-state times (see ``canary.py``).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` prints the per-layer metrics from a separately traced run
(spans kept in memory, written to ``<out>/trace-*.jsonl`` afterwards).
Metric names and units come from ``BENCHMARK.json``; this file computes
a value for each and refuses to run if the two disagree.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_REPEATS = 3
# Share of --seconds a traced run spends on its untraced reference
# passes (the yardstick for bench.trace_overhead_fraction).
REFERENCE_SHARE = 0.3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_patches():
    """(class, method, span name) for every public function the traced
    run times from outside."""
    from repro import (
        AcornIndex, BackgroundCompactor, LifecycleIndex, RoutePlanner,
        SearchEngine, ShardedAcornIndex,
    )
    from repro.baselines.prefilter import PreFilterSearcher
    from repro.engine.cache import PredicateCache
    from repro.lifecycle.epoch import EpochSnapshot
    from repro.predicates.base import Predicate

    return [
        (Predicate, "compile", "predicates.compile"),
        (PredicateCache, "get_or_compile", "engine.cache"),
        (SearchEngine, "search_batch", "engine.search_batch"),
        (RoutePlanner, "search", "routing.search"),
        (PreFilterSearcher, "search", "baselines.prefilter"),
        (AcornIndex, "build", "core.build"),
        (AcornIndex, "freeze", "core.freeze"),
        (AcornIndex, "search", "core.search"),
        (ShardedAcornIndex, "build", "shard.build"),
        (ShardedAcornIndex, "plan", "shard.plan"),
        (ShardedAcornIndex, "search", "shard.search"),
        (LifecycleIndex, "build", "lifecycle.build"),
        (LifecycleIndex, "insert", "lifecycle.insert"),
        (LifecycleIndex, "delete", "lifecycle.delete"),
        (LifecycleIndex, "acquire_read_snapshot", "lifecycle.acquire"),
        (LifecycleIndex, "release_read_snapshot", "lifecycle.release"),
        (EpochSnapshot, "search", "lifecycle.read_search"),
        (BackgroundCompactor, "tick", "lifecycle.tick"),
    ]


def set_up(workload, seed: int, tracer) -> float:
    """One full set-up: generate, build, freeze, ground truth, warm-up.
    Returns its reference-state seconds (see ``canary.py``)."""
    from canary import between, machine_speed

    gc.collect()
    before = machine_speed()
    start = time.perf_counter()
    workload.setup(seed, tracer)
    workload.warm_up(tracer)
    seconds = time.perf_counter() - start
    return seconds * between(before, machine_speed())


def steady_ops_ms(phase):
    """Each operation's reference-state time: its median over the
    identical passes, every pass scaled by the machine speed it ran at
    (see the noise discipline in ``workloads.py`` and ``canary.py``)."""
    import numpy as np

    speed = np.asarray(phase.pass_speed)[:, None]
    return np.median(np.stack(phase.op_ms) * speed, axis=0)


def end_to_end(workload, phase, setup_s: float, index_bytes: int) -> dict[str, float]:
    import numpy as np

    ops_ms = steady_ops_ms(phase)
    timed = (np.ones(len(ops_ms), dtype=bool) if phase.latency_ops is None
             else phase.latency_ops)
    latencies = ops_ms[timed]
    if phase.open_loop:
        # Arrivals overlap, so a pass lasts from its first due time to
        # its last response (in the reference-state seconds its
        # schedule was laid out in).
        pass_s = statistics.median(phase.pass_wall_s)
    else:
        # One client: a pass lasts the sum of its operations.
        pass_s = float(ops_ms.sum()) / 1e3
    # Good operations were correct and met the latency limit (untimed
    # kinds, the churn writes, only have to succeed).
    good = (int((~timed).sum())
            + int((latencies <= workload.latency_limit_ms).sum()) - phase.failed)
    return {
        "setup_s": setup_s,
        "qps": len(ops_ms) / pass_s,
        "goodput_qps": max(good, 0) / pass_s,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": float(np.percentile(latencies, 95)),
        "recall_at_10": phase.recall,
        "dist_comps_per_query": phase.dist_comps / phase.queries,
        "index_mb": index_bytes / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# Layer seconds of the timed phase: metric -> the spans whose self time
# (span minus children) it sums.  Every span a traced phase records must
# be listed here (the harness's own "op*" roots aside), so these metrics
# and bench.unattributed_fraction always add up to the traced wall time.
LAYER_SECONDS = {
    "predicates.compile_s": ("predicates.compile",),
    # search_batch itself, its cache lookups and its per-batch freeze hook
    "engine.batch_overhead_s": ("engine.search_batch", "engine.cache", "core.freeze"),
    "routing.plan_s": ("routing.search",),
    "baselines.prefilter_s": ("baselines.prefilter",),
    "core.search_s": ("core.search",),
    "shard.plan_s": ("shard.plan",),
    "shard.scatter_merge_s": ("shard.search",),
    "lifecycle.read_s": ("lifecycle.acquire", "lifecycle.release",
                         "lifecycle.read_search"),
    "lifecycle.write_s": ("lifecycle.insert", "lifecycle.delete"),
    # the tick and the rebuild it runs
    "lifecycle.compact_s": ("lifecycle.tick", "core.build"),
}


def per_layer(workload, tracer, setup_range, reference, traced,
              persistence) -> dict[str, float]:
    """Per-layer metrics of a traced run; layer seconds are per pass and
    as measured (not scaled to the reference state)."""
    import numpy as np
    from tracer import durations, self_times

    spans = tracer.spans
    phase_range = (traced.span_begin, traced.span_end)
    passes = len(traced.pass_wall_s)
    wall = float(sum(traced.pass_wall_s))
    own = self_times(spans, *phase_range)
    unlisted = ({name for name in own if not name.startswith("op")}
                - {name for names in LAYER_SECONDS.values() for name in names})
    if unlisted:
        raise RuntimeError(f"spans missing from LAYER_SECONDS: {sorted(unlisted)}")
    layer_s = {
        metric: sum(own.get(name, 0.0) for name in names) / passes
        for metric, names in LAYER_SECONDS.items()
    }

    def total_s(name: str, span_range=phase_range) -> float:
        return float(sum(durations(spans, name, *span_range)))

    def p50_ms(name: str) -> float:
        values = durations(spans, name, *phase_range)
        return float(np.median(values)) * 1e3 if values else 0.0

    pass_qps = [len(ops) / w for ops, w in zip(traced.op_ms, traced.pass_wall_s)]
    quartiles = statistics.quantiles(pass_qps, n=4)
    # Tracing overhead: the same steady operation times, traced against
    # the untraced reference passes of this run.
    traced_ms = steady_ops_ms(traced)
    overhead = traced_ms.sum() / steady_ops_ms(reference).sum()
    p99 = {} if traced.open_loop else {
        "core.latency_p99_ms": float(np.percentile(traced_ms, 99))}
    search_s = layer_s["core.search_s"]

    out = {
        "datasets.generate_s": total_s("datasets.generate", setup_range),
        "datasets.ground_truth_s": total_s("datasets.ground_truth", setup_range),
        "core.build_s": total_s("core.build", setup_range),
        "core.build_dist_comps": workload.build_dist_comps,
        "core.freeze_s": total_s("core.freeze", setup_range),
        "shard.build_s": total_s("shard.build", setup_range),
        "lifecycle.build_s": total_s("lifecycle.build", setup_range),
        **layer_s,
        "predicates.compile_ms_p50": p50_ms("predicates.compile"),
        "predicates.masks_compiled":
            len(durations(spans, "predicates.compile", *phase_range)) / passes,
        "core.hops_per_query": traced.hops / traced.queries,
        "core.visited_per_query": traced.visited / traced.queries,
        "core.hops_per_s": (
            traced.hops / (search_s * passes) if search_s > 0 else 0.0),
        "shard.search_s": total_s("shard.search") / passes,
        "shard.local_search_s": (
            total_s("core.search") / passes if total_s("shard.search") else 0.0),
        "lifecycle.snapshot_acquire_ms_p50": p50_ms("lifecycle.acquire"),
        "lifecycle.read_search_ms_p50": p50_ms("lifecycle.read_search"),
        "bench.machine_speed": statistics.median(traced.pass_speed),
        "bench.machine_speed_spread":
            (max(traced.pass_speed) - min(traced.pass_speed))
            / statistics.median(traced.pass_speed),
        "bench.passes": passes,
        "bench.traced_pass_s": wall / passes,
        "bench.pass_qps_iqr_fraction":
            (quartiles[2] - quartiles[0]) / statistics.median(pass_qps),
        "bench.trace_overhead_fraction": float(overhead) - 1.0,
        "bench.unattributed_fraction":
            max(0.0, 1.0 - sum(layer_s.values()) * passes / wall),
        "bench.failed_fraction": traced.failed / traced.attempted,
        **p99,
        **persistence,
        **traced.layer,
    }
    return {name: float(value) for name, value in out.items()}


def persistence_round_trip(workload, tracer, out_dir: Path) -> dict[str, float]:
    """One save_index/load_index round trip of the serving index."""
    from repro import load_index, save_index

    path = out_dir / f"index-{os.getpid()}.npz"
    try:
        with tracer.span("persistence.save") as save:
            save_index(workload.index, path)
        file_mb = path.stat().st_size / 1e6
        with tracer.span("persistence.load") as load:
            restored = load_index(path)
    finally:
        path.unlink(missing_ok=True)
    if len(restored) != len(workload.index):
        raise RuntimeError("load_index returned a different index size")
    seconds = {i: tracer.spans[i][2] - tracer.spans[i][1] for i in (save, load)}
    return {
        "persistence.save_s": seconds[save],
        "persistence.load_s": seconds[load],
        "persistence.file_mb": file_mb,
    }


def run_untraced(make_workload, seed: int, seconds: float):
    """SETUP_REPEATS rounds of a fresh set-up followed by its share of
    the timed phase.

    Interleaving spreads both the set-ups and the passes over the whole
    run, so a burst of machine noise shorter than the run leaves most
    of each undisturbed.  Every round builds the same index from the
    same seed and issues the same operations, so the rounds' passes
    pool into one phase.  The previous round's workload is freed before
    the next is built: a second live index would double the garbage
    collector's work during the build.
    """
    from tracer import Tracer
    from workloads import Phase

    off = Tracer(enabled=False)
    workload, setup_times, phases = None, [], []
    for _ in range(SETUP_REPEATS):
        workload = None
        workload = make_workload()
        setup_times.append(set_up(workload, seed, off))
        index_bytes = workload.index_bytes()  # after set-up, before any write
        phases.append(workload.measure(seconds / SETUP_REPEATS, off, min_passes=1))
    phase = Phase.pooled(phases)
    return phase, end_to_end(workload, phase, statistics.median(setup_times),
                             index_bytes)


def run_traced(make_workload, seed: int, seconds: float, out_dir: Path):
    """One set-up and one timed phase under the tracer, after a short
    untraced reference phase that prices the tracing itself."""
    from tracer import Tracer

    tracer = Tracer()
    off = Tracer(enabled=False)
    workload = make_workload()

    def patch() -> None:
        for owner, attr, span_name in layer_patches():
            tracer.patch(owner, attr, span_name)

    try:
        patch()
        set_up(workload, seed, tracer)
        setup_range = (0, tracer.mark())
        tracer.restore()
        reference = workload.measure(seconds * REFERENCE_SHARE, off, min_passes=1)
        patch()
        phase = workload.measure(seconds * (1 - REFERENCE_SHARE), tracer,
                                 min_passes=2)
    finally:
        tracer.restore()
    out_dir.mkdir(parents=True, exist_ok=True)
    persistence = (persistence_round_trip(workload, tracer, out_dir)
                   if workload.name == "graph_hot_preds" else {})
    values = per_layer(workload, tracer, setup_range, reference, phase,
                       persistence)
    tracer.write_jsonl(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")
    return phase, values


def run(spec: dict, name: str, seed: int, seconds: float, trace: bool,
        scale: float, out_dir: Path):
    """Run one workload; returns the result line's dict and the phase."""
    from workloads import WORKLOADS

    make_workload = lambda: WORKLOADS[name](scale)  # noqa: E731
    if trace:
        phase, values = run_traced(make_workload, seed, seconds, out_dir)
        listed = spec["per_layer"]
    else:
        phase, values = run_untraced(make_workload, seed, seconds)
        listed = spec["end_to_end"]

    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }, phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the BENCHMARK.json workloads")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (smoke tests)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result and trace files")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        passthrough = [a for a in (argv or sys.argv[1:]) if a != "--all"]
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, *passthrough]).returncode
            for name in names
        ]
        return max(codes)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds

    # Pinned before numpy loads: one BLAS thread, so a run is one process
    # and at most two Python threads on a two-core box.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    result, phase = run(spec, args.workload, args.seed, seconds,
                        bool(args.trace), args.scale, args.out)
    for line in phase.violations[:20]:
        print(f"violation: {line}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    args.out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "scale": args.scale, "cpus": os.cpu_count(),
        "machine_speed": phase.pass_speed, **result,
    }
    target = args.out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    target.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

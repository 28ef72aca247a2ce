"""Smoke and contract tests for the end-to-end benchmark.

Not part of tier-1 (``testpaths = ["tests"]``); run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

Every benchmark run here is a ``--scale 0.05 --seconds 1`` subprocess of
``run.py``, exactly as the driver invokes it.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("recall_at_10", "dist_comps_per_query", "index_mb")


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-out")

    @functools.lru_cache(maxsize=None)
    def run(workload: str, trace: int, seed: int = 1):
        done = subprocess.run(
            [sys.executable, str(E2E / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--scale", "0.05", "--out", str(out)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines(), out

    return run


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_once_with_its_unit(bench, workload, trace):
    lines, _ = bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    printed = [line.split() for line in lines[:-1]]
    assert [p[0] for p in printed] == [m["name"] for m in listed]
    for metric, (name, value, unit) in zip(listed, printed):
        assert metric["better"] in ("lower", "higher")
        assert unit == metric["unit"] == result["metrics"][name]["unit"]
        assert float(value) == result["metrics"][name]["value"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_same_seed_same_counts_other_seed_other_inputs(bench):
    def counts(lines):
        metrics = json.loads(lines[-1])["metrics"]
        return [metrics[name]["value"] for name in COUNTS]

    first, _ = bench("graph_hot_preds", 0, seed=1)
    again, _ = bench.__wrapped__("graph_hot_preds", 0, seed=1)  # uncached
    other, _ = bench("graph_hot_preds", 0, seed=2)
    assert counts(first) == counts(again)
    assert counts(first) != counts(other)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_layers_add_up_to_wall(bench, workload):
    from run import LAYER_SECONDS

    lines, out = bench(workload, 1)
    metrics = {name: entry["value"]
               for name, entry in json.loads(lines[-1])["metrics"].items()}
    spans = [json.loads(line) for line in
             (out / f"trace-{workload}-seed1.jsonl").read_text().splitlines()]
    assert spans
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    wall = metrics["bench.traced_pass_s"]
    layers = sum(metrics[name] for name in LAYER_SECONDS)
    assert layers > 0
    assert layers + metrics["bench.unattributed_fraction"] * wall == \
        pytest.approx(wall, rel=0.02)


def test_layer_seconds_are_self_times():
    from tracer import Tracer, self_times

    tracer = Tracer()
    with tracer.span("outer", op_id=7):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    own = self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert [s[4] for s in tracer.spans] == [7, 7, 7]
    assert Tracer(enabled=False).span("x").__enter__() is None


def test_patch_records_and_restores():
    from tracer import Tracer

    class Layer:
        def work(self, x):
            return x + 1

        @classmethod
        def build(cls):
            return cls()

    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.patch(Layer, "work", "layer.work")
    tracer.patch(Layer, "build", "layer.build")
    assert Layer.build().work(1) == 2
    tracer.restore()
    assert Layer.__dict__["work"] is original
    assert [s[0] for s in tracer.spans] == ["layer.build", "layer.work"]
    assert Layer.build().work(1) == 2 and len(tracer.spans) == 2


def write_runs(directory: Path, values: list[float], name: str = "qps") -> Path:
    directory.mkdir()
    for seed, value in enumerate(values):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics[name]["value"] = value
        record = {"workload": WORKLOADS[0], "seed": seed, "failed": 0,
                  "machine_speed": [1.0, 1.0], "metrics": metrics}
        (directory / f"{WORKLOADS[0]}.seed{seed}.trace0.json").write_text(
            json.dumps(record))
    return directory


def test_compare_verdicts(tmp_path, capsys):
    import compare

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "qps")
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = write_runs(tmp_path / "a", steady)
    same = write_runs(tmp_path / "b", [v * (1 - bound / 2) for v in steady])
    slower = write_runs(tmp_path / "c", [v * (1 - 1.5 * bound) for v in steady])
    noisy = write_runs(tmp_path / "d", [
        100.0 * (1 + k * bound) for k in (-2, -1, 0, 1, 2)])

    def qps_verdict(candidate):
        code = compare.main([str(base), str(candidate)])
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith(WORKLOADS[0])]
        return code, rows[1].split()[-1]  # metrics print in BENCHMARK.json order

    assert qps_verdict(same) == (0, "within-bound")
    assert qps_verdict(slower) == (1, "regression")
    assert qps_verdict(noisy) == (1, "unresolved")


def test_runner_modules_are_not_collected_by_pytest():
    for path in E2E.glob("*.py"):
        assert not fnmatch.fnmatch(path.name, "test_*.py")
        assert not fnmatch.fnmatch(path.name, "bench_*.py")


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()

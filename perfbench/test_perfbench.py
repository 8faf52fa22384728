"""Tests of the benchmark itself: span accounting, wrapper restore, metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time

import pytest

import checkout

repro = checkout.import_repro()

import run  # noqa: E402
import sweep_workloads  # noqa: E402
import trace_layers  # noqa: E402

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_spans_count_self_time_once():
    tracer = trace_layers.Tracer()
    inner = trace_layers.span(tracer, "inner", lambda: _busy(0.01))

    def outer_body():
        _busy(0.01)
        inner()
        inner()

    outer = trace_layers.span(tracer, "outer", outer_body)
    recursive = trace_layers.span(tracer, "outer", outer)
    recursive()

    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.wall_s["inner"] == pytest.approx(tracer.self_s["inner"])
    assert tracer.self_s["inner"] >= 0.02
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.wall_s["outer"] - tracer.wall_s["inner"]
    )
    assert tracer.wall_s["outer"] == pytest.approx(tracer.root_s)
    assert sum(tracer.self_s.values()) <= tracer.root_s + 1e-9
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s)


def _tiny_spec(seed: int):
    spec = sweep_workloads.size_sweep_spec(seed)
    return dataclasses.replace(
        spec,
        experiment=dataclasses.replace(spec.experiment, horizon=40),
        values=(20, 30),
        runs=2,
    )


@pytest.mark.parametrize("backend_name", ["serial", "pool", "queue"])
def test_traced_sweep_restores_every_wrapped_attribute(tmp_path, backend_name):
    backend = {
        "serial": lambda: repro.SerialBackend(),
        "pool": lambda: repro.ProcessPoolBackend(workers=2),
        "queue": lambda: repro.QueueBackend(tmp_path / "queue.db"),
    }[backend_name]()
    spec = _tiny_spec(3)
    plain = run.digest(repro.run_sweep(spec, backend=backend))
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = trace_layers.Tracer(spool)

    with trace_layers.traced(tracer) as patches:
        replaced = patches.originals
        result = repro.run_sweep(
            spec, backend=backend, cache=repro.ResultCache(tmp_path / "cache")
        )
    tracer.merge_spool()

    assert len(replaced) > 20
    for owner, name, original in replaced:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is original, (owner, name)
    assert run.digest(result) == plain
    tasks = len(spec.values) * spec.runs
    # replicate spans from pool workers reach the parent through the spool
    assert tracer.calls["api.replicate"] == tasks
    assert tracer.counts["topology.apsp_calls"] == tasks
    assert tracer.counts["core.simulate_calls"] == tasks * len(spec.experiment.policies)
    assert tracer.calls["api.sweep"] == 1
    assert (tracer.calls["queue.broker"] > 0) == (backend_name == "queue")
    assert sum(tracer.self_s.values()) <= tracer.root_s + 1e-9


def _tiny_run(tmp_path, name: str, trace: bool) -> "tuple[run.Run, dict]":
    real = sweep_workloads.WORKLOADS[name]
    workload = dataclasses.replace(real, spec=_tiny_spec)
    bench = run.Run(repro, workload, 7, tmp_path)
    metrics, _raw = (run.trace if trace else run.measure)(bench, 0)
    return bench, metrics


@pytest.mark.parametrize(
    "group,trace,workload",
    [
        ("end_to_end", False, "size-sweep"),
        ("end_to_end", False, "lambda-sweep"),
        ("per_layer", True, "size-sweep"),
    ],
)
def test_every_metric_is_named_and_listed(tmp_path, group, trace, workload):
    listed = {metric["name"] for metric in BENCHMARK[group]}
    bench, metrics = _tiny_run(tmp_path, workload, trace)

    assert bench.failed == 0 and bench.attempted > 0
    for name in metrics:
        assert NAME.fullmatch(name), name
    if (os.cpu_count() or 1) < bench.workload.workers:
        listed.discard("api.execution.scaling_efficiency")
    assert set(metrics) == listed
    assert all(value > 0 for value in metrics.values()) or trace

"""The point-unit sweep engine: crash safety and replicate-accurate errors.

Every sweep sample is produced by one engine working on point units
``(point i, start, size)``: a point's initial block (``start == 0``) and its
adaptive top-ups (``start >= runs``). Each unit is committed to the cache
the moment its last sample lands, so an interrupted sweep keeps every
finished point; and a replicate reporting the wrong series is named by its
position within its own point, whatever the batch it ran in.
"""

import pytest

from repro.api.cache import ResultCache
from repro.api.execution import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.api.experiment import collect_point_samples, run_sweep
from repro.api.specs import (
    ComparisonSpec,
    ExperimentSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.queue.broker import Broker
from repro.queue.worker import (
    enqueue_sweep,
    execute_lease,
    try_finalize,
    worker_loop,
)

#: A target no point can reach: every point tops up to ``max_runs``, in
#: batches of 3 — a size that differs from the initial ``runs`` of 2.
UNREACHABLE = ReplicationSpec(target_halfwidth=1e-9, max_runs=5, batch=3)

#: A reachable target: points stop after different numbers of top-ups.
ADAPTIVE = ReplicationSpec(target_halfwidth=0.15, relative=True, max_runs=8)


def small_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=30,
        ),
        parameter="scenario.sojourn",
        values=(2, 5, 9),
        runs=2,
        seed=1,
        figure="t",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class Interrupted(Exception):
    """Stands in for a kill arriving mid-batch."""


class CrashingBackend(ExecutionBackend):
    """Serial execution that dies after delivering ``deliver`` results."""

    def __init__(self, deliver: int) -> None:
        self.deliver = deliver

    def run_replicates(self, replicate, tasks, on_result=None):
        results = []
        for index, task in enumerate(tasks):
            if index == self.deliver:
                raise Interrupted(f"killed after {index} replicates")
            (sample,) = SerialBackend().run_replicates(replicate, [task])
            if on_result is not None:
                on_result(index, task, sample)
            results.append(sample)
        return results


class CountingBackend(ExecutionBackend):
    """Serial execution recording the size of every scheduled batch."""

    def __init__(self):
        self.batches = []

    def run_replicates(self, replicate, tasks, on_result=None):
        self.batches.append(len(tasks))
        return SerialBackend().run_replicates(replicate, tasks, on_result)


class RaggedBackend(ExecutionBackend):
    """Serial execution where one top-up replicate reports an extra series."""

    def __init__(self, point: int, run: int) -> None:
        self.spawn_key = (point, run)

    def run_replicates(self, replicate, tasks, on_result=None):
        results = []
        for index, task in enumerate(tasks):
            (sample,) = SerialBackend().run_replicates(replicate, [task])
            if task.seed.spawn_key == self.spawn_key:
                sample = {**sample, "EXTRA": 0.0}
            if on_result is not None:
                on_result(index, task, sample)
            results.append(sample)
        return results


class TestCrashSafety:
    @pytest.mark.parametrize(
        "replication", [None, ADAPTIVE], ids=["fixed", "adaptive"]
    )
    @pytest.mark.parametrize("k", [1, 2])
    def test_interrupt_keeps_exactly_the_delivered_points(
        self, tmp_path, replication, k
    ):
        spec = small_sweep(replication=replication)
        runs = spec.effective_runs
        n_points = len(spec.values)
        uninterrupted = run_sweep(spec)

        with pytest.raises(Interrupted):
            run_sweep(
                spec,
                backend=CrashingBackend(k * runs),
                cache=ResultCache(tmp_path),
            )
        cache = ResultCache(tmp_path)
        assert cache.stats()["kinds"] == {"point": k}
        for i, x in enumerate(spec.values):
            experiment = spec.experiment_at(x)
            block = cache.load_point(experiment, spec.seed, i * runs, runs)
            assert (block is not None) == (i < k)

        counting = CountingBackend()
        resumed = run_sweep(
            spec, backend=counting, cache=ResultCache(tmp_path)
        )
        assert resumed == uninterrupted
        # the first round runs only the initial blocks the crash lost
        assert counting.batches[0] == (n_points - k) * runs
        counts = resumed.counts or (runs,) * n_points
        assert sum(counting.batches) == sum(counts) - k * runs


class TestRaggedSeriesErrors:
    def test_fresh_topup_names_its_point_and_run(self):
        spec = small_sweep(replication=UNREACHABLE)
        # point 1 (x=5) tops up runs 2, 3, 4 in the same batch as points 0
        # and 2; run 3 is the fifth task of that batch
        with pytest.raises(RuntimeError, match=r"x=5 \(run 3\)"):
            run_sweep(spec, backend=RaggedBackend(point=1, run=3))

    def test_cached_topup_names_its_point_and_run(self, tmp_path):
        spec = small_sweep(replication=UNREACHABLE)
        run_sweep(spec, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        experiment = spec.experiment_at(5)
        block = cache.load_point_extension(experiment, spec.seed, 1, 2, 3)
        block[1] = {**block[1], "EXTRA": 0.0}
        cache.store_point_extension(experiment, spec.seed, 1, 2, 3, block)
        cache.path_for(spec).unlink()
        with pytest.raises(RuntimeError, match=r"x=5 \(run 3\)"):
            run_sweep(spec, cache=ResultCache(tmp_path))


class TestEngineCallers:
    def test_collect_point_samples_is_the_first_round(self, tmp_path):
        spec = small_sweep(replication=UNREACHABLE)
        counting = CountingBackend()
        cold = collect_point_samples(spec, backend=counting)
        # one backend call holding every initial block, no top-ups
        assert counting.batches == [len(spec.values) * spec.runs]
        assert [len(block) for block in cold] == [spec.runs] * 3

        run_sweep(spec, cache=ResultCache(tmp_path))
        warm = collect_point_samples(
            spec, backend=counting, cache=ResultCache(tmp_path)
        )
        assert counting.batches == [len(spec.values) * spec.runs]
        assert warm == cold

    def test_topup_lease_runs_at_most_one_fresh_unit(self, tmp_path):
        # batches of one replicate: each point needs three top-up units
        spec = small_sweep(
            values=(2, 5),
            replication=ReplicationSpec(
                target_halfwidth=1e-9, max_runs=5, batch=1
            ),
        )
        broker = Broker(tmp_path / "queue.db")
        cache = ResultCache(tmp_path / "cache")
        job = enqueue_sweep(broker, cache, spec)["job"]
        leases = 0
        while (lease := broker.lease_task("w")) is not None:
            stores = cache.point_stores + cache.extension_stores
            execute_lease(broker, lease, cache)
            assert cache.point_stores + cache.extension_stores == stores + 1
            broker.complete(lease)
            leases += 1
        # two point leases, then one lease per top-up unit
        assert leases == 2 + 2 * 3
        assert try_finalize(broker, job, cache) == run_sweep(spec)


def paired_adaptive_sweep() -> SweepSpec:
    """Paired ONTH-vs-OFFSTAT stopping: points need different top-ups."""
    return small_sweep(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 40}),
            scenario=ScenarioSpec("commuter", {"period": 6}),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("offstat", label="OFFSTAT"),
            ),
            horizon=60,
        ),
        seed=3,
        replication=ReplicationSpec(
            target_halfwidth=100.0, max_runs=6, batch=2
        ),
        comparison=ComparisonSpec(baseline="OFFSTAT"),
    )


@pytest.mark.parametrize(
    "spec",
    [
        small_sweep(),
        small_sweep(replication=ADAPTIVE),
        paired_adaptive_sweep(),
    ],
    ids=["fixed", "adaptive", "paired-adaptive"],
)
def test_every_execution_mode_is_bit_identical(tmp_path, spec):
    serial = run_sweep(spec).to_dict()
    assert run_sweep(spec, backend=ProcessPoolBackend(2)).to_dict() == serial

    shards = ResultCache(tmp_path / "shards")
    for index in range(2):
        run_sweep(spec, cache=shards, shard=(index, 2))
    assert run_sweep(spec, cache=ResultCache(tmp_path / "shards")).to_dict() \
        == serial

    broker = Broker(tmp_path / "queue.db")
    queued = ResultCache(tmp_path / "queue")
    enqueue_sweep(broker, queued, spec)
    worker_loop(broker, queued, poll=0.02, idle_exit=0.2)
    assert queued.load(spec).to_dict() == serial

"""Tests for queue-backed sweep execution (repro.queue.worker, QueueBackend).

The property under test throughout: a sweep drained through the queue —
whatever the worker count, lease churn, or adaptive topping-up — assembles
a figure bit-identical to the plain serial ``run_sweep``.
"""

import pickle
import threading

import pytest

from repro.api.cache import ResultCache
from repro.api.execution import QueueBackend, SerialBackend
from repro.api.experiment import run_sweep
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
from repro.queue.worker import enqueue_sweep, execute_lease, try_finalize, worker_loop


def small_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=30,
        ),
        parameter="scenario.sojourn",
        values=(2, 5),
        runs=2,
        seed=1,
        figure="t",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def adaptive_sweep(**overrides) -> SweepSpec:
    """A confidence-driven paired sweep: exercises topup tasks end to end."""
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("onbr", label="ONBR"),
            ),
            horizon=30,
        ),
        parameter="scenario.sojourn",
        values=(2, 5),
        runs=2,
        seed=1,
        figure="t",
        replication=ReplicationSpec(
            ci_level=0.9, target_halfwidth=0.02, relative=True, max_runs=6
        ),
        comparison=ComparisonSpec(baseline="ONTH"),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def _scaled_draw(x, rng):
    """A picklable replicate: deterministic in (x, seed) like the real ones."""
    return {"value": float(x) * 10.0, "draw": float(rng.random())}


def _make_tasks(count):
    import numpy as np

    from repro.api.execution import ReplicateTask

    return [
        ReplicateTask(x=float(i), seed=np.random.SeedSequence(i))
        for i in range(count)
    ]


def drain(broker, cache, **kwargs):
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("idle_exit", 0.2)
    return worker_loop(broker, cache, **kwargs)


@pytest.fixture()
def broker(tmp_path):
    return Broker(tmp_path / "queue.db")


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestEnqueue:
    def test_cold_enqueue_creates_one_task_per_point(self, broker, cache):
        state = enqueue_sweep(broker, cache, small_sweep())
        assert state["status"] == "pending"
        assert state["tasks"] == {"pending": 2}

    def test_job_id_is_the_cache_key(self, broker, cache):
        spec = small_sweep()
        state = enqueue_sweep(broker, cache, spec)
        assert state["job"] == cache.key_for(spec)

    def test_warm_enqueue_touches_nothing(self, broker, cache):
        spec = small_sweep()
        run_sweep(spec, cache=cache)
        state = enqueue_sweep(broker, cache, spec)
        assert state["status"] == "done"
        assert state["cached"] is True
        assert state["tasks"] == {}
        assert broker.stats()["jobs"] == {}  # broker never touched

    def test_requeue_recreates_a_failed_job(self, tmp_path, cache):
        broker = Broker(tmp_path / "queue.db", max_attempts=1)
        spec = small_sweep()
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        # burn every task's attempt budget, then finalize: job is failed
        while (lease := broker.lease_task("w")) is not None:
            broker.fail(lease, "induced")
        assert try_finalize(broker, job_id, cache) is None
        assert broker.job_state(job_id)["status"] == "failed"
        # plain enqueue leaves the terminal job alone; requeue restarts it
        assert enqueue_sweep(broker, cache, spec)["status"] == "failed"
        fresh = enqueue_sweep(broker, cache, spec, requeue=True)
        assert fresh["status"] == "pending"
        assert fresh["tasks"] == {"pending": 2}


class TestDrainBitIdentity:
    def test_single_worker_matches_serial(self, broker, cache):
        spec = small_sweep()
        serial = run_sweep(spec)
        enqueue_sweep(broker, cache, spec)
        executed = drain(broker, cache)
        assert executed == 2
        assert broker.job_state(cache.key_for(spec))["status"] == "done"
        assert cache.load(spec).to_dict() == serial.to_dict()

    def test_two_threaded_workers_match_serial(self, tmp_path):
        spec = small_sweep(values=(2, 3, 4, 5))
        serial = run_sweep(spec)
        path = tmp_path / "queue.db"
        cache_dir = tmp_path / "cache"
        enqueue_sweep(Broker(path), ResultCache(cache_dir), spec)

        def work():
            worker_loop(
                Broker(path), ResultCache(cache_dir), poll=0.02, idle_exit=0.3
            )

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        cache = ResultCache(cache_dir)
        assert Broker(path).job_state(cache.key_for(spec))["status"] == "done"
        assert cache.load(spec).to_dict() == serial.to_dict()

    def test_adaptive_comparison_sweep_matches_serial(self, broker, cache):
        spec = adaptive_sweep()
        serial = run_sweep(spec)
        enqueue_sweep(broker, cache, spec)
        executed = drain(broker, cache)
        assert executed >= 4  # 2 point tasks + at least one topup each
        assert cache.load(spec).to_dict() == serial.to_dict()

    def test_drained_job_answers_warm_on_reenqueue(self, broker, cache):
        spec = small_sweep()
        enqueue_sweep(broker, cache, spec)
        drain(broker, cache)
        again = enqueue_sweep(broker, cache, spec)
        assert again["cached"] is True
        assert again["tasks"] == {}


class TestLeaseExecution:
    def test_point_lease_stores_cache_entry(self, broker, cache):
        spec = small_sweep()
        enqueue_sweep(broker, cache, spec)
        lease = broker.lease_task("w")
        execute_lease(broker, lease, cache)
        index = lease.payload["point"]
        experiment = spec.experiment_at(spec.values[index])
        assert cache.load_point(
            experiment, spec.seed, index * spec.runs, spec.runs
        ) is not None

    def test_finalize_assembles_after_last_task(self, broker, cache):
        spec = small_sweep()
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        while (lease := broker.lease_task("w")) is not None:
            execute_lease(broker, lease, cache)
            broker.complete(lease)
        result = try_finalize(broker, job_id, cache)
        assert result is not None
        assert broker.job_state(job_id)["status"] == "done"
        assert cache.load(spec).to_dict() == result.to_dict()

    def test_failed_task_fails_the_job(self, broker, cache):
        spec = small_sweep()
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        own = Broker(broker.path, max_attempts=1)
        while (lease := own.lease_task("w")) is not None:
            own.fail(lease, "simulated crash")
        assert try_finalize(own, job_id, cache) is None
        state = own.job_state(job_id)
        assert state["status"] == "failed"
        assert "simulated crash" in state["error"]


class TestQueueBackend:
    def test_backend_matches_serial(self, tmp_path):
        spec = small_sweep()
        serial = run_sweep(spec)
        backend = QueueBackend(tmp_path / "queue.db", poll=0.01)
        queued = run_sweep(spec, backend=backend)
        assert queued.to_dict() == serial.to_dict()

    def test_transient_job_is_deleted_afterwards(self, tmp_path):
        backend = QueueBackend(tmp_path / "queue.db", poll=0.01)
        run_sweep(small_sweep(), backend=backend)
        assert backend.broker.stats()["jobs"] == {}

    def test_chunking_preserves_order(self, tmp_path):
        spec = small_sweep(values=(2, 3, 4, 5), runs=3)
        serial = run_sweep(spec)
        backend = QueueBackend(tmp_path / "queue.db", chunk=2, poll=0.01)
        assert run_sweep(spec, backend=backend).to_dict() == serial.to_dict()

    def test_external_worker_drains_backend_job(self, tmp_path):
        spec = small_sweep()
        serial = run_sweep(spec)
        path = tmp_path / "queue.db"
        backend = QueueBackend(path, poll=0.01, local=False, timeout=60)
        stop = threading.Event()

        def work():
            worker_loop(
                Broker(path),
                ResultCache(tmp_path / "unused-cache"),
                poll=0.02,
                stop=stop.is_set,
            )

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        try:
            queued = run_sweep(spec, backend=backend)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert queued.to_dict() == serial.to_dict()

    def test_unpicklable_work_raises_without_enqueueing(self, tmp_path):
        backend = QueueBackend(tmp_path / "queue.db")
        tasks = _make_tasks(3)
        replicate = lambda x, rng: {"value": float(x)}  # noqa: E731 - unpicklable
        with pytest.raises((pickle.PicklingError, AttributeError)):
            backend.run_replicates(replicate, tasks)
        assert backend.broker.stats()["jobs"] == {}

    @pytest.mark.parametrize(
        "options",
        [
            {"poll": -1},
            {"poll": float("nan")},
            {"poll": float("inf")},
            {"ttl": 0},
            {"ttl": -5},
        ],
        ids=["poll-negative", "poll-nan", "poll-inf", "ttl-zero", "ttl-negative"],
    )
    def test_rejects_bad_poll_and_ttl(self, tmp_path, options):
        name = next(iter(options))
        with pytest.raises(ValueError, match=name):
            QueueBackend(tmp_path / "queue.db", local=False, **options)
        # rejected before the queue database is even opened
        assert not (tmp_path / "queue.db").exists()

    def test_on_result_sees_tasks_in_order(self, tmp_path):
        backend = QueueBackend(tmp_path / "queue.db", chunk=2, poll=0.01)
        tasks = _make_tasks(5)
        seen = []
        backend.run_replicates(
            _scaled_draw,
            tasks,
            on_result=lambda i, task, sample: seen.append((i, task.x, sample)),
        )
        expected = SerialBackend().run_replicates(_scaled_draw, tasks)
        assert seen == [(i, float(i), expected[i]) for i in range(5)]

    def test_empty_task_list(self, tmp_path):
        backend = QueueBackend(tmp_path / "queue.db")
        assert backend.run_replicates(_scaled_draw, []) == []

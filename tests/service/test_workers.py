"""Fault-path and equivalence tests for the scoring worker pool.

The acceptance bar from the worker-pool issue: pool results must be
byte-identical to the in-process scorer (for every published profile),
a SIGKILLed worker must respawn and retry rather than hang or change
the response, and no ``/dev/shm`` segment may outlive the pool — after
clean shutdown *or* exceptional teardown.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.apps.monitor import WorkloadMonitor
from repro.core.compress import LogRCompressor
from repro.obs.metrics import MetricsRegistry
from repro.service.workers import PoolError, ScoringWorkerPool
from repro.workloads import generate_tpch


def _logr_shm_entries() -> list[str]:
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("logr-shm")]
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return []


@pytest.fixture(scope="module")
def scoring_setup():
    """Two in-process reference monitors (K=2 and K=3) plus statements."""
    workload = generate_tpch(total=400, variants_per_template=4, seed=0)
    log = workload.to_query_log()
    statements = [sql for sql, _count in workload.entries][:100]
    statements.append("THIS IS NOT SQL ;;;")  # unparseable path ships too
    monitors = {}
    for k in (2, 3):
        compressed = LogRCompressor(n_clusters=k, seed=0, n_init=2).compress(log)
        monitors[k] = WorkloadMonitor(compressed.mixture, training_log=log)
    return monitors, statements


def _reference(monitor, statements):
    return [
        (s.log2_likelihood, s.anomalous, s.reason)
        for s in monitor.score_batch(statements)
    ]


class TestEquivalence:
    def test_pool_size_1_matches_in_process_scorer(self, scoring_setup):
        monitors, statements = scoring_setup
        with ScoringWorkerPool(1, registry=MetricsRegistry()) as pool:
            for name, monitor in monitors.items():
                pool.publish(f"k{name}", 1, monitor)
            for name, monitor in monitors.items():
                version, threshold, scores = pool.score(f"k{name}", statements)
                assert version == 1
                assert threshold == monitor.threshold
                assert scores == _reference(monitor, statements)

    def test_sharded_scores_concatenate_identically(self, scoring_setup):
        """Statement-level sharding across several workers must be
        invisible: per-row arithmetic is batch-composition-independent."""
        monitors, statements = scoring_setup
        monitor = monitors[2]
        with ScoringWorkerPool(3, registry=MetricsRegistry()) as pool:
            pool.publish("a", 1, monitor)
            _, _, scores = pool.score("a", statements)
        assert scores == _reference(monitor, statements)

    def test_score_without_snapshot_raises_key_error(self):
        with ScoringWorkerPool(1, registry=MetricsRegistry()) as pool:
            with pytest.raises(KeyError, match="no snapshot"):
                pool.score("never-published", ["SELECT 1"])

    def test_executor_facade_preserves_order(self):
        with ScoringWorkerPool(2, registry=MetricsRegistry()) as pool:
            executor = pool.executor()
            assert executor.map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]
            assert executor.kind == "pool"
            assert executor.jobs == 2


class TestFaultPaths:
    def test_sigkilled_worker_respawns_and_response_is_identical(
        self, scoring_setup
    ):
        monitors, statements = scoring_setup
        monitor = monitors[2]
        registry = MetricsRegistry()
        with ScoringWorkerPool(1, registry=registry) as pool:
            pool.publish("a", 1, monitor)
            before = pool.score("a", statements)
            slot = pool._slots[0]
            process = slot.process
            assert process is not None and process.pid is not None
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            # The next request rides the respawned worker (either the
            # send lands after respawn, or the EOF cycle resends it).
            after = pool.score("a", statements)
            assert after == before
            respawns = registry.counter(
                "logr_pool_respawns_total",
                "Worker processes respawned after unexpected death.",
                labelnames=("worker",),
            )
            assert respawns.value(worker="0") >= 1.0

    def test_publish_swap_unlinks_old_segment_and_scores_new(
        self, scoring_setup
    ):
        monitors, statements = scoring_setup
        with ScoringWorkerPool(1, registry=MetricsRegistry()) as pool:
            pool.publish("p", 1, monitors[2])
            first = pool._snapshots["p"].export.name
            pool.publish("p", 2, monitors[3])
            assert first not in _logr_shm_entries()
            version, _, scores = pool.score("p", statements)
            assert version == 2
            assert scores == _reference(monitors[3], statements)

    def test_submit_after_close_raises(self):
        pool = ScoringWorkerPool(1, registry=MetricsRegistry())
        pool.close()
        with pytest.raises(PoolError, match="shut down"):
            pool._submit("call", (abs, -1))


class TestShmLifecycle:
    def test_clean_shutdown_unlinks_every_segment(self, scoring_setup):
        monitors, statements = scoring_setup
        baseline = set(_logr_shm_entries())
        pool = ScoringWorkerPool(2, registry=MetricsRegistry())
        pool.publish("a", 1, monitors[2])
        pool.publish("b", 1, monitors[3])
        pool.score("a", statements)
        assert len(set(_logr_shm_entries()) - baseline) == 2
        pool.close()
        assert set(_logr_shm_entries()) - baseline == set()
        pool.close()  # idempotent

    def test_exceptional_teardown_unlinks_segments(self, scoring_setup):
        """A pool dropped without close() must still leave /dev/shm
        clean: the weakref.finalize emergency hook kills workers and
        unlinks every exported segment."""
        monitors, _ = scoring_setup
        baseline = set(_logr_shm_entries())
        pool = ScoringWorkerPool(1, registry=MetricsRegistry())
        pool.publish("a", 1, monitors[2])
        assert len(set(_logr_shm_entries()) - baseline) == 1
        processes = list(pool._processes)
        pool._finalizer()  # what gc / interpreter exit would run
        assert set(_logr_shm_entries()) - baseline == set()
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()

    def test_retire_unlinks_that_profiles_segment(self, scoring_setup):
        monitors, _ = scoring_setup
        baseline = set(_logr_shm_entries())
        with ScoringWorkerPool(1, registry=MetricsRegistry()) as pool:
            pool.publish("a", 1, monitors[2])
            pool.retire("a")
            assert set(_logr_shm_entries()) - baseline == set()
            pool.retire("a")  # unknown/already-retired: no-op


class TestMetrics:
    def test_pool_families_render_and_count(self, scoring_setup):
        monitors, statements = scoring_setup
        registry = MetricsRegistry()
        with ScoringWorkerPool(2, registry=registry) as pool:
            pool.publish("a", 1, monitors[2])
            pool.score("a", statements)
            pool.executor().map(abs, [-1])
            names = {snap.name for snap in registry.snapshot()}
            assert {
                "logr_pool_workers",
                "logr_pool_segments",
                "logr_pool_requests_total",
                "logr_pool_respawns_total",
                "logr_pool_dispatch_seconds",
            } <= names
            requests = registry.counter(
                "logr_pool_requests_total",
                "Framed requests dispatched to pool workers.",
                labelnames=("worker", "kind"),
            )
            total = sum(requests.items().values())
            assert total >= 2  # at least one score shard + one call

"""Tests for the serial and process-pool executors."""

import threading

import numpy as np
import pytest

from repro.core.executor import (
    ProcessExecutor,
    SerialExecutor,
    executor_for,
    spawn_generators,
)
from repro.core.mixture import fit_component


def _all_executors(jobs=2):
    return [SerialExecutor(), ProcessExecutor(jobs)]


class TestMapContract:
    def test_serial_map_is_plain_loop(self):
        assert SerialExecutor().map(abs, [-3, 1, -2]) == [3, 1, 2]

    def test_order_preserved_across_backends(self, small_pocketdata_log):
        # fit_component is module-level and picklable, so the same call
        # works for every backend; results must land in task order.
        parts = small_pocketdata_log.partition(
            np.arange(small_pocketdata_log.n_distinct) % 5
        )
        reference = [fit_component(part) for part in parts]
        for executor in _all_executors():
            with executor:
                fitted = executor.map(fit_component, parts)
            assert [c.size for c in fitted] == [c.size for c in reference]
            for ours, theirs in zip(fitted, reference):
                assert np.array_equal(
                    ours.encoding.marginals, theirs.encoding.marginals
                )
                assert ours.true_entropy == theirs.true_entropy

    def test_empty_task_list(self):
        for executor in _all_executors():
            with executor:
                assert executor.map(abs, []) == []


class TestResolution:
    def test_jobs_one_is_always_serial(self):
        assert isinstance(executor_for(1), SerialExecutor)

    def test_auto_picks_process_for_parallel(self):
        # executor_for is the one automatic pick: a pool above one job.
        for jobs in (2, 3):
            executor = executor_for(jobs)
            assert isinstance(executor, ProcessExecutor)
            assert executor.jobs == jobs

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            executor_for(0)


class TestSpawnGenerators:
    def test_int_seed_gives_identical_fresh_children(self):
        # _fresh_child semantics: every task is bit-identical to running
        # its stage alone with seed=seed.
        children = spawn_generators(7, 3)
        draws = [rng.random(4).tolist() for rng in children]
        assert draws[0] == draws[1] == draws[2]
        assert draws[0] == np.random.default_rng(7).random(4).tolist()

    def test_generator_seed_spawns_in_task_order(self):
        a = spawn_generators(np.random.default_rng(5), 3)
        b = np.random.default_rng(5).spawn(3)
        for ours, theirs in zip(a, b):
            assert ours.random(4).tolist() == theirs.random(4).tolist()

    def test_sequential_spawning_matches_batch(self):
        # compress_to_error spawns lazily one rung at a time; the waves
        # of the parallel path spawn in batches.  Both must agree.
        root_a = np.random.default_rng(9)
        lazy = [spawn_generators(root_a, 1)[0] for _ in range(4)]
        root_b = np.random.default_rng(9)
        batch = spawn_generators(root_b, 4)
        for ours, theirs in zip(lazy, batch):
            assert ours.random(2).tolist() == theirs.random(2).tolist()

    def test_counts(self):
        assert spawn_generators(0, 0) == []
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestProcessExecutor:
    def test_spawn_start_method_round_trips_payloads(
        self, small_pocketdata_log, pool_start_methods
    ):
        # The spawn-safety contract: a freshly imported interpreter must
        # be able to unpickle the task payload and produce the same
        # component as the in-process loop.  A pool made while another
        # thread is alive (a server's handler threads) starts with spawn.
        parts = small_pocketdata_log.partition(
            np.arange(small_pocketdata_log.n_distinct) % 2
        )
        release = threading.Event()
        bystander = threading.Thread(target=release.wait)
        bystander.start()
        try:
            with ProcessExecutor(2) as executor:
                fitted = executor.map(fit_component, parts)
        finally:
            release.set()
            bystander.join(timeout=10)
        assert not bystander.is_alive()
        assert pool_start_methods == ["spawn"]
        reference = [fit_component(part) for part in parts]
        for ours, theirs in zip(fitted, reference):
            assert ours.size == theirs.size
            assert np.array_equal(
                ours.encoding.marginals, theirs.encoding.marginals
            )

    def test_pool_reused_across_maps(self):
        with ProcessExecutor(2) as executor:
            first = executor.map(abs, [-1, -2])
            pool = executor._pool
            second = executor.map(abs, [-3])
            assert executor._pool is pool
        assert first == [1, 2] and second == [3]
        assert executor._pool is None  # closed on exit

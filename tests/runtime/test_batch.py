"""Tests for the batch runner: chunking, error capture, progress, caching."""

from __future__ import annotations

import pytest

from repro.core.requirements import ApplicationRequirements
from repro.exceptions import ConfigurationError
from repro.runtime import (
    BatchRunner,
    ProcessExecutor,
    SolveCache,
    SolveTask,
    build_runner,
)

FAST = {"grid_points_per_dimension": 15, "random_starts": 1}


def _tasks(model, delays):
    base = ApplicationRequirements(
        energy_budget=0.06, max_delay=6.0, sampling_rate=model.scenario.sampling_rate
    )
    return [
        SolveTask(
            model=model,
            requirements=base.with_max_delay(delay),
            solver_options=dict(FAST),
            label=model.name,
            tag=delay,
        )
        for delay in delays
    ]


class TestRun:
    def test_outcomes_in_submission_order(self, xmac):
        outcomes = BatchRunner(cache=None).run(_tasks(xmac, [3.0, 2.0, 4.0]))
        assert [outcome.tag for outcome in outcomes] == [3.0, 2.0, 4.0]
        assert [outcome.index for outcome in outcomes] == [0, 1, 2]
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.solve_seconds > 0 for outcome in outcomes)

    def test_infeasible_value_does_not_poison_its_chunk(self, xmac):
        # Five serial tasks auto-size to chunks of two, so the infeasible
        # second value shares its chunk with the first; it must be captured
        # while its neighbours still solve.
        runner = BatchRunner(cache=None)
        assert [len(c) for c in runner._chunks([(i, None, None, {}) for i in range(5)])] == [2, 2, 1]
        outcomes = runner.run(_tasks(xmac, [3.0, 1e-4, 4.0, 5.0, 6.0]))
        assert [outcome.ok for outcome in outcomes] == [True, False, True, True, True]
        assert outcomes[1].infeasible
        assert outcomes[1].solution is None
        assert isinstance(outcomes[1].error, Exception)

    def test_empty_batch(self):
        assert BatchRunner().run([]) == []

    def test_run_one(self, xmac):
        outcome = BatchRunner(cache=None).run_one(_tasks(xmac, [3.0])[0])
        assert outcome.ok and outcome.label == "X-MAC"

    def test_chunks_are_auto_sized_per_worker(self):
        # ~4 chunks per worker, covering every payload once, in order.
        payloads = [(i, None, None, {}) for i in range(10)]
        serial = BatchRunner(cache=None)._chunks(payloads)
        pooled = BatchRunner(executor=ProcessExecutor(workers=2), cache=None)._chunks(payloads)
        assert [len(chunk) for chunk in serial] == [3, 3, 3, 1]
        assert [len(chunk) for chunk in pooled] == [2, 2, 2, 2, 2]
        assert [p[0] for chunk in pooled for p in chunk] == list(range(10))


class TestProgress:
    def test_progress_reaches_total(self, xmac):
        # Three tasks on one worker auto-size to one task per chunk, so
        # progress is reported after every solve.
        calls = []
        runner = BatchRunner(cache=None, progress=lambda d, t: calls.append((d, t)))
        runner.run(_tasks(xmac, [2.0, 3.0, 4.0]))
        assert len(calls) == 4
        assert calls[0] == (0, 3)
        assert calls[-1] == (3, 3)
        done = [d for d, _ in calls]
        assert done == sorted(done)

    def test_cache_hits_count_as_progress(self, xmac):
        cache = SolveCache()
        tasks = _tasks(xmac, [2.0, 3.0])
        BatchRunner(cache=cache).run(tasks)
        calls = []
        BatchRunner(cache=cache, progress=lambda d, t: calls.append((d, t))).run(tasks)
        assert calls[0] == (2, 2)


class TestCaching:
    def test_second_run_is_all_hits(self, xmac):
        cache = SolveCache()
        runner = BatchRunner(cache=cache)
        tasks = _tasks(xmac, [2.0, 3.0])
        first = runner.run(tasks)
        second = runner.run(tasks)
        assert not any(outcome.from_cache for outcome in first)
        assert all(outcome.from_cache for outcome in second)
        assert [a.solution.as_dict() for a in first] == [b.solution.as_dict() for b in second]
        stats = runner.cache_stats()
        assert (stats.hits, stats.misses) == (2, 2)

    def test_failed_solves_are_not_cached(self, xmac):
        cache = SolveCache()
        runner = BatchRunner(cache=cache)
        tasks = _tasks(xmac, [1e-4])
        assert not runner.run(tasks)[0].ok
        assert len(cache) == 0

    def test_cache_disabled(self, xmac):
        runner = BatchRunner(cache=None)
        tasks = _tasks(xmac, [3.0])
        runner.run(tasks)
        second = runner.run(tasks)[0]
        assert not second.from_cache
        stats = runner.cache_stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_in_batch_duplicates_solved_once(self, xmac):
        cache = SolveCache()
        runner = BatchRunner(cache=cache)
        tasks = _tasks(xmac, [3.0, 2.0, 3.0])
        outcomes = runner.run(tasks)
        assert [outcome.ok for outcome in outcomes] == [True, True, True]
        # The duplicate rides on the first occurrence's solve: one solve per
        # unique key, no cache lookup wasted on the duplicate.
        assert outcomes[2].solution is outcomes[0].solution
        assert outcomes[2].from_cache and not outcomes[0].from_cache
        assert runner.cache_stats().misses == 2

    def test_in_batch_duplicate_of_infeasible_task_shares_the_error(self, xmac):
        runner = BatchRunner(cache=SolveCache())
        outcomes = runner.run(_tasks(xmac, [1e-4, 1e-4]))
        assert all(outcome.infeasible for outcome in outcomes)
        assert outcomes[1].error is outcomes[0].error
        assert not outcomes[1].from_cache

    def test_parallel_runner_shares_cache_with_serial(self, xmac):
        cache = SolveCache()
        tasks = _tasks(xmac, [2.0, 3.0, 4.0])
        BatchRunner(cache=cache).run(tasks)
        parallel = BatchRunner(executor=ProcessExecutor(workers=2), cache=cache)
        outcomes = parallel.run(tasks)
        assert all(outcome.from_cache for outcome in outcomes)


class TestBuildRunner:
    def test_default_is_serial_and_cached(self):
        runner = build_runner()
        assert runner.executor.name == "serial"
        assert runner.cache is not None

    def test_workers_select_process_pool(self):
        runner = build_runner(workers=3, use_cache=False)
        assert runner.executor.name == "process"
        assert runner.executor.workers == 3
        assert runner.cache is None
        assert runner.describe() == "process[3]"

    def test_explicit_cache_wins(self):
        cache = SolveCache()
        assert build_runner(cache=cache).cache is cache

    def test_no_cache_beats_explicit_cache(self):
        assert build_runner(use_cache=False, cache=SolveCache()).cache is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            build_runner(workers=-1)

    def test_build_runner_defaults_to_global_cache(self):
        from repro.runtime import default_cache

        runner = build_runner()
        assert runner.cache is default_cache()
        assert runner.describe() == "serial[1]+cache"

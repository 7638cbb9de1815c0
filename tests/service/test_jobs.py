"""JobQueue: dedup by spec hash, state machine, journal replay."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentSpec
from repro.service import JobError, JobQueue

SOLVE = {
    "kind": "solve",
    "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
    "protocols": ["xmac"],
    "solver": {"grid_points": 20},
}


def spec_of(**overrides) -> ExperimentSpec:
    return ExperimentSpec.from_dict({**SOLVE, **overrides})


RESULT_TEXT = json.dumps({"schema": "repro.api.resultset", "rows": []}) + "\n"


class TestSubmit:
    def test_job_id_is_the_spec_hash(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, created = queue.submit(spec_of())
        assert created
        assert job.job_id == spec_of().spec_hash()
        assert job.state == "queued"

    def test_resubmit_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, created_first = queue.submit(spec_of())
        second, created_second = queue.submit(spec_of())
        assert created_first and not created_second
        assert first is second
        assert queue.counts()["queued"] == 1

    def test_runtime_policy_does_not_fork_jobs(self, tmp_path):
        # The hash excludes runtime, so workers/cache variants share a job.
        queue = JobQueue(tmp_path)
        _, created_first = queue.submit(spec_of(runtime={"workers": 1}))
        _, created_second = queue.submit(spec_of(runtime={"workers": 4}))
        assert created_first and not created_second

    def test_different_specs_are_different_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(spec_of())
        second, created = queue.submit(spec_of(protocols=["lmac"]))
        assert created
        assert first.job_id != second.job_id

    def test_resubmit_requeues_failed_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.fail(job.job_id, "boom", "RuntimeError")
        resubmitted, created = queue.submit(spec_of())
        assert not created
        assert resubmitted.state == "queued"
        assert resubmitted.error == ""
        assert resubmitted.attempts == 1  # history survives the requeue


class TestStateMachine:
    def test_claim_is_fifo(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(spec_of())
        second, _ = queue.submit(spec_of(protocols=["lmac"]))
        assert queue.claim(timeout=0).job_id == first.job_id
        assert queue.claim(timeout=0).job_id == second.job_id
        assert queue.claim(timeout=0) is None

    def test_finish_publishes_result(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        done = queue.finish(job.job_id, RESULT_TEXT, {"units": 1})
        assert done.state == "done"
        assert done.progress == {"units": 1}
        assert queue.result_text(job.job_id) == RESULT_TEXT

    def test_finish_requires_running(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        with pytest.raises(JobError, match="cannot finish"):
            queue.finish(job.job_id, RESULT_TEXT)

    def test_cancel_queued(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        assert queue.cancel(job.job_id).state == "cancelled"
        assert queue.claim(timeout=0) is None

    def test_cancel_running_is_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        with pytest.raises(JobError, match="only queued jobs"):
            queue.cancel(job.job_id)

    def test_cancel_unknown_is_rejected(self, tmp_path):
        with pytest.raises(JobError, match="unknown job"):
            JobQueue(tmp_path).cancel("deadbeef")

    def test_result_text_of_unfinished_job_is_none(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        assert queue.result_text(job.job_id) is None


class TestReplay:
    def test_done_jobs_survive_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.finish(job.job_id, RESULT_TEXT, {"units": 1})
        queue.close()

        reopened = JobQueue(tmp_path)
        replayed = reopened.get(job.job_id)
        assert replayed.state == "done"
        assert replayed.progress == {"units": 1}
        assert reopened.result_text(job.job_id) == RESULT_TEXT
        assert reopened.requeued == 0

    def test_running_job_is_requeued_after_crash(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.close()  # crash with the job mid-flight

        reopened = JobQueue(tmp_path)
        assert reopened.requeued == 1
        assert reopened.get(job.job_id).state == "queued"
        assert reopened.claim(timeout=0).job_id == job.job_id

    def test_queued_jobs_keep_fifo_order_after_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(spec_of())
        second, _ = queue.submit(spec_of(protocols=["lmac"]))
        queue.close()

        reopened = JobQueue(tmp_path)
        assert reopened.claim(timeout=0).job_id == first.job_id
        assert reopened.claim(timeout=0).job_id == second.job_id

    def test_failed_and_cancelled_are_sticky(self, tmp_path):
        queue = JobQueue(tmp_path)
        failed, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.fail(failed.job_id, "boom", "RuntimeError")
        cancelled, _ = queue.submit(spec_of(protocols=["lmac"]))
        queue.cancel(cancelled.job_id)
        queue.close()

        reopened = JobQueue(tmp_path)
        assert reopened.get(failed.job_id).state == "failed"
        assert reopened.get(failed.job_id).error == "boom"
        assert reopened.get(cancelled.job_id).state == "cancelled"
        assert reopened.claim(timeout=0) is None

    def test_torn_final_line_is_tolerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.close()
        journal = tmp_path / "jobs.jsonl"
        journal.write_text(journal.read_text() + '{"event": "state", "job_')

        reopened = JobQueue(tmp_path)
        assert reopened.get(job.job_id).state == "queued"

    def test_corrupt_middle_line_raises(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(spec_of())
        queue.close()
        journal = tmp_path / "jobs.jsonl"
        journal.write_text("garbage\n" + journal.read_text())
        with pytest.raises(JobError, match="corrupt journal line 1"):
            JobQueue(tmp_path)

    def test_done_without_result_file_is_requeued(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.finish(job.job_id, RESULT_TEXT)
        queue.close()
        (tmp_path / "results" / f"{job.job_id}.json").unlink()

        reopened = JobQueue(tmp_path)
        assert reopened.requeued == 1
        assert reopened.get(job.job_id).state == "queued"


class TestRetiredSimEngineReplay:
    """Journals written while specs could name a simulator engine replay."""

    @staticmethod
    def _rewrite_runtime(journal, engine):
        lines = []
        for line in journal.read_text().splitlines():
            event = json.loads(line)
            if event["event"] == "submit":
                event["spec"]["runtime"]["sim_engine"] = engine
            lines.append(json.dumps(event))
        journal.write_text("\n".join(lines) + "\n")

    def test_old_journal_line_replays(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.close()
        self._rewrite_runtime(tmp_path / "jobs.jsonl", "scalar")

        reopened = JobQueue(tmp_path)
        replayed = reopened.get(job.job_id)
        assert replayed.state == "queued"
        assert replayed.spec == spec_of()

    def test_unknown_engine_in_journal_is_unreplayable(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(spec_of())
        queue.close()
        self._rewrite_runtime(tmp_path / "jobs.jsonl", "vectorized")
        with pytest.raises(JobError, match="unreplayable submit on journal line 1"):
            JobQueue(tmp_path)


class TestRetiredSolverMethodReplay:
    """Journals written while the grid stage had two methods replay."""

    @staticmethod
    def _rewrite_submit(journal, solver_extra, runtime_extra):
        lines = []
        for line in journal.read_text().splitlines():
            event = json.loads(line)
            if event["event"] == "submit":
                event["spec"]["solver"].update(solver_extra)
                event["spec"]["runtime"].update(runtime_extra)
            lines.append(json.dumps(event))
        journal.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "solver_extra, runtime_extra",
        [
            # What the submit line looked like by default back then.
            (
                {"method": "exhaustive", "coarse_points": 11, "refine_rounds": 3, "top_k": 3},
                {"solver_method": None},
            ),
            (
                {"method": "adaptive", "coarse_points": 7, "refine_rounds": 2, "top_k": 5},
                {"solver_method": "adaptive"},
            ),
        ],
        ids=["exhaustive-default", "adaptive"],
    )
    def test_old_journal_line_replays(self, tmp_path, solver_extra, runtime_extra):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.close()
        self._rewrite_submit(tmp_path / "jobs.jsonl", solver_extra, runtime_extra)

        reopened = JobQueue(tmp_path)
        replayed = reopened.get(job.job_id)
        assert replayed.state == "queued"
        assert replayed.spec == spec_of()

    def test_unknown_method_in_journal_is_unreplayable(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(spec_of())
        queue.close()
        self._rewrite_submit(tmp_path / "jobs.jsonl", {"method": "magic"}, {})
        with pytest.raises(JobError, match="unreplayable submit on journal line 1"):
            JobQueue(tmp_path)


class TestRetiredExecutorKnobsReplay:
    """Journals written while the runtime had ``mode``/``chunk_size`` replay."""

    @staticmethod
    def _rewrite_runtime(journal, runtime_extra):
        lines = []
        for line in journal.read_text().splitlines():
            event = json.loads(line)
            if event["event"] == "submit":
                event["spec"]["runtime"].update(runtime_extra)
            lines.append(json.dumps(event))
        journal.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "runtime_extra",
        [
            # What every submit line carried by default back then.
            {"mode": "auto", "chunk_size": None},
            {"mode": "process", "chunk_size": 3},
        ],
        ids=["default", "process-chunked"],
    )
    def test_old_journal_line_replays(self, tmp_path, runtime_extra):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.close()
        self._rewrite_runtime(tmp_path / "jobs.jsonl", runtime_extra)

        reopened = JobQueue(tmp_path)
        replayed = reopened.get(job.job_id)
        assert replayed.state == "queued"
        assert replayed.spec == spec_of()
        assert replayed.spec.spec_hash() == spec_of().spec_hash()

    @pytest.mark.parametrize("runtime_extra", [{"mode": "gpu"}, {"chunk_size": 0}])
    def test_unknown_value_in_journal_is_unreplayable(self, tmp_path, runtime_extra):
        queue = JobQueue(tmp_path)
        queue.submit(spec_of())
        queue.close()
        self._rewrite_runtime(tmp_path / "jobs.jsonl", runtime_extra)
        with pytest.raises(JobError, match="unreplayable submit on journal line 1"):
            JobQueue(tmp_path)

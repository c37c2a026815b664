"""Tests for the space-sharing runtime scheduler.

Covers the buddy-allocation behavior through the scheduler, FIFO +
backfill determinism, byte-identical partition runs vs standalone
machines of the same size, and queue-wait/turnaround accounting.
"""

from dataclasses import replace

import pytest

from tests._digest_util import digest, run_result_digest
from repro.data import landsat_like_scene
from repro.errors import ConfigurationError
from repro.machines import paragon
from repro.runtime import (
    JobSpec,
    RunOptions,
    Scheduler,
    machine_template,
    make_policy,
)
from repro.wavelet import filter_bank_for_length
from repro.wavelet.parallel import run_spmd_wavelet


IMAGE = landsat_like_scene((64, 64))
BANK = filter_bank_for_length(4)


def wavelet_spec(nranks: int, name: str = "") -> JobSpec:
    return JobSpec(
        program="wavelet",
        params={"image": IMAGE, "bank": BANK, "levels": 2},
        options=RunOptions(nranks=nranks),
        name=name,
    )


def workload_spec(nranks: int, repeats: int = 1, name: str = "") -> JobSpec:
    from repro.workload import nas_suite

    return JobSpec(
        program="workload",
        params={"trace": nas_suite(0.1)[0], "repeats": repeats},
        options=RunOptions(nranks=nranks),
        name=name,
    )


@pytest.fixture
def sched():
    return Scheduler(machine_template("paragon", protocol="pvm"))


class TestSubmit:
    def test_rounds_to_power_of_two(self, sched):
        sched.submit(workload_spec(6))
        results = sched.run()
        assert results[0].partition_size == 8
        assert len(results[0].nodes) == 6

    def test_oversized_rejected(self, sched):
        with pytest.raises(ConfigurationError):
            sched.submit(wavelet_spec(65))

    def test_zero_ranks_rejected(self, sched):
        with pytest.raises(ConfigurationError):
            sched.submit(wavelet_spec(0))

    def test_negative_submit_time_rejected(self, sched):
        with pytest.raises(ConfigurationError):
            sched.submit(wavelet_spec(4), submit_s=-1.0)

    def test_job_ids_are_fifo_positions(self, sched):
        assert sched.submit(wavelet_spec(4)) == 0
        assert sched.submit(wavelet_spec(4)) == 1


class TestSpaceSharing:
    def test_disjoint_concurrent_partitions(self, sched):
        for _ in range(4):
            sched.submit(workload_spec(16))
        results = sched.run()
        # 4 x 16 = 64 nodes: everything fits at t=0, nothing queues.
        assert all(r.start_s == 0.0 for r in results)
        seen = set()
        for result in results:
            nodes = set(result.nodes)
            assert not (nodes & seen)
            seen |= nodes
        assert len(seen) == 64

    def test_machine_accepted_in_place_of_template(self):
        sched = Scheduler(paragon(8))
        sched.submit(wavelet_spec(4))
        sched.submit(wavelet_spec(4))
        results = sched.run()
        assert [r.start_s for r in results] == [0.0, 0.0]

    def test_partition_freed_for_later_jobs(self, sched):
        for _ in range(3):
            sched.submit(workload_spec(64))
        results = sched.run()
        # Serial reuse of the whole machine: each job starts when the
        # previous one finishes on the same (released) partition.
        assert results[0].start_s == 0.0
        assert results[1].start_s == pytest.approx(results[0].finish_s)
        assert results[2].start_s == pytest.approx(results[1].finish_s)
        assert results[0].nodes == results[1].nodes == results[2].nodes


class TestDeterminismAndBackfill:
    def test_two_runs_identical(self):
        def build():
            sched = Scheduler(machine_template("paragon", protocol="pvm"))
            sched.submit(workload_spec(32))
            sched.submit(wavelet_spec(8))
            sched.submit(workload_spec(16))
            sched.submit(workload_spec(8, repeats=2))
            return sched.run()

        first, second = build(), build()
        assert [r.job_id for r in first] == [r.job_id for r in second]
        assert [r.nodes for r in first] == [r.nodes for r in second]
        assert [r.finish_s for r in first] == [r.finish_s for r in second]
        assert [run_result_digest(r.run) for r in first] == [
            run_result_digest(r.run) for r in second
        ]

    def test_backfill_around_blocked_head(self, sched):
        a = sched.submit(workload_spec(64, name="a"))  # whole machine
        b = sched.submit(workload_spec(64, name="b"))  # blocked behind a
        c = sched.submit(workload_spec(16, name="c"))  # cannot fit either
        results = {r.job_id: r for r in sched.run()}
        assert results[a].start_s == 0.0
        # b and c both wait for a; c backfills at the same instant b
        # starts only if space remains -- with b taking all 64 nodes it
        # cannot, so c runs after b.
        assert results[b].start_s == pytest.approx(results[a].finish_s)
        assert results[c].start_s == pytest.approx(results[b].finish_s)

    def test_backfill_lets_small_job_pass(self, sched):
        a = sched.submit(workload_spec(32, name="a"))
        b = sched.submit(workload_spec(64, name="b"))  # must wait for a
        c = sched.submit(workload_spec(16, name="c"))  # fits beside a now
        results = {r.job_id: r for r in sched.run()}
        assert results[a].start_s == 0.0
        assert results[c].start_s == 0.0  # backfilled past the blocked b
        assert results[b].start_s == pytest.approx(
            max(results[a].finish_s, results[c].finish_s)
        )

    def test_late_submission_waits_for_arrival(self, sched):
        sched.submit(workload_spec(16), submit_s=0.5)
        results = sched.run()
        assert results[0].start_s == pytest.approx(0.5)
        assert results[0].queue_wait_s == pytest.approx(0.0)


class TestPartitionEqualsStandalone:
    def test_partition_run_matches_dedicated_machine(self):
        solo = run_spmd_wavelet(paragon(8), IMAGE, BANK, 2)
        solo_digest = run_result_digest(solo.run)

        sched = Scheduler(machine_template("paragon", protocol="pvm"))
        sched.submit(wavelet_spec(8))
        sched.submit(wavelet_spec(8))  # lands on a translated partition
        results = sched.run()
        assert results[0].nodes != results[1].nodes
        for result in results:
            assert run_result_digest(result.run) == solo_digest

    def test_outcome_assembled_per_job(self):
        solo = run_spmd_wavelet(paragon(8), IMAGE, BANK, 2)
        sched = Scheduler(machine_template("paragon", protocol="pvm"))
        sched.submit(wavelet_spec(8))
        (result,) = sched.run()
        assert result.outcome.pyramid is not None
        assert (
            result.outcome.pyramid.approximation
            == solo.pyramid.approximation
        ).all()


class TestAccounting:
    def test_queue_wait_and_turnaround_sum(self, sched):
        for _ in range(3):
            sched.submit(workload_spec(64))
        results = sched.run()
        for result in results:
            assert result.turnaround_s == pytest.approx(
                result.queue_wait_s + result.service_s
            )
        expected_wait = sum(r.queue_wait_s for r in results)
        assert sched.total_queue_wait_s() == pytest.approx(expected_wait)
        assert expected_wait > 0.0

    def test_makespan_is_last_finish(self, sched):
        sched.submit(workload_spec(32))
        sched.submit(workload_spec(16))
        results = sched.run()
        assert sched.makespan_s() == pytest.approx(
            max(r.finish_s for r in results)
        )

    def test_full_machine_back_to_back_utilization(self, sched):
        sched.submit(workload_spec(64))
        sched.submit(workload_spec(64))
        sched.run()
        assert sched.utilization() == pytest.approx(1.0)

    def test_service_includes_crashed_attempts(self):
        from repro.machines.faults import FaultPlan

        solo = run_spmd_wavelet(paragon(4), IMAGE, BANK, 2)
        plan = FaultPlan.sampled(7, 4, 0.2, t_horizon=solo.run.elapsed_s)
        spec = JobSpec(
            program="wavelet",
            params={"image": IMAGE, "bank": BANK, "levels": 2},
            options=RunOptions(
                nranks=4, faults=plan, checkpoint_interval=1
            ),
        )
        sched = Scheduler(machine_template("paragon", protocol="pvm"))
        sched.submit(spec)
        (result,) = sched.run()
        assert result.execution.restarts >= 1
        assert result.service_s == pytest.approx(
            result.execution.total_virtual_s
        )
        assert result.service_s > result.run.elapsed_s


# (program, nranks, tenant, priority, submit_s): partition sizes 1-64,
# three tenants, three priorities, submit times out of job-id order.
PINNED_STREAM = (
    ("workload", 32, "a", 0, 0.0),
    ("wavelet", 8, "b", 1, 0.004),
    ("workload", 64, "c", 2, 0.0),
    ("workload", 3, "a", 1, 0.012),
    ("workload", 16, "b", 0, 0.0),
    ("workload", 6, "c", 0, 0.002),
    ("wavelet", 4, "a", 2, 0.02),
    ("workload", 16, "b", 2, 0.001),
    ("workload", 1, "c", 1, 0.0),
    ("wavelet", 2, "a", 0, 0.006),
    ("workload", 12, "b", 1, 0.0),
    ("workload", 32, "c", 1, 0.015),
    ("wavelet", 8, "a", 1, 0.0),
    ("workload", 4, "b", 2, 0.03),
)

# sha256 of [(job_id, start_s, finish_s, nodes)] in job-id order,
# captured from the raise-and-skip scheduling walk that PendingQueue
# replaced.
PINNED_SCHEDULES = {
    "fifo": "c0f1afd4f3f14add587c01c82ec85c9eaddd696a13841bfeb098ef9e029292e1",
    "fair": "704ddf94eb712514e2daad860b5b623b69c2a6e2c59beaa3ccf149e0fa573cf5",
}


class TestPinnedSchedule:
    @pytest.mark.parametrize("policy", sorted(PINNED_SCHEDULES))
    def test_schedule_digest(self, policy):
        sched = Scheduler(
            machine_template("paragon", protocol="pvm"),
            policy=make_policy(policy, weights={"a": 2.0, "b": 1.0, "c": 0.5}),
        )
        for program, nranks, tenant, priority, submit_s in PINNED_STREAM:
            build = wavelet_spec if program == "wavelet" else workload_spec
            spec = replace(build(nranks), tenant=tenant, priority=priority)
            sched.submit(spec, submit_s=submit_s)
        schedule = [
            (r.job_id, r.start_s, r.finish_s, r.nodes) for r in sched.run()
        ]
        assert digest(schedule) == PINNED_SCHEDULES[policy]

"""Queue-policy tests: FIFO extraction, fair-share tags, priorities."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machines.network import FullyConnected
from repro.machines.partition import PartitionManager, next_power_of_two
from repro.runtime.policy import (
    FifoBackfill,
    PendingQueue,
    WeightedFairShare,
    make_policy,
)


@dataclass
class FakeJob:
    job_id: int
    tenant: str = "t"
    priority: int = 0
    partition_size: int = 4
    submit_s: float = 0.0
    cost: float = 4.0


class TestFifoBackfill:
    def test_orders_by_job_id(self):
        jobs = [FakeJob(2), FakeJob(0), FakeJob(1)]
        assert [j.job_id for j in FifoBackfill().order(jobs, 0.0)] == [0, 1, 2]

    def test_name(self):
        assert FifoBackfill().name == "fifo"


class TestWeightedFairShare:
    def test_heavier_tenant_ranks_first_at_equal_backlog(self):
        policy = WeightedFairShare({"heavy": 4.0, "light": 1.0})
        a = FakeJob(0, tenant="light")
        b = FakeJob(1, tenant="heavy")
        policy.on_submit(a, 0.0)
        policy.on_submit(b, 0.0)
        # Both have start tag 0; id breaks the tie. Submit a second round:
        # light's finish tag advanced 4x further than heavy's.
        c = FakeJob(2, tenant="light")
        d = FakeJob(3, tenant="heavy")
        policy.on_submit(c, 0.0)
        policy.on_submit(d, 0.0)
        ranked = [j.job_id for j in policy.order([c, d], 0.0)]
        assert ranked == [3, 2]

    def test_priority_dominates_tags(self):
        policy = WeightedFairShare()
        urgent = FakeJob(5, tenant="a", priority=3)
        backlogged = FakeJob(1, tenant="b")
        policy.on_submit(backlogged, 0.0)
        policy.on_submit(urgent, 0.0)
        ranked = [j.job_id for j in policy.order([backlogged, urgent], 0.0)]
        assert ranked == [5, 1]

    def test_heavy_backlog_cannot_starve_light_tenant(self):
        policy = WeightedFairShare({"heavy": 1.0, "light": 1.0})
        burst = [FakeJob(i, tenant="heavy") for i in range(10)]
        for job in burst:
            policy.on_submit(job, 0.0)
        late = FakeJob(10, tenant="light")
        policy.on_submit(late, 0.0)
        # The light tenant's single job outranks most of the burst: its
        # start tag is the global vtime (0), the burst's tags stack up.
        ranked = [j.job_id for j in policy.order(burst + [late], 0.0)]
        assert ranked.index(10) <= 1

    def test_replay_identical(self):
        def run():
            policy = WeightedFairShare({"a": 2.0, "b": 1.0})
            jobs = [
                FakeJob(i, tenant=("a" if i % 3 else "b"), cost=1.0 + i % 4)
                for i in range(12)
            ]
            for job in jobs:
                policy.on_submit(job, float(i := job.job_id))
            return [j.job_id for j in policy.order(jobs, 12.0)]

        assert run() == run()

    def test_idle_tenant_reenters_at_current_vtime(self):
        policy = WeightedFairShare()
        early = FakeJob(0, tenant="busy", cost=100.0)
        policy.on_submit(early, 0.0)
        policy.on_start(early, 0.0)
        # busy tenant racks up tag debt; a fresh tenant arriving later
        # starts at the global vtime, not at 0 relative advantage.
        policy.on_submit(FakeJob(1, tenant="busy"), 0.0)
        policy.on_start(FakeJob(1, tenant="busy", cost=100.0), 0.0)
        newcomer = FakeJob(2, tenant="fresh")
        policy.on_submit(newcomer, 50.0)
        assert policy._tags[2] == policy._vtime

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            WeightedFairShare({"t": 0.0})
        with pytest.raises(ConfigurationError):
            WeightedFairShare(default_weight=-1.0)


class TestMakePolicy:
    def test_builds_both(self):
        assert make_policy("fifo").name == "fifo"
        fair = make_policy("fair", weights={"t": 2.0})
        assert fair.name == "fair" and fair.weights == {"t": 2.0}

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("lottery")


class TestSchedulerIntegration:
    def test_scheduler_accepts_fair_policy(self):
        from repro.runtime import JobSpec, RunOptions, Scheduler, machine_template
        from repro.workload import nas_suite

        trace = nas_suite(0.1)[0]
        sched = Scheduler(
            machine_template("paragon"),
            policy=WeightedFairShare({"a": 2.0, "b": 1.0}),
        )
        for i, tenant in enumerate(("a", "b", "a", "b")):
            sched.submit(
                JobSpec(
                    program="workload",
                    params={"trace": trace},
                    options=RunOptions(nranks=32),
                    name=f"job{i}",
                    tenant=tenant,
                )
            )
        results = sched.run()
        assert len(results) == 4
        assert all(r.turnaround_s > 0.0 for r in results)


# --------------------------------------------------------------------------
# PendingQueue against the raise-and-skip walk it replaced
# --------------------------------------------------------------------------


def skip_walk(policy, partitions, pending: list, now: float) -> list:
    """The scheduling pass both schedulers ran before :class:`PendingQueue`:
    rank the whole queue, offer every job to the allocator, and skip the
    ones it rejects.  Returns ``[(job, partition)]`` in start order."""
    started = []
    for job in policy.order(pending, now):
        try:
            partition = partitions.allocate(job.partition_size)
        except ConfigurationError:
            continue  # blocked; jobs ranked behind it may backfill
        policy.on_start(job, now)
        started.append((job, partition))
    return started


class CountingPartitions(PartitionManager):
    """A buddy allocator that counts allocation attempts and failures."""

    def __init__(self, nodes: int) -> None:
        super().__init__(FullyConnected(nodes))
        self.calls = self.failed = 0

    def allocate(self, size: int):
        self.calls += 1
        try:
            return super().allocate(size)
        except ConfigurationError:
            self.failed += 1
            raise


TENANTS = ("t0", "t1", "t2", "t3")
# Zero-cost jobs leave a tenant's fair-share tag unchanged, so the next
# job ties with them and only the job-id tie-break orders the two.
costs = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))

# One step of a random stream: a submission (nranks 1-64, tenant,
# priority, cost), the release of the i-th oldest running job, or a
# scheduling pass.
stream_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=1, max_value=64),
            st.sampled_from(TENANTS),
            st.integers(min_value=0, max_value=2),
            costs,
        ),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("pass")),
    ),
    max_size=80,
)
weight_maps = st.fixed_dictionaries(
    {tenant: st.floats(min_value=0.1, max_value=8.0) for tenant in TENANTS}
)


def make_test_policy(name: str, weights: dict):
    return FifoBackfill() if name == "fifo" else WeightedFairShare(weights)


class TestPendingQueue:
    def test_pass_starts_best_fitting_heads_and_stops(self):
        partitions = CountingPartitions(64)
        queue = PendingQueue(FifoBackfill(), partitions)
        for job_id, size in enumerate((32, 64, 16, 16, 8)):
            queue.push(FakeJob(job_id, partition_size=size))
        started = [(job.job_id, p.size) for job, p in queue.start(0.0)]
        # 64 is blocked behind 32; 16 + 16 backfill; 8 no longer fits.
        assert started == [(0, 32), (2, 16), (3, 16)]
        assert len(queue) == 2
        assert (partitions.calls, partitions.failed) == (3, 0)

    def test_empty_queue_pass_starts_nothing(self):
        partitions = CountingPartitions(64)
        queue = PendingQueue(FifoBackfill(), partitions)
        assert queue.start(0.0) == []
        assert len(queue) == 0 and partitions.calls == 0

    def test_policy_sees_only_fitting_heads(self):
        seen = []

        class Recording(FifoBackfill):
            def order(self, eligible, now):
                seen.append(sorted(job.job_id for job in eligible))
                return super().order(eligible, now)

        partitions = PartitionManager(FullyConnected(64))
        partitions.allocate(32)  # half the machine stays busy
        queue = PendingQueue(Recording(), partitions)
        for job_id, (size, tenant) in enumerate(
            ((64, "a"), (16, "a"), (16, "a"), (16, "b"))
        ):
            queue.push(FakeJob(job_id, tenant=tenant, partition_size=size))
        started = [job.job_id for job, _ in queue.start(0.0)]
        assert started == [1, 2]
        # The 64 never fits; tenant a's second 16 waits behind its first.
        assert seen == [[1, 3], [2, 3]]

    @settings(max_examples=300, deadline=None)
    @given(
        policy_name=st.sampled_from(["fifo", "fair"]),
        weights=weight_maps,
        tenants=st.integers(min_value=1, max_value=len(TENANTS)),
        steps=stream_steps,
    )
    def test_matches_skip_walk(self, policy_name, weights, tenants, steps):
        oracle_policy = make_test_policy(policy_name, weights)
        oracle_parts = CountingPartitions(64)
        oracle_pending: list = []
        oracle_running: list = []
        policy = make_test_policy(policy_name, weights)
        parts = CountingPartitions(64)
        queue = PendingQueue(policy, parts)
        running: list = []
        next_id = 0
        for index, step in enumerate(steps):
            now = 0.5 * index
            if step[0] == "submit":
                _, nranks, tenant, priority, cost = step
                job = FakeJob(
                    next_id,
                    tenant=TENANTS[TENANTS.index(tenant) % tenants],
                    priority=priority,
                    partition_size=next_power_of_two(nranks),
                    submit_s=now,
                    cost=cost,
                )
                next_id += 1
                oracle_policy.on_submit(job, now)
                oracle_pending.append(job)
                policy.on_submit(job, now)
                queue.push(job)
            elif step[0] == "release":
                if not running:
                    continue
                k = step[1] % len(running)
                job, partition = oracle_running.pop(k)
                oracle_parts.release(partition)
                oracle_policy.on_finish(job, now)
                job, partition = running.pop(k)
                parts.release(partition)
                policy.on_finish(job, now)
            else:
                expected = skip_walk(oracle_policy, oracle_parts, oracle_pending, now)
                started = queue.start(now)
                assert [(j.job_id, p.nodes) for j, p in started] == [
                    (j.job_id, p.nodes) for j, p in expected
                ]
                gone = {j.job_id for j, _ in expected}
                oracle_pending = [j for j in oracle_pending if j.job_id not in gone]
                oracle_running.extend(expected)
                running.extend(started)
            assert len(queue) == len(oracle_pending)
        assert parts.failed == 0
        assert parts.calls == oracle_parts.calls - oracle_parts.failed


class TestOrderContract:
    """Both policies rank one tenant's equal-priority jobs by job id —
    the property :class:`PendingQueue` relies on."""

    @settings(max_examples=200, deadline=None)
    @given(
        policy_name=st.sampled_from(["fifo", "fair"]),
        weights=weight_maps,
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("submit"),
                    st.sampled_from(TENANTS),
                    st.integers(min_value=0, max_value=2),
                    costs,
                ),
                st.tuples(st.just("start"), st.integers(min_value=0, max_value=63)),
                st.tuples(st.just("finish"), st.integers(min_value=0, max_value=63)),
            ),
            max_size=60,
        ),
    )
    def test_tenant_jobs_of_equal_priority_rank_by_job_id(
        self, policy_name, weights, steps
    ):
        policy = make_test_policy(policy_name, weights)
        pending: list = []
        running: list = []
        for index, step in enumerate(steps):
            now = 0.5 * index
            if step[0] == "submit":
                _, tenant, priority, cost = step
                job = FakeJob(index, tenant=tenant, priority=priority, cost=cost)
                policy.on_submit(job, now)
                pending.append(job)
            elif step[0] == "start" and pending:
                job = pending.pop(step[1] % len(pending))
                policy.on_start(job, now)
                running.append(job)
            elif step[0] == "finish" and running:
                policy.on_finish(running.pop(step[1] % len(running)), now)
            ranked = policy.order(list(pending), now)
            for tenant in TENANTS:
                for priority in range(3):
                    ids = [
                        job.job_id
                        for job in ranked
                        if job.tenant == tenant and job.priority == priority
                    ]
                    assert ids == sorted(ids)

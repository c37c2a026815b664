"""Space-sharing job scheduler over one simulated machine.

Appendix B's machines were operated exactly this way: "the system is
space-shared into partitions where the numbers of processors are powers
of two".  The :class:`Scheduler` owns one machine's topology, carves
power-of-two partitions out of it with the buddy
:class:`~repro.machines.partition.PartitionManager`, and runs submitted
:class:`~repro.runtime.spec.JobSpec`s over their allocated node subsets —
FIFO order with greedy backfill (a queued job may jump ahead only when
the jobs before it cannot fit in the currently free partitions), queueing
wait charged in virtual time.

Node index space
----------------
The buddy allocator works over *positions in the machine's placement
order* (snake order on the Paragon), not raw node ids.  Every contiguous
power-of-two block of positions is therefore a physically compact
sub-mesh, and a job's ranks are placed on its partition's nodes in the
same order a dedicated machine of that size would use — which is what
makes a partitioned run reproduce a standalone run exactly.

Each job gets its own :class:`~repro.machines.network.ContentionNetwork`
instance over the shared topology: partitions are disjoint, so cross-job
link contention is not modelled (the 1995 schedulers' partition
boundaries had the same goal).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machines.engine import Machine, RunResult
from repro.machines.network import ContentionNetwork, FullyConnected
from repro.machines.partition import Partition, PartitionManager, next_power_of_two
from repro.runtime.exec import Execution, execute
from repro.runtime.policy import FifoBackfill, PendingQueue, QueuePolicy
from repro.runtime.spec import JobSpec

__all__ = ["MachineTemplate", "machine_template", "JobResult", "Scheduler"]


class MachineTemplate:
    """A full machine the scheduler carves partitions from.

    Built around a *prototype* :class:`~repro.machines.engine.Machine`
    instantiated at full size: the prototype's placement order defines
    the scheduler's node index space, and per-partition machines reuse
    its CPU model, network parameters, and per-node speed factors with a
    fresh (state-free) contention network per job.
    """

    def __init__(self, prototype: Machine) -> None:
        self.prototype = prototype
        self.node_order = tuple(prototype.placement)
        self.speed_by_node = {
            node: prototype.rank_speed[rank]
            for rank, node in enumerate(self.node_order)
        }

    @property
    def total_nodes(self) -> int:
        """Nodes available to the scheduler (the prototype's rank count)."""
        return len(self.node_order)

    def nodes_for(self, partition: Partition, nranks: int) -> tuple:
        """Topology nodes hosting a job's ranks inside ``partition``."""
        return tuple(self.node_order[pos] for pos in partition.nodes[:nranks])

    def machine_for(self, partition: Partition, nranks: int) -> Machine:
        """A per-job machine over the partition's first ``nranks`` nodes."""
        if nranks > partition.size:
            raise ConfigurationError(
                f"job needs {nranks} ranks but partition has {partition.size} nodes"
            )
        proto = self.prototype
        nodes = self.nodes_for(partition, nranks)
        network = ContentionNetwork(
            topology=proto.network.topology,
            latency_s=proto.network.latency_s,
            per_hop_s=proto.network.per_hop_s,
            bytes_per_s=proto.network.bytes_per_s,
            local_bytes_per_s=proto.network.local_bytes_per_s,
        )
        start = partition.nodes[0]
        return Machine(
            name=f"{proto.name}#p{partition.ticket}@{start}+{partition.size}",
            cpu=proto.cpu,
            network=network,
            placement=list(nodes),
            sw_send_overhead_s=proto.sw_send_overhead_s,
            sw_recv_overhead_s=proto.sw_recv_overhead_s,
            copy_bytes_per_s=proto.copy_bytes_per_s,
            speed_factors=self.speed_by_node,
        )


def machine_template(
    name: str, *, placement: str = "snake", protocol: str | None = None
) -> MachineTemplate:
    """Build the full-size template for a calibrated machine spec.

    ``"paragon"`` is the 64-node JPL mesh, ``"t3d"`` the 256-node torus,
    ``"workstation"`` the single-node baseline.
    """
    if name == "paragon":
        from repro.machines.specs import (
            PARAGON_MESH_HEIGHT,
            PARAGON_MESH_WIDTH,
            paragon,
        )

        kwargs = {"placement": placement}
        if protocol is not None:
            kwargs["protocol"] = protocol
        return MachineTemplate(
            paragon(PARAGON_MESH_WIDTH * PARAGON_MESH_HEIGHT, **kwargs)
        )
    if name == "t3d":
        from repro.machines.specs import t3d

        return MachineTemplate(t3d(256))
    if name == "workstation":
        from repro.machines.specs import workstation

        return MachineTemplate(workstation())
    raise ConfigurationError(
        f"unknown machine template {name!r}; use 'paragon', 't3d', or 'workstation'"
    )


@dataclass(frozen=True)
class JobResult:
    """One finished job: the execution plus its queue/turnaround metrics."""

    job_id: int
    spec: JobSpec
    execution: Execution
    partition_size: int
    nodes: tuple
    submit_s: float
    start_s: float
    finish_s: float

    @property
    def run(self) -> RunResult:
        """The final engine run."""
        return self.execution.run

    @property
    def outcome(self):
        """The assembled program outcome (pyramid, particles, ...)."""
        return self.execution.outcome

    @property
    def queue_wait_s(self) -> float:
        """Virtual time spent queued before the partition was allocated."""
        return self.start_s - self.submit_s

    @property
    def service_s(self) -> float:
        """Virtual time the job occupied its partition (all attempts)."""
        return self.finish_s - self.start_s

    @property
    def turnaround_s(self) -> float:
        """Submit-to-finish virtual time (queue wait + service)."""
        return self.finish_s - self.submit_s


@dataclass
class _QueuedJob:
    job_id: int
    spec: JobSpec
    submit_s: float
    partition_size: int

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def cost(self) -> float:
        """Node demand the fair-share policy charges (no service estimate
        exists before a batch job has run, so the partition size is the
        cost unit)."""
        return float(self.partition_size)


class Scheduler:
    """FIFO + backfill batch scheduler space-sharing one machine.

    Jobs are submitted as :class:`JobSpec`s (the rank count comes from
    ``spec.options.nranks``, rounded up to the next power of two for the
    partition request) and run when a partition frees up.  Everything is
    deterministic: job ids increase in submission order, scheduling
    points are job completions, ties break on the smaller job id.

    The queue discipline is pluggable: at every scheduling point the
    scheduler starts ``policy``'s best-ranked eligible job that fits
    until none fits (:class:`~repro.runtime.policy.PendingQueue`), so
    any policy backfills around blocked jobs.  The default
    :class:`~repro.runtime.policy.FifoBackfill` reproduces the original
    FIFO + greedy backfill byte-for-byte.

    Example
    -------
    ::

        sched = Scheduler(machine_template("paragon", protocol="nx"))
        sched.submit(spec_a)   # 32 ranks
        sched.submit(spec_b)   # 32 ranks -> runs concurrently
        results = sched.run()
    """

    def __init__(
        self, template: MachineTemplate, *, policy: QueuePolicy | None = None
    ) -> None:
        if isinstance(template, Machine):
            template = MachineTemplate(template)
        self.template = template
        self.policy = policy if policy is not None else FifoBackfill()
        # The buddy allocator runs over placement-order positions; a
        # FullyConnected topology of that size is the cleanest pure
        # index space (the allocator only reads ``num_nodes``).
        self.partitions = PartitionManager(FullyConnected(template.total_nodes))
        self._pending = PendingQueue(self.policy, self.partitions)
        self._arrivals: list = []  # heap of (submit_s, job_id, job) not yet eligible
        self._results: dict = {}
        self._next_job_id = 0

    @property
    def usable_nodes(self) -> int:
        """Power-of-two node pool the buddy allocator manages."""
        return self.partitions.usable_nodes

    def submit(self, spec: JobSpec, *, submit_s: float = 0.0) -> int:
        """Queue a job; returns its id (FIFO position).

        Raises
        ------
        ConfigurationError
            If the job cannot fit the machine even when idle.
        """
        nranks = spec.options.nranks
        if nranks < 1:
            raise ConfigurationError(f"job needs >= 1 rank, got {nranks}")
        if submit_s < 0.0:
            raise ConfigurationError(f"submit_s must be >= 0, got {submit_s}")
        size = next_power_of_two(nranks)
        if size > self.partitions.usable_nodes:
            raise ConfigurationError(
                f"job needs a {size}-node partition; machine offers "
                f"{self.partitions.usable_nodes}"
            )
        job_id = self._next_job_id
        self._next_job_id += 1
        job = _QueuedJob(job_id, spec, submit_s, size)
        heapq.heappush(self._arrivals, (submit_s, job_id, job))
        self.policy.on_submit(job, submit_s)
        return job_id

    def run(self) -> list:
        """Drain the queue; returns :class:`JobResult`s in job-id order."""
        running: list = []  # heap of (finish_s, job_id, partition, job)
        now = 0.0
        while self._arrivals or self._pending or running:
            self._start_eligible(now, running)
            if running:
                finish_s, job_id, partition, job = heapq.heappop(running)
                now = max(now, finish_s)
                self.partitions.release(partition)
                self.policy.on_finish(job, now)
                continue
            # Nothing running and nothing startable: jump to the next
            # submission instant (the machine is idle until then).
            if not self._arrivals:
                raise ConfigurationError(
                    "scheduler stalled with queued jobs; this should be "
                    "impossible because submit() validates partition sizes"
                )
            now = self._arrivals[0][0]
        return [self._results[job_id] for job_id in sorted(self._results)]

    # -- internals -----------------------------------------------------------

    def _start_eligible(self, now: float, running: list) -> None:
        """Queue the jobs submitted by ``now``, then start every one that
        fits, best-ranked first (:meth:`PendingQueue.start`)."""
        while self._arrivals and self._arrivals[0][0] <= now:
            self._pending.push(heapq.heappop(self._arrivals)[2])
        for job, partition in self._pending.start(now):
            result = self._run_job(job, partition, now)
            heapq.heappush(
                running, (result.finish_s, job.job_id, partition, job)
            )

    def _run_job(self, job: _QueuedJob, partition: Partition, now: float) -> JobResult:
        nranks = job.spec.options.nranks
        machine = self.template.machine_for(partition, nranks)
        execution = execute(machine, job.spec)
        result = JobResult(
            job_id=job.job_id,
            spec=job.spec,
            execution=execution,
            partition_size=partition.size,
            nodes=self.template.nodes_for(partition, nranks),
            submit_s=job.submit_s,
            start_s=now,
            finish_s=now + execution.total_virtual_s,
        )
        self._results[job.job_id] = result
        return result

    # -- aggregate metrics ---------------------------------------------------

    def makespan_s(self) -> float:
        """Finish time of the last completed job."""
        return max((r.finish_s for r in self._results.values()), default=0.0)

    def total_queue_wait_s(self) -> float:
        """Sum of per-job queue waits."""
        return sum(r.queue_wait_s for r in self._results.values())

    def utilization(self) -> float:
        """Node-seconds of service over node-seconds of machine time."""
        makespan = self.makespan_s()
        if makespan <= 0.0:
            return 0.0
        busy = sum(
            r.partition_size * r.service_s for r in self._results.values()
        )
        return busy / (self.partitions.usable_nodes * makespan)

"""Pluggable queueing policies for the space-sharing scheduler.

The PR-4 :class:`~repro.runtime.scheduler.Scheduler` hard-wired one
discipline: scan the queue in submission order and start every job whose
partition fits (FIFO with greedy backfill).  The always-on service layer
(:mod:`repro.service`) needs other disciplines — per-tenant weighted
fair-share with priorities — without forking the allocation core, so the
discipline is now a :class:`QueuePolicy` object consulted for *ordering
only*.  Both schedulers keep their waiting jobs in one
:class:`PendingQueue`, whose scheduling pass asks the policy to rank the
jobs that fit and starts its first choice until nothing fits.

Determinism contract: a policy's ranking may depend only on job fields
(id, tenant, priority, cost, submit time) and on its own state updated
through the ``on_submit``/``on_start``/``on_finish`` hooks — never on
wall clock, hash order, or ambient RNG.  Every ordering breaks ties on
``job_id`` so identical submissions replay identically.
"""

from __future__ import annotations

import heapq

from repro.errors import ConfigurationError
from repro.machines.partition import PartitionManager

__all__ = [
    "QueuePolicy",
    "FifoBackfill",
    "WeightedFairShare",
    "make_policy",
    "PendingQueue",
]


class QueuePolicy:
    """Ordering discipline consulted by the scheduling pass.

    Subclasses override :meth:`order`; the hooks are optional.  The
    ``job`` objects expose at least ``job_id``, ``tenant``, ``priority``,
    ``partition_size``, ``submit_s``, and ``cost`` (node-seconds of
    expected service, or the partition size when no estimate exists).

    Contract: :meth:`order` is a total order (ties break on ``job_id``)
    that ranks one tenant's jobs of equal priority by ascending
    ``job_id``, and ``on_start`` does not reorder the jobs still queued.
    :class:`PendingQueue` relies on it to offer only the oldest job of
    each (partition size, tenant, priority) group.
    """

    name = "base"

    def on_submit(self, job, now: float) -> None:
        """A job entered the queue at virtual time ``now``."""

    def order(self, eligible: list, now: float) -> list:
        """Rank the eligible (already-submitted) jobs for this pass."""
        raise NotImplementedError

    def on_start(self, job, now: float) -> None:
        """A job was placed on a partition at virtual time ``now``."""

    def on_finish(self, job, now: float) -> None:
        """A job's partition was released at virtual time ``now``."""


class FifoBackfill(QueuePolicy):
    """Submission order: the PR-4 behavior, extracted verbatim.

    The head of the queue gets the first shot at the free partitions and
    later jobs may start only when an earlier job cannot be placed —
    which is exactly what walking the ranking with skip-on-failure does.
    """

    name = "fifo"

    def order(self, eligible: list, now: float) -> list:
        return sorted(eligible, key=lambda job: job.job_id)


class WeightedFairShare(QueuePolicy):
    """Start-time fair queueing over tenants, with strict priorities.

    Each tenant owns a weight; a job's *start tag* is the maximum of the
    global virtual time and its tenant's last finish tag, and its finish
    tag advances the tenant by ``cost / weight``.  Ranking is by
    descending priority, then ascending start tag, then job id — so a
    heavy tenant's backlog cannot starve a light tenant (its tags race
    ahead), while a higher :attr:`~repro.runtime.spec.JobSpec.priority`
    always clears the queue first regardless of tags.  A tenant's start
    tags never decrease from one submission to the next (costs are
    non-negative), so its equal-priority jobs rank in job-id order.

    All state advances through the hooks in virtual time; two runs fed
    the same submission sequence produce the same tags and ranking.
    """

    name = "fair"

    def __init__(self, weights: dict | None = None, *, default_weight: float = 1.0) -> None:
        if default_weight <= 0.0:
            raise ConfigurationError(
                f"default_weight must be > 0, got {default_weight}"
            )
        self.weights = dict(weights or {})
        for tenant, weight in sorted(self.weights.items()):
            if weight <= 0.0:
                raise ConfigurationError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        self.default_weight = default_weight
        self._vtime = 0.0
        self._tenant_finish: dict = {}
        self._tags: dict = {}

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, self.default_weight)

    def on_submit(self, job, now: float) -> None:
        start_tag = max(self._vtime, self._tenant_finish.get(job.tenant, 0.0))
        finish_tag = start_tag + job.cost / self._weight(job.tenant)
        self._tags[job.job_id] = start_tag
        self._tenant_finish[job.tenant] = finish_tag

    def order(self, eligible: list, now: float) -> list:
        return sorted(
            eligible,
            key=lambda job: (
                -job.priority,
                self._tags.get(job.job_id, 0.0),
                job.job_id,
            ),
        )

    def on_start(self, job, now: float) -> None:
        # Global virtual time tracks the newest start tag placed in
        # service, so tenants idle through a busy spell re-enter at the
        # current front instead of with an ancient (unfairly small) tag.
        self._vtime = max(self._vtime, self._tags.get(job.job_id, 0.0))

    def on_finish(self, job, now: float) -> None:
        self._tags.pop(job.job_id, None)


def make_policy(name: str, *, weights: dict | None = None) -> QueuePolicy:
    """Build a policy by CLI name (``"fifo"`` or ``"fair"``)."""
    if name == "fifo":
        return FifoBackfill()
    if name == "fair":
        return WeightedFairShare(weights)
    raise ConfigurationError(
        f"unknown queue policy {name!r}; use 'fifo' or 'fair'"
    )


class PendingQueue:
    """Submitted jobs waiting for a partition, and the pass that starts them.

    Jobs wait in heaps ordered by job id, one per (partition size,
    tenant, priority).  :meth:`start` is one scheduling pass: it offers
    the policy the heads of the heaps whose size fits the largest free
    block, allocates the policy's first choice — which cannot fail —
    and repeats until no head fits.

    The pass starts the same jobs, in the same order, as walking the
    policy's ranking of the whole queue and skipping every job that does
    not fit:

    * the largest free block only shrinks during a pass, so a job that
      does not fit when the walk reaches it never fits later in the pass;
    * the policy ranks the jobs of one heap by job id (the
      :class:`QueuePolicy` contract), so the best job that fits is a
      heap head.
    """

    def __init__(self, policy: QueuePolicy, partitions: PartitionManager) -> None:
        self.policy = policy
        self.partitions = partitions
        self._heaps: dict = {}  # (partition_size, tenant, priority) -> [(job_id, job)]
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, job) -> None:
        """Queue a submitted job; the next pass may start it."""
        key = (job.partition_size, job.tenant, job.priority)
        heapq.heappush(self._heaps.setdefault(key, []), (job.job_id, job))
        self._count += 1

    def start(self, now: float) -> list:
        """Run one scheduling pass at virtual time ``now``.

        Returns ``[(job, partition)]`` for the jobs started, in start
        order; each has been allocated and reported to the policy's
        ``on_start``.
        """
        started: list = []
        while self._heaps:
            largest = self.partitions.largest_free_block()
            # Scan order is immaterial: order() ranks the heads totally.
            heads = [
                heap[0][1]
                for (size, _, _), heap in self._heaps.items()
                if size <= largest
            ]
            if not heads:
                break
            job = self.policy.order(heads, now)[0]
            key = (job.partition_size, job.tenant, job.priority)
            heap = self._heaps[key]
            heapq.heappop(heap)
            if not heap:
                del self._heaps[key]
            self._count -= 1
            partition = self.partitions.allocate(job.partition_size)
            self.policy.on_start(job, now)
            started.append((job, partition))
        return started

"""Deterministic discrete-event engine for SPMD message-passing programs.

Rank programs are plain Python *generator functions*: they do their real
numerical work with NumPy and ``yield`` operation records whenever they
consume virtual time (compute) or interact with other ranks (send/recv).
The engine advances whichever runnable rank has the smallest virtual clock,
so execution order is deterministic and approximately global-time ordered,
which keeps the network contention model honest.

A minimal rank program::

    def program(ctx):
        data = np.arange(4.0) * ctx.rank
        yield ctx.compute(flops=1000)          # charge useful work
        if ctx.rank == 0:
            yield ctx.send(1, data)
        elif ctx.rank == 1:
            data = yield ctx.recv(0)
        return data.sum()

    result = Engine(machine).run(program)

Real payloads travel through the simulator (arrays are copied at the send
boundary), so a parallel algorithm's output can be validated against its
sequential reference — the machine model affects *time*, never *values*.

Accounting follows Appendix B's performance-budget definitions:

* ``comm``  — time from initiating a communication call until it returns
  (including time blocked in a receive).
* ``work``  — useful computation.
* ``redundancy`` — duplicated or parallelization-only computation, charged
  via :meth:`RankContext.compute` with ``redundant=True``.
* ``imbalance`` — finish-time skew, assigned post-run as
  ``elapsed - rank_finish_time``.
"""

from __future__ import annotations

import heapq
import math
import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
    RankCrashError,
    RecvTimeoutError,
    SimulationError,
    TransportError,
)
from repro.machines.cpu import CpuModel
from repro.machines.network import ContentionNetwork
from repro.wavelet.cost import OpCount

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CorruptedPayload",
    "Machine",
    "RankContext",
    "Engine",
    "RankBudget",
    "RunResult",
    "TraceEvent",
    "payload_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class CorruptedPayload:
    """What arrives in place of a payload mangled on the wire (raw fault
    mode, ``FaultConfig(reliable=False)``).

    The content is gone but the wire size is preserved so timing stays
    honest; receivers (e.g. the reliable transport in
    :mod:`repro.machines.faults.transport`) detect corruption with an
    ``isinstance`` check, the moral equivalent of a failed checksum.
    """

    nbytes: int


def payload_nbytes(payload) -> int:
    """Estimate the wire size of a payload.

    NumPy arrays report their buffer size; scalars are 8 bytes; containers
    sum their items plus a small per-item header; anything else falls back
    to its pickle length.
    """
    if payload is None:
        return 0
    if isinstance(payload, CorruptedPayload):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) + 8 for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) + 16 for k, v in payload.items()
        )
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _check_amount(name: str, amount) -> None:
    """Reject a negative or non-finite charge at the boundary: it would
    run the rank's virtual clock backwards or make it NaN."""
    if not 0.0 <= amount < math.inf:
        raise ConfigurationError(f"{name} must be finite and >= 0, got {amount!r}")


def _copy_payload(payload):
    """Copy mutable payloads at the send boundary (message-passing has
    value semantics; without the copy a sender could mutate in-flight
    data, which no real machine allows)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (tuple, list)):
        return type(payload)(_copy_payload(item) for item in payload)
    if isinstance(payload, dict):
        return {k: _copy_payload(v) for k, v in payload.items()}
    return payload


# --------------------------------------------------------------------------
# Operation records yielded by rank programs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _SendOp:
    dst: int
    payload: object
    tag: int
    nbytes: int


@dataclass(frozen=True)
class _JammedFate:
    """Stand-in for a :class:`~repro.machines.faults.plan.MessageFate`
    on a jammed channel: every transmission attempt is lost.  Defined
    here (not imported) because :mod:`repro.machines.faults.plan` imports
    from this module."""

    delivered: bool = False
    corrupt: bool = False
    duplicate: bool = False
    extra_delay_s: float = 0.0


_JAMMED_FATE = _JammedFate()


@dataclass(frozen=True)
class _RecvOp:
    src: int
    tag: int
    timeout_s: float | None = None


@dataclass(frozen=True)
class _MsgMeta:
    """Causality metadata carried alongside an in-flight message when the
    engine is tracing: the send's identity and Lamport stamp, plus the
    contention-free arrival time for critical-path analysis."""

    msg_id: int
    lamport: int
    min_arrive: float


@dataclass(frozen=True)
class _ComputeOp:
    ops: OpCount
    redundant: bool


@dataclass(frozen=True)
class _MemoryOp:
    resident_bytes: float


@dataclass(frozen=True)
class _ElapseOp:
    seconds: float
    kind: str


@dataclass(frozen=True)
class _CheckpointOp:
    state: object


class Machine:
    """A concrete machine instance: CPU model + network + rank placement.

    Parameters
    ----------
    name:
        Identifier used in reports.
    cpu:
        Per-node :class:`~repro.machines.cpu.CpuModel`.
    network:
        :class:`~repro.machines.network.ContentionNetwork` over the node
        topology.
    placement:
        ``placement[rank]`` is the node index hosting that rank.  Ranks
        must map to distinct nodes.
    sw_send_overhead_s / sw_recv_overhead_s:
        Software cost of posting a send / completing a receive.
    copy_bytes_per_s:
        CPU-side message-copy bandwidth (charged to the caller on both
        ends, on top of network time).
    speed_factors:
        Optional per-node speed factors modelling the report's Section 5.4
        observation that physically identical Paragon nodes ran at
        different speeds depending on their distance from the cooling
        system (up to 7% variability): a node with factor ``f`` executes
        compute ``1/f`` slower.  Dict (node -> factor) or per-node list.
    """

    def __init__(
        self,
        name: str,
        cpu: CpuModel,
        network: ContentionNetwork,
        placement,
        *,
        sw_send_overhead_s: float = 30e-6,
        sw_recv_overhead_s: float = 30e-6,
        copy_bytes_per_s: float = 200e6,
        speed_factors=None,
    ) -> None:
        self.name = name
        self.cpu = cpu
        self.network = network
        self.placement = list(placement)
        if len(set(self.placement)) != len(self.placement):
            raise ConfigurationError("placement maps two ranks to the same node")
        for node in self.placement:
            if not 0 <= node < network.topology.num_nodes:
                raise ConfigurationError(
                    f"placement node {node} outside the "
                    f"{network.topology.num_nodes}-node topology"
                )
        self.sw_send_overhead_s = sw_send_overhead_s
        self.sw_recv_overhead_s = sw_recv_overhead_s
        self.copy_bytes_per_s = copy_bytes_per_s
        if speed_factors is None:
            self.rank_speed = [1.0] * len(self.placement)
        else:
            factors = dict(speed_factors) if isinstance(speed_factors, dict) else None
            if factors is not None:
                self.rank_speed = [float(factors.get(node, 1.0)) for node in self.placement]
            else:
                speed_list = list(speed_factors)
                if len(speed_list) < network.topology.num_nodes:
                    raise ConfigurationError(
                        "speed_factors list must cover every topology node"
                    )
                self.rank_speed = [float(speed_list[node]) for node in self.placement]
        for factor in self.rank_speed:
            if factor <= 0:
                raise ConfigurationError("node speed factors must be positive")

    @property
    def nranks(self) -> int:
        """Number of ranks this machine instance hosts."""
        return len(self.placement)


class RankContext:
    """Per-rank handle passed to SPMD programs.

    Provides the operation constructors (``send``/``recv``/``compute``...)
    whose results the program must ``yield``, plus the rank's identity.
    """

    def __init__(self, rank: int, nranks: int, machine: Machine) -> None:
        self.rank = rank
        self.nranks = nranks
        self.machine = machine

    def send(self, dst: int, payload, *, tag: int = 0, nbytes: int | None = None):
        """Post a message to ``dst``.  Yield the returned op.

        Self-sends (``dst == self.rank``) are supported: the payload is
        buffered through the local-memory channel (charged at the
        network's ``local_bytes_per_s``) and matched by a later ``recv``
        from this rank, exactly like NX/MPI buffered self-messaging.
        Because they never touch a wire, self-sends are exempt from fault
        injection.
        """
        if not 0 <= dst < self.nranks:
            raise CommunicationError(f"send destination {dst} out of range")
        if tag < 0:
            raise CommunicationError(f"send tag must be >= 0, got {tag}")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        return _SendOp(dst=dst, payload=payload, tag=tag, nbytes=size)

    def recv(
        self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG, timeout_s: float | None = None
    ):
        """Receive a message.  ``yield`` evaluates to the payload.

        With ``timeout_s`` set, the receive gives up once the rank has
        blocked that many virtual seconds without a matching message
        *arriving* in time: a :class:`~repro.errors.RecvTimeoutError`
        (a ``TimeoutError`` subclass) is thrown into the program at the
        blocked ``yield`` instead of the run deadlocking, so programs can
        retransmit or fall back.  A message whose arrival time lands
        beyond the deadline does not satisfy the receive (it stays queued
        for a later one).
        """
        if src != ANY_SOURCE and not 0 <= src < self.nranks:
            raise CommunicationError(f"recv source {src} out of range")
        if tag != ANY_TAG and tag < 0:
            # send() rejects negative tags, so a negative non-ANY_TAG recv
            # can never be matched and would silently deadlock.
            raise CommunicationError(
                f"recv tag must be >= 0 or ANY_TAG, got {tag}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise CommunicationError(f"recv timeout_s must be > 0, got {timeout_s}")
        return _RecvOp(src=src, tag=tag, timeout_s=timeout_s)

    def compute(
        self,
        *,
        flops: float = 0.0,
        intops: float = 0.0,
        memops: float = 0.0,
        redundant: bool = False,
    ):
        """Charge computation time.  ``redundant=True`` books it as
        parallelization redundancy instead of useful work.  Raises
        :class:`~repro.errors.ConfigurationError` for a negative or
        non-finite count."""
        return self.charge(
            OpCount(flops=flops, intops=intops, memops=memops), redundant=redundant
        )

    def charge(self, ops: OpCount, *, redundant: bool = False):
        """Charge a pre-built :class:`OpCount` (cost-model output).
        Raises :class:`~repro.errors.ConfigurationError` if any count is
        negative or non-finite."""
        _check_amount("flops", ops.flops)
        _check_amount("intops", ops.intops)
        _check_amount("memops", ops.memops)
        return _ComputeOp(ops=ops, redundant=redundant)

    def elapse(self, seconds: float, *, kind: str = "work"):
        """Charge raw virtual seconds to a budget category directly.
        Raises :class:`~repro.errors.ConfigurationError` for an unknown
        ``kind`` or a negative or non-finite ``seconds``."""
        if kind not in ("work", "redundancy", "comm"):
            raise ConfigurationError(f"unknown budget kind {kind!r}")
        seconds = float(seconds)
        _check_amount("seconds", seconds)
        return _ElapseOp(seconds=seconds, kind=kind)

    def set_resident_memory(self, nbytes: float):
        """Declare the rank's resident-set size (drives the paging model)."""
        return _MemoryOp(resident_bytes=float(nbytes))

    def checkpoint(self, state):
        """Write ``state`` to simulated stable storage (survives crashes).

        The engine deep-copies the state at the call boundary and charges
        the serialization time (``payload_nbytes(state)`` at the
        machine's copy bandwidth) to the communication budget.  A
        checkpoint index *commits* once every rank has written it; on a
        :class:`~repro.errors.RankCrashError` the newest committed
        index and its per-rank states ride on the exception for the
        recovery driver (:func:`repro.machines.faults.run_with_recovery`).
        """
        return _CheckpointOp(state=state)


@dataclass
class RankBudget:
    """Per-rank virtual-time breakdown (Appendix B's performance budget)."""

    work_s: float = 0.0
    comm_s: float = 0.0
    redundancy_s: float = 0.0
    imbalance_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total accounted time including imbalance."""
        return self.work_s + self.comm_s + self.redundancy_s + self.imbalance_s

    def fractions(self) -> dict:
        """Budget shares in [0, 1], keyed like the paper's figures."""
        total = self.total_s
        if total <= 0.0:
            return {"work": 0.0, "comm": 0.0, "redundancy": 0.0, "imbalance": 0.0}
        return {
            "work": self.work_s / total,
            "comm": self.comm_s / total,
            "redundancy": self.redundancy_s / total,
            "imbalance": self.imbalance_s / total,
        }


@dataclass(frozen=True)
class TraceEvent:
    """One recorded engine event (when tracing is enabled).

    ``kind`` is one of ``compute``, ``redundancy``, ``send``, ``recv``;
    the interval ``[start_s, end_s)`` is in virtual time; ``peer`` is the
    other rank for messaging events (-1 otherwise), ``nbytes`` the message
    size (0 for compute).

    The remaining fields are the causality enrichment consumed by
    :mod:`repro.machines.causality` (excluded from equality so that
    comparisons over the classic six fields keep working):

    * ``tag`` — message tag (sends: as posted; recvs: of the matched
      message).
    * ``msg_id`` — engine-wide monotone id assigned to each send.
    * ``match_id`` — on a recv, the ``msg_id`` of the matched send.
    * ``wildcard_src`` / ``wildcard_tag`` — whether the recv was posted
      with ``ANY_SOURCE`` / ``ANY_TAG`` (nondeterminism surface).
    * ``arrive_s`` — when the matched message arrived (recvs only).
    * ``min_arrive_s`` — when it *would* have arrived on an uncontended
      network (recvs only); the causal lower bound uses this.
    * ``lamport`` — Lamport stamp of the event (one tick per recorded
      event, merged on recv).  Vector clocks are not stamped:
      :class:`~repro.machines.causality.HappensBeforeGraph` derives the
      components a query needs from the ``msg_id``/``match_id`` links.
    """

    rank: int
    kind: str
    start_s: float
    end_s: float
    peer: int = -1
    nbytes: int = 0
    tag: int = field(default=-1, compare=False)
    msg_id: int = field(default=-1, compare=False)
    match_id: int = field(default=-1, compare=False)
    wildcard_src: bool = field(default=False, compare=False)
    wildcard_tag: bool = field(default=False, compare=False)
    arrive_s: float = field(default=-1.0, compare=False)
    min_arrive_s: float = field(default=-1.0, compare=False)
    lamport: int = field(default=0, compare=False)


@dataclass
class RunResult:
    """Outcome of one SPMD execution."""

    elapsed_s: float
    results: list
    budgets: list
    finish_times: list
    messages_sent: int
    bytes_sent: int
    contention_s: float
    trace: list = None
    #: Fault-injection and recovery counters for the run (always present):
    #: retransmits, dropped, corrupted, duplicates, delayed, checkpoints.
    fault_stats: dict = None
    #: Engine-internals counters for the run (always present): ops retired
    #: (``events``) and receives matched through a wildcard
    #: (``wildcard_matches``).  ``route_cache_hits`` and
    #: ``path_cache_hits`` are always 0: the network has no caches.
    engine_stats: dict = None

    @property
    def nranks(self) -> int:
        """Number of ranks in the run."""
        return len(self.results)

    def mean_budget(self) -> RankBudget:
        """Budget averaged over ranks (the paper reports per-machine
        averages)."""
        n = max(1, len(self.budgets))
        return RankBudget(
            work_s=sum(b.work_s for b in self.budgets) / n,
            comm_s=sum(b.comm_s for b in self.budgets) / n,
            redundancy_s=sum(b.redundancy_s for b in self.budgets) / n,
            imbalance_s=sum(b.imbalance_s for b in self.budgets) / n,
        )

    def max_comm_s(self) -> float:
        """Maximum per-rank communication time (Appendix B Figure 10)."""
        return max((b.comm_s for b in self.budgets), default=0.0)

    def mean_comm_s(self) -> float:
        """Average per-rank communication time."""
        if not self.budgets:
            return 0.0
        return sum(b.comm_s for b in self.budgets) / len(self.budgets)


class _RankState:
    __slots__ = (
        "rank",
        "gen",
        "clock",
        "budget",
        "resident",
        "mailbox",
        "arrive_floor",
        "waiting",
        "deadline",
        "timeout_token",
        "pending_exc",
        "ckpts",
        "finished",
        "result",
        "pending_value",
        "lamport",
    )

    def __init__(self, rank: int, gen) -> None:
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.budget = RankBudget()
        self.resident = 0.0
        self.mailbox: dict = {}
        # Per-(src, tag) watermark of the newest enqueued arrival time:
        # delivery is FIFO non-overtaking per channel (a fault-delayed
        # message holds back its successors, like an in-order transport).
        self.arrive_floor: dict = {}
        self.waiting = None
        self.deadline = None  # absolute virtual time the parked recv times out
        self.timeout_token = 0  # invalidates stale timeout wake-ups
        self.pending_exc = None  # exception to throw into the generator
        self.ckpts: list = []  # checkpoint states written by this rank
        self.finished = False
        self.result = None
        self.pending_value = None
        self.lamport = 0


class Engine:
    """Runs SPMD generator programs on a :class:`Machine` in virtual time.

    Pass ``record_trace=True`` to collect a :class:`TraceEvent` list on
    the :class:`RunResult` (compute/send/recv intervals per rank), which
    :func:`repro.perf.format_timeline` renders as an ASCII Gantt chart.

    Pass ``faults`` (a :class:`repro.machines.faults.FaultPlan`) to run
    the program on an imperfect machine: seeded message drop / duplicate /
    corruption / delay, per-link transient slowdowns, rank stragglers, and
    fail-stop rank crashes at virtual times, all perfectly reproducible.
    With the plan's default ``reliable=True`` transport, lost attempts are
    retransmitted (exponential backoff charged in virtual time) so program
    *values* are unaffected — only the schedule and the budgets change.

    Mailboxes are keyed by ``(src, tag)`` channel: an exact-key receive
    is one dict lookup, and a wildcard receive scans the matching
    channels' heads, both implementing the documented
    ``(arrive, (src, tag))`` lexicographic matching rule.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        record_trace: bool = False,
        faults=None,
    ) -> None:
        self.machine = machine
        self.record_trace = record_trace
        self.faults = faults
        self.fault_stats: dict = {}
        self.engine_stats: dict = {}
        self._trace: list = []
        self._next_msg_id = 0
        self._msg_counter = 0
        self._seq = 0
        self._events = 0
        self._wildcard_matches = 0

    def _record(self, rank, kind, start, end, peer=-1, nbytes=0, **causal) -> None:
        if self.record_trace:
            self._trace.append(
                TraceEvent(
                    rank=rank, kind=kind, start_s=start, end_s=end, peer=peer,
                    nbytes=nbytes, **causal,
                )
            )

    def _stamp(self, st: "_RankState") -> int:
        """Tick the rank's Lamport clock for one event and return the
        stamp.  Only called while tracing."""
        st.lamport += 1
        return st.lamport

    def run(self, program, *args, **kwargs) -> RunResult:
        """Instantiate ``program(ctx, *args, **kwargs)`` on every rank and
        drive the system to completion.

        Returns
        -------
        RunResult
            Elapsed virtual time, per-rank return values and budgets, and
            network counters.

        Raises
        ------
        DeadlockError
            If every unfinished rank is blocked in a receive that no
            in-flight or future message can satisfy.
        RankCrashError
            If a fault-plan crash fires (fail-stop: the whole run aborts
            at the crash instant, carrying the newest committed
            checkpoint for recovery).
        """
        machine = self.machine
        machine.network.reset()
        self._trace = []
        self._next_msg_id = 0
        self._msg_counter = 0
        self._seq = 0
        self._events = 0
        self._wildcard_matches = 0
        self.fault_stats = {
            "retransmits": 0,
            "dropped": 0,
            "corrupted": 0,
            "duplicates": 0,
            "delayed": 0,
            "checkpoints": 0,
        }
        machine.network.link_slowdown = (
            self.faults.link_factor
            if self.faults is not None and self.faults.has_link_slowdowns
            else None
        )
        nranks = machine.nranks
        states = []
        for rank in range(nranks):
            ctx = RankContext(rank, nranks, machine)
            gen = program(ctx, *args, **kwargs)
            if not hasattr(gen, "send"):
                raise ConfigurationError(
                    "rank program must be a generator function (use 'yield')"
                )
            states.append(_RankState(rank, gen))

        # Heap entries are (time, rank, seq, kind).  "run" entries obey the
        # one-entry-per-rank invariant via in_heap; "timeout" and "crash"
        # sentinels are extra wake-ups validated at pop time.
        heap: list = []
        for st in states:
            heapq.heappush(heap, (st.clock, st.rank, self._next_seq(), "run"))
        in_heap = [True] * nranks
        if self.faults is not None:
            for rank, t_crash in sorted(self.faults.crash_schedule.items()):
                if 0 <= rank < nranks:
                    heapq.heappush(heap, (t_crash, rank, self._next_seq(), "crash"))

        while heap:
            t_pop, rank, seq, kind = heapq.heappop(heap)
            st = states[rank]
            if kind == "crash":
                if st.finished:
                    continue  # crash scheduled past program completion
                self._raise_crash(rank, max(st.clock, t_pop), states)
            if kind == "timeout":
                # Valid only if the rank is still parked on the same
                # timed receive this sentinel was armed for.
                if st.waiting is None or seq != st.timeout_token:
                    continue
                self._advance(st, states, heap, in_heap, t_pop)
                continue
            in_heap[rank] = False
            if st.finished:
                continue
            self._advance(st, states, heap, in_heap, t_pop)

        unfinished = {st.rank: st.waiting for st in states if not st.finished}
        if unfinished:
            raise DeadlockError(unfinished)

        finish_times = [st.clock for st in states]
        elapsed = max(finish_times)
        for st in states:
            st.budget.imbalance_s = elapsed - st.clock

        self.engine_stats = {
            "events": self._events,
            "wildcard_matches": self._wildcard_matches,
            # Routing is closed-form and caches nothing, so these read 0.
            # bench/trace.py still reads both keys; the next
            # benchmark-only change removes them along with their rows.
            "route_cache_hits": 0,
            "path_cache_hits": 0,
        }
        return RunResult(
            elapsed_s=elapsed,
            results=[st.result for st in states],
            budgets=[st.budget for st in states],
            finish_times=finish_times,
            messages_sent=machine.network.messages_sent,
            bytes_sent=machine.network.bytes_sent,
            contention_s=machine.network.total_contention_s,
            trace=self._trace if self.record_trace else None,
            fault_stats=self.fault_stats,
            engine_stats=self.engine_stats,
        )

    # -- scheduling internals ------------------------------------------------

    def _next_seq(self) -> int:
        """Monotone tie-breaker for heap entries (deterministic, unlike
        ``id()``)."""
        self._seq += 1
        return self._seq

    def _push(self, st: _RankState, heap: list, in_heap: list) -> None:
        if not in_heap[st.rank] and not st.finished:
            heapq.heappush(heap, (st.clock, st.rank, self._next_seq(), "run"))
            in_heap[st.rank] = True

    def _raise_crash(self, rank: int, at_s: float, states) -> None:
        """Fail-stop abort: find the newest globally committed checkpoint
        and raise."""
        committed = min(len(st.ckpts) for st in states) - 1
        snapshot = None
        if committed >= 0:
            snapshot = [st.ckpts[committed] for st in states]
        raise RankCrashError(rank, at_s, committed, snapshot)

    def _advance(
        self, st: _RankState, states, heap, in_heap, now: float | None = None
    ) -> None:
        """Advance one rank until it blocks, finishes, or completes one op.

        ``now`` is the virtual time of the heap entry that woke the rank;
        a parked timed receive uses it to decide whether its deadline has
        been reached.
        """
        machine = self.machine
        while True:
            if st.waiting is not None:
                # Parked on a recv: try to complete it now.
                matched = self._match(st, st.waiting, before=st.deadline)
                if matched is not None:
                    self._complete_recv(st, st.waiting, matched)
                    st.waiting = None
                    st.deadline = None
                    st.timeout_token = -1  # disarm any pending timeout sentinel
                    # fall through to resume the generator with the payload
                elif (
                    st.deadline is not None
                    and now is not None
                    and now >= st.deadline
                ):
                    self._fire_timeout(st)
                    # fall through to throw into the generator
                else:
                    return  # stay parked; a future send or timeout will wake us

            try:
                if st.pending_exc is not None:
                    exc, st.pending_exc = st.pending_exc, None
                    op = st.gen.throw(exc)
                else:
                    value, st.pending_value = st.pending_value, None
                    op = st.gen.send(value)
            except StopIteration as stop:
                st.finished = True
                st.result = stop.value
                return

            self._events += 1
            if isinstance(op, _ComputeOp):
                dt = machine.cpu.seconds_for(op.ops, st.resident) / machine.rank_speed[
                    st.rank
                ]
                if self.faults is not None:
                    dt *= self.faults.straggler_factor(st.rank, st.clock)
                start = st.clock
                st.clock += dt
                kind = "redundancy" if op.redundant else "compute"
                if op.redundant:
                    st.budget.redundancy_s += dt
                else:
                    st.budget.work_s += dt
                self._record_local(st, kind, start)
            elif isinstance(op, _ElapseOp):
                start = st.clock
                st.clock += op.seconds
                if op.kind == "work":
                    st.budget.work_s += op.seconds
                    self._record_local(st, "compute", start)
                elif op.kind == "redundancy":
                    st.budget.redundancy_s += op.seconds
                    self._record_local(st, "redundancy", start)
                else:
                    st.budget.comm_s += op.seconds
                    self._record_local(st, "send", start)
            elif isinstance(op, _MemoryOp):
                st.resident = op.resident_bytes
            elif isinstance(op, _CheckpointOp):
                self._do_checkpoint(st, op)
            elif isinstance(op, _SendOp):
                self._do_send(st, op, states, heap, in_heap)
            elif isinstance(op, _RecvOp):
                deadline = (
                    st.clock + op.timeout_s if op.timeout_s is not None else None
                )
                matched = self._match(st, op, before=deadline)
                if matched is None:
                    st.waiting = op
                    st.deadline = deadline
                    if deadline is not None:
                        st.timeout_token = self._next_seq()
                        heapq.heappush(
                            heap, (deadline, st.rank, st.timeout_token, "timeout")
                        )
                    return
                self._complete_recv(st, op, matched)
            else:
                raise SimulationError(f"rank {st.rank} yielded unknown op {op!r}")

            # After a state change our clock may no longer be minimal;
            # requeue and let the scheduler pick the next rank.
            self._push(st, heap, in_heap)
            return

    def _record_local(self, st: _RankState, kind: str, start: float) -> None:
        """Record a non-messaging event, stamping it if tracing."""
        if not self.record_trace:
            return
        self._record(st.rank, kind, start, st.clock, lamport=self._stamp(st))

    def _fire_timeout(self, st: _RankState) -> None:
        """Expire a parked timed receive: charge the blocked time, record
        the failed wait, and arrange for :class:`RecvTimeoutError` to be
        thrown into the program."""
        op = st.waiting
        start = st.clock
        st.budget.comm_s += st.deadline - st.clock
        st.clock = st.deadline
        if self.record_trace:
            self._record(
                st.rank, "recv", start, st.clock,
                peer=op.src, nbytes=0, tag=op.tag,
                wildcard_src=op.src == ANY_SOURCE,
                wildcard_tag=op.tag == ANY_TAG,
                lamport=self._stamp(st),
            )
        st.pending_exc = RecvTimeoutError(
            st.rank, op.src, op.tag, op.timeout_s, st.clock
        )
        st.waiting = None
        st.deadline = None
        st.timeout_token = -1

    def _do_checkpoint(self, st: _RankState, op: _CheckpointOp) -> None:
        """Write a rank-local checkpoint to simulated stable storage."""
        machine = self.machine
        nbytes = payload_nbytes(op.state)
        dt = machine.sw_send_overhead_s + nbytes / machine.copy_bytes_per_s
        start = st.clock
        st.clock += dt
        st.budget.comm_s += dt
        st.ckpts.append(_copy_payload(op.state))
        self.fault_stats["checkpoints"] += 1
        if self.record_trace:
            self._record(
                st.rank, "checkpoint", start, st.clock, nbytes=nbytes,
                lamport=self._stamp(st),
            )

    def _do_send(self, st: _RankState, op: _SendOp, states, heap, in_heap) -> None:
        machine = self.machine
        overhead = machine.sw_send_overhead_s + op.nbytes / machine.copy_bytes_per_s
        start = st.clock
        st.clock += overhead
        st.budget.comm_s += overhead
        src_node = machine.placement[st.rank]
        dst_node = machine.placement[op.dst]
        contention_before = machine.network.total_contention_s
        action = None
        if self.faults is not None and op.dst != st.rank:
            intercept = getattr(self.faults, "intercept_send", None)
            if intercept is not None:
                action = intercept(st.rank, op.dst, op.tag, op.payload, st.clock)
                if action is not None and action.replace:
                    op = _SendOp(op.dst, action.payload, op.tag, op.nbytes)
        if action is not None and not action.deliver:
            if action.jam:
                # Wire-level jamming: the reliable transport hammers the
                # dead channel until its retransmission budget raises.
                deliver, deliveries = self._faulty_transfer(
                    st, op, src_node, dst_node, force_drop=True
                )
            else:
                # Application-level silence: the hostile NIC never puts
                # the envelope on the wire, so nothing arrives, ever.
                deliver, deliveries = st.clock, []
        elif self.faults is None or op.dst == st.rank:
            # Self-sends never touch a wire, so they are never faulted.
            deliver = machine.network.transfer(src_node, dst_node, op.nbytes, st.clock)
            deliveries = [(deliver, op.payload)]
        else:
            deliver, deliveries = self._faulty_transfer(st, op, src_node, dst_node)
        if action is not None and deliveries:
            if action.extra_delay_s > 0.0:
                deliver += action.extra_delay_s
                deliveries = [
                    (arrive + action.extra_delay_s, payload)
                    for arrive, payload in deliveries
                ]
            if action.replay:
                # Stale duplicate of the channel's previous payload
                # front-runs the real message: it is enqueued first, so
                # the receiver's next recv on the channel consumes the
                # replayed payload while the real one rides behind.
                dup = machine.network.transfer(
                    src_node, dst_node, op.nbytes, st.clock
                )
                deliveries = [(dup, action.replay_payload)] + deliveries
        meta = None
        if self.record_trace:
            # Contention-free arrival: transfer() books any wait for busy
            # channels as contention, so subtracting the delta isolates it.
            waited = machine.network.total_contention_s - contention_before
            msg_id = self._next_msg_id
            self._next_msg_id += 1
            lamport = self._stamp(st)
            meta = _MsgMeta(msg_id=msg_id, lamport=lamport, min_arrive=deliver - waited)
            self._record(
                st.rank, "send", start, st.clock, op.dst, op.nbytes,
                tag=op.tag, msg_id=msg_id, lamport=lamport,
            )
        dst = states[op.dst]
        key = (st.rank, op.tag)
        for arrive, payload in deliveries:
            # In-order transport: a delayed message holds back later ones
            # on the same (src, tag) channel (no-op on a fault-free run,
            # where per-path serialization already makes arrivals monotone).
            arrive = max(arrive, dst.arrive_floor.get(key, 0.0))
            dst.arrive_floor[key] = arrive
            self._enqueue(dst, key, arrive, _copy_payload(payload), meta)
        if action is not None and action.spam:
            # Junk flood: each copy genuinely occupies the network but
            # lands on the dedicated spam channel (never matched by a
            # concrete-tag receive).
            for spam_tag, spam_payload, spam_nbytes in action.spam:
                spam_arrive = machine.network.transfer(
                    src_node, dst_node, spam_nbytes, st.clock
                )
                spam_key = (st.rank, spam_tag)
                spam_arrive = max(spam_arrive, dst.arrive_floor.get(spam_key, 0.0))
                dst.arrive_floor[spam_key] = spam_arrive
                self._enqueue(dst, spam_key, spam_arrive, spam_payload, None)
        if dst.waiting is not None and (deliveries or (action is not None and action.spam)):
            self._push(dst, heap, in_heap)

    def _faulty_transfer(
        self, st: _RankState, op: _SendOp, src_node, dst_node, *, force_drop=False
    ):
        """Ship one message across the faulty network.

        Returns ``(last_wire_arrival, deliveries)`` where ``deliveries``
        is the list of ``(arrive_time, payload)`` copies to enqueue at the
        destination (empty for a raw-mode drop).

        Reliable mode models an ack/retransmit transport: every lost or
        corrupted attempt is re-sent after an exponentially backed-off
        timeout (``rto_s * backoff**attempt``), each attempt genuinely
        occupying the network, until the payload lands intact.  The
        sender does not block (the transport is asynchronous); the cost
        shows up as delivery latency and wasted wire traffic.

        ``force_drop=True`` models a jammed channel (an adversary eating
        every transmission): reliable mode exhausts its retransmission
        budget and raises; raw mode loses the single attempt.
        """
        plan = self.faults
        cfg = plan.config
        network = self.machine.network
        stats = self.fault_stats
        msg_index = self._msg_counter
        self._msg_counter += 1
        if cfg.reliable:
            inject = st.clock
            attempt = 0
            while True:
                fate = _JAMMED_FATE if force_drop else plan.message_fate(msg_index, attempt)
                deliver = network.transfer(src_node, dst_node, op.nbytes, inject)
                if fate.duplicate:
                    # The spurious copy burns bandwidth; the transport's
                    # sequence numbers discard it at the receiver.
                    stats["duplicates"] += 1
                    network.transfer(src_node, dst_node, op.nbytes, inject)
                if fate.delivered and not fate.corrupt:
                    if fate.extra_delay_s > 0.0:
                        stats["delayed"] += 1
                    deliver += fate.extra_delay_s
                    return deliver, [(deliver, op.payload)]
                stats["dropped" if not fate.delivered else "corrupted"] += 1
                if attempt >= cfg.max_retries:
                    raise TransportError(
                        f"rank {st.rank} -> {op.dst} (tag {op.tag}): message "
                        f"lost {attempt + 1} times; retransmission budget "
                        f"exhausted"
                    )
                # Ack timeout, then retransmit.
                inject += cfg.rto_s * (cfg.backoff ** attempt)
                attempt += 1
                stats["retransmits"] += 1
        # Raw mode: the program sees the lossy channel as-is.
        fate = _JAMMED_FATE if force_drop else plan.message_fate(msg_index, 0)
        deliver = network.transfer(src_node, dst_node, op.nbytes, st.clock)
        if not fate.delivered:
            stats["dropped"] += 1
            return deliver, []
        payload = op.payload
        if fate.corrupt:
            stats["corrupted"] += 1
            payload = CorruptedPayload(op.nbytes)
        if fate.extra_delay_s > 0.0:
            stats["delayed"] += 1
        deliveries = [(deliver + fate.extra_delay_s, payload)]
        if fate.duplicate:
            stats["duplicates"] += 1
            dup = network.transfer(src_node, dst_node, op.nbytes, st.clock)
            deliveries.append((dup + fate.extra_delay_s, payload))
        return deliver, deliveries

    # -- mailbox matching ----------------------------------------------------
    #
    # Matching implements one documented rule: the earliest-arriving
    # matching message wins, and ties on arrival time break on the
    # smallest (src, tag) pair — the (arrive, (src, tag)) lexicographic
    # minimum.  Per-channel arrivals are monotone non-decreasing
    # (arrive_floor enforces FIFO non-overtaking), so only each queue's
    # head can ever be the minimum, which is what makes a scan of the
    # channel heads sound.

    def _enqueue(self, dst: _RankState, key, arrive, payload, meta) -> None:
        """Append a message to ``dst``'s mailbox channel ``key``."""
        queue = dst.mailbox.get(key)
        if queue is None:
            queue = dst.mailbox[key] = []
        queue.append((arrive, payload, meta))

    def _match(self, st: _RankState, op: _RecvOp, before: float | None = None):
        """Find the earliest-arriving mailbox entry matching a recv.

        Ties on arrival time break on the smallest ``(src, tag)`` pair —
        the ``(arrive, (src, tag))`` lexicographic rule.  With ``before``
        set (a timed receive's deadline), messages arriving strictly
        after it cannot satisfy the receive and stay queued.
        """
        src, tag = op.src, op.tag
        if src != ANY_SOURCE and tag != ANY_TAG:
            # Exact-key receive: one dict lookup, no scan.
            key = (src, tag)
            queue = st.mailbox.get(key)
            if not queue:
                return None
            if before is not None and queue[0][0] > before:
                return None
            return key, queue.pop(0)
        best_key = best_arrive = None
        # Order-insensitive: the loop reduces to the (arrive, (src, tag))
        # minimum, so mailbox insertion order cannot leak into matching.
        # lint: disable-next=DET-DICT-ITERATION
        for key, queue in st.mailbox.items():
            if not queue:
                continue
            arrive = queue[0][0]
            if best_key is None or arrive < best_arrive or (
                arrive == best_arrive and key < best_key
            ):
                if (src == ANY_SOURCE or key[0] == src) and (tag == ANY_TAG or key[1] == tag):
                    best_key, best_arrive = key, arrive
        if best_key is None or (before is not None and best_arrive > before):
            return None
        self._wildcard_matches += 1
        return best_key, st.mailbox[best_key].pop(0)

    def _complete_recv(self, st: _RankState, op: _RecvOp, matched) -> None:
        machine = self.machine
        (src, tag), (arrive, payload, meta) = matched
        nbytes = payload_nbytes(payload)
        copy_time = nbytes / machine.copy_bytes_per_s
        done = max(st.clock, arrive) + machine.sw_recv_overhead_s + copy_time
        if self.record_trace and meta is not None:
            # Merge the sender's clock before ticking: the recv event
            # must causally dominate the matched send.
            if meta.lamport > st.lamport:
                st.lamport = meta.lamport
            self._record(
                st.rank, "recv", st.clock, done, src, nbytes,
                tag=tag, match_id=meta.msg_id,
                wildcard_src=op.src == ANY_SOURCE,
                wildcard_tag=op.tag == ANY_TAG,
                arrive_s=arrive, min_arrive_s=meta.min_arrive,
                lamport=self._stamp(st),
            )
        st.budget.comm_s += done - st.clock
        st.clock = done
        st.pending_value = payload

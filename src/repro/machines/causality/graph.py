"""Happens-before graph over an enriched engine trace.

The engine stamps every traced event with a Lamport clock and links each
receive to its matched send (see :class:`repro.machines.engine.TraceEvent`).
This module turns a trace into a queryable partial order:

* **Program-order edges** connect consecutive events of the same rank.
* **Message edges** connect each send to the receive that matched it
  (``msg_id`` -> ``match_id``).

``happens_before`` uses Fidge/Mattern vector clocks: ``a -> b`` iff
``a != b`` and ``VC(a)[r] <= VC(b)[r]`` with ``r = rank(a)``.  Only
component ``r`` is needed, so the graph derives it for every event in
one pass over a topological order the first time a query asks about
rank ``r``, and caches it per rank.  A trace therefore carries no O(P)
state per event, and a query pays only for the ranks it asks about.

``critical_path`` computes the run's **causal lower bound**: the longest
duration-weighted path through the happens-before DAG, where a receive is
charged only its intrinsic completion cost (software overhead + copy, not
blocked waiting) and each message edge is charged the *contention-free*
network transit recorded by the engine.  The slack against the measured
``RunResult.elapsed_s`` is therefore exactly the time lost to channel
contention and scheduling skew — the mechanism behind the paper's
naive-vs-snake placement gap (Appendix A Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CausalityError

if TYPE_CHECKING:
    from repro.machines.engine import TraceEvent

__all__ = ["CriticalPathAnalysis", "HappensBeforeGraph"]


@dataclass(frozen=True)
class CriticalPathAnalysis:
    """Longest duration-weighted path through the happens-before DAG.

    ``lower_bound_s`` is the causal lower bound on the run's makespan;
    ``slack_s = elapsed_s - lower_bound_s`` quantifies contention and
    placement loss.  ``work_s`` / ``comm_s`` / ``transit_s`` split the
    bound into compute, messaging-software, and wire time along the path,
    whose event indices are in ``path``.
    """

    lower_bound_s: float
    elapsed_s: float
    path: tuple
    work_s: float
    comm_s: float
    transit_s: float

    @property
    def slack_s(self) -> float:
        """Elapsed time not explained by the causal chain."""
        return self.elapsed_s - self.lower_bound_s

    @property
    def slack_fraction(self) -> float:
        """Slack as a share of elapsed time (0 for an empty run)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.slack_s / self.elapsed_s


class HappensBeforeGraph:
    """Happens-before partial order over a list of :class:`TraceEvent`.

    Parameters
    ----------
    trace:
        The event list from a traced run (``RunResult.trace``); per-rank
        order in the list is program order.

    Raises :class:`CausalityError` if a program-order successor, or a
    receive after its matched send, ends earlier than its predecessor:
    the ``(end_s, index)`` order the graph walks would not be
    topological.
    """

    def __init__(self, trace) -> None:
        if trace is None:
            raise CausalityError(
                "run has no trace; construct the Engine with record_trace=True"
            )
        self.events = list(trace)
        self.prev_in_rank = [None] * len(self.events)
        self.send_of_msg: dict = {}
        self.recv_of_msg: dict = {}
        last_by_rank: dict = {}
        for i, event in enumerate(self.events):
            self.prev_in_rank[i] = last_by_rank.get(event.rank)
            last_by_rank[event.rank] = i
            if event.kind == "send" and event.msg_id >= 0:
                self.send_of_msg[event.msg_id] = i
            if event.kind == "recv" and event.match_id >= 0:
                self.recv_of_msg[event.match_id] = i
        events = self.events
        self.topo_order = sorted(range(len(events)), key=lambda i: (events[i].end_s, i))
        for i, event in enumerate(events):
            for p in self.predecessors(i):
                if (events[p].end_s, p) > (event.end_s, i):
                    raise CausalityError(
                        f"event {i} ({event.kind}, rank {event.rank}, end "
                        f"{event.end_s!r}) ends before its predecessor {p} "
                        f"({events[p].kind}, rank {events[p].rank}, end "
                        f"{events[p].end_s!r})"
                    )
        self._components: dict = {}

    def __len__(self) -> int:
        return len(self.events)

    # -- structure -----------------------------------------------------------

    def message_edges(self) -> list:
        """All matched ``(send_index, recv_index)`` pairs."""
        return sorted(
            (self.send_of_msg[m], r)
            for m, r in self.recv_of_msg.items()
            if m in self.send_of_msg
        )

    def predecessors(self, index: int) -> list:
        """Direct happens-before predecessors of an event."""
        event = self._event(index)
        out = []
        if self.prev_in_rank[index] is not None:
            out.append(self.prev_in_rank[index])
        if event.kind == "recv" and event.match_id in self.send_of_msg:
            out.append(self.send_of_msg[event.match_id])
        return out

    def _event(self, index: int) -> "TraceEvent":
        if not 0 <= index < len(self.events):
            raise CausalityError(
                f"event index {index} outside trace of {len(self.events)} events"
            )
        return self.events[index]

    # -- order queries -------------------------------------------------------

    def happens_before(self, a: int, b: int) -> bool:
        """True iff event ``a`` causally precedes event ``b``."""
        rank = self._event(a).rank
        self._event(b)
        if a == b:
            return False
        component = self._component(rank)
        return component[a] <= component[b]

    def concurrent(self, a: int, b: int) -> bool:
        """True iff neither event causally precedes the other."""
        if a == b:
            return False
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    def _component(self, rank: int) -> list:
        """``VC(e)[rank]`` for every event ``e``: the number of ``rank``'s
        events that happen before or at ``e``.  A receive takes the max
        of its program-order predecessor and its matched send."""
        component = self._components.get(rank)
        if component is None:
            component = [0] * len(self.events)
            for i in self.topo_order:
                value = max((component[p] for p in self.predecessors(i)), default=0)
                if self.events[i].rank == rank:
                    value += 1
                component[i] = value
            self._components[rank] = component
        return component

    # -- critical path -------------------------------------------------------

    def critical_path(self, elapsed_s: float | None = None) -> CriticalPathAnalysis:
        """Longest duration-weighted path through the DAG (the causal
        lower bound on the makespan).

        Weights: compute/redundancy/send events cost their full duration;
        a recv costs only its post-arrival completion time; a message edge
        costs the contention-free transit (``min_arrive_s`` minus the
        send's end).  Pass the run's ``elapsed_s`` to measure slack
        against the real finish time (defaults to the trace's last end).
        """
        events = self.events
        n = len(events)
        if n == 0:
            elapsed = 0.0 if elapsed_s is None else float(elapsed_s)
            return CriticalPathAnalysis(0.0, elapsed, (), 0.0, 0.0, 0.0)
        lb_end = [0.0] * n
        pred = [-1] * n
        via_message = [False] * n
        for i in self.topo_order:
            event = events[i]
            ready = 0.0
            best_pred = -1
            best_msg = False
            prev = self.prev_in_rank[i]
            if prev is not None and lb_end[prev] > ready:
                ready, best_pred, best_msg = lb_end[prev], prev, False
            if event.kind == "recv" and event.match_id in self.send_of_msg:
                send_idx = self.send_of_msg[event.match_id]
                candidate = lb_end[send_idx] + self._transit(send_idx, i)
                if candidate > ready:
                    ready, best_pred, best_msg = candidate, send_idx, True
            lb_end[i] = ready + self._intrinsic(event)
            pred[i] = best_pred
            via_message[i] = best_msg
        tail = max(range(n), key=lambda i: lb_end[i])
        bound = lb_end[tail]
        elapsed = float(elapsed_s) if elapsed_s is not None else max(
            e.end_s for e in events
        )

        path = []
        work = comm = transit = 0.0
        i = tail
        while i != -1:
            event = events[i]
            path.append(i)
            if event.kind in ("compute", "redundancy"):
                work += event.end_s - event.start_s
            else:
                comm += self._intrinsic(event)
            if via_message[i]:
                transit += self._transit(pred[i], i)
            i = pred[i]
        path.reverse()
        return CriticalPathAnalysis(
            lower_bound_s=bound,
            elapsed_s=elapsed,
            path=tuple(path),
            work_s=work,
            comm_s=comm,
            transit_s=transit,
        )

    @staticmethod
    def _intrinsic(event) -> float:
        """Event cost excluding blocked waiting (recvs start counting at
        message arrival)."""
        if event.kind == "recv" and event.arrive_s >= 0.0:
            return max(0.0, event.end_s - max(event.start_s, event.arrive_s))
        return max(0.0, event.end_s - event.start_s)

    def _transit(self, send_idx: int, recv_idx: int) -> float:
        """Contention-free wire time of the message on a matched edge."""
        send, recv = self.events[send_idx], self.events[recv_idx]
        if recv.min_arrive_s >= 0.0:
            return max(0.0, recv.min_arrive_s - send.end_s)
        if recv.arrive_s >= 0.0:
            return max(0.0, recv.arrive_s - send.end_s)
        return 0.0

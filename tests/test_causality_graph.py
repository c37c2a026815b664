"""Tests for the happens-before graph, clock stamps, and critical path."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import CausalityError
from repro.machines import Engine, Machine, paragon
from repro.machines.cpu import CpuModel
from repro.machines.engine import TraceEvent
from repro.machines.causality import HappensBeforeGraph
from repro.machines.network import ContentionNetwork, FullyConnected
from repro.wavelet import filter_bank_for_length
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.parallel.spmd import striped_wavelet_program
from tests.test_causality_pins import dense_clocks, dense_happens_before


def ideal_machine(nranks):
    return Machine(
        name="ideal",
        cpu=CpuModel(1e9, 1e9, 1e9),
        network=ContentionNetwork(
            topology=FullyConnected(nranks), latency_s=1e-6, per_hop_s=0, bytes_per_s=1e9
        ),
        placement=list(range(nranks)),
        sw_send_overhead_s=1e-6,
        sw_recv_overhead_s=1e-6,
        copy_bytes_per_s=1e9,
    )


def ring_prog(ctx):
    """Each rank computes, sends right, receives from left, computes."""
    yield ctx.compute(flops=1e6 * (1 + ctx.rank))
    yield ctx.send((ctx.rank + 1) % ctx.nranks, np.ones(64), tag=7)
    _ = yield ctx.recv((ctx.rank - 1) % ctx.nranks, tag=7)
    yield ctx.compute(flops=1e5)
    return None


def traced(nranks, prog):
    return Engine(ideal_machine(nranks), record_trace=True).run(prog)


class TestStamps:
    def test_lamport_increases_along_program_order(self):
        run = traced(3, ring_prog)
        for rank in range(3):
            stamps = [e.lamport for e in run.trace if e.rank == rank]
            assert stamps == sorted(stamps)
            assert len(set(stamps)) == len(stamps)

    def test_vector_clock_own_component_counts_events(self):
        run = traced(3, ring_prog)
        graph = HappensBeforeGraph(run.trace)
        for rank in range(3):
            component = graph._component(rank)
            own = [component[i] for i, e in enumerate(run.trace) if e.rank == rank]
            assert own == list(range(1, len(own) + 1))

    def test_matched_send_happens_before_recv(self):
        run = traced(4, ring_prog)
        graph = HappensBeforeGraph(run.trace)
        edges = graph.message_edges()
        assert len(edges) == 4
        for send_idx, recv_idx in edges:
            send, recv = run.trace[send_idx], run.trace[recv_idx]
            assert send.msg_id == recv.match_id
            assert graph.happens_before(send_idx, recv_idx)
            assert not graph.happens_before(recv_idx, send_idx)
            assert recv.lamport > send.lamport

    def test_msg_ids_unique_and_monotone(self):
        run = traced(4, ring_prog)
        ids = [e.msg_id for e in run.trace if e.kind == "send"]
        assert sorted(ids) == list(range(len(ids)))

    def test_untraced_run_has_no_stamps(self):
        run = Engine(ideal_machine(2)).run(ring_prog)
        assert run.trace is None


class TestTraceMemory:
    """A traced event carries no O(P) state, so the trace's memory per
    event must not grow with the rank count."""

    @staticmethod
    def _traced_bytes_per_event(nranks):
        machine = ideal_machine(nranks)

        def peak(record_trace):
            tracemalloc.start()
            try:
                run = Engine(machine, record_trace=record_trace).run(ring_prog)
                return tracemalloc.get_traced_memory()[1], run
            finally:
                tracemalloc.stop()

        untraced, _ = peak(False)
        traced, run = peak(True)
        return (traced - untraced) / len(run.trace)

    def test_bytes_per_event_flat_from_16_to_256_ranks(self):
        small = self._traced_bytes_per_event(16)
        large = self._traced_bytes_per_event(256)
        assert large <= 1.25 * small, (small, large)


def assert_verdicts_match_dense_clocks(trace):
    graph = HappensBeforeGraph(trace)
    clocks = dense_clocks(trace)
    for a in range(len(trace)):
        for b in range(len(trace)):
            assert graph.happens_before(a, b) == dense_happens_before(clocks, a, b), (a, b)


class TestHappensBefore:
    def test_vclock_verdicts_match_reachability(self):
        assert_verdicts_match_dense_clocks(traced(4, ring_prog).trace)

    def test_program_order_is_happens_before(self):
        run = traced(3, ring_prog)
        graph = HappensBeforeGraph(run.trace)
        for rank in range(3):
            indices = [i for i, e in enumerate(run.trace) if e.rank == rank]
            for a, b in zip(indices, indices[1:]):
                assert graph.happens_before(a, b)

    def test_event_not_ordered_with_itself(self):
        run = traced(2, ring_prog)
        graph = HappensBeforeGraph(run.trace)
        assert not graph.happens_before(0, 0)
        assert not graph.concurrent(0, 0)

    def test_missing_trace_rejected(self):
        with pytest.raises(CausalityError):
            HappensBeforeGraph(None)

    def test_bad_index_rejected(self):
        run = traced(2, ring_prog)
        graph = HappensBeforeGraph(run.trace)
        with pytest.raises(CausalityError):
            graph.happens_before(0, 10_000)

    def test_successor_ending_before_its_predecessor_rejected(self):
        program_order = [
            TraceEvent(0, "compute", 0.0, 2.0),
            TraceEvent(0, "compute", 2.0, 1.0),
        ]
        with pytest.raises(CausalityError, match="event 1 .* predecessor 0"):
            HappensBeforeGraph(program_order)
        message = [
            TraceEvent(1, "recv", 0.0, 1.0, peer=0, match_id=0),
            TraceEvent(0, "send", 0.0, 1.0, peer=1, msg_id=0),
        ]
        with pytest.raises(CausalityError, match="event 0 .* predecessor 1"):
            HappensBeforeGraph(message)


class TestHandBuiltConcurrency:
    """Acceptance example: a 3-rank trace where ``concurrent()`` agrees
    with virtual-time interval overlap on every event pair."""

    @staticmethod
    def _trace():
        return [
            # rank 0: compute [0,2), send msg 0 to rank 1 [2,2.1)
            TraceEvent(0, "compute", 0.0, 2.0, lamport=1),
            TraceEvent(0, "send", 2.0, 2.1, peer=1, nbytes=8, tag=5,
                       msg_id=0, lamport=2),
            # rank 1: compute [0,3), recv msg 0 [3,3.2), compute [3.2,4)
            TraceEvent(1, "compute", 0.0, 3.0, lamport=1),
            TraceEvent(1, "recv", 3.0, 3.2, peer=0, nbytes=8, tag=5,
                       match_id=0, arrive_s=2.5, min_arrive_s=2.5, lamport=3),
            TraceEvent(1, "compute", 3.2, 4.0, lamport=4),
            # rank 2: one long concurrent compute [0,4)
            TraceEvent(2, "compute", 0.0, 4.0, lamport=1),
        ]

    def test_concurrent_agrees_with_interval_overlap(self):
        trace = self._trace()
        graph = HappensBeforeGraph(trace)
        for a in range(len(trace)):
            for b in range(a + 1, len(trace)):
                ea, eb = trace[a], trace[b]
                overlap = ea.start_s < eb.end_s and eb.start_s < ea.end_s
                assert graph.concurrent(a, b) == overlap, (a, b)

    def test_message_edge_found(self):
        graph = HappensBeforeGraph(self._trace())
        assert graph.message_edges() == [(1, 3)]

    def test_vclocks_consistent_on_hand_built(self):
        assert_verdicts_match_dense_clocks(self._trace())


class TestCriticalPath:
    def test_single_rank_bound_equals_elapsed(self):
        def prog(ctx):
            yield ctx.compute(flops=1e6)
            yield ctx.compute(flops=2e6)
            return None

        run = traced(1, prog)
        analysis = HappensBeforeGraph(run.trace).critical_path(run.elapsed_s)
        assert analysis.lower_bound_s == pytest.approx(run.elapsed_s)
        assert analysis.slack_s == pytest.approx(0.0, abs=1e-12)
        assert analysis.work_s == pytest.approx(run.elapsed_s)

    def test_bound_never_exceeds_elapsed(self):
        run = traced(4, ring_prog)
        analysis = HappensBeforeGraph(run.trace).critical_path(run.elapsed_s)
        assert 0.0 < analysis.lower_bound_s <= run.elapsed_s + 1e-12
        assert analysis.slack_s >= -1e-12

    def test_path_is_causally_ordered_chain(self):
        run = traced(4, ring_prog)
        graph = HappensBeforeGraph(run.trace)
        analysis = graph.critical_path(run.elapsed_s)
        assert len(analysis.path) >= 2
        for a, b in zip(analysis.path, analysis.path[1:]):
            assert graph.happens_before(a, b)

    def test_pipeline_bound_spans_message_chain(self):
        # rank 0 computes then sends to rank 1, which computes after: the
        # bound must cover both computes plus the transfer, not just one
        # rank's finish time.
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.compute(flops=5e6)
                yield ctx.send(1, np.ones(1000), tag=1)
            else:
                _ = yield ctx.recv(0, tag=1)
                yield ctx.compute(flops=5e6)
            return None

        run = traced(2, prog)
        graph = HappensBeforeGraph(run.trace)
        analysis = graph.critical_path(run.elapsed_s)
        assert analysis.lower_bound_s == pytest.approx(run.elapsed_s)
        assert analysis.transit_s > 0.0

    def test_empty_trace(self):
        analysis = HappensBeforeGraph([]).critical_path(1.0)
        assert analysis.lower_bound_s == 0.0 and analysis.slack_s == 1.0


class TestPlacementSlack:
    """The Fig. 5 mechanism: naive placement loses to contention, which
    the causal lower bound excludes — so its slack must be larger."""

    @staticmethod
    def _slack(placement):
        image = np.random.default_rng(7).normal(size=(256, 256))
        bank = filter_bank_for_length(8)
        decomp = StripeDecomposition(256, 256, 16, 1)
        machine = paragon(16, placement)  # pvm protocol, as in Appendix A
        run = Engine(machine, record_trace=True).run(
            striped_wavelet_program, image, bank, 1, decomp
        )
        return HappensBeforeGraph(run.trace).critical_path(run.elapsed_s)

    def test_naive_slack_strictly_larger_than_snake(self):
        snake = self._slack("snake")
        naive = self._slack("naive")
        assert naive.slack_s > snake.slack_s
        assert snake.slack_s >= 0.0

"""Differential tests of the engine's mailbox matcher against a
brute-force model of the matching rule (``LinearMatchEngine``, defined
here).

The engine looks exact-key receives up by channel and answers wildcard
receives from the channel heads only.  The model scans *every* queued
entry of every channel for the ``(arrive, src, tag)`` minimum that meets
the deadline, so it also checks the heads-only argument (per-channel
arrivals are monotone).  Both must pop the *identical* entry in the
*identical* order for every interleaving of sends and receives — the
``(arrive, (src, tag))`` tie-break is part of the engine's determinism
contract and every digest pin depends on it.  The property test drives
both matchers through random interleavings at the data-structure level;
the engine-level tests check full runs agree bitwise.  Also here: the
``engine_stats`` surface.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machines import Engine, Machine, api
from repro.machines.cpu import CpuModel
from repro.machines.engine import ANY_SOURCE, ANY_TAG, _RankState, _RecvOp
from repro.machines.network import ContentionNetwork, FullyConnected
from repro.machines.specs import scaled_mesh
from repro.wavelet import filter_bank_for_length
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.parallel.spmd import striped_wavelet_program


class LinearMatchEngine(Engine):
    """The engine with a brute-force matcher: every queued entry of every
    channel is a candidate, and the ``(arrive, src, tag, position)``
    minimum among those that match the receive and arrive by the
    deadline wins.  The reference the engine's matcher must agree with."""

    def _match(self, st, op, before=None):
        candidates = [
            (entry[0], src, tag, position)
            for (src, tag), queue in st.mailbox.items()
            for position, entry in enumerate(queue)
            if op.src in (ANY_SOURCE, src)
            and op.tag in (ANY_TAG, tag)
            and (before is None or entry[0] <= before)
        ]
        if not candidates:
            return None
        _arrive, src, tag, position = min(candidates)
        return (src, tag), st.mailbox[(src, tag)].pop(position)


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


N_SRC = 4
N_TAG = 3

# One mailbox interleaving step: a message arriving on channel
# (src, tag) at some (clamped-monotone) time, or a receive of one of the
# four shapes — exact, wild-source, wild-tag, fully wild — optionally
# with a timed-receive deadline.  Each wildcard is drawn half the time
# and arrival times come from a narrow range, so fully wild receives
# often meet channel heads that tie and the (src, tag) tie-break decides.
_send_step = st.tuples(
    st.just("send"),
    st.integers(0, N_SRC - 1),
    st.integers(0, N_TAG - 1),
    st.integers(0, 6),
)
_recv_step = st.tuples(
    st.just("recv"),
    st.one_of(st.just(-1), st.integers(0, N_SRC - 1)),  # -1 -> ANY_SOURCE
    st.one_of(st.just(-1), st.integers(0, N_TAG - 1)),  # -1 -> ANY_TAG
    st.one_of(st.none(), st.integers(0, 8)),  # timed-receive deadline
)
_interleavings = st.lists(st.one_of(_send_step, _recv_step), min_size=1, max_size=60)


class TestMatcherDifferential:
    @given(steps=_interleavings)
    # Heads tie at t=1, and the (src, tag) and (tag, src) orders disagree.
    @example(steps=[("send", 0, 1, 1), ("send", 1, 0, 1), ("recv", -1, -1, None)])
    @settings(max_examples=200, deadline=None)
    def test_indexed_pops_identical_entries_in_identical_order(self, steps):
        machine = ideal_machine(2)
        indexed = Engine(machine)
        linear = LinearMatchEngine(machine)
        st_indexed = _RankState(0, None)
        st_linear = _RankState(0, None)
        floors = {}
        serial = 0
        for kind, a, b, c in steps:
            if kind == "send":
                key = (a, b)
                # Per-channel arrivals are monotone non-decreasing (the
                # engine's FIFO non-overtaking invariant); clamp to it.
                arrive = float(max(floors.get(key, 0), c))
                floors[key] = arrive
                payload = ("msg", serial)
                serial += 1
                indexed._enqueue(st_indexed, key, arrive, payload, None)
                linear._enqueue(st_linear, key, arrive, payload, None)
            else:
                op = _RecvOp(
                    src=a if a >= 0 else ANY_SOURCE,
                    tag=b if b >= 0 else ANY_TAG,
                )
                before = None if c is None else float(c)
                got = indexed._match(st_indexed, op, before)
                want = linear._match(st_linear, op, before)
                assert got == want
        # Whatever was never matched must agree too.
        left_indexed = {k: q for k, q in st_indexed.mailbox.items() if q}
        left_linear = {k: q for k, q in st_linear.mailbox.items() if q}
        assert left_indexed == left_linear

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_full_runs_agree_bitwise(self, data):
        """A fan-in with wildcard receives produces identical results,
        finish times, and event counts under both matchers."""
        nranks = data.draw(st.integers(2, 6), label="nranks")
        # Each sender sends one message per tag, in its own drawn order
        # and with its own compute skew, so arrival order varies.
        orders = [
            data.draw(st.permutations(list(range(N_TAG))), label=f"order{s}")
            for s in range(1, nranks)
        ]
        skews = [
            data.draw(st.integers(0, 5), label=f"skew{s}")
            for s in range(1, nranks)
        ]
        # Root receives by tag in a drawn multiset order, then drains
        # the tail with fully-wild receives (always satisfiable).
        tag_multiset = [t for t in range(N_TAG) for _ in range(nranks - 1)]
        recv_tags = data.draw(st.permutations(tag_multiset), label="recv_tags")
        n_wild = data.draw(st.integers(0, len(recv_tags)), label="n_wild")
        plan = recv_tags[: len(recv_tags) - n_wild]

        def prog(ctx):
            if ctx.rank == 0:
                got = []
                for tag in plan:
                    got.append((yield ctx.recv(tag=tag)))
                for _ in range(n_wild):
                    got.append((yield ctx.recv()))
                return got
            yield ctx.compute(flops=1e5 * skews[ctx.rank - 1])
            for tag in orders[ctx.rank - 1]:
                yield ctx.send(0, (ctx.rank, tag), tag=tag)
            return None

        a = Engine(ideal_machine(nranks)).run(prog)
        b = LinearMatchEngine(ideal_machine(nranks)).run(prog)
        assert a.results == b.results
        assert a.elapsed_s == b.elapsed_s
        assert a.finish_times == b.finish_times
        assert a.engine_stats["events"] == b.engine_stats["events"]

    @pytest.mark.parametrize("placement", ["snake", "naive"])
    def test_mesh_wavelet_and_collectives_agree_bitwise(self, placement):
        """A striped decomposition, a k-nomial broadcast and a
        Rabenseifner all-reduce on a contended 16-rank mesh give the same
        values, virtual times and contention under both matchers."""
        nranks, cols = 16, 16
        rows = 4 * nranks
        image = np.random.default_rng(0).standard_normal((rows, cols))
        bank = filter_bank_for_length(4)
        decomp = StripeDecomposition(rows, cols, nranks, 1)

        def prog(ctx):
            gathered = yield from striped_wavelet_program(ctx, image, bank, 1, decomp)
            checksum = 0.0
            if ctx.rank == 0:
                checksum = float(sum(np.sum(piece["approx"]) for piece in gathered))
            checksum = yield from api.broadcast_tree(ctx, checksum, root=0)
            share = np.full(ctx.nranks, checksum / ctx.nranks)
            total = yield from api.allreduce_rabenseifner(ctx, share)
            return float(total[0])

        a = Engine(scaled_mesh(nranks, placement)).run(prog)
        b = LinearMatchEngine(scaled_mesh(nranks, placement)).run(prog)
        assert a.results == b.results
        assert a.elapsed_s == b.elapsed_s
        assert a.contention_s == b.contention_s
        assert a.finish_times == b.finish_times


class TestEngineStats:
    def fan_in(self):
        def prog(ctx):
            if ctx.rank == 0:
                got = []
                for _ in range(ctx.nranks - 1):
                    got.append((yield ctx.recv()))
                return sorted(got)
            yield ctx.send(0, ctx.rank, tag=3)
            return None

        return Engine(ideal_machine(4)).run(prog)

    def test_stats_surface(self):
        stats = self.fan_in().engine_stats
        assert stats["events"] > 0
        assert stats["wildcard_matches"] == 3
        # Routing caches nothing; the two keys the benchmark's trace
        # reader still reads are literal zeros.
        assert stats["route_cache_hits"] == 0
        assert stats["path_cache_hits"] == 0
        assert "route_cache_misses" not in stats
        assert "path_cache_misses" not in stats

"""Determinism regression tests and property tests for the engine's
matching/sizing primitives.

The fault subsystem's whole value rests on replay determinism: two runs
of the same (program, machine, plan) must produce byte-identical traces
and budgets.  These tests pin that, plus the white-box contracts the
scheduler relies on — ``payload_nbytes`` totalling rules and the
``(arrive, (src, tag))`` tie-break in mailbox matching.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.machines import ANY_SOURCE, ANY_TAG, Engine, paragon, payload_nbytes
from repro.machines.engine import _RankState, _RecvOp
from repro.machines.faults import FaultConfig, FaultPlan


def _busy_program(ctx, steps=3):
    """Ring exchange with compute, wildcard recvs, and checkpoints —
    exercises every trace event kind."""
    right = (ctx.rank + 1) % ctx.nranks
    acc = float(ctx.rank)
    for step in range(steps):
        yield ctx.compute(flops=2e6)
        yield ctx.send(right, np.full(16, acc), tag=step)
        token = yield ctx.recv(tag=step)  # wildcard source
        acc += float(token[0])
        yield ctx.checkpoint((step + 1, acc))
    return acc


def _snapshot(run):
    """Byte-stable fingerprint of everything a run produced."""
    return pickle.dumps(
        (run.elapsed_s, run.results, run.budgets, run.finish_times,
         run.messages_sent, run.bytes_sent, run.fault_stats, run.trace),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


class TestReplayDeterminism:
    def test_back_to_back_runs_byte_identical(self):
        # Fresh machine per run: the contention network carries state.
        runs = [
            Engine(paragon(4, protocol="nx"), record_trace=True).run(_busy_program)
            for _ in range(2)
        ]
        assert _snapshot(runs[0]) == _snapshot(runs[1])

    def test_faulted_runs_byte_identical(self):
        cfg = FaultConfig(
            drop_rate=0.3, duplicate_rate=0.2, corrupt_rate=0.1,
            delay_rate=0.3, max_delay_s=1e-3,
            stragglers=((1, 2.0, 0.0, 1.0),),
            link_slowdowns=((0, 2, 3.0, 0.0, 1.0),),
        )
        runs = [
            Engine(
                paragon(4, protocol="nx"), record_trace=True,
                faults=FaultPlan(11, cfg),
            ).run(_busy_program)
            for _ in range(2)
        ]
        assert _snapshot(runs[0]) == _snapshot(runs[1])

    def test_tracing_does_not_perturb_schedule(self):
        # Fault decisions are hash-keyed, not stream-drawn, so observing
        # the run (tracing on) cannot change any timing or value.
        plan = lambda: FaultPlan(3, FaultConfig(drop_rate=0.3, duplicate_rate=0.2))  # noqa: E731
        traced = Engine(
            paragon(4, protocol="nx"), record_trace=True, faults=plan()
        ).run(_busy_program)
        blind = Engine(paragon(4, protocol="nx"), faults=plan()).run(_busy_program)
        assert traced.elapsed_s == blind.elapsed_s
        assert traced.results == blind.results
        assert traced.budgets == blind.budgets
        assert traced.fault_stats == blind.fault_stats

    def test_different_seeds_diverge(self):
        cfg = FaultConfig(drop_rate=0.4, duplicate_rate=0.2)
        elapsed = {
            Engine(paragon(4, protocol="nx"), faults=FaultPlan(seed, cfg))
            .run(_busy_program).elapsed_s
            for seed in range(6)
        }
        assert len(elapsed) > 1  # seeds actually steer the schedule


# --------------------------------------------------------------------------
# payload_nbytes properties
# --------------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=8),
    st.binary(max_size=16),
    hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32, np.int32]),
        shape=st.integers(0, 8),
        elements=st.just(0),
    ),
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=12,
)


class TestPayloadNbytesProperties:
    @given(payload=payloads)
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_int(self, payload):
        size = payload_nbytes(payload)
        assert isinstance(size, int)
        assert size >= 0

    @given(payload=payloads)
    @settings(max_examples=60, deadline=None)
    def test_list_adds_item_plus_header(self, payload):
        assert payload_nbytes([payload]) == payload_nbytes(payload) + 8
        assert payload_nbytes((payload,)) == payload_nbytes(payload) + 8

    @given(items=st.lists(scalars, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_list_is_sum_of_items(self, items):
        assert payload_nbytes(items) == sum(payload_nbytes(i) + 8 for i in items)

    @given(
        arr=hnp.arrays(
            dtype=st.sampled_from([np.float64, np.float32, np.int16]),
            shape=hnp.array_shapes(max_dims=3, max_side=5).map(
                lambda s: s if all(s) else (0,)
            ),
            elements=st.just(1),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_array_reports_buffer_size(self, arr):
        assert payload_nbytes(arr) == arr.nbytes

    def test_zero_size_array_is_zero(self):
        assert payload_nbytes(np.empty(0)) == 0
        assert payload_nbytes(np.empty((3, 0, 2))) == 0

    @given(blob=st.binary(max_size=64), text=st.text(max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_bytes_and_text(self, blob, text):
        assert payload_nbytes(blob) == len(blob)
        assert payload_nbytes(text) == len(text.encode())


# --------------------------------------------------------------------------
# _match tie-break properties (white-box)
# --------------------------------------------------------------------------


def _engine_and_state(nranks=8):
    engine = Engine(paragon(nranks, protocol="nx"))
    return engine, _RankState(0, None)


channels = st.lists(
    st.tuples(
        st.integers(0, 7),  # src
        st.integers(0, 3),  # tag
        st.floats(0.0, 1.0, allow_nan=False),  # arrive
    ),
    min_size=1,
    max_size=10,
    unique_by=lambda c: (c[0], c[1]),  # one head message per channel
)


class TestMatchProperties:
    @given(msgs=channels)
    @settings(max_examples=100, deadline=None)
    def test_wildcard_picks_lexicographic_minimum(self, msgs):
        engine, state = _engine_and_state()
        for src, tag, arrive in msgs:
            state.mailbox[(src, tag)] = [(arrive, f"m{src}.{tag}", None)]
        matched = engine._match(state, _RecvOp(src=ANY_SOURCE, tag=ANY_TAG))
        assert matched is not None
        (src, tag), (arrive, _payload, _meta) = matched
        expected = min((a, (s, t)) for s, t, a in msgs)
        assert (arrive, (src, tag)) == expected

    @given(msgs=channels, src=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_source_filter_respected(self, msgs, src):
        engine, state = _engine_and_state()
        for s, t, a in msgs:
            state.mailbox[(s, t)] = [(a, "x", None)]
        matched = engine._match(state, _RecvOp(src=src, tag=ANY_TAG))
        candidates = [(a, (s, t)) for s, t, a in msgs if s == src]
        if not candidates:
            assert matched is None
        else:
            (m_src, m_tag), (m_arrive, _, _) = matched
            assert m_src == src
            assert (m_arrive, (m_src, m_tag)) == min(candidates)

    @given(msgs=channels, deadline=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_before_excludes_late_arrivals(self, msgs, deadline):
        engine, state = _engine_and_state()
        for s, t, a in msgs:
            state.mailbox[(s, t)] = [(a, "x", None)]
        matched = engine._match(
            state, _RecvOp(src=ANY_SOURCE, tag=ANY_TAG), before=deadline
        )
        in_time = [(a, (s, t)) for s, t, a in msgs if a <= deadline]
        if not in_time:
            assert matched is None
            # late messages must stay queued for a later receive
            assert sum(len(q) for q in state.mailbox.values()) == len(msgs)
        else:
            (m_src, m_tag), (m_arrive, _, _) = matched
            assert (m_arrive, (m_src, m_tag)) == min(in_time)

    def test_tie_break_is_src_then_tag(self):
        engine, state = _engine_and_state()
        state.mailbox[(2, 0)] = [(0.5, "late src", None)]
        state.mailbox[(1, 3)] = [(0.5, "early src", None)]
        state.mailbox[(1, 1)] = [(0.5, "early src, early tag", None)]
        matched = engine._match(state, _RecvOp(src=ANY_SOURCE, tag=ANY_TAG))
        assert matched[0] == (1, 1)

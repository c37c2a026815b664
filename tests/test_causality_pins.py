"""Pins of the causal outputs over traced engine runs, and a property of
``happens_before`` against dense vector clocks.

The sha256 pins fix four outputs bitwise on three kinds of run:

* the Chrome/Perfetto export (``chrome_trace``);
* the critical path (``lower_bound_s`` and ``path``);
* the race report (``certify_deterministic``: wildcard count and races);
* ``happens_before`` over a strided grid of event pairs.

The runs are a traced 64-rank striped wavelet followed by a k-nomial
broadcast and a Rabenseifner all-reduce (snake and naive placement), one
fault-fuzzed recovery run from ``tests/test_fault_fuzz.py``, and a
32-rank wildcard fan-in whose receives race.

The oracle, :func:`dense_clocks`, stamps a full Fidge/Mattern vector
clock on every event in the trace's *list* order.  That order is
independent of the ``(end_s, index)`` topological order the graph
derives its per-rank clock components over.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, RecvTimeoutError
from repro.machines import Engine, Machine, api
from repro.machines.causality import (
    HappensBeforeGraph,
    certify_deterministic,
    chrome_trace,
)
from repro.machines.cpu import CpuModel
from repro.machines.engine import ANY_SOURCE, ANY_TAG
from repro.machines.network import ContentionNetwork, FullyConnected
from repro.machines.specs import scaled_mesh
from repro.wavelet import filter_bank_for_length
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.parallel.spmd import striped_wavelet_program
from tests._digest_util import digest
from tests.test_fault_fuzz import _recover


def dense_clocks(trace) -> list:
    """Fidge/Mattern vector clock of every event, in trace list order.

    Each event copies its rank's previous clock, a receive merges the
    clock of its matched send element-wise, and the event then ticks its
    own rank's component.
    """
    nranks = max((e.rank for e in trace), default=-1) + 1
    send_of = {
        e.msg_id: i for i, e in enumerate(trace) if e.kind == "send" and e.msg_id >= 0
    }
    last: dict = {}
    clocks: list = []
    for i, event in enumerate(trace):
        prev = last.get(event.rank)
        clock = list(clocks[prev]) if prev is not None else [0] * nranks
        send = send_of.get(event.match_id) if event.kind == "recv" else None
        if send is not None:
            assert send < i, "a matched send is recorded before its receive"
            clock = [max(x, y) for x, y in zip(clock, clocks[send])]
        clock[event.rank] += 1
        clocks.append(clock)
        last[event.rank] = i
    return clocks


def dense_happens_before(clocks, a: int, b: int) -> bool:
    """``a -> b`` iff ``VC(a) <= VC(b)`` element-wise and they differ."""
    va, vb = clocks[a], clocks[b]
    return va != vb and all(x <= y for x, y in zip(va, vb))


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


# --------------------------------------------------------------------------
# Pinned runs
# --------------------------------------------------------------------------


def mesh_collectives_program(ctx, image, bank, decomp):
    """Striped one-level wavelet, then a k-nomial broadcast and a
    Rabenseifner all-reduce of the collected checksum."""
    gathered = yield from striped_wavelet_program(ctx, image, bank, 1, decomp)
    checksum = 0.0
    if ctx.rank == 0:
        checksum = float(sum(np.sum(piece["approx"]) for piece in gathered))
    checksum = yield from api.broadcast_tree(ctx, checksum, root=0)
    share = np.full(ctx.nranks, checksum / ctx.nranks)
    total = yield from api.allreduce_rabenseifner(ctx, share)
    return float(total[0])


def wildcard_fan_in(ctx, rounds):
    """Every rank sends to rank 0, which posts ``recv()`` P-1 times per
    round; skewed compute makes the arrival order a timing accident."""
    got = []
    for _ in range(rounds):
        if ctx.rank == 0:
            for _ in range(ctx.nranks - 1):
                got.append((yield ctx.recv()))
        else:
            yield ctx.compute(flops=1e4 * ((ctx.rank * 7) % 5))
            yield ctx.send(0, ctx.rank, tag=ctx.rank % 3)
    return got


def _mesh_run(placement):
    nranks = 64
    image = np.random.default_rng(0).standard_normal((4 * nranks, 16))
    bank = filter_bank_for_length(4)
    decomp = StripeDecomposition(4 * nranks, 16, nranks, 1)
    engine = Engine(scaled_mesh(nranks, placement), record_trace=True)
    return engine.run(mesh_collectives_program, image, bank, decomp)


def _fuzzed_run():
    _reference, _plan, outcome = _recover("pic", 7, 0.4, record_trace=True)
    assert outcome.restarts == 2
    return outcome.run


def _fan_in_run():
    return Engine(scaled_mesh(32, "snake"), record_trace=True).run(wildcard_fan_in, 2)


RUNS = {
    "mesh64-snake": lambda: _mesh_run("snake"),
    "mesh64-naive": lambda: _mesh_run("naive"),
    "fuzzed-pic-7-0.4": _fuzzed_run,
    "fan-in-32": _fan_in_run,
}

#: (chrome_trace, critical_path, certify_deterministic, happens_before grid)
PINS = {
    "fan-in-32": (
        "a2b19dfe78924a3cf64b540333e443cfee7f4cb9a5afdcc68639c5192d3ffd59",
        "57bdf5a0200598779855cfb3b4f5b463ee65834188c8ed6750587167574cf7bd",
        "7cddad5a3dbe0de2b9893dd03cc0f4141a3dc666052cee635efddb32d6e3289e",
        "cc7acd4d065fc72b5b5a8c115c1a9577068631f5ac69c63604c579b3a4beac8e",
    ),
    "fuzzed-pic-7-0.4": (
        "0cf281fa0f176a6bc5d3b7e72df6c01033c0803cc7afcb8d78272cdb81d8f32c",
        "6c7e5b270fbbee42baa7ada8a0b38d3839cf425210b720afaf5d0e56da24a98a",
        "1da5fcf0cc0858b6b2ba28a58940ba6a44a570305aeacca8bb451f9445a05b11",
        "50e275ae46525e32f7579c2704a9aa4c09ce504ecedd265f9edf54f05065887b",
    ),
    "mesh64-naive": (
        "7b36cae521e21ca8fa10dbb5ad7e2965c974c72d2a7af8abb78fa575db45a0c1",
        "84a68776bda90e0e8a9f148a42628ccac2fd90a91fb884637ccc5aa6e64b5258",
        "1da5fcf0cc0858b6b2ba28a58940ba6a44a570305aeacca8bb451f9445a05b11",
        "03583b5153cfc6c250e46c1beb96ea4fab245fe2c408b82598f1902e48392463",
    ),
    "mesh64-snake": (
        "186eed8f473ffd0ac5b0e43891785339e1b2467a554559367a36ed0664ff1809",
        "1db2543e06d012a77d96cf741cc5949550b27d4fc391e7885a94353e738fb82d",
        "1da5fcf0cc0858b6b2ba28a58940ba6a44a570305aeacca8bb451f9445a05b11",
        "7674d0086399ce864b5096d54803e1a1c2d8250daf5208b4c9ce9ac69b04090b",
    ),
}

_runs: dict = {}


def _run(name):
    if name not in _runs:
        _runs[name] = RUNS[name]()
    return _runs[name]


def _grid(nevents: int) -> list:
    stride = max(1, nevents // 40)
    return list(range(0, nevents, stride))


def causal_digests(run) -> tuple:
    graph = HappensBeforeGraph(run.trace)
    analysis = graph.critical_path(run.elapsed_s)
    report = certify_deterministic(graph)
    grid = _grid(len(graph))
    verdicts = [graph.happens_before(a, b) for a in grid for b in grid]
    return (
        digest(chrome_trace(run)),
        digest((analysis.lower_bound_s, analysis.path)),
        digest(
            (
                report.wildcard_recvs,
                [
                    (r.recv_index, r.rank, r.posted_src, r.posted_tag,
                     r.matched_send, r.alternatives)
                    for r in report.races
                ],
            )
        ),
        digest(verdicts),
    )


class TestCausalPins:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_causal_outputs_are_pinned(self, name):
        assert causal_digests(_run(name)) == PINS[name]

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_grid_verdicts_match_dense_clocks(self, name):
        trace = _run(name).trace
        graph = HappensBeforeGraph(trace)
        clocks = dense_clocks(trace)
        grid = _grid(len(trace))
        for a in grid:
            for b in grid:
                assert graph.happens_before(a, b) == dense_happens_before(clocks, a, b)

    def test_fan_in_races(self):
        report = certify_deterministic(_run("fan-in-32").trace)
        assert report.wildcard_recvs == 62
        assert not report.deterministic


# --------------------------------------------------------------------------
# Property: derived happens-before equals the dense oracle
# --------------------------------------------------------------------------

N_TAGS = 2
_TIMEOUTS = (None, 1e-4, 1e-3)

# A message: (src, dst, tag, receive shape, receive timeout, send slot,
# receive slot), ranks reduced modulo the drawn rank count.  Each rank
# runs its sends, receives and local steps in slot order, so a receive
# can be posted before or after the send it is meant for.
_message = st.tuples(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, N_TAGS - 1),
    st.sampled_from(("exact", "any-source", "any-tag", "any")),
    st.sampled_from(_TIMEOUTS),
    st.integers(0, 6),
    st.integers(0, 6),
)
# A local step: (rank, kind, compute units, slot).
_local = st.tuples(
    st.integers(0, 5),
    st.sampled_from(("compute", "checkpoint")),
    st.integers(0, 3),
    st.integers(0, 6),
)


@st.composite
def random_programs(draw):
    nranks = draw(st.integers(2, 6), label="nranks")
    messages = draw(st.lists(_message, min_size=1, max_size=10), label="messages")
    locals_ = draw(st.lists(_local, max_size=8), label="locals")
    slotted = [[] for _ in range(nranks)]
    for seq, (src, dst, tag, shape, timeout_s, send_slot, recv_slot) in enumerate(messages):
        src, dst = src % nranks, dst % nranks
        slotted[src].append((send_slot, seq, ("send", dst, tag)))
        posted_src = -1 if shape in ("any-source", "any") else src
        posted_tag = -1 if shape in ("any-tag", "any") else tag
        slotted[dst].append((recv_slot, seq, ("recv", posted_src, posted_tag, timeout_s)))
    for seq, (rank, kind, units, slot) in enumerate(locals_, start=len(messages)):
        slotted[rank % nranks].append((slot, seq, (kind, units)))
    return nranks, [[step for *_, step in sorted(ops)] for ops in slotted]


def _plan_program(ctx, plans):
    for step in plans[ctx.rank]:
        kind = step[0]
        if kind == "compute":
            yield ctx.compute(flops=1e5 * step[1])
        elif kind == "checkpoint":
            yield ctx.checkpoint({"rank": ctx.rank})
        elif kind == "send":
            yield ctx.send(step[1], ctx.rank, tag=step[2])
        else:
            _, src, tag, timeout_s = step
            try:
                yield ctx.recv(
                    ANY_SOURCE if src < 0 else src,
                    tag=ANY_TAG if tag < 0 else tag,
                    timeout_s=timeout_s,
                )
            except RecvTimeoutError:
                pass
    return None


class TestDerivedHappensBefore:
    @given(program=random_programs())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_vector_clocks_on_every_pair(self, program):
        nranks, plans = program
        try:
            run = Engine(ideal_machine(nranks), record_trace=True).run(_plan_program, plans)
        except DeadlockError:
            assume(False)
        trace = run.trace
        graph = HappensBeforeGraph(trace)
        clocks = dense_clocks(trace)
        for a in range(len(trace)):
            for b in range(len(trace)):
                want = dense_happens_before(clocks, a, b)
                assert graph.happens_before(a, b) == want, (a, b)

"""Tests for the discrete-event SPMD engine."""

import numpy as np
import pytest

from repro.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
)
from repro.machines import ANY_SOURCE, Engine, Machine, paragon, payload_nbytes, workstation
from repro.machines.cpu import CpuModel
from repro.machines.network import ContentionNetwork, FullyConnected
from repro.wavelet.cost import OpCount


def ideal_machine(nranks, **overrides):
    """A friction-light machine for semantics-focused tests."""
    kwargs = dict(sw_send_overhead_s=1e-6, sw_recv_overhead_s=1e-6, copy_bytes_per_s=1e9)
    kwargs.update(overrides)
    return Machine(
        name="ideal",
        cpu=CpuModel(flops_per_s=1e9, intops_per_s=1e9, memops_per_s=1e9),
        network=ContentionNetwork(
            topology=FullyConnected(nranks), latency_s=1e-6, per_hop_s=0.0, bytes_per_s=1e9
        ),
        placement=list(range(nranks)),
        **kwargs,
    )


class TestPayloadNbytes:
    def test_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_scalar(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(3.5) == 8

    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_containers(self):
        assert payload_nbytes([np.zeros(2), np.zeros(2)]) == 2 * (16 + 8)

    def test_string_and_bytes(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_dict(self):
        assert payload_nbytes({"a": 1.0}) > 8


class TestBasicMessaging:
    def test_send_recv_value(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, np.arange(4.0))
                return None
            data = yield ctx.recv(0)
            return float(data.sum())

        result = Engine(ideal_machine(2)).run(prog)
        assert result.results[1] == 6.0

    def test_payload_copied_at_send(self):
        def prog(ctx):
            if ctx.rank == 0:
                data = np.zeros(4)
                yield ctx.send(1, data)
                data[:] = 99.0  # mutate after send: receiver must not see it
                return None
            received = yield ctx.recv(0)
            return float(received.sum())

        result = Engine(ideal_machine(2)).run(prog)
        assert result.results[1] == 0.0

    def test_fifo_per_sender_tag(self):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield ctx.send(1, i, tag=7)
                return None
            got = []
            for _ in range(5):
                got.append((yield ctx.recv(0, tag=7)))
            return got

        result = Engine(ideal_machine(2)).run(prog)
        assert result.results[1] == [0, 1, 2, 3, 4]

    def test_tag_filtering(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, "low", tag=1)
                yield ctx.send(1, "high", tag=2)
                return None
            high = yield ctx.recv(0, tag=2)
            low = yield ctx.recv(0, tag=1)
            return (high, low)

        result = Engine(ideal_machine(2)).run(prog)
        assert result.results[1] == ("high", "low")

    def test_any_source(self):
        def prog(ctx):
            if ctx.rank in (0, 1):
                yield ctx.send(2, ctx.rank)
                return None
            a = yield ctx.recv(ANY_SOURCE)
            b = yield ctx.recv(ANY_SOURCE)
            return sorted([a, b])

        result = Engine(ideal_machine(3)).run(prog)
        assert result.results[2] == [0, 1]

    def test_self_send(self):
        def prog(ctx):
            yield ctx.send(ctx.rank, 42)
            got = yield ctx.recv(ctx.rank)
            return got

        result = Engine(ideal_machine(1)).run(prog)
        assert result.results[0] == 42

    def test_bad_destination_raises(self):
        def prog(ctx):
            yield ctx.send(5, 1)

        with pytest.raises(CommunicationError):
            Engine(ideal_machine(2)).run(prog)

    def test_user_tag_negative_raises(self):
        def prog(ctx):
            yield ctx.send(0, 1, tag=-3)

        with pytest.raises(CommunicationError):
            Engine(ideal_machine(1)).run(prog)


class TestDeadlock:
    def test_mutual_recv_deadlocks(self):
        def prog(ctx):
            other = 1 - ctx.rank
            _ = yield ctx.recv(other)

        with pytest.raises(DeadlockError) as exc:
            Engine(ideal_machine(2)).run(prog)
        assert 0 in exc.value.waiting and 1 in exc.value.waiting

    def test_missing_message_deadlocks(self):
        def prog(ctx):
            if ctx.rank == 1:
                _ = yield ctx.recv(0, tag=9)

        with pytest.raises(DeadlockError):
            Engine(ideal_machine(2)).run(prog)


class TestTimingSemantics:
    def test_compute_advances_clock(self):
        def prog(ctx):
            yield ctx.compute(flops=1e9)
            return None

        result = Engine(ideal_machine(1)).run(prog)
        assert result.elapsed_s == pytest.approx(1.0)

    def test_elapse_kind_routing(self):
        def prog(ctx):
            yield ctx.elapse(0.5, kind="work")
            yield ctx.elapse(0.25, kind="redundancy")
            return None

        result = Engine(ideal_machine(1)).run(prog)
        budget = result.budgets[0]
        assert budget.work_s == pytest.approx(0.5)
        assert budget.redundancy_s == pytest.approx(0.25)

    def test_elapse_bad_kind_raises(self):
        def prog(ctx):
            yield ctx.elapse(0.5, kind="overhead")

        with pytest.raises(ConfigurationError):
            Engine(ideal_machine(1)).run(prog)

    @pytest.mark.parametrize("amount", [-5.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "charge",
        [
            lambda ctx, x: ctx.elapse(x),
            lambda ctx, x: ctx.compute(flops=x * 1e9),
            lambda ctx, x: ctx.compute(memops=x),
            lambda ctx, x: ctx.charge(OpCount(intops=x)),
        ],
        ids=["elapse", "compute-flops", "compute-memops", "charge-intops"],
    )
    def test_negative_or_non_finite_charge_rejected(self, charge, amount):
        """A charge that would run virtual time backwards or make it NaN
        fails at the boundary."""

        def prog(ctx):
            yield charge(ctx, amount)

        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            Engine(ideal_machine(1)).run(prog)

    def test_zero_charges_accepted(self):
        def prog(ctx):
            yield ctx.elapse(0.0)
            yield ctx.compute(flops=0.0)
            yield ctx.charge(OpCount())
            return None

        result = Engine(ideal_machine(1)).run(prog)
        assert result.elapsed_s == 0.0

    def test_blocked_recv_counts_as_comm(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.compute(flops=1e9)  # receiver blocks ~1 virtual sec
                yield ctx.send(1, 1)
                return None
            _ = yield ctx.recv(0)
            return None

        result = Engine(ideal_machine(2)).run(prog)
        assert result.budgets[1].comm_s == pytest.approx(1.0, rel=0.01)

    def test_imbalance_assigned_to_early_finishers(self):
        def prog(ctx):
            yield ctx.compute(flops=1e9 * (1 + ctx.rank))
            return None

        result = Engine(ideal_machine(2)).run(prog)
        assert result.budgets[0].imbalance_s == pytest.approx(1.0)
        assert result.budgets[1].imbalance_s == pytest.approx(0.0)

    def test_redundant_compute_budget(self):
        def prog(ctx):
            yield ctx.compute(flops=1e9, redundant=True)
            return None

        result = Engine(ideal_machine(1)).run(prog)
        assert result.budgets[0].redundancy_s == pytest.approx(1.0)
        assert result.budgets[0].work_s == 0.0

    def test_paging_slows_compute(self):
        def prog(ctx):
            yield ctx.set_resident_memory(2 * ctx.machine.cpu.memory_bytes)
            yield ctx.compute(flops=1e9)
            return None

        machine = ideal_machine(1)
        result = Engine(machine).run(prog)
        assert result.elapsed_s > 1.0

    def test_budget_fractions_sum_to_one(self):
        def prog(ctx):
            yield ctx.compute(flops=1e8 * (1 + ctx.rank))
            if ctx.rank == 0:
                yield ctx.send(1, np.zeros(100))
            else:
                _ = yield ctx.recv(0)
            return None

        result = Engine(ideal_machine(2)).run(prog)
        for budget in result.budgets:
            assert sum(budget.fractions().values()) == pytest.approx(1.0)


class TestRunResult:
    def test_results_ordered_by_rank(self):
        def prog(ctx):
            yield ctx.compute(flops=1)
            return ctx.rank * 10

        result = Engine(ideal_machine(4)).run(prog)
        assert result.results == [0, 10, 20, 30]

    def test_mean_and_max_comm(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, np.zeros(1000))
            elif ctx.rank == 1:
                _ = yield ctx.recv(0)
            yield ctx.compute(flops=1)
            return None

        result = Engine(ideal_machine(3)).run(prog)
        assert result.max_comm_s() >= result.mean_comm_s() >= 0.0

    def test_non_generator_program_raises(self):
        def prog(ctx):
            return 42

        with pytest.raises(ConfigurationError):
            Engine(ideal_machine(1)).run(prog)

    def test_program_args_forwarded(self):
        def prog(ctx, base, scale=1):
            yield ctx.compute(flops=1)
            return base + scale * ctx.rank

        result = Engine(ideal_machine(3)).run(prog, 100, scale=2)
        assert result.results == [100, 102, 104]


class TestMachineValidation:
    def test_duplicate_placement_raises(self):
        with pytest.raises(ConfigurationError):
            Machine(
                name="bad",
                cpu=CpuModel(1e9, 1e9, 1e9),
                network=ContentionNetwork(topology=FullyConnected(2)),
                placement=[0, 0],
            )

    def test_out_of_range_placement_raises(self):
        with pytest.raises(ConfigurationError):
            Machine(
                name="bad",
                cpu=CpuModel(1e9, 1e9, 1e9),
                network=ContentionNetwork(topology=FullyConnected(2)),
                placement=[0, 5],
            )

    def test_spec_factories(self):
        assert paragon(8).nranks == 8
        assert workstation().nranks == 1
        with pytest.raises(ConfigurationError):
            paragon(65)
        with pytest.raises(ConfigurationError):
            paragon(4, placement="zigzag")

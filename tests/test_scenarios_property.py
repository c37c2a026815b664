"""Property tests for the adversary overlay (hypothesis).

Two invariants make adversarial runs replayable and composable:

* **Interleaving independence** — the overlay's decision for a message
  is keyed by its per-channel ordinal, never by global arrival order:
  feeding the same per-channel send sequences in any global interleaving
  yields identical :class:`AdversaryAction` streams.  (This is what lets
  a persisted finding replay bitwise even though the engine's event
  order depends on timing.)
* **Fault-plan non-interference** — wrapping a :class:`FaultPlan` in an
  :class:`AdversaryPlan` never changes a single random-fault decision:
  the overlay's hash draws live in salted domains disjoint from the
  fault plan's, and the delegation is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.faults import FaultConfig, FaultPlan
from repro.machines.tags import COLLECTIVE_TAG_BASE
from repro.scenarios import AdversaryConfig, AdversaryPlan
from repro.scenarios.adversary import _poison_value

#: Behaviors whose intercept decisions the interleaving property covers
#: ("cartel" attacks compute time through straggler_factor, not sends).
MESSAGE_BEHAVIORS = (
    "withhold", "jam", "spam", "poison", "replay", "reorder", "byzantine",
)

# Channels from the adversary (rank 1) to its peers.  The byzantine
# behavior only wakes on collective-band tags, so include one.
CHANNELS = (
    (0, 11),
    (2, 11),
    (3, 17),
    (0, COLLECTIVE_TAG_BASE + 1),
)


def _payload(channel_index: int, ordinal: int) -> float:
    """A distinct float payload per (channel, ordinal) — float so the
    poisoning behaviors always find a leaf to perturb."""
    return 1.0 + channel_index + ordinal / 16.0


def _actions_for_order(behavior: str, seed: int, order: list) -> dict:
    """Feed one global interleaving; collect action per (channel, ordinal)."""
    plan = AdversaryPlan(
        seed, AdversaryConfig(behavior=behavior, rank=1, rate=0.5)
    )
    counters = {index: 0 for index in set(order)}
    actions = {}
    for channel_index in order:
        dst, tag = CHANNELS[channel_index]
        ordinal = counters[channel_index]
        counters[channel_index] = ordinal + 1
        action = plan.intercept_send(
            1, dst, tag, _payload(channel_index, ordinal), 0.0
        )
        actions[(channel_index, ordinal)] = action
    return actions


@st.composite
def interleavings(draw):
    """Two global orders of the same per-channel send sequences."""
    counts = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=len(CHANNELS),
            max_size=len(CHANNELS),
        )
    )
    multiset = [
        index for index, count in enumerate(counts) for _ in range(count)
    ]
    # Any permutation of the channel-id multiset is a valid interleaving:
    # popping each channel's sends FIFO preserves per-channel order.
    shuffled = draw(st.permutations(multiset))
    return multiset, list(shuffled)


@pytest.mark.parametrize("behavior", MESSAGE_BEHAVIORS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), orders=interleavings())
@settings(max_examples=25, deadline=None)
def test_decisions_independent_of_interleaving(behavior, seed, orders):
    order_a, order_b = orders
    assert _actions_for_order(behavior, seed, order_a) == _actions_for_order(
        behavior, seed, order_b
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    channel=st.sampled_from(range(len(CHANNELS))),
    count=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_replay_always_resends_the_channel_predecessor(seed, channel, count):
    plan = AdversaryPlan(
        seed, AdversaryConfig(behavior="replay", rank=1, rate=1.0)
    )
    dst, tag = CHANNELS[channel]
    for ordinal in range(count):
        action = plan.intercept_send(1, dst, tag, _payload(channel, ordinal), 0.0)
        if ordinal == 0:
            assert action is None  # nothing to replay yet
        else:
            assert action.replay
            assert action.replay_payload == _payload(channel, ordinal - 1)


fault_configs = st.builds(
    FaultConfig,
    drop_rate=st.floats(min_value=0.0, max_value=0.3),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.3),
    corrupt_rate=st.floats(min_value=0.0, max_value=0.3),
    delay_rate=st.floats(min_value=0.0, max_value=0.5),
    max_delay_s=st.floats(min_value=0.0, max_value=1e-3),
    crashes=st.sampled_from([(), ((2, 0.5),), ((1, 0.25), (3, 0.75))]),
    stragglers=st.sampled_from([(), ((3, 2.0, 0.0, 1.0),)]),
)

adversaries = st.builds(
    AdversaryConfig,
    behavior=st.sampled_from(MESSAGE_BEHAVIORS + ("cartel",)),
    rank=st.just(1),
    rate=st.floats(min_value=0.0, max_value=1.0),
)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    config=fault_configs,
    adversary=adversaries,
)
@settings(max_examples=40, deadline=None)
def test_overlay_never_perturbs_fault_decisions(seed, config, adversary):
    bare = FaultPlan(seed, config)
    overlaid = AdversaryPlan(seed, adversary, config)
    for msg_index in range(12):
        for attempt in range(3):
            assert overlaid.message_fate(msg_index, attempt) == bare.message_fate(
                msg_index, attempt
            )
    assert overlaid.crash_schedule == bare.crash_schedule
    assert overlaid.has_link_slowdowns == bare.has_link_slowdowns
    for t in (0.0, 0.5, 1.5):
        assert overlaid.link_factor(0, 1, t) == bare.link_factor(0, 1, t)
        for rank in range(4):
            if rank in (adversary.cartel_ranks if adversary.behavior == "cartel" else ()):
                continue  # the cartel is *supposed* to slow these ranks
            assert overlaid.straggler_factor(rank, t) == bare.straggler_factor(rank, t)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_cartel_multiplies_base_straggler_factor(seed):
    config = FaultConfig(stragglers=((1, 2.0, 0.0, 1.0),))
    adversary = AdversaryConfig(
        behavior="cartel", rank=1, accomplices=(2,), slowdown=4.0
    )
    bare = FaultPlan(seed, config)
    overlaid = AdversaryPlan(seed, adversary, config)
    t = 0.5
    # Composition, not replacement: the cartel slowdown stacks on top of
    # whatever random straggler window the fault plan already imposed.
    assert overlaid.straggler_factor(1, t) == bare.straggler_factor(1, t) * 4.0
    assert overlaid.straggler_factor(2, t) == bare.straggler_factor(2, t) * 4.0
    assert overlaid.straggler_factor(0, t) == bare.straggler_factor(0, t)


def test_without_crash_restarts_from_ordinal_zero():
    adversary = AdversaryConfig(behavior="poison", rank=1, rate=1.0)
    plan = AdversaryPlan(7, adversary)
    first = plan.intercept_send(1, 0, 11, 2.5, 0.0)
    plan.intercept_send(1, 0, 11, 3.5, 0.0)
    repaired = plan.without_crash(1)
    # Fresh channel state: the restarted attempt re-derives the same
    # decision for the channel's first send...
    assert repaired.intercept_send(1, 0, 11, 2.5, 0.0) == first
    # ...while the attack counters survive the restart (shared stats).
    assert repaired.stats is plan.stats


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_poison_lands_on_any_memory_layout(seed):
    base = np.arange(1.0, 25.0).reshape(4, 6)
    layouts = {
        "C": base.copy(),
        "F": np.asfortranarray(base),
        "strided": np.repeat(base, 2, axis=1)[:, ::2],
    }
    changed_at = {}
    for name, payload in layouts.items():
        poisoned, changed = _poison_value(payload, seed, (0,), 0.5)
        assert changed
        assert np.array_equal(payload, base)  # the sender's copy is untouched
        changed_at[name] = [tuple(i) for i in np.argwhere(poisoned != base)]
    assert len(changed_at["C"]) == 1
    assert changed_at["F"] == changed_at["strided"] == changed_at["C"]

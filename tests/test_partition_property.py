"""Property tests for the buddy partition allocator.

Random interleavings of allocate/release must preserve the buddy
invariants: allocations never overlap, node counts are conserved, every
block is a power-of-two aligned to its size, and releasing everything
coalesces back to one maximal free block.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ConfigurationError
from repro.machines.network import FullyConnected
from repro.machines.partition import PartitionManager

MACHINE_NODES = 64

# A step is either an allocation of 2^k nodes or a release of the i-th
# oldest live partition (index taken modulo the live count).
steps = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.sampled_from([1, 2, 4, 8, 16, 32])),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=63)),
    ),
    max_size=60,
)


def drive(manager: PartitionManager, sequence):
    """Apply a step sequence; returns the list of live partitions."""
    live = []
    for action, value in sequence:
        if action == "alloc":
            try:
                live.append(manager.allocate(value))
            except ConfigurationError:
                pass  # full or fragmented: a legal outcome, not a bug
        elif live:
            live.sort(key=lambda p: p.ticket)
            manager.release(live.pop(value % len(live)))
    return live


@settings(max_examples=200, deadline=None)
@given(sequence=steps)
def test_live_partitions_never_overlap(sequence):
    manager = PartitionManager(FullyConnected(MACHINE_NODES))
    live = drive(manager, sequence)
    seen = set()
    for partition in live:
        nodes = set(partition.nodes)
        assert not (nodes & seen), "two live partitions share a node"
        seen |= nodes


@settings(max_examples=200, deadline=None)
@given(sequence=steps)
def test_node_conservation(sequence):
    manager = PartitionManager(FullyConnected(MACHINE_NODES))
    live = drive(manager, sequence)
    allocated = sum(p.size for p in live)
    assert allocated + manager.free_nodes == manager.usable_nodes
    assert manager.allocated_partitions == len(live)


@settings(max_examples=200, deadline=None)
@given(sequence=steps)
def test_blocks_are_aligned_powers_of_two(sequence):
    manager = PartitionManager(FullyConnected(MACHINE_NODES))
    for partition in drive(manager, sequence):
        size = partition.size
        assert size & (size - 1) == 0, "partition size is not a power of two"
        start = partition.nodes[0]
        assert start % size == 0, "buddy block is misaligned"
        assert partition.nodes == tuple(range(start, start + size))


@settings(max_examples=200, deadline=None)
@given(sequence=steps)
def test_full_release_coalesces_to_one_block(sequence):
    manager = PartitionManager(FullyConnected(MACHINE_NODES))
    live = drive(manager, sequence)
    for partition in live:
        manager.release(partition)
    assert manager.free_nodes == manager.usable_nodes
    assert manager.largest_free_block() == manager.usable_nodes
    assert manager.allocated_partitions == 0


@settings(max_examples=200, deadline=None)
@given(sequence=steps, size=st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
def test_allocate_succeeds_iff_size_fits_largest_free_block(sequence, size):
    # The scheduling pass tests fit with largest_free_block() instead of
    # provoking allocation errors; that is sound only if the two agree.
    manager = PartitionManager(FullyConnected(MACHINE_NODES))
    drive(manager, sequence)
    fits = size <= manager.largest_free_block()
    try:
        manager.allocate(size)
    except ConfigurationError:
        assert not fits
    else:
        assert fits


@settings(max_examples=50, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=200),
    request=st.sampled_from([1, 2, 4, 8]),
)
def test_usable_nodes_is_power_of_two_floor(nodes, request):
    manager = PartitionManager(FullyConnected(nodes))
    usable = manager.usable_nodes
    assert usable & (usable - 1) == 0
    assert usable <= nodes < usable * 2
    if request <= usable:
        partition = manager.allocate(request)
        assert max(partition.nodes) < usable


def test_non_power_of_two_request_rejected():
    manager = PartitionManager(FullyConnected(MACHINE_NODES))
    with pytest.raises(ConfigurationError):
        manager.allocate(3)


def test_double_release_rejected():
    manager = PartitionManager(FullyConnected(MACHINE_NODES))
    partition = manager.allocate(4)
    manager.release(partition)
    with pytest.raises(ConfigurationError):
        manager.release(partition)

"""Space-sharing partition management.

The T3D description in Appendix B: "The system is space-shared into
partitions where the numbers of processors are powers of two."  This
module implements that allocator over any topology: power-of-two
partitions carved from the node list, buddy-style, with allocation,
release, and occupancy accounting.  The wavelet/N-body/PIC drivers can
then run on a partition's nodes exactly as 1995 job schedulers placed
them — including the unlucky partitions next to the cooling system
(Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machines.network import Topology

__all__ = ["Partition", "PartitionManager", "next_power_of_two"]


def next_power_of_two(n: int) -> int:
    """The partition size a job of ``n`` ranks occupies (``n`` rounded up
    to a power of two; 1 for ``n <= 1``)."""
    power = 1
    while power < n:
        power *= 2
    return power


@dataclass(frozen=True)
class Partition:
    """An allocated block of nodes."""

    ticket: int
    nodes: tuple

    @property
    def size(self) -> int:
        """Number of nodes in the partition."""
        return len(self.nodes)


class PartitionManager:
    """Buddy allocator of power-of-two node blocks over a topology.

    Nodes are managed as the contiguous index range ``[0, num_nodes)``
    rounded down to a power of two (the remainder stays service-node
    territory, like the Paragon's 8 service nodes).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        usable = 1
        while usable * 2 <= topology.num_nodes:
            usable *= 2
        self.usable_nodes = usable
        # _free[k] = sorted list of start offsets of free 2^k blocks.
        self._top_level = usable.bit_length() - 1
        self._free = [[] for _ in range(self._top_level + 1)]
        self._free[self._top_level].append(0)
        self._allocated: dict = {}
        self._next_ticket = 1

    @staticmethod
    def _level_for(size: int) -> int:
        if size < 1 or size & (size - 1):
            raise ConfigurationError(
                f"partition sizes must be powers of two, got {size}"
            )
        return size.bit_length() - 1

    def allocate(self, size: int) -> Partition:
        """Allocate a partition of ``size`` nodes (power of two).

        Raises
        ------
        ConfigurationError
            If the request exceeds the machine or nothing is free.
        """
        level = self._level_for(size)
        if size > self.usable_nodes:
            raise ConfigurationError(
                f"requested {size} nodes; machine offers {self.usable_nodes}"
            )
        # Find the smallest free block able to host the request.
        source = None
        for candidate in range(level, self._top_level + 1):
            if self._free[candidate]:
                source = candidate
                break
        if source is None:
            raise ConfigurationError(
                f"no free partition of {size} nodes (machine is fragmented or full)"
            )
        start = self._free[source].pop(0)
        # Split buddies down to the requested level.
        while source > level:
            source -= 1
            buddy = start + (1 << source)
            self._free[source].append(buddy)
            self._free[source].sort()
        ticket = self._next_ticket
        self._next_ticket += 1
        partition = Partition(ticket=ticket, nodes=tuple(range(start, start + size)))
        self._allocated[ticket] = (start, level)
        return partition

    def release(self, partition: Partition) -> None:
        """Return a partition, coalescing free buddies."""
        entry = self._allocated.pop(partition.ticket, None)
        if entry is None:
            raise ConfigurationError(
                f"partition ticket {partition.ticket} is not allocated"
            )
        start, level = entry
        while level < self._top_level:
            buddy = start ^ (1 << level)
            if buddy in self._free[level]:
                self._free[level].remove(buddy)
                start = min(start, buddy)
                level += 1
            else:
                break
        self._free[level].append(start)
        self._free[level].sort()

    @property
    def free_nodes(self) -> int:
        """Total unallocated nodes."""
        return sum(len(starts) << level for level, starts in enumerate(self._free))

    @property
    def allocated_partitions(self) -> int:
        """Number of live allocations."""
        return len(self._allocated)

    def largest_free_block(self) -> int:
        """Size of the biggest allocatable partition right now.

        ``allocate(size)`` succeeds exactly when ``size`` is a power of
        two no larger than this, so a caller can test fit without
        provoking an error.
        """
        for level in range(self._top_level, -1, -1):
            if self._free[level]:
                return 1 << level
        return 0

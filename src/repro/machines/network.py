"""Interconnection-network models with contention.

The Paragon experiments in Section 5.1 hinge on one network phenomenon:
under dimension-ordered (X-then-Y) routing, the "straightforward" stripe
placement makes logical neighbors at row boundaries communicate across an
entire mesh row, and those long paths collide with the single-hop neighbor
traffic inside the row.  The snake placement removes the collisions by
keeping every logical neighbor at physical distance one.

The model here reproduces that mechanism:

* Topologies expose ``route(src, dst)`` returning the ordered physical
  channels a message occupies, keyed by node coordinates.  Channels are
  *undirected* (a half-duplex shared physical channel), which is what
  makes opposing neighbor traffic collide with row-crossing messages.
* Every topology routes in a fixed dimension order, so its channels are
  also numbered densely, ``0 .. num_channels - 1``: the links of each
  X line, line by line, then those of each Y line, then Z.  A route is
  then one id range per dimension it moves in (two when a torus walk
  wraps past the end of a line), and ``channel_ranges(src, dst)``
  computes those ranges by arithmetic alone.
* A message reserves its whole path for its full transfer duration
  (a conservative wormhole approximation: a blocked head blocks the whole
  worm).  One flat list of per-channel free times, indexed by channel id,
  turns simultaneous path overlaps into serialization delays.

Transfer time for an ``n``-byte message over ``h`` hops:

    ``latency + h * per_hop + n / bandwidth``   (+ any wait for busy channels)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CommunicationError, ConfigurationError

__all__ = ["Topology", "Mesh2D", "Torus3D", "FullyConnected", "ContentionNetwork"]


def _canonical(a: tuple, b: tuple) -> tuple:
    """Canonical undirected channel key between two node coordinates."""
    return (a, b) if a <= b else (b, a)


def _line_links(extent: int, torus: bool) -> tuple:
    """``(wraps, links)`` for one line of ``extent`` nodes.

    A torus line of three or more nodes has a wrap link from its last
    node back to its first.  At extent 2 the wrap link and the direct
    link join the same two nodes, so they are one channel.
    """
    wraps = torus and extent > 2
    return wraps, extent if wraps else extent - 1


def _line_ranges(ranges: list, start: int, end: int, extent: int, wraps: bool, base: int) -> int:
    """Append the channel-id ranges of a walk from ``start`` to ``end``
    along one line and return its hop count.

    The line's link from position ``i`` to ``i + 1`` (mod ``extent`` when
    it ``wraps``) has id ``base + i``, so a walk covers ``hops``
    consecutive links from the lower end of its first step.  A wrapping
    walk goes the shorter way round, forward on a tie, and splits in two
    where it passes the wrap link.
    """
    if start == end:
        return 0
    if not wraps:
        first, hops = (start, end - start) if start < end else (end, start - end)
    else:
        forward = (end - start) % extent
        first, hops = (start, forward) if forward <= extent - forward else (end, extent - forward)
    stop = first + hops
    if stop <= extent:
        ranges.append((base + first, base + stop))
    else:
        ranges.append((base + first, base + extent))
        ranges.append((base, base + stop - extent))
    return hops


class Topology:
    """Abstract interconnect topology.

    Subclasses define the node coordinate space, the deterministic route
    (an ordered channel list) between any two nodes, and the same route
    as ranges of dense channel ids.
    """

    num_nodes: int
    #: Number of distinct channels; channel ids are ``0 .. num_channels - 1``.
    num_channels: int

    def coord(self, node: int) -> tuple:
        """Coordinate tuple of a node index."""
        raise NotImplementedError

    def route(self, src: int, dst: int) -> list:
        """Ordered list of undirected channel keys from ``src`` to ``dst``."""
        raise NotImplementedError

    def channel_ranges(self, src: int, dst: int) -> tuple:
        """``(hops, [(lo, hi), ...])``: the ids of :meth:`route`'s channels
        as disjoint half-open ranges."""
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        """Path length in channels."""
        return self.channel_ranges(src, dst)[0]

    def _check_node(self, *nodes: int) -> None:
        for node in nodes:
            if not 0 <= node < self.num_nodes:
                raise CommunicationError(
                    f"node {node} out of range for {self.num_nodes}-node topology"
                )


class Mesh2D(Topology):
    """2-D mesh with dimension-ordered X-then-Y routing (the Paragon's
    16x4 compute mesh; we follow Figure 4 and treat it as ``width`` columns
    by ``height`` rows).

    With ``torus=True``, each dimension wraps and routes take the shorter
    direction (used to approximate richer meshes; the Paragon itself is a
    plain mesh).
    """

    def __init__(self, width: int, height: int, *, torus: bool = False) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError(f"mesh dims must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self.torus = torus
        self.num_nodes = width * height
        self._wrap_x, self._links_x = _line_links(width, torus)
        self._wrap_y, self._links_y = _line_links(height, torus)
        # X links row by row, then Y links column by column.
        self._y_base = height * self._links_x
        self.num_channels = self._y_base + width * self._links_y

    def coord(self, node: int) -> tuple:
        self._check_node(node)
        return (node % self.width, node // self.width)

    def node_at(self, x: int, y: int) -> int:
        """Node index at mesh coordinate ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise CommunicationError(f"coordinate {(x, y)} outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def _steps(self, start: int, end: int, extent: int) -> list:
        """1-D dimension walk from start to end, honoring torus wrap."""
        if start == end:
            return []
        if not self.torus:
            step = 1 if end > start else -1
            return list(range(start, end, step))
        forward = (end - start) % extent
        backward = (start - end) % extent
        if forward <= backward:
            return [(start + i) % extent for i in range(forward)]
        return [(start - i) % extent for i in range(backward)]

    def route(self, src: int, dst: int) -> list:
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        channels = []
        # X dimension first (the behavior Section 5.1 blames for conflicts).
        xs = self._steps(sx, dx, self.width)
        for i, x in enumerate(xs):
            nxt = xs[i + 1] if i + 1 < len(xs) else dx
            channels.append(_canonical((x, sy), (nxt, sy)))
        ys = self._steps(sy, dy, self.height)
        for i, y in enumerate(ys):
            nxt = ys[i + 1] if i + 1 < len(ys) else dy
            channels.append(_canonical((dx, y), (dx, nxt)))
        return channels

    def channel_ranges(self, src: int, dst: int) -> tuple:
        self._check_node(src, dst)
        sy, sx = divmod(src, self.width)
        dy, dx = divmod(dst, self.width)
        ranges = []
        hops = _line_ranges(ranges, sx, dx, self.width, self._wrap_x, sy * self._links_x)
        hops += _line_ranges(
            ranges, sy, dy, self.height, self._wrap_y, self._y_base + dx * self._links_y
        )
        return hops, ranges


class Torus3D(Topology):
    """3-D bidirectional torus with dimension-ordered routing (Cray T3D)."""

    def __init__(self, nx: int, ny: int, nz: int) -> None:
        if min(nx, ny, nz) < 1:
            raise ConfigurationError(f"torus dims must be >= 1, got {(nx, ny, nz)}")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.num_nodes = nx * ny * nz
        self._wrap_x, self._links_x = _line_links(nx, True)
        self._wrap_y, self._links_y = _line_links(ny, True)
        self._wrap_z, self._links_z = _line_links(nz, True)
        # X links per (y, z) line, then Y links per (x, z), then Z per (x, y).
        self._y_base = ny * nz * self._links_x
        self._z_base = self._y_base + nx * nz * self._links_y
        self.num_channels = self._z_base + nx * ny * self._links_z

    def coord(self, node: int) -> tuple:
        self._check_node(node)
        x = node % self.nx
        y = (node // self.nx) % self.ny
        z = node // (self.nx * self.ny)
        return (x, y, z)

    @staticmethod
    def _walk(start: int, end: int, extent: int) -> list:
        if start == end:
            return []
        forward = (end - start) % extent
        backward = (start - end) % extent
        if forward <= backward:
            return [(start + i) % extent for i in range(forward + 1)]
        return [(start - i) % extent for i in range(backward + 1)]

    def route(self, src: int, dst: int) -> list:
        sx, sy, sz = self.coord(src)
        dx, dy, dz = self.coord(dst)
        channels = []
        walk = self._walk(sx, dx, self.nx)
        for a, b in zip(walk, walk[1:]):
            channels.append(_canonical((a, sy, sz), (b, sy, sz)))
        walk = self._walk(sy, dy, self.ny)
        for a, b in zip(walk, walk[1:]):
            channels.append(_canonical((dx, a, sz), (dx, b, sz)))
        walk = self._walk(sz, dz, self.nz)
        for a, b in zip(walk, walk[1:]):
            channels.append(_canonical((dx, dy, a), (dx, dy, b)))
        return channels

    def channel_ranges(self, src: int, dst: int) -> tuple:
        self._check_node(src, dst)
        nx, ny = self.nx, self.ny
        s_line, sx = divmod(src, nx)
        sz, sy = divmod(s_line, ny)
        d_line, dx = divmod(dst, nx)
        dz, dy = divmod(d_line, ny)
        ranges = []
        hops = _line_ranges(ranges, sx, dx, nx, self._wrap_x, s_line * self._links_x)
        hops += _line_ranges(
            ranges, sy, dy, ny, self._wrap_y, self._y_base + (sz * nx + dx) * self._links_y
        )
        hops += _line_ranges(
            ranges, sz, dz, self.nz, self._wrap_z, self._z_base + (dy * nx + dx) * self._links_z
        )
        return hops, ranges


class FullyConnected(Topology):
    """Idealized crossbar: every node pair has a private channel.

    Used for single-node "machines" (the workstation baseline) and as a
    no-contention control in tests.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self.num_channels = num_nodes * (num_nodes - 1) // 2

    def coord(self, node: int) -> tuple:
        self._check_node(node)
        return (node,)

    def route(self, src: int, dst: int) -> list:
        self._check_node(src, dst)
        if src == dst:
            return []
        return [_canonical((src,), (dst,))]

    def channel_ranges(self, src: int, dst: int) -> tuple:
        self._check_node(src, dst)
        if src == dst:
            return 0, []
        lo, hi = (src, dst) if src < dst else (dst, src)
        # Pairs numbered (0,1), (0,2), (1,2), (0,3), ...
        cid = hi * (hi - 1) // 2 + lo
        return 1, [(cid, cid + 1)]


@dataclass
class ContentionNetwork:
    """Virtual-time network state: per-channel busy intervals plus the
    latency/bandwidth cost model.

    Parameters
    ----------
    topology:
        Where messages route.
    latency_s:
        Fixed per-message network latency (hardware setup).
    per_hop_s:
        Additional latency per channel traversed.
    bytes_per_s:
        Channel bandwidth.
    local_bytes_per_s:
        Memory-copy bandwidth for self-sends (src == dst), which never
        touch the network.
    """

    topology: Topology
    latency_s: float = 50e-6
    per_hop_s: float = 1e-6
    bytes_per_s: float = 40e6
    local_bytes_per_s: float = 400e6
    #: Optional fault-injection hook installed by the engine for the
    #: duration of a run: ``(src_node, dst_node, t_start) -> factor >= 1``
    #: scaling a transfer's duration (transient link degradation).
    link_slowdown: object = field(default=None, repr=False)

    messages_sent: int = field(default=0, repr=False)
    bytes_sent: int = field(default=0, repr=False)
    total_contention_s: float = field(default=0.0, repr=False)
    #: Free time of every channel, indexed by channel id.  Allocated on
    #: the first non-local transfer, so a network that never routes
    #: holds none.
    _free_at: list = field(default=None, repr=False, compare=False)

    def reset(self) -> None:
        """Clear the channel free times and traffic counters."""
        self._free_at = None
        self.messages_sent = 0
        self.bytes_sent = 0
        self.total_contention_s = 0.0

    def transfer(self, src: int, dst: int, nbytes: int, t_inject: float) -> float:
        """Reserve the path for a message and return its delivery time.

        The message waits until every channel on its path is free, then
        occupies all of them for ``hops*per_hop + nbytes/bandwidth``.
        """
        if nbytes < 0:
            raise CommunicationError(f"message size must be >= 0, got {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src == dst:
            return t_inject + nbytes / self.local_bytes_per_s

        hops, ranges = self.topology.channel_ranges(src, dst)
        free = self._free_at
        if free is None:
            free = self._free_at = [0.0] * self.topology.num_channels
        # max() over floats returns one of its operands exactly, so the
        # wait is bitwise that of a walk over the channels one by one.
        t_start = t_inject
        for lo, hi in ranges:
            busy = max(free[lo:hi])
            if busy > t_start:
                t_start = busy
        self.total_contention_s += t_start - t_inject
        duration = self.latency_s + hops * self.per_hop_s + nbytes / self.bytes_per_s
        if self.link_slowdown is not None:
            duration *= self.link_slowdown(src, dst, t_start)
        t_end = t_start + duration
        for lo, hi in ranges:
            free[lo:hi] = [t_end] * (hi - lo)
        return t_end

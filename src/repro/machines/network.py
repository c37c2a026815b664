"""Interconnection-network models with contention.

The Paragon experiments in Section 5.1 hinge on one network phenomenon:
under dimension-ordered (X-then-Y) routing, the "straightforward" stripe
placement makes logical neighbors at row boundaries communicate across an
entire mesh row, and those long paths collide with the single-hop neighbor
traffic inside the row.  The snake placement removes the collisions by
keeping every logical neighbor at physical distance one.

The model here reproduces that mechanism:

* Topologies expose ``route(src, dst)`` returning the ordered physical
  channels a message occupies.  Channels are *undirected* (a half-duplex
  shared physical channel), which is what makes opposing neighbor traffic
  collide with row-crossing messages.
* A message reserves its whole path for its full transfer duration
  (a conservative wormhole approximation: a blocked head blocks the whole
  worm).  Per-channel ``free_at`` bookkeeping turns simultaneous path
  overlaps into serialization delays.

Transfer time for an ``n``-byte message over ``h`` hops:

    ``latency + h * per_hop + n / bandwidth``   (+ any wait for busy channels)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CommunicationError, ConfigurationError

__all__ = ["Topology", "Mesh2D", "Torus3D", "FullyConnected", "ContentionNetwork"]

#: Bound on memoized entries so adversarial traffic patterns cannot grow
#: the caches without limit (LRU eviction).  The route cache stores tuples
#: of channel tuples — heavy in small GC-tracked objects — so its bound is
#: deliberately tight: hot pairs survive via LRU promotion while one-shot
#: routes (butterfly exchange partners at 4k ranks) cycle out instead of
#: bloating every generation-2 GC pass.  The path cache stores one compact
#: numpy array per pair and can afford a much larger bound.
_ROUTE_CACHE_MAX = 8192
_PATH_CACHE_MAX = 131072

#: Paths at or below this hop count use a scalar free-time walk; longer
#: paths (row-crossing routes on big meshes) get the vectorized numpy
#: gather/max/scatter, which only pays off once the per-call overhead is
#: amortized over many channels.
_VECTOR_HOPS = 12


def _canonical(a: tuple, b: tuple) -> tuple:
    """Canonical undirected channel key between two node coordinates."""
    return (a, b) if a <= b else (b, a)


class Topology:
    """Abstract interconnect topology.

    Subclasses define the node coordinate space and the deterministic route
    (an ordered channel list) between any two nodes.
    """

    num_nodes: int

    def coord(self, node: int) -> tuple:
        """Coordinate tuple of a node index."""
        raise NotImplementedError

    def route(self, src: int, dst: int) -> list:
        """Ordered list of undirected channel keys from ``src`` to ``dst``."""
        raise NotImplementedError

    def route_cached(self, src: int, dst: int) -> tuple:
        """Memoized :meth:`route` (routes are pure functions of the node
        pair, so the LRU-bounded cache is exact).  Returns the path as an
        immutable tuple; hit/miss counters are surfaced in engine stats.
        """
        cache = getattr(self, "_route_cache", None)
        if cache is None:
            cache = self._route_cache = OrderedDict()
            self.route_cache_hits = 0
            self.route_cache_misses = 0
        key = (src, dst)
        path = cache.get(key)
        if path is not None:
            self.route_cache_hits += 1
            cache.move_to_end(key)
            return path
        self.route_cache_misses += 1
        path = tuple(self.route(src, dst))
        cache[key] = path
        if len(cache) > _ROUTE_CACHE_MAX:
            cache.popitem(last=False)
        return path

    def route_cache_stats(self) -> tuple:
        """``(hits, misses)`` of the route cache (zeros if never used)."""
        return (
            getattr(self, "route_cache_hits", 0),
            getattr(self, "route_cache_misses", 0),
        )

    def reset_route_cache_stats(self) -> None:
        """Zero the hit/miss counters (cached routes stay valid)."""
        if getattr(self, "_route_cache", None) is not None:
            self.route_cache_hits = 0
            self.route_cache_misses = 0

    def hops(self, src: int, dst: int) -> int:
        """Path length in channels."""
        return len(self.route_cached(src, dst))

    def _check_node(self, node: int) -> None:
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


class Torus3D(Topology):
    """3-D bidirectional torus with dimension-ordered routing (Cray T3D)."""

    def __init__(self, nx: int, ny: int, nz: int) -> None:
        if min(nx, ny, nz) < 1:
            raise ConfigurationError(f"torus dims must be >= 1, got {(nx, ny, nz)}")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.num_nodes = nx * ny * nz

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


class FullyConnected(Topology):
    """Idealized crossbar: every node pair has a private channel.

    Used for single-node "machines" (the workstation baseline) and as a
    no-contention control in tests.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes

    def coord(self, node: int) -> tuple:
        self._check_node(node)
        return (node,)

    def route(self, src: int, dst: int) -> list:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return []
        return [_canonical((src,), (dst,))]


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
    _chan_ids: dict = field(default_factory=dict, repr=False, compare=False)
    _paths: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    _free_times: object = field(
        default_factory=lambda: np.zeros(64), repr=False, compare=False
    )
    _seen_pairs: set = field(default_factory=set, repr=False, compare=False)
    path_cache_hits: int = field(default=0, repr=False, compare=False)
    path_cache_misses: int = field(default=0, repr=False, compare=False)

    def reset(self) -> None:
        """Clear the channel free times and traffic counters.

        Static route knowledge (interned channel ids, cached path arrays,
        the topology's route cache) survives: it is a pure function of the
        topology, so successive runs on one machine reuse it.
        """
        self._free_times[:] = 0.0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.total_contention_s = 0.0
        self.path_cache_hits = 0
        self.path_cache_misses = 0
        self.topology.reset_route_cache_stats()

    def _path_ids(self, src: int, dst: int):
        """Interned-channel-id ``np.intp`` array for the ``src -> dst``
        route, cached per node pair (LRU-bounded).

        The array is the cache's only per-pair payload on purpose: numpy
        arrays hold their ints as raw memory the garbage collector never
        traverses, whereas caching Python lists/tuples of channel tuples
        for tens of thousands of pairs puts millions of small objects on
        every generation-2 GC pass and measurably slows the whole
        simulation (observed at 4096 ranks)."""
        key = (src << 32) | dst
        paths = self._paths
        ids = paths.get(key)
        if ids is not None:
            self.path_cache_hits += 1
            paths.move_to_end(key)
            return ids
        self.path_cache_misses += 1
        seen = self._seen_pairs
        repeat = key in seen
        if repeat:
            # Second sighting: the pair is hot, retain its route and ids.
            route = self.topology.route_cached(src, dst)
        else:
            # First sighting: butterfly exchanges at 4k ranks produce tens
            # of thousands of pairs used exactly once; retaining a route
            # tuple + id array for each would push millions of objects
            # into generation 2 and slow every GC pass.  Compute the route
            # transiently and remember only a packed int (GC-untracked).
            seen.add(key)
            route = self.topology.route(src, dst)
        chan_ids = self._chan_ids
        id_list = []
        for channel in route:
            cid = chan_ids.get(channel)
            if cid is None:
                cid = len(chan_ids)
                chan_ids[channel] = cid
            id_list.append(cid)
        if len(chan_ids) > self._free_times.shape[0]:
            grown = np.zeros(max(len(chan_ids), 2 * self._free_times.shape[0]))
            grown[: self._free_times.shape[0]] = self._free_times
            self._free_times = grown
        if repeat:
            # Long hot paths cache an intp array (vectorized walk); short
            # ones cache the plain int list (scalar reads beat numpy's
            # fancy-indexing overhead below _VECTOR_HOPS).
            ids = (
                np.array(id_list, dtype=np.intp)
                if len(id_list) > _VECTOR_HOPS
                else id_list
            )
            paths[key] = ids
            if len(paths) > _PATH_CACHE_MAX:
                paths.popitem(last=False)
            return ids
        return id_list

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

        ids = self._path_ids(src, dst)
        free = self._free_times
        t_start = t_inject
        if type(ids) is list:
            # Scalar walk (short or one-shot path): plain int indexing into
            # the numpy store.  float() wraps the read so virtual clocks
            # stay pure Python floats (digest-stable reprs).
            hops = len(ids)
            for cid in ids:
                busy = free[cid]
                if busy > t_start:
                    t_start = float(busy)
        else:
            # Cached long row-crossing path: one vectorized gather + max.
            # float() returns the stored operand exactly, so the math
            # matches the scalar walk bit for bit.
            hops = ids.shape[0]
            busy = float(free[ids].max())
            if busy > t_start:
                t_start = busy
        self.total_contention_s += t_start - t_inject
        duration = self.latency_s + hops * self.per_hop_s + nbytes / self.bytes_per_s
        if self.link_slowdown is not None:
            duration *= self.link_slowdown(src, dst, t_start)
        t_end = t_start + duration
        if type(ids) is list:
            for cid in ids:
                free[cid] = t_end
        else:
            free[ids] = t_end
        return t_end

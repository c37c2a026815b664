"""Tests for topologies, routing, the contention model, and the scaled
machine specs built on them (``scaled_mesh`` / ``scaled_torus``)."""

import random
from dataclasses import dataclass, field

import pytest

from repro.errors import CommunicationError, ConfigurationError
from repro.machines.network import ContentionNetwork, FullyConnected, Mesh2D, Torus3D
from repro.machines.specs import scaled_mesh, scaled_torus


@dataclass
class DictWalkNetwork(ContentionNetwork):
    """The contention network with a per-channel dict walk over freshly
    computed routes: the reference the path-cached transfer must agree
    with bit for bit (``max`` over floats returns one of its operands
    exactly, and the duration arithmetic is pure Python in both)."""

    free_at: dict = field(default_factory=dict, repr=False)

    def transfer(self, src, dst, nbytes, t_inject):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src == dst:
            return t_inject + nbytes / self.local_bytes_per_s
        path = self.topology.route(src, dst)
        t_start = t_inject
        for channel in path:
            t_start = max(t_start, self.free_at.get(channel, 0.0))
        self.total_contention_s += t_start - t_inject
        duration = self.latency_s + len(path) * self.per_hop_s + nbytes / self.bytes_per_s
        if self.link_slowdown is not None:
            duration *= self.link_slowdown(src, dst, t_start)
        t_end = t_start + duration
        for channel in path:
            self.free_at[channel] = t_end
        return t_end


class TestMesh2D:
    def test_coords_row_major(self):
        mesh = Mesh2D(4, 2)
        assert mesh.coord(0) == (0, 0)
        assert mesh.coord(3) == (3, 0)
        assert mesh.coord(4) == (0, 1)

    def test_node_at_inverse_of_coord(self):
        mesh = Mesh2D(4, 16)
        for node in (0, 5, 17, 63):
            assert mesh.node_at(*mesh.coord(node)) == node

    def test_route_is_x_then_y(self):
        mesh = Mesh2D(4, 4)
        # (0,0) -> (2,2): two X channels along row 0, then two Y channels.
        route = mesh.route(0, mesh.node_at(2, 2))
        assert route[0] == ((0, 0), (1, 0))
        assert route[1] == ((1, 0), (2, 0))
        assert route[2] == ((2, 0), (2, 1))
        assert route[3] == ((2, 1), (2, 2))

    def test_hop_count_is_manhattan(self):
        mesh = Mesh2D(4, 16)
        assert mesh.hops(0, mesh.node_at(3, 5)) == 3 + 5

    def test_self_route_empty(self):
        assert Mesh2D(4, 4).route(5, 5) == []

    def test_channels_undirected(self):
        mesh = Mesh2D(4, 1)
        forward = mesh.route(0, 3)
        backward = mesh.route(3, 0)
        assert set(forward) == set(backward)

    def test_torus_wraps_short_way(self):
        mesh = Mesh2D(8, 1, torus=True)
        assert mesh.hops(0, 7) == 1

    def test_bad_dims_raise(self):
        with pytest.raises(ConfigurationError):
            Mesh2D(0, 4)

    def test_bad_node_raises(self):
        with pytest.raises(CommunicationError):
            Mesh2D(2, 2).coord(4)

    def test_row_crossing_shares_channels_with_in_row_traffic(self):
        """The Section 5.1 conflict: a message from the row end to the next
        row's start traverses the same physical channels as in-row
        neighbor traffic."""
        mesh = Mesh2D(4, 16)
        crossing = set(mesh.route(mesh.node_at(0, 1), mesh.node_at(3, 0)))
        in_row = set(mesh.route(mesh.node_at(1, 1), mesh.node_at(0, 1)))
        assert crossing & in_row


class TestTorus3D:
    def test_coord_roundtrip(self):
        torus = Torus3D(8, 4, 8)
        assert torus.coord(0) == (0, 0, 0)
        assert torus.coord(8) == (0, 1, 0)
        assert torus.coord(32) == (0, 0, 1)

    def test_wraparound_distance(self):
        torus = Torus3D(8, 4, 8)
        # x: 0 -> 7 is one hop through the wrap link.
        assert torus.hops(0, 7) == 1

    def test_dimension_order(self):
        torus = Torus3D(4, 4, 4)
        route = torus.route(0, 21)  # (1,1,1)
        assert len(route) == 3

    def test_bad_dims_raise(self):
        with pytest.raises(ConfigurationError):
            Torus3D(0, 1, 1)


class TestFullyConnected:
    def test_single_hop(self):
        assert FullyConnected(4).hops(0, 3) == 1

    def test_self_route(self):
        assert FullyConnected(4).route(2, 2) == []

    def test_bad_count_raises(self):
        with pytest.raises(ConfigurationError):
            FullyConnected(0)


class TestContentionNetwork:
    def make(self, **kw):
        defaults = dict(
            topology=Mesh2D(4, 4),
            latency_s=1e-4,
            per_hop_s=1e-6,
            bytes_per_s=1e7,
        )
        defaults.update(kw)
        return ContentionNetwork(**defaults)

    def test_transfer_time_formula(self):
        net = self.make()
        t = net.transfer(0, 1, 10000, 0.0)
        assert t == pytest.approx(1e-4 + 1e-6 + 1e-3)

    def test_local_transfer_skips_network(self):
        net = self.make()
        t = net.transfer(2, 2, 4_000_000, 0.0)
        assert t == pytest.approx(0.01)  # local 400 MB/s only

    def test_contention_serializes_shared_channel(self):
        net = self.make()
        t1 = net.transfer(0, 1, 10000, 0.0)
        t2 = net.transfer(0, 1, 10000, 0.0)  # same channel, same instant
        assert t2 >= t1 + 1e-3  # waits out the first transfer

    def test_disjoint_channels_run_concurrently(self):
        net = self.make()
        t1 = net.transfer(0, 1, 10000, 0.0)
        t2 = net.transfer(2, 3, 10000, 0.0)
        assert t2 == pytest.approx(t1)

    def test_opposing_direction_also_contends(self):
        """Channels are undirected half-duplex: traffic both ways shares."""
        net = self.make()
        t1 = net.transfer(0, 1, 10000, 0.0)
        t2 = net.transfer(1, 0, 10000, 0.0)
        assert t2 >= t1 + 1e-3

    def test_counters(self):
        net = self.make()
        net.transfer(0, 1, 500, 0.0)
        net.transfer(1, 2, 700, 0.0)
        assert net.messages_sent == 2
        assert net.bytes_sent == 1200

    def test_reset(self):
        net = self.make()
        net.transfer(0, 1, 500, 0.0)
        net.reset()
        assert net.messages_sent == 0
        t = net.transfer(0, 1, 500, 0.0)
        assert t < 2e-4 + 1e-3

    def test_negative_size_raises(self):
        with pytest.raises(CommunicationError):
            self.make().transfer(0, 1, -1, 0.0)

    def test_contention_accumulator(self):
        net = self.make()
        net.transfer(0, 1, 10000, 0.0)
        net.transfer(0, 1, 10000, 0.0)
        assert net.total_contention_s > 0.0


class TestRouteCache:
    def test_route_cached_matches_route(self):
        mesh = Mesh2D(4, 4)
        for src, dst in [(0, 15), (3, 12), (5, 5), (0, 1), (15, 0)]:
            assert mesh.route_cached(src, dst) == tuple(mesh.route(src, dst))

    def test_hit_miss_counters(self):
        mesh = Mesh2D(4, 4)
        mesh.route_cached(0, 5)
        assert (mesh.route_cache_hits, mesh.route_cache_misses) == (0, 1)
        mesh.route_cached(0, 5)
        assert (mesh.route_cache_hits, mesh.route_cache_misses) == (1, 1)
        # Direction matters: the reverse pair is its own cache entry.
        mesh.route_cached(5, 0)
        assert (mesh.route_cache_hits, mesh.route_cache_misses) == (1, 2)

    def test_stats_report(self):
        torus = Torus3D(2, 2, 2)
        torus.route_cached(0, 7)
        torus.route_cached(0, 7)
        assert torus.route_cache_stats() == (1, 1)

    def test_reset_route_cache_stats(self):
        mesh = Mesh2D(4, 4)
        mesh.route_cached(1, 2)
        mesh.route_cached(1, 2)
        mesh.reset_route_cache_stats()
        assert mesh.route_cache_stats() == (0, 0)
        # The cached routes themselves survive the stats reset.
        assert mesh.route_cached(1, 2) == tuple(mesh.route(1, 2))

    def test_fully_connected_cached(self):
        fc = FullyConnected(4)
        assert fc.route_cached(1, 3) == tuple(fc.route(1, 3))
        assert fc.route_cached(2, 2) == ()


class TestPathCachedTransfer:
    """The vectorized path-cache fast path must be bitwise-equivalent to
    the per-channel dict walk of ``DictWalkNetwork``."""

    def make_pair(self, topology_factory):
        kw = dict(latency_s=1e-4, per_hop_s=1e-6, bytes_per_s=1e7)
        cached = ContentionNetwork(topology=topology_factory(), **kw)
        reference = DictWalkNetwork(topology=topology_factory(), **kw)
        return cached, reference

    def test_bitwise_equivalent_to_uncached_reference(self):
        cached, reference = self.make_pair(lambda: Mesh2D(4, 4))
        rng = random.Random(1996)
        clock = 0.0
        for _ in range(500):
            src = rng.randrange(16)
            dst = rng.randrange(16)
            nbytes = rng.randrange(0, 50_000)
            clock += rng.random() * 1e-4
            got = cached.transfer(src, dst, nbytes, clock)
            want = reference.transfer(src, dst, nbytes, clock)
            assert got == want
        assert cached.total_contention_s == reference.total_contention_s
        assert cached.bytes_sent == reference.bytes_sent

    def test_long_path_vectorized_equivalent(self):
        # Mesh2D(20, 1): 19 hops end to end, past the vectorization
        # threshold, so repeat transfers run the ndarray fast path.
        cached, reference = self.make_pair(lambda: Mesh2D(20, 1))
        for _ in range(4):
            got = cached.transfer(0, 19, 10_000, 0.0)
            want = reference.transfer(0, 19, 10_000, 0.0)
            assert got == want
        assert cached.total_contention_s == reference.total_contention_s

    def test_path_cache_hits_start_on_third_use(self):
        # First sighting routes transiently (no retained state), the
        # second caches the path, the third is the first cache hit.
        cached, _ = self.make_pair(lambda: Mesh2D(4, 4))
        cached.transfer(0, 5, 100, 0.0)
        assert (cached.path_cache_hits, cached.path_cache_misses) == (0, 1)
        cached.transfer(0, 5, 100, 1.0)
        assert (cached.path_cache_hits, cached.path_cache_misses) == (0, 2)
        cached.transfer(0, 5, 100, 2.0)
        assert (cached.path_cache_hits, cached.path_cache_misses) == (1, 2)

    def test_reset_clears_contention_but_keeps_warm_paths(self):
        cached, _ = self.make_pair(lambda: Mesh2D(4, 4))
        first = cached.transfer(0, 5, 10_000, 0.0)
        for clock in (1.0, 2.0):
            cached.transfer(0, 5, 10_000, clock)
        cached.reset()
        assert cached.path_cache_hits == 0
        assert cached.total_contention_s == 0.0
        # Channel free times are cleared, so the first post-reset
        # transfer costs exactly what a cold one did; the warmed path is
        # reused immediately.
        assert cached.transfer(0, 5, 10_000, 0.0) == first
        assert cached.path_cache_hits == 1

    def test_self_send_bypasses_path_cache(self):
        cached, _ = self.make_pair(lambda: Mesh2D(4, 4))
        cached.transfer(3, 3, 1000, 0.0)
        assert (cached.path_cache_hits, cached.path_cache_misses) == (0, 0)


class TestScaledMesh:
    def test_near_square_power_of_two_width(self):
        machine = scaled_mesh(1024)
        topo = machine.network.topology
        assert (topo.width, topo.height) == (32, 32)
        assert machine.name == "bigmesh-1024p-snake"

    def test_non_square_counts_round_up(self):
        machine = scaled_mesh(96, "naive")
        topo = machine.network.topology
        assert (topo.width, topo.height) == (16, 6)
        assert machine.placement == list(range(96))

    def test_snake_reverses_odd_rows(self):
        assert scaled_mesh(8).placement == [0, 1, 2, 3, 7, 6, 5, 4]

    def test_bad_nranks_raises(self):
        with pytest.raises(ConfigurationError):
            scaled_mesh(0)

    def test_unknown_placement_raises(self):
        with pytest.raises(ConfigurationError):
            scaled_mesh(16, "hilbert")


class TestScaledTorus:
    def test_smallest_power_of_two_cube(self):
        machine = scaled_torus(1000)
        topo = machine.network.topology
        assert (topo.nx, topo.ny, topo.nz) == (16, 16, 16)
        assert machine.name == "bigtorus-1000p"

    def test_small_counts_fit_small_cubes(self):
        topo = scaled_torus(8).network.topology
        assert (topo.nx, topo.ny, topo.nz) == (2, 2, 2)

    def test_bad_nranks_raises(self):
        with pytest.raises(ConfigurationError):
            scaled_torus(0)

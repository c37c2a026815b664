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
    computed routes: the reference the flat-list transfer must agree
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


def _numbering_cases():
    meshes = [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (4, 1), (5, 3), (9, 2), (6, 7)]
    cases = [Mesh2D(w, h, torus=torus) for w, h in meshes for torus in (False, True)]
    cases += [Torus3D(*dims) for dims in [(1, 1, 1), (2, 2, 2), (3, 2, 5), (1, 3, 2), (4, 3, 1)]]
    cases += [FullyConnected(n) for n in range(1, 10)]
    return cases


def _describe(topology):
    if isinstance(topology, Mesh2D):
        kind = "torus" if topology.torus else "mesh"
        return f"{kind}{topology.width}x{topology.height}"
    if isinstance(topology, Torus3D):
        return f"torus3d-{topology.nx}x{topology.ny}x{topology.nz}"
    return f"fc{topology.num_nodes}"


@pytest.mark.parametrize("topology", _numbering_cases(), ids=_describe)
def test_channel_ranges_number_route_densely(topology):
    """``channel_ranges`` is ``route`` under a dense one-to-one numbering.

    Every channel is the whole route between its two end nodes, so the
    single-hop routes fix the numbering; every longer route must then map
    onto exactly the ids its ranges cover.  The extent-2 torus cases
    matter: there the wrap link and the direct link are one channel.
    """
    nodes = range(topology.num_nodes)
    key_to_id = {}
    ids_of = {}
    for src in nodes:
        for dst in nodes:
            hops, ranges = topology.channel_ranges(src, dst)
            ids = [cid for lo, hi in ranges for cid in range(lo, hi)]
            route = topology.route(src, dst)
            assert len(set(ids)) == len(ids) == hops == topology.hops(src, dst) == len(route)
            if hops == 1:
                assert key_to_id.setdefault(route[0], ids[0]) == ids[0]
            ids_of[src, dst] = (set(ids), route)
    assert len(set(key_to_id.values())) == len(key_to_id)
    for ids, route in ids_of.values():
        assert ids == {key_to_id[key] for key in route}
    assert sorted(key_to_id.values()) == list(range(topology.num_channels))


@pytest.mark.parametrize(
    "topology", [Mesh2D(3, 3), Mesh2D(4, 2, torus=True), Torus3D(3, 2, 2), FullyConnected(4)],
    ids=_describe,
)
def test_out_of_range_nodes_raise(topology):
    n = topology.num_nodes
    for src, dst in [(n, 0), (0, n), (-1, 0)]:
        with pytest.raises(CommunicationError):
            topology.hops(src, dst)
        with pytest.raises(CommunicationError):
            ContentionNetwork(topology=topology).transfer(src, dst, 8, 0.0)


class TestClosedFormTransfer:
    """The flat-list transfer over ``channel_ranges`` must be
    bitwise-equivalent to the per-channel dict walk of ``DictWalkNetwork``."""

    def make_pair(self, topology_factory):
        kw = dict(latency_s=1e-4, per_hop_s=1e-6, bytes_per_s=1e7)
        fast = ContentionNetwork(topology=topology_factory(), **kw)
        reference = DictWalkNetwork(topology=topology_factory(), **kw)
        return fast, reference

    def test_bitwise_equivalent_to_uncached_reference(self):
        factories = [
            lambda: Mesh2D(4, 4),
            lambda: Mesh2D(5, 3, torus=True),
            lambda: Mesh2D(2, 5, torus=True),
            lambda: Torus3D(2, 2, 2),
            lambda: Torus3D(3, 2, 5),
            lambda: FullyConnected(5),
        ]
        for index, factory in enumerate(factories):
            fast, reference = self.make_pair(factory)
            if index == 2:
                # A transient-degradation hook scales durations the same
                # way on both sides.
                def slowdown(src, dst, t_start):
                    return 1.0 + ((src * 7 + dst) % 3) * 0.25

                fast.link_slowdown = reference.link_slowdown = slowdown
            nodes = fast.topology.num_nodes
            rng = random.Random(1996)
            clock = 0.0
            for _ in range(500):
                src = rng.randrange(nodes)
                dst = rng.randrange(nodes)
                nbytes = rng.randrange(0, 50_000)
                clock += rng.random() * 1e-4
                got = fast.transfer(src, dst, nbytes, clock)
                want = reference.transfer(src, dst, nbytes, clock)
                assert got == want, _describe(fast.topology)
            assert fast.total_contention_s == reference.total_contention_s
            assert fast.bytes_sent == reference.bytes_sent

    def test_long_path_vectorized_equivalent(self):
        # Mesh2D(20, 1): 19 hops end to end, one 19-channel range, so
        # repeat transfers wait on the whole range at once.
        fast, reference = self.make_pair(lambda: Mesh2D(20, 1))
        for _ in range(4):
            got = fast.transfer(0, 19, 10_000, 0.0)
            want = reference.transfer(0, 19, 10_000, 0.0)
            assert got == want
        assert fast.total_contention_s == reference.total_contention_s

    def test_reset_restores_cold_transfer_cost(self):
        fast, _ = self.make_pair(lambda: Mesh2D(4, 4))
        first = fast.transfer(0, 5, 10_000, 0.0)
        for clock in (0.0, 1.0):
            fast.transfer(0, 5, 10_000, clock)
        assert fast.total_contention_s > 0.0
        fast.reset()
        assert fast.total_contention_s == 0.0
        # Channel free times are cleared, so the first post-reset
        # transfer costs exactly what a cold one did.
        assert fast.transfer(0, 5, 10_000, 0.0) == first


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

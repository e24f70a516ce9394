"""Tests for TDMA, time sync and the backhaul mesh."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import BackhaulError, ConfigError, SlotAllocationError
from repro.faults.injectors import LinkFaultInjector, LinkFaultSpec
from repro.hw import Ds3231Rtc
from repro.ids import AggregatorId, DeviceId
from repro.net import BackhaulLink, BackhaulMesh, TdmaSchedule, TimeSyncService
from repro.sim import Simulator


class TestTdma:
    def test_assign_lowest_free_slot(self):
        schedule = TdmaSchedule(slot_count=4)
        assert schedule.assign(DeviceId("a")) == 0
        assert schedule.assign(DeviceId("b")) == 1

    def test_assign_idempotent(self):
        schedule = TdmaSchedule()
        first = schedule.assign(DeviceId("a"))
        assert schedule.assign(DeviceId("a")) == first

    def test_release_recycles_slot(self):
        schedule = TdmaSchedule(slot_count=2)
        schedule.assign(DeviceId("a"))
        schedule.assign(DeviceId("b"))
        schedule.release(DeviceId("a"))
        assert schedule.assign(DeviceId("c")) == 0

    def test_capacity_limit(self):
        # "With limited time-slots ... the number of devices connected to
        # an aggregator is also limited."
        schedule = TdmaSchedule(slot_count=2)
        schedule.assign(DeviceId("a"))
        schedule.assign(DeviceId("b"))
        with pytest.raises(SlotAllocationError):
            schedule.assign(DeviceId("c"))

    def test_free_slots(self):
        schedule = TdmaSchedule(slot_count=3)
        assert schedule.free_slots == 3
        schedule.assign(DeviceId("a"))
        assert schedule.free_slots == 2

    def test_slot_offset_and_duration(self):
        schedule = TdmaSchedule(superframe_s=0.1, slot_count=10)
        schedule.assign(DeviceId("a"))
        schedule.assign(DeviceId("b"))
        assert schedule.slot_duration_s == pytest.approx(0.01)
        assert schedule.slot_offset_s(DeviceId("b")) == pytest.approx(0.01)

    def test_next_slot_time_in_future(self):
        schedule = TdmaSchedule(superframe_s=0.1, slot_count=10)
        schedule.assign(DeviceId("a"))
        schedule.assign(DeviceId("b"))
        t = schedule.next_slot_time(DeviceId("b"), 0.05)
        assert t >= 0.05
        assert (t - 0.01) % 0.1 == pytest.approx(0.0, abs=1e-9)

    def test_release_unknown_rejected(self):
        with pytest.raises(SlotAllocationError):
            TdmaSchedule().release(DeviceId("ghost"))

    def test_offset_unknown_rejected(self):
        with pytest.raises(SlotAllocationError):
            TdmaSchedule().slot_offset_s(DeviceId("ghost"))

    def test_invalid_params_rejected(self):
        with pytest.raises(SlotAllocationError):
            TdmaSchedule(superframe_s=0.0)
        with pytest.raises(SlotAllocationError):
            TdmaSchedule(slot_count=0)


class TestTimeSync:
    def test_sync_bounds_residual_error(self):
        sim = Simulator(seed=0)
        service = TimeSyncService(sim, "sync", interval_s=10.0)
        rtcs = [Ds3231Rtc(np.random.default_rng(i), ppm_max=2.0) for i in range(5)]
        for i, rtc in enumerate(rtcs):
            service.register_clock(f"dev{i}", rtc)
        service.start()
        sim.run_until(100.0)
        # Residual error bounded by interval x ppm.
        for rtc in rtcs:
            assert abs(rtc.error_at(sim.now)) <= 10.0 * 2e-6 + 1e-9
        assert service.rounds == 10

    def test_sync_now_reports_correction(self):
        sim = Simulator(seed=1)
        service = TimeSyncService(sim, "sync")
        rtc = Ds3231Rtc(np.random.default_rng(3))
        service.register_clock("d", rtc)
        sim.run_until(1000.0)
        correction = service.sync_now()
        assert correction > 0
        assert service.sync_now() == pytest.approx(0.0, abs=1e-9)

    def test_unregister_stops_discipline(self):
        sim = Simulator()
        service = TimeSyncService(sim, "sync", interval_s=1.0)
        rtc = Ds3231Rtc(np.random.default_rng(4))
        service.register_clock("d", rtc)
        service.unregister_clock("d")
        service.start()
        sim.run_until(5.0)
        assert service.last_max_correction_s == 0.0

    def test_stop(self):
        sim = Simulator()
        service = TimeSyncService(sim, "sync", interval_s=1.0)
        service.start()
        service.stop()
        sim.run_until(5.0)
        assert service.rounds == 0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigError):
            TimeSyncService(Simulator(), "sync", interval_s=0.0)


class TestBackhaul:
    def make_mesh(self, names=("a", "b", "c")):
        sim = Simulator()
        mesh = BackhaulMesh(sim)
        inboxes = {name: [] for name in names}
        for name in names:
            mesh.add_aggregator(
                AggregatorId(name),
                lambda source, payload, n=name: inboxes[n].append((source, payload)),
            )
        return sim, mesh, inboxes

    def test_direct_link_latency(self):
        sim, mesh, inboxes = self.make_mesh()
        mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("b"), 0.001))
        latency = mesh.send(AggregatorId("a"), AggregatorId("b"), "hi")
        assert latency == pytest.approx(0.001)
        sim.run()
        assert inboxes["b"] == [(AggregatorId("a"), "hi")]

    def test_paper_backhaul_delay_is_1ms(self):
        _, mesh, _ = self.make_mesh()
        mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("b")))
        assert mesh.latency_s(AggregatorId("a"), AggregatorId("b")) == pytest.approx(0.001)

    def test_multi_hop_routing(self):
        sim, mesh, inboxes = self.make_mesh()
        mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("b"), 0.001))
        mesh.connect(BackhaulLink(AggregatorId("b"), AggregatorId("c"), 0.002))
        latency = mesh.latency_s(AggregatorId("a"), AggregatorId("c"))
        assert latency == pytest.approx(0.003 + 0.0002)  # links + per-hop cost
        mesh.send(AggregatorId("a"), AggregatorId("c"), 1)
        sim.run()
        assert inboxes["c"]

    def test_shortest_path_chosen(self):
        _, mesh, _ = self.make_mesh()
        mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("b"), 0.010))
        mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("c"), 0.001))
        mesh.connect(BackhaulLink(AggregatorId("c"), AggregatorId("b"), 0.001))
        # Via c is cheaper despite the extra hop.
        assert mesh.latency_s(AggregatorId("a"), AggregatorId("b")) < 0.010

    def test_self_latency_zero(self):
        _, mesh, _ = self.make_mesh()
        assert mesh.latency_s(AggregatorId("a"), AggregatorId("a")) == 0.0

    def test_no_path_rejected(self):
        _, mesh, _ = self.make_mesh()
        with pytest.raises(BackhaulError):
            mesh.latency_s(AggregatorId("a"), AggregatorId("b"))

    def test_unknown_destination_rejected(self):
        _, mesh, _ = self.make_mesh()
        with pytest.raises(BackhaulError):
            mesh.send(AggregatorId("a"), AggregatorId("zz"), 1)

    def test_broadcast_fans_out(self):
        sim, mesh, inboxes = self.make_mesh()
        mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("b")))
        mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("c")))
        count = mesh.broadcast(AggregatorId("a"), "x")
        sim.run()
        assert count == 2
        assert inboxes["b"] and inboxes["c"] and not inboxes["a"]

    def test_duplicate_aggregator_rejected(self):
        _, mesh, _ = self.make_mesh()
        with pytest.raises(BackhaulError):
            mesh.add_aggregator(AggregatorId("a"), lambda s, p: None)

    def test_link_validation(self):
        with pytest.raises(BackhaulError):
            BackhaulLink(AggregatorId("a"), AggregatorId("a"))
        with pytest.raises(BackhaulError):
            BackhaulLink(AggregatorId("a"), AggregatorId("b"), latency_s=0.0)

    def test_link_to_unknown_node_rejected(self):
        _, mesh, _ = self.make_mesh(names=("a",))
        with pytest.raises(BackhaulError):
            mesh.connect(BackhaulLink(AggregatorId("a"), AggregatorId("zz")))


# Dyadic latencies (k/1024 s) sum exactly in any order, so a tie between
# two routes is a real tie and not a rounding accident; few distinct
# values make ties common.
LATENCIES = st.integers(1, 8).map(lambda k: k / 1024)


@st.composite
def connected_meshes(draw):
    """``(names, links)``: a random spanning tree plus random extra links."""
    count = draw(st.integers(3, 12))
    names = [f"agg{i}" for i in draw(st.permutations(range(count)))]
    links = {}
    for i in range(1, count):
        links[frozenset((i, draw(st.integers(0, i - 1))))] = draw(LATENCIES)
    extra = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    for a, b in draw(st.lists(extra, max_size=2 * count)):
        if a != b:
            links[frozenset((a, b))] = draw(LATENCIES)
    return names, [(names[min(pair)], names[max(pair)], lat) for pair, lat in links.items()]


class TestRouteTable:
    """The backhaul route table against networkx on random meshes."""

    @staticmethod
    def build(names, links):
        """The mesh under test plus a networkx graph of the same links."""
        sim = Simulator(seed=0)
        mesh = BackhaulMesh(sim)
        inboxes = {name: [] for name in names}
        for name in names:
            mesh.add_aggregator(AggregatorId(name), lambda s, p, n=name: inboxes[n].append(p))
        graph = nx.Graph()
        for a, b, latency in links:
            mesh.connect(BackhaulLink(AggregatorId(a), AggregatorId(b), latency))
            graph.add_edge(AggregatorId(a), AggregatorId(b), latency=latency)
        return sim, mesh, graph, inboxes

    @staticmethod
    def path_latency(graph, path, per_hop_cost_s=0.0002):
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += graph.edges[a, b]["latency"]
        return total + per_hop_cost_s * max(0, len(path) - 2)

    @settings(max_examples=60, deadline=None)
    @given(connected_meshes())
    def test_latency_matches_networkx(self, mesh_shape):
        _, mesh, graph, _ = self.build(*mesh_shape)
        nodes = sorted(graph.nodes)
        for source in nodes:
            for destination in nodes:
                if source == destination:
                    continue
                expected = self.path_latency(
                    graph, nx.shortest_path(graph, source, destination, weight="latency")
                )
                tied = list(nx.all_shortest_paths(graph, source, destination, weight="latency"))
                if len(tied) > 1:
                    # Equal link latency: the route with fewer hops wins.
                    expected = self.path_latency(graph, min(tied, key=len))
                assert mesh.latency_s(source, destination) == expected
                assert list(mesh.route(source, destination)[1]) in tied

    @settings(max_examples=60, deadline=None)
    @given(connected_meshes())
    def test_routes_do_not_depend_on_wiring_order(self, mesh_shape):
        names, links = mesh_shape
        _, mesh, graph, _ = self.build(names, links)
        _, rewired, _, _ = self.build(names[::-1], links[::-1])
        for source in graph.nodes:
            for destination in graph.nodes:
                assert mesh.route(source, destination) == rewired.route(source, destination)

    def test_equal_latency_tie_goes_to_fewer_hops(self):
        s, a, b, c, v = (AggregatorId(n) for n in ("s", "a", "b", "c", "v"))
        mesh = BackhaulMesh(Simulator(seed=0))
        for node in (s, a, b, c, v):
            mesh.add_aggregator(node, lambda source, payload: None)
        # s-b-c-v and s-a-v both sum to 4 ms; the three-hop route is
        # found first (c settles before a), the two-hop one must win.
        for x, y, ms in ((s, b, 1), (b, c, 1), (c, v, 2), (s, a, 3), (a, v, 1)):
            mesh.connect(BackhaulLink(x, y, ms / 1000))
        latency, path = mesh.route(s, v)
        assert path == (s, a, v)
        assert latency == (0.003 + 0.001) + 0.0002

    @settings(max_examples=60, deadline=None)
    @given(connected_meshes(), st.data())
    def test_shorter_link_after_caching_changes_the_route(self, mesh_shape, data):
        names, links = mesh_shape
        _, mesh, _, _ = self.build(names, links)
        a, b = (AggregatorId(n) for n in data.draw(st.permutations(names))[:2])
        before = mesh.latency_s(a, b)
        # Shorter than any drawn link, so the direct link must win.
        mesh.connect(BackhaulLink(a, b, 1 / 2048))
        assert mesh.latency_s(a, b) == 1 / 2048 < before
        assert mesh.route(b, a) == (1 / 2048, (b, a))

    @settings(max_examples=60, deadline=None)
    @given(connected_meshes(), st.data())
    def test_injector_consulted_only_on_the_routed_path(self, mesh_shape, data):
        names, links = mesh_shape
        sim, mesh, _, inboxes = self.build(names, links)
        source, destination = data.draw(st.permutations(names))[:2]
        path = mesh.route(AggregatorId(source), AggregatorId(destination))[1]
        on_path = {frozenset(hop) for hop in zip(path, path[1:])}
        off_path = [
            (AggregatorId(a), AggregatorId(b))
            for a, b, _ in links
            if frozenset((AggregatorId(a), AggregatorId(b))) not in on_path
        ]
        assume(off_path)

        def dropper(name):
            return LinkFaultInjector(
                name, np.random.default_rng(0), spec=LinkFaultSpec(drop_p=1.0)
            )

        off = dropper("off")
        mesh.install_link_injector(*data.draw(st.sampled_from(off_path)), off)
        mesh.send(AggregatorId(source), AggregatorId(destination), "through")
        sim.run()
        assert inboxes[destination] == ["through"]
        assert off.counters.get("off.drops") == 0

        on = dropper("on")
        mesh.install_link_injector(*data.draw(st.sampled_from(list(zip(path, path[1:])))), on)
        mesh.send(AggregatorId(source), AggregatorId(destination), "doomed")
        sim.run()
        assert inboxes[destination] == ["through"]
        assert on.counters.get("on.drops") == 1

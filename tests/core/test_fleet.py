"""Unit tests for the multi-chassis ComposableFleet."""

import random

import pytest

from repro.core import (
    ComposableFleet,
    FLEET_FOUR_CHASSIS,
    FLEET_PRESETS,
    FLEET_TWO_CHASSIS,
    FleetError,
    FleetSpec,
)


@pytest.fixture()
def fleet():
    return ComposableFleet(FleetSpec(name="t", chassis=2, hosts=2,
                                     gpus_per_chassis=4))


class TestFleetSpec:
    def test_total_gpus(self):
        assert FLEET_TWO_CHASSIS.total_gpus == 16
        assert FLEET_FOUR_CHASSIS.total_gpus == 32

    def test_presets_registry(self):
        assert FLEET_PRESETS[FLEET_TWO_CHASSIS.name] is FLEET_TWO_CHASSIS
        assert FLEET_PRESETS[FLEET_FOUR_CHASSIS.name] is FLEET_FOUR_CHASSIS

    @pytest.mark.parametrize("kwargs", [
        {"chassis": 0},
        {"hosts": 0},
        {"gpus_per_chassis": 0},
        {"oversubscription": 0.0},
        {"oversubscription": -1.0},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        base = dict(name="bad", chassis=2, hosts=2, gpus_per_chassis=8)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FleetSpec(**base)


class TestFleetConstruction:
    def test_shape(self, fleet):
        assert len(fleet.falcons) == 2
        assert len(fleet.hosts) == 2
        assert len(fleet.gpus) == 8
        assert sorted(fleet.free_gpus()) == sorted(fleet.gpus)

    def test_hosts_are_gpu_less(self, fleet):
        assert all(host.gpus == [] for host in fleet.hosts)

    def test_home_hosts_admitted_at_build(self, fleet):
        for c in range(2):
            home = fleet.hosts[c]
            assert fleet.is_admitted(home.name, c, 0)
            assert fleet.is_admitted(home.name, c, 1)

    def test_gpus_split_across_drawers(self, fleet):
        falcon = fleet.falcons[0]
        by_drawer = {d.index: [s.device for s in d.slots if s.device]
                     for d in falcon.drawers}
        assert len(by_drawer[0]) == 2
        assert len(by_drawer[1]) == 2

    def test_route_host_to_remote_gpu_crosses_spine(self, fleet):
        # host0's home is chassis 0; the path to a chassis-1 GPU must
        # transit the spine.
        route = fleet.topology.route("host0/rc", "falcon1/gpu0")
        assert fleet.spine in route.nodes

    def test_oversubscription_derates_uplinks(self):
        flat = ComposableFleet(FleetSpec(name="flat", chassis=2, hosts=1,
                                         gpus_per_chassis=2))
        over = ComposableFleet(FleetSpec(name="over", chassis=2, hosts=1,
                                         gpus_per_chassis=2,
                                         oversubscription=2.0))
        bw = lambda f: f.host_uplinks["host0"].spec.bandwidth
        assert bw(over) == pytest.approx(bw(flat) / 2.0)

    def test_lookup_errors(self, fleet):
        with pytest.raises(KeyError):
            fleet.gpu("falcon9/gpu0")


def _scan_free_gpus(fleet, chassis=None):
    """The free GPUs by a full scan: every name in sorted order, its
    owner read from the drawers' slots."""
    owners = {slot.device: slot.owner for falcon in fleet.falcons
              for drawer in falcon.drawers for slot in drawer.slots
              if slot.device is not None}
    return [name for name in sorted(fleet.gpus)
            if (chassis is None or fleet.chassis_of[name] == chassis)
            and owners[name] is None]


class TestFreeGpus:
    def test_free_gpus_match_a_scan_through_churn(self):
        """Eleven chassis of twelve GPUs, so name order is not index
        order ("falcon10" < "falcon2", "gpu10" < "gpu2")."""
        fleet = ComposableFleet(FleetSpec(name="churn", chassis=11,
                                          hosts=2, gpus_per_chassis=12))
        rng = random.Random(3)
        names = sorted(fleet.gpus)
        for _ in range(300):
            name = rng.choice(names)
            chassis = fleet.chassis_of[name]
            falcon = fleet.falcons[chassis]
            if falcon.owner_of(name) is None:
                falcon.allocate(name, fleet.hosts[chassis % 2].name)
            else:
                falcon.deallocate(name)
            assert fleet.free_gpus() == _scan_free_gpus(fleet)
            for c in (chassis, rng.randrange(11)):
                assert fleet.free_gpus(c) == _scan_free_gpus(fleet, c)
        assert fleet.free_gpus(11) == []


class TestAdmission:
    def test_admit_visiting_host(self, fleet):
        fleet.admit("host0", 1, 0)
        assert fleet.is_admitted("host0", 1, 0)
        fleet.release("host0", 1, 0)
        assert not fleet.is_admitted("host0", 1, 0)

    def test_admit_is_refcounted(self, fleet):
        fleet.admit("host0", 1, 0)
        fleet.admit("host0", 1, 0)
        fleet.release("host0", 1, 0)
        assert fleet.is_admitted("host0", 1, 0)  # one ref still held
        fleet.release("host0", 1, 0)
        assert not fleet.is_admitted("host0", 1, 0)

    def test_home_admission_survives_release(self, fleet):
        home = fleet.hosts[0].name
        fleet.admit(home, 0, 0)      # scheduler takes a ref on home turf
        fleet.release(home, 0, 0)
        fleet.release(home, 0, 0)    # over-release must not uncable home
        assert fleet.is_admitted(home, 0, 0)

    def test_release_unknown_admission_is_noop(self, fleet):
        fleet.release("host0", 1, 1)  # never admitted

    def test_port_exhaustion_raises_fleet_error(self, fleet):
        # Chassis 0 has 2 free ports (H3, H4) after the home cabling.
        fleet.admit("host1", 0, 0)
        fleet.admit("visitorA", 0, 1)
        with pytest.raises(FleetError, match="no free host port"):
            fleet.admit("visitorB", 0, 0)

    def test_ports_recycle_after_release(self, fleet):
        fleet.admit("host1", 0, 0)
        fleet.admit("visitorA", 0, 1)
        fleet.release("visitorA", 0, 1)
        fleet.admit("visitorB", 0, 0)  # reuses the freed port
        assert fleet.is_admitted("visitorB", 0, 0)


class TestSpineView:
    def test_spine_links_labels(self, fleet):
        links = fleet.spine_links()
        assert set(links) == {
            "uplink/host0", "uplink/host1",
            "trunk/falcon0/drawer0", "trunk/falcon0/drawer1",
            "trunk/falcon1/drawer0", "trunk/falcon1/drawer1",
        }

    def test_spine_traffic_zero_before_any_run(self, fleet):
        traffic = fleet.spine_traffic(0.0, 1.0)
        assert set(traffic) == set(fleet.spine_links())
        for stats in traffic.values():
            assert stats["to_spine_gbs"] == 0.0
            assert stats["from_spine_gbs"] == 0.0

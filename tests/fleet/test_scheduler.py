"""Tests for the FIFO cluster scheduler over a composable fleet."""

import random

import pytest

from repro.core import ComposableFleet, FleetSpec
from repro.fleet import ClusterScheduler, JobRequest, generate_trace


SMALL = FleetSpec(name="small", chassis=2, hosts=2, gpus_per_chassis=4)


def make_fleet(spec=SMALL):
    return ComposableFleet(spec)


def request(job_id, arrival, gpus, *, benchmark="mobilenetv2",
            strategy="ddp", sim_steps=2, global_batch=None):
    return JobRequest(job_id=job_id, arrival=arrival, gpus=gpus,
                      benchmark=benchmark, strategy=strategy,
                      sim_steps=sim_steps,
                      global_batch=global_batch or 8 * gpus)


def test_empty_trace_returns_empty_result():
    result = ClusterScheduler(make_fleet()).run([])
    assert result.records == []
    assert result.makespan == 0.0
    assert result.gpu_utilization == 0.0


def test_single_job_completes():
    fleet = make_fleet()
    result = ClusterScheduler(fleet).run([request(0, 0.0, 2)])
    (rec,) = result.records
    assert rec.job_id == 0
    assert rec.queue_delay == pytest.approx(0.0)
    # Hot-plug enumeration precedes training.
    assert rec.started == pytest.approx(rec.placed + 4.0)
    assert rec.finished > rec.started
    assert rec.step_time > 0
    assert not rec.cross_chassis
    assert result.makespan == pytest.approx(rec.finished)


def test_all_gpus_released_after_run():
    fleet = make_fleet()
    ClusterScheduler(fleet).run(generate_trace(
        jobs=5, seed=1, mean_interarrival=1.0, sim_steps=(2, 2)))
    assert len(fleet.free_gpus()) == fleet.spec.total_gpus
    # Visiting-host ports are all returned: only home cablings remain.
    for falcon in fleet.falcons:
        assert set(falcon.port_map) == {"H1", "H2"}


def test_fifo_queueing_when_fleet_full():
    fleet = make_fleet()
    result = ClusterScheduler(fleet).run([
        request(0, 0.0, 8),   # takes the whole fleet
        request(1, 0.0, 1),   # must wait behind it (FIFO, no backfill)
    ])
    rec0, rec1 = result.records
    assert rec0.queue_delay == pytest.approx(0.0)
    assert rec1.placed >= rec0.finished
    assert rec1.queue_delay > 0
    assert result.max_queue_delay == pytest.approx(rec1.queue_delay)


def test_single_chassis_packing_preferred():
    fleet = make_fleet()
    result = ClusterScheduler(fleet).run([request(0, 0.0, 4)])
    (rec,) = result.records
    # 4 GPUs fit in one chassis, so no cross-chassis ring is composed.
    assert len(rec.chassis) == 1


def test_cross_chassis_spread_when_no_chassis_fits():
    fleet = make_fleet()  # 4 GPUs per chassis
    result = ClusterScheduler(fleet).run([request(0, 0.0, 6)])
    (rec,) = result.records
    assert rec.cross_chassis
    assert rec.chassis == (0, 1)
    assert len(rec.gpu_names) == 6


def test_cross_chassis_job_pays_spine_crossing():
    """The same 2-GPU job is slower across chassis than in one drawer."""
    # Packed: both GPUs share falcon0/drawer0's PCIe switch — the ring
    # never leaves the drawer.
    packed = ClusterScheduler(make_fleet()).run(
        [request(0, 0.0, 2)]).records[0]
    # One GPU per chassis forces the ring over the spine.
    spread_spec = FleetSpec(name="spread", chassis=2, hosts=2,
                            gpus_per_chassis=1)
    spread = ClusterScheduler(make_fleet(spread_spec)).run(
        [request(0, 0.0, 2)]).records[0]
    assert spread.cross_chassis and not packed.cross_chassis
    assert spread.step_time > packed.step_time


def test_utilization_and_spine_traffic_observed():
    fleet = make_fleet()
    result = ClusterScheduler(fleet).run(generate_trace(
        jobs=6, seed=0, mean_interarrival=1.0, sim_steps=(2, 3)))
    assert len(result.records) == 6
    assert 0.0 < result.gpu_utilization <= 1.0
    traffic = result.spine_traffic()
    assert sum(t["to_spine_gbs"] + t["from_spine_gbs"]
               for t in traffic.values()) > 0.0


def test_oversized_job_rejected():
    with pytest.raises(ValueError, match="fleet has"):
        ClusterScheduler(make_fleet()).run([request(0, 0.0, 99)])


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        ClusterScheduler(make_fleet()).run(
            [request(0, 0.0, 1, strategy="zero-redundancy")])


def test_records_sorted_by_job_id_regardless_of_finish_order():
    fleet = make_fleet()
    result = ClusterScheduler(fleet).run([
        request(0, 0.0, 2, sim_steps=4),   # long
        request(1, 0.0, 1, sim_steps=2),   # short, finishes first
    ])
    assert [r.job_id for r in result.records] == [0, 1]


def test_result_as_dict_round_trip():
    result = ClusterScheduler(make_fleet()).run([request(0, 0.0, 1)])
    report = result.as_dict()
    assert report["jobs"] == 1
    assert report["total_gpus"] == 8
    assert report["records"][0]["job_id"] == 0
    assert set(report["spine_traffic_gbs"]) == {
        "uplink/host0", "uplink/host1",
        "trunk/falcon0/drawer0", "trunk/falcon0/drawer1",
        "trunk/falcon1/drawer0", "trunk/falcon1/drawer1",
    }


#: Kernel event ids ``repro fleet --smoke`` takes.  Each transfer costs
#: its latency timer and its flow's done event; at four events per
#: transfer (a process per transfer) this read 11,550.
SMOKE_KERNEL_EVENTS = 9842


def test_fleet_smoke_kernel_events_stay_at_or_below_the_pin():
    from repro.experiments.fleet import resolve_fleet_inputs

    spec, jobs, interarrival, sim_steps = resolve_fleet_inputs(smoke=True)
    fleet = ComposableFleet(spec)
    ClusterScheduler(fleet).run(generate_trace(
        jobs=jobs, seed=0, mean_interarrival=interarrival,
        sim_steps=sim_steps))
    assert fleet.env._eid <= SMOKE_KERNEL_EVENTS


def _scan_drawer_of(fleet, chassis, name):
    for drawer in fleet.falcons[chassis].drawers:
        if any(slot.device == name for slot in drawer.slots):
            return drawer.index
    return None


def test_drawer_of_matches_a_drawer_scan_through_churn():
    """Allocate/deallocate churn, and GPUs moved between drawers, on
    eleven chassis of twelve GPUs (name order is not index order)."""
    fleet = ComposableFleet(FleetSpec(name="churn", chassis=11, hosts=2,
                                      gpus_per_chassis=12))
    scheduler = ClusterScheduler(fleet)
    rng = random.Random(5)
    names = sorted(fleet.gpus)
    for _ in range(300):
        name = rng.choice(names)
        chassis = fleet.chassis_of[name]
        falcon = fleet.falcons[chassis]
        if falcon.owner_of(name) is not None:
            falcon.deallocate(name)
        elif rng.random() < 0.3:
            other = 1 - falcon.slot_of(name).drawer_index
            if falcon.drawers[other].free_slot() is not None:
                falcon.remove_device(name)
                falcon.install_device(name, other)
        else:
            falcon.allocate(name, fleet.hosts[chassis % len(fleet.hosts)].name)
        for n in (name, rng.choice(names)):
            c = fleet.chassis_of[n]
            assert scheduler._drawer_of(c, n) == _scan_drawer_of(fleet, c, n)
    name = names[0]
    chassis = fleet.chassis_of[name]
    if fleet.falcons[chassis].owner_of(name) is not None:
        fleet.falcons[chassis].deallocate(name)
    fleet.falcons[chassis].remove_device(name)
    with pytest.raises(KeyError, match="not installed"):
        scheduler._drawer_of(chassis, name)

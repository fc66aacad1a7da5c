"""Unit and property tests for the max-min fair flow scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import GB, Link, LinkSpec, Protocol
from repro.fabric.flows import FlowScheduler, Segment
from repro.sim import Environment


def make_link(bw_gbps: float, a: str = "a", b: str = "b") -> Link:
    spec = LinkSpec(f"test {bw_gbps}GB/s", Protocol.PCIE4, 16,
                    bw_gbps * GB, 0.0)
    return Link(spec, a, b)


def run_transfers(links_segments_bytes):
    """Run several flows started at t=0; return list of completion times."""
    env = Environment()
    sched = FlowScheduler(env)
    finish = {}

    def runner(idx, segments, nbytes):
        yield sched.start_flow(segments, nbytes)
        finish[idx] = env.now

    for idx, (segments, nbytes) in enumerate(links_segments_bytes):
        env.process(runner(idx, segments, nbytes))
    env.run()
    return [finish[i] for i in range(len(links_segments_bytes))]


def test_single_flow_full_bandwidth():
    link = make_link(10.0)
    seg = Segment(link, "a", "b")
    (t,) = run_transfers([([seg], 10 * GB)])
    assert t == pytest.approx(1.0)


def test_two_flows_share_link_fairly():
    link = make_link(10.0)
    seg = Segment(link, "a", "b")
    times = run_transfers([([seg], 10 * GB), ([seg], 10 * GB)])
    # Each gets 5 GB/s: both finish at t=2.
    assert times == pytest.approx([2.0, 2.0])


def test_early_finisher_releases_bandwidth():
    link = make_link(10.0)
    seg = Segment(link, "a", "b")
    times = run_transfers([([seg], 5 * GB), ([seg], 10 * GB)])
    # Both at 5 GB/s until t=1 (flow0 done, 5 GB delivered each);
    # flow1's remaining 5 GB then runs at 10 GB/s -> t=1.5.
    assert times == pytest.approx([1.0, 1.5])


def test_opposite_directions_do_not_contend():
    link = make_link(10.0)
    fwd = Segment(link, "a", "b")
    rev = Segment(link, "b", "a")
    times = run_transfers([([fwd], 10 * GB), ([rev], 10 * GB)])
    assert times == pytest.approx([1.0, 1.0])


def test_multi_link_path_bottleneck():
    fast = make_link(100.0, "a", "b")
    slow = make_link(10.0, "b", "c")
    segs = [Segment(fast, "a", "b"), Segment(slow, "b", "c")]
    (t,) = run_transfers([(segs, 10 * GB)])
    assert t == pytest.approx(1.0)


def test_max_min_unequal_paths():
    # Flow A uses only the shared link; flow B is additionally limited by
    # its own 2 GB/s private link.  Max-min: B gets 2, A gets 8.
    shared = make_link(10.0, "a", "b")
    private = make_link(2.0, "b", "c")
    seg_a = [Segment(shared, "a", "b")]
    seg_b = [Segment(shared, "a", "b"), Segment(private, "b", "c")]
    times = run_transfers([(seg_a, 8 * GB), (seg_b, 2 * GB)])
    assert times == pytest.approx([1.0, 1.0])


def test_zero_byte_flow_completes_instantly():
    env = Environment()
    sched = FlowScheduler(env)
    link = make_link(1.0)
    done = sched.start_flow([Segment(link, "a", "b")], 0.0)
    env.run()
    assert done.ok
    assert env.now == 0.0


def test_negative_bytes_rejected():
    env = Environment()
    sched = FlowScheduler(env)
    with pytest.raises(ValueError):
        sched.start_flow([], -1.0)


def test_no_segment_flow_completes_instantly():
    env = Environment()
    sched = FlowScheduler(env)
    done = sched.start_flow([], 5 * GB)
    env.run()
    assert done.ok


def test_traffic_accounted_on_links():
    link = make_link(10.0)
    seg = Segment(link, "a", "b")
    run_transfers([([seg], 10 * GB), ([seg], 5 * GB)])
    assert link.bytes_moved("a", "b") == pytest.approx(15 * GB, rel=1e-6)
    assert link.bytes_moved("b", "a") == 0.0


def test_an_idle_stretch_carries_no_traffic():
    # The link idles over [1, 2] between two flows.  Its counter must
    # change slope where the second flow starts; interpolating from the
    # first flow's end would smear its bytes back over the idle stretch.
    env = Environment()
    sched = FlowScheduler(env)
    link = make_link(10.0)
    seg = Segment(link, "a", "b")

    def late():
        yield env.timeout(2.0)
        yield sched.start_flow([seg], 10 * GB)

    sched.start_flow([seg], 10 * GB)
    env.process(late())
    env.run()
    assert env.now == pytest.approx(3.0)
    assert link.mean_rate("a", "b", 1.0, 2.0) == 0.0
    assert link.mean_rate("a", "b", 2.0, 3.0) == pytest.approx(10 * GB)


#: How far a link counter's final total may sit from the bytes sent over
#: it, relative to them.  A counter streams each flow at its rate until
#: the flow is removed; a timer that fires an ulp past the drain time
#: over-credits the flow by rate x ulp, which is not taken back.
CONSERVATION_RTOL = 1e-12


def test_link_counters_conserve_bytes_to_float_rounding():
    # Staggered flows of uneven sizes over three links, re-rating one
    # another, and a lone flow on a fourth link that an arrival drains
    # 0.5 ns early, 5 B short: each counter ends at the bytes sent
    # across it, the early drain's residual included.
    env = Environment()
    sched = FlowScheduler(env)
    links = [make_link(bw, f"n{i}", f"n{i + 1}")
             for i, bw in enumerate((10.0, 7.0, 3.0, 10.0))]
    routes = [[Segment(links[0], "n0", "n1")],
              [Segment(links[0], "n0", "n1"), Segment(links[1], "n1", "n2")],
              [Segment(links[1], "n1", "n2"), Segment(links[2], "n2", "n3")],
              [Segment(links[2], "n2", "n3")]]
    sent = {(link.id, d): 0.0 for link in links for d in link.counters}

    def sender(i):
        for k in range(30):
            route = routes[(i + k) % len(routes)]
            nbytes = (1 + (7 * i + 3 * k) % 11) * GB / 3
            for seg in route:
                sent[(seg.link.id, (seg.src, seg.dst))] += nbytes
            yield sched.start_flow(route, nbytes)
            yield env.timeout(((i + k) % 4) * 0.01)

    def early():
        yield env.timeout(1.0 - 5e-10)
        sched.start_flow([Segment(links[3], "n4", "n3")], GB)

    for i in range(4):
        env.process(sender(i))
    sched.start_flow([Segment(links[3], "n3", "n4")], 10 * GB)
    sent[(links[3].id, ("n3", "n4"))] = 10 * GB
    sent[(links[3].id, ("n4", "n3"))] = GB
    env.process(early())
    env.run()
    assert sched.completed == 122
    for link in links:
        for direction, counter in link.counters.items():
            assert counter.rate == 0.0
            assert counter.total == pytest.approx(
                sent[(link.id, direction)], rel=CONSERVATION_RTOL, abs=0.0)


def test_staggered_arrival_rate_adjustment():
    env = Environment()
    sched = FlowScheduler(env)
    link = make_link(10.0)
    seg = Segment(link, "a", "b")
    finish = {}

    def first():
        yield sched.start_flow([seg], 10 * GB)
        finish["first"] = env.now

    def second():
        yield env.timeout(0.5)
        yield sched.start_flow([seg], 10 * GB)
        finish["second"] = env.now

    env.process(first())
    env.process(second())
    env.run()
    # First: 5 GB alone (0.5s), then shares. Remaining 5 GB at 5 GB/s -> 1.5.
    assert finish["first"] == pytest.approx(1.5)
    # Second: 5 GB at 5 GB/s (until 1.5), then 5 GB at 10 GB/s -> 2.0.
    assert finish["second"] == pytest.approx(2.0)


def test_completed_counter():
    env = Environment()
    sched = FlowScheduler(env)
    link = make_link(10.0)
    seg = Segment(link, "a", "b")

    def go():
        yield sched.start_flow([seg], 1 * GB)

    env.process(go())
    env.process(go())
    env.run()
    assert sched.completed == 2
    assert sched.active_flows == []


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=0.01, max_value=100.0),
                   min_size=1, max_size=6),
    bw=st.floats(min_value=0.5, max_value=50.0),
)
def test_property_work_conservation(sizes, bw):
    """Total completion time of N flows on one link >= serial lower bound,
    and equal to it when all flows run the link at capacity throughout."""
    link = make_link(bw)
    seg = Segment(link, "a", "b")
    times = run_transfers([([seg], s * GB) for s in sizes])
    total_bytes = sum(sizes) * GB
    # The link is never idle until the last completion, so the makespan
    # equals the serial time.
    assert max(times) == pytest.approx(total_bytes / (bw * GB), rel=1e-6)
    # All bytes accounted.
    assert link.bytes_moved("a", "b") == pytest.approx(total_bytes, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    bw=st.floats(min_value=1.0, max_value=40.0),
)
def test_property_equal_flows_finish_together(n, bw):
    link = make_link(bw)
    seg = Segment(link, "a", "b")
    times = run_transfers([([seg], 2 * GB)] * n)
    assert all(t == pytest.approx(times[0], rel=1e-9) for t in times)
    assert times[0] == pytest.approx(n * 2 / bw, rel=1e-6)


def test_flows_started_at_one_instant_solve_once():
    # k processes start k flows at t = 0: each start retires, but the
    # timeline solves once, after the instant's last event, and one
    # drain timer is armed.
    env = Environment()
    sched = FlowScheduler(env)
    link = make_link(10.0)
    seg = Segment(link, "a", "b")
    timeline = sched._timeline
    resolves = []
    timers = []
    resolve, timeout = timeline.resolve, env.timeout
    timeline.resolve = lambda: resolves.append(env.now) or resolve()
    env.timeout = lambda delay, *a, **kw: (
        timers.append(delay) or timeout(delay, *a, **kw))

    def starter(i):
        yield sched.start_flow([seg], (i + 1) * GB)

    for i in range(5):
        env.process(starter(i))
    env.run(until=0.0)
    assert resolves == [0.0]
    assert timers == [pytest.approx(0.5)]
    assert env.peek() == pytest.approx(0.5)
    assert [flow.rate for flow in sched.active_flows] == [2 * GB] * 5


@pytest.mark.parametrize("timeout_first, completed", [(True, 0),
                                                      (False, 1)])
def test_a_timeout_on_the_drain_instant_keeps_its_order(timeout_first,
                                                        completed):
    # The flow drains at exactly t = 1.  A timeout for t = 1 made before
    # the flow starts fires before its drain timer; one made after it
    # starts, at the same instant, fires after the timer has completed
    # the flow, though the timer is armed only at the instant's end.
    env = Environment()
    sched = FlowScheduler(env)
    seg = Segment(make_link(10.0), "a", "b")
    log = []

    def watch():
        env.timeout(1.0).callbacks.append(
            lambda _evt: log.append(("timeout", sched.completed)))

    if timeout_first:
        watch()
    done = sched.start_flow([seg], 10 * GB)
    if not timeout_first:
        watch()
    done.callbacks.append(lambda _evt: log.append(("done", env.now)))
    env.run()
    assert log == [("timeout", completed), ("done", 1.0)]

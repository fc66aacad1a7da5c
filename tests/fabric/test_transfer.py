"""One transfer path: ``Topology.transfer`` is a latency timer and a flow.

A transfer arms its latency timeout when called and streams on the
event it returns, so it costs two kernel events of its own (the timer
and the flow's done event), traced or not.
"""

import pytest

from repro.core import ComposableSystem
from repro.fabric import GB, LinkFailure, NVLINK2_X1, Topology
from repro.plan.executor import PlanExecution
from repro.sim import Environment
from repro.telemetry import Tracer


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def topo(env):
    t = Topology(env)
    t.add_node("a", kind="gpu")
    t.add_node("b", kind="gpu")
    t.add_link(NVLINK2_X1, "a", "b")
    return t


def _latency(topo, src="a", dst="b"):
    return topo.transfer_overhead + topo.route(src, dst).latency


@pytest.mark.parametrize("src,dst,nbytes", [
    ("a", "b", 0.0),        # zero bytes over a real route
    ("a", "a", 10 * GB),    # a route of zero segments
])
def test_nothing_to_stream_completes_after_the_latency(env, topo, src, dst,
                                                       nbytes):
    done = topo.transfer(src, dst, nbytes)
    assert env.run(until=done) == nbytes
    assert env.now == _latency(topo, src, dst)
    assert topo.scheduler.completed == 0  # no flow was started


@pytest.mark.parametrize("traced", [False, True])
def test_a_transfer_adds_exactly_two_kernel_events(env, topo, traced):
    if traced:
        topo.tracer = Tracer(env)
    first = env._eid
    env.run(until=topo.transfer("a", "b", 0.0))
    assert env._eid - first == 2  # the latency timer and the done event
    # With bytes to stream, the transfer costs its timer on top of what
    # the same flow costs when started by hand after the same delay.
    first = env._eid
    env.run(until=topo.transfer("a", "b", 5 * GB))
    by_transfer = env._eid - first
    first = env._eid
    timer = env.timeout(_latency(topo))
    env.run(until=timer)
    env.run(until=topo.scheduler.start_flow(topo.route("a", "b").segments,
                                            5 * GB))
    assert by_transfer == env._eid - first


@pytest.mark.parametrize("traced", [False, True])
def test_kill_flows_on_fails_the_returned_event(env, topo, traced):
    tracer = topo.tracer = Tracer(env) if traced else None
    link = topo.links()[0]
    done = topo.transfer("a", "b", 24.1 * GB)  # ~1 s of streaming
    env.run(until=0.5)
    cause = LinkFailure(link.name)
    assert topo.scheduler.kill_flows_on(link, cause) == 1
    with pytest.raises(LinkFailure) as raised:
        env.run(until=done)
    assert raised.value is cause
    assert not done.ok and done.value is cause
    if traced:  # the span closes at the kill, with no stall figure
        (span,) = tracer.spans
        assert span.end == 0.5 and "stall_s" not in span.attrs


def test_a_traced_transfer_span_closes_with_the_done_event(env, topo):
    tracer = topo.tracer = Tracer(env)
    done = topo.transfer("a", "b", 24.1 * GB, label="copy")
    env.run(until=done)
    (span,) = [s for s in tracer.spans if s.name == "copy"]
    assert (span.start, span.end) == (0.0, env.now)
    assert span.attrs["stall_s"] == 0.0


def _ddp_step(traced: bool):
    system = ComposableSystem()
    job = system.job("resnet50", "falconGPUs", "ddp",
                     tracer=Tracer(system.env) if traced else None)
    plan, ctx = job.step_plan, job._exec_ctx
    execution = PlanExecution(plan, ctx)
    procs = [ctx.env.process(execution.run_rank(rank))
             for rank in range(plan.world_size)]
    ctx.env.run(ctx.env.all_of(procs))
    times = {op.uid: execution.op_times(op.uid) for op in plan}
    return times, ctx.env._eid


def test_traced_and_untraced_ddp_give_the_same_times():
    """Same op and step times, from the same kernel events."""
    assert _ddp_step(traced=True) == _ddp_step(traced=False)
    steps = []
    for traced in (False, True):
        system = ComposableSystem()
        result = system.train(
            "resnet50", "falconGPUs", "ddp", sim_steps=3,
            tracer=Tracer(system.env) if traced else None)
        steps.append((result.step_time, system.env.now, system.env._eid))
    assert steps[0] == steps[1]

"""The shared collective schedule, pinned to the event-loop communicator.

``collective_schedule`` is what the fast path, the chunk-sizing pass
and the profiler use for a collective's transfers;
``Communicator`` keeps its own schedule as the event-loop reference.
These tests run each collective on the DES and check that its
``Communicator._send`` calls are exactly the schedule's phases and
pairs, with the schedule's per-transfer bytes.
"""

import pytest

from repro.fabric import NVLINK2_X1, Topology
from repro.plan import Collective, PlanError
from repro.plan.ir import COLLECTIVE_KINDS, collective_schedule
from repro.sim import Environment
from repro.training import Communicator

#: IR kind -> Communicator method.
_METHOD = {"allreduce": "allreduce", "reduce_scatter": "reduce_scatter",
           "all_gather": "allgather", "broadcast": "broadcast",
           "reduce": "reduce"}
_ROOTED = ("broadcast", "reduce")
_PAYLOAD = 24e6


def _cases():
    """(kind, world, group, root) for every kind, world size, root, plus
    one non-contiguous subgroup of an 8-rank world."""
    for kind in COLLECTIVE_KINDS:
        for world, group in [(1, None), (2, None), (3, None), (8, None),
                             (8, (1, 4, 6))]:
            members = range(world) if group is None else group
            roots = list(members) if kind in _ROOTED else [None]
            for root in roots:
                yield kind, world, group, root


def _des_phases(monkeypatch, kind, world, group, root):
    """The DES run's ``_send`` calls as ``[[(src, dst, bytes), ...]]``,
    one list per phase (a phase's sends all start at one instant)."""
    env = Environment()
    topo = Topology(env)
    names = [f"g{i}" for i in range(world)]
    for name in names:
        topo.add_node(name, kind="gpu")
    for i in range(world):
        for j in range(i + 1, world):
            topo.add_link(NVLINK2_X1, names[i], names[j])
    comm = Communicator(env, topo, names)
    sends = []
    original = Communicator._send

    def spy(self, src, dst, nbytes, label, chunk_bytes=None):
        sends.append((env.now, (src, dst, nbytes)))
        return original(self, src, dst, nbytes, label, chunk_bytes)

    monkeypatch.setattr(Communicator, "_send", spy)
    target = comm if group is None else comm.subgroup(group)
    kwargs = {}
    if kind in _ROOTED:
        # The communicator takes a communicator-local root index.
        members = range(world) if group is None else group
        kwargs["root"] = list(members).index(root)
    method = getattr(target, _METHOD[kind])
    events = [method(rank, _PAYLOAD, **kwargs)
              for rank in range(target.world_size)]
    env.run(until=env.all_of(events))
    phases: dict = {}
    for when, send in sends:
        phases.setdefault(when, []).append(send)
    return [phases[when] for when in sorted(phases)], names


@pytest.mark.parametrize("kind,world,group,root", list(_cases()))
def test_schedule_matches_communicator_sends(monkeypatch, kind, world,
                                             group, root):
    des, names = _des_phases(monkeypatch, kind, world, group, root)
    members = range(world) if group is None else group
    phases, divisor, pairs = collective_schedule(kind, members, root)
    expected = [[(names[i], names[j], _PAYLOAD / divisor)
                 for i, j in pairs]] * phases
    assert des == expected


@pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
def test_op_schedule_uses_group_and_root(kind):
    root = 4 if kind in _ROOTED else None
    op = Collective(uid="r4:x", rank=4, name="x", comm=kind, bytes=1.0,
                    root=root, group=(1, 4, 6))
    assert op.schedule(8) == collective_schedule(kind, (1, 4, 6), root)
    world = Collective(uid="r0:x", rank=0, name="x", comm=kind, bytes=1.0)
    assert world.schedule(3) == collective_schedule(kind, (0, 1, 2))


def test_rooted_default_is_first_member():
    assert collective_schedule("broadcast", (2, 5, 7)) \
        == (1, 1, ((2, 5), (2, 7)))
    assert collective_schedule("reduce", (2, 5, 7), 5) \
        == (1, 1, ((2, 5), (7, 5)))


def test_unknown_kind_rejected():
    with pytest.raises(PlanError, match="unknown collective kind"):
        collective_schedule("alltoall", (0, 1))

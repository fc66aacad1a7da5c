"""Differential harness: random tie-heavy plans through both engines.

Hypothesis builds small plans whose events collide on purpose: kernels
of a few fixed sizes (so stream ends coincide), delays of one or two
kernels, many roots, world and pair-group collectives, barriers, copies
and storage I/O against a shallow command queue.  A pair at world 2
names every rank, so the builder puts it on the world communicator; a
proper subgroup is a pair at world 3.  The same plans also run behind
an elastic-resize reshard (``splice_plans(compile_reshard(...), plan)``):
replica restores and a shard re-partition, then the plan.  Every plan
must either run on the fast path with per-op times equal to the
event-loop executor's at 1e-9, or be refused with a typed reason.  The
counterexamples that keep refusals in the fast path are pinned.

Run it deeper with ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``).
"""

import itertools
import re

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.plan import FastPathUnsupported, PlanBuilder, evaluate_plan
from repro.plan.reshard import compile_reshard, splice_plans

from .test_fastpath import _compute, make_ctx
from .test_fastpath_refusals import (
    KERNEL_S,
    cross_rank_storage_tie_plan,
    differently_released_rendezvous_tie_plan,
    differently_released_stream_tie_plan,
    jointly_released_stream_tie_plan,
)

#: Refusal reasons a valid random plan may get: a storage admission
#: tie, a stream or rendezvous tie between ops that different events
#: released, ranks pairing unlike collectives.
ACCEPTED_REFUSALS = re.compile(r"admission|event loop|mismatch")

COLLECTIVES = ("allreduce", "all_gather", "reduce_scatter", "broadcast",
               "reduce")
LOCAL_KINDS = ("compute",) * 4 + ("delay",) * 2 + ("h2d", "d2h", "p2p",
                                                  "read", "write")
SHARED_KINDS = ("world", "pair", "barrier")


@st.composite
def tie_plans(draw):
    """``(plan, queue_depth)``: a random plan built to collide."""
    world = draw(st.integers(1, 3))
    depth = draw(st.sampled_from((1, 2, 32)))
    skew = draw(st.booleans())
    b = PlanBuilder("differential", world_size=world)
    programs = {rank: [] for rank in range(world)}

    def deps(rank):
        # A root (two draws in n + 2, so t=0 stays crowded), or one
        # earlier op of the rank's own program.
        pick = draw(st.integers(-2, len(programs[rank]) - 1))
        return () if pick < 0 else (programs[rank][pick],)

    for slot in range(draw(st.integers(1, 10))):
        name = f"op{slot}"
        kind = draw(st.sampled_from(LOCAL_KINDS + SHARED_KINDS))
        if kind in SHARED_KINDS:
            group = None
            if kind == "pair" and world >= 2:
                group = draw(st.sampled_from(
                    list(itertools.combinations(range(world), 2))))
            comm = draw(st.sampled_from(COLLECTIVES))
            nbytes = draw(st.sampled_from((0.0, 1e6, 4e6)))
            for rank in group or range(world):
                if kind == "barrier":
                    uid = b.barrier(rank, name, deps=deps(rank))
                else:
                    uid = b.collective(rank, name, comm, nbytes,
                                       group=group, deps=deps(rank))
                programs[rank].append(uid)
            continue
        for rank in range(world):
            if not draw(st.booleans()):
                continue
            nbytes = draw(st.sampled_from((0.0, 1e6, 4e6)))
            if kind == "compute":
                flops = draw(st.sampled_from((0.0, 1e11, 1e12)))
                uid = _compute(b, rank, name, deps=deps(rank),
                               flops=flops * (1 + rank if skew else 1))
            elif kind == "delay":
                seconds = draw(st.sampled_from((0.0, KERNEL_S, 2 * KERNEL_S)))
                uid = b.delay(rank, name, seconds=seconds, deps=deps(rank))
            elif kind == "h2d":
                uid = b.h2d(rank, name, nbytes, deps=deps(rank))
            elif kind == "d2h":
                uid = b.d2h(rank, name, nbytes, deps=deps(rank))
            elif kind == "p2p" and world >= 2:
                uid = b.p2p(rank, name, (rank + 1) % world, nbytes,
                            deps=deps(rank))
            elif kind == "read":
                uid = b.storage_read(rank, name, nbytes, deps=deps(rank))
            else:
                uid = b.storage_write(rank, name, nbytes, deps=deps(rank))
            programs[rank].append(uid)
    return b.build(), depth


@st.composite
def spliced_plans(draw):
    """``(plan, queue_depth)``: a tie plan behind a random reshard."""
    plan, depth = draw(tie_plans())
    new = [f"gpu{rank}" for rank in range(plan.world_size)]
    survivors = draw(st.lists(st.sampled_from(new), min_size=1,
                              unique=True))
    departed = draw(st.lists(st.sampled_from(("gone0", "gone1")),
                             unique=True))
    reshard = compile_reshard(
        new, survivors + departed,
        replica_bytes=draw(st.sampled_from((0.0, 1e6, 4e6))),
        shard_bytes=draw(st.sampled_from((0.0, 1e6))))
    return splice_plans(reshard, plan), depth


def _agrees_or_refuses(plan, depth):
    # The fast path is pure, so the executor leg can reuse its context.
    ctx = make_ctx(world=plan.world_size, queue_depth=depth)
    try:
        evaluate_plan(plan, ctx, assert_equivalence=True)
    except FastPathUnsupported as exc:
        reason = ACCEPTED_REFUSALS.search(str(exc))
        assert reason, exc
        event(f"refused: {reason.group()}")
        return
    event("agreed")


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_plans())
@example((cross_rank_storage_tie_plan(), 1))
@example((differently_released_stream_tie_plan(), 32))
@example((jointly_released_stream_tie_plan(), 32))
@example((differently_released_rendezvous_tie_plan(), 32))
def test_fast_path_agrees_or_refuses(case):
    _agrees_or_refuses(*case)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spliced_plans())
def test_reshard_spliced_plans_agree_or_refuse(case):
    _agrees_or_refuses(*case)

"""No cell executor reaches ``repro.chaos`` or ``repro.elastic``.

The result cache's key digests the source of
:data:`~repro.experiments.parallel.MODEL_PACKAGES`, which leaves those
two packages out (DESIGN §12).  That is sound only while no cell runs
their code: otherwise an edit there would leave a stale value in the
cache.  Each test here runs one small cell of a kind ``_execute_cell``
dispatches on under :func:`sys.setprofile` and fails if any executed
frame lies in either package.
"""

import ast
import inspect
import os
import sys
import textwrap

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    _execute_cell,
    experiment_cell,
    fleet_cell,
    matrix_cell,
    profile_report_cell,
    step_cell,
)

#: Source directories the cache digest leaves out.
LEFT_OUT = tuple(str(parallel.MODEL_SOURCE_ROOT / package) + os.sep
                 for package in ("chaos", "elastic"))


def small_cells() -> dict:
    """One small cell per kind, keyed by kind."""
    return {
        "experiment": experiment_cell("mobilenetv2", "falconGPUs",
                                      sim_steps=2),
        "step": step_cell("mobilenetv2", "falconGPUs"),
        "matrix": matrix_cell("mobilenetv2", "falconGPUs", "ddp", None),
        "profile": profile_report_cell("mobilenetv2", "falconGPUs", "ddp",
                                       sim_steps=2),
        "fleet": fleet_cell(smoke=True),
    }


def dispatched_kinds() -> set:
    """The ``kind == "..."`` literals ``_execute_cell`` branches on."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(_execute_cell)))
    return {node.comparators[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name) and node.left.id == "kind"
            and isinstance(node.comparators[0], ast.Constant)}


def left_out_frames(fn, *args) -> set:
    """Source files under :data:`LEFT_OUT` whose code ran in ``fn``."""
    reached = set()

    def hook(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(LEFT_OUT):
                reached.add(filename)

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return reached


def test_every_dispatched_kind_has_a_cell():
    cells = small_cells()
    assert dispatched_kinds() == set(cells)
    for kind, cell in cells.items():
        assert cell["kind"] == kind


@pytest.mark.parametrize("kind", sorted(small_cells()))
def test_cell_reaches_neither_chaos_nor_elastic(kind):
    assert left_out_frames(_execute_cell, small_cells()[kind]) == set()


def test_the_probe_sees_both_packages():
    # The hook must see a call into each package, or the tests above
    # would pass vacuously.
    from repro.chaos import FaultScenario
    from repro.elastic.virtual import VirtualBatchSpec

    (chaos,) = left_out_frames(FaultScenario, "probe", [])
    assert chaos.startswith(LEFT_OUT[0])
    elastic = left_out_frames(lambda: VirtualBatchSpec(4, 64)
                              .feasible_world(2))
    assert elastic and all(f.startswith(LEFT_OUT[1]) for f in elastic)

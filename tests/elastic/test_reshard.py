"""State-redistribution plan tests, collected under the elastic suite too.

The reshard plan is plan IR built by ``repro.plan.compile_reshard``, so
its tests live with the plan layer in ``tests/plan/test_reshard.py``
(where the plan coverage floor counts them).  They are re-exported here
so the elastic suite keeps running them under their established ids.
"""

from tests.plan.test_reshard import (  # noqa: F401
    TestCompileReshard,
    TestEngineEquivalence,
    TestSplice,
    test_every_pass_preserves_the_reshard_contract,
    test_full_pipeline_conformant_on_reshard_plans,
)

"""Future-work experiments (paper §VI): advanced mode, dynamic
reconfiguration, degraded fabric, and the topology recommender.

Not a paper figure — the paper explicitly defers these — but DESIGN.md
commits to implementing the optional/extension agenda, and these runs
document the system-level conclusions the platform is built to produce.
"""

from conftest import emit

from repro.experiments import (
    TopologyRecommender,
    degraded_uplink_study,
    gpu_config_sweep,
    reconfiguration_study,
    render_table,
    ring_placement_study,
    tenancy_isolation_study,
)


def test_futurework_advanced_mode_and_reconfiguration(benchmark):
    iso = benchmark.pedantic(
        lambda: tenancy_isolation_study(sim_steps=5),
        rounds=1, iterations=1)
    place = ring_placement_study(sim_steps=5)
    reconf = reconfiguration_study(sim_steps=5)
    degraded = degraded_uplink_study(sim_steps=8)

    emit(render_table(
        ["Study", "Metric", "Value"],
        [
            ("tenant isolation", "interference %",
             round(iso.interference_pct, 2)),
            ("ring placement", "crossing penalty %",
             round(place.crossing_penalty_pct, 1)),
            ("ring placement", "shared-crossing interference %",
             round(place.interference_pct, 1)),
            ("reconfiguration", "seconds for 2 GPUs",
             round(reconf.reconfiguration_seconds, 1)),
            ("reconfiguration", "breakeven seconds",
             round(reconf.breakeven_seconds, 1)),
            ("degraded H1 cable (x8)", "BERT-L falcon slowdown %",
             round(degraded.slowdown_pct, 1)),
        ],
        title="Future-work studies: advanced mode / reconfiguration / "
              "resilience",
    ))

    assert abs(iso.interference_pct) < 2.0
    assert place.crossing_penalty_pct > 5.0
    assert place.interference_pct > 20.0
    assert reconf.breakeven_seconds < 60.0
    assert degraded.slowdown_pct > 20.0


def test_futurework_topology_recommender(benchmark):
    recommender = TopologyRecommender()

    def recommend(key):
        sweep = gpu_config_sweep(benchmarks=[key], sim_steps=6)
        return recommender.recommend_from_records(
            list(sweep[key].values()))

    rec_vision = benchmark.pedantic(lambda: recommend("resnet50"),
                                    rounds=1, iterations=1)
    rec_nlp = recommend("bert-large")

    for rec in (rec_vision, rec_nlp):
        emit(render_table(
            ["Configuration", "Total s", "Samples/s", "Cost",
             "Slowdown %", "Tput/cost", "Note"],
            rec.table_rows(),
            title=f"Recommendation for {rec.benchmark}: "
                  f"{rec.recommended}",
        ))

    # The paper's conclusion, automated: composable GPUs for vision,
    # NVLink-attached for the big NLP model.
    assert rec_vision.recommended == "falconGPUs"
    assert rec_nlp.recommended == "localGPUs"

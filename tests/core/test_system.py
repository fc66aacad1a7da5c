"""Unit tests for the ComposableSystem facade and presets."""

import pytest

from repro import (
    COMM_REQUIREMENTS,
    CONFIGURATION_DESCRIPTIONS,
    CONFIGURATION_ORDER,
    ComposableSystem,
    SOFTWARE_STACK,
)
from repro.fabric import FalconMode
from repro.plan import format_plan
from repro.telemetry import Tracer
from repro.training import (
    AMP_POLICY,
    STRATEGY_REGISTRY,
    DistributedDataParallel,
    PipelineParallel,
    ShardedDataParallel,
)
from repro.workloads import get_benchmark


@pytest.fixture(scope="module")
def system():
    return ComposableSystem()


class TestPresets:
    def test_software_stack_table1(self):
        assert SOFTWARE_STACK["CUDA"] == "10.2.89"
        assert SOFTWARE_STACK["CUDNN"] == "cudnn7.6.5"
        assert "wandb" in SOFTWARE_STACK["Profilers"]

    def test_configuration_table3(self):
        assert CONFIGURATION_ORDER == (
            "localGPUs", "hybridGPUs", "falconGPUs",
            "localNVMe", "falconNVMe")
        assert CONFIGURATION_DESCRIPTIONS["hybridGPUs"] == \
            "4 local GPUs, 4 falcon GPUs, and local storage"

    def test_fig5_requirements(self):
        assert len(COMM_REQUIREMENTS) == 3
        assert COMM_REQUIREMENTS[0].latency == "10 ns"


class TestConstruction:
    def test_paper_fig6_topology(self, system):
        # Host connected to both drawers, 4 V100s each, NVMe in drawer 1.
        assert system.falcon.port_map["H1"] == ("host0", 0)
        assert system.falcon.port_map["H2"] == ("host0", 1)
        assert len(system.falcon_gpus) == 8
        drawer0 = system.falcon.drawers[0].devices()
        assert sum(1 for d in drawer0 if "gpu" in d) == 4
        assert system.falcon_nvme.name in system.falcon.drawers[1].devices()

    def test_all_falcon_devices_allocated_to_host(self, system):
        devices = system.falcon.devices_of("host0")
        assert len(devices) == 9  # 8 GPUs + NVMe

    def test_local_inventory(self, system):
        assert len(system.host.gpus) == 8
        assert system.local_nvme is system.host.nvme

    def test_mcs_wired(self, system):
        assert "falcon0" in system.mcs.falcons
        assert system.mcs.log.query(kind="device_installed")

    def test_advanced_mode_option(self):
        system = ComposableSystem(falcon_mode=FalconMode.ADVANCED)
        assert system.falcon.mode is FalconMode.ADVANCED


class TestConfigure:
    def test_local_ring_order_is_nvlink_hamiltonian(self, system):
        active = system.configure("localGPUs")
        names = active.gpu_names
        # Consecutive ring neighbours (with wrap) are NVLink-adjacent:
        # every hop routes in one hop.
        topo = system.topology
        for i in range(len(names)):
            route = topo.route(names[i], names[(i + 1) % len(names)])
            assert route.hops == 1

    def test_hybrid_local_quad_is_nvlink_cycle(self, system):
        active = system.configure("hybridGPUs")
        local = [n for n in active.gpu_names if n.startswith("host0")]
        topo = system.topology
        for i in range(len(local)):
            route = topo.route(local[i], local[(i + 1) % len(local)])
            assert route.hops == 1

    def test_falcon_config_devices(self, system):
        active = system.configure("falconGPUs")
        assert len(active.gpus) == 8
        assert all(n.startswith("falcon0") for n in active.gpu_names)

    def test_storage_selection(self, system):
        assert system.configure("localGPUs").storage is system.host.scratch
        assert system.configure("localNVMe").storage is system.local_nvme
        assert system.configure("falconNVMe").storage is system.falcon_nvme

    def test_unknown_configuration(self, system):
        with pytest.raises(KeyError, match="available"):
            system.configure("quantumGPUs")

    def test_descriptions_attached(self, system):
        for name in CONFIGURATION_ORDER:
            active = system.configure(name)
            assert active.description == CONFIGURATION_DESCRIPTIONS[name]


class TestFalconNVMePath:
    def test_falcon_nvme_routes_through_host_port(self, system):
        route = system.topology.route("falcon0/nvme/media",
                                      "host0/dram")
        nodes = route.nodes
        assert "falcon0/drawer1/switch" in nodes
        assert "host0/rc" in nodes


class TestJobBuilder:
    def test_unknown_strategy_key_names_every_registry_key(self):
        with pytest.raises(ValueError) as exc:
            ComposableSystem().job("resnet50", strategy="zero3")
        message = str(exc.value)
        assert "'zero3'" in message
        for key in STRATEGY_REGISTRY:
            assert repr(key) in message

    def test_none_arguments_keep_training_config_defaults(self):
        job = ComposableSystem().job("resnet50", strategy=None,
                                     policy=None, sim_steps=None,
                                     global_batch=None)
        assert type(job.config.strategy) is DistributedDataParallel
        assert job.config.policy is AMP_POLICY
        assert job.config.sim_steps == 24
        assert job.config.global_batch is None
        assert job.env.now == 0.0  # built, never run

    def test_strategy_key_or_instance(self):
        sharded = ComposableSystem().job("resnet50", strategy="sharded")
        assert type(sharded.config.strategy) is ShardedDataParallel
        pipeline = PipelineParallel(microbatches=4)
        job = ComposableSystem().job("resnet50", strategy=pipeline)
        assert job.config.strategy is pipeline

    def test_benchmark_instance_or_registry_key(self):
        by_key = ComposableSystem().job("bert-base", "falconGPUs")
        by_instance = ComposableSystem().job(get_benchmark("bert-base"),
                                             "falconGPUs")
        assert format_plan(by_instance.step_plan) == \
            format_plan(by_key.step_plan)

    def test_synthetic_benchmark_trains(self):
        # The scaling study's ad-hoc BERT family is in no registry.
        from repro.experiments.scaling_laws import _bert_family_benchmark
        bench = _bert_family_benchmark(2, 256, 4)
        system = ComposableSystem()
        job = system.job(bench, "localGPUs", "ddp", sim_steps=2,
                         sim_checkpoints=0)
        assert job.config.benchmark is bench
        assert job.run().step_time > 0.0

    def test_configuration_places_the_gpus(self):
        system = ComposableSystem()
        job = system.job("resnet50", "falconGPUs")
        assert tuple(g.name for g in job.gpus) == \
            system.configure("falconGPUs").gpu_names

    def test_tracer_reaches_the_topology(self):
        system = ComposableSystem()
        tracer = Tracer(system.env)
        job = system.job("resnet50", tracer=tracer)
        assert system.topology.tracer is tracer
        # A fresh tracer is empty (falsy), and still the one in use.
        assert job.tracer is tracer
        assert job.comm.tracer is tracer
        assert job._exec_ctx.tracer is tracer

"""Array system-simulation kernel: knob plumbing and bit-exact parity.

The array kernel (:mod:`repro.sim.arraykernel`) is a performance
reimplementation of the scalar drain loop — the acceptance bar is that a
run's *entire* :class:`SimulationResult` (IPC, energy, latency summary,
every controller counter) and, with an observer attached, the full command
event stream are identical between kernels.  These tests pin that
contract on directed configurations; ``test_property_sim_parity.py``
fuzzes it.
"""

import pytest

from repro.errors import ConfigError
from repro.exec import (
    STAGE_KERNELS,
    ExecutionPolicy,
    checked_kernel,
    resolve_kernel,
    set_default_policy,
)
from repro.exec.parity import assert_all_parity, assert_parity
from repro.mitigations import MITIGATION_CLASSES, make_mitigation
from repro.sim.system import MemorySystem
from repro.workloads.synth import TraceSpec, generate_trace


def _trace(seed=3, requests=1200, **overrides):
    fields = dict(name="test.kernels", mpki=30.0, locality=0.5,
                  footprint_lines=4096, write_fraction=0.3)
    fields.update(overrides)
    return generate_trace(TraceSpec(**fields), requests=requests, seed=seed)


def _run_pair(config, trace_seeds, *, mitigation=None, nrh=256,
              policy_factory=None, **trace_kw):
    """Run identical systems through both kernels; return both results."""
    results = []
    for kernel in ("scalar", "array"):
        traces = [_trace(seed=s, **trace_kw) for s in trace_seeds]
        mechanism = (make_mitigation(mitigation, nrh)
                     if mitigation else None)
        policy = policy_factory(config) if policy_factory else None
        system = MemorySystem(config, traces, mitigation=mechanism,
                              policy=policy)
        results.append(system.run(kernel))
    return results


class TestKernelKnob:
    def test_known_kernels(self):
        assert STAGE_KERNELS["sim"] == ("scalar", "array")
        for kernel in STAGE_KERNELS["sim"]:
            assert resolve_kernel("sim", kernel) == kernel

    def test_unknown_kernel_rejected(self):
        for removed in ("turbo", "batched"):
            with pytest.raises(ConfigError, match="scalar.*array"):
                resolve_kernel("sim", removed)

    def test_default_roundtrip(self):
        set_default_policy(ExecutionPolicy(kernel_policy="scalar"))
        assert resolve_kernel("sim") == "scalar"
        set_default_policy(ExecutionPolicy())
        assert resolve_kernel("sim") == "array"

    def test_default_is_array(self):
        assert resolve_kernel("sim") == "array"

    def test_run_rejects_unknown_kernel(self, single_core_config):
        system = MemorySystem(single_core_config, [_trace(requests=10)])
        with pytest.raises(ConfigError):
            system.run("turbo")

    def test_checking_forces_scalar(self):
        assert checked_kernel("sim", "array", check_protocol="strict") \
            == "scalar"
        assert checked_kernel("sim", "array", check_protocol="tolerant") \
            == "scalar"
        assert checked_kernel("sim", "array", check_protocol="off") == "array"
        assert checked_kernel("sim", check_protocol="off") \
            == resolve_kernel("sim")

    def test_observer_defaults_to_scalar(self, single_core_config):
        observer = _RecordingObserver()
        system = MemorySystem(single_core_config, [_trace(requests=50)],
                              observer=observer)
        system.run()  # must not crash: implicit scalar under an observer
        assert observer.finalized is not None


class TestKernelParity:
    @pytest.mark.parametrize("mitigation", sorted(MITIGATION_CLASSES))
    def test_single_core_all_mitigations(self, single_core_config, mitigation):
        scalar, array = _run_pair(single_core_config, [3],
                                  mitigation=mitigation)
        assert_parity(scalar, array)

    def test_multicore(self, quad_core_config):
        scalar, array = _run_pair(quad_core_config, [1, 2, 3, 4],
                                  mitigation="PARA")
        assert_parity(scalar, array)

    def test_write_heavy_forwarding(self, single_core_config):
        scalar, array = _run_pair(single_core_config, [9],
                                  write_fraction=0.7, locality=0.2)
        assert_parity(scalar, array)
        assert scalar.controller_stats.forwarded_reads > 0

    def test_pacram_policy(self, single_core_config):
        from repro.analysis.runner import pacram_reference_config
        from repro.core.pacram import PaCRAM

        pacram = pacram_reference_config("H")
        scalar, array = _run_pair(
            single_core_config, [5], mitigation="PARA", nrh=8,
            policy_factory=lambda cfg: PaCRAM(cfg, pacram))
        assert_parity(scalar, array)
        assert scalar.controller_stats.preventive_refresh_partial > 0

    def test_mitigation_counters(self, single_core_config):
        ms = make_mitigation("Hydra", 64)
        ma = make_mitigation("Hydra", 64)
        MemorySystem(single_core_config, [_trace(seed=3)],
                     mitigation=ms).run("scalar")
        MemorySystem(single_core_config, [_trace(seed=3)],
                     mitigation=ma).run("array")
        assert_parity(ms.counters, ma.counters)


class _RecordingObserver:
    """Observer that keeps the full command stream for comparison."""

    def __init__(self):
        self.events = []
        self.finalized = None

    def on_command(self, command):
        self.events.append(command)

    def finalize(self, end_ns):
        self.finalized = end_ns


class TestObserverStreamParity:
    @pytest.mark.parametrize("mitigation", ["PARA", "RFM", "Hydra"])
    def test_event_streams_identical(self, single_core_config, mitigation):
        streams = []
        for kernel in ("scalar", "array"):
            observer = _RecordingObserver()
            system = MemorySystem(
                single_core_config, [_trace(seed=3)],
                mitigation=make_mitigation(mitigation, 64),
                observer=observer)
            system.run(kernel)
            streams.append(observer)
        assert_all_parity(streams[0].events, streams[1].events,
                          label="array command stream")
        assert streams[0].finalized == streams[1].finalized
        assert len(streams[0].events) > 0

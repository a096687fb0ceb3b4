"""Tests for the repro.backends device model: Target, Backend, registry."""

import json

import pytest

from repro.backends import (
    Backend,
    BackendNotFoundError,
    backend_names,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)
from repro.circuits.benchmarks import build_benchmark
from repro.compiler import compile_circuit
from repro.core.architecture import DigiQConfig
from repro.hardware.controller_designs import ControllerDesign, evaluate_design
from repro.runtime.jobs import circuit_fingerprint, job_key
from repro.runtime.spec import ExperimentSpec
from repro.simulation.channels import NoiseModel


class TestRegistry:
    def test_builtin_names_present(self):
        names = backend_names()
        for expected in (
            "digiq-opt8",
            "digiq-min2",
            "digiq-line",
            "digiq-heavy-hex",
            "cryo-cmos-grid",
        ):
            assert expected in names

    def test_get_backend_by_name(self):
        backend = get_backend("digiq-opt8")
        assert backend.name == "digiq-opt8"
        assert backend.topology == "grid"
        assert backend.config.is_opt and backend.config.bitstreams == 8

    def test_dynamic_digiq_family_names(self):
        backend = get_backend("digiq-opt16@g4")
        assert backend.config.bitstreams == 16 and backend.config.groups == 4
        assert backend.controller.variant == "digiq_opt"

    def test_legacy_config_specs_resolve(self):
        assert get_backend("opt8") == get_backend("digiq-opt8")
        assert get_backend("min2").name == "digiq-min2"
        assert get_backend("opt16@g4").name == "digiq-opt16@g4"

    def test_digiq_config_objects_resolve(self):
        backend = get_backend(DigiQConfig.minimal(bitstreams=4, groups=8))
        assert backend.name == "digiq-min4@g8"
        assert backend.config == DigiQConfig.minimal(bitstreams=4, groups=8)

    def test_backend_instances_pass_through(self):
        backend = get_backend("digiq-opt8")
        assert get_backend(backend) is backend

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(BackendNotFoundError, match="digiq-opt8"):
            get_backend("warp-drive")

    @pytest.mark.parametrize("bad", ["digiq-opt0", "digiq-min0", "opt0", "digiq-opt8@g0"])
    def test_zero_counts_rejected(self, bad):
        with pytest.raises(ValueError, match=">= 1"):
            get_backend(bad)

    def test_register_and_unregister_custom_backend(self):
        custom = Backend(
            name="my-device",
            topology="line",
            config=DigiQConfig.opt(bitstreams=4),
            controller=ControllerDesign("digiq_opt", groups=2, bitstreams=4),
            default_qubits=8,
        )
        try:
            register_backend(custom)
            assert get_backend("my-device") == custom
            assert "my-device" in backend_names()
            with pytest.raises(ValueError, match="already registered"):
                register_backend(custom)
        finally:
            assert unregister_backend("my-device")
        with pytest.raises(BackendNotFoundError):
            get_backend("my-device")

    def test_list_backends_sorted_and_resolved(self):
        backends = list_backends()
        assert [b.name for b in backends] == sorted(b.name for b in backends)
        assert all(isinstance(b, Backend) for b in backends)


class TestSerialization:
    @pytest.mark.parametrize("name", ["digiq-opt8", "digiq-line", "digiq-heavy-hex", "cryo-cmos-grid"])
    def test_backend_dict_roundtrip(self, name):
        backend = get_backend(name)
        data = backend.to_dict()
        json.dumps(data)  # must be JSON-able as-is (cache-key material)
        assert Backend.from_dict(data) == backend

    def test_backend_dict_keys_sorted(self):
        keys = list(get_backend("digiq-opt8").to_dict().keys())
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", ["digiq-opt8", "digiq-line", "digiq-heavy-hex", "cryo-cmos-grid"])
    def test_target_dict_roundtrip(self, name):
        target = get_backend(name).target_for(12)
        data = target.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["single_qubit_error_rates"] == {
            str(q): rate for q, rate in target.single_qubit_error_rates.items()
        }
        assert len(data["coupler_error_rates"]) == len(target.coupler_error_rates)


class TestTargets:
    def test_grid_backend_target_matches_paper_sizing(self):
        target = get_backend("digiq-opt8").target_for(16)
        assert target.num_qubits == 16  # 4x4 grid
        assert target.basis_gates == ("u3", "rz", "cz")
        assert target.gate_durations_ns["cz"] == 60.0

    def test_sampled_backends_carry_no_frozen_rates(self):
        target = get_backend("digiq-opt8").target_for(9)
        assert not target.single_qubit_error_rates and not target.coupler_error_rates

    @pytest.mark.parametrize("name", ["digiq-line", "digiq-heavy-hex", "cryo-cmos-grid"])
    def test_calibrated_backends_freeze_rates(self, name):
        target = get_backend(name).target_for(9)
        assert len(target.single_qubit_error_rates) == target.num_qubits
        assert len(target.coupler_error_rates) == len(target.couplers())
        for rate in target.single_qubit_error_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_calibration_is_deterministic(self):
        a = get_backend("digiq-line").target_for(9)
        b = get_backend("digiq-line").target_for(9)
        assert a.single_qubit_error_rates == b.single_qubit_error_rates
        assert a.coupler_error_rates == b.coupler_error_rates

    def test_target_sizing_is_idempotent(self):
        # Re-requesting the rounded physical size reproduces the same device,
        # which is what lets the fidelity path rebuild the compiled target.
        backend = get_backend("digiq-opt8")
        first = backend.target_for(10)  # rounds up to a 3x4 grid
        again = backend.target_for(first.num_qubits)
        assert again.coupling == first.coupling

    def test_line_target_is_exact_length(self):
        assert get_backend("digiq-line").target_for(10).num_qubits == 10


class TestNoiseFromTarget:
    def test_from_target_transfers_calibrated_rates(self):
        target = get_backend("digiq-heavy-hex").target_for(9)
        noise = NoiseModel.from_target(target)
        assert noise.num_qubits == target.num_qubits
        for qubit, rate in target.single_qubit_error_rates.items():
            assert noise.single_qubit_rate(qubit) == rate
        for (a, b), rate in target.coupler_error_rates.items():
            assert noise.coupler_rate(a, b) == rate

    def test_from_target_defaults_for_uncalibrated(self):
        target = get_backend("digiq-opt8").target_for(9)
        noise = NoiseModel.from_target(target)
        assert noise.single_qubit_rate(3) == target.default_single_qubit_error
        assert noise.coupler_rate(0, 1) == target.default_cz_error

    def test_backend_noise_model_dispatch(self):
        couplers = [(0, 1), (1, 2)]
        sampled = get_backend("digiq-opt8").noise_model(9, couplers=couplers, seed=3)
        direct = NoiseModel.sampled(
            9, config=get_backend("digiq-opt8").config, couplers=tuple(couplers), seed=3
        )
        assert sampled.single_qubit_rates == direct.single_qubit_rates
        assert sampled.coupler_rates == direct.coupler_rates

        calibrated = get_backend("digiq-line").noise_model(9)
        target = get_backend("digiq-line").target_for(9)
        assert dict(calibrated.single_qubit_rates) == dict(target.single_qubit_error_rates)


class TestBackendCompatibility:
    """The registry path must be indistinguishable from the legacy path."""

    def test_compile_via_backend_is_byte_identical_to_legacy(self):
        circuit = build_benchmark("bv", num_qubits=9, seed=0)
        legacy = compile_circuit(circuit, seed=0)  # smallest grid, paper default
        target = get_backend("digiq-opt8").target_for(circuit.num_qubits)
        via_backend = compile_circuit(circuit, target=target, seed=0)
        assert circuit_fingerprint(via_backend.physical_circuit) == circuit_fingerprint(
            legacy.physical_circuit
        )
        assert via_backend.num_swaps == legacy.num_swaps
        assert via_backend.depth == legacy.depth

    def test_legacy_spec_and_backend_name_share_job_keys(self):
        by_spec = ExperimentSpec(benchmark="bv", backend="opt8", num_qubits=8)
        by_name = ExperimentSpec(benchmark="bv", backend="digiq-opt8", num_qubits=8)
        assert job_key(by_spec) == job_key(by_name)

    def test_equivalent_names_share_cache_identity(self):
        # "opt8@g2" spells the default group count explicitly; same physics,
        # different name — the content-addressed key must not care.
        explicit = ExperimentSpec(benchmark="bv", backend="opt8@g2", num_qubits=8)
        implicit = ExperimentSpec(benchmark="bv", backend="digiq-opt8", num_qubits=8)
        assert explicit.backend.name != implicit.backend.name
        assert job_key(explicit) == job_key(implicit)

    def test_distinct_backends_get_distinct_keys(self):
        base = job_key(ExperimentSpec(benchmark="bv", backend="digiq-opt8", num_qubits=8))
        for other in ("digiq-min2", "digiq-line", "digiq-heavy-hex", "cryo-cmos-grid"):
            key = job_key(ExperimentSpec(benchmark="bv", backend=other, num_qubits=8))
            assert key != base


class TestCompileOnNewTopologies:
    @pytest.mark.parametrize("name", ["digiq-line", "digiq-heavy-hex"])
    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_benchmarks_compile_and_validate(self, name, opt_level):
        # ValidateBasis/ValidateCoupling run inside the pipeline and raise on
        # any off-coupler CZ, so a clean compile is a real routing proof.
        circuit = build_benchmark("qgan", num_qubits=8, seed=1)
        target = get_backend(name).target_for(circuit.num_qubits)
        compiled = compile_circuit(circuit, target=target, seed=1, opt_level=opt_level)
        assert compiled.coupling is target.coupling
        assert compiled.physical_circuit.count("cz") > 0

    def test_line_needs_more_swaps_than_grid(self):
        circuit = build_benchmark("qgan", num_qubits=9, seed=0)
        grid = compile_circuit(
            circuit, target=get_backend("digiq-opt8").target_for(9), seed=0
        )
        line = compile_circuit(
            circuit, target=get_backend("digiq-line").target_for(9), seed=0
        )
        assert line.num_swaps >= grid.num_swaps


class TestCryoCmosCost:
    def test_power_per_qubit_matches_prototype(self):
        cost = evaluate_design(get_backend("cryo-cmos-grid").controller, 1024)
        assert cost.power_per_qubit_mw == pytest.approx(12.0)
        assert cost.storage_bits == 0

    def test_scalability_is_hundreds_not_thousands(self):
        result = get_backend("cryo-cmos-grid").scalability()
        assert 500 <= result.max_qubits <= 1000  # paper quotes ~800
        digiq = get_backend("digiq-min2").scalability()
        assert digiq.max_qubits > 10 * result.max_qubits

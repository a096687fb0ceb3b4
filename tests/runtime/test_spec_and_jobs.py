"""Tests for sweep specs, config parsing, and content-addressed job keys."""

import pytest

from repro.backends import BackendNotFoundError, get_backend
from repro.circuits.benchmarks import build_benchmark
from repro.core.architecture import DigiQConfig
from repro.runtime.jobs import circuit_fingerprint, job_key, ordered_row
from repro.runtime.spec import CompileOptions, ExperimentSpec, SweepGrid


class TestParseConfig:
    """The legacy ``<variant><BS>[@g<G>]`` grammar that ``--configs`` and
    ``ExperimentSpec.backend`` accept, parsed by ``get_backend``."""

    def test_opt_spec(self):
        config = get_backend("opt8").config
        assert config.is_opt and config.bitstreams == 8 and config.groups == 2

    def test_min_spec_with_groups(self):
        config = get_backend("min4@g8").config
        assert not config.is_opt and config.bitstreams == 4 and config.groups == 8

    def test_config_objects_pass_through(self):
        config = DigiQConfig.opt(bitstreams=16)
        assert get_backend(config).config is config

    @pytest.mark.parametrize("bad", ["", "opt", "8opt", "opt8@", "maxi4"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(BackendNotFoundError):
            get_backend(bad)

    @pytest.mark.parametrize("bad", ["opt0", "min0"])
    def test_zero_bitstreams_rejected_clearly(self, bad):
        with pytest.raises(ValueError, match="BS must be >= 1"):
            get_backend(bad)

    @pytest.mark.parametrize("bad", ["opt8@g0", "min2@g0"])
    def test_zero_groups_rejected_clearly(self, bad):
        with pytest.raises(ValueError, match="group count must be >= 1"):
            get_backend(bad)


class TestConfigDictRoundtrip:
    def test_roundtrip_preserves_equality(self):
        config = DigiQConfig.minimal(groups=4, bitstreams=2)
        assert DigiQConfig.from_dict(config.as_dict()) == config

    def test_dict_keys_are_sorted(self):
        keys = list(DigiQConfig.opt().as_dict().keys())
        assert keys == sorted(keys)


class TestSweepGrid:
    def test_expansion_size_and_order(self):
        grid = SweepGrid(
            benchmarks=("qgan", "bv"),
            backends=("opt8", "min2"),
            num_qubits=8,
            seeds=(0, 1),
        )
        specs = grid.expand()
        assert len(specs) == len(grid) == 8
        # benchmarks outer, seeds middle, configs inner
        assert [s.benchmark for s in specs[:4]] == ["qgan"] * 4
        assert [s.seed for s in specs[:4]] == [0, 0, 1, 1]
        assert specs[0].config.is_opt and not specs[1].config.is_opt

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(benchmarks=("nope",), num_qubits=8).expand()

    def test_explicitly_empty_backends_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(benchmarks=("bv",), backends=(), num_qubits=8)

    def test_bad_compile_options_rejected(self):
        with pytest.raises(ValueError):
            CompileOptions(routing_trials=0)
        with pytest.raises(ValueError):
            CompileOptions(layout_strategy="spiral")
        with pytest.raises(ValueError):
            CompileOptions(opt_level=5)
        with pytest.raises(ValueError):
            CompileOptions(pipeline="warp")

    def test_compile_options_defaults_to_o1_default_pipeline(self):
        options = CompileOptions()
        assert options.opt_level == 1
        assert options.pipeline == "default"
        assert options.routing_seed is None
        assert set(options.as_dict()) == {
            "layout_strategy",
            "routing_trials",
            "opt_level",
            "pipeline",
            "routing_seed",
        }

    def test_defaults_cover_three_by_three(self):
        grid = SweepGrid()
        assert len(grid.benchmarks) >= 3 and len(grid.backends) >= 3


class TestJobKeys:
    def make_spec(self, **overrides):
        base = dict(
            benchmark="bv",
            backend="opt8",
            num_qubits=8,
            seed=0,
            compile_options=CompileOptions(),
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_key_is_deterministic(self):
        assert job_key(self.make_spec()) == job_key(self.make_spec())

    def test_key_changes_with_each_identity_axis(self):
        base = job_key(self.make_spec())
        assert job_key(self.make_spec(seed=1)) != base
        assert job_key(self.make_spec(benchmark="qgan")) != base
        assert job_key(self.make_spec(num_qubits=9)) != base
        assert job_key(self.make_spec(backend="opt16")) != base
        assert (
            job_key(self.make_spec(compile_options=CompileOptions(routing_trials=3))) != base
        )

    def test_key_changes_with_pass_manager_knobs(self):
        base = job_key(self.make_spec())
        assert job_key(self.make_spec(compile_options=CompileOptions(opt_level=2))) != base
        assert (
            job_key(self.make_spec(compile_options=CompileOptions(pipeline="lookahead")))
            != base
        )
        assert (
            job_key(self.make_spec(compile_options=CompileOptions(routing_seed=7))) != base
        )
        # None (use the job seed) and an explicit seed are distinct identities.
        assert job_key(
            self.make_spec(compile_options=CompileOptions(routing_seed=0))
        ) != job_key(self.make_spec(compile_options=CompileOptions(routing_seed=None)))

    def test_key_matches_prebuilt_circuit(self):
        spec = self.make_spec()
        circuit = build_benchmark("bv", num_qubits=8, seed=0)
        assert job_key(spec) == job_key(spec, circuit=circuit)

    def test_circuit_fingerprint_tracks_contents(self):
        a = build_benchmark("bv", num_qubits=8, seed=0)
        b = build_benchmark("bv", num_qubits=8, seed=0)
        c = build_benchmark("bv", num_qubits=8, seed=3)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(c)


class TestOrderedRow:
    def test_known_columns_lead_in_canonical_order(self):
        row = {"swaps": 1, "benchmark": "bv", "zebra": 9, "design": "DigiQ_opt(BS=8)"}
        assert list(ordered_row(row)) == ["benchmark", "design", "swaps", "zebra"]

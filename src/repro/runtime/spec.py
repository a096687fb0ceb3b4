"""Declarative experiment specifications for the sweep engine.

An :class:`ExperimentSpec` names one *job*: a Table IV benchmark instance,
the compiler options used to lower it, and one registered
:class:`~repro.backends.Backend` to compile, schedule and (optionally)
simulate it on.  A :class:`SweepGrid` is the cartesian product
``benchmarks x backends x seeds`` and expands into the deterministic,
ordered list of jobs the dispatcher executes.

Backends are referred to by registry name (``"digiq-opt8"``,
``"cryo-cmos-grid"``), by legacy config spec (``"opt8"``, ``"min2"``,
``"opt16@g4"`` — these resolve to the matching DigiQ grid backend), as
:class:`~repro.core.architecture.DigiQConfig` objects, or directly as
:class:`~repro.backends.Backend` instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..backends import Backend, get_backend
from ..circuits.benchmarks import BENCHMARK_NAMES, build_benchmark
from ..circuits.circuit import QuantumCircuit, circuit_fingerprint
from ..compiler.layout import LAYOUT_STRATEGIES
from ..compiler.pipeline import DEFAULT_OPT_LEVEL, OPT_LEVELS, PIPELINE_NAMES
from ..core.architecture import DigiQConfig
from ..simulation.trajectories import DEFAULT_BATCH_SIZE, MAX_DENSE_QUBITS

#: Default sweep axes used by ``python -m repro.runtime`` with no arguments.
DEFAULT_BENCHMARKS: Tuple[str, ...] = ("qgan", "ising", "bv")
DEFAULT_BACKEND_NAMES: Tuple[str, ...] = ("digiq-opt8", "digiq-opt16", "digiq-min2")

#: Anything :func:`~repro.backends.get_backend` accepts.
BackendLike = Union[str, Backend, DigiQConfig]


@dataclass(frozen=True)
class CompileOptions:
    """Compiler-pipeline knobs that are part of a job's identity.

    ``opt_level`` and ``pipeline`` select the pass pipeline
    (:func:`repro.compiler.build_pass_manager`); ``routing_seed`` pins the
    stochastic router's randomness independently of the job seed (None means
    "use the job seed", the historical behaviour).  All of these enter the
    content-addressed cache key, so sweeps at different levels never collide.
    """

    layout_strategy: str = "snake"
    routing_trials: int = 2
    opt_level: int = DEFAULT_OPT_LEVEL
    pipeline: str = "default"
    routing_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.layout_strategy not in LAYOUT_STRATEGIES:
            raise ValueError(f"unknown layout strategy '{self.layout_strategy}'")
        if self.routing_trials < 1:
            raise ValueError("routing_trials must be >= 1")
        if self.opt_level not in OPT_LEVELS:
            raise ValueError(f"opt_level must be one of {OPT_LEVELS}")
        if self.pipeline not in PIPELINE_NAMES:
            raise ValueError(f"unknown pipeline '{self.pipeline}'; known: {PIPELINE_NAMES}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "layout_strategy": self.layout_strategy,
            "routing_trials": self.routing_trials,
            "opt_level": self.opt_level,
            "pipeline": self.pipeline,
            "routing_seed": self.routing_seed,
        }


@dataclass(frozen=True)
class FidelityOptions:
    """Monte-Carlo end-to-end fidelity estimation knobs (part of job identity).

    When attached to a job, the compiled physical circuit is run through
    :func:`repro.simulation.run_trajectories` under the backend's noise model
    (frozen calibrated rates for calibrated backends, a
    :class:`~repro.noise.variability.VariabilityModel` sample otherwise),
    and the result row gains ``success_probability`` / ``state_fidelity`` /
    ``trajectories`` columns.

    ``noise_seed`` pins the sampled device (which qubits drifted how far);
    the job's own ``seed`` drives the trajectory randomness, so sweeping
    seeds varies the Monte-Carlo sample on a fixed noisy device.  Devices
    whose physical qubit count exceeds ``max_qubits`` skip simulation and
    report null fidelity columns instead of exploding the statevector;
    ``max_qubits`` itself is capped at the dense kernel's
    :data:`~repro.simulation.trajectories.MAX_DENSE_QUBITS`.
    """

    trajectories: int = 100
    batch_size: int = DEFAULT_BATCH_SIZE
    noise_seed: int = 0
    max_qubits: int = 16

    def __post_init__(self) -> None:
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.max_qubits <= MAX_DENSE_QUBITS:
            raise ValueError(
                f"max_qubits must be in [1, {MAX_DENSE_QUBITS}] (dense statevector limit)"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "trajectories": self.trajectories,
            "batch_size": self.batch_size,
            "noise_seed": self.noise_seed,
            "max_qubits": self.max_qubits,
            # Keys hash this dict; stored rows were keyed with the old kernel
            # knob's default, so the literal keeps every key byte-identical.
            "mode": "auto",
        }

    @staticmethod
    def from_dict(data: Optional[Dict[str, object]]) -> Optional["FidelityOptions"]:
        if data is None:
            return None
        fields = dict(data)
        mode = fields.pop("mode", "auto")
        if mode != "auto":
            raise ValueError(
                f"fidelity option mode={mode!r} is no longer supported; "
                "the only trajectory kernel is the dense statevector one"
            )
        return FidelityOptions(**fields)


@dataclass(frozen=True)
class ExperimentSpec:
    """One schedulable job: a circuit instance x compile options x backend.

    The circuit is named either by a Table IV benchmark (``benchmark`` must
    then be a registered generator name and ``num_qubits``/``seed``
    parameterise it) or supplied directly as a user
    :class:`~repro.circuits.circuit.QuantumCircuit` via ``circuit`` — the
    door the :mod:`repro.primitives` execution API submits through.  For
    user circuits ``benchmark`` is a free-form display label (defaulting to
    the circuit's name) and ``num_qubits`` is taken from the circuit itself.

    ``seed`` seeds both the benchmark generator and the stochastic router, so
    one integer fully pins the job's randomness.  ``fidelity`` optionally
    requests a Monte-Carlo end-to-end fidelity estimate of the compiled
    circuit alongside the timing columns.
    """

    benchmark: str = ""
    backend: BackendLike = "digiq-opt8"
    num_qubits: int = 16
    seed: int = 0
    compile_options: CompileOptions = field(default_factory=CompileOptions)
    fidelity: Optional[FidelityOptions] = None
    circuit: Optional[QuantumCircuit] = None

    def __post_init__(self) -> None:
        if self.circuit is not None:
            label = (self.benchmark or self.circuit.name or "circuit").lower()
            object.__setattr__(self, "benchmark", label)
            object.__setattr__(self, "num_qubits", self.circuit.num_qubits)
        else:
            name = self.benchmark.lower()
            if name not in BENCHMARK_NAMES:
                raise ValueError(
                    f"unknown benchmark '{self.benchmark}'; known: {BENCHMARK_NAMES}"
                )
            object.__setattr__(self, "benchmark", name)
            if self.num_qubits < 2:
                raise ValueError("num_qubits must be >= 2")
        object.__setattr__(self, "backend", get_backend(self.backend))

    @property
    def config(self) -> DigiQConfig:
        """The backend's DigiQ configuration (scheduling parameters)."""
        return self.backend.config

    def source_circuit(self) -> QuantumCircuit:
        """The logical circuit this job executes.

        User circuits are returned as-is; benchmark jobs rebuild their
        generator instance (cheap and deterministic for a given
        ``(benchmark, num_qubits, seed)``).
        """
        if self.circuit is not None:
            return self.circuit
        return build_benchmark(self.benchmark, num_qubits=self.num_qubits, seed=self.seed)

    # -- grouping -------------------------------------------------------------------

    @property
    def compile_group(self) -> Tuple[object, ...]:
        """Jobs sharing this tuple share one compilation.

        Covers everything that shapes the physical circuit: the circuit
        instance (benchmark parameters, or the content fingerprint for user
        circuits — their display label is presentation, not identity), the
        compile options, and the backend's topology/basis
        (:attr:`Backend.compile_key`) — all DigiQ grid configs of one
        benchmark still compile once, while a line or heavy-hex backend
        compiles separately.
        """
        circuit_ident = (
            self.benchmark if self.circuit is None else circuit_fingerprint(self.circuit)
        )
        return (
            circuit_ident,
            self.num_qubits,
            self.seed,
            self.backend.compile_key,
        ) + tuple(sorted(self.compile_options.as_dict().items()))

    def describe(self) -> Dict[str, object]:
        """Identity of the job as a plain dict (used in stored results)."""
        description = {
            "benchmark": self.benchmark,
            "num_qubits": self.num_qubits,
            "seed": self.seed,
            "compile": self.compile_options.as_dict(),
            "backend": self.backend.to_dict(),
        }
        if self.circuit is not None:
            description["circuit"] = circuit_fingerprint(self.circuit)
        if self.fidelity is not None:
            description["fidelity"] = self.fidelity.as_dict()
        return description


@dataclass(frozen=True)
class SweepGrid:
    """The cartesian product of sweep axes, expanded in deterministic order.

    Expansion order is benchmarks (outer) x seeds x backends (inner), which
    keeps all backends of one compiled benchmark adjacent — the dispatcher
    compiles each (benchmark, seed, topology) once and reuses it across the
    backends sharing that topology.
    """

    benchmarks: Tuple[str, ...] = DEFAULT_BENCHMARKS
    backends: Tuple[BackendLike, ...] = DEFAULT_BACKEND_NAMES
    num_qubits: int = 16
    seeds: Tuple[int, ...] = (0,)
    compile_options: CompileOptions = field(default_factory=CompileOptions)
    fidelity: Optional[FidelityOptions] = None

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("a sweep needs at least one backend")
        object.__setattr__(
            self, "backends", tuple(get_backend(b) for b in self.backends)
        )
        benchmarks = tuple(b.lower() for b in self.benchmarks)
        for name in benchmarks:
            if name not in BENCHMARK_NAMES:
                raise ValueError(f"unknown benchmark '{name}'; known: {BENCHMARK_NAMES}")
        object.__setattr__(self, "benchmarks", benchmarks)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.benchmarks:
            raise ValueError("a sweep needs at least one benchmark")
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if self.num_qubits < 2:
            raise ValueError("num_qubits must be >= 2")

    def __len__(self) -> int:
        return len(self.benchmarks) * len(self.seeds) * len(self.backends)

    def expand(self) -> List[ExperimentSpec]:
        """All jobs of the grid, in deterministic order."""
        return list(self._iter_specs())

    def _iter_specs(self) -> Iterator[ExperimentSpec]:
        for benchmark in self.benchmarks:
            for seed in self.seeds:
                for backend in self.backends:
                    yield ExperimentSpec(
                        benchmark=benchmark,
                        backend=backend,
                        num_qubits=self.num_qubits,
                        seed=seed,
                        compile_options=self.compile_options,
                        fidelity=self.fidelity,
                    )

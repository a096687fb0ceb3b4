"""The Estimator primitive: expectation values of Pauli observables.

``Estimator.run`` pairs circuits with
:class:`~repro.primitives.observables.PauliObservable` s and resolves to an
:class:`~repro.primitives.results.EstimatorResult` of expectation values,
computed on the *compiled physical circuit* (observable qubits are mapped
through the final layout, so the estimate includes everything compilation
did to the circuit) by one of two methods:

* ``"exact"`` — one dense statevector simulation of the compiled circuit;
  the value equals the ideal ``<psi|O|psi>`` of the source circuit to
  numerical precision, because compilation preserves the logical state.
* ``"trajectories"`` — the mean over seeded noisy Monte-Carlo trajectories
  under the backend's noise model
  (:func:`repro.simulation.trajectories.noisy_trajectory_states`, the same
  kick scheme the fidelity sweeps use), with a standard error of the mean.

A submission's timing jobs run through the session in one call, and each
estimate reuses the session's memoized compilation, so estimator traffic
shares compile work and cache entries with samplers and sweeps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends import Backend
from ..circuits.circuit import QuantumCircuit
from ..circuits.simulator import simulate
from ..runtime.spec import CompileOptions, ExperimentSpec, FidelityOptions
from ..runtime.store import ResultStore
from ..simulation.trajectories import noisy_trajectory_states
from .job import JobHandle
from .observables import PauliObservable
from .results import CircuitExecution, EstimateData, EstimatorResult
from .session import CircuitLike, Session

#: Valid estimation methods.
ESTIMATOR_METHODS = ("exact", "trajectories")

#: Largest physical register the exact method will simulate densely.
MAX_EXACT_QUBITS = 20

ObservableLike = Union[PauliObservable, str]


def _resolve_observable(observable: ObservableLike) -> PauliObservable:
    if isinstance(observable, PauliObservable):
        return observable
    return PauliObservable.from_label(observable)


class Estimator:
    """Expectation-value primitive over one backend or session.

    Parameters
    ----------
    backend:
        A :class:`~repro.primitives.session.Session` to share, or a backend /
        backend name to wrap in a private session (same convention as
        :class:`~repro.primitives.sampler.Sampler`).
    store:
        Result store for the private session (ignored when an existing
        session is passed).
    queue:
        Submission path for the private session's cache misses: a
        :class:`~repro.queue.client.QueueClient`, a ``repro serve`` URL, or
        ``True`` for daemon discovery (ignored when an existing session is
        passed).  Results stay byte-identical to local execution.
    """

    def __init__(
        self,
        backend: Union[Session, Backend, str],
        store: Optional[ResultStore] = None,
        queue=None,
    ):
        if isinstance(backend, Session):
            self.session = backend
            self._private_session = False
        else:
            self.session = Session(backend, store=store, queue=queue)
            self._private_session = True

    # -- pairing --------------------------------------------------------------------

    def _pairs(
        self,
        circuits: Union[CircuitLike, Sequence[CircuitLike]],
        observables: Union[ObservableLike, Sequence[ObservableLike]],
        num_qubits: int,
        seed: int,
        compile_options: Optional[CompileOptions],
    ) -> List[Tuple[ExperimentSpec, PauliObservable]]:
        """Broadcast circuits against observables into (spec, observable) pairs.

        One circuit pairs with every observable; otherwise the sequences must
        have equal length and are zipped positionally.
        """
        if isinstance(observables, (PauliObservable, str)):
            observables = [observables]
        resolved = [_resolve_observable(observable) for observable in observables]
        if not resolved:
            raise ValueError("an estimation needs at least one observable")
        single_circuit = isinstance(circuits, (QuantumCircuit, str))
        specs = self.session.make_specs(
            circuits, num_qubits=num_qubits, seed=seed, compile_options=compile_options
        )
        if single_circuit:
            pairs = [(specs[0], observable) for observable in resolved]
        elif len(specs) == len(resolved):
            pairs = list(zip(specs, resolved))
        else:
            raise ValueError(
                f"cannot broadcast {len(specs)} circuits against "
                f"{len(resolved)} observables; pass one circuit or equal-length lists"
            )
        for spec, observable in pairs:
            width = spec.source_circuit().num_qubits
            if observable.num_qubits != width:
                raise ValueError(
                    f"observable '{observable.label}' addresses "
                    f"{observable.num_qubits} qubits but circuit "
                    f"'{spec.benchmark}' has {width}"
                )
        return pairs

    # -- estimation -----------------------------------------------------------------

    def _estimate(
        self,
        spec: ExperimentSpec,
        observable: PauliObservable,
        method: str,
        fidelity: FidelityOptions,
        execution: CircuitExecution,
    ) -> EstimateData:
        compiled = self.session.compiled_for(spec)
        num_physical = compiled.coupling.num_qubits
        qubit_map = [
            compiled.final_layout.physical(logical)
            for logical in range(compiled.source.num_qubits)
        ]
        if method == "exact":
            if num_physical > MAX_EXACT_QUBITS:
                raise ValueError(
                    f"exact estimation simulates all {num_physical} physical "
                    f"qubits; refusing beyond {MAX_EXACT_QUBITS}"
                )
            state = simulate(compiled.physical_circuit)
            value = float(
                observable.expectation(state, num_qubits=num_physical, qubit_map=qubit_map)
            )
            return EstimateData(
                observable=observable.label,
                value=value,
                method=method,
                std_error=0.0,
                trajectories=0,
                execution=execution,
            )
        if num_physical > fidelity.max_qubits:
            raise ValueError(
                f"trajectory estimation simulates all {num_physical} physical "
                f"qubits; raise fidelity_options.max_qubits (currently "
                f"{fidelity.max_qubits}) or use method='exact'"
            )
        noise = spec.backend.noise_model(
            num_physical,
            couplers=sorted(compiled.physical_circuit.two_qubit_pairs()),
            seed=fidelity.noise_seed,
        )
        states = noisy_trajectory_states(
            compiled.physical_circuit,
            noise,
            num_trajectories=fidelity.trajectories,
            seed=spec.seed,
            batch_size=fidelity.batch_size,
        )
        values = observable.expectation(states, num_qubits=num_physical, qubit_map=qubit_map)
        count = len(values)
        std_error = (
            float(np.std(values, ddof=1) / np.sqrt(count)) if count > 1 else 0.0
        )
        return EstimateData(
            observable=observable.label,
            value=float(np.mean(values)),
            method=method,
            std_error=std_error,
            trajectories=count,
            execution=execution,
        )

    def run(
        self,
        circuits: Union[CircuitLike, Sequence[CircuitLike]],
        observables: Union[ObservableLike, Sequence[ObservableLike]],
        method: str = "exact",
        num_qubits: int = 16,
        seed: int = 0,
        compile_options: Optional[CompileOptions] = None,
        fidelity_options: Optional[FidelityOptions] = None,
        lazy: Optional[bool] = None,
    ) -> JobHandle:
        """Estimate observables; resolves to an :class:`EstimatorResult`.

        ``circuits`` broadcasts against ``observables`` (one circuit x many
        observables, or equal-length lists).  ``method`` is ``"exact"``
        (noiseless statevector) or ``"trajectories"`` (noisy Monte-Carlo
        mean under the backend's noise model, parameterised by
        ``fidelity_options``).  ``lazy`` follows the Sampler convention.
        """
        if method not in ESTIMATOR_METHODS:
            raise ValueError(
                f"unknown estimation method '{method}'; known: {ESTIMATOR_METHODS}"
            )
        fidelity = fidelity_options if fidelity_options is not None else FidelityOptions()
        lazy = self._private_session if lazy is None else lazy
        pairs = self._pairs(circuits, observables, num_qubits, seed, compile_options)

        def work() -> EstimatorResult:
            executions, metadata = self.session._run_entries([spec for spec, _ in pairs], None)
            entries = tuple(
                self._estimate(spec, observable, method, fidelity, execution)
                for (spec, observable), execution in zip(pairs, executions)
            )
            metadata["method"] = method
            return EstimatorResult(entries=entries, metadata=metadata)

        return self.session._submit(work, lazy=lazy)

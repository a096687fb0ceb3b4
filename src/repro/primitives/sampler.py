"""The Sampler primitive: measurement counts and success probabilities.

``Sampler.run`` submits circuits (user circuits or Table IV benchmark
names) to a backend and resolves to a
:class:`~repro.primitives.results.SamplerResult`: per-circuit measurement
``counts`` over the *logical* register plus — when fidelity options are
attached — the Monte-Carlo ``success_probability`` / ``state_fidelity``
columns computed by :func:`repro.simulation.engine.run_trajectories` through
the shared runtime job layer.  Because the underlying jobs are keyed exactly
like sweep jobs, a sampler pointed at a sweep's
:class:`~repro.runtime.store.ResultStore` reuses its results bit-for-bit.

Counts are sampled from the *noiseless* readout distribution of the
compiled physical circuit, read back through the final layout (routing is a
permutation, so idle physical qubits stay in ``|0>`` and the logical
marginal is exact).  Bitstring keys put qubit 0 rightmost, matching
:func:`repro.circuits.simulator.sample_counts`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..backends import Backend
from ..circuits.simulator import simulate
from ..compiler.pipeline import CompiledCircuit
from ..runtime.spec import CompileOptions, FidelityOptions
from ..runtime.store import ResultStore
from .job import JobHandle
from .results import SampleData, SamplerResult
from .session import CircuitLike, Session

#: Largest physical register the counts sampler will simulate exactly.
MAX_SAMPLED_QUBITS = 20


def logical_measurement_probabilities(
    compiled: CompiledCircuit, max_qubits: int = MAX_SAMPLED_QUBITS
) -> np.ndarray:
    """Noiseless readout distribution of a compiled circuit's logical register.

    Simulates the physical circuit from ``|0...0>`` and marginalises the
    measurement probabilities onto the logical qubits via the final layout.
    Because compilation only permutes tensor factors, physical qubits that
    hold no logical qubit finish in ``|0>`` and the marginal is exact.
    """
    num_physical = compiled.coupling.num_qubits
    if num_physical > max_qubits:
        raise ValueError(
            f"sampling counts simulates all {num_physical} physical qubits; "
            f"refusing beyond {max_qubits}"
        )
    num_logical = compiled.source.num_qubits
    probs = np.abs(simulate(compiled.physical_circuit)) ** 2
    positions = np.array(
        [compiled.final_layout.physical(logical) for logical in range(num_logical)]
    )
    indices = np.arange(probs.size)
    bits = (indices[:, None] >> positions[None, :]) & 1
    logical_indices = bits @ (1 << np.arange(num_logical))
    logical_probs = np.zeros(2**num_logical)
    np.add.at(logical_probs, logical_indices, probs)
    return logical_probs / logical_probs.sum()


def sample_logical_counts(
    compiled: CompiledCircuit, shots: int, seed: int = 0
) -> Dict[str, int]:
    """Seeded measurement counts over a compiled circuit's logical register.

    Keys are bitstrings with qubit 0 rightmost; only observed outcomes
    appear.  A ``(compiled, shots, seed)`` triple pins the counts exactly.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = logical_measurement_probabilities(compiled)
    rng = np.random.default_rng(np.random.SeedSequence((seed, shots)))
    draws = rng.multinomial(shots, probs)
    num_logical = compiled.source.num_qubits
    return {
        format(index, f"0{num_logical}b"): int(count)
        for index, count in enumerate(draws)
        if count
    }


class Sampler:
    """Counts / success-probability primitive over one backend or session.

    Parameters
    ----------
    backend:
        A :class:`~repro.primitives.session.Session` to share (compilation
        cache, result store, worker pool), or a backend / backend name to
        wrap in a private session.
    default_shots:
        Shot count used when ``run`` is called without one.
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
        default_shots: int = 1024,
        store: Optional[ResultStore] = None,
        queue=None,
    ):
        if default_shots < 1:
            raise ValueError("default_shots must be >= 1")
        if isinstance(backend, Session):
            self.session = backend
            self._private_session = False
        else:
            self.session = Session(backend, store=store, queue=queue)
            self._private_session = True
        self.default_shots = default_shots

    def run(
        self,
        circuits: Union[CircuitLike, Sequence[CircuitLike]],
        shots: Optional[int] = None,
        num_qubits: int = 16,
        seed: int = 0,
        compile_options: Optional[CompileOptions] = None,
        fidelity_options: Optional[FidelityOptions] = None,
        lazy: Optional[bool] = None,
    ) -> JobHandle:
        """Sample circuits; resolves to a :class:`SamplerResult`.

        ``fidelity_options`` adds Monte-Carlo success/fidelity columns via
        the same content-addressed jobs a ``--fidelity`` sweep runs — the
        numbers (and cache keys) are identical by construction.  ``lazy``
        defaults to True for private sessions (no threads without a shared
        pool) and False when riding an explicit :class:`Session`.
        """
        shots = self.default_shots if shots is None else shots
        if shots < 1:
            raise ValueError("shots must be >= 1")
        lazy = self._private_session if lazy is None else lazy
        specs = self.session.make_specs(
            circuits,
            num_qubits=num_qubits,
            seed=seed,
            compile_options=compile_options,
            fidelity_options=fidelity_options,
        )

        def work() -> SamplerResult:
            entries, metadata = self.session._run_entries(specs, shots, entry_cls=SampleData)
            metadata["shots"] = shots
            return SamplerResult(entries=entries, metadata=metadata)

        return self.session._submit(work, lazy=lazy)

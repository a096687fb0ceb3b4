"""The frozen device description every compiler/simulator consumer speaks.

A :class:`Target` is the declarative answer to "what machine am I compiling
for": the coupling map, the native basis gates, nominal gate durations, and
the calibrated per-qubit / per-coupler error rates.  It deliberately knows
nothing about *how* the device is controlled — that is the
:class:`~repro.backends.backend.Backend`'s job, which bundles a target with
its DigiQ configuration, controller design, and cost model.

Targets are frozen and have a canonical JSON form (:meth:`Target.to_dict`),
which is what lets backend identities participate in the runtime's
content-addressed cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from ..compiler.coupling import CouplingMap, coupling_to_dict

#: The DigiQ native basis every built-in backend compiles to.
DEFAULT_BASIS_GATES: Tuple[str, ...] = ("u3", "rz", "cz")


def _coupler_key(pair: Tuple[int, int]) -> Tuple[int, int]:
    a, b = pair
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Target:
    """A frozen description of one quantum device.

    Parameters
    ----------
    name:
        Human-readable device name (usually the owning backend's name).
    coupling:
        The device graph (:class:`~repro.compiler.coupling.CouplingMap`).
    basis_gates:
        Native gate names the compiler must lower to.
    gate_durations_ns:
        Nominal duration of each basis gate, in ns (virtual gates are 0).
    single_qubit_error_rates:
        Calibrated per-qubit gate-error rates; qubits absent from the map
        fall back to ``default_single_qubit_error``.  Empty for backends
        whose noise is re-sampled per sweep (the paper's DigiQ devices).
    coupler_error_rates:
        Calibrated per-coupler CZ error rates, keyed by sorted qubit pair.
    default_single_qubit_error, default_cz_error:
        Fallback rates for uncalibrated qubits/couplers.
    """

    name: str
    coupling: CouplingMap
    basis_gates: Tuple[str, ...] = DEFAULT_BASIS_GATES
    gate_durations_ns: Mapping[str, float] = field(default_factory=dict)
    single_qubit_error_rates: Mapping[int, float] = field(default_factory=dict)
    coupler_error_rates: Mapping[Tuple[int, int], float] = field(default_factory=dict)
    default_single_qubit_error: float = 1e-4
    default_cz_error: float = 1e-3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a target needs a name")
        if not self.basis_gates:
            raise ValueError("a target needs at least one basis gate")
        object.__setattr__(self, "basis_gates", tuple(self.basis_gates))
        for rate in (self.default_single_qubit_error, self.default_cz_error):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rates must be in [0, 1], got {rate}")
        for qubit, rate in self.single_qubit_error_rates.items():
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(f"error rate for qubit {qubit} outside device")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rates must be in [0, 1], got {rate}")
        for pair, rate in self.coupler_error_rates.items():
            if _coupler_key(tuple(pair)) != tuple(pair):
                raise ValueError(f"coupler rate key {pair} must be a sorted pair")
            for qubit in pair:
                if not 0 <= qubit < self.num_qubits:
                    raise ValueError(f"coupler rate {pair} references a qubit outside device")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rates must be in [0, 1], got {rate}")

    # -- queries --------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits of the device."""
        return self.coupling.num_qubits

    def couplers(self) -> List[Tuple[int, int]]:
        """All couplers of the device, as sorted pairs."""
        return self.coupling.couplers()

    # -- serialization --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form (stable key order, string-keyed maps)."""
        return {
            "basis_gates": list(self.basis_gates),
            "coupler_error_rates": {
                f"{a}-{b}": rate for (a, b), rate in sorted(self.coupler_error_rates.items())
            },
            "coupling": coupling_to_dict(self.coupling),
            "default_cz_error": self.default_cz_error,
            "default_single_qubit_error": self.default_single_qubit_error,
            "gate_durations_ns": {k: self.gate_durations_ns[k] for k in sorted(self.gate_durations_ns)},
            "name": self.name,
            "single_qubit_error_rates": {
                str(q): rate for q, rate in sorted(self.single_qubit_error_rates.items())
            },
        }

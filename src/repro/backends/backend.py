"""A device bundle: Target + DigiQ configuration + controller + cost model.

A :class:`Backend` is everything one name in the registry stands for: the
topology family that generates a :class:`~repro.backends.target.Target` at
any device size, the :class:`~repro.core.architecture.DigiQConfig` the SIMD
scheduler executes against, the
:class:`~repro.hardware.controller_designs.ControllerDesign` the power/area
cost model evaluates, and the noise story (re-sampled per sweep for the
paper's DigiQ devices, or calibrated rates frozen into the target).

Backends are frozen and JSON round-trippable, so one dict both reconstructs
the backend in a worker process and keys the runtime's content-addressed
result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..compiler.coupling import (
    CouplingMap,
    LineCouplingMap,
    smallest_grid_for,
    smallest_heavy_hex_for,
    smallest_torus_for,
)
from ..core.architecture import DigiQConfig
from ..hardware.budget import FridgeBudget, ScalabilityResult, max_qubits_within_budget
from ..hardware.controller_designs import ControllerDesign
from ..noise.variability import VariabilityModel
from ..simulation.channels import (
    DEFAULT_CZ_ERROR,
    NoiseModel,
    sampled_coupler_rates,
    sampled_single_qubit_rates,
)
from .target import DEFAULT_BASIS_GATES, Target

#: Topology families a backend can instantiate, mapped to their sizing rule.
TOPOLOGIES = ("grid", "line", "heavy_hex", "torus")


def _coupling_for(topology: str, num_qubits: int) -> CouplingMap:
    if topology == "grid":
        return smallest_grid_for(num_qubits)
    if topology == "line":
        return LineCouplingMap(num_qubits)
    if topology == "heavy_hex":
        return smallest_heavy_hex_for(num_qubits)
    if topology == "torus":
        return smallest_torus_for(num_qubits)
    raise ValueError(f"unknown topology '{topology}'; known: {TOPOLOGIES}")


@dataclass(frozen=True)
class Backend:
    """One registered device: target family, configuration, controller, cost.

    Parameters
    ----------
    name:
        Registry key (``"digiq-opt8"``, ``"cryo-cmos-grid"``, ...).
    topology:
        Topology family used to build targets: ``"grid"``, ``"line"`` or
        ``"heavy_hex"``.  The concrete device size is chosen per circuit
        (:meth:`target_for`), mirroring how the paper sizes its grid to the
        benchmark.
    config:
        DigiQ architectural parameters the execution model schedules against.
    controller:
        Controller design evaluated by the hardware cost model.
    description:
        One-line human-readable summary for ``--list-backends``.
    default_qubits:
        Device size used when no circuit pins one (cost tables, display).
    calibration_seed:
        ``None`` means the device's noise is re-sampled per sweep from the
        fabrication-variability model (the paper's DigiQ flow).  An integer
        freezes one sampled calibration into every target this backend
        builds, so noisy sweeps automatically use those rates via
        :meth:`~repro.simulation.channels.NoiseModel.from_target`.
    """

    name: str
    topology: str
    config: DigiQConfig
    controller: ControllerDesign
    description: str = ""
    default_qubits: int = 1024
    calibration_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a backend needs a name")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology '{self.topology}'; known: {TOPOLOGIES}")
        if self.default_qubits < 2:
            raise ValueError("default_qubits must be >= 2")

    # -- targets --------------------------------------------------------------------

    def target_for(self, num_qubits: int) -> Target:
        """The concrete frozen :class:`Target` for a device of ``num_qubits``.

        Sizing follows the topology family's rule (smallest near-square grid
        or heavy-hex lattice covering the request, exact-length line), so the
        paper's "smallest grid that fits the circuit" behaviour is preserved
        for the DigiQ backends.
        """
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        return _build_target(self, num_qubits)

    @property
    def num_qubits(self) -> int:
        """Default device size (the concrete size is chosen per circuit)."""
        return self.default_qubits

    # -- identity -------------------------------------------------------------------

    @property
    def design_label(self) -> str:
        """Label for the result tables' ``design`` column."""
        if self.controller.variant.startswith("digiq"):
            return self.config.label
        return self.controller.label

    @property
    def compile_key(self) -> Tuple[object, ...]:
        """Identity of everything that shapes *compilation* (not scheduling).

        Backends sharing this key compile a given circuit identically, so the
        dispatcher batches them into one compile group — all DigiQ grid
        configs still share a single compilation per benchmark instance.
        """
        return (self.topology, DEFAULT_BASIS_GATES)

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        circuits,
        shots: Optional[int] = None,
        num_qubits: int = 16,
        seed: int = 0,
        compile_options=None,
        fidelity_options=None,
        store=None,
        lazy: bool = True,
    ):
        """Submit circuits to this backend; returns a job handle.

        The provider-style front door: accepts one circuit or a sequence
        (each a :class:`~repro.circuits.circuit.QuantumCircuit` or a Table IV
        benchmark name, built at ``num_qubits`` with ``seed``) and returns a
        :class:`~repro.primitives.JobHandle` resolving to a
        :class:`~repro.primitives.RunResult` — one execution record per
        circuit, with measurement ``counts`` when ``shots`` is given and
        Monte-Carlo fidelity columns when ``fidelity_options`` is.

        Each call runs in a fresh one-shot
        :class:`~repro.primitives.Session`; the handle is lazy by default
        (work runs on the first ``result()`` call and no threads are
        created).  Pass ``lazy=False`` for background execution, a
        :class:`~repro.runtime.store.ResultStore` via ``store`` to share
        the sweep engine's content-addressed cache, or hold a ``Session``
        yourself to reuse compilations across many submissions.
        """
        from ..primitives.session import Session

        session = Session(self, store=store, max_workers=1)
        handle = session.run(
            circuits,
            shots=shots,
            num_qubits=num_qubits,
            seed=seed,
            compile_options=compile_options,
            fidelity_options=fidelity_options,
            lazy=lazy,
        )
        if not lazy:
            # One-shot session: let the submitted work finish in the
            # background, then release the pool thread.
            session.close(wait=False)
        return handle

    # -- noise ----------------------------------------------------------------------

    def noise_model(
        self,
        num_qubits: Optional[int] = None,
        couplers: Sequence[Tuple[int, int]] = (),
        seed: Optional[int] = None,
    ) -> NoiseModel:
        """The noise model a fidelity job against this backend simulates.

        Calibrated backends return their target's frozen rates
        (:meth:`NoiseModel.from_target`); sampled backends draw a fresh
        device from the variability model, pinned by ``seed`` — exactly the
        paper's per-sweep Fig. 10 sampling.
        """
        size = num_qubits if num_qubits is not None else self.default_qubits
        if self.calibration_seed is not None:
            return NoiseModel.from_target(self.target_for(size))
        return NoiseModel.sampled(
            size, config=self.config, couplers=tuple(couplers), seed=seed
        )

    def scalability(
        self,
        budget: Optional[FridgeBudget] = None,
        tile_qubits: Optional[int] = None,
    ) -> ScalabilityResult:
        """Largest system the controller supports within a fridge budget."""
        return max_qubits_within_budget(
            self.controller,
            budget=budget,
            tile_qubits=tile_qubits if tile_qubits is not None else self.default_qubits,
        )

    # -- serialization --------------------------------------------------------------

    def identity_dict(self) -> Dict[str, object]:
        """The result-determining subset of :meth:`to_dict` (cache-key material).

        Presentation fields (name, description, display size) are excluded:
        two names describing the same physics — e.g. the legacy ``opt8`` spec
        and ``digiq-opt8`` — must share cache entries, keeping the store
        content-addressed rather than name-addressed.
        """
        data = self.to_dict()
        for presentation in ("name", "description", "default_qubits"):
            data.pop(presentation)
        return data

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form (stable key order)."""
        return {
            "calibration_seed": self.calibration_seed,
            "config": self.config.as_dict(),
            "controller": {
                "bitstreams": self.controller.bitstreams,
                "groups": self.controller.groups,
                "variant": self.controller.variant,
            },
            "default_qubits": self.default_qubits,
            "description": self.description,
            "name": self.name,
            "topology": self.topology,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "Backend":
        """Inverse of :meth:`to_dict`."""
        controller = data["controller"]
        return Backend(
            name=data["name"],
            topology=data["topology"],
            config=DigiQConfig.from_dict(data["config"]),
            controller=ControllerDesign(
                variant=controller["variant"],
                groups=int(controller["groups"]),
                bitstreams=int(controller["bitstreams"]),
            ),
            description=data.get("description", ""),
            default_qubits=int(data.get("default_qubits", 1024)),
            calibration_seed=(
                None
                if data.get("calibration_seed") is None
                else int(data["calibration_seed"])
            ),
        )


@lru_cache(maxsize=256)
def _build_target(backend: Backend, num_qubits: int) -> Target:
    """Build (and memoize) one backend's target at one device size."""
    coupling = _coupling_for(backend.topology, num_qubits)
    config = backend.config
    durations = {
        "u3": max(
            config.single_qubit_gate_time_ns(group) for group in range(config.groups)
        ),
        "rz": 0.0,  # virtual: absorbed into the next bitstream's delay slots
        "cz": config.cz_time_ns,
    }
    single_rates: Dict[int, float] = {}
    coupler_rates: Dict[Tuple[int, int], float] = {}
    if backend.calibration_seed is not None:
        # One frozen calibration per (backend, size): the same variability
        # model that per-sweep sampling uses, pinned by the backend's seed.
        variability = VariabilityModel(seed=backend.calibration_seed)
        single_rates = sampled_single_qubit_rates(
            coupling.num_qubits, config, variability, config.error_target
        )
        coupler_rates = sampled_coupler_rates(
            coupling.couplers(), variability, DEFAULT_CZ_ERROR
        )
    return Target(
        name=backend.name,
        coupling=coupling,
        basis_gates=DEFAULT_BASIS_GATES,
        gate_durations_ns=durations,
        single_qubit_error_rates=single_rates,
        coupler_error_rates=coupler_rates,
        default_single_qubit_error=min(config.error_target, 1.0),
        default_cz_error=DEFAULT_CZ_ERROR,
    )

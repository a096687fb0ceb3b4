"""Software calibration of the SIMD hardware (Sec. V of the paper).

DigiQ's control signals are shared by whole groups of qubits, so per-qubit
hardware calibration (pulse shaping) is impossible.  Instead calibration
moves to software (Fig. 6(b)):

1. **Design time** — find SFQ bitstreams implementing the desired basis gates
   with high fidelity at the nominal (parking) frequency of each group
   (:mod:`repro.core.bitstream`).
2. **Characterisation** — measure each qubit's actual oscillation frequency
   (modelled here by the sampled :class:`~repro.noise.variability.QubitSample`).
3. **Basis extraction** — determine the *actual* operation each shared
   bitstream implements on each qubit by propagating it with the qubit's
   measured frequency.
4. **Compilation** — decompose every gate of the program using the per-qubit
   actual basis operations (:mod:`repro.core.decomposition`).

:class:`DeviceCalibration` packages those steps for a whole device and caches
per-qubit bases and per-gate decompositions so the execution-time and error
analyses can reuse them cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..noise.variability import QubitSample, VariabilityModel
from ..physics.transmon import Transmon
from .architecture import DigiQConfig
from .bitstream import SFQBitstream, cached_ry_half_pi_bitstream, find_rz_bitstream
from .decomposition import (
    MinBasis,
    MinDecomposition,
    OptBasis,
    OptDecomposition,
    decompose_min,
    decompose_opt,
)
from .rz_delay import reachable_phases

#: Decomposition type returned for either variant.
Decomposition = Union[OptDecomposition, MinDecomposition]

#: Rz angles of the idle gates added to the DigiQ_min discrete gate set as the
#: BS value grows.  BS = 2 gives {Ry(pi/2), T}; BS = 4 adds {Tdg, S}.
MIN_IDLE_ANGLES = (math.pi / 4.0, -math.pi / 4.0, math.pi / 2.0, -math.pi / 2.0)


@dataclass(frozen=True)
class GroupBitstreams:
    """The shared SFQ bitstreams stored for one SIMD group.

    Attributes
    ----------
    group:
        Group index.
    nominal_frequency:
        The group's parking frequency in GHz.
    ry_half_pi:
        The stored Ry(pi/2) bitstream.
    idle_gates:
        Idle (pulse-free) bitstreams implementing Z rotations, used by the
        DigiQ_min discrete gate set (empty for DigiQ_opt).
    """

    group: int
    nominal_frequency: float
    ry_half_pi: SFQBitstream
    idle_gates: Tuple[SFQBitstream, ...] = ()


class DeviceCalibration:
    """Per-qubit software calibration state for one DigiQ controller.

    Instances are normally built with :meth:`calibrate`, which samples qubit
    variability, finds the shared group bitstreams and wires everything
    together.  The heavyweight quantities (per-qubit bases, per-gate
    decompositions) are computed lazily and cached.
    """

    def __init__(
        self,
        config: DigiQConfig,
        samples: Sequence[QubitSample],
        group_bitstreams: Dict[int, GroupBitstreams],
        levels: int = 6,
    ):
        self.config = config
        self.samples = list(samples)
        self.group_bitstreams = dict(group_bitstreams)
        self.levels = levels
        for sample in self.samples:
            if sample.group not in self.group_bitstreams:
                raise ValueError(
                    f"qubit {sample.index} belongs to group {sample.group} which has "
                    "no stored bitstreams"
                )
        self._opt_bases: Dict[int, OptBasis] = {}
        self._min_bases: Dict[int, MinBasis] = {}
        self._decomposition_cache: Dict[Tuple[int, bytes], Decomposition] = {}

    # -- construction ---------------------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        config: DigiQConfig,
        num_qubits: int,
        variability: Optional[VariabilityModel] = None,
        seed: Optional[int] = 0,
        levels: int = 6,
    ) -> "DeviceCalibration":
        """Run the full calibration workflow for a device of ``num_qubits`` qubits.

        Qubits are assigned to groups by the config's static grouping rule;
        the nominal frequency of each group is its parking frequency; actual
        frequencies are sampled from the variability model (a fresh
        seed-``seed`` model if none is given).
        """
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        variability = variability or VariabilityModel(seed=seed)
        groups = [config.group_of_qubit(q, num_qubits) for q in range(num_qubits)]
        nominal = [config.group_frequency(g) for g in groups]
        samples = variability.sample_qubits(nominal, groups)
        group_bitstreams = {
            group: build_group_bitstreams(config, group)
            for group in sorted(set(groups))
        }
        return cls(config, samples, group_bitstreams, levels=levels)

    # -- basic queries ----------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of calibrated qubits."""
        return len(self.samples)

    def sample(self, qubit: int) -> QubitSample:
        """The variability sample (nominal/actual frequency) of a qubit."""
        return self.samples[qubit]

    def transmon(self, qubit: int) -> Transmon:
        """The actual (drifted) transmon model of a qubit."""
        return self.samples[qubit].transmon(levels=self.levels)

    def drift(self, qubit: int) -> float:
        """Frequency drift (actual - nominal) of a qubit in GHz."""
        return self.samples[qubit].drift

    def bitstreams_for(self, qubit: int) -> GroupBitstreams:
        """The shared bitstreams of the qubit's group."""
        return self.group_bitstreams[self.samples[qubit].group]

    # -- per-qubit bases ----------------------------------------------------------------

    def opt_basis(self, qubit: int) -> OptBasis:
        """The DigiQ_opt basis (actual Ubs + reachable phases) of a qubit."""
        if qubit not in self._opt_bases:
            sample = self.samples[qubit]
            shared = self.bitstreams_for(qubit)
            ubs = shared.ry_half_pi.qubit_unitary(
                sample.transmon(levels=self.levels), levels=self.levels
            )
            phases = reachable_phases(
                sample.actual_frequency,
                n_slots=self.config.n_delay_slots,
                clock_period_ns=self.config.sfq_clock_ns,
            )
            self._opt_bases[qubit] = OptBasis(ubs, phases)
        return self._opt_bases[qubit]

    def min_basis(self, qubit: int) -> MinBasis:
        """The DigiQ_min discrete basis (actual gate set) of a qubit."""
        if qubit not in self._min_bases:
            sample = self.samples[qubit]
            shared = self.bitstreams_for(qubit)
            transmon = sample.transmon(levels=self.levels)
            gates = [shared.ry_half_pi.qubit_unitary(transmon, levels=self.levels)]
            names = ["ry_half_pi"]
            for stream in shared.idle_gates:
                phase = (
                    -2.0
                    * math.pi
                    * sample.actual_frequency
                    * stream.num_bits
                    * stream.clock_period_ns
                ) % (2.0 * math.pi)
                gates.append(
                    np.diag(
                        [np.exp(-0.5j * phase), np.exp(+0.5j * phase)]
                    ).astype(complex)
                )
                names.append(stream.target_name)
            self._min_bases[qubit] = MinBasis(gates, names=names)
        return self._min_bases[qubit]

    # -- decomposition ---------------------------------------------------------------

    def decompose(self, qubit: int, target: np.ndarray) -> Decomposition:
        """Decompose a 2x2 target gate for a specific qubit (cached).

        Dispatches to the opt or min decomposition according to the config's
        variant.  Decompositions are cached per qubit and per target matrix
        (rounded to 9 decimals) because compiled circuits repeat the same few
        single-qubit gates on the same qubits many times.
        """
        target = np.asarray(target, dtype=complex)
        key = (qubit, np.round(target, 9).tobytes())
        cached = self._decomposition_cache.get(key)
        if cached is not None:
            return cached
        if self.config.is_opt:
            result: Decomposition = decompose_opt(
                target,
                self.opt_basis(qubit),
                max_pulses=self.config.opt_max_pulses,
                error_target=self.config.error_target,
            )
        else:
            result = decompose_min(
                target,
                self.min_basis(qubit),
                max_depth=self.config.min_max_depth,
                error_target=self.config.error_target,
            )
        self._decomposition_cache[key] = result
        return result

    def gate_error(self, qubit: int, target: np.ndarray) -> float:
        """Decomposed gate error of a target on a qubit."""
        return self.decompose(qubit, target).error


def build_group_bitstreams(config: DigiQConfig, group: int) -> GroupBitstreams:
    """Find the shared bitstreams stored for one SIMD group.

    DigiQ_opt stores a single Ry(pi/2) bitstream per group; DigiQ_min stores
    the Ry(pi/2) bitstream plus ``BS - 1`` idle (Z-rotation) gates drawn from
    :data:`MIN_IDLE_ANGLES`.
    """
    frequency = config.group_frequency(group)
    ry_stream = cached_ry_half_pi_bitstream(frequency, clock_period_ns=config.sfq_clock_ns)
    idle_gates: Tuple[SFQBitstream, ...] = ()
    if not config.is_opt:
        count = max(1, min(config.bitstreams - 1, len(MIN_IDLE_ANGLES)))
        idle_gates = tuple(
            find_rz_bitstream(frequency, angle, clock_period_ns=config.sfq_clock_ns)
            for angle in MIN_IDLE_ANGLES[:count]
        )
    return GroupBitstreams(
        group=group,
        nominal_frequency=frequency,
        ry_half_pi=ry_stream,
        idle_gates=idle_gates,
    )

"""DigiQ controller configuration and design-space description (Sec. IV, Table I).

:class:`DigiQConfig` gathers every architectural parameter the rest of the
core package needs: the variant (``DigiQ_min`` or ``DigiQ_opt``), the number
of SIMD qubit groups ``G``, the number of distinct broadcast SFQ gates per
cycle ``BS``, the number of Rz delay slots ``N``, the SFQ chip clock, the
controller cycle time, and the nominal gate durations used by the execution
model.  The values default to the paper's evaluation setup (Sec. VI-B):

* SFQ chip clock period 40 ps;
* DigiQ_opt controller cycle 20.32 ns (10.12 ns of bitstream + 255 delay
  slots of 40 ps);
* DigiQ_min single-qubit gate times of 10.12 ns (6.21286 GHz group) and
  9.00 ns (4.14238 GHz group);
* CZ gate time 60 ns;
* single-qubit decomposition depth limit of 28 for DigiQ_min and 3 basis
  pulses for DigiQ_opt.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..physics.constants import (
    DEFAULT_SFQ_CLOCK_PERIOD_NS,
    PAPER_PARKING_FREQUENCIES_GHZ,
)

#: Single-qubit gate (Ry(pi/2) bitstream) durations per parking frequency, ns.
#: The paper quotes 10.12 ns for the 6.21286 GHz group and 9.00 ns for the
#: 4.14238 GHz group (Sec. VI-B); the middle parking frequency is interpolated.
PAPER_GATE_TIMES_NS: Dict[float, float] = {
    6.21286: 10.12,
    5.02978: 9.56,
    4.14238: 9.00,
}

#: CZ (two-qubit) gate duration in ns (Sec. VI-B, from the Sec. V-B analysis).
CZ_GATE_TIME_NS = 60.0

#: DigiQ_opt controller cycle time in ns (Sec. VI-B).
OPT_CONTROLLER_CYCLE_NS = 20.32

#: Maximum DigiQ_min single-qubit decomposition depth (Sec. VI-B).
MIN_MAX_DECOMPOSITION_DEPTH = 28

#: Maximum number of basis pulses per DigiQ_opt single-qubit gate (Sec. V-A).
OPT_MAX_BASIS_PULSES = 3

#: Number of Uqq pulses composing one software-calibrated CZ (Sec. V-B).
CZ_ECHO_PULSES = 3

#: Default single-qubit decomposition error target (Sec. VI-B).
DEFAULT_ERROR_TARGET = 1e-4


def single_qubit_gate_time_ns(frequency_ghz: float) -> float:
    """Nominal Ry(pi/2) bitstream duration for a parking frequency, in ns.

    Exact paper values are returned for the Table II parking frequencies;
    other frequencies use a linear interpolation between the paper's two
    quoted endpoints (gate time shrinks slightly as frequency drops because
    the coherent pulse slots pack more rotation per period).
    """
    for parking, gate_time in PAPER_GATE_TIMES_NS.items():
        if abs(frequency_ghz - parking) < 1e-6:
            return gate_time
    low_f, high_f = 4.14238, 6.21286
    low_t, high_t = PAPER_GATE_TIMES_NS[low_f], PAPER_GATE_TIMES_NS[high_f]
    fraction = (frequency_ghz - low_f) / (high_f - low_f)
    return low_t + fraction * (high_t - low_t)


@dataclass(frozen=True)
class DigiQConfig:
    """Architectural parameters of one DigiQ controller instance.

    Parameters
    ----------
    variant:
        ``"opt"`` (continuous Ry(pi/2)Rz(phi) gate set) or ``"min"``
        (discrete minimal gate set).
    groups:
        Number of SIMD qubit groups ``G``.
    bitstreams:
        Number of distinct SFQ gates available per group per controller
        cycle ``BS``.
    n_delay_slots:
        Number of Rz delay slots ``N`` (DigiQ_opt); the controller can delay
        the stored bitstream by 0..N SFQ cycles.
    sfq_clock_ns:
        SFQ chip clock period in ns.
    parking_frequencies:
        Nominal qubit frequencies assigned to groups, cyclically.  Defaults
        to the Table II parking frequencies.
    cz_time_ns:
        Duration of one Uqq flux pulse in ns.
    cz_echo_pulses:
        Number of Uqq pulses composing one software-calibrated CZ (Sec. V-B
        finds that 3 keep the error below 1e-4 over the drift range).
    error_target:
        Single-qubit decomposition error target.
    min_max_depth:
        DigiQ_min decomposition depth cap.
    opt_max_pulses:
        DigiQ_opt basis-pulse cap per gate.
    """

    variant: str = "opt"
    groups: int = 2
    bitstreams: int = 8
    n_delay_slots: int = 255
    sfq_clock_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS
    parking_frequencies: Tuple[float, ...] = PAPER_PARKING_FREQUENCIES_GHZ
    cz_time_ns: float = CZ_GATE_TIME_NS
    cz_echo_pulses: int = CZ_ECHO_PULSES
    error_target: float = DEFAULT_ERROR_TARGET
    min_max_depth: int = MIN_MAX_DECOMPOSITION_DEPTH
    opt_max_pulses: int = OPT_MAX_BASIS_PULSES

    def __post_init__(self) -> None:
        variant = self.variant.lower()
        if variant not in ("opt", "min"):
            raise ValueError(f"variant must be 'opt' or 'min', got '{self.variant}'")
        object.__setattr__(self, "variant", variant)
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if self.bitstreams < 1:
            raise ValueError("bitstreams must be >= 1")
        if self.n_delay_slots < 1:
            raise ValueError("n_delay_slots must be >= 1")
        if self.sfq_clock_ns <= 0:
            raise ValueError("sfq_clock_ns must be positive")
        if not self.parking_frequencies:
            raise ValueError("at least one parking frequency is required")
        if self.cz_time_ns <= 0:
            raise ValueError("cz_time_ns must be positive")
        if self.cz_echo_pulses < 1:
            raise ValueError("cz_echo_pulses must be >= 1")

    # -- derived timing ------------------------------------------------------------

    @property
    def is_opt(self) -> bool:
        """True for the DigiQ_opt variant."""
        return self.variant == "opt"

    def group_frequency(self, group: int) -> float:
        """Nominal parking frequency of a SIMD group."""
        if not 0 <= group < self.groups:
            raise ValueError(f"group {group} outside of {self.groups} groups")
        return self.parking_frequencies[group % len(self.parking_frequencies)]

    def group_of_qubit(self, qubit: int, num_qubits: int) -> int:
        """Static group assignment: qubits are striped over groups by index.

        The paper groups qubits so that neighbouring qubits (which must
        perform CZ gates together) sit in *different* groups with different
        parking frequencies; striping qubit index modulo ``groups`` achieves
        that on the row-major grid numbering used by the compiler.
        """
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} outside device of {num_qubits}")
        return qubit % self.groups

    def single_qubit_gate_time_ns(self, group: int = 0) -> float:
        """Duration of one single-qubit basis gate for a group, in ns."""
        return single_qubit_gate_time_ns(self.group_frequency(group))

    def controller_cycle_ns(self, group: int = 0) -> float:
        """Controller cycle time, in ns.

        DigiQ_opt uses a fixed 20.32 ns cycle (bitstream plus delay window);
        DigiQ_min's cycle is the single-qubit gate time of the group.
        """
        if self.is_opt:
            return OPT_CONTROLLER_CYCLE_NS
        return self.single_qubit_gate_time_ns(group)

    def cz_cycles(self, group: int = 0) -> int:
        """Number of controller cycles one Uqq flux pulse occupies."""
        return max(1, math.ceil(self.cz_time_ns / self.controller_cycle_ns(group)))

    def typical_u3_cycles(self) -> int:
        """Typical controller-cycle count of an arbitrary single-qubit gate.

        Used by the execution-time model for the single-qubit gates
        interleaved inside the CZ echo sequence (and by the synthetic
        scheduling mode).  DigiQ_opt needs two basis pulses for a generic
        rotation; DigiQ_min needs a sequence whose depth roughly halves when
        the stored gate set grows from 2 to 4 gates (Sec. VI-B.1).
        """
        if self.is_opt:
            return min(2, self.opt_max_pulses)
        return 14 if self.bitstreams < 4 else 7

    def cz_decomposed_cycles(self, group: int = 0, interleaved_u3_cycles: Optional[int] = None) -> int:
        """Controller cycles of one software-calibrated CZ (echo sequence).

        A calibrated CZ is ``cz_echo_pulses`` Uqq pulses with single-qubit
        gates interleaved before, between and after them (Sec. V-B); each
        interleaved layer costs ``interleaved_u3_cycles`` controller cycles
        (the typical arbitrary-rotation depth by default).
        """
        interleaved = (
            self.typical_u3_cycles()
            if interleaved_u3_cycles is None
            else interleaved_u3_cycles
        )
        return self.cz_echo_pulses * self.cz_cycles(group) + (
            self.cz_echo_pulses + 1
        ) * max(0, interleaved)

    def bitstream_bits(self, group: int = 0) -> int:
        """Number of SFQ clock cycles in the stored Ry(pi/2) bitstream."""
        return int(round(self.single_qubit_gate_time_ns(group) / self.sfq_clock_ns))

    # -- convenience constructors ---------------------------------------------------

    @staticmethod
    def opt(groups: int = 2, bitstreams: int = 8, **kwargs) -> "DigiQConfig":
        """A DigiQ_opt configuration."""
        return DigiQConfig(variant="opt", groups=groups, bitstreams=bitstreams, **kwargs)

    @staticmethod
    def minimal(groups: int = 2, bitstreams: int = 2, **kwargs) -> "DigiQConfig":
        """A DigiQ_min configuration."""
        return DigiQConfig(variant="min", groups=groups, bitstreams=bitstreams, **kwargs)

    # -- serialization ---------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready dict form (stable key order, lists not tuples)."""
        data = asdict(self)
        data["parking_frequencies"] = list(data["parking_frequencies"])
        return {key: data[key] for key in sorted(data)}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "DigiQConfig":
        """Inverse of :meth:`as_dict`."""
        payload = dict(data)
        payload["parking_frequencies"] = tuple(payload["parking_frequencies"])
        return DigiQConfig(**payload)

    @property
    def label(self) -> str:
        """Human-readable label matching the paper's figure legends."""
        name = "DigiQ_opt" if self.is_opt else "DigiQ_min"
        return f"{name}(BS={self.bitstreams})"


#: The qualitative design-space summary of Table I.
DESIGN_SPACE_TABLE: List[Dict[str, str]] = [
    {
        "design": "SFQ_MIMD_naive",
        "scalability": "Limited by power, area, and bandwidth",
        "quantum_program_execution": "No gate serialization",
        "pulse_calibration": "Hardware",
    },
    {
        "design": "SFQ_MIMD_decomp",
        "scalability": "Limited by power and area",
        "quantum_program_execution": "No gate serialization",
        "pulse_calibration": "Hardware",
    },
    {
        "design": "DigiQ_min",
        "scalability": "High scalability",
        "quantum_program_execution": "Long decompositions",
        "pulse_calibration": "Software",
    },
    {
        "design": "DigiQ_opt",
        "scalability": "High scalability",
        "quantum_program_execution": "Potential serialization",
        "pulse_calibration": "Software",
    },
]


def design_space_table() -> List[Dict[str, str]]:
    """Table I of the paper as a list of rows."""
    return [dict(row) for row in DESIGN_SPACE_TABLE]

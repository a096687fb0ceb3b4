"""Behavioural model of the DigiQ controller datapath (Fig. 5, Sec. IV-B).

This module is a cycle-level functional model of the on-chip control flow —
the piece the paper implements in Verilog.  No test, example or pipeline
stage calls it yet; it spells out the program execution flow of Sec. IV-B:

1. ``Load`` — the shared SFQ bitstreams are shifted into the per-group
   storage registers, offline.
2. ``Valid``/``Ctrl. data`` — the control bits of the next controller cycle
   are streamed into Buffer #1.
3. ``Go`` — the controller clock starts; at every controller-cycle boundary
   Buffer #1 is copied into Buffer #2, whose contents drive the bitstream
   generators and qubit controllers for that cycle while the next cycle's
   control bits stream into Buffer #1 behind it.
4. Each qubit controller selects one of the ``BS`` broadcast (delayed)
   bitstreams — or none — for its drive line, and raises/lowers its SFQ/DC
   enable for the flux line on a CZ start/stop command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


from .architecture import DigiQConfig

#: Reserved 1q_sel value meaning "apply none of the broadcast gates".
IDLE_SELECT = -1


@dataclass(frozen=True)
class ControlWord:
    """The control bits of one controller cycle.

    Attributes
    ----------
    bs_delays:
        Per-group tuple of the ``BS`` delay values broadcast this cycle
        (DigiQ_opt; ignored by DigiQ_min whose stored gates need no delay).
    one_q_select:
        Per-qubit selection: an index into the group's ``BS`` broadcast gates
        or :data:`IDLE_SELECT` for no operation.
    two_q_start:
        Qubits whose SFQ/DC array must be switched on this cycle (CZ start).
    two_q_stop:
        Qubits whose SFQ/DC array must be switched off this cycle (CZ stop).
    """

    bs_delays: Tuple[Tuple[int, ...], ...]
    one_q_select: Tuple[int, ...]
    two_q_start: Tuple[int, ...] = ()
    two_q_stop: Tuple[int, ...] = ()


@dataclass
class CycleOutput:
    """What the controller drove onto the qubit lines during one cycle."""

    cycle_index: int
    drive_bits: Dict[int, Tuple[int, ...]]
    flux_enabled: Tuple[int, ...]


class DigiQController:
    """Cycle-level functional model of the Fig. 5 controller datapath."""

    def __init__(self, config: DigiQConfig, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        self.config = config
        self.num_qubits = num_qubits
        self._stored_bitstreams: Dict[int, List[Tuple[int, ...]]] = {}
        self._buffer_one: Optional[ControlWord] = None
        self._buffer_two: Optional[ControlWord] = None
        self._flux_enabled: set = set()
        self._go = False
        self._cycle_index = 0
        self.cycle_log: List[CycleOutput] = []

    # -- offline loading -------------------------------------------------------------

    def load_bitstream(self, group: int, bits: Sequence[int], slot: int = 0) -> None:
        """Load one stored bitstream into a group's storage (the ``Load`` path).

        DigiQ_opt stores a single bitstream per group (slot 0); DigiQ_min
        stores ``BS`` bitstreams per group (slots ``0 .. BS-1``).
        """
        if not 0 <= group < self.config.groups:
            raise ValueError(f"group {group} outside of {self.config.groups} groups")
        max_slots = 1 if self.config.is_opt else self.config.bitstreams
        if not 0 <= slot < max_slots:
            raise ValueError(f"slot {slot} outside of {max_slots} storage slots")
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bitstream must contain only 0s and 1s")
        self._stored_bitstreams.setdefault(group, [()] * max_slots)[slot] = bits

    def loaded_groups(self) -> Tuple[int, ...]:
        """Groups whose storage has been loaded."""
        return tuple(sorted(self._stored_bitstreams))

    # -- control protocol --------------------------------------------------------------

    def buffer_control_word(self, word: ControlWord) -> None:
        """Stream the next cycle's control bits into Buffer #1 (``Valid`` asserted)."""
        self._validate_word(word)
        self._buffer_one = word

    def go(self) -> None:
        """Start the controller clock (the ``Go`` signal).

        The first buffered control word must already be present, matching the
        paper's protocol where ``Go`` is sent only after the first cycle's
        control bits have been transmitted.
        """
        if self._buffer_one is None:
            raise RuntimeError("Go received before any control word was buffered")
        if not self._stored_bitstreams:
            raise RuntimeError("Go received before any bitstream was loaded")
        self._go = True

    @property
    def running(self) -> bool:
        """True once Go has been received."""
        return self._go

    def step_cycle(self, next_word: Optional[ControlWord] = None) -> CycleOutput:
        """Advance one controller cycle.

        Buffer #1 is transferred into Buffer #2 and drives this cycle's
        outputs; ``next_word`` (if given) is streamed into Buffer #1 for the
        following cycle, modelling the double buffering of Fig. 5.
        """
        if not self._go:
            raise RuntimeError("the controller is not running; send Go first")
        if self._buffer_one is None:
            raise RuntimeError("no control word buffered for this cycle")
        self._buffer_two = self._buffer_one
        self._buffer_one = None
        if next_word is not None:
            self.buffer_control_word(next_word)

        word = self._buffer_two
        drive_bits: Dict[int, Tuple[int, ...]] = {}
        for qubit in range(self.num_qubits):
            selection = word.one_q_select[qubit]
            if selection == IDLE_SELECT:
                continue
            group = self.config.group_of_qubit(qubit, self.num_qubits)
            drive_bits[qubit] = self._emitted_bits(group, word, selection)

        for qubit in word.two_q_start:
            self._flux_enabled.add(qubit)
        for qubit in word.two_q_stop:
            self._flux_enabled.discard(qubit)

        output = CycleOutput(
            cycle_index=self._cycle_index,
            drive_bits=drive_bits,
            flux_enabled=tuple(sorted(self._flux_enabled)),
        )
        self.cycle_log.append(output)
        self._cycle_index += 1
        return output

    def run(self, words: Sequence[ControlWord]) -> List[CycleOutput]:
        """Buffer the first word, send Go, and step through all control words."""
        if not words:
            return []
        self.buffer_control_word(words[0])
        if not self._go:
            self.go()
        outputs = []
        for index in range(len(words)):
            next_word = words[index + 1] if index + 1 < len(words) else None
            outputs.append(self.step_cycle(next_word))
        return outputs

    # -- internals -----------------------------------------------------------------------

    def _emitted_bits(self, group: int, word: ControlWord, selection: int) -> Tuple[int, ...]:
        """The pulse pattern a qubit controller puts on its drive line this cycle."""
        stored = self._stored_bitstreams.get(group)
        if stored is None:
            raise RuntimeError(f"group {group} has no loaded bitstream")
        if not 0 <= selection < self.config.bitstreams:
            raise ValueError(
                f"1q_sel value {selection} outside of BS={self.config.bitstreams}"
            )
        if self.config.is_opt:
            bits = stored[0]
            delay = word.bs_delays[group][selection]
            if not 0 <= delay <= self.config.n_delay_slots:
                raise ValueError(
                    f"delay {delay} outside of 0..{self.config.n_delay_slots}"
                )
            window = self.config.n_delay_slots
            return tuple([0] * delay + list(bits) + [0] * (window - delay))
        bits = stored[selection]
        if not bits:
            raise RuntimeError(f"group {group} slot {selection} was never loaded")
        return bits

    def _validate_word(self, word: ControlWord) -> None:
        if len(word.one_q_select) != self.num_qubits:
            raise ValueError(
                f"control word has {len(word.one_q_select)} 1q_sel entries for "
                f"{self.num_qubits} qubits"
            )
        if self.config.is_opt:
            if len(word.bs_delays) != self.config.groups:
                raise ValueError(
                    f"control word has {len(word.bs_delays)} delay groups for "
                    f"{self.config.groups} groups"
                )
            for delays in word.bs_delays:
                if len(delays) != self.config.bitstreams:
                    raise ValueError(
                        f"each group needs {self.config.bitstreams} BS_sel delay values"
                    )
        overlap = set(word.two_q_start) & set(word.two_q_stop)
        if overlap:
            raise ValueError(f"qubits {sorted(overlap)} both start and stop a CZ")


def idle_control_word(config: DigiQConfig, num_qubits: int) -> ControlWord:
    """A control word that performs no operation on any qubit."""
    return ControlWord(
        bs_delays=tuple(
            tuple(0 for _ in range(config.bitstreams)) for _ in range(config.groups)
        ),
        one_q_select=tuple(IDLE_SELECT for _ in range(num_qubits)),
    )

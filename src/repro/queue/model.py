"""Job records and wire payloads of the durable queue.

A :class:`QueueJob` is the durable form of one submission: the JSON-able
spec payload that reconstructs its :class:`~repro.runtime.spec.ExperimentSpec`
in any process, the scheduling metadata the admission policy reads (priority
class, client session, due date, priced controller power), and the lifecycle
bookkeeping the on-disk store maintains (state, owner pid, attempts,
timestamps).  Everything round-trips through canonical JSON, so a job file
written by one daemon is readable by its replacement after a crash.

Power pricing uses the existing hardware cost model: a job's controller
power is :func:`repro.hardware.controller_designs.evaluate_design` of the
backend's controller at the job's device width — the same number the
Sec. VI-A.3 scalability tables are built from — so the scheduler's 10 W
:class:`~repro.hardware.budget.FridgeBudget` admission check is the paper's
fridge constraint enforced at runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

from ..backends import Backend
from ..circuits.circuit import QuantumCircuit
from ..hardware.controller_designs import evaluate_design
from ..runtime.jobs import job_key
from ..runtime.spec import CompileOptions, ExperimentSpec, FidelityOptions

#: Priority classes in descending admission precedence.  ``interactive``
#: beats ``batch`` beats ``deferrable``; only ``deferrable`` jobs may be
#: skipped (parked) when the fridge budget has no headroom for them.
PRIORITIES = ("interactive", "batch", "deferrable")

#: Lifecycle states of a queued job (each is one directory in the store).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can no longer leave.
TERMINAL_STATES = ("done", "failed", "cancelled")


def priority_rank(priority: str) -> int:
    """Admission precedence of a priority class (lower runs first)."""
    try:
        return PRIORITIES.index(priority)
    except ValueError:
        raise ValueError(
            f"unknown priority '{priority}'; known: {PRIORITIES}"
        ) from None


def spec_payload(spec: ExperimentSpec) -> Dict[str, object]:
    """JSON-able payload reconstructing one spec in another process.

    The form a queued job's spec takes in its job file and in a client's
    HTTP submission: benchmark identity (or a serialized user circuit), the
    compile options, the full backend description and the fidelity options.
    """
    return {
        "benchmark": spec.benchmark,
        "num_qubits": spec.num_qubits,
        "seed": spec.seed,
        "circuit": None if spec.circuit is None else spec.circuit.as_dict(),
        "compile": spec.compile_options.as_dict(),
        "backend": spec.backend.to_dict(),
        "fidelity": None if spec.fidelity is None else spec.fidelity.as_dict(),
    }


def spec_from_payload(payload: Mapping[str, object]) -> ExperimentSpec:
    """Inverse of :func:`spec_payload` (validates exactly like a local spec)."""
    circuit_data = payload.get("circuit")
    return ExperimentSpec(
        benchmark=payload["benchmark"],
        backend=Backend.from_dict(payload["backend"]),
        num_qubits=int(payload["num_qubits"]),
        seed=int(payload["seed"]),
        compile_options=CompileOptions(**payload["compile"]),
        fidelity=FidelityOptions.from_dict(payload.get("fidelity")),
        circuit=None if circuit_data is None else QuantumCircuit.from_dict(circuit_data),
    )


def job_power_w(backend: Backend, num_qubits: int) -> float:
    """Controller power one job holds while running, in watts.

    The backend's controller design evaluated at the job's device width —
    power per qubit times job width, through the full Sec. VI hardware model
    (bias networks, SIMD group replication, cable drivers included).
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be positive")
    return evaluate_design(backend.controller, num_qubits).total_power_w


@dataclass(frozen=True)
class QueueJob:
    """One durable queue entry: spec payload + scheduling + lifecycle state."""

    job_id: str
    seq: int
    spec: Dict[str, object]
    result_key: str
    power_w: float
    state: str = "queued"
    priority: str = "batch"
    session: str = "anonymous"
    submitted_at: float = field(default_factory=time.time)
    due_at: Optional[float] = None
    owner_pid: Optional[int] = None
    attempts: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown state '{self.state}'; known: {JOB_STATES}")
        priority_rank(self.priority)  # validates
        if self.power_w < 0:
            raise ValueError("power_w must be >= 0")

    # -- derived --------------------------------------------------------------------

    @property
    def benchmark(self) -> str:
        return str(self.spec.get("benchmark", ""))

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def effective_due(self) -> float:
        """EDD sort key: explicit due date, else the submission time.

        Jobs without a deadline fall back to their submission instant, so
        earliest-due-date ordering degrades to FIFO inside a priority class.
        """
        return self.submitted_at if self.due_at is None else self.due_at

    def to_spec(self) -> ExperimentSpec:
        return spec_from_payload(self.spec)

    # -- serialization --------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "priority": self.priority,
            "session": self.session,
            "benchmark": self.benchmark,
            "result_key": self.result_key,
            "power_w": self.power_w,
            "submitted_at": self.submitted_at,
            "due_at": self.due_at,
            "owner_pid": self.owner_pid,
            "attempts": self.attempts,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "spec": self.spec,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "QueueJob":
        return QueueJob(
            job_id=data["job_id"],
            seq=int(data["seq"]),
            spec=dict(data["spec"]),
            result_key=data["result_key"],
            power_w=float(data["power_w"]),
            state=data.get("state", "queued"),
            priority=data.get("priority", "batch"),
            session=data.get("session", "anonymous"),
            submitted_at=float(data.get("submitted_at", 0.0)),
            due_at=data.get("due_at"),
            owner_pid=data.get("owner_pid"),
            attempts=int(data.get("attempts", 0)),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            error=data.get("error"),
        )

    def moved(self, state: str, **updates: object) -> "QueueJob":
        """A copy in a new lifecycle state with field updates applied."""
        return replace(self, state=state, **updates)


def build_job(
    spec: ExperimentSpec,
    job_id: str,
    seq: int,
    priority: str = "batch",
    session: str = "anonymous",
    due_in_s: Optional[float] = None,
    submitted_at: Optional[float] = None,
) -> QueueJob:
    """Price and package one spec into a fresh ``queued`` job record."""
    now = time.time() if submitted_at is None else submitted_at
    return QueueJob(
        job_id=job_id,
        seq=seq,
        spec=spec_payload(spec),
        result_key=job_key(spec),
        power_w=job_power_w(spec.backend, spec.num_qubits),
        state="queued",
        priority=priority,
        session=session,
        submitted_at=now,
        due_at=None if due_in_s is None else now + float(due_in_s),
    )

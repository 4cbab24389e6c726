"""The stored form of one campaign outcome.

:class:`CampaignRecord` is the unit a :class:`~repro.campaigns.store.
jsonl.CampaignStore` persists, one JSON line per record.  Its payload
codec lives here too: :func:`jsonable` turns numpy values into plain
JSON, and :func:`tuning_result_from_dict` / :func:`evaluation_from_dict`
rebuild the pickle-free :class:`~repro.types.TuningResult` and
:class:`~repro.types.ChoiceEvaluation` a record carries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from repro.campaigns.spec import CampaignSpec
from repro.errors import ReproError
from repro.types import ChoiceEvaluation, TuningResult


def jsonable(value):
    """Recursively convert numpy scalars/arrays to plain Python."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def tuning_result_from_dict(data: dict) -> TuningResult:
    """Rebuild a :class:`TuningResult` from its ``asdict`` representation."""
    data = dict(data)
    data["best_values"] = tuple(data["best_values"])
    return TuningResult(**data)


def evaluation_from_dict(data: dict) -> ChoiceEvaluation:
    """Rebuild a :class:`ChoiceEvaluation` from its ``asdict`` form."""
    return ChoiceEvaluation(**data)


#: On-disk payload schema version, stamped on every line.
FORMAT_VERSION = 1

#: Campaign terminal states.
STATUS_DONE = "done"
STATUS_FAILED = "failed"

#: Payload ``kind`` tags (the line discriminator).
KIND_GRID = "campaign_grid"
KIND_RECORD = "campaign_record"


@dataclass(frozen=True)
class CampaignRecord:
    """Terminal outcome of one campaign, as stored.

    ``status`` is ``"done"`` or ``"failed"``; a failed campaign carries the
    exception summary in ``error`` plus a truncated ``traceback`` (the last
    ~20 frames — enough to debug a sweep without shipping megabytes of
    text) and ``None`` results — one crash never loses the rest of the
    sweep.  ``attempts`` counts dispatcher executions including retries; a
    record that needed no retry stores ``1``, so fault-free sweeps stay
    byte-identical run to run.
    """

    spec: CampaignSpec
    status: str
    best_index: Optional[int] = None
    core_hours: float = 0.0
    tuning_seconds: float = 0.0
    evaluation: Optional[ChoiceEvaluation] = None
    result: Optional[TuningResult] = None
    error: str = ""
    traceback: str = ""
    attempts: int = 1

    @property
    def campaign_id(self) -> str:
        return self.spec.campaign_id

    @property
    def ok(self) -> bool:
        return self.status == STATUS_DONE

    @property
    def mean_time(self) -> float:
        """Mean cloud execution time of the chosen configuration."""
        if self.evaluation is None:
            raise ReproError(f"campaign {self.campaign_id} has no evaluation")
        return self.evaluation.mean_time

    @property
    def cov_percent(self) -> float:
        if self.evaluation is None:
            raise ReproError(f"campaign {self.campaign_id} has no evaluation")
        return self.evaluation.cov_percent

    def to_payload(self) -> dict:
        """One store entry's worth of plain JSON (inverse of :meth:`from_payload`)."""
        return jsonable(
            {
                "kind": KIND_RECORD,
                "version": FORMAT_VERSION,
                "id": self.campaign_id,
                "status": self.status,
                "spec": self.spec.to_dict(),
                "best_index": self.best_index,
                "core_hours": self.core_hours,
                "tuning_seconds": self.tuning_seconds,
                "evaluation": (
                    asdict(self.evaluation) if self.evaluation is not None else None
                ),
                "result": asdict(self.result) if self.result is not None else None,
                "error": self.error,
                "traceback": self.traceback,
                "attempts": self.attempts,
            }
        )

    #: Payload keys that describe *how* a record was obtained rather than
    #: what the campaign computed.  A chaos run that converges must equal a
    #: fault-free run outside exactly this set.
    ATTEMPT_METADATA = ("attempts", "traceback")

    def stable_payload(self) -> dict:
        """:meth:`to_payload` minus attempt metadata.

        The comparison form for fault-tolerance checks: a sweep whose
        workers were crashed, hung, or transiently failed — but which
        converged — must have the same stable payloads as a fault-free
        run.
        """
        payload = self.to_payload()
        for key in self.ATTEMPT_METADATA:
            payload.pop(key, None)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignRecord":
        """Rebuild a record written by :meth:`to_payload`."""
        return cls(
            spec=CampaignSpec.from_dict(payload["spec"]),
            status=payload["status"],
            best_index=payload["best_index"],
            core_hours=float(payload["core_hours"]),
            tuning_seconds=float(payload["tuning_seconds"]),
            evaluation=(
                evaluation_from_dict(payload["evaluation"])
                if payload["evaluation"] is not None
                else None
            ),
            result=(
                tuning_result_from_dict(payload["result"])
                if payload["result"] is not None
                else None
            ),
            error=payload.get("error", ""),
            traceback=payload.get("traceback", ""),
            attempts=int(payload.get("attempts", 1)),
        )

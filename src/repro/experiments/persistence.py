"""JSON persistence of tuning campaigns.

Tuning in the cloud is long-running and billed by the hour; users archive
outcomes and compare campaigns across days.  This module round-trips a
*campaign* — one :class:`~repro.types.TuningResult` plus its
:class:`~repro.types.ChoiceEvaluation` and metadata (``tune --save``,
``report <archive>``) — through plain JSON: no pickle, so the files are
stable across library versions, auditable, and loadable by external tools.
The record codecs here (:func:`jsonable`, :func:`tuning_result_from_dict`,
:func:`evaluation_from_dict`) are shared with the campaign store.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import ReproError
from repro.types import ChoiceEvaluation, TuningResult

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def jsonable(value):
    """Recursively convert numpy scalars/arrays to plain Python.

    Public building block: the campaign store (:mod:`repro.campaigns.store`)
    streams records through this before writing JSONL lines.
    """
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


def _dump(payload: dict, path: PathLike) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        json.dump(jsonable(payload), handle, indent=2)
    return out


def _load(path: PathLike, expected_kind: str) -> dict:
    try:
        with Path(path).open() as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ReproError(f"{path} is not a JSON archive ({exc})") from None
    if not isinstance(payload, dict):
        raise ReproError(
            f"{path} holds {type(payload).__name__} JSON, "
            f"expected a {expected_kind!r} record"
        )
    kind = payload.get("kind")
    if kind != expected_kind:
        raise ReproError(
            f"{path} holds a {kind!r} record, expected {expected_kind!r}"
        )
    if payload.get("version") != _FORMAT_VERSION:
        raise ReproError(
            f"{path} uses format version {payload.get('version')}, "
            f"this library reads version {_FORMAT_VERSION}"
        )
    return payload


# -- whole campaigns ----------------------------------------------------------

def save_campaign(
    result: TuningResult,
    evaluation: Optional[ChoiceEvaluation],
    path: PathLike,
    *,
    app_name: str = "",
    vm_name: str = "",
    notes: str = "",
) -> Path:
    """Archive one tuning campaign: result + evaluation + metadata."""
    payload = {
        "kind": "campaign",
        "version": _FORMAT_VERSION,
        "meta": {"app": app_name, "vm": vm_name, "notes": notes},
        "result": asdict(result),
        "evaluation": asdict(evaluation) if evaluation is not None else None,
    }
    return _dump(payload, path)


def load_campaign(path: PathLike) -> tuple:
    """Read a campaign archive; returns ``(result, evaluation, meta)``.

    ``evaluation`` is ``None`` when the campaign was saved without one.
    """
    payload = _load(path, "campaign")
    result = tuning_result_from_dict(payload["result"])
    evaluation = (
        evaluation_from_dict(payload["evaluation"])
        if payload["evaluation"] is not None
        else None
    )
    return result, evaluation, payload["meta"]

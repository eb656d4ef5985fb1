"""Experiment archive: line-delimited records, validation, and hold-one-out slicing."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

# Canonical key order for serialized records; unknown keys follow, sorted.
_RECORD_KEYS = (
    "id",
    "treatment",
    "outcome",
    "context",
    "enriched_treatment",
    "enriched_outcome",
    "effect_size",
    "source_ref",
)
_REQUIRED_KEYS = ("id", "treatment", "outcome", "context", "effect_size")


class ArchiveError(Exception):
    """Base class for archive loading and validation failures."""


class ArchiveParseError(ArchiveError):
    """A line could not be parsed as a JSON record."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class MissingFieldError(ArchiveError):
    """A required record key is absent."""

    def __init__(self, field_name: str, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"missing required field {field_name!r}{where}")
        self.field_name = field_name
        self.line_no = line_no


class DuplicateIdError(ArchiveError):
    """Two records share the same id."""

    def __init__(self, experiment_id: str, lines: tuple[int, int] | None = None):
        where = f" on lines {lines[0]} and {lines[1]}" if lines else ""
        super().__init__(f"duplicate experiment id {experiment_id!r}{where}")
        self.experiment_id = experiment_id
        self.lines = lines


class RecordValidationError(ArchiveError):
    """A record violates an invariant (empty text, non-finite effect, ...)."""

    def __init__(self, experiment_id: str, field_name: str, reason: str,
                 line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(
            f"invalid record {experiment_id!r}: field {field_name!r} {reason}{where}"
        )
        self.experiment_id = experiment_id
        self.field_name = field_name
        self.reason = reason
        self.line_no = line_no


class UnknownIdError(ArchiveError):
    """Requested experiment id is not in the archive."""

    def __init__(self, experiment_id: str):
        super().__init__(f"unknown experiment id {experiment_id!r}")
        self.experiment_id = experiment_id


@dataclass(frozen=True)
class Experiment:
    """One archived study: treatment/outcome/context texts and its observed effect.

    ``effect_size`` is kept verbatim in whatever standardized units the source
    archive reports; nothing downstream rescales it. ``extra`` preserves any
    unknown keys found in the record so that save/load round-trips losslessly.
    """

    id: str
    treatment_text: str
    outcome_text: str
    effect_size: float
    context_text: str = ""
    enriched_treatment: str | None = None
    enriched_outcome: str | None = None
    source_ref: str | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def validate(self, line_no: int | None = None) -> None:
        if not self.id:
            raise RecordValidationError("<unset>", "id", "must be non-empty", line_no)
        if not self.treatment_text:
            raise RecordValidationError(self.id, "treatment", "must be non-empty", line_no)
        if not self.outcome_text:
            raise RecordValidationError(self.id, "outcome", "must be non-empty", line_no)
        for name, text in (("enriched_treatment", self.enriched_treatment),
                           ("enriched_outcome", self.enriched_outcome)):
            if text is not None and not isinstance(text, str):
                raise RecordValidationError(self.id, name, "must be a string", line_no)
        if isinstance(self.effect_size, bool) or not isinstance(self.effect_size, (int, float)):
            raise RecordValidationError(self.id, "effect_size", "must be a real number", line_no)
        try:
            finite = math.isfinite(self.effect_size)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise RecordValidationError(self.id, "effect_size", "must be finite", line_no)

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "id": self.id,
            "treatment": self.treatment_text,
            "outcome": self.outcome_text,
            "context": self.context_text,
        }
        if self.enriched_treatment is not None:
            rec["enriched_treatment"] = self.enriched_treatment
        if self.enriched_outcome is not None:
            rec["enriched_outcome"] = self.enriched_outcome
        rec["effect_size"] = self.effect_size
        if self.source_ref is not None:
            rec["source_ref"] = self.source_ref
        for key in sorted(self.extra):
            rec[key] = self.extra[key]
        return rec

    @classmethod
    def from_record(cls, rec: Mapping[str, Any], line_no: int | None = None) -> "Experiment":
        for key in _REQUIRED_KEYS:
            if key not in rec:
                raise MissingFieldError(key, line_no)
        extra = {k: v for k, v in rec.items() if k not in _RECORD_KEYS}
        exp = cls(
            id=str(rec["id"]),
            treatment_text=str(rec["treatment"]),
            outcome_text=str(rec["outcome"]),
            context_text=str(rec["context"]),
            enriched_treatment=rec.get("enriched_treatment"),
            enriched_outcome=rec.get("enriched_outcome"),
            effect_size=rec["effect_size"],
            source_ref=rec.get("source_ref"),
            extra=extra,
        )
        exp.validate(line_no)
        return exp


@dataclass(frozen=True)
class Archive:
    """An immutable, insertion-ordered collection of experiments with unique ids."""

    experiments: tuple[Experiment, ...]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for i, exp in enumerate(self.experiments):
            exp.validate()
            if exp.id in seen:
                raise DuplicateIdError(exp.id)
            seen[exp.id] = i
        object.__setattr__(self, "_index", seen)

    def __len__(self) -> int:
        return len(self.experiments)

    def __iter__(self) -> Iterator[Experiment]:
        return iter(self.experiments)

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._index  # type: ignore[attr-defined]

    def ids(self) -> tuple[str, ...]:
        return tuple(exp.id for exp in self.experiments)

    def get(self, experiment_id: str) -> Experiment:
        idx = self._index.get(experiment_id)  # type: ignore[attr-defined]
        if idx is None:
            raise UnknownIdError(experiment_id)
        return self.experiments[idx]

    def hold_out(self, experiment_id: str) -> tuple[Experiment, "Archive"]:
        """Return the named experiment and a new archive without it."""
        target = self.get(experiment_id)
        rest = tuple(exp for exp in self.experiments if exp.id != experiment_id)
        return target, Archive(rest, dict(self.metadata))


def load_archive(path: str | Path) -> Archive:
    """Load a line-delimited archive file, validating every record.

    Raises :class:`ArchiveParseError`, :class:`MissingFieldError`,
    :class:`RecordValidationError`, or :class:`DuplicateIdError` with the
    offending line attached. Blank lines are skipped.
    """
    path = Path(path)
    experiments: list[Experiment] = []
    first_line: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ArchiveParseError(str(path), line_no,
                                            f"invalid JSON: {e.msg}") from e
                except RecursionError:
                    raise ArchiveParseError(str(path), line_no,
                                            "invalid JSON: nested too deeply") from None
                if not isinstance(rec, dict):
                    raise ArchiveParseError(str(path), line_no, "record is not an object")
                exp = Experiment.from_record(rec, line_no)
                if exp.id in first_line:
                    raise DuplicateIdError(exp.id, (first_line[exp.id], line_no))
                first_line[exp.id] = line_no
                experiments.append(exp)
        except UnicodeDecodeError as e:
            raise ArchiveError(f"{path}: not UTF-8 text: {e.reason}") from None
    return Archive(tuple(experiments), {"path": str(path)})


def save_archive(archive: Archive, path: str | Path) -> None:
    """Write the archive as one UTF-8 JSON record per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for exp in archive:
            fh.write(json.dumps(exp.to_record(), ensure_ascii=False))
            fh.write("\n")

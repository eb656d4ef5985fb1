"""Experiment archive: line-delimited records and their validation, and the
line reader that every line-delimited input of exatlas goes through."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

# Canonical key order for serialized records; unknown keys follow, sorted.
_RECORD_KEYS = ("id", "treatment", "outcome", "context", "enriched_treatment",
                "enriched_outcome", "effect_size", "source_ref")
_REQUIRED_KEYS = ("id", "treatment", "outcome", "context", "effect_size")


class ArchiveError(Exception):
    """An archive file that cannot be read, or a record that fails validation."""


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
        def invalid(field_name: str, reason: str) -> ArchiveError:
            where = f" (line {line_no})" if line_no is not None else ""
            return ArchiveError(f"invalid record {self.id or '<unset>'!r}: "
                                f"field {field_name!r} {reason}{where}")

        if not self.id:
            raise invalid("id", "must be non-empty")
        if not self.treatment_text:
            raise invalid("treatment", "must be non-empty")
        if not self.outcome_text:
            raise invalid("outcome", "must be non-empty")
        for name, text in (("enriched_treatment", self.enriched_treatment),
                           ("enriched_outcome", self.enriched_outcome)):
            if text is not None and not isinstance(text, str):
                raise invalid(name, "must be a string")
        if isinstance(self.effect_size, bool) or not isinstance(self.effect_size, (int, float)):
            raise invalid("effect_size", "must be a real number")
        try:
            finite = math.isfinite(self.effect_size)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise invalid("effect_size", "must be finite")

    def to_record(self) -> dict[str, Any]:
        """The record that :meth:`from_record` reads back, in _RECORD_KEYS
        order; the optional fields that are None are left out."""
        values = (self.id, self.treatment_text, self.outcome_text, self.context_text,
                  self.enriched_treatment, self.enriched_outcome, self.effect_size,
                  self.source_ref)
        rec = {k: v for k, v in zip(_RECORD_KEYS, values) if v is not None}
        rec.update((key, self.extra[key]) for key in sorted(self.extra))
        return rec

    @classmethod
    def from_record(cls, rec: Mapping[str, Any], line_no: int | None = None) -> "Experiment":
        for key in _REQUIRED_KEYS:
            if key not in rec:
                where = f" (line {line_no})" if line_no is not None else ""
                raise ArchiveError(f"missing required field {key!r}{where}")
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

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for i, exp in enumerate(self.experiments):
            exp.validate()
            if exp.id in seen:
                raise ArchiveError(f"duplicate experiment id {exp.id!r}")
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
            raise ArchiveError(f"unknown experiment id {experiment_id!r}")
        return self.experiments[idx]


def jsonl_records(path: str | Path, lines: Iterable[bytes],
                  error: Callable[[str], Exception],
                  parse: Callable[[bytes], dict | None] | None = None,
                  ) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each non-blank line of ``lines``,
    the binary lines of the file ``path``, each ending at ``b"\\n"``.

    ``parse``, where given, reads each line's bytes first: the record it
    returns is the line's. Every other line is decoded from UTF-8 and read by
    ``json.loads``, and one that is not UTF-8, that is not JSON or that holds
    no JSON object raises ``error("PATH:LINE: reason")``.
    """
    for line_no, raw in enumerate(lines, start=1):
        rec = None if parse is None else parse(raw)
        if rec is not None:
            yield line_no, rec
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise error(f"{path}:{line_no}: not UTF-8 text: {e.reason}") from None
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise error(f"{path}:{line_no}: invalid JSON: {e.msg}") from e
        except RecursionError:
            raise error(f"{path}:{line_no}: invalid JSON: nested too deeply") from None
        if not isinstance(rec, dict):
            raise error(f"{path}:{line_no}: expected a JSON object")
        yield line_no, rec


def load_archive(path: str | Path) -> Archive:
    """Load a line-delimited archive file, validating every record.

    Every error is an :class:`ArchiveError` naming the line: a line that
    :func:`jsonl_records` rejects, a missing field, an invalid record or a
    repeated id.
    """
    path = Path(path)
    experiments: list[Experiment] = []
    first_line: dict[str, int] = {}
    with path.open("rb") as fh:
        for line_no, rec in jsonl_records(path, fh, ArchiveError):
            exp = Experiment.from_record(rec, line_no)
            if exp.id in first_line:
                raise ArchiveError(f"duplicate experiment id {exp.id!r} "
                                   f"on lines {first_line[exp.id]} and {line_no}")
            first_line[exp.id] = line_no
            experiments.append(exp)
    return Archive(tuple(experiments))


def save_archive(archive: Archive, path: str | Path) -> None:
    """Write the archive as one UTF-8 JSON record per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for exp in archive:
            fh.write(json.dumps(exp.to_record(), ensure_ascii=False))
            fh.write("\n")

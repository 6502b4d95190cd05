"""Read, validate, and filter delimited pitch data.

Input files are header-bearing delimited text. A :class:`ColumnSchema` maps
the logical fields (pitcher_id, start_speed, back_spin, side_spin, ...) onto
whatever the physical columns are called, so differently-shaped exports can
be read without code changes. Spin columns are treated as one opaque,
internally-consistent unit; nothing in the pipeline converts them.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyDataset, MalformedRow, MissingColumn

REQUIRED_FIELDS = ("pitcher_id", "start_speed", "back_spin", "side_spin")
OPTIONAL_FIELDS = ("season", "reference_label", "intentional")

_TRUE_TOKENS = {"1", "true", "t", "yes"}
_FALSE_TOKENS = {"0", "false", "f", "no", ""}


@dataclass(frozen=True)
class ColumnSchema:
    """Logical-field -> physical-column mapping plus the delimiter."""

    pitcher_id: str = "pitcher_id"
    season: str = "season"
    start_speed: str = "start_speed"
    back_spin: str = "back_spin"
    side_spin: str = "side_spin"
    reference_label: str = "pitch_type"
    intentional: str = "intentional"
    delimiter: str = ","

    def __post_init__(self):
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")

    def with_overrides(self, mapping: dict[str, str] | None = None,
                       delimiter: str | None = None) -> "ColumnSchema":
        changes: dict[str, str] = dict(mapping or {})
        if delimiter is not None:
            changes["delimiter"] = delimiter
        return replace(self, **changes) if changes else self


DEFAULT_SCHEMA = ColumnSchema()


@dataclass(frozen=True)
class PitchRecord:
    """One pitch: release speed (mph) and the two pseudo-spin components."""

    pitcher_id: str
    start_speed: float
    back_spin: float
    side_spin: float
    season: str | None = None
    reference_label: str | None = None
    is_intentional_ball: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.start_speed) and 0.0 < self.start_speed < 200.0):
            raise ValueError(f"start_speed {self.start_speed!r} outside (0, 200)")
        if not (math.isfinite(self.back_spin) and math.isfinite(self.side_spin)):
            raise ValueError("spin components must be finite")


@dataclass(frozen=True)
class PitchDataset:
    """Ordered, validated collection of pitch records.

    ``rejected`` carries (line_number, reason) reports for rows dropped at
    parse time and ``removed_intentional`` the count dropped by
    :func:`filter_pitches`; neither participates in equality, which is
    defined by the records alone.
    """

    records: tuple[PitchRecord, ...]
    rejected: tuple[tuple[int, str], ...] = field(default=(), compare=False)
    removed_intentional: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.records:
            raise EmptyDataset("dataset has no records", rejected=self.rejected)

    @property
    def n(self) -> int:
        return len(self.records)

    def pitcher_ids(self) -> tuple[str, ...]:
        """Distinct pitcher ids, in first-appearance order."""
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.pitcher_id, None)
        return tuple(seen)

    def single_pitcher_id(self) -> str:
        """The one pitcher id present; raises if the dataset is mixed."""
        ids = self.pitcher_ids()
        if len(ids) != 1:
            raise ValueError(f"dataset holds {len(ids)} pitchers {ids}; expected exactly one")
        return ids[0]

    def split_by_pitcher(self) -> dict[str, "PitchDataset"]:
        """Per-pitcher datasets preserving record order, keyed by pitcher id."""
        groups: dict[str, list[PitchRecord]] = {}
        for rec in self.records:
            groups.setdefault(rec.pitcher_id, []).append(rec)
        return {pid: PitchDataset(tuple(recs)) for pid, recs in groups.items()}

    def to_matrix(self) -> np.ndarray:
        """(n, 3) float array of (start_speed, back_spin, side_spin)."""
        return np.array(
            [(r.start_speed, r.back_spin, r.side_spin) for r in self.records],
            dtype=np.float64,
        )


def _as_text_lines(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8").splitlines()
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.splitlines()


def _parse_float(token: str, what: str) -> float:
    token = token.strip()
    if not token:
        raise ValueError(f"missing {what}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {token!r}")
    return value


def _parse_flag(token: str) -> bool:
    token = token.strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ValueError(f"unparseable intentional flag {token!r}")


def parse_pitch_csv(source, schema: ColumnSchema = DEFAULT_SCHEMA) -> PitchDataset:
    """Parse a delimited pitch file into a dataset.

    ``source`` may be a path, a text stream, or a byte stream. Rows with
    missing or unparseable required values are rejected (not fatal) and
    reported on ``dataset.rejected`` as (line_number, reason) with the
    header on line 1. Raises :class:`MissingColumn` when a required field
    has no column and :class:`EmptyDataset` when no row survives.
    """
    lines = list(_as_text_lines(source))
    if not lines:
        raise EmptyDataset("input has no header")
    reader = csv.reader(lines, delimiter=schema.delimiter)
    header = [h.strip() for h in next(reader)]
    position: dict[str, int] = {}
    for logical in REQUIRED_FIELDS + OPTIONAL_FIELDS:
        column = getattr(schema, logical)
        try:
            position[logical] = header.index(column)
        except ValueError:
            if logical in REQUIRED_FIELDS:
                raise MissingColumn(logical, column) from None

    def get(row: Sequence[str], logical: str) -> str:
        idx = position.get(logical)
        return row[idx] if idx is not None and idx < len(row) else ""

    records: list[PitchRecord] = []
    rejected: list[tuple[int, str]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            pid = get(row, "pitcher_id").strip()
            if not pid:
                raise ValueError("missing pitcher_id")
            record = PitchRecord(
                pitcher_id=pid,
                start_speed=_parse_float(get(row, "start_speed"), "start_speed"),
                back_spin=_parse_float(get(row, "back_spin"), "back_spin"),
                side_spin=_parse_float(get(row, "side_spin"), "side_spin"),
                season=get(row, "season").strip() or None,
                reference_label=get(row, "reference_label").strip() or None,
                is_intentional_ball=_parse_flag(get(row, "intentional")),
            )
        except ValueError as exc:
            rejected.append((line_no, str(MalformedRow(line_no, exc))))
            continue
        records.append(record)

    if not records:
        raise EmptyDataset(
            f"no valid rows ({len(rejected)} malformed)", rejected=rejected
        )
    return PitchDataset(tuple(records), rejected=tuple(rejected))


@contextmanager
def csv_rows(dest, delimiter: str = ","):
    """A ``csv.writer`` with ``\\n`` line ends over ``dest``.

    ``dest`` is a path, opened as UTF-8 and closed on exit, or an open text
    stream, which is left open. Every CSV table the package writes goes
    through here.
    """
    if hasattr(dest, "write"):
        yield csv.writer(dest, delimiter=delimiter, lineterminator="\n")
        return
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        yield csv.writer(fh, delimiter=delimiter, lineterminator="\n")


def write_pitch_csv(dataset: PitchDataset, dest, schema: ColumnSchema = DEFAULT_SCHEMA) -> None:
    """Serialize a dataset using the schema's column names.

    Floats are written with shortest round-trip repr, so
    parse(write(parse(f))) == parse(f) exactly.
    """
    with csv_rows(dest, schema.delimiter) as writer:
        writer.writerow([
            schema.pitcher_id, schema.season, schema.start_speed,
            schema.back_spin, schema.side_spin, schema.reference_label,
            schema.intentional,
        ])
        for rec in dataset.records:
            writer.writerow([
                rec.pitcher_id,
                rec.season or "",
                repr(float(rec.start_speed)),
                repr(float(rec.back_spin)),
                repr(float(rec.side_spin)),
                rec.reference_label or "",
                "1" if rec.is_intentional_ball else "0",
            ])


def serialize_pitch_csv(dataset: PitchDataset, schema: ColumnSchema = DEFAULT_SCHEMA) -> str:
    buf = io.StringIO()
    write_pitch_csv(dataset, buf, schema)
    return buf.getvalue()


def filter_pitches(dataset: PitchDataset) -> PitchDataset:
    """Drop intentional balls, preserving record order.

    The removal count is reported on ``removed_intentional`` of the result.
    Raises :class:`EmptyDataset` when every record was intentional.
    Idempotent: filtering an already-filtered dataset changes nothing.
    """
    kept = tuple(r for r in dataset.records if not r.is_intentional_ball)
    removed = dataset.n - len(kept)
    if not kept:
        raise EmptyDataset(f"all {dataset.n} records are intentional balls")
    return PitchDataset(kept, rejected=dataset.rejected, removed_intentional=removed)

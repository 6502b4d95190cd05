"""Read, validate, and filter delimited pitch data.

Input files are header-bearing delimited text. A :class:`ColumnSchema` maps
the logical fields (pitcher_id, start_speed, back_spin, side_spin, ...) onto
whatever the physical columns are called, so differently-shaped exports can
be read without code changes. Spin columns are treated as one opaque,
internally-consistent unit; nothing in the pipeline converts them.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyDataset, IngestError, MalformedRow, MissingColumn

REQUIRED_FIELDS = ("pitcher_id", "start_speed", "back_spin", "side_spin")
OPTIONAL_FIELDS = ("season", "reference_label", "intentional")

_TRUE_TOKENS = {"1", "true", "t", "yes"}
_FALSE_TOKENS = {"0", "false", "f", "no", ""}
# the flag of each token as written, for the common rows; any other spelling
# goes through _parse_flag
_FLAGS = {**dict.fromkeys(_TRUE_TOKENS, True), **dict.fromkeys(_FALSE_TOKENS, False)}


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
        read_by: dict[str, str] = {}
        for logical in REQUIRED_FIELDS + OPTIONAL_FIELDS:
            column = getattr(self, logical)
            if column in read_by:
                raise ValueError(f"fields {read_by[column]} and {logical} both read "
                                 f"column {column!r}")
            read_by[column] = logical


DEFAULT_SCHEMA = ColumnSchema()


def _check_range(start_speed: float, back_spin: float, side_spin: float) -> None:
    """Raise ValueError unless the pitch keeps the range rule: a start speed
    in (0, 200) mph and finite spin components."""
    if not (math.isfinite(start_speed) and 0.0 < start_speed < 200.0):
        raise ValueError(f"start_speed {start_speed!r} outside (0, 200)")
    if not (math.isfinite(back_spin) and math.isfinite(side_spin)):
        raise ValueError("spin components must be finite")


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
        _check_range(self.start_speed, self.back_spin, self.side_spin)


class PitchDataset:
    """Ordered, validated pitches, held as columns.

    ``to_matrix()`` is the read-only (n, 3) float64 matrix of
    (start_speed, back_spin, side_spin). ``pitchers``, ``seasons`` and
    ``reference_labels`` are tuples of strings, "" where a value is absent,
    and ``intentional`` is a read-only bool array. The parse and
    :meth:`from_columns` build the columns directly.

    ``PitchDataset(records)``, which builds the columns from
    :class:`PitchRecord` s, and :attr:`records`, which builds records from
    the columns on each access, are kept only because the benchmark in
    ``perfbench/`` still uses them: its input generator joins per-pitcher
    datasets through ``.records`` and ``dataclasses.replace``. The same
    benchmark keeps ``mixture.m_step`` (its kernel probe) and
    ``plotting.projection_svg`` with its import in ``cli`` (a traced span).
    They go when the benchmark stops using them.

    ``rejected`` carries (line_number, reason) reports for rows dropped at
    parse time and ``removed_intentional`` the count dropped by
    :func:`filter_pitches`; neither participates in equality, which is
    defined by the pitches alone.
    """

    __slots__ = ("_X", "pitchers", "seasons", "reference_labels", "intentional",
                 "rejected", "removed_intentional")

    def __init__(self, records, rejected=(), removed_intentional: int = 0):
        records = tuple(records)
        X = np.array([(r.start_speed, r.back_spin, r.side_spin) for r in records],
                     dtype=np.float64).reshape(len(records), 3)
        self._assign(X, tuple(r.pitcher_id for r in records),
                     tuple(r.season or "" for r in records),
                     tuple(r.reference_label or "" for r in records),
                     np.array([bool(r.is_intentional_ball) for r in records], dtype=bool),
                     rejected, removed_intentional)

    @classmethod
    def from_columns(cls, X, pitchers, seasons=None, reference_labels=None, intentional=None,
                     rejected=(), removed_intentional: int = 0) -> "PitchDataset":
        """A dataset of the rows of ``X``; absent string columns are all "",
        an absent ``intentional`` all False. ``X`` and ``intentional`` are
        copied."""
        n = len(pitchers)
        return cls._owning(np.array(X, dtype=np.float64), tuple(pitchers),
                           ("",) * n if seasons is None else tuple(seasons),
                           ("",) * n if reference_labels is None else tuple(reference_labels),
                           np.zeros(n, dtype=bool) if intentional is None
                           else np.array(intentional, dtype=bool),
                           rejected, removed_intentional)

    @classmethod
    def _owning(cls, X: np.ndarray, pitchers: tuple, seasons: tuple, reference_labels: tuple,
                intentional: np.ndarray, rejected=(), removed_intentional: int = 0
                ) -> "PitchDataset":
        """A dataset that keeps the arrays and tuples it is given, without
        copies, and makes the arrays read-only: for arrays that no one else
        holds, such as a parse's or an index operation's."""
        dataset = cls.__new__(cls)
        dataset._assign(X, pitchers, seasons, reference_labels, intentional, rejected,
                        removed_intentional)
        return dataset

    def _assign(self, X, pitchers, seasons, reference_labels, intentional, rejected,
                removed_intentional) -> None:
        X = np.asarray(X, dtype=np.float64)
        intentional = np.asarray(intentional, dtype=bool)
        columns = (pitchers, seasons, reference_labels)
        n = len(columns[0])
        if X.shape != (n, 3) or {len(c) for c in columns} != {n} or intentional.shape != (n,):
            raise ValueError(f"columns of unequal length: matrix {X.shape}, "
                             f"{[len(c) for c in columns]} strings, {intentional.shape} flags")
        if not n:
            raise EmptyDataset("dataset has no records", rejected=rejected)
        bad = ~((X[:, 0] > 0.0) & (X[:, 0] < 200.0) & np.isfinite(X).all(axis=1))
        if bad.any():
            _check_range(*X[int(np.argmax(bad))].tolist())
        X.flags.writeable = False
        intentional.flags.writeable = False
        for name, value in zip(self.__slots__, (X, *columns, intentional, tuple(rejected),
                                                 removed_intentional)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PitchDataset is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PitchDataset):
            return NotImplemented
        return (self.pitchers == other.pitchers and self.seasons == other.seasons
                and self.reference_labels == other.reference_labels
                and np.array_equal(self.intentional, other.intentional)
                and np.array_equal(self._X, other._X))

    def __hash__(self):
        return hash(self.pitchers)

    def __repr__(self):
        return f"PitchDataset(n={self.n}, pitchers={self.pitcher_ids()!r})"

    @property
    def n(self) -> int:
        return len(self.pitchers)

    @property
    def records(self) -> tuple[PitchRecord, ...]:
        """One :class:`PitchRecord` per row, absent strings as None."""
        return tuple(
            PitchRecord(pid, speed, back, side, season or None, ref or None, flag)
            for pid, (speed, back, side), season, ref, flag in zip(
                self.pitchers, self._X.tolist(), self.seasons, self.reference_labels,
                self.intentional.tolist())
        )

    def pitcher_ids(self) -> tuple[str, ...]:
        """Distinct pitcher ids, in first-appearance order."""
        return tuple(dict.fromkeys(self.pitchers))

    def single_pitcher_id(self) -> str:
        """The one pitcher id present; raises if the dataset is mixed."""
        ids = self.pitcher_ids()
        if len(ids) != 1:
            raise ValueError(f"dataset holds {len(ids)} pitchers {ids}; expected exactly one")
        return ids[0]

    def split_by_pitcher(self) -> dict[str, "PitchDataset"]:
        """Per-pitcher datasets preserving row order, keyed by pitcher id."""
        rows: dict[str, list[int]] = {}
        for i, pid in enumerate(self.pitchers):
            rows.setdefault(pid, []).append(i)
        return {pid: self._take(np.array(idx)) for pid, idx in rows.items()}

    def to_matrix(self) -> np.ndarray:
        """(n, 3) float array of (start_speed, back_spin, side_spin), read-only."""
        return self._X

    def _take(self, rows: np.ndarray) -> "PitchDataset":
        """The dataset of the rows at the indices ``rows``, in that order."""
        pick = rows.tolist()
        return PitchDataset._owning(
            self._X[rows], *(tuple([col[i] for i in pick])
                             for col in (self.pitchers, self.seasons, self.reference_labels)),
            self.intentional[rows])


# Rows parsed into Python floats before they are packed into an array, so
# that the floats of the whole file (32 bytes each) are never held at once.
PARSE_ROWS = 4096

# Bytes read from a byte source per decode. Each read is cut after its last
# line end, so that no character, "\r\n" or line is split between decodes.
READ_BYTES = 1 << 16


def _line_breaks(data: bytes) -> int:
    """The number of "\\r\\n", "\\r" and "\\n" line ends in ``data``."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _decoded_blocks(blocks) -> Iterator[io.StringIO]:
    """The text of the UTF-8 byte ``blocks``, without a leading byte-order
    mark, as one newline-untranslated text stream per run of whole lines,
    so its lines end at "\\n", "\\r\\n" or "\\r" only.

    Bytes that are not UTF-8 raise ``UnicodeDecodeError`` when their stream
    is due, after every line of the earlier streams; the error's ``object``
    begins at the start of the line after those.
    """
    decode = codecs.getincrementaldecoder("utf-8-sig")().decode
    carry = b""
    for block in blocks:
        data = carry + block
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        carry = data[cut:]
        yield io.StringIO(decode(data[:cut]), newline="")
    yield io.StringIO(decode(carry, True), newline="")


@contextmanager
def _text_lines(source) -> Iterator[Iterator[str]]:
    """The lines, ends kept, of a path, byte stream or text stream, without a
    leading byte-order mark (as Excel writes one). A path or byte stream is
    decoded as it is read (see :func:`_decoded_blocks`); a stream whose
    ``read()`` returns text is read whole. A path is opened and closed here;
    a stream is left open."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield chain.from_iterable(_decoded_blocks(iter(partial(fh.read, READ_BYTES), b"")))
        return
    first = source.read(READ_BYTES)
    if isinstance(first, str):
        yield io.StringIO((first + source.read()).removeprefix("\ufeff"), newline="")
    else:
        rest = iter(partial(source.read, READ_BYTES), b"")
        yield chain.from_iterable(_decoded_blocks(chain((first,), rest)))


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


def _parse_row(row: Sequence[str], get) -> tuple:
    """(pitcher, speed, back spin, side spin, season, label, flag) of one
    non-blank row, absent strings as "", or ValueError with the first reason
    it is malformed: pitcher id, then each number, then the flag, then the
    range rule."""
    pid = get(row, "pitcher_id").strip()
    if not pid:
        raise ValueError("missing pitcher_id")
    speed, back, side = (_parse_float(get(row, f), f)
                         for f in ("start_speed", "back_spin", "side_spin"))
    flag = _parse_flag(get(row, "intentional"))
    _check_range(speed, back, side)
    return (pid, speed, back, side, get(row, "season").strip(),
            get(row, "reference_label").strip(), flag)


def parse_pitch_csv(source, schema: ColumnSchema = DEFAULT_SCHEMA) -> PitchDataset:
    """Parse a delimited pitch file into a dataset.

    ``source`` may be a path, a text stream, or a byte stream, in UTF-8
    with or without a byte-order mark; a path or byte stream is decoded as
    it is read, so the parse never holds the whole file. Rows end at "\\n",
    "\\r\\n" or "\\r" only, and a quoted cell may span lines. Rows with
    missing or unparseable required values are rejected (not fatal) and
    reported on ``dataset.rejected`` as (line_number, reason), where
    line_number is the physical line the row starts on and the header
    starts on line 1. Equal pitcher, season and label cells share one str.
    Raises :class:`MissingColumn` when a required field has no column,
    :class:`MalformedRow` when the csv module cannot read a row (a cell over
    its field size limit) or a byte is not UTF-8, naming its line, and
    :class:`EmptyDataset` when no row survives.
    """
    with _text_lines(source) as lines:
        reader = csv.reader(lines, delimiter=schema.delimiter)
        next_line = 1  # the physical line the row being read starts on
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyDataset("input has no header")
            header = [h.strip() for h in header]
            position: dict[str, int] = {}
            for logical in REQUIRED_FIELDS + OPTIONAL_FIELDS:
                column = getattr(schema, logical)
                try:
                    position[logical] = header.index(column)
                except ValueError:
                    if logical in REQUIRED_FIELDS:
                        raise MissingColumn(logical, column) from None
                    continue
                if header.count(column) > 1:
                    raise IngestError(f"column {column!r}, read by {logical}, appears "
                                      f"{header.count(column)} times in the header")

            def get(row: Sequence[str], logical: str) -> str:
                idx = position.get(logical)
                return row[idx] if idx is not None and idx < len(row) else ""

            i_pid, i_speed, i_back, i_side = (position[f] for f in REQUIRED_FIELDS)
            i_season, i_label, i_flag = (position.get(f) for f in OPTIONAL_FIELDS)
            isfinite = math.isfinite
            # each pitcher, season and label cell read so far, as read, mapped
            # to the first str of its stripped value, which every row holding
            # that value shares; a new cell takes the per-cell path below
            text: dict[str, str] = {}
            # the numbers and the intentional flags of each run of PARSE_ROWS rows
            blocks: list[np.ndarray] = []
            flag_blocks: list[np.ndarray] = []
            pitchers: list[str] = []
            seasons: list[str] = []
            labels: list[str] = []
            rejected: list[tuple[int, str]] = []
            next_line = reader.line_num + 1
            while True:  # until a run reads no line
                first_line, values, flags = next_line, [], []
                for row in islice(reader, PARSE_ROWS):
                    line_no, next_line = next_line, reader.line_num + 1
                    try:  # a well-formed row of known text; any other takes the path below
                        pid = text[row[i_pid]]
                        speed = float(row[i_speed])
                        back, side = float(row[i_back]), float(row[i_side])
                        flag = False if i_flag is None else _FLAGS[row[i_flag]]
                        season = "" if i_season is None else text[row[i_season]]
                        label = "" if i_label is None else text[row[i_label]]
                        if not (pid and 0.0 < speed < 200.0 and isfinite(back) and isfinite(side)):
                            raise ValueError
                    except (IndexError, KeyError, ValueError):
                        if not any(cell.strip() for cell in row):
                            continue
                        try:
                            pid, speed, back, side, season, label, flag = _parse_row(row, get)
                        except ValueError as exc:
                            rejected.append((line_no, str(MalformedRow(line_no, exc))))
                            continue
                        pid, season, label = (text.setdefault(v, v) for v in (pid, season, label))
                        for i, value in ((i_pid, pid), (i_season, season), (i_label, label)):
                            if i is not None and i < len(row):  # a padded cell, say
                                text.setdefault(row[i], value)
                    values += (speed, back, side)
                    pitchers.append(pid)
                    seasons.append(season)
                    labels.append(label)
                    flags.append(flag)
                blocks.append(np.array(values, dtype=np.float64))
                flag_blocks.append(np.array(flags, dtype=bool))
                if next_line == first_line:
                    break
        except csv.Error as exc:  # a cell over the csv module's field size limit, say
            raise MalformedRow(next_line, exc) from None
        except UnicodeDecodeError as exc:
            # raised by the block of lines that begins after the last line read
            bad = reader.line_num + 1 + _line_breaks(exc.object[:exc.start])
            raise MalformedRow(bad, f"not UTF-8 ({exc.reason})") from None

    if not pitchers:
        raise EmptyDataset(
            f"no valid rows ({len(rejected)} malformed)", rejected=rejected
        )
    X = np.concatenate(blocks).reshape(-1, 3)
    del blocks  # before the string columns become tuples
    return PitchDataset._owning(X, tuple(pitchers), tuple(seasons), tuple(labels),
                                np.concatenate(flag_blocks), rejected)


@contextmanager
def _text_out(dest):
    """``dest`` as a text stream: a path opened as UTF-8 without newline
    translation and closed on exit, or an open text stream, left open."""
    if hasattr(dest, "write"):
        yield dest
        return
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        yield fh


@contextmanager
def csv_rows(dest, delimiter: str = ","):
    """A ``csv.writer`` with ``\\n`` line ends over ``dest``, a path or an open
    text stream (see :func:`_text_out`).

    The small tables go through here: the pitch file itself, whose
    delimiter is the schema's, and the score, stability and batch-summary
    tables. The per-pitch outputs go through :func:`write_csv_columns`.
    """
    with _text_out(dest) as fh:
        yield csv.writer(fh, delimiter=delimiter, lineterminator="\n")


# Rows per % call in format_rows. One call per whole table is no faster, and
# its megabyte-sized tuples and strings fragment the heap: over a hundred
# classify + plot operations on 20k-row files in one process (2-core x86-64
# VM), peak RSS crept up to 10% above that of a row-at-a-time writer, where
# 1024-row blocks stay below it.
ROWS_PER_CALL = 1024


def format_rows(row: str, rows) -> Iterator[str]:
    """``row``, a ``%`` template, filled from each tuple of cells in ``rows``;
    yielded in blocks of up to ``ROWS_PER_CALL`` rows, each formatted by one
    ``%`` call over a flat tuple of its cells, so the per-cell work is done
    in C."""
    rows = iter(rows)
    while block := list(islice(rows, ROWS_PER_CALL)):
        yield row * len(block) % tuple(chain.from_iterable(block))


def tolist_blocks(column: np.ndarray) -> Iterator:
    """The values of the numpy ``column`` as Python objects, converted
    ``ROWS_PER_CALL`` at a time, so that they are never all held at once."""
    return chain.from_iterable(column[start:start + ROWS_PER_CALL].tolist()
                               for start in range(0, len(column), ROWS_PER_CALL))


def _csv_cells(values) -> dict:
    """Each distinct cell of ``values`` as ``csv.writer`` writes it after
    another cell of its row (alone, an empty cell would be quoted)."""
    text = {}
    for value in set(values):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((None, value))
        text[value] = buf.getvalue()[1:-1]
    return text


def write_csv_columns(dest, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header``, then one comma-separated row per entry of the
    equal-length ``columns`` (two or more), with ``\\n`` line ends.

    A numpy array column is written by the ``repr`` of each value, so floats
    round-trip, and becomes Python numbers a block of rows at a time
    (:func:`tolist_blocks`). Every other column holds hashable cells written
    exactly as ``csv.writer`` writes them, quoting included, which is worked
    out once per distinct cell. The rows are formatted by :func:`format_rows`.
    ``dest`` is a path or an open text stream, as for :func:`csv_rows`,
    which would write the same bytes given each number's ``repr``.
    """
    lengths = [len(col) for col in columns]
    if len(lengths) < 2 or len(set(lengths)) != 1:
        raise ValueError(f"need two or more columns of equal length, got lengths {lengths}")
    numeric = [isinstance(col, np.ndarray) for col in columns]
    cells = [tolist_blocks(col) if is_num else map(_csv_cells(col).__getitem__, col)
             for col, is_num in zip(columns, numeric)]
    row = ",".join("%r" if is_num else "%s" for is_num in numeric) + "\n"
    with _text_out(dest) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(format_rows(row, zip(*cells)))


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
        speed, back, side = (map(repr, col) for col in dataset.to_matrix().T.tolist())
        writer.writerows(zip(dataset.pitchers, dataset.seasons, speed, back, side,
                             dataset.reference_labels,
                             ["1" if flag else "0" for flag in dataset.intentional.tolist()]))


def filter_pitches(dataset: PitchDataset) -> PitchDataset:
    """Drop intentional balls, preserving row order.

    The removal count is reported on ``removed_intentional`` of the result.
    Raises :class:`EmptyDataset` when every record was intentional.
    Idempotent: filtering an already-filtered dataset changes nothing.
    """
    keep = ~dataset.intentional
    kept = int(np.count_nonzero(keep))
    if not kept:
        raise EmptyDataset(f"all {dataset.n} records are intentional balls")
    selectors = keep.tobytes()  # one byte a row, 1 where the row is kept
    return PitchDataset._owning(
        dataset.to_matrix()[keep],
        *(tuple(compress(col, selectors))
          for col in (dataset.pitchers, dataset.seasons, dataset.reference_labels)),
        np.zeros(kept, dtype=bool), dataset.rejected, dataset.n - kept)

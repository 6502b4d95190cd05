import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_parse
from pitchmbc.errors import EmptyDataset, MissingColumn
from pitchmbc.ingest import (ColumnSchema, DEFAULT_SCHEMA, PitchDataset, PitchRecord,
                             filter_pitches, parse_pitch_csv, serialize_pitch_csv,
                             write_pitch_csv)
from pitchmbc.labeling import PitchType, write_labeled_csv
from pitchmbc.plotting import write_plot_csv
from pitchmbc.selection import CriterionScore, SelectionResult, write_score_csv
from pitchmbc.stability import StabilityReport, write_stability_csv

HEADER = "pitcher_id,season,start_speed,back_spin,side_spin,pitch_type,intentional"


def make_csv(rows, header=HEADER):
    return io.StringIO("\n".join([header] + rows) + "\n")


def test_parse_three_rows_in_file_order():
    src = make_csv([
        "zito,2010,85.1,60.0,40.0,FF,0",
        "zito,2010,78.2,-50.0,30.5,CU,0",
        "zito,2011,84.0,55.0,42.0,,0",
    ])
    ds = parse_pitch_csv(src)
    assert ds.n == 3
    assert [r.start_speed for r in ds.records] == [85.1, 78.2, 84.0]
    assert ds.records[0].reference_label == "FF"
    assert ds.records[2].reference_label is None
    assert ds.records[2].season == "2011"
    assert ds.rejected == ()


def test_parse_all_rows_malformed_is_empty_dataset():
    src = make_csv(["zito,2010,NaN,60.0,40.0,FF,0"])
    with pytest.raises(EmptyDataset) as err:
        parse_pitch_csv(src)
    assert len(err.value.rejected) == 1
    assert err.value.rejected[0][0] == 2  # header is line 1


def test_parse_synthetic_file_column_means_match_generator():
    rng = np.random.default_rng(1234)
    speeds = rng.uniform(60, 100, size=100)
    backs = rng.uniform(-150, 150, size=100)
    sides = rng.uniform(-150, 150, size=100)
    rows = [f"p1,,{float(s)!r},{float(b)!r},{float(c)!r},,0"
            for s, b, c in zip(speeds, backs, sides)]
    ds = parse_pitch_csv(make_csv(rows))
    X = ds.to_matrix()
    assert abs(X[:, 0].mean() - speeds.mean()) < 1e-12
    assert abs(X[:, 1].mean() - backs.mean()) < 1e-12
    assert abs(X[:, 2].mean() - sides.mean()) < 1e-12


def test_missing_required_column():
    src = io.StringIO("pitcher_id,season,back_spin,side_spin\nzito,2010,1,2\n")
    with pytest.raises(MissingColumn) as err:
        parse_pitch_csv(src)
    assert err.value.field == "start_speed"


def test_malformed_rows_collected_not_fatal():
    src = make_csv([
        "zito,2010,85.1,60.0,40.0,,0",
        "zito,2010,oops,60.0,40.0,,0",      # bad speed
        "zito,2010,84.0,inf,40.0,,0",       # non-finite spin
        "zito,2010,250.0,60.0,40.0,,0",     # speed outside (0, 200)
        "zito,2010,83.0,55.0,41.0,,maybe",  # bad intentional flag
        "zito,2010,82.5,50.0,39.0,,1",
    ])
    ds = parse_pitch_csv(src)
    assert ds.n == 2
    assert [line for line, _ in ds.rejected] == [3, 4, 5, 6]
    assert ds.records[1].is_intentional_ball is True


def test_record_invariants_enforced():
    with pytest.raises(ValueError):
        PitchRecord("p", 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PitchRecord("p", 90.0, float("nan"), 1.0)


def test_byte_stream_and_custom_schema():
    raw = "id;velo;bspin;sspin\nzito;88.5;100.0;-40.0\n".encode()
    schema = ColumnSchema(pitcher_id="id", start_speed="velo", back_spin="bspin",
                          side_spin="sspin", delimiter=";")
    ds = parse_pitch_csv(io.BytesIO(raw), schema)
    assert ds.n == 1
    assert ds.records[0].start_speed == 88.5


def test_filter_removes_intentional_and_reports_count():
    records = [PitchRecord("p", 80 + i, 10.0, -5.0, is_intentional_ball=(i in (3, 7)))
               for i in range(10)]
    ds = PitchDataset(tuple(records))
    out = filter_pitches(ds)
    assert out.n == 8
    assert out.removed_intentional == 2
    assert [r.start_speed for r in out.records] == [80 + i for i in range(10) if i not in (3, 7)]


def test_filter_no_flags_is_identity():
    ds = PitchDataset(tuple(PitchRecord("p", 80 + i, 1.0, 1.0) for i in range(5)))
    assert filter_pitches(ds) == ds


def test_filter_all_flagged_raises():
    ds = PitchDataset(tuple(PitchRecord("p", 80.0, 1.0, 1.0, is_intentional_ball=True)
                            for _ in range(4)))
    with pytest.raises(EmptyDataset):
        filter_pitches(ds)


pitcher_ids = st.text(alphabet="abcdefgh0123_", min_size=1, max_size=6)
speeds = st.floats(min_value=40.0, max_value=105.0, allow_nan=False)
spins = st.floats(min_value=-400.0, max_value=400.0, allow_nan=False)
labels = st.one_of(st.none(), st.text(alphabet="ABCDEFGH", min_size=1, max_size=3))

records_strategy = st.lists(
    st.builds(PitchRecord, pitcher_id=pitcher_ids, start_speed=speeds,
              back_spin=spins, side_spin=spins, season=labels,
              reference_label=labels, is_intentional_ball=st.booleans()),
    min_size=1, max_size=30,
)


@settings(max_examples=60)
@given(records_strategy)
def test_roundtrip_identity(records):
    ds = PitchDataset(tuple(records))
    again = parse_pitch_csv(io.StringIO(serialize_pitch_csv(ds)))
    assert again == ds
    third = parse_pitch_csv(io.StringIO(serialize_pitch_csv(again)))
    assert third == again


@settings(max_examples=40)
@given(records_strategy)
def test_filter_idempotent_and_order_stable(records):
    ds = PitchDataset(tuple(records))
    if all(r.is_intentional_ball for r in records):
        with pytest.raises(EmptyDataset):
            filter_pitches(ds)
        return
    once = filter_pitches(ds)
    twice = filter_pitches(once)
    assert twice == once
    kept = [r for r in records if not r.is_intentional_ball]
    assert list(once.records) == kept


def test_write_to_path_roundtrip(tmp_path):
    ds = PitchDataset((
        PitchRecord("p1", 91.123456789012345, 0.1, -0.3, season="2010",
                    reference_label="FF"),
        PitchRecord("p1", 77.0, -88.25, 31.5, is_intentional_ball=True),
    ))
    path = tmp_path / "pitches.csv"
    write_pitch_csv(ds, path)
    assert parse_pitch_csv(path) == ds


def _csv_writers():
    """Each package CSV writer, bound to small hand-made inputs, as f(dest)."""
    ds = PitchDataset((
        PitchRecord("josé", 91.5, 0.1, -0.3, season="2010", reference_label="FF"),
        PitchRecord("josé", 77.0, -88.25, 31.5, is_intentional_ball=True),
    ))
    types = [PitchType.FOUR_SEAM, PitchType.CURVEBALL]
    score = CriterionScore(k=1, log_likelihood=-1.5, bic=3.5, correlation_penalty=0.25,
                           bic_adj=3.75, penalty_scale=0.7, converged=True)
    result = SelectionResult(best=None, scores=(score,),
                             failures=((2, "degenerate, twice"),), criterion="bicadj",
                             penalty_scale=0.7)
    report = StabilityReport("josé", 2, 0.8, 2, 0, ((1.0, 0.5),), ((1, "empty"),),
                             1.0, 0.5, 0.0, 0.0)
    return {
        "pitch": lambda d: write_pitch_csv(ds, d, ColumnSchema(delimiter=";")),
        "labeled": lambda d: write_labeled_csv(d, [0, 1], types, [0.9, 0.6], ["FF", None]),
        "plot": lambda d: write_plot_csv(d, ds.to_matrix(), types, ["red", "black"]),
        "score": lambda d: write_score_csv(result, d),
        "stability": lambda d: write_stability_csv(report, d),
    }


@pytest.mark.parametrize("name", sorted(_csv_writers()))
def test_csv_writer_stream_matches_path_bytes(name, tmp_path):
    write = _csv_writers()[name]
    buf = io.StringIO()
    write(buf)
    assert not buf.closed
    path = tmp_path / "out.csv"
    write(path)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    assert buf.getvalue().endswith("\n") and "\r" not in buf.getvalue()


def test_split_by_pitcher_and_single_id():
    ds = PitchDataset((
        PitchRecord("a", 90.0, 1.0, 1.0),
        PitchRecord("b", 85.0, 1.0, 1.0),
        PitchRecord("a", 88.0, 1.0, 1.0),
    ))
    parts = ds.split_by_pitcher()
    assert set(parts) == {"a", "b"}
    assert parts["a"].n == 2
    assert parts["a"].single_pitcher_id() == "a"
    assert ds.pitcher_ids() == ("a", "b")
    with pytest.raises(ValueError):
        ds.single_pitcher_id()


def test_to_matrix_shape_and_values():
    ds = PitchDataset((PitchRecord("p", 90.0, 10.0, -20.0),))
    X = ds.to_matrix()
    assert X.shape == (1, 3)
    assert X.tolist() == [[90.0, 10.0, -20.0]]


def test_empty_dataset_construction_rejected():
    with pytest.raises(EmptyDataset):
        PitchDataset(())


def test_default_schema_column_names():
    assert DEFAULT_SCHEMA.pitcher_id == "pitcher_id"
    assert DEFAULT_SCHEMA.reference_label == "pitch_type"
    assert DEFAULT_SCHEMA.intentional == "intentional"


# Cells of generated pitch files: each kind of token the parser must accept,
# reject or skip, with the delimiter, quotes and line breaks left out so that
# a row-per-line oracle reads them the same way.
def _mostly(valid, odd):
    """Nine draws in ten from ``valid``, the rest from the odd tokens."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else st.sampled_from(odd))


_odd_numbers = ["", "  ", "nan", "NaN", "inf", "-inf", "n/a", "0", "0.0", "200", "200.0",
                "199.5", " 88.25 ", "1e2", "-3", "90", "oops"]
_file_cells = {
    "pitcher_id": _mostly(st.sampled_from(["p1", "p2", " p3 ", "josé"]), ["", "  "]),
    "season": st.sampled_from(["", "2010", " 2011 "]),
    "start_speed": _mostly(st.floats(min_value=40.0, max_value=105.0).map(repr), _odd_numbers),
    "back_spin": _mostly(st.floats(min_value=-500.0, max_value=500.0).map(repr), _odd_numbers),
    "side_spin": _mostly(st.floats(min_value=-500.0, max_value=500.0).map(repr), _odd_numbers),
    "reference_label": st.sampled_from(["", "FF", " CU "]),
    "intentional": _mostly(st.sampled_from(["", "0", "1"]),
                           [" 1 ", "true", "FALSE", "yes", "No", "t", "maybe", "2"]),
    "extra": st.sampled_from(["", "x", "9.5"]),
}


@st.composite
def pitch_files(draw):
    """(text, schema) of a generated file: required columns in any order,
    optional ones present or not, blank, short and malformed rows, "," or
    ";" delimited, each line ended by "\\n" or "\\r\\n"."""
    optional = [f for f in ("season", "reference_label", "intentional", "extra")
                if draw(st.booleans())]
    columns = draw(st.permutations(["pitcher_id", "start_speed", "back_spin", "side_spin"]
                                   + optional))
    delimiter = draw(st.sampled_from([",", ";"]))
    schema = ColumnSchema(back_spin="bspin", delimiter=delimiter)
    names = [("notes" if f == "extra" else getattr(schema, f)) for f in columns]
    header = [f" {name} " if draw(st.booleans()) else name for name in names]
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "short", "blank", "empty"]))
        cells = [draw(_file_cells[f]) for f in columns]
        if kind == "short":
            cells = cells[:draw(st.integers(min_value=1, max_value=len(cells) - 1))]
        elif kind == "blank":
            cells = [draw(st.sampled_from(["", " "])) for _ in cells]
        elif kind == "empty":
            cells = []
        lines.append(delimiter.join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)), schema


def _parse_outcome(parse):
    """(result, None) or (None, (exception type, message, rejected rows))."""
    try:
        return parse(), None
    except (EmptyDataset, MissingColumn) as exc:
        return None, (type(exc), str(exc), getattr(exc, "rejected", ()))


@settings(max_examples=300, deadline=None)
@given(pitch_files(), st.booleans())
def test_parse_matches_row_at_a_time_oracle(file, as_bytes):
    text, schema = file
    source = io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)
    ds, failure = _parse_outcome(lambda: parse_pitch_csv(source, schema))
    expected, expected_failure = _parse_outcome(lambda: reference_parse(text, schema))
    assert failure == expected_failure
    if failure is not None:
        return
    records, rejected = expected
    want = np.array([(r.start_speed, r.back_spin, r.side_spin) for r in records],
                    dtype=np.float64)
    assert ds.to_matrix().dtype == np.float64
    assert ds.to_matrix().tobytes() == want.tobytes()
    assert ds.pitchers == tuple(r.pitcher_id for r in records)
    assert ds.seasons == tuple(r.season or "" for r in records)
    assert ds.reference_labels == tuple(r.reference_label or "" for r in records)
    assert ds.intentional.tolist() == [r.is_intentional_ball for r in records]
    assert ds.records == tuple(records)
    assert ds.rejected == tuple(rejected)


SHORT_HEADER = "pitcher_id,start_speed,back_spin,side_spin"


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\x0c", "\x1e"])
def test_only_real_line_ends_end_a_row(char):
    text = f"{SHORT_HEADER}\nx{char}y,90,1,2\nz,oops,1,2\n"
    ds = parse_pitch_csv(io.StringIO(text))
    assert ds.pitchers == (f"x{char}y",)
    assert ds.rejected == ((3, "row 3: could not convert string to float: 'oops'"),)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_rejected_rows_are_numbered_by_the_physical_line_they_start_on(end):
    lines = [SHORT_HEADER, '"a', 'b",90,1,2', "c,oops,1,2", "", '"d', 'e",250,1,2', "f,91,1,2"]
    ds = parse_pitch_csv(io.StringIO(end.join(lines) + end))
    assert ds.pitchers == (f"a{end}b", "f")
    assert [line for line, _ in ds.rejected] == [4, 6]
    assert ds.rejected[1][1] == "row 6: start_speed 250.0 outside (0, 200)"


@pytest.mark.parametrize("kind", ["path", "bytes", "text"])
def test_byte_order_mark_is_not_part_of_the_header(kind, tmp_path):
    text = "\ufeff" + SHORT_HEADER + "\nzito,88.5,100.0,-40.0\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(text.encode("utf-8"))
    source = {"path": path, "bytes": io.BytesIO(text.encode("utf-8")),
              "text": io.StringIO(text)}[kind]
    ds = parse_pitch_csv(source)
    assert ds.pitchers == ("zito",)
    assert ds.to_matrix().tolist() == [[88.5, 100.0, -40.0]]


def test_dataset_columns_and_records_agree():
    records = (PitchRecord("a", 90.0, 1.0, -1.0, season="2010", reference_label="FF"),
               PitchRecord("b", 80.5, -2.0, 3.0, is_intentional_ball=True))
    ds = PitchDataset(records, rejected=((3, "row 3: bad"),))
    X = ds.to_matrix()
    assert X is ds.to_matrix() and not X.flags.writeable
    assert not ds.intentional.flags.writeable
    assert ds.pitchers == ("a", "b") and ds.seasons == ("2010", "")
    assert ds.reference_labels == ("FF", "") and ds.intentional.tolist() == [False, True]
    assert ds.records == records
    same = PitchDataset.from_columns(X, ["a", "b"], ["2010", ""], ["FF", ""], [False, True])
    assert same == ds and same.rejected == ()
    assert hash(same) == hash(ds)
    with pytest.raises(AttributeError):
        ds.pitchers = ("c", "d")


def test_dataset_from_columns_checks_lengths_and_values():
    X = np.array([[90.0, 1.0, 1.0], [80.0, 2.0, 2.0]])
    with pytest.raises(ValueError, match="unequal length"):
        PitchDataset.from_columns(X, ["a"])
    with pytest.raises(ValueError, match="outside"):
        PitchDataset.from_columns(X * [3.0, 1.0, 1.0], ["a", "a"])
    with pytest.raises(ValueError, match="finite"):
        PitchDataset.from_columns(X * [1.0, np.inf, 1.0], ["a", "a"])
    with pytest.raises(EmptyDataset):
        PitchDataset.from_columns(np.empty((0, 3)), [])
    ds = PitchDataset.from_columns(X, ["a", "a"])
    X[0, 0] = 70.0  # the dataset holds its own copy
    assert ds.to_matrix()[0, 0] == 90.0

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    result = SelectionResult(best=None, best_score=score, scores=(score,),
                             failures=((2, "degenerate, twice"),), criterion="bicadj",
                             penalty_scale=0.7)
    report = StabilityReport("josé", 2, 0.8, 2, 0, ((1.0, 0.5),), ((1, "empty"),),
                             1.0, 0.5, 0.0, 0.0)
    return {
        "pitch": lambda d: write_pitch_csv(ds, d, DEFAULT_SCHEMA.with_overrides(delimiter=";")),
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

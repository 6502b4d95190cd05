import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_cases import CASCADE_CASES
from helpers import make_component, make_fit, reference_cascade
from pitchmbc.ingest import PitchDataset, filter_pitches, parse_pitch_csv, write_pitch_csv
from pitchmbc.labeling import (CLASSIFY_ROWS, LabelConfig, PitchType, classify_dataset,
                               confusion_counts, format_confusion, label_clusters,
                               write_labeled_csv)
from pitchmbc.mixture import EmConfig, e_step, fit_em
from pitchmbc.plotting import cluster_colors, write_plot_csv, write_projection_svg
from pitchmbc.synth import archetype_pitcher, gaussian_blobs


def build_fit(spec_rows):
    comps = [
        make_component([speed, back, side], stddev=(1.0, sd_back, sd_side), weight=weight)
        for speed, back, side, sd_back, sd_side, weight in spec_rows
    ]
    return make_fit(comps)


@pytest.mark.parametrize("case_id,rows,expected", CASCADE_CASES,
                         ids=[c[0] for c in CASCADE_CASES])
def test_cascade_table(case_id, rows, expected):
    model = label_clusters(build_fit(rows))
    assert [str(lb) for lb in model.labels] == expected


@pytest.mark.parametrize("case_id,rows,expected", CASCADE_CASES,
                         ids=[c[0] for c in CASCADE_CASES])
def test_cascade_table_against_independent_rewrite(case_id, rows, expected):
    model = label_clusters(build_fit(rows))
    cfg = LabelConfig()
    stats = [{"speed": r[0], "back": r[1], "side": r[2],
              "spin_var": r[3] ** 2 + r[4] ** 2} for r in rows]
    anchor = stats[model.anchor_index]
    for idx, got in enumerate(model.labels):
        if idx == model.anchor_index:
            assert got is PitchType.FOUR_SEAM
            continue
        assert str(got) == reference_cascade(stats[idx], anchor, cfg)


def test_single_cluster_is_four_seam():
    model = label_clusters(build_fit([(88, 50, 10, 15, 15, 1.0)]))
    assert model.labels == (PitchType.FOUR_SEAM,)
    assert model.anchor_index == 0


def test_rule_trace_populated():
    model = label_clusters(build_fit([
        (91, 120, -40, 15, 15, 0.5), (84, 60, 25, 15, 15, 0.5)]))
    assert len(model.rule_trace) == 2
    assert "anchor" in model.rule_trace[0][0]
    assert len(model.rule_trace[1]) >= 1
    assert any("R6" in line for line in model.rule_trace[1])


def test_labeling_deterministic():
    fit = build_fit([(91, 120, -40, 15, 15, 0.5), (83, 60, -45, 15, 15, 0.5)])
    a = label_clusters(fit)
    b = label_clusters(fit)
    assert a.labels == b.labels
    assert a.rule_trace == b.rule_trace
    assert a.anchor_index == b.anchor_index


def test_anchor_override():
    fit = build_fit([(91, 120, -40, 15, 15, 0.5), (89, 40, -110, 15, 15, 0.5)])
    default = label_clusters(fit)
    assert default.anchor_index == 0
    swapped = label_clusters(fit, anchor_override=1)
    assert swapped.anchor_index == 1
    assert swapped.labels[1] is PitchType.FOUR_SEAM
    assert swapped.labels[0] is not PitchType.FOUR_SEAM
    with pytest.raises(ValueError):
        label_clusters(fit, anchor_override=5)


def test_label_config_validation():
    with pytest.raises(ValueError):
        LabelConfig(changeup_speed_gap=0.0)
    with pytest.raises(ValueError):
        LabelConfig(knuckleball_spin_var_ratio=-1.0)
    LabelConfig(curveball_backspin_max=-20.0)  # non-positive max is allowed


speeds = st.floats(min_value=60.0, max_value=100.0, allow_nan=False)
spins = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
spin_sds = st.floats(min_value=1.0, max_value=60.0, allow_nan=False)
cluster_rows = st.tuples(speeds, spins, spins, spin_sds, spin_sds)


@settings(max_examples=120)
@given(st.lists(cluster_rows, min_size=1, max_size=6))
def test_rule_totality_every_component_labeled(rows):
    rows = [(s, b, c, sb, ss, 1.0 / len(rows)) for s, b, c, sb, ss in rows]
    model = label_clusters(build_fit(rows))
    assert len(model.labels) == len(rows)
    assert model.labels[model.anchor_index] is PitchType.FOUR_SEAM
    assert sum(1 for i, _ in enumerate(model.labels) if i == model.anchor_index) == 1
    for idx, trace in enumerate(model.rule_trace):
        assert trace


@settings(max_examples=80)
@given(st.lists(cluster_rows, min_size=2, max_size=5),
       st.floats(min_value=0.5, max_value=12.0),
       st.floats(min_value=0.1, max_value=8.0))
def test_raising_changeup_gap_never_creates_changeups(rows, gap, bump):
    rows = [(s, b, c, sb, ss, 1.0 / len(rows)) for s, b, c, sb, ss in rows]
    fit = build_fit(rows)
    low = label_clusters(fit, LabelConfig(changeup_speed_gap=gap))
    high = label_clusters(fit, LabelConfig(changeup_speed_gap=gap + bump))
    for before, after in zip(low.labels, high.labels):
        if after is PitchType.CHANGEUP:
            assert before is PitchType.CHANGEUP


def test_classify_one_pitch_at_anchor_mean():
    ds_rows = [(91, 120, -40, 15, 15, 0.6), (77, -60, 30, 15, 15, 0.4)]
    model = label_clusters(build_fit(ds_rows))
    idx, types, pmax = classify_dataset(model, [[91, 120, -40]])
    assert types == [PitchType.FOUR_SEAM]
    assert idx.tolist() == [model.anchor_index]
    assert pmax[0] > 0.99


def test_classify_two_curveball_clusters_either_way():
    rows = [(91, 120, -40, 10, 10, 0.4), (77, -60, 30, 10, 10, 0.3),
            (75, -55, 35, 10, 10, 0.3)]
    model = label_clusters(build_fit(rows))
    assert [str(lb) for lb in model.labels] == ["FourSeam", "Curveball", "Curveball"]
    for means in ([[77, -60, 30]], [[75, -55, 35]], [[77, -60, 30], [75, -55, 35]]):
        _, types, _ = classify_dataset(model, means)
        assert types == [PitchType.CURVEBALL] * len(means)


def test_classify_synthetic_holdout_matches_generator():
    means = [[91.5, 120, -38], [83.2, 82, -44], [77.0, -78, 55]]
    covs = [np.diag([0.6, 120.0, 100.0])] * 3
    X, y = gaussian_blobs(means, covs, [300, 300, 300], seed=9)
    fit = fit_em(X, 3, EmConfig(seed=9, restarts=4))
    model = label_clusters(fit)
    holdout, hy = gaussian_blobs(means, covs, [300, 300, 300], seed=10)
    idx, types, pmax = classify_dataset(model, holdout)
    # map each generator component to the fitted cluster nearest its mean
    fitted_means = fit.means()
    expect = {}
    for g, mean in enumerate(means):
        j = int(np.argmin(np.sum((fitted_means - np.asarray(mean)) ** 2, axis=1)))
        expect[g] = model.labels[j]
    agree = np.mean([types[i] is expect[g] for i, g in enumerate(hy)])
    assert agree >= 0.99
    assert pmax.min() > 0.5


@pytest.fixture(scope="module")
def season_model():
    train, _, _ = archetype_pitcher(600, seed=21)
    return label_clusters(fit_em(train, 5, EmConfig(seed=21, restarts=2)))


@pytest.mark.parametrize("n", [CLASSIFY_ROWS - 1, CLASSIFY_ROWS, CLASSIFY_ROWS + 1,
                               2 * CLASSIFY_ROWS + 1])
def test_classify_in_blocks_has_the_bits_of_one_e_step(season_model, n):
    """Around each block edge. The last row is one whose posterior a one-row
    e_step rounds differently (a one-column matmul takes its own path), so
    a last block of one row would show."""
    comps = season_model.fit.components
    X = archetype_pitcher(n, seed=n)[0].to_matrix()
    between = (X + X[::-1]) / 2  # points between clusters, posteriors well below 1
    pooled = e_step(comps, between)[0].max(axis=1)
    odd = next(i for i in range(n) if e_step(comps, between[i:i + 1])[0].max() != pooled[i])
    X = np.concatenate([X[:-1], between[odd:odd + 1]])
    idx, types, pmax = classify_dataset(season_model, X)
    resp, _ = e_step(season_model.fit.components, X)
    best = np.argmax(resp, axis=1)
    assert idx.tolist() == best.tolist()
    assert pmax.tobytes() == resp[np.arange(n), best].tobytes()
    assert types == [season_model.labels[i] for i in best.tolist()]


@pytest.mark.parametrize("n", [16_000, 64_000])
def test_parse_and_classify_peak_is_a_small_multiple_of_the_dataset(tmp_path, season_model, n):
    """The traced peak of parsing a file and classifying it is set by the
    dataset kept, not by copies of the file's text: a few times the dataset
    at both sizes, and the dataset holds the numbers and one pointer a text
    cell (each distinct value is one str)."""
    path = tmp_path / "season.csv"
    write_pitch_csv(archetype_pitcher(n, seed=5)[0], path)
    tracemalloc.start()
    try:
        dataset = parse_pitch_csv(path)
        retained = tracemalloc.get_traced_memory()[0]
        classify_dataset(season_model, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert retained < 64 * n  # 24 bytes of numbers, 3 pointers, a flag
    assert peak < 4 * retained


@pytest.mark.parametrize("n", [16_000, 64_000])
def test_filter_and_writers_peak_below_a_small_multiple_of_the_dataset(tmp_path, season_model,
                                                                        n):
    """The filter selects rows without a list of row numbers, and each
    per-pitch writer turns numbers into Python objects a block of rows at a
    time, so each peaks (tracemalloc, above what was held before the call)
    below a small multiple of the parsed dataset: about 1.1 times it for the
    filter and at most 0.8 for a writer, where holding whole columns as
    Python objects took 3 and 1.8-2.1."""
    season = archetype_pitcher(n, seed=5)[0]
    path = tmp_path / "season.csv"
    write_pitch_csv(PitchDataset.from_columns(
        season.to_matrix(), season.pitchers, season.seasons, season.reference_labels,
        np.arange(n) % 50 == 7), path)  # 2% intentional balls
    del season
    tracemalloc.start()
    try:
        dataset = parse_pitch_csv(path)
        retained = tracemalloc.get_traced_memory()[0]

        def peak(call):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - before

        filtered, filter_peak = peak(lambda: filter_pitches(dataset))
        idx, types, pmax = classify_dataset(season_model, filtered)
        per_cluster = cluster_colors(season_model.labels)
        colors = [per_cluster[i] for i in idx.tolist()]
        X = filtered.to_matrix()
        writer_peaks = [peak(call)[1] for call in (
            lambda: write_labeled_csv(tmp_path / "labeled.csv", idx, types, pmax,
                                      filtered.reference_labels),
            lambda: write_plot_csv(tmp_path / "scatter.csv", X, types, colors),
            lambda: write_projection_svg(tmp_path / "projections.svg", X, colors,
                                         [("FourSeam", "red")]))]
    finally:
        tracemalloc.stop()
    assert filtered.n == n - n // 50
    assert filter_peak < 2 * retained
    assert max(writer_peaks) < 1.25 * retained


def test_confusion_counts_and_rendering():
    refs = ["FF", "FF", "CU", None, "CH"]
    types = [PitchType.FOUR_SEAM, PitchType.SINKER, PitchType.CURVEBALL,
             PitchType.SLIDER, PitchType.CHANGEUP]
    counts = confusion_counts(refs, types)
    assert counts[("FF", "FourSeam")] == 1
    assert counts[("FF", "Sinker")] == 1
    assert sum(v for (r, _), v in counts.items() if r == "FF") == 2
    table = format_confusion(counts)
    assert "FF" in table and "FourSeam" in table
    assert format_confusion({}) == "(no reference labels present)"


def test_write_labeled_csv(tmp_path):
    path = tmp_path / "labeled.csv"
    write_labeled_csv(path, [0, 1], [PitchType.FOUR_SEAM, PitchType.SLIDER],
                      [0.99, 0.75], ["FF", None])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row_id,cluster_index,pitch_type,posterior_max,reference_label"
    assert lines[1] == "0,0,FourSeam,0.99,FF"
    assert lines[2] == "1,1,Slider,0.75,"

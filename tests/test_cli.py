import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pitchmbc
from pitchmbc.archive import load_archive
from pitchmbc.cli import main
from pitchmbc.ingest import PitchDataset, PitchRecord, parse_pitch_csv, write_pitch_csv
from pitchmbc.labeling import PitchType
from pitchmbc.mixture import EmConfig
from pitchmbc.selection import SelectionConfig, select_k
from pitchmbc.synth import archetype_pitcher

FIT_SPEED_FLAGS = ["--restarts", "2", "--max-iter", "200", "--tol", "1e-7"]


@pytest.fixture(scope="module")
def pitcher_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth5.csv"
    ds, _, _ = archetype_pitcher(600, seed=42)
    write_pitch_csv(ds, path)
    return path


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory, pitcher_csv):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = main(["fit", "--input", str(pitcher_csv), "--kmin", "1", "--kmax", "7",
                 "--seed", "42", "--out", str(out)] + FIT_SPEED_FLAGS)
    assert code == 0
    return out


def test_fit_selects_five_archetypes(fitted_model, capsys):
    archive = load_archive(fitted_model)
    assert archive.fit.k == 5
    assert sorted(str(lb) for lb in archive.labels) == [
        "Changeup", "Curveball", "FourSeam", "Sinker", "Slider"]
    scores = fitted_model.parent / "model_scores.csv"
    assert scores.exists()
    lines = scores.read_text().strip().splitlines()
    assert lines[0] == "k,loglik,bic,penalty,bic_adj,converged"
    assert len(lines) == 8  # header + k in [1, 7]


def test_fit_deterministic_bytes(pitcher_csv, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["fit", "--input", str(pitcher_csv), "--kmin", "1", "--kmax", "5",
            "--seed", "7"] + FIT_SPEED_FLAGS
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fit_empty_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("pitcher_id,season,start_speed,back_spin,side_spin,pitch_type,intentional\n")
    out = tmp_path / "model.json"
    code = main(["fit", "--input", str(bad), "--out", str(out)])
    assert code == 4
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_fit_missing_input_is_io_error(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out",
                 str(tmp_path / "m.json")])
    assert code == 3


def test_fit_prints_summary(pitcher_csv, tmp_path, capsys):
    out = tmp_path / "model.json"
    main(["fit", "--input", str(pitcher_csv), "--kmin", "1", "--kmax", "6",
          "--seed", "42", "--out", str(out)] + FIT_SPEED_FLAGS)
    text = capsys.readouterr().out
    assert "selected k=5" in text
    assert "(anchor)" in text


def test_classify_self_consistent_with_training_fit(pitcher_csv, fitted_model, tmp_path):
    out = tmp_path / "labeled.csv"
    code = main(["classify", "--model", str(fitted_model), "--input", str(pitcher_csv),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    ds = parse_pitch_csv(pitcher_csv)
    assert len(lines) == ds.n + 1
    # classify must agree with the training responsibilities' argmax
    refit = select_k(ds, 1, 7, SelectionConfig(
        em=EmConfig(seed=42, restarts=2, max_iter=200, tol=1e-7)))
    expect = refit.best.assignments()
    got = np.array([int(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(got, expect)


def test_classify_confusion_rows_sum_to_reference_counts(pitcher_csv, fitted_model,
                                                         tmp_path, capsys):
    out = tmp_path / "labeled.csv"
    main(["classify", "--model", str(fitted_model), "--input", str(pitcher_csv),
          "--out", str(out)])
    text = capsys.readouterr().out
    assert "confusion vs reference labels:" in text
    ds = parse_pitch_csv(pitcher_csv)
    ref_counts = {}
    for rec in ds.records:
        ref_counts[rec.reference_label] = ref_counts.get(rec.reference_label, 0) + 1
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in ref_counts:
            assert int(parts[-1]) == ref_counts[parts[0]]


def test_classify_holdout_matches_generator(fitted_model, tmp_path):
    holdout, comp, names = archetype_pitcher(400, seed=99)
    holdout_path = tmp_path / "holdout.csv"
    write_pitch_csv(holdout, holdout_path)
    out = tmp_path / "labeled.csv"
    assert main(["classify", "--model", str(fitted_model), "--input",
                 str(holdout_path), "--out", str(out)]) == 0
    expected_type = {"four_seam": "FourSeam", "sinker": "Sinker",
                     "changeup": "Changeup", "slider": "Slider",
                     "curveball": "Curveball"}
    lines = out.read_text().strip().splitlines()[1:]
    hits = 0
    for line, j in zip(lines, comp):
        pitch_type = line.split(",")[2]
        hits += (pitch_type == expected_type[names[j]])
    assert hits / len(lines) >= 0.95


def test_classify_version_mismatch_exit_code(tmp_path, fitted_model, pitcher_csv, capsys):
    doc = json.loads(fitted_model.read_text())
    doc["format_version"] = 2
    future = tmp_path / "future.json"
    future.write_text(json.dumps(doc))
    code = main(["classify", "--model", str(future), "--input", str(pitcher_csv),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 6


def test_stability_command(pitcher_csv, tmp_path, capsys):
    out = tmp_path / "stability.csv"
    code = main(["stability", "--input", str(pitcher_csv), "--k", "5",
                 "--reps", "4", "--split", "0.8", "--seed", "42",
                 "--out", str(out)] + FIT_SPEED_FLAGS)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 + 1
    assert "mean_80=" in capsys.readouterr().out


def test_plot_command(pitcher_csv, fitted_model, tmp_path):
    outdir = tmp_path / "plots"
    code = main(["plot", "--model", str(fitted_model), "--input", str(pitcher_csv),
                 "--out", str(outdir)])
    assert code == 0
    scatter = (outdir / "scatter.csv").read_text().strip().splitlines()
    ds = parse_pitch_csv(pitcher_csv)
    assert len(scatter) == ds.n + 1  # nothing filtered in this file
    assert scatter[0] == "start_speed,back_spin,side_spin,pitch_type,color"
    colors = {line.split(",")[4] for line in scatter[1:]}
    assert "red" in colors and "black" in colors  # four-seam and curveball
    svg1 = (outdir / "projections.svg").read_bytes()
    assert main(["plot", "--model", str(fitted_model), "--input", str(pitcher_csv),
                 "--out", str(outdir)]) == 0
    assert (outdir / "projections.svg").read_bytes() == svg1


def test_plot_filters_intentional_balls(fitted_model, tmp_path):
    records = [PitchRecord("synth5", 90.0, 100.0, -40.0) for _ in range(10)]
    records += [PitchRecord("synth5", 60.0, 0.0, 0.0, is_intentional_ball=True)] * 3
    path = tmp_path / "with_ibb.csv"
    write_pitch_csv(PitchDataset(tuple(records)), path)
    outdir = tmp_path / "plots"
    assert main(["plot", "--model", str(fitted_model), "--input", str(path),
                 "--out", str(outdir)]) == 0
    lines = (outdir / "scatter.csv").read_text().strip().splitlines()
    assert len(lines) == 10 + 1


def test_swap_anchor_flag(pitcher_csv, tmp_path):
    out = tmp_path / "swapped.json"
    assert main(["fit", "--input", str(pitcher_csv), "--kmin", "5", "--kmax", "5",
                 "--seed", "42", "--swap-anchor", "2", "--out", str(out)]
                + FIT_SPEED_FLAGS) == 0
    archive = load_archive(out)
    assert archive.anchor_index == 2
    assert archive.labels[2] is PitchType.FOUR_SEAM


def test_column_remap_and_delimiter(tmp_path):
    ds, _, _ = archetype_pitcher(80, seed=2)
    rows = ["who|velo|bspin|sspin"]
    for rec in ds.records:
        rows.append(f"{rec.pitcher_id}|{rec.start_speed!r}|{rec.back_spin!r}|{rec.side_spin!r}")
    path = tmp_path / "weird.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "model.json"
    code = main(["fit", "--input", str(path), "--delimiter", "|",
                 "--columns", "pitcher_id=who,start_speed=velo,back_spin=bspin,side_spin=sspin",
                 "--kmin", "1", "--kmax", "3", "--seed", "1", "--out", str(out)]
                + FIT_SPEED_FLAGS)
    assert code == 0
    assert load_archive(out).fit.k >= 1


def test_config_file_supplies_defaults(tmp_path):
    ds, _, _ = archetype_pitcher(80, seed=3)
    data = tmp_path / "p.csv"
    write_pitch_csv(ds, data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "em": {"seed": 5, "restarts": 2, "max_iter": 150, "tol": 1e-7},
        "selection": {"criterion": "bicadj", "penalty_scale": "auto"},
        "labels": {"changeup_speed_gap": 7.5},
    }))
    out = tmp_path / "m.json"
    assert main(["fit", "--input", str(data), "--config", str(cfg),
                 "--kmin", "1", "--kmax", "3", "--out", str(out)]) == 0
    archive = load_archive(out)
    assert archive.fit.seed == 5
    assert archive.config["labels"]["changeup_speed_gap"] == 7.5


def test_config_file_snapshot_in_archive(tmp_path):
    ds, _, _ = archetype_pitcher(80, seed=3)
    data = tmp_path / "p.csv"
    write_pitch_csv(ds, data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema": {"intentional": "ibb"},
        "em": {"seed": 5, "restarts": 2, "max_iter": 150, "tol": 1e-7},
        "selection": {"criterion": "bic", "penalty_scale": 2.5},
        "labels": {"changeup_speed_gap": 7.5},
    }))
    out = tmp_path / "m.json"
    assert main(["fit", "--input", str(data), "--config", str(cfg), "--kmin", "1",
                 "--kmax", "3", "--ridge", "1e-5", "--sidespin-band", "50",
                 "--out", str(out)]) == 0
    assert load_archive(out).config == {
        "schema": {"pitcher_id": "pitcher_id", "season": "season",
                   "start_speed": "start_speed", "back_spin": "back_spin",
                   "side_spin": "side_spin", "reference_label": "pitch_type",
                   "intentional": "ibb", "delimiter": ","},
        "em": {"seed": 5, "restarts": 2, "max_iter": 150, "tol": 1e-7, "ridge": 1e-5},
        "selection": {"criterion": "bic", "penalty_scale": 2.5},
        "labels": {"changeup_speed_gap": 7.5, "sidespin_band": 50.0,
                   "cutter_speed_gap": 5.0, "knuckleball_spin_var_ratio": 4.0,
                   "curveball_backspin_max": 0.0},
    }


UNKNOWN_KEYS = [("em", "max_iters"), ("schema", "speed"), ("selection", "scale"),
                ("labels", "gap")]


@pytest.mark.parametrize("command,section,key",
                         [(c, s, k) for c in ("fit", "batch") for s, k in UNKNOWN_KEYS]
                         + [("stability", s, k) for s, k in UNKNOWN_KEYS[:2]])
def test_config_unknown_key_is_validation_error(tmp_path, capsys, command, section, key):
    ds, _, _ = archetype_pitcher(40, seed=3)
    data = tmp_path / "p.csv"
    write_pitch_csv(ds, data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {key: 5}}))
    out = {"fit": ["--out", str(tmp_path / "m.json")],
           "stability": ["--k", "2", "--out", str(tmp_path / "s.csv")],
           "batch": ["--outdir", str(tmp_path / "b")]}[command]
    code = main([command, "--input", str(data), "--config", str(cfg)] + out)
    assert code == 4
    err = capsys.readouterr().err
    assert f"config section '{section}'" in err and key in err
    assert not any(tmp_path.glob("m.json")) and not (tmp_path / "b").exists()


BAD_EM_VALUES = [("restarts", 0), ("restarts", -2), ("max_iter", 0), ("tol", -1.0),
                 ("tol", float("nan")), ("ridge", -1.0)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", BAD_EM_VALUES)
def test_bad_em_value_is_validation_error(pitcher_csv, tmp_path, capsys, key, value, source):
    if source == "flag":
        given = ["--" + key.replace("_", "-"), str(value)]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"em": {key: value}}))
        given = ["--config", str(cfg)]
    out = tmp_path / "m.json"
    code = main(["fit", "--input", str(pitcher_csv), "--out", str(out)] + given)
    assert code == 4
    assert f"error: {key} must be >= " in capsys.readouterr().err
    assert not out.exists()


def test_columns_unknown_field_is_validation_error(pitcher_csv, tmp_path, capsys):
    code = main(["fit", "--input", str(pitcher_csv), "--columns", "speed=velo",
                 "--out", str(tmp_path / "m.json")])
    assert code == 4
    assert "--columns: unknown key(s) speed" in capsys.readouterr().err


def test_pitcher_flag_and_batch(tmp_path):
    ds_a, _, _ = archetype_pitcher(150, seed=1, pitcher_id="abe")
    ds_b, _, _ = archetype_pitcher(150, seed=2, pitcher_id="zed")
    combined = PitchDataset(ds_a.records + ds_b.records)
    path = tmp_path / "two.csv"
    write_pitch_csv(combined, path)

    out = tmp_path / "abe.json"
    assert main(["fit", "--input", str(path), "--pitcher", "abe", "--kmin", "1",
                 "--kmax", "4", "--seed", "3", "--out", str(out)] + FIT_SPEED_FLAGS) == 0
    assert load_archive(out).pitcher_id == "abe"

    code = main(["fit", "--input", str(path), "--pitcher", "nobody",
                 "--out", str(tmp_path / "x.json")])
    assert code == 4

    outdir = tmp_path / "batch"
    code = main(["batch", "--input", str(path), "--outdir", str(outdir),
                 "--kmin", "1", "--kmax", "4", "--seed", "3", "--reps", "3"]
                + FIT_SPEED_FLAGS)
    assert code == 0
    summary = (outdir / "summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("pitcher_id,n,k,labels")
    assert [line.split(",")[0] for line in summary[1:]] == ["abe", "zed"]
    assert (outdir / "abe.json").exists() and (outdir / "zed.json").exists()
    assert (outdir / "abe_stability.csv").exists()
    hist = (outdir / "stability_agreements.csv").read_text().strip().splitlines()
    assert hist[0] == "pitcher_id,agreement_80,agreement_20"
    assert len(hist) == 3


def test_batch_stability_equals_stability_command(tmp_path):
    ds_a, _, _ = archetype_pitcher(150, seed=1, pitcher_id="abe")
    ds_b, _, _ = archetype_pitcher(200, seed=2, pitcher_id="zed")
    path = tmp_path / "two.csv"
    write_pitch_csv(PitchDataset(ds_a.records + ds_b.records), path)
    outdir = tmp_path / "batch"
    assert main(["batch", "--input", str(path), "--outdir", str(outdir), "--kmin", "1",
                 "--kmax", "5", "--seed", "3", "--reps", "4"] + FIT_SPEED_FLAGS) == 0
    for pitcher_id in ("abe", "zed"):
        k = load_archive(outdir / f"{pitcher_id}.json").fit.k
        single = tmp_path / f"{pitcher_id}_stability.csv"
        assert main(["stability", "--input", str(path), "--pitcher", pitcher_id,
                     "--k", str(k), "--reps", "4", "--seed", "3", "--out", str(single)]
                    + FIT_SPEED_FLAGS) == 0
        assert (outdir / f"{pitcher_id}_stability.csv").read_bytes() == single.read_bytes()


def test_multi_pitcher_without_flag_is_validation_error(tmp_path, capsys):
    ds_a, _, _ = archetype_pitcher(60, seed=1, pitcher_id="a")
    ds_b, _, _ = archetype_pitcher(60, seed=2, pitcher_id="b")
    path = tmp_path / "two.csv"
    write_pitch_csv(PitchDataset(ds_a.records + ds_b.records), path)
    code = main(["fit", "--input", str(path), "--out", str(tmp_path / "m.json")])
    assert code == 4


def test_module_entrypoint_subprocess(tmp_path, pitcher_csv):
    out = tmp_path / "model.json"
    # the child imports the same pitchmbc as this process, installed or not
    src = str(Path(pitchmbc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pitchmbc", "fit", "--input", str(pitcher_csv),
         "--kmin", "4", "--kmax", "6", "--seed", "42", "--out", str(out)]
        + FIT_SPEED_FLAGS,
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "selected k=5" in proc.stdout
    assert out.exists()

import argparse
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import child_env
from pitchmbc.archive import load_archive
from pitchmbc.errors import ArchiveError
from pitchmbc.cli import build_parser, main
from pitchmbc.ingest import (ColumnSchema, PitchDataset, PitchRecord, parse_pitch_csv,
                             write_pitch_csv)
from pitchmbc.labeling import LabelConfig, PitchType
from pitchmbc.mixture import EmConfig
from pitchmbc.selection import select_k
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
    refit = select_k(ds, 1, 7, em=EmConfig(seed=42, restarts=2, max_iter=200, tol=1e-7))
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


@pytest.mark.parametrize("top", ["[1, 2]", '"x"', "\xff\xfe{}"])
def test_classify_non_object_archive_is_archive_error(tmp_path, pitcher_csv, capsys, top):
    model = tmp_path / "model.json"
    model.write_bytes(top.encode("latin-1"))  # the last is not UTF-8
    code = main(["classify", "--model", str(model), "--input", str(pitcher_csv),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 6
    assert "not a model archive" in capsys.readouterr().err


@pytest.mark.parametrize("doctor", [
    lambda doc: doc.update(config=[1]),
    lambda doc: doc.update(config={"labels": [1]}),
    lambda doc: doc.update(config={"labels": {"bogus": 1}}),
    lambda doc: doc.update(config={"labels": {"sidespin_band": "x"}}),
    lambda doc: doc.update(config={"labels": {"sidespin_band": -1.0}}),
    lambda doc: doc.update(labels=doc["labels"][:1]),
    lambda doc: doc["fit"].update(k=doc["fit"]["k"] + 3),
    lambda doc: doc.update(anchor_index=99),
    lambda doc: doc["fit"].update(bogus=1),
    lambda doc: doc["score_table"][0].pop("bic_adj"),
], ids=["config-list", "labels-list", "labels-unknown-key", "labels-string-threshold",
        "labels-negative-threshold", "one-label", "k-past-components", "anchor-past-k",
        "fit-unknown-key", "score-without-bic-adj"])
def test_classify_inconsistent_archive_is_archive_error(tmp_path, fitted_model, pitcher_csv,
                                                        capsys, doctor):
    doc = json.loads(fitted_model.read_text())
    doctor(doc)
    model = tmp_path / "doctored.json"
    model.write_text(json.dumps(doc))
    code = main(["classify", "--model", str(model), "--input", str(pitcher_csv),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 6
    assert "malformed archive" in capsys.readouterr().err


@pytest.mark.parametrize("record,key", [("fit", "k"), ("fit", "log_likelihood"),
                                        ("fit", "iterations"), ("fit", "ll_decrease_max"),
                                        ("score_table", "bic_adj")])
def test_archive_whose_derived_copy_disagrees_is_archive_error(tmp_path, fitted_model,
                                                              pitcher_csv, capsys, record, key):
    doc = json.loads(fitted_model.read_text())
    # the last score row, so not only the first row is checked
    row = doc["fit"] if record == "fit" else doc["score_table"][-1]
    value = row[key]
    row[key] = value + 1 if isinstance(value, int) else math.nextafter(value, math.inf)
    model = tmp_path / "doctored.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match=f"{key} is"):
        load_archive(model)
    code = main(["classify", "--model", str(model), "--input", str(pitcher_csv),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 6
    assert f"{key} is {row[key]!r}, but the other fields give {value!r}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "plot"])
@pytest.mark.parametrize("record,key,doctor", [
    ("fit", "converged", lambda v: "no"),
    ("score_table", "k", lambda v: "one"),
    ("score_table", "converged", lambda v: "no"),
    ("fit", "seed", lambda v: v + 0.5),
    ("score_table", "k", lambda v: True),
    ("fit", "iterations", float),
    ("score_table", "bic", lambda v: str(v)),
], ids=["fit-converged-string", "score-k-string", "score-converged-string", "fit-seed-float",
        "score-k-bool", "fit-iterations-float", "score-bic-string"])
def test_archive_field_of_the_wrong_json_type_is_archive_error(tmp_path, fitted_model,
                                                               pitcher_csv, capsys, command,
                                                               record, key, doctor):
    doc = json.loads(fitted_model.read_text())
    row = doc["fit"] if record == "fit" else doc["score_table"][-1]
    row[key] = doctor(row[key])
    model = tmp_path / "doctored.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match=f"{key} is {re.escape(repr(row[key]))}, not a JSON"):
        load_archive(model)
    out = tmp_path / ("x.csv" if command == "classify" else "plot")
    code = main([command, "--model", str(model), "--input", str(pitcher_csv), "--out", str(out)])
    assert code == 6
    assert "malformed archive" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["classify", "plot"])
def test_classify_and_plot_name_the_config_sections_they_ignore(pitcher_csv, fitted_model,
                                                                tmp_path, capsys, command):
    def run(doc, name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / (name + ".csv" if command == "classify" else name)
        assert main([command, "--input", str(pitcher_csv), "--model", str(fitted_model),
                     "--config", str(cfg), "--out", str(out)]) == 0
        written = [out] if command == "classify" else sorted(out.iterdir())
        return [p.read_bytes() for p in written], capsys.readouterr().err

    plain, err = run({"schema": {"delimiter": ","}, "em": {}}, "plain")
    assert "ignores" not in err
    doc = {"labels": {"changeup_speed_gap": 30.0, "sidespin_band": 1.0}, "em": {"restarts": 3},
           "schema": {"delimiter": ","}}
    ignored, err = run(doc, "ignored")
    assert ignored == plain
    assert err.splitlines() == [f"note: {command} ignores config section(s) em, labels: "
                                "the model archive's settings apply"]


@pytest.mark.parametrize("command", ["fit", "batch"])
def test_unconverged_selected_k_is_reported_on_stderr(pitcher_csv, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {"fit": ["--out", str(out) + ".json"], "batch": ["--outdir", str(out), "--reps", "0"]}
    assert main([command, "--input", str(pitcher_csv), "--kmin", "3", "--kmax", "3",
                 "--restarts", "1", "--max-iter", "2"] + argv[command]) == 0
    err = capsys.readouterr().err
    assert "warning: pitcher synth5: the selected k=3 did not converge in 2 iterations" \
        in err.splitlines()
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert written and not any(b"warning" in p.read_bytes() for p in written)
    assert main([command, "--input", str(pitcher_csv), "--kmin", "1", "--kmax", "1",
                 "--restarts", "1"] + argv[command]) == 0
    assert "did not converge" not in capsys.readouterr().err


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


@pytest.mark.parametrize("source,delimiter", [("flag", ";;"), ("flag", ""), ("config", "ab")])
def test_delimiter_of_other_than_one_character_is_validation_error(pitcher_csv, tmp_path,
                                                                   capsys, source, delimiter):
    out = tmp_path / "m.json"
    code = main(["fit", "--input", str(pitcher_csv), "--out", str(out)]
                + _flag_or_config(tmp_path, source, "schema", "delimiter", delimiter))
    assert code == 4
    assert "error: delimiter must be one character" in capsys.readouterr().err
    assert not out.exists()


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
# config documents that are not a JSON object where one is expected
NOT_OBJECTS = [("top-list", [1, 2], "config top level: expected a JSON object"),
               ("em-number", {"em": 5}, "config section 'em': expected a JSON object"),
               ("em-list", {"em": ["restarts"]}, "config section 'em': expected a JSON object")]


COMMANDS = ["fit", "classify", "plot", "stability", "batch"]


def _command_args(command, model, out):
    """The arguments besides --input that ``command`` needs, writing only under ``out``."""
    return {"fit": ["--out", f"{out}.json"],
            "classify": ["--model", str(model), "--out", f"{out}.csv"],
            "plot": ["--model", str(model), "--out", str(out)],
            "stability": ["--k", "2", "--out", f"{out}.csv"],
            "batch": ["--outdir", str(out)]}[command]


def _bad_config_cases(command):
    return ([pytest.param(command, {s: {k: 5}}, [f"config section '{s}'", k],
                          id=f"{command}-{s}-{k}") for s, k in UNKNOWN_KEYS]
            + [pytest.param(command, doc, [message], id=f"{command}-{name}")
               for name, doc, message in NOT_OBJECTS]
            # a misspelled section name, which would otherwise leave the defaults on
            + [pytest.param(command, {"emm": {"restarts": 0}},
                            ["config top level: unknown key(s) emm",
                             "(known: schema, em, selection, labels)"],
                            id=f"{command}-unknown-section")]
            # a bad value in a section the command itself does not use
            + [pytest.param(command, {"selection": {"penalty_scale": "big"}},
                            ["error: config selection.penalty_scale: expected 'auto' or a "
                             "number, got 'big'"],
                            id=f"{command}-bad-penalty-scale")])


@pytest.mark.parametrize("command,doc,messages",
                         [case for command in COMMANDS for case in _bad_config_cases(command)])
def test_config_unknown_key_is_validation_error(tmp_path, capsys, fitted_model, command, doc,
                                                messages):
    ds, _, _ = archetype_pitcher(40, seed=3)
    data = tmp_path / "p.csv"
    write_pitch_csv(ds, data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = _command_args(command, fitted_model, tmp_path / "out")
    code = main([command, "--input", str(data), "--config", str(cfg)] + out)
    assert code == 4
    err = capsys.readouterr().err
    assert all(message in err for message in messages)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "p.csv"]


def test_archive_config_holds_every_config_section(fitted_model):
    assert sorted(load_archive(fitted_model).config) == sorted(["schema", "em", "selection",
                                                                "labels"])


@pytest.mark.parametrize("command", ["fit", "batch"])
def test_bad_penalty_scale_flag_names_the_flag(pitcher_csv, tmp_path, capsys, command):
    code = main([command, "--input", str(pitcher_csv), "--penalty-scale", "big"]
                + _command_args(command, None, tmp_path / "out"))
    assert code == 4
    assert "error: --penalty-scale: expected 'auto' or a number, got 'big'" \
        in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", COMMANDS)
def test_oversized_cell_is_validation_error(fitted_model, tmp_path, capsys, command):
    path = tmp_path / "huge_cell.csv"
    write_pitch_csv(archetype_pitcher(120, seed=3)[0], path)
    lines = path.read_text().splitlines()
    lines[2] = "x" * 140_000 + lines[2]
    path.write_text("\n".join(lines) + "\n")
    code = main([command, "--input", str(path)]
                + _command_args(command, fitted_model, tmp_path / "out"))
    assert code == 4
    assert capsys.readouterr().err.startswith("error: row 3: field larger than field limit")
    assert [p.name for p in tmp_path.iterdir()] == ["huge_cell.csv"]


def _flag_or_config(tmp_path, source, section, key, value):
    """Command-line arguments that set ``section.key`` by a flag or a config file."""
    if source == "flag":
        return ["--" + key.replace("_", "-"), str(value)]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {key: value}}))  # json writes NaN/Infinity
    return ["--config", str(cfg)]


BAD_EM_VALUES = [("seed", -1), ("restarts", 0), ("restarts", -2), ("max_iter", 0),
                 ("tol", -1.0), ("tol", float("nan")), ("ridge", -1.0)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", BAD_EM_VALUES)
def test_bad_em_value_is_validation_error(pitcher_csv, tmp_path, capsys, key, value, source):
    out = tmp_path / "m.json"
    code = main(["fit", "--input", str(pitcher_csv), "--out", str(out)]
                + _flag_or_config(tmp_path, source, "em", key, value))
    assert code == 4
    assert f"error: {key} must be >= " in capsys.readouterr().err
    assert not out.exists()


BAD_SCALE_AND_LABEL_VALUES = (
    [("selection", "penalty_scale", v, "penalty_scale must be finite and >= 0")
     for v in (float("nan"), float("inf"), -1.0)]
    + [("labels", f.name, v, f"{f.name} must be finite")
       for f in fields(LabelConfig) for v in (float("nan"), float("inf"))])


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("section,key,value,message", BAD_SCALE_AND_LABEL_VALUES)
def test_bad_scale_or_label_value_is_validation_error(pitcher_csv, tmp_path, capsys,
                                                      section, key, value, message, source):
    out = tmp_path / "m.json"
    code = main(["fit", "--input", str(pitcher_csv), "--out", str(out)]
                + _flag_or_config(tmp_path, source, section, key, value))
    assert code == 4
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_batch_negative_reps_is_validation_error(pitcher_csv, tmp_path, capsys):
    outdir = tmp_path / "b"
    code = main(["batch", "--input", str(pitcher_csv), "--outdir", str(outdir), "--reps", "-3"])
    assert code == 4
    assert "error: --reps must be >= 0" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("split", ["1.5", "0", "1", "-0.2", "nan"])
def test_batch_split_outside_unit_interval_fails_before_any_fit(pitcher_csv, tmp_path,
                                                                 capsys, split):
    outdir = tmp_path / "b"
    code = main(["batch", "--input", str(pitcher_csv), "--outdir", str(outdir),
                 "--split", split])
    assert code == 4
    assert "error: --split must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("kmin,kmax", [("0", "9"), ("4", "3"), ("-1", "-1")])
def test_batch_k_range_is_checked_before_any_fit(pitcher_csv, tmp_path, capsys, kmin, kmax):
    outdir = tmp_path / "b"
    code = main(["batch", "--input", str(pitcher_csv), "--outdir", str(outdir),
                 "--kmin", kmin, "--kmax", kmax])
    assert code == 4
    assert f"error: need 1 <= --kmin <= --kmax, got [{kmin}, {kmax}]" in capsys.readouterr().err
    assert not outdir.exists()


MISTYPED_CONFIG = [("em", "restarts", "8"), ("em", "restarts", 2.5), ("em", "seed", 1.5),
                   ("em", "restarts", None), ("em", "tol", True),
                   ("labels", "sidespin_band", "60"), ("selection", "penalty_scale", True),
                   ("schema", "delimiter", 5)]


@pytest.mark.parametrize("section,key,value", MISTYPED_CONFIG)
def test_config_value_of_wrong_type_is_validation_error(pitcher_csv, tmp_path, capsys,
                                                        section, key, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "m.json"
    code = main(["fit", "--input", str(pitcher_csv), "--config", str(cfg), "--kmax", "3",
                 "--out", str(out)])
    assert code == 4
    assert f"error: config {section}.{key}: expected " in capsys.readouterr().err
    assert not out.exists()


def test_columns_unknown_field_is_validation_error(pitcher_csv, tmp_path, capsys):
    code = main(["fit", "--input", str(pitcher_csv), "--columns", "speed=velo",
                 "--out", str(tmp_path / "m.json")])
    assert code == 4
    assert "--columns: unknown key(s) speed" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_columns_does_not_set_the_delimiter(fitted_model, tmp_path, capsys, command):
    path = tmp_path / "semicolons.csv"
    write_pitch_csv(archetype_pitcher(120, seed=3)[0], path, ColumnSchema(delimiter=";"))
    code = main([command, "--input", str(path), "--columns", "delimiter=;"]
                + _command_args(command, fitted_model, tmp_path / "out"))
    assert code == 4
    assert "error: --columns: unknown key(s) delimiter (known: pitcher_id, " \
        in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["semicolons.csv"]


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

    outdir = tmp_path / "abe_only"
    assert main(["batch", "--input", str(path), "--pitcher", "abe", "--outdir", str(outdir),
                 "--kmin", "1", "--kmax", "2", "--reps", "0"] + FIT_SPEED_FLAGS) == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "abe.json", "abe_scores.csv", "stability_agreements.csv", "summary.csv"]
    code = main(["batch", "--input", str(path), "--pitcher", "nobody",
                 "--outdir", str(tmp_path / "none")])
    assert code == 4
    assert not (tmp_path / "none").exists()


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
    proc = subprocess.run(
        [sys.executable, "-m", "pitchmbc", "fit", "--input", str(pitcher_csv),
         "--kmin", "4", "--kmax", "6", "--seed", "42", "--out", str(out)]
        + FIT_SPEED_FLAGS,
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "selected k=5" in proc.stdout
    assert out.exists()


def test_batch_runs_without_scipy(tmp_path):
    ds_a, _, _ = archetype_pitcher(150, seed=1, pitcher_id="abe")
    ds_b, _, _ = archetype_pitcher(150, seed=2, pitcher_id="zed")
    path = tmp_path / "two.csv"
    write_pitch_csv(PitchDataset(ds_a.records + ds_b.records), path)
    argv = ["batch", "--input", str(path), "--outdir", str(tmp_path / "batch"), "--kmin", "1",
            "--kmax", "4", "--seed", "3", "--reps", "2"] + FIT_SPEED_FLAGS
    # a None entry makes any scipy import fail; batch selects, labels, archives
    # and aligns stability refits, so a pass means none of them needs scipy
    script = ("import contextlib, io, json, sys\n"
              "sys.modules['scipy'] = None\n"
              "from pitchmbc.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({argv!r})\n"
              "print(json.dumps([code, sorted(m for m, mod in sys.modules.items() if mod is not None\n"
              "                               and m.split('.')[0] == 'scipy')]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


_INPUT_OPTIONS = {"-h", "--help", "--input", "--config", "--delimiter", "--columns", "--pitcher"}
_EM_OPTIONS = {"--seed", "--restarts", "--max-iter", "--tol", "--ridge"}
_SELECTION_OPTIONS = {"--kmin", "--kmax", "--criterion", "--penalty-scale"}
_LABEL_OPTIONS = {"--sidespin-band", "--changeup-speed-gap", "--cutter-speed-gap",
                  "--curveball-backspin-max", "--knuckleball-spin-var-ratio", "--swap-anchor"}


def test_every_option_is_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    subparsers = next(a for a in build_parser()._actions if a.choices)
    options = {opt for sub in subparsers.choices.values() for action in sub._actions
               if not isinstance(action, argparse._HelpAction) for opt in action.option_strings}
    missing = [opt for opt in sorted(options)
               if not re.search(re.escape(opt) + r"(?![\w-])", readme)]
    assert not missing


def test_subcommand_options_are_pinned():
    """Every option of every subcommand; a new option must be added here too."""
    subparsers = next(a for a in build_parser()._actions if a.choices)
    options = {name: {opt for action in sub._actions for opt in action.option_strings}
               for name, sub in subparsers.choices.items()}
    assert options == {
        "fit": _INPUT_OPTIONS | _EM_OPTIONS | _SELECTION_OPTIONS | _LABEL_OPTIONS
        | {"--out", "--scores-out"},
        "classify": _INPUT_OPTIONS | {"--model", "--out"},
        "stability": _INPUT_OPTIONS | _EM_OPTIONS | {"--k", "--split", "--reps", "--out"},
        "plot": _INPUT_OPTIONS | {"--model", "--out"},
        "batch": _INPUT_OPTIONS | _EM_OPTIONS | _SELECTION_OPTIONS | _LABEL_OPTIONS
        | {"--outdir", "--split", "--reps"},
    }


@pytest.mark.parametrize("command", ["fit", "classify", "plot", "stability", "batch"])
def test_rejected_rows_are_reported_on_stderr(command, fitted_model, tmp_path, capsys):
    path = tmp_path / "one_bad_row.csv"
    write_pitch_csv(archetype_pitcher(120, seed=3)[0], path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace(lines[5].split(",")[2], "fast", 1)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {"fit": ["--kmax", "2", "--out", str(out) + ".json"],
            "classify": ["--model", str(fitted_model), "--out", str(out) + ".csv"],
            "plot": ["--model", str(fitted_model), "--out", str(out)],
            "stability": ["--k", "2", "--reps", "2", "--out", str(out) + ".csv"],
            "batch": ["--kmax", "2", "--reps", "2", "--outdir", str(out)]}[command]
    fast = [] if command in ("classify", "plot") else ["--restarts", "1"]
    assert main([command, "--input", str(path)] + argv + fast) == 0
    err = capsys.readouterr().err
    assert "rejected 1 malformed rows; first row 6: could not convert string to float: 'fast'" \
        in err.splitlines()
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != path]
    assert written and not any(b"fast" in p.read_bytes() for p in written)

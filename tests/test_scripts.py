"""Each experiment script runs end to end, in-process, on tiny arguments."""

import json
import re
import runpy
import shutil
import sys
from pathlib import Path

import pytest

from pitchmbc.cli import main
from pitchmbc.ingest import write_pitch_csv
from pitchmbc.mixture import EmConfig, fit_em
from pitchmbc.synth import ARCHETYPE_TYPES, archetype_pitcher

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == [
        "ab_timing.py", "accuracy_map.py", "make_synthetic_data.py", "penalty_sweep.py",
        "reference_optima.py", "stability_histograms.py"]


def test_make_synthetic_data_then_histograms_over_batch(monkeypatch, tmp_path, capsys):
    data = tmp_path / "demo"
    run_script(monkeypatch, "make_synthetic_data.py", "--outdir", str(data), "--n", "150",
               "--cohort", "2")
    assert {p.name for p in data.iterdir()} == {
        "demo_pitcher.csv", "demo_evolution.csv", "demo_cohort.csv"}

    outdir = tmp_path / "batch"
    assert main(["batch", "--input", str(data / "demo_cohort.csv"), "--outdir", str(outdir),
                 "--kmin", "1", "--kmax", "4", "--reps", "2", "--restarts", "2",
                 "--max-iter", "100"]) == 0
    capsys.readouterr()
    run_script(monkeypatch, "stability_histograms.py", str(outdir / "stability_agreements.csv"))
    out = capsys.readouterr().out
    assert "80% subset agreement (n=2," in out
    assert "20% subset agreement (n=2," in out
    assert "pitchers with >= 80% agreement:" in out


def test_histograms_reject_empty_agreements(monkeypatch, tmp_path):
    empty = tmp_path / "stability_agreements.csv"
    empty.write_text("pitcher_id,agreement_80,agreement_20\n")
    with pytest.raises(SystemExit, match="no pitcher rows"):
        run_script(monkeypatch, "stability_histograms.py", str(empty))


@pytest.mark.parametrize("dataset", ["thinsplit", "pitcher"])
def test_penalty_sweep(monkeypatch, capsys, dataset):
    run_script(monkeypatch, "penalty_sweep.py", "--dataset", dataset, "--n", "60",
               "--kmax", "3")
    out = capsys.readouterr().out
    assert "selected k" in out and "(= ln n)" in out


@pytest.mark.parametrize("args,message", [
    (["--kmax", "0"], re.escape("need 1 <= k_min <= k_max, got [1, 0]")),
    (["--dataset", "pitcher", "--n", "3"], "n=3 cannot support k_max=6"),
    (["--n", "0"], "--n must be >= 1"),
], ids=["kmax-0", "pitcher-n-3", "n-0"])
def test_penalty_sweep_rejects_bad_arguments(monkeypatch, args, message):
    with pytest.raises(SystemExit, match=message):
        run_script(monkeypatch, "penalty_sweep.py", *args)


def test_reference_optima_writes_then_counts(monkeypatch, tmp_path, capsys):
    out = tmp_path / "optima.json"
    run_script(monkeypatch, "reference_optima.py", "--cases", "2", "--runs", "2",
               "--out", str(out))
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(doc) == ["cases", "platform", "runs"] and doc["runs"] == 2
    assert [(c["n"], c["seed"], c["spread"], c["k"]) for c in doc["cases"]] == [
        (120, 3, 1.0, 1), (120, 3, 1.0, 2)]
    assert all(c["loglik"] < 0 for c in doc["cases"])
    capsys.readouterr()
    run_script(monkeypatch, "reference_optima.py", "--count", "--out", str(out))
    out_lines = capsys.readouterr().out.splitlines()
    # k=1 has a single optimum, which every fit reaches
    assert re.fullmatch(r"2 cases: [12] within 1e-06 relative of the reference, "
                        r"[01] above it, [01] below it", out_lines[0])
    assert out_lines[1].startswith("misses by k:")


def test_accuracy_map_one_cell(monkeypatch, capsys):
    run_script(monkeypatch, "accuracy_map.py", "--n", "150", "--spread", "1.0", "--runs", "2")
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["| spread | n=150 |", "| --- | --- |", "| 1.0 | 1.000, 1.000 |",
                         "selected k, n=150 spread 1.0: 5 5"]
    assert lines[4].startswith("CPU ")


@pytest.mark.parametrize("args,message", [
    (["--n", "30", "--runs", "1"], "n=30 cannot support k_max=9"),
    (["--n", "0", "--runs", "1"], "--runs and --n must be >= 1"),
], ids=["n-30", "n-0"])
def test_accuracy_map_rejects_bad_arguments(monkeypatch, args, message):
    with pytest.raises(SystemExit, match=message):
        run_script(monkeypatch, "accuracy_map.py", *args)


def test_accuracy_map_takes_the_bic_winner_from_the_scored_fits():
    """Where BIC and BIC-adj pick different k, the plain-BIC accuracy is that
    of a fresh fit at the BIC k, as when the script refitted it."""
    acc = runpy.run_path(str(SCRIPTS / "accuracy_map.py"), run_name="accuracy")
    disagree = 0
    for i in range(10):
        adj_k, adj_acc, bic_k, bic_acc = acc["run"](150, 1.6, i)
        if bic_k == adj_k:
            assert bic_acc == adj_acc
            continue
        disagree += 1
        data, comp, names = archetype_pitcher(150, seed=100 + i, spread=1.6)
        X = data.to_matrix()
        truth = [ARCHETYPE_TYPES[names[j]] for j in comp]
        assert bic_acc == acc["accuracy"](fit_em(X, bic_k, EmConfig(seed=i)), X, truth)
    assert disagree > 0


def _ab_timing(monkeypatch, tree_b, data, rounds):
    run_script(monkeypatch, "ab_timing.py", str(ROOT), str(tree_b), "--rounds", str(rounds),
               "--cmd", f"fit --input {data} --kmax 2 --restarts 1 --out {{out}}/m.json",
               "--cmd", f"stability --input {data} --k 2 --reps 2 --restarts 1 "
                        "--out {out}/s.csv")


def test_ab_timing_same_tree_on_both_sides(monkeypatch, tmp_path, capsys):
    data = tmp_path / "p.csv"
    write_pitch_csv(archetype_pitcher(60, seed=1)[0], data)
    _ab_timing(monkeypatch, ROOT, data, 2)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["round 1 (A first)", "round 2 (B first)"]
    assert lines[2].startswith("B faster in ") and "/2 rounds; median CPU A " in lines[2]
    for side, line in zip("AB", lines[3:5]):
        assert re.fullmatch(rf"tracemalloc peak {side}: fit [0-9.]+ MB; stability [0-9.]+ MB",
                            line)
    for side, line in zip("AB", lines[5:7]):
        assert re.fullmatch(rf"ru_maxrss growth {side}: fit [0-9.]+ MB; stability [0-9.]+ MB",
                            line)
    assert lines[7:] == ["outputs byte-identical in every round"]


def test_ab_timing_names_the_files_that_differ(monkeypatch, tmp_path, capsys):
    data = tmp_path / "p.csv"
    write_pitch_csv(archetype_pitcher(60, seed=1)[0], data)
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "pitchmbc", tree / "src" / "pitchmbc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    selection = tree / "src" / "pitchmbc" / "selection.py"
    selection.write_text(selection.read_text().replace('"bic_adj", "converged"',
                                                       '"bic_adj", "converged?"'))
    with pytest.raises(SystemExit, match="outputs differ between the trees"):
        _ab_timing(monkeypatch, tree, data, 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "warm-up: exit codes A [0, 0] B [0, 0]; files that differ: m_scores.csv",
        "round 1: exit codes A [0, 0] B [0, 0]; files that differ: m_scores.csv"]
    # the timings are printed before the exit, so they can still be quoted
    assert lines[2].startswith("round 1 (A first): A ") and " A/B " in lines[2]
    assert lines[3].startswith("B faster in ") and "median A/B " in lines[3]

"""Each experiment script runs end to end, in-process, on tiny arguments."""

import runpy
import sys
from pathlib import Path

import pytest

from pitchmbc.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == [
        "make_synthetic_data.py", "penalty_sweep.py", "stability_histograms.py"]


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

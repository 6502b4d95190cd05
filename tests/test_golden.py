"""Golden outputs: a fixed command set whose output files must not move.

The commands (``run_commands``) cover every file format the pipeline
writes: ``fit`` on ``archetype_pitcher(400, seed=11)``, ``stability --k 5
--reps 5``, ``classify`` and ``plot`` on the same file, ``classify`` of a
messy file (``messy_text``), and ``batch --reps 4`` on a team file of four
pitchers p0-p3 (n 150/220/40/7, seeds 100-103; p2 and p3 end in error rows).
``tests/golden.json`` holds two layers of expectations:

- bytes: the sha256 of every output file. Low bits depend on the numpy
  version, the BLAS, and the SIMD paths numpy dispatches to on this CPU,
  so this layer is compared only where all three match the recorded ones.
- meaning: selected k, labels, converged flags, score-table
  log-likelihoods, stability agreements and their means, per-pitch cluster
  indices and types, and each archived component's mean, stddev and
  weight, always compared within rel 1e-9. The SVG has bytes only.

A change meant to move outputs rewrites the expected file with

    PYTHONPATH=src python tests/test_golden.py

and states the old and new hashes, and whether the meaning layer moved and
why, in CHANGES.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pitchmbc.cli import main
from pitchmbc.ingest import PitchDataset, serialize_pitch_csv, write_pitch_csv
from pitchmbc.synth import archetype_pitcher

EXPECTED = Path(__file__).with_name("golden.json")
REL = 1e-9
# CSV columns that carry the meaning of a table; the rest are derived or diagnostic
MEANING_COLUMNS = ("k", "labels", "loglik", "converged", "cluster_index", "pitch_type",
                   "agreement_80", "agreement_20", "mean_80", "mean_20", "status")


def platform() -> dict:
    """What the output bytes depend on besides the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def messy_text() -> str:
    """A 300-pitch file with what the parser skips or rejects: malformed
    cells of five kinds, intentional balls, blank lines, a row of empty
    cells, a short row, padded cells and some "\\r\\n" line ends."""
    lines = serialize_pitch_csv(archetype_pitcher(300, seed=12, pitcher_id="m")[0]).split("\n")
    out = [lines[0]]
    for i, line in enumerate(lines[1:-1], start=1):
        cells = line.split(",")
        if i % 23 == 0:
            cells[2] = ""                       # missing start_speed
        elif i % 29 == 0:
            cells[3] = "n/a"                    # unparseable back_spin
        elif i % 31 == 0:
            cells[2] = "250"                    # speed outside (0, 200)
        elif i % 37 == 0:
            cells[4] = "nan"                    # non-finite side_spin
        elif i % 41 == 0:
            cells[2], cells[6] = "250", "maybe"  # the flag is reported, not the speed
        elif i % 13 == 0:
            cells[6] = "1"                      # intentional ball
        elif i % 17 == 0:
            cells[6] = " yes "
        elif i % 19 == 0:
            cells = [f" {cell} " for cell in cells]
        out.append(",".join(cells) + ("\r" if i % 7 == 0 else ""))
        if i % 50 == 0:
            out += ["", ",,,,,,", "m,2010"]
    return "\n".join(out) + "\n"


def run_commands(inputs: Path, out: Path) -> None:
    """Write the golden inputs under ``inputs`` and every output under ``out``."""
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    pitcher = inputs / "pitcher.csv"
    write_pitch_csv(archetype_pitcher(400, seed=11)[0], pitcher)
    team = inputs / "team.csv"
    records = []
    for i, n in enumerate((150, 220, 40, 7)):
        records += archetype_pitcher(n, seed=100 + i, pitcher_id=f"p{i}")[0].records
    write_pitch_csv(PitchDataset(records), team)
    messy = inputs / "messy.csv"
    messy.write_bytes(messy_text().encode("utf-8"))
    for argv in (["fit", "--input", str(pitcher), "--out", str(out / "fit.json")],
                 ["stability", "--input", str(pitcher), "--k", "5", "--reps", "5",
                  "--out", str(out / "stability.csv")],
                 ["classify", "--input", str(pitcher), "--model", str(out / "fit.json"),
                  "--out", str(out / "classify.csv")],
                 ["plot", "--input", str(pitcher), "--model", str(out / "fit.json"),
                  "--out", str(out / "plot")],
                 ["classify", "--input", str(messy), "--model", str(out / "fit.json"),
                  "--out", str(out / "classify_messy.csv")],
                 ["batch", "--input", str(team), "--outdir", str(out / "batch"),
                  "--reps", "4"]):
        assert main(argv) == 0, argv


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _meaning(path: Path) -> dict:
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        fit = doc["fit"]
        return {"k": fit["k"], "labels": doc["labels"], "converged": fit["converged"],
                "components": [{key: c[key] for key in ("mean", "stddev", "weight")}
                               for c in fit["components"]]}
    if path.suffix != ".csv":
        return {}
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {col: [_cell(row[col]) for row in rows]
            for col in MEANING_COLUMNS if rows and col in rows[0]}


def observe(out: Path) -> dict:
    """sha256 and meaning of every file under ``out``, keyed by relative path."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    names = [p.relative_to(out).as_posix() for p in files]
    return {"sha256": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for name, p in zip(names, files)},
            "meaning": {name: _meaning(p) for name, p in zip(names, files)}}


def _assert_close(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float) and math.isclose(actual, expected, rel_tol=REL), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected and type(actual) is type(expected), \
            f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def observed(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("golden")
    run_commands(root / "inputs", root / "out")
    return observe(root / "out")


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_golden_meaning(observed, expected):
    _assert_close(observed["meaning"], expected["meaning"], "outputs")


def test_golden_bytes(observed, expected):
    here = platform()
    if here != expected["platform"]:
        pytest.skip(f"outputs recorded with {expected['platform']}, running {here}")
    assert observed["sha256"] == expected["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp) / "inputs", Path(tmp) / "out")
        doc = {"platform": platform(), **observe(Path(tmp) / "out")}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")

"""Seeded input generation for the pitchmbc benchmark.

Run as its own process, before any timing, so that the workload process
never holds the generator's data:

    python3 perfbench/gen.py --workload fit-large --seed 3 --out DIR [--size tiny]

It writes the input CSVs into DIR with ``pitchmbc.synth`` and
``write_pitch_csv`` only, plus ``manifest.json``: the operation list, the
generator's truth per pitcher (selected k and label multiset) and the input
sizes. The same (workload, seed, size) always gives the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pitchmbc.ingest import PitchDataset, write_pitch_csv  # noqa: E402
from pitchmbc.synth import archetype_pitcher, curveball_evolution_pitcher  # noqa: E402

# Generator archetype -> the pitch-type name the rule cascade should give it.
TRUE_LABEL = {
    "four_seam": "FourSeam",
    "sinker": "Sinker",
    "changeup": "Changeup",
    "slider": "Slider",
    "curveball": "Curveball",
    "curveball_early": "Curveball",
    "curveball_late": "Curveball",
}

# Sizes per workload. "tiny" is for the self-test only.
SIZES = {
    "full": {
        "fit-large": {"pitchers": 20, "n": 1500},
        # one team file per operation; pitcher j of every team has n = team_n[j]
        "cohort-batch": {"teams": 6, "team_n": (150, 400, 750, 1200)},
        "classify-season": {"train_n": 1000, "files": 10, "rows": 20000},
    },
    "tiny": {
        "fit-large": {"pitchers": 2, "n": 200},
        "cohort-batch": {"teams": 2, "team_n": (150, 200)},
        "classify-season": {"train_n": 300, "files": 2, "rows": 1500},
    },
}
WARMUP_N = 150
MALFORMED_FRAC = 0.01
INTENTIONAL_FRAC = 0.02
# Each workload draws its generator seeds from its own range.
SEED_BASE = {"fit-large": 1_000_000, "cohort-batch": 2_000_000, "classify-season": 3_000_000}


def _synth_seed(workload: str, seed: int, index: int) -> int:
    return SEED_BASE[workload] + 1000 * seed + index


def _truth(names, comp) -> dict:
    present = sorted({int(c) for c in comp})
    labels = sorted(TRUE_LABEL[names[j]] for j in present)
    return {"k": len(present), "labels": labels}


def _pitcher_entry(pitcher_id: str, dataset: PitchDataset, comp, names) -> dict:
    return {"id": pitcher_id, "n": dataset.n, **_truth(names, comp)}


def gen_fit_large(out: Path, workload: str, seed: int, size: dict) -> dict:
    ops = []
    for i in range(size["pitchers"]):
        pid = f"fl{seed}-{i:02d}"
        ds, comp, names = archetype_pitcher(size["n"], seed=_synth_seed(workload, seed, i),
                                            pitcher_id=pid)
        path = out / f"{pid}.csv"
        write_pitch_csv(ds, path)
        ops.append({"files": [path.name], "rows": ds.n, "filtered_rows": ds.n,
                    "pitchers": [_pitcher_entry(pid, ds, comp, names)]})
    warm, comp, names = archetype_pitcher(WARMUP_N, seed=_synth_seed(workload, seed, 999),
                                          pitcher_id="warmup")
    write_pitch_csv(warm, out / "warmup.csv")
    return {"ops": ops, "warmup": {"files": ["warmup.csv"], "rows": warm.n,
                                   "pitchers": [_pitcher_entry("warmup", warm, comp, names)]}}


def _cohort_pitcher(workload: str, seed: int, team: int, j: int, n: int):
    """Pitcher j of a team: spread 1.0 in even slots and 1.3 in odd ones, so
    every team has the same make-up; team 0's largest slot holds the
    curveball-evolution pitcher (true k=3)."""
    pid = f"cb{seed}-t{team}-p{j}"
    synth_seed = _synth_seed(workload, seed, 10 * team + j)
    if team == 0 and j == 3:
        ds, comp, names = curveball_evolution_pitcher(n, seed=synth_seed, pitcher_id=pid)
        return ds, comp, names, "evolution"
    spread = 1.3 if j % 2 else 1.0
    ds, comp, names = archetype_pitcher(n, seed=synth_seed, pitcher_id=pid, spread=spread)
    return ds, comp, names, f"spread {spread}"


def gen_cohort_batch(out: Path, workload: str, seed: int, size: dict) -> dict:
    ops = []
    for team in range(size["teams"]):
        records, pitchers = [], []
        for j, n in enumerate(size["team_n"]):
            ds, comp, names, kind = _cohort_pitcher(workload, seed, team, j, n)
            records.extend(ds.records)
            pitchers.append({**_pitcher_entry(ds.single_pitcher_id(), ds, comp, names),
                             "kind": kind})
        path = out / f"team{team}.csv"
        write_pitch_csv(PitchDataset(tuple(records)), path)
        ops.append({"files": [path.name], "rows": len(records), "filtered_rows": len(records),
                    "pitchers": pitchers})
    warm_records, warm_pitchers = [], []
    for j in range(2):
        ds, comp, names = archetype_pitcher(WARMUP_N, seed=_synth_seed(workload, seed, 990 + j),
                                            pitcher_id=f"warmup{j}")
        warm_records.extend(ds.records)
        warm_pitchers.append(_pitcher_entry(f"warmup{j}", ds, comp, names))
    write_pitch_csv(PitchDataset(tuple(warm_records)), out / "warmup.csv")
    return {"ops": ops, "warmup": {"files": ["warmup.csv"], "rows": len(warm_records),
                                   "pitchers": warm_pitchers}}


def _season_file(path: Path, rows: int, synth_seed: int, season: str) -> dict:
    """One season of the modelled pitcher, with intentional balls marked and
    about 1% of the written rows corrupted so the reject path runs."""
    ds, _, _ = archetype_pitcher(rows, seed=synth_seed, pitcher_id="season-p")
    rng = np.random.default_rng(synth_seed)
    intentional = rng.random(rows) < INTENTIONAL_FRAC
    records = tuple(
        dataclasses.replace(rec, season=season, is_intentional_ball=bool(flag))
        for rec, flag in zip(ds.records, intentional)
    )
    write_pitch_csv(PitchDataset(records), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    # header is line 0; corrupt data rows in place, one defect kind per row
    bad = np.flatnonzero(rng.random(rows) < MALFORMED_FRAC)
    defects = (
        lambda cells: cells.__setitem__(2, ""),          # missing start_speed
        lambda cells: cells.__setitem__(3, "n/a"),       # unparseable back_spin
        lambda cells: cells.__setitem__(2, "0.0"),       # speed outside (0, 200)
        lambda cells: cells.__setitem__(4, "nan"),       # non-finite side_spin
        lambda cells: cells.__setitem__(6, "maybe"),     # bad intentional flag
    )
    for count, row in enumerate(bad):
        cells = lines[row + 1].split(",")
        defects[count % len(defects)](cells)
        lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    malformed = set(int(r) for r in bad)
    n_intentional = sum(1 for r in range(rows) if intentional[r] and r not in malformed)
    return {"files": [path.name], "rows": rows, "malformed": len(malformed),
            "intentional": n_intentional,
            "filtered_rows": rows - len(malformed) - n_intentional}


def gen_classify_season(out: Path, workload: str, seed: int, size: dict) -> dict:
    # The model's training pitcher does not depend on the seed: its fit is
    # part of the measured set-up, so every seed sets up the same work. The
    # season files it classifies come from the seed.
    train, comp, names = archetype_pitcher(size["train_n"], seed=SEED_BASE[workload] - 1,
                                           pitcher_id="season-p")
    write_pitch_csv(train, out / "train.csv")
    ops = [
        _season_file(out / f"season{f}.csv", size["rows"],
                     _synth_seed(workload, seed, 1 + f), str(2001 + f))
        for f in range(size["files"])
    ]
    warm = _season_file(out / "warmup.csv", 1000, _synth_seed(workload, seed, 999), "2000")
    return {
        "ops": ops,
        "warmup": warm,
        "train": {"files": ["train.csv"], "rows": train.n,
                  "pitchers": [_pitcher_entry("season-p", train, comp, names)]},
    }


GENERATORS = {
    "fit-large": gen_fit_large,
    "cohort-batch": gen_cohort_batch,
    "classify-season": gen_classify_season,
}


def _sizes_summary(manifest: dict) -> dict:
    ops = manifest["ops"]
    pitchers = [p for op in ops for p in op.get("pitchers", [])]
    pitchers += manifest.get("train", {}).get("pitchers", [])
    rows = sum(op["rows"] for op in ops)
    malformed = sum(op.get("malformed", 0) for op in ops)
    intentional = sum(op.get("intentional", 0) for op in ops)
    return {
        "operations_per_cycle": len(ops),
        "pitchers": len(pitchers) if pitchers else 1,
        "n_per_pitcher": sorted({p["n"] for p in pitchers}),
        "total_rows": rows,
        "malformed_frac": malformed / rows,
        "intentional_frac": intentional / rows,
    }


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    out.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](out, workload, seed, SIZES[size][workload])
    manifest.update(workload=workload, seed=seed, size=size)
    manifest["sizes"] = _sizes_summary(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Emit synthetic pitch CSVs for demos and CLI experiments.

Writes a single-pitcher file (5 realistic archetypes) and a multi-pitcher
cohort file suitable for `pitchmbc batch`.
"""

import argparse
from pathlib import Path

import numpy as np

from pitchmbc.ingest import PitchDataset, write_pitch_csv
from pitchmbc.synth import archetype_pitcher, curveball_evolution_pitcher


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="demo_data")
    parser.add_argument("--n", type=int, default=600, help="pitches per pitcher")
    parser.add_argument("--cohort", type=int, default=12, help="pitchers in the batch file")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    single, _, _ = archetype_pitcher(args.n, seed=args.seed, pitcher_id="demo5")
    write_pitch_csv(single, outdir / "demo_pitcher.csv")

    evo, _, _ = curveball_evolution_pitcher(args.n, seed=args.seed + 1,
                                            pitcher_id="demo-evolution")
    write_pitch_csv(evo, outdir / "demo_evolution.csv")

    cohort = [archetype_pitcher(args.n, seed=args.seed + 100 + i,
                                pitcher_id=f"pitcher{i:03d}")[0] for i in range(args.cohort)]
    joined = PitchDataset.from_columns(
        np.vstack([ds.to_matrix() for ds in cohort]),
        *([value for ds in cohort for value in getattr(ds, column)]
          for column in ("pitchers", "seasons", "reference_labels", "intentional")))
    write_pitch_csv(joined, outdir / "demo_cohort.csv")

    print(f"wrote {outdir}/demo_pitcher.csv ({single.n} pitches)")
    print(f"wrote {outdir}/demo_evolution.csv ({evo.n} pitches)")
    print(f"wrote {outdir}/demo_cohort.csv ({joined.n} pitches, {args.cohort} pitchers)")


if __name__ == "__main__":
    main()

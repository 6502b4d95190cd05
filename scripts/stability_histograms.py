"""Text histograms of cohort stability from `pitchmbc batch` output.

Reads the stability_agreements.csv that `pitchmbc batch` writes (one row
per pitcher: mean agreement on the 80% and on the 20% subsets) and prints
one coarse text histogram per subset size, so the shape is visible without
a plotting stack:

    python scripts/make_synthetic_data.py --outdir demo_data
    pitchmbc batch --input demo_data/demo_cohort.csv --outdir batch_out --reps 20
    python scripts/stability_histograms.py batch_out/stability_agreements.csv
"""

import argparse
import csv
import sys

import numpy as np


def text_histogram(values, label, lo=0.5, hi=1.0, bins=10, width=40):
    values = np.asarray(values)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    peak = max(counts.max(), 1)
    print(f"\n{label} (n={len(values)}, mean={values.mean():.3f})")
    for c, a, b in zip(counts, edges, edges[1:]):
        bar = "#" * int(round(width * c / peak))
        print(f"  {a:.2f}-{b:.2f} | {bar} {c}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("agreements", help="stability_agreements.csv from pitchmbc batch")
    args = parser.parse_args()

    with open(args.agreements, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        sys.exit(f"{args.agreements}: no pitcher rows (was batch run with --reps 0?)")
    a80 = np.array([float(r["agreement_80"]) for r in rows])
    a20 = np.array([float(r["agreement_20"]) for r in rows])
    text_histogram(a80, "80% subset agreement")
    text_histogram(a20, "20% subset agreement")
    print(f"\npitchers with >= 80% agreement: {np.mean(a80 >= 0.8):.0%} (80% subset), "
          f"{np.mean(a20 >= 0.8):.0%} (20% subset)")


if __name__ == "__main__":
    main()

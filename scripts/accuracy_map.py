"""Per-pitch accuracy of the whole pipeline against the generator.

Each run of a cell (n, spread) draws ``archetype_pitcher(n, seed=100 + i,
spread=spread)``, picks k in 1-9 with ``select_k`` under ``EmConfig(seed=i)``,
names the clusters with ``label_clusters`` and labels every pitch with
``classify_dataset``. A run's accuracy is the share of pitches whose type is
their generator archetype's. The plain-BIC winner is ``choose_best`` over the
fits ``select_k`` scored. The grid prints each cell's median and minimum
accuracy over runs i = 0 .. runs-1, for BIC-adj first and plain BIC after a
slash where that differs, then each cell's selected k per run (BIC-adj):

    PYTHONPATH=src python scripts/accuracy_map.py        # about 20 s CPU

``tests/test_oracles.py`` holds the medians and minimums of a fixed subset
as floors.
"""

import argparse
import statistics
import time

from pitchmbc.errors import FitError
from pitchmbc.labeling import classify_dataset, label_clusters
from pitchmbc.mixture import EmConfig
from pitchmbc.selection import choose_best, select_k
from pitchmbc.synth import ARCHETYPE_TYPES, archetype_pitcher

NS = (150, 400, 1200)
SPREADS = (1.0, 1.3, 1.6, 2.0)


def accuracy(fit, X, truth: list) -> float:
    _, types, _ = classify_dataset(label_clusters(fit), X)
    return sum(t == want for t, want in zip(types, truth)) / len(truth)


def run(n: int, spread: float, i: int) -> tuple[int, float, int, float]:
    """(k, accuracy) under BIC-adj, then under plain BIC, of run ``i`` of
    cell (n, spread)."""
    data, comp, names = archetype_pitcher(n, seed=100 + i, spread=spread)
    X, truth = data.to_matrix(), [ARCHETYPE_TYPES[names[j]] for j in comp]
    result = select_k(X, 1, 9, em=EmConfig(seed=i))
    bic = result.fits[choose_best(result.fits, len(X), "bic", result.penalty_scale)[0]]
    adj_acc = accuracy(result.best, X, truth)
    bic_acc = adj_acc if bic is result.best else accuracy(bic, X, truth)
    return result.best.k, adj_acc, bic.k, bic_acc


def grid(ns, spreads, runs: int) -> dict:
    """{(n, spread): [run(n, spread, i) for i < runs]}."""
    return {(n, s): [run(n, s, i) for i in range(runs)] for s in spreads for n in ns}


def summary(accs: list[float]) -> str:
    return f"{statistics.median(accs):.3f}, {min(accs):.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, nargs="+", default=NS)
    parser.add_argument("--spread", type=float, nargs="+", default=SPREADS)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 1 or min(args.n) < 1:
        raise SystemExit("--runs and --n must be >= 1")
    start = time.process_time()
    try:
        cells = grid(args.n, args.spread, args.runs)
    except FitError as exc:
        raise SystemExit(str(exc))
    seconds = time.process_time() - start
    print("| spread | " + " | ".join(f"n={n}" for n in args.n) + " |")
    print("| --- " * (len(args.n) + 1) + "|")
    for s in args.spread:
        row = []
        for n in args.n:
            adj, bic = summary([r[1] for r in cells[n, s]]), summary([r[3] for r in cells[n, s]])
            row.append(adj if adj == bic else f"{adj} / {bic}")
        print(f"| {s} | " + " | ".join(row) + " |")
    for (n, s), runs in cells.items():
        print(f"selected k, n={n} spread {s}: {' '.join(str(r[0]) for r in runs)}")
    print(f"CPU {seconds:.1f} s")


if __name__ == "__main__":
    main()

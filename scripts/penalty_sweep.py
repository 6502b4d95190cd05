"""How the correlation penalty changes the selected number of clusters.

Fits one dataset across a k range once with ``select_k``, then re-scores
its fits under a sweep of penalty scales, from 0 (plain BIC) upward. Shows
the selected k and the winner's total absolute correlation shrinking as the
penalty grows.
"""

import argparse
import math

import numpy as np

from pitchmbc.errors import FitError
from pitchmbc.mixture import EmConfig
from pitchmbc.selection import choose_best, select_k
from pitchmbc.synth import archetype_pitcher, thin_split_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=["pitcher", "thinsplit"], default="thinsplit")
    parser.add_argument("--n", type=int, default=46,
                        help="thinsplit sits in the BIC/BIC_adj disagreement window near n=46")
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.n < 1:
        raise SystemExit("--n must be >= 1")
    if args.dataset == "pitcher":
        X = archetype_pitcher(args.n, seed=args.seed)[0].to_matrix()
    else:
        X = thin_split_matrix(max(args.n // 2, 12), rho=0.9, dz=0.0, seed=args.seed)
    n = X.shape[0]
    try:
        fits = select_k(X, 1, args.kmax, em=EmConfig(seed=args.seed, restarts=8)).fits
    except (ValueError, FitError) as exc:
        raise SystemExit(str(exc))

    auto = math.log(n)
    scales = [0.0] + [auto * f for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    print(f"n={n}, ln(n)={auto:.3f}, fitted k=1..{fits[-1].k}")
    print(f"{'penalty_scale':>14} {'selected k':>10} {'total |rho|':>12}")
    for lam in scales:
        chosen = fits[choose_best(fits, n, "bicadj", lam)[0]]
        tag = " (= ln n)" if np.isclose(lam, auto) else ""
        print(f"{lam:14.3f} {chosen.k:10d} {chosen.total_abs_correlation():12.3f}{tag}")


if __name__ == "__main__":
    main()

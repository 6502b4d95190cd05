"""How the correlation penalty changes the selected number of clusters.

Fits one dataset across a k range once, then re-scores the same fits under
a sweep of penalty scales, from 0 (plain BIC) upward. Shows the selected k
and the winner's total absolute correlation shrinking as the penalty grows.
"""

import argparse
import math

import numpy as np

from pitchmbc.mixture import POINTS_PER_COMPONENT, EmConfig, fit_em
from pitchmbc.selection import choose_best
from pitchmbc.synth import archetype_pitcher, thin_split_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=["pitcher", "thinsplit"], default="thinsplit")
    parser.add_argument("--n", type=int, default=46,
                        help="thinsplit sits in the BIC/BIC_adj disagreement window near n=46")
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.dataset == "pitcher":
        ds, _, _ = archetype_pitcher(args.n, seed=args.seed)
        X = ds.to_matrix()
    else:
        X = thin_split_matrix(max(args.n // 2, 12), rho=0.9, dz=0.0, seed=args.seed)
    n = X.shape[0]

    fits = []
    for k in range(1, args.kmax + 1):
        if n < POINTS_PER_COMPONENT * k:
            break
        fits.append(fit_em(X, k, EmConfig(seed=args.seed, restarts=8)))

    auto = math.log(n)
    scales = [0.0] + [auto * f for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    print(f"n={n}, ln(n)={auto:.3f}, fitted k=1..{fits[-1].k}")
    print(f"{'penalty_scale':>14} {'selected k':>10} {'total |rho|':>12}")
    for lam in scales:
        idx, _ = choose_best(fits, n, "bicadj", lam)
        chosen = fits[idx]
        tag = " (= ln n)" if np.isclose(lam, auto) else ""
        print(f"{lam:14.3f} {chosen.k:10d} {chosen.total_abs_correlation():12.3f}{tag}")


if __name__ == "__main__":
    main()

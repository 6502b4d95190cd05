"""Reference optima for EM, and how often production ``fit_em`` reaches them.

The case set is fixed: ``archetype_pitcher(n, seed, spread=s)`` for n in
{120, 240, 600, 1500}, seeds 3-8 and s in {1.0, 1.3}, each fitted at k 1-9,
432 cases in all. Never re-seed or resize it to hide a miss.

Written with no option, the script fits every case ``--runs`` times (64 by
default) by full EM from one start, ``EmConfig(seed=s, restarts=1)`` for
s = 0 .. runs-1: with a single restart, ``fit_em``'s short phase is just the
start of that restart's full EM. It writes each case's best log-likelihood,
with ``pitchmbc.platform_stamp``'s stamp, to ``--out``:

    PYTHONPATH=src python scripts/reference_optima.py    # about 7 min CPU

With ``--count`` it instead runs production ``fit_em`` (default
``EmConfig``) on every case of ``--out`` and prints how many cases land
within ``REL`` relative of the reference, how many beat it (the reference
is then too weak) and the misses per k. ``tests/test_oracles.py`` holds the
first two counts as floors. ``--cases N`` takes only the first N cases, for
a quick look.
"""

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from pitchmbc.errors import FitError
from pitchmbc.mixture import EmConfig, fit_em
from pitchmbc.platform_stamp import platform_stamp
from pitchmbc.synth import archetype_pitcher

ROOT = Path(__file__).resolve().parents[1]

# (n, seed, spread, k) of every case, in file order
CASES = tuple((n, seed, spread, k) for n in (120, 240, 600, 1500) for seed in range(3, 9)
              for spread in (1.0, 1.3) for k in range(1, 10))
# a fit reaches its reference when the two log-likelihoods agree this closely
REL = 1e-6


# the cases of one data set are adjacent, so one cached matrix serves all k
@functools.lru_cache(maxsize=1)
def case_matrix(n: int, seed: int, spread: float):
    return archetype_pitcher(n, seed=seed, spread=spread)[0].to_matrix()


def best_loglik(X, k: int, runs: int) -> float:
    """The highest log-likelihood of ``runs`` single-restart full-EM fits."""
    best = -math.inf
    for seed in range(runs):
        try:
            best = max(best, fit_em(X, k, EmConfig(seed=seed, restarts=1)).log_likelihood)
        except FitError:
            pass
    return best


def reference(cases, runs: int) -> dict:
    """The document ``--out`` holds: the platform stamp, the run count and
    each case with its best log-likelihood."""
    rows = [{"n": n, "seed": seed, "spread": spread, "k": k,
             "loglik": best_loglik(case_matrix(n, seed, spread), k, runs)}
            for n, seed, spread, k in cases]
    return {"platform": platform_stamp(), "runs": runs, "cases": rows}


def outcomes(doc: dict) -> list[str]:
    """Per case of ``doc``: "hit" when production ``fit_em`` is within REL
    relative of the reference, "beat" when it is higher, else "miss"."""
    out = []
    for case in doc["cases"]:
        X = case_matrix(case["n"], case["seed"], case["spread"])
        try:
            ll = fit_em(X, case["k"]).log_likelihood
        except FitError:
            ll = -math.inf
        ref = case["loglik"]
        if abs(ll - ref) <= REL * abs(ref):
            out.append("hit")
        else:
            out.append("beat" if ll > ref else "miss")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=ROOT / "tests" / "optima.json")
    parser.add_argument("--runs", type=int, default=64)
    parser.add_argument("--cases", type=int, default=len(CASES))
    parser.add_argument("--count", action="store_true",
                        help="count production hits against --out instead of writing it")
    args = parser.parse_args()
    if args.runs < 1 or args.cases < 1:
        sys.exit("--runs and --cases must be >= 1")
    start = time.process_time()
    if args.count:
        doc = json.loads(args.out.read_text(encoding="utf-8"))
        doc["cases"] = doc["cases"][:args.cases]
        got = outcomes(doc)
        print(f"{len(got)} cases: {got.count('hit')} within {REL:g} relative of the "
              f"reference, {got.count('beat')} above it, {got.count('miss')} below it")
        misses = [case["k"] for case, o in zip(doc["cases"], got) if o == "miss"]
        print("misses by k: " + ", ".join(f"k={k} {misses.count(k)}"
                                          for k in sorted(set(misses))))
    else:
        doc = reference(CASES[:args.cases], args.runs)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(doc['cases'])} cases to {args.out}")
    print(f"CPU {time.process_time() - start:.1f} s")


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s pytest shows them for failing criteria. Criterion 10
needs real data and is skipped unless PITCHMBC_ZITO_CSV points at a
2010-11 Barry Zito pitch file in the default schema.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from cascade_cases import CASCADE_CASES
from helpers import (adjusted_rand_index, brute_force_alignment, make_component,
                     make_fit, reference_cascade)
from pitchmbc.archive import archive_from_results, archive_to_json, load_archive, save_archive
from pitchmbc.cli import main
from pitchmbc.ingest import filter_pitches, parse_pitch_csv, serialize_pitch_csv, write_pitch_csv
from pitchmbc.labeling import LabelConfig, PitchType, classify_pitch, label_clusters
from pitchmbc.mixture import EmConfig, fit_em
from pitchmbc.selection import SelectionConfig, select_k
from pitchmbc.stability import align_clusters, stability_run
from pitchmbc.synth import (archetype_pitcher, curveball_evolution_pitcher,
                            gaussian_blobs, thin_split_matrix, three_separated_gaussians)


def report(num, description, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_em_correctness_oracle():
    t0 = time.perf_counter()
    X, y, gen_means = three_separated_gaussians(seed=20250808, n_per=300, sigma=1.0,
                                                exact=True)
    fit = fit_em(X, 3, EmConfig(seed=1))
    elapsed = time.perf_counter() - t0

    fitted = fit.means()
    mean_err, matched = 0.0, set()
    for g in gen_means:
        j = int(np.argmin(np.sum((fitted - g) ** 2, axis=1)))
        matched.add(j)
        mean_err = max(mean_err, float(np.abs(fitted[j] - g).max()))
    weight_err = float(np.abs(fit.weights() - 1.0 / 3.0).max())
    ari = adjusted_rand_index(y, fit.assignments())

    ok = (len(matched) == 3 and mean_err <= 0.1 and weight_err <= 0.02
          and ari >= 0.99 and elapsed < 5.0)
    report(1, "EM recovers 3 separated components",
           ok, f"mean_err={mean_err:.2e} weight_err={weight_err:.2e} "
               f"ari={ari:.4f} time={elapsed:.2f}s")


def test_criterion_02_em_monotonicity_100_seeds():
    violations = []
    worst = 0.0
    for seed in range(100):
        k = 2 + seed % 3
        sep = (2.5, 4.0, 8.0)[seed % 3]
        rng = np.random.default_rng(seed)
        means = rng.standard_normal((k, 3)) * sep
        covs = [np.eye(3) * float(rng.uniform(0.5, 2.0)) for _ in range(k)]
        X, _ = gaussian_blobs(means, covs, [60] * k, seed=seed + 1)
        fit = fit_em(X, k, EmConfig(seed=seed, restarts=2, max_iter=250))
        worst = max(worst, fit.ll_decrease_max)
        if fit.ll_decrease_max > 1e-8:
            violations.append(seed)
    report(2, "log-likelihood never decreases by more than 1e-8",
           not violations, f"worst decrease={worst:.3e}, violations={violations}")


def test_criterion_03_bic_adj_rejects_thin_split():
    # frozen construction: two exact-moment halves with speed/back-spin
    # correlation +/-0.90, fully overlapping, pooled correlations ~0
    X = thin_split_matrix(23, rho=0.90, dz=0.0, seed=0)
    n = X.shape[0]
    em = EmConfig(seed=101, restarts=8)
    res_bic = select_k(X, 1, 2, SelectionConfig(criterion="bic"), em)
    res_adj = select_k(X, 1, 2, SelectionConfig(criterion="bicadj"), em)

    split_fit = next(f for f in (res_bic.best, res_adj.best) if f.k == 2) \
        if 2 in (res_bic.best.k, res_adj.best.k) else fit_em(X, 2, em)
    min_rho = min(abs(c.correlation[0, 1]) for c in split_fit.components)
    ok = (res_bic.best.k == 2 and res_adj.best.k == 1
          and res_adj.penalty_scale == pytest.approx(math.log(n))
          and min_rho >= 0.9)
    report(3, "plain BIC takes the thin split, BIC_adj keeps one cluster",
           ok, f"bic->k={res_bic.best.k} bicadj->k={res_adj.best.k} "
               f"min|rho|={min_rho:.3f}")


def test_criterion_04_k_selection_100_seeds():
    hits = 0
    picks = []
    for seed in range(100):
        X, _, _ = three_separated_gaussians(seed=seed, n_per=300)
        res = select_k(X, 1, 8, em=EmConfig(seed=seed, restarts=3, max_iter=300, tol=1e-7))
        picks.append(res.best.k)
        hits += (res.best.k == 3)
    report(4, "select_k returns k=3 on >= 95 of 100 seeds",
           hits >= 95, f"hits={hits}/100, off-picks={[p for p in picks if p != 3]}")


def test_criterion_05_labeling_rule_fidelity():
    assert len(CASCADE_CASES) >= 20
    mismatches = []
    cfg = LabelConfig()
    for case_id, rows, expected in CASCADE_CASES:
        comps = [make_component([s, b, c], stddev=(1.0, sb, ss), weight=w)
                 for s, b, c, sb, ss, w in rows]
        model = label_clusters(make_fit(comps))
        got = [str(lb) for lb in model.labels]
        if got != expected:
            mismatches.append((case_id, got, expected))
            continue
        # cross-check non-anchor labels against the independent rewrite
        stats = [{"speed": r[0], "back": r[1], "side": r[2],
                  "spin_var": r[3] ** 2 + r[4] ** 2} for r in rows]
        for idx, label in enumerate(model.labels):
            if idx == model.anchor_index:
                continue
            if str(label) != reference_cascade(stats[idx], stats[model.anchor_index], cfg):
                mismatches.append((case_id, "rewrite disagreement", idx))
    report(5, f"{len(CASCADE_CASES)} hand-walked cascade cases all agree",
           not mismatches, f"mismatches={mismatches}")


def test_criterion_06_evolution_split_both_curveballs():
    ds, _, _ = curveball_evolution_pitcher(400, seed=7)
    fit = fit_em(ds, 3, EmConfig(seed=7))
    model = label_clusters(fit)
    curves = [i for i, lb in enumerate(model.labels) if lb is PitchType.CURVEBALL]
    speeds = sorted(fit.components[i].mean[0] for i in curves)
    both_classified = all(
        classify_pitch(model, fit.components[i].mean)[0] is PitchType.CURVEBALL
        for i in curves)
    ok = len(curves) == 2 and both_classified
    report(6, "two curveball-profile clusters 2 mph apart both labeled Curveball",
           ok, f"curveball clusters={curves} speeds={[f'{s:.1f}' for s in speeds]}")


def test_criterion_07_stability_at_n100():
    t0 = time.perf_counter()
    em = EmConfig(restarts=5, max_iter=300)
    weights = (0.24, 0.20, 0.19, 0.19, 0.18)
    passes, lows = 0, []
    for seed in range(50):
        ds, _, _ = archetype_pitcher(100, seed=seed, weights=weights)
        em_seed = replace(em, seed=seed)
        rep = stability_run(ds, fit_em(ds, 5, em_seed), split=0.8, replications=20,
                            em_config=em_seed)
        if rep.mean_80 >= 0.80 and rep.mean_20 >= 0.80:
            passes += 1
        else:
            lows.append((seed, round(rep.mean_80, 3), round(rep.mean_20, 3)))
    elapsed = time.perf_counter() - t0
    ok = passes >= 45 and elapsed < 60.0
    report(7, "n=100 stability means >= 0.80 for >= 90% of 50 generator seeds",
           ok, f"passes={passes}/50 time={elapsed:.1f}s lows={lows}")


def test_criterion_08_alignment_optimality_200_instances():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(8, 60))
        ref = rng.integers(0, k, size=n)
        cand = rng.integers(0, k, size=n)
        perm = align_clusters(ref, cand, k)
        _, best = brute_force_alignment(ref, cand, k)
        if int(np.sum(perm[cand] == ref)) != best:
            mismatches += 1
    report(8, "align_clusters equals exhaustive search on 200 instances",
           mismatches == 0, f"mismatches={mismatches}")


def test_criterion_09_determinism_and_roundtrips(tmp_path):
    ds, _, _ = archetype_pitcher(300, seed=11)
    data_path = tmp_path / "pitches.csv"
    write_pitch_csv(ds, data_path)

    # (a) identical seeds produce byte-identical archives through the CLI
    args = ["fit", "--input", str(data_path), "--kmin", "1", "--kmax", "6",
            "--seed", "11", "--restarts", "3", "--max-iter", "300", "--tol", "1e-7"]
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    bytes_identical = out1.read_bytes() == out2.read_bytes()

    # (b) load(save(m)) is exact
    filtered = filter_pitches(parse_pitch_csv(data_path))
    result = select_k(filtered, 1, 6, em=EmConfig(seed=11, restarts=3, max_iter=300, tol=1e-7))
    archive = archive_from_results("synth5", label_clusters(result.best), result)
    path = tmp_path / "direct.json"
    save_archive(archive, path)
    loaded = load_archive(path)
    archive_exact = archive_to_json(loaded) == archive_to_json(archive)

    # (c) CSV -> dataset -> CSV round trip is lossless
    ds1 = parse_pitch_csv(data_path)
    text1 = serialize_pitch_csv(ds1)
    again = data_path.with_name("again.csv")
    again.write_text(text1)
    ds2 = parse_pitch_csv(again)
    csv_lossless = ds2 == ds1 and serialize_pitch_csv(ds2) == text1

    ok = bytes_identical and archive_exact and csv_lossless
    report(9, "seed determinism, archive exactness, CSV round trip",
           ok, f"archive_bytes={bytes_identical} archive_exact={archive_exact} "
               f"csv={csv_lossless}")


ZITO_ENV = "PITCHMBC_ZITO_CSV"


@pytest.mark.skipif(ZITO_ENV not in os.environ,
                    reason=f"real-data spot check: set {ZITO_ENV} to a Zito 2010-11 CSV")
def test_criterion_10_zito_selects_five_clusters():
    ds = parse_pitch_csv(os.environ[ZITO_ENV])
    filtered = filter_pitches(ds)
    res = select_k(filtered, 1, 9, em=EmConfig(seed=42))
    report(10, "Zito 2010-11 selects five clusters under BIC_adj",
           res.best.k == 5, f"k={res.best.k} n={filtered.n}")

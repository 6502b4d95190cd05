import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_component, make_fit
from pitchmbc.errors import NoViableK, TooFewPoints
from pitchmbc.mixture import EmConfig
from pitchmbc.selection import (SelectionConfig, bic, bic_adj, choose_best,
                                select_k, write_score_csv)
from pitchmbc.synth import gaussian_blobs


def corr(xy=0.0, xz=0.0, yz=0.0):
    m = np.eye(3)
    m[0, 1] = m[1, 0] = xy
    m[0, 2] = m[2, 0] = xz
    m[1, 2] = m[2, 1] = yz
    return m


def fit_with_correlations(k, loglik, pair_values):
    comps = [make_component([j, 0, 0], correlation=corr(*rho), weight=1.0 / k)
             for j, rho in zip(range(k), pair_values)]
    return make_fit(comps, log_likelihood=loglik)


# ----------------------------------------------------------------------- bic

def test_bic_zero_loglik_n1():
    fit = make_fit([make_component([0, 0, 0])], log_likelihood=0.0)
    assert bic(fit, 1) == 0.0


def test_bic_hand_arithmetic_with_ln_n_one():
    fit = fit_with_correlations(2, -100.0, [(0, 0, 0), (0, 0, 0)])
    # ln(n) = 1 at n = e: -2*(-100) + 19*1 = 219
    assert bic(fit, math.e) == pytest.approx(219.0, abs=1e-12)


def test_bic_recomputation_oracle():
    fit = fit_with_correlations(3, -512.25, [(0.1, 0, 0)] * 3)
    n = 137
    expect = -2.0 * (-512.25) + (10 * 3 - 1) * math.log(137)
    assert bic(fit, n) == pytest.approx(expect, rel=1e-10)


# ------------------------------------------------------------------- bic_adj

def test_bic_adj_identity_correlations_equals_bic():
    fit = fit_with_correlations(2, -50.0, [(0, 0, 0), (0, 0, 0)])
    score = bic_adj(fit, 10, penalty_scale=7.3)
    assert score.correlation_penalty == 0.0
    assert score.bic_adj == score.bic == bic(fit, 10)


def test_bic_adj_penalty_hand_arithmetic():
    fit = fit_with_correlations(1, -50.0, [(0.5, -0.5, 0.0)])
    score = bic_adj(fit, 10, penalty_scale=10.0)
    assert score.correlation_penalty == pytest.approx(10.0, abs=1e-12)
    assert score.bic_adj == pytest.approx(score.bic + 10.0, abs=1e-12)


@pytest.mark.parametrize("scale", [0.1, 1.0, 17.5])
def test_bic_adj_prefers_spherical_of_equal_bic_fits(scale):
    spherical = fit_with_correlations(2, -80.0, [(0, 0, 0), (0, 0, 0)])
    thin = fit_with_correlations(2, -80.0, [(0.95, 0.95, 0.95), (0.95, 0.95, 0.95)])
    assert bic(spherical, 40) == bic(thin, 40)
    s_sph = bic_adj(spherical, 40, scale)
    s_thin = bic_adj(thin, 40, scale)
    assert s_sph.bic_adj < s_thin.bic_adj


def test_bic_adj_rejects_negative_scale():
    fit = fit_with_correlations(1, 0.0, [(0, 0, 0)])
    with pytest.raises(ValueError):
        bic_adj(fit, 5, -1.0)


def test_bic_adj_always_at_least_bic():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(-0.9, 0.9, size=3)
        fit = fit_with_correlations(1, rng.uniform(-500, 0), [tuple(rho)])
        score = bic_adj(fit, 25, penalty_scale=rng.uniform(0, 10))
        assert score.bic_adj >= score.bic
        zero = bic_adj(fit, 25, penalty_scale=0.0)
        assert zero.bic_adj == zero.bic


# --------------------------------------------------------------- choose_best

def test_choose_best_tie_breaks_to_smaller_k():
    f1 = fit_with_correlations(1, -100.0, [(0, 0, 0)])
    # arrange exactly equal bic: -2*ll2 + 19 ln n = -2*ll1 + 9 ln n
    n = 50
    ll2 = -100.0 + 5.0 * math.log(n)
    f2 = fit_with_correlations(2, ll2, [(0, 0, 0), (0, 0, 0)])
    assert abs(bic(f1, n) - bic(f2, n)) < 1e-9
    idx, scores = choose_best([f1, f2], n, "bic", 0.0)
    assert idx == 0
    assert scores[0].k == 1


def test_choose_best_zero_scale_matches_plain_bic():
    rng = np.random.default_rng(12)
    fits = [fit_with_correlations(k, float(rng.uniform(-900, -400)),
                                  [tuple(rng.uniform(-0.9, 0.9, 3)) for _ in range(k)])
            for k in range(1, 6)]
    idx_bic, _ = choose_best(fits, 200, "bic", 123.0)
    idx_adj, _ = choose_best(fits, 200, "bicadj", 0.0)
    assert idx_bic == idx_adj


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 30.0), st.floats(0.0, 30.0))
def test_monotone_penalty_never_raises_total_correlation(seed, lam_a, lam_b):
    rng = np.random.default_rng(seed)
    fits = []
    for k in range(1, 5):
        pair_values = [tuple(rng.uniform(-0.95, 0.95, 3)) for _ in range(k)]
        fits.append(fit_with_correlations(k, float(rng.uniform(-800, -500)), pair_values))
    lam_lo, lam_hi = sorted((lam_a, lam_b))
    idx_lo, _ = choose_best(fits, 150, "bicadj", lam_lo)
    idx_hi, _ = choose_best(fits, 150, "bicadj", lam_hi)
    assert fits[idx_hi].total_abs_correlation() <= fits[idx_lo].total_abs_correlation() + 1e-12


# ------------------------------------------------------------------ select_k

def three_blob_data(seed, n_per=300):
    means = [[0, 0, 0], [10, 0, 0], [0, 12, 6]]
    covs = [np.eye(3)] * 3
    return gaussian_blobs(means, covs, [n_per] * 3, seed=seed)


def test_select_k_finds_three_clusters_and_neighbors_score_worse():
    X, _ = three_blob_data(seed=42)
    res = select_k(X, 1, 8, em=EmConfig(seed=42, restarts=3, tol=1e-7, max_iter=300))
    assert res.best.k == 3
    by_k = {s.k: s for s in res.scores}
    assert by_k[3].bic_adj < by_k[2].bic_adj
    assert by_k[3].bic_adj < by_k[4].bic_adj
    assert res.penalty_scale == pytest.approx(math.log(900))
    assert res.failures == ()


def test_select_k_single_k_trivial():
    X, _ = three_blob_data(seed=1, n_per=30)
    res = select_k(X, 1, 1, em=EmConfig(seed=0))
    assert res.best.k == 1
    assert len(res.scores) == 1


def test_select_k_too_few_points():
    X = np.zeros((10, 3))
    with pytest.raises(TooFewPoints):
        select_k(X, 1, 4, SelectionConfig())


def test_select_k_no_viable_k():
    X = np.tile([1.0, 2.0, 3.0], (8, 1))  # identical rows: every fit degenerate
    with pytest.raises(NoViableK):
        select_k(X, 1, 2, em=EmConfig(seed=0, restarts=2))


def test_select_k_records_failed_k_and_continues():
    # two tight blobs plus no third structure: k=2 fine; degenerate duplicates
    # are exercised above, here every k fits, so failures stays empty
    X, _ = three_blob_data(seed=7, n_per=50)
    res = select_k(X, 2, 4, em=EmConfig(seed=7, restarts=2))
    assert {s.k for s in res.scores} == {2, 3, 4}


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(criterion="aic")
    with pytest.raises(ValueError):
        SelectionConfig(penalty_scale=-2.0)
    with pytest.raises(ValueError):
        select_k(np.zeros((40, 3)), 3, 2, SelectionConfig())


def test_score_csv_shape():
    X, _ = three_blob_data(seed=3, n_per=40)
    res = select_k(X, 1, 3, em=EmConfig(seed=3, restarts=2))
    buf = io.StringIO()
    write_score_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,loglik,bic,penalty,bic_adj,converged"
    assert len(lines) == 4
    assert lines[1].startswith("1,")

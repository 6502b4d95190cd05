"""Independent oracles used across the suite.

Everything here recomputes expected values by a different route than the
library: dense density formula with explicit det/inverse, exhaustive
permutation search, contingency-table ARI, and a from-scratch rewrite of
the labeling cascade. Keep these independent of the package internals,
except ``reference_restarts``, which reuses the EM kernels to replay the
plain schedule that runs every restart to convergence.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from pitchmbc.errors import EmptyCluster, SingularCovariance
from pitchmbc.mixture import (EmConfig, FittedMixture, MixtureComponent, _build_components,
                              _e_core, _init_params, _m_core, _xx_features)


def dense_mvn_logpdf(x, mean, cov) -> float:
    """Direct density formula with explicit determinant and inverse."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = x - mean
    det = np.linalg.det(cov)
    quad = d @ np.linalg.inv(cov) @ d
    return float(-0.5 * (len(x) * math.log(2 * math.pi) + math.log(det) + quad))


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI from the contingency table."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    assert a.shape == b.shape
    n = a.size
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def brute_force_alignment(reference, candidate, k):
    """Exhaustive search over all k! relabelings; lexicographically first optimum."""
    ref = np.asarray(reference)
    cand = np.asarray(candidate)
    best_perm, best_score = None, -1
    for perm in itertools.permutations(range(k)):
        score = int(np.sum(np.asarray(perm)[cand] == ref))
        if score > best_score:
            best_score, best_perm = score, np.asarray(perm)
    return best_perm, best_score


def reference_cascade(cluster: dict, anchor: dict, cfg) -> str:
    """From-scratch rewrite of the labeling rules for cross-checking.

    cluster/anchor are dicts with keys speed, back, side, spin_var.
    """
    dspeed = anchor["speed"] - cluster["speed"]
    dside = abs(cluster["side"] - anchor["side"])
    dback = abs(cluster["back"] - anchor["back"])
    same_side = cluster["side"] * anchor["side"] >= 0

    if cluster["spin_var"] > cfg.knuckleball_spin_var_ratio * anchor["spin_var"] and dspeed > 0:
        return "Knuckleball"
    if same_side and dspeed > cfg.changeup_speed_gap and dside < cfg.sidespin_band:
        return "Changeup"
    if same_side:
        return "TwoSeam" if dside > dback else "Sinker"
    if ((not same_side) or cluster["back"] <= cfg.curveball_backspin_max) and \
            dspeed > cfg.changeup_speed_gap and cluster["back"] <= cfg.curveball_backspin_max:
        return "Curveball"
    if dspeed <= cfg.cutter_speed_gap:
        return "Cutter"
    return "Slider"


def make_component(mean, stddev=(1.0, 1.0, 1.0), correlation=None, weight=1.0) -> MixtureComponent:
    if correlation is None:
        correlation = np.eye(3)
    return MixtureComponent(mean=np.asarray(mean, dtype=float),
                            stddev=np.asarray(stddev, dtype=float),
                            correlation=np.asarray(correlation, dtype=float),
                            weight=weight)


def make_fit(components, log_likelihood=0.0, seed=0, responsibilities=None) -> FittedMixture:
    """Hand-assembled FittedMixture for scoring/labeling tests."""
    components = tuple(components)
    return FittedMixture(
        components=components, k=len(components),
        log_likelihood=log_likelihood, iterations=0, converged=True,
        responsibilities=responsibilities, seed=seed,
    )


def random_spd_component(seed: int, weight: float = 1.0) -> MixtureComponent:
    """A random valid component with a well-conditioned covariance."""
    rng = np.random.default_rng(seed)
    mean = rng.uniform(-50, 120, size=3)
    A = rng.standard_normal((3, 3))
    cov = A @ A.T + np.eye(3) * rng.uniform(0.5, 3.0)
    scale = np.diag(rng.uniform(0.5, 20.0, size=3))
    cov = scale @ cov @ scale
    stddev = np.sqrt(np.diag(cov))
    corr = cov / np.outer(stddev, stddev)
    corr = np.clip(0.5 * (corr + corr.T), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return MixtureComponent(mean=mean, stddev=stddev, correlation=corr, weight=weight)


def assert_fits_identical(f1: FittedMixture, f2: FittedMixture) -> None:
    assert f1.k == f2.k
    assert f1.log_likelihood == f2.log_likelihood
    assert f1.iterations == f2.iterations
    assert f1.converged == f2.converged
    assert f1.seed == f2.seed
    assert f1.ll_trace == f2.ll_trace
    assert f1.ll_decrease_max == f2.ll_decrease_max
    for a, b in zip(f1.components, f2.components):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stddev, b.stddev)
        assert np.array_equal(a.correlation, b.correlation)
        assert a.weight == b.weight
    if f1.responsibilities is None or f2.responsibilities is None:
        assert f1.responsibilities is None and f2.responsibilities is None
    else:
        assert np.array_equal(f1.responsibilities, f2.responsibilities)


def reference_restarts(X, k: int, config: EmConfig) -> list[FittedMixture | None]:
    """Every restart run to convergence or max_iter on its own, in restart
    order; None for a restart that hit an empty cluster or a singular
    covariance."""
    X = np.asarray(X.to_matrix() if hasattr(X, "to_matrix") else X, dtype=float)
    shift = X.mean(axis=0)
    Xc = X - shift
    xx = _xx_features(Xc)
    out: list[FittedMixture | None] = []
    for restart in range(max(1, config.restarts)):
        rng = np.random.default_rng([config.seed, restart])
        try:
            params = _init_params(Xc, xx, k, rng, config.ridge)
            trace, prev, converged, iterations = [], None, False, 0
            for _ in range(config.max_iter):
                resp, ll = _e_core(*params, Xc)
                trace.append(ll)
                if prev is not None and ll - prev <= config.tol * (abs(prev) or 1.0):
                    converged = True
                    break
                prev = ll
                params = _m_core(Xc, resp, config.ridge, xx)
                iterations += 1
            else:
                resp, ll = _e_core(*params, Xc)
                trace.append(ll)
        except (EmptyCluster, SingularCovariance):
            out.append(None)
            continue
        weights, means, covs = params
        out.append(FittedMixture(
            components=_build_components(weights, means + shift, covs), k=k,
            log_likelihood=ll, iterations=iterations, converged=converged,
            responsibilities=resp, seed=config.seed, ll_trace=tuple(trace),
            ll_decrease_max=max([0.0] + [a - b for a, b in zip(trace, trace[1:])])))
    return out


def reference_fit_em(X, k: int, config: EmConfig) -> FittedMixture | None:
    """The plain restart schedule: the restart with the highest final
    log-likelihood wins, ties to the lower index. None when every restart
    is degenerate."""
    best = None
    for fit in reference_restarts(X, k, config):
        if fit is not None and (best is None or fit.log_likelihood > best.log_likelihood):
            best = fit
    return best

import math
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (assert_fits_identical, child_env, dense_mvn_logpdf, make_component,
                     random_spd_component, reference_fit_em, reference_restarts)
from pitchmbc import mixture
from pitchmbc.errors import (AllRestartsDegenerate, EmptyCluster, SingularCovariance,
                             TooFewPoints)
from pitchmbc.mixture import (SHORT_ITER, EmConfig, FittedMixture, MixtureComponent, e_step,
                              fit_em, log_density, m_step, param_count, posterior_assign)
from pitchmbc.selection import choose_best, select_k
from pitchmbc.synth import archetype_pitcher, gaussian_blobs, three_separated_gaussians

LOG_2PI = math.log(2 * math.pi)


# ---------------------------------------------------------------- log_density

def test_log_density_at_mode_of_standard_normal():
    comp = make_component([0, 0, 0])
    assert log_density(comp, [0, 0, 0]) == pytest.approx(-1.5 * LOG_2PI, abs=1e-14)


def test_log_density_one_unit_off_axis():
    comp = make_component([5, -3, 2])
    at_mode = log_density(comp, [5, -3, 2])
    off = log_density(comp, [5, -3, 3])
    assert off == pytest.approx(at_mode - 0.5, abs=1e-12)


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_log_density_matches_dense_formula(seed):
    comp = random_spd_component(seed)
    rng = np.random.default_rng(seed + 1)
    x = comp.mean + rng.standard_normal(3) * comp.stddev * 2
    expect = dense_mvn_logpdf(x, comp.mean, comp.covariance())
    got = log_density(comp, x)
    assert got == pytest.approx(expect, rel=1e-10)


def test_log_density_singular_covariance_raises():
    # unit diagonal, |off| <= 1, but indefinite; then a correlation of exactly
    # 1: both pass construction and fail factorization
    indefinite = [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]
    collinear = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for corr in (indefinite, collinear):
        comp = make_component([0, 0, 0], correlation=np.array(corr))
        with pytest.raises(SingularCovariance, match="not positive definite"):
            log_density(comp, [0, 0, 0])
        with pytest.raises(SingularCovariance, match="not positive definite"):
            e_step([comp], np.zeros((2, 3)))


def test_em_config_lowest_valid_values_fit():
    X = np.random.default_rng(0).normal(size=(40, 3))
    fit = fit_em(X, 2, EmConfig(restarts=1, max_iter=1, tol=0.0, ridge=0.0))
    assert fit.iterations == 1 and len(fit.ll_trace) == 2


def test_component_invariant_validation():
    with pytest.raises(ValueError):
        make_component([0, 0, 0], stddev=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        make_component([0, 0, 0], correlation=np.eye(3) * 2)  # diagonal != 1
    bad = np.eye(3)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        make_component([0, 0, 0], correlation=bad)
    with pytest.raises(ValueError):
        make_component([0, 0, 0], weight=0.0)


# -------------------------------------------------------------------- e_step

def test_e_step_single_component():
    comp = make_component([90, 50, -20], stddev=(2, 10, 10))
    X = np.array([[91, 55, -25], [89, 45, -15], [90, 50, -20.0]])
    resp, ll = e_step([comp], X)
    assert np.array_equal(resp, np.ones((3, 1)))
    direct = sum(log_density(comp, x) for x in X)
    assert ll == pytest.approx(direct, rel=1e-12)


def test_e_step_symmetric_midpoint():
    a = make_component([-4, 0, 0], weight=0.5)
    b = make_component([4, 0, 0], weight=0.5)
    resp, _ = e_step([a, b], np.array([[0.0, 0.0, 0.0]]))
    assert resp[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert resp[0, 1] == pytest.approx(0.5, abs=1e-15)


def _assert_e_step_matches_dense_formula(comps, X):
    """e_step against direct per-point normalization through the dense
    density formula."""
    resp, ll = e_step(comps, X)
    expect_ll = 0.0
    for i, x in enumerate(X):
        logw = np.array([math.log(c.weight) + dense_mvn_logpdf(x, c.mean, c.covariance())
                         for c in comps])
        dens = np.exp(logw - logw.max())
        expect_ll += logw.max() + math.log(dens.sum())
        np.testing.assert_allclose(resp[i], dens / dens.sum(), rtol=1e-12, atol=1e-15)
    assert ll == pytest.approx(expect_ll, rel=1e-12)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-10)


def test_e_step_matches_bruteforce_per_point():
    rng = np.random.default_rng(77)
    comps = [random_spd_component(10, weight=0.35), random_spd_component(11, weight=0.65)]
    _assert_e_step_matches_dense_formula(comps, rng.uniform(-30, 90, size=(5, 3)))


def _tight_far_component(rng, weight):
    """Raw mph/spin values: stddevs 1e-3 to 0.3 of the column scale, a mean up
    to 3 scales from the middle, two correlations of 0.5-0.9 in size."""
    scale = np.array([5.0, 80.0, 80.0])
    mean = np.array([88.0, 40.0, -10.0]) + rng.uniform(-3, 3, 3) * scale
    r01, r02 = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 0.9, 2)
    # a partial correlation inside (-1, 1) keeps the matrix positive definite
    r12 = r01 * r02 + rng.uniform(-0.9, 0.9) * math.sqrt((1 - r01**2) * (1 - r02**2))
    corr = np.array([[1.0, r01, r02], [r01, 1.0, r12], [r02, r12, 1.0]])
    return MixtureComponent(mean, scale * 10 ** rng.uniform(-3, -0.5, 3), corr, weight)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_tight_components_far_from_centre_match_dense_formula(seed, k):
    # a quadratic form expanded into x x^T, x and 1 terms loses its digits here
    rng = np.random.default_rng(seed)
    comps = [_tight_far_component(rng, 1.0 / k) for _ in range(k)]
    X = np.vstack([rng.multivariate_normal(c.mean, c.covariance(), size=3) for c in comps])
    # the kernel as fit_em calls it, about the grand mean
    center = X.mean(axis=0)
    X1 = mixture._features(X - center)[6:]
    for c in comps:
        for i, x in enumerate(X):
            _, got = mixture._e_stack(np.ones(1), (c.mean - center)[None],
                                      c.covariance()[None], X1[:, i:i + 1])
            assert float(got) == pytest.approx(
                dense_mvn_logpdf(x, c.mean, c.covariance()), rel=1e-10)
    # the public e_step on the raw, uncentred values
    _assert_e_step_matches_dense_formula(comps, X)


# -------------------------------------------------------------------- m_step

def test_m_step_k1_uniform_gives_sample_moments():
    rng = np.random.default_rng(5)
    X = rng.multivariate_normal([90, 40, -30], np.diag([2.0, 100.0, 80.0]), size=200)
    comp = m_step(X, np.ones((200, 1)), ridge=0.0)[0]
    np.testing.assert_allclose(comp.mean, X.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(comp.covariance(), np.cov(X.T, bias=True), rtol=1e-12, atol=1e-12)
    assert comp.weight == 1.0


def test_m_step_default_ridge_shifts_covariance_as_documented():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((100, 3))
    comp = m_step(X, np.ones((100, 1)))[0]
    S = np.cov(X.T, bias=True)
    expected = S + 1e-6 * (np.trace(S) / 3.0) * np.eye(3)
    np.testing.assert_allclose(comp.covariance(), expected, rtol=1e-12, atol=1e-14)


def test_m_step_one_hot_partition_gives_per_part_moments():
    rng = np.random.default_rng(9)
    A = rng.multivariate_normal([0, 0, 0], np.eye(3), size=30)
    B = rng.multivariate_normal([50, 10, -10], 4 * np.eye(3), size=20)
    X = np.vstack([A, B])
    resp = np.zeros((50, 2))
    resp[:30, 0] = 1.0
    resp[30:, 1] = 1.0
    comps = m_step(X, resp, ridge=0.0)
    np.testing.assert_allclose(comps[0].mean, A.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(comps[1].mean, B.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(comps[0].covariance(), np.cov(A.T, bias=True), atol=1e-12)
    np.testing.assert_allclose(comps[1].covariance(), np.cov(B.T, bias=True), atol=1e-12)
    assert comps[0].weight == pytest.approx(0.6)
    assert comps[1].weight == pytest.approx(0.4)


def test_m_step_matches_weighted_moment_oracle():
    rng = np.random.default_rng(21)
    X = rng.uniform(-10, 10, size=(8, 3))
    raw = rng.uniform(0.05, 1.0, size=(8, 3))
    resp = raw / raw.sum(axis=1, keepdims=True)
    comps = m_step(X, resp, ridge=0.0)
    for j, comp in enumerate(comps):
        w = resp[:, j]
        mean = (w[:, None] * X).sum(axis=0) / w.sum()
        scatter = np.zeros((3, 3))
        for i in range(8):
            d = X[i] - mean
            scatter += w[i] * np.outer(d, d)
        cov = scatter / w.sum()
        np.testing.assert_allclose(comp.mean, mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(comp.covariance(), cov, rtol=1e-10, atol=1e-12)
        assert comp.weight == pytest.approx(w.sum() / 8, rel=1e-12)


def test_m_step_empty_column_raises():
    X = np.random.default_rng(0).standard_normal((10, 3))
    resp = np.zeros((10, 2))
    resp[:, 0] = 1.0
    with pytest.raises(EmptyCluster):
        m_step(X, resp)


# -------------------------------------------------------------------- fit_em

def test_fit_em_recovers_two_far_components():
    rng = np.random.default_rng(3)
    X = np.vstack([
        rng.multivariate_normal([0, 0, 0], np.eye(3) * 1e-4, size=500),
        rng.multivariate_normal([50, 50, 50], np.eye(3) * 1e-4, size=500),
    ])
    fit = fit_em(X, 2, EmConfig(seed=1, restarts=4))
    means = fit.means()[np.argsort(fit.means()[:, 0])]
    assert np.abs(means[0] - 0).max() < 0.1
    assert np.abs(means[1] - 50).max() < 0.1
    assert np.abs(fit.weights() - 0.5).max() < 0.02


def test_fit_em_k1_is_sample_moments_any_seed():
    rng = np.random.default_rng(8)
    X = rng.multivariate_normal([85, 20, -15], np.diag([1.5, 90.0, 70.0]), size=300)
    S = np.cov(X.T, bias=True)
    ridged = S + 1e-6 * (np.trace(S) / 3.0) * np.eye(3)
    for seed in (0, 1, 99):
        fit = fit_em(X, 1, EmConfig(seed=seed))
        np.testing.assert_allclose(fit.components[0].mean, X.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(fit.components[0].covariance(), ridged,
                                   rtol=1e-10, atol=1e-10)


def test_fit_em_deterministic_rerun():
    X, _, _ = three_separated_gaussians(seed=2, n_per=60)
    f1 = fit_em(X, 3, EmConfig(seed=5))
    f2 = fit_em(X, 3, EmConfig(seed=5))
    assert_fits_identical(f1, f2)


def test_fit_em_too_few_points():
    X = np.zeros((7, 3))
    with pytest.raises(TooFewPoints):
        fit_em(X, 2, EmConfig(seed=0))


def test_fit_em_degenerate_data_raises():
    # all rows identical: every restart collapses to zero variance
    X = np.tile([90.0, 10.0, -5.0], (12, 1))
    with pytest.raises(AllRestartsDegenerate):
        fit_em(X, 1, EmConfig(seed=0, restarts=3))
    # the third column exactly linear in the other two: at ridge=0 no
    # component covariance factors, and nothing else regularizes it
    rng = np.random.default_rng(0)
    x0, x1 = rng.normal(90, 2, 200), rng.normal(2000, 100, 200)
    X = np.column_stack([x0, x1, 3 * x0 - 0.01 * x1])
    with pytest.raises(AllRestartsDegenerate, match="not positive definite"):
        fit_em(X, 2, EmConfig(ridge=0.0))


# ------------------------------------------------------- short-EM schedule

@pytest.mark.parametrize("k, restarts, max_iter", [
    (2, 8, 1000),   # every restart converges within SHORT_ITER
    (4, 1, 1000),   # one restart, run on through the long phase
    (6, 1, 1000),
    (4, 8, 5),      # max_iter below SHORT_ITER: the short phase is the whole budget
])
def test_fit_em_matches_full_em_reference_exactly(k, restarts, max_iter):
    X, _, _ = three_separated_gaussians(seed=2, n_per=60)
    config = EmConfig(seed=5, restarts=restarts, max_iter=max_iter)
    assert_fits_identical(fit_em(X, k, config), reference_fit_em(X, k, config))


def test_fit_em_budget_below_short_phase():
    ds, _, _ = archetype_pitcher(400, seed=11)
    X = ds.to_matrix()
    fit = fit_em(X, 6, EmConfig(max_iter=5))
    assert not fit.converged
    assert fit.iterations == 5
    # resp and ll describe the final parameters, not the ones before them
    resp, ll = e_step(fit.components, X)
    assert ll == pytest.approx(fit.log_likelihood, rel=1e-10)
    np.testing.assert_allclose(resp, fit.responsibilities, atol=1e-9)


def test_fit_em_default_config_long_phase_within_budget():
    ds, _, _ = archetype_pitcher(400, seed=11)
    config = EmConfig()
    fit = fit_em(ds, 6, config)
    assert SHORT_ITER < fit.iterations <= config.max_iter
    assert len(fit.ll_trace) == fit.iterations + 1


def test_ll_decrease_max_is_largest_drop_in_trace():
    # a constant column: the per-iteration ridge makes the log-likelihood drop
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(90, 2, 200), rng.normal(50, 10, 200), np.full(200, 5.0)])
    fit = fit_em(X, 2, EmConfig())
    drops = [a - b for a, b in zip(fit.ll_trace, fit.ll_trace[1:])]
    assert fit.ll_decrease_max == max(drops) > 0


def _fail_after_short_phase(monkeypatch, fail_calls):
    """Make _m_stack raise EmptyCluster on the given calls of the long phase
    (call 1 is the winner's first long-phase M-step). The long phase is the
    _iterate call whose budget is max_iter, which here exceeds SHORT_ITER; it
    steps a group of one, so each of its steps is one _m_stack call."""
    real_iterate, real_m_stack = mixture._iterate, mixture._m_stack
    count = [0]

    def m_stack(*args, **kwargs):
        count[0] += 1
        if count[0] in fail_calls:
            raise EmptyCluster("injected")
        return real_m_stack(*args, **kwargs)

    def iterate(F, runs, config, until):
        if until == config.max_iter:
            monkeypatch.setattr(mixture, "_m_stack", m_stack)
        return real_iterate(F, runs, config, until)

    monkeypatch.setattr(mixture, "_iterate", iterate)


def test_long_phase_failure_continues_next_best_restart(monkeypatch):
    ds, _, _ = archetype_pitcher(400, seed=11)
    config = EmConfig(seed=0, restarts=3)
    ref = reference_restarts(ds, 6, config)
    assert all(f is not None and f.iterations > SHORT_ITER for f in ref)
    # short-phase ranking: the log-likelihood after SHORT_ITER iterations
    order = sorted(range(3), key=lambda r: -ref[r].ll_trace[SHORT_ITER])
    _fail_after_short_phase(monkeypatch, {1})
    assert_fits_identical(fit_em(ds, 6, config), ref[order[1]])


def test_long_phase_failures_exhaust_every_restart(monkeypatch):
    ds, _, _ = archetype_pitcher(400, seed=11)
    # every long phase fails at its first M-step
    _fail_after_short_phase(monkeypatch, {1, 2, 3})
    with pytest.raises(AllRestartsDegenerate) as info:
        fit_em(ds, 6, EmConfig(seed=0, restarts=3))
    message = str(info.value)
    assert all(f"restart {r}: injected" in message for r in range(3))


# ---------------------------------------------------------- stacked restarts

def _archetype_subset(n, seed):
    """An 80% subsample of an archetype pitcher, as a stability replication fits."""
    X = archetype_pitcher(n, seed=seed)[0].to_matrix()
    return X[np.random.default_rng(seed).permutation(n)[:int(0.8 * n)]]


def _outlier_data(seed):
    """100 spread rows plus two far points repeated 8 times each: some
    restarts collapse a component onto a repeated point mid-short-phase."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(size=(100, 3)) * [2, 10, 10],
                      np.repeat(rng.normal(size=(2, 3)) * [2, 10, 10] + [6, 30, -30],
                                8, axis=0)])


def _duplicated_data():
    """10 distinct rows, 30 copies each."""
    rng = np.random.default_rng(0)
    return np.repeat(rng.normal(size=(10, 3)) * [2, 10, 10] + [90, 50, 0], 30, axis=0)


def _fit_or_message(X, k, config, stack_elements=None):
    """The fit, or the AllRestartsDegenerate message; optionally with
    STACK_ELEMENTS replaced."""
    with pytest.MonkeyPatch.context() as mp:
        if stack_elements is not None:
            mp.setattr(mixture, "STACK_ELEMENTS", stack_elements)
        try:
            return fit_em(X, k, config)
        except AllRestartsDegenerate as exc:
            return str(exc)


def _assert_same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
    else:
        assert_fits_identical(a, b)


STACK_CASES = {
    "n120_k5": (lambda: _archetype_subset(150, 1), 5, 1),   # all 8 restarts in one group
    "n240_k5": (lambda: _archetype_subset(300, 2), 5, 2),
    "n240_k2": (lambda: _archetype_subset(300, 3), 2, 3),
    "n960_k5": (lambda: _archetype_subset(1200, 4), 5, 4),  # groups of 3, 3 and 2
    "n400_k6": (lambda: archetype_pitcher(400, seed=11)[0].to_matrix(), 6, 0),
    "outlier_k4": (lambda: _outlier_data(6), 4, 6),         # restart 7 fails at iteration 12
    "outlier_k2": (lambda: _outlier_data(20), 2, 20),       # restart 7 fails at iteration 9
    "outlier_k3": (lambda: _outlier_data(27), 3, 27),       # restart 0 fails at iteration 16
    "duplicated_k5": (lambda: _duplicated_data(), 5, 0),    # every restart fails
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_restarts_match_one_restart_per_group(case):
    make, k, seed = STACK_CASES[case]
    X, config = make(), EmConfig(seed=seed)
    _assert_same_outcome(_fit_or_message(X, k, config),
                         _fit_or_message(X, k, config, stack_elements=0))


def test_stack_cases_fail_some_restarts_inside_a_group(monkeypatch):
    """The outlier cases fail some, not all, restarts of a multi-restart group
    after their first step; the duplicated case fails every restart."""
    real = mixture._iterate
    groups = []

    def iterate(F, runs, config, until):
        real(F, runs, config, until)
        if len(runs) > 1:
            groups.append([(run.failure is not None, len(run.trace) - 1) for run in runs])

    monkeypatch.setattr(mixture, "_iterate", iterate)
    for case in ("outlier_k4", "outlier_k2", "outlier_k3"):
        make, k, seed = STACK_CASES[case]
        groups.clear()
        fit_em(make(), k, EmConfig(seed=seed))
        assert len(groups) == 1 and len(groups[0]) == 8
        assert any(failed and iterations > 0 for failed, iterations in groups[0])
        assert not all(failed for failed, _ in groups[0])
    make, k, seed = STACK_CASES["duplicated_k5"]
    message = _fit_or_message(make(), k, EmConfig(seed=seed))
    assert isinstance(message, str)
    assert message.startswith("all 8 restarts degenerate: restart 0: ")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 60), k=st.integers(1, 4), seed=st.integers(0, 10**6),
       restarts=st.integers(1, 8), decimals=st.integers(0, 2))
def test_stacking_is_invisible_on_small_random_data(n, k, seed, restarts, decimals):
    # rounding repeats rows, which makes some restarts degenerate
    X = np.round(np.random.default_rng(seed).normal(size=(n, 3)) * [2, 10, 10], decimals)
    config = EmConfig(seed=seed, restarts=restarts)
    _assert_same_outcome(_fit_or_message(X, k, config),
                         _fit_or_message(X, k, config, stack_elements=0))


def test_stack_width_keeps_peak_memory_of_one_restart_per_group():
    X = archetype_pitcher(1500, seed=3)[0].to_matrix()

    def traced_peak(stack_elements=None):
        tracemalloc.start()
        try:
            _fit_or_message(X, 9, EmConfig(), stack_elements)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak() <= 1.3 * traced_peak(stack_elements=0)


def test_e_stack_returns_nothing_that_lives_in_its_work_buffer():
    comps = [random_spd_component(s, 0.25) for s in range(4)]
    X1 = mixture._features(np.random.default_rng(0).normal(size=(50, 3)))[6:]
    packed = [np.stack([a, a[::-1]]) for a in mixture._pack(comps)]
    work = np.empty(2 * 2 * 4 * 3 * 50)
    respT, ll = mixture._e_stack(*packed, X1, work)
    kept = respT.copy(), ll.copy()
    assert not np.shares_memory(respT, work) and not np.shares_memory(ll, work)
    again = mixture._e_stack(*[a[::-1] for a in packed], X1, work)
    np.testing.assert_array_equal(respT, kept[0])
    np.testing.assert_array_equal(ll, kept[1])
    for got, fresh in zip(again, mixture._e_stack(*[a[::-1] for a in packed], X1)):
        np.testing.assert_array_equal(got, fresh)


def test_fit_responsibilities_survive_a_later_fit_of_the_same_shape():
    # a is the outlier_k4 stack case: one restart fails inside its group, so
    # the group's members also step one at a time
    a = fit_em(_outlier_data(6), 4, EmConfig(seed=6))
    kept = a.responsibilities.copy()
    b = fit_em(_outlier_data(20), 4, EmConfig(seed=20))
    assert b.responsibilities.shape == kept.shape
    np.testing.assert_array_equal(a.responsibilities, kept)
    returned = [b.responsibilities] + [arr for c in b.components
                                       for arr in (c.mean, c.stddev, c.correlation)]
    assert not any(np.shares_memory(a.responsibilities, arr) for arr in returned)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc returns large freed blocks to the kernel")
def test_select_k_scan_does_not_fault_in_fresh_temporaries_every_step():
    # in a fresh process, without pitchmbc.cli.main: EM temporaries allocated
    # and freed on every step fault in anew each time (17k-31k minor faults
    # for this scan under glibc 2.36); one scratch buffer per group takes ~1k
    script = ("import resource\n"
              "from pitchmbc.selection import select_k\n"
              "from pitchmbc.synth import archetype_pitcher\n"
              "data = archetype_pitcher(1500, seed=3)[0]\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "select_k(data, 1, 9)\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5000


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_short_em_keeps_full_em_optimum_and_selection(seed):
    X = archetype_pitcher(1500, seed=seed)[0].to_matrix()
    n = X.shape[0]
    config = EmConfig()
    ref = [reference_fit_em(X, k, config) for k in range(1, 10)]
    result = select_k(X, 1, 9, em=config)
    assert not result.failures
    for k in range(1, 6):
        assert result.scores[k - 1].log_likelihood == pytest.approx(
            ref[k - 1].log_likelihood, rel=1e-9, abs=0)
    ref_idx, _ = choose_best(ref, n, "bicadj", math.log(n))
    assert result.best.k == ref[ref_idx].k


# ---------------------------------------------------------- posterior_assign

def test_posterior_assign_dominant_component():
    # anchor 10+ stddevs from the rival; verify with the dense formula
    a = make_component([0, 0, 0], stddev=(1, 1, 1), weight=0.5)
    b = make_component([20, 0, 0], stddev=(1, 1, 1), weight=0.5)
    fit = FittedMixture(components=(a, b), k=2, log_likelihood=0.0, iterations=0,
                        converged=True, responsibilities=None, seed=0)
    idx, post = posterior_assign(fit, [0, 0, 0])
    assert idx == 0
    assert post[0] > 0.99
    dens = [math.exp(dense_mvn_logpdf([0, 0, 0], c.mean, c.covariance())) * c.weight
            for c in (a, b)]
    np.testing.assert_allclose(post, np.array(dens) / sum(dens), rtol=1e-10)


def test_posterior_assign_k1():
    fit = FittedMixture(components=(make_component([1, 2, 3]),), k=1,
                        log_likelihood=0.0, iterations=0, converged=True,
                        responsibilities=None, seed=0)
    idx, post = posterior_assign(fit, [9, 9, 9])
    assert idx == 0
    assert post.tolist() == [1.0]


def test_posterior_assign_tie_breaks_to_lower_index():
    a = make_component([-3, 0, 0], weight=0.5)
    b = make_component([3, 0, 0], weight=0.5)
    fit = FittedMixture(components=(a, b), k=2, log_likelihood=0.0, iterations=0,
                        converged=True, responsibilities=None, seed=0)
    idx, post = posterior_assign(fit, [0, 0, 0])
    assert idx == 0
    assert post[0] == pytest.approx(0.5, abs=1e-15)


# --------------------------------------------------------------- invariants

def test_param_count_formula():
    assert [param_count(k) for k in (1, 2, 5)] == [9, 19, 49]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_em_monotonic_and_invariants_on_random_fits(seed):
    means = [[0, 0, 0], [4, 2, 0], [0, 5, 3]]
    covs = [np.eye(3), np.eye(3) * 2, np.diag([1.0, 2.0, 0.5])]
    X, _ = gaussian_blobs(means, covs, [50, 50, 50], seed=seed)
    fit = fit_em(X, 3, EmConfig(seed=seed, restarts=3, max_iter=400))
    assert fit.ll_decrease_max <= 1e-8
    assert abs(fit.weights().sum() - 1.0) < 1e-10
    resp = fit.responsibilities
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-10)
    assert resp.min() >= 0.0 and resp.max() <= 1.0
    for comp in fit.components:
        np.linalg.cholesky(comp.covariance())  # positive definite
    # stored log-likelihood consistent with a recompute from the components
    _, ll = e_step(fit.components, X)
    assert ll == pytest.approx(fit.log_likelihood, rel=1e-8)


def test_assignment_permutation_invariance():
    X, _, _ = three_separated_gaussians(seed=4, n_per=50)
    fit = fit_em(X, 3, EmConfig(seed=0, restarts=2))
    x = X[17]
    idx, post = posterior_assign(fit, x)
    perm = [2, 0, 1]
    permuted = FittedMixture(
        components=tuple(fit.components[j] for j in perm), k=3,
        log_likelihood=fit.log_likelihood, iterations=fit.iterations,
        converged=fit.converged, responsibilities=None, seed=fit.seed)
    idx_p, post_p = posterior_assign(permuted, x)
    np.testing.assert_allclose(post_p, post[perm], rtol=1e-12)
    assert perm[idx_p] == idx


def test_scale_consistency():
    X, _, _ = three_separated_gaussians(seed=6, n_per=80)
    c = 2.5
    f1 = fit_em(X, 3, EmConfig(seed=3))
    f2 = fit_em(X * c, 3, EmConfig(seed=3))
    order1 = np.argsort(f1.means()[:, 0])
    order2 = np.argsort(f2.means()[:, 0])
    np.testing.assert_allclose(f2.means()[order2], f1.means()[order1] * c, rtol=1e-6, atol=1e-6)
    for j1, j2 in zip(order1, order2):
        np.testing.assert_allclose(f2.components[j2].stddev,
                                   f1.components[j1].stddev * c, rtol=1e-6)
        np.testing.assert_allclose(f2.components[j2].correlation,
                                   f1.components[j1].correlation, atol=1e-6)
    assert np.array_equal(np.take(order1.argsort(), f1.assignments()),
                          np.take(order2.argsort(), f2.assignments()))


def test_e_step_rejects_bad_shapes():
    comp = make_component([0, 0, 0])
    with pytest.raises(ValueError):
        e_step([comp], np.zeros((4, 2)))
    with pytest.raises(ValueError):
        m_step(np.zeros((4, 3)), np.ones((5, 1)))

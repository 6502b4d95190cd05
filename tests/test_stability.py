import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_alignment
from pitchmbc.errors import DimensionMismatch, TooFewPoints
from pitchmbc.mixture import EmConfig, fit_em
from pitchmbc.stability import (align_clusters, aligned_agreement, draw_split,
                                stability_run, write_stability_csv)
from pitchmbc.synth import archetype_pitcher, gaussian_blobs


# ------------------------------------------------------------ align_clusters

def test_align_identity():
    ref = np.array([0, 1, 2, 0, 1, 2])
    perm = align_clusters(ref, ref, 3)
    assert perm.tolist() == [0, 1, 2]
    _, agree = aligned_agreement(ref, ref, 3)
    assert agree == 1.0


def test_align_cyclic_shift():
    ref = np.array([0, 0, 1, 1, 2, 2])
    cand = (ref + 1) % 3
    perm = align_clusters(ref, cand, 3)
    # candidate label c must map back to c - 1 (mod 3)
    assert perm.tolist() == [2, 0, 1]
    assert np.array_equal(perm[cand], ref)


def test_align_random_three_clusters_vs_bruteforce():
    rng = np.random.default_rng(30)
    ref = rng.integers(0, 3, size=30)
    cand = rng.integers(0, 3, size=30)
    perm = align_clusters(ref, cand, 3)
    expect_perm, expect_score = brute_force_alignment(ref, cand, 3)
    assert int(np.sum(perm[cand] == ref)) == expect_score
    assert perm.tolist() == expect_perm.tolist()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.integers(6, 40), st.integers(0, 10**6))
def test_align_matches_bruteforce_including_ties(k, n, seed):
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, k, size=n)
    cand = rng.integers(0, k, size=n)
    perm = align_clusters(ref, cand, k)
    expect_perm, expect_score = brute_force_alignment(ref, cand, k)
    assert int(np.sum(perm[cand] == ref)) == expect_score
    # lexicographically smallest among equally good permutations
    assert perm.tolist() == expect_perm.tolist()
    assert sorted(perm.tolist()) == list(range(k))


def test_align_recovers_planted_permutation_at_k20():
    # tie-break weights reach 20**20, past int64; a wrapped weight loses the plant
    k = 20
    plant = np.random.default_rng(20).permutation(k)
    ref = np.random.default_rng(21).permutation(np.repeat(np.arange(k), 3))
    perm = align_clusters(ref, plant[ref], k)
    assert perm.tolist() == np.argsort(plant).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(6, 30), st.integers(0, 10**6))
def test_aligned_agreement_at_least_identity(k, n, seed):
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, k, size=n)
    cand = rng.integers(0, k, size=n)
    _, agree = aligned_agreement(ref, cand, k)
    identity = float(np.mean(cand == ref))
    assert 0.0 <= agree <= 1.0
    assert agree >= identity


def test_align_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        align_clusters([0, 1], [0, 1, 2], 3)
    with pytest.raises(DimensionMismatch):
        align_clusters([], [], 2)
    with pytest.raises(ValueError):
        align_clusters([0, 5], [0, 1], 3)


# ---------------------------------------------------------------- draw_split

@settings(max_examples=60)
@given(st.integers(10, 200), st.floats(0.1, 0.9), st.integers(0, 100), st.integers(0, 50))
def test_split_disjoint_union(n, split, seed, rep):
    major, minor = draw_split(n, split, seed, rep)
    assert len(major) == int(round(split * n))
    combined = np.concatenate([major, minor])
    assert len(np.unique(combined)) == n
    assert set(combined.tolist()) == set(range(n))
    again_major, again_minor = draw_split(n, split, seed, rep)
    assert np.array_equal(major, again_major) and np.array_equal(minor, again_minor)


# ------------------------------------------------------------- stability_run

def test_stability_far_separated_blobs_near_perfect():
    means = [[0, 0, 0], [40, 0, 0], [0, 50, 25]]
    covs = [np.eye(3)] * 3
    X, _ = gaussian_blobs(means, covs, [300, 300, 300], seed=13)
    em = EmConfig(seed=13, restarts=2, max_iter=200)
    report = stability_run(X, fit_em(X, 3, em), split=0.8, replications=20, em_config=em)
    assert report.mean_80 >= 0.99
    assert report.mean_20 >= 0.99
    assert report.failures == ()
    assert len(report.per_replication) == 20


def test_stability_deterministic_rerun():
    ds, _, _ = archetype_pitcher(120, seed=3)
    kwargs = dict(split=0.8, replications=5, em_config=EmConfig(seed=11, restarts=2, max_iter=200))
    reference = fit_em(ds, 4, kwargs["em_config"])
    a = stability_run(ds, reference, **kwargs)
    b = stability_run(ds, reference, **kwargs)
    assert a == b


def test_stability_mean_and_stderr_formulas():
    ds, _, _ = archetype_pitcher(120, seed=5)
    em = EmConfig(seed=2, restarts=2, max_iter=200)
    report = stability_run(ds, fit_em(ds, 3, em), split=0.8, replications=8, em_config=em)
    a80 = np.array([a for a, _ in report.per_replication])
    a20 = np.array([b for _, b in report.per_replication])
    assert report.mean_80 == pytest.approx(a80.mean(), abs=1e-12)
    assert report.mean_20 == pytest.approx(a20.mean(), abs=1e-12)
    assert report.stderr_80 == pytest.approx(a80.std(ddof=1) / math.sqrt(len(a80)), abs=1e-12)
    assert report.stderr_20 == pytest.approx(a20.std(ddof=1) / math.sqrt(len(a20)), abs=1e-12)
    assert all(0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 for a, b in report.per_replication)


def test_stability_records_failed_replications():
    rng = np.random.default_rng(0)
    base = np.array([90.0, 10.0, -5.0])
    X = np.vstack([np.tile(base, (32, 1)), base + rng.standard_normal((8, 3)) * 0.01])
    em = EmConfig(seed=0, restarts=2, max_iter=100)
    report = stability_run(X, fit_em(X, 2, em), split=0.8, replications=6, em_config=em)
    assert len(report.failures) == 5
    assert len(report.per_replication) == 1
    assert len(report.per_replication) + len(report.failures) == report.replications
    assert report.successful_indices() == (0,)
    # one surviving replication: mean defined, stderr pinned to 0
    assert report.stderr_80 == 0.0 and report.stderr_20 == 0.0


def test_stability_too_few_points():
    X = np.random.default_rng(1).standard_normal((30, 3)) * 5
    with pytest.raises(TooFewPoints):
        # minor side has 6 < 8
        stability_run(X, fit_em(X, 2, EmConfig(seed=0)), split=0.8, replications=3,
                      em_config=EmConfig(seed=0))


def test_stability_validates_arguments():
    X = np.random.default_rng(1).standard_normal((100, 3))
    reference = fit_em(X, 2, EmConfig(seed=0))
    with pytest.raises(ValueError):
        stability_run(X, reference, split=1.0)
    with pytest.raises(ValueError):
        stability_run(X, reference, replications=0)


def test_stability_pitcher_id_from_dataset():
    ds, _, _ = archetype_pitcher(120, seed=6, pitcher_id="wakefield")
    em = EmConfig(seed=1, restarts=2, max_iter=100)
    report = stability_run(ds, fit_em(ds, 2, em), split=0.8, replications=2, em_config=em)
    assert report.pitcher_id == "wakefield"


def test_stability_reference_must_cover_the_data():
    X = np.random.default_rng(4).standard_normal((100, 3))
    reference = fit_em(X[:60], 2, EmConfig(seed=0))
    with pytest.raises(DimensionMismatch):
        stability_run(X, reference, replications=2)
    with pytest.raises(DimensionMismatch):  # archived fits carry no responsibilities
        stability_run(X[:60], replace(reference, responsibilities=None), replications=2)


def test_stability_csv_rows():
    ds, _, _ = archetype_pitcher(120, seed=7)
    em = EmConfig(seed=3, restarts=2, max_iter=200)
    report = stability_run(ds, fit_em(ds, 3, em), split=0.8, replications=4, em_config=em)
    buf = io.StringIO()
    write_stability_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("pitcher_id,k,row,agreement_80,agreement_20")
    assert len(lines) == 1 + 4 + 1  # header + replications + summary
    assert lines[-1].split(",")[2] == "summary"

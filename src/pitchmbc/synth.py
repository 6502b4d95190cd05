"""Seeded synthetic pitch generators.

Real MLB pitch data is not bundled, so tests, scripts, and demos run on
synthetic analogues: Gaussian blobs in (start_speed, back_spin, side_spin)
space with realistic archetype locations. The ``exact`` option re-colors
each blob so its sample mean and (1/n) covariance hit the targets exactly,
which removes sampling noise from moment-recovery checks.
"""

from __future__ import annotations

import numpy as np

from .ingest import PitchDataset

# name -> (mean (speed, back, side), stddev) in mph / spin units
ARCHETYPES: dict[str, tuple[tuple[float, float, float], tuple[float, float, float]]] = {
    "four_seam": ((91.5, 120.0, -38.0), (0.8, 14.0, 12.0)),
    "sinker": ((89.2, 62.0, -62.0), (0.8, 13.0, 13.0)),
    "changeup": ((83.2, 82.0, -44.0), (0.9, 13.0, 12.0)),
    "slider": ((84.5, 8.0, 28.0), (0.9, 13.0, 12.0)),
    "curveball": ((77.0, -78.0, 55.0), (1.0, 14.0, 13.0)),
}

DEFAULT_ARCHETYPE_WEIGHTS = (0.30, 0.20, 0.18, 0.17, 0.15)


def exact_moment_sample(rng: np.random.Generator, n: int, mean, cov) -> np.ndarray:
    """n draws whose sample mean and (1/n) sample covariance equal the targets.

    Whitens an ordinary Gaussian sample against its own empirical moments,
    then re-colors with the target Cholesky factor. Needs n >= 4.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if n < 4:
        raise ValueError("exact-moment sampling needs n >= 4")
    raw = rng.standard_normal((n, 3))
    raw -= raw.mean(axis=0)
    empirical = raw.T @ raw / n
    white = raw @ np.linalg.inv(np.linalg.cholesky(empirical)).T
    return mean + white @ np.linalg.cholesky(cov).T


def gaussian_blobs(means, covs, counts, seed: int = 0, exact: bool = False,
                   shuffle: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Gaussian blobs; returns (X, component_labels)."""
    rng = np.random.default_rng(seed)
    parts = []
    labels = []
    for j, (mean, cov, count) in enumerate(zip(means, covs, counts)):
        mean = np.asarray(mean, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        if exact:
            parts.append(exact_moment_sample(rng, count, mean, cov))
        else:
            parts.append(rng.multivariate_normal(mean, cov, size=count))
        labels.append(np.full(count, j, dtype=np.int64))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    if shuffle:
        order = rng.permutation(X.shape[0])
        X, y = X[order], y[order]
    return X, y


def three_separated_gaussians(seed: int = 0, n_per: int = 300, sigma: float = 1.0,
                              exact: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three spherical components with pairwise mean separation >= 8 sigma."""
    means = np.array([
        [0.0, 0.0, 0.0],
        [10.0 * sigma, 0.0, 0.0],
        [0.0, 12.0 * sigma, 6.0 * sigma],
    ])
    covs = [np.eye(3) * sigma**2] * 3
    X, y = gaussian_blobs(means, covs, [n_per] * 3, seed=seed, exact=exact)
    return X, y, means


def _sample_pitcher(n: int, seed: int, pitcher_id: str, names: list[str], means, sds, weights,
                    with_reference: bool = True) -> tuple[PitchDataset, np.ndarray, list[str]]:
    """n pitches from independent normal components (row j of ``means`` and
    ``sds`` is component ``names[j]``, drawn with probability ``weights[j]``);
    returns (dataset, component_ids, names)."""
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(names), size=n, p=weights)
    X = means[comp] + rng.standard_normal((n, 3)) * sds[comp]
    refs = [names[j] if with_reference else "" for j in comp]
    return PitchDataset.from_columns(X, (pitcher_id,) * n, reference_labels=refs), comp, names


def archetype_pitcher(n: int, seed: int = 0, pitcher_id: str = "synth5",
                      weights=None, spread: float = 1.0,
                      with_reference: bool = True) -> tuple[PitchDataset, np.ndarray, list[str]]:
    """A realistic 5-archetype pitcher; returns (dataset, component_ids, names).

    ``spread`` scales every archetype's standard deviations, so smaller
    values give tighter, more separable clusters. The generator's archetype
    name rides along as each record's reference_label, standing in for an
    external classifier's output.
    """
    names = list(ARCHETYPES)
    weights = np.asarray(weights if weights is not None else DEFAULT_ARCHETYPE_WEIGHTS)
    means = np.array([ARCHETYPES[name][0] for name in names])
    sds = np.array([ARCHETYPES[name][1] for name in names]) * spread
    return _sample_pitcher(n, seed, pitcher_id, names, means, sds, weights / weights.sum(),
                           with_reference)


def curveball_evolution_pitcher(n: int, seed: int = 0,
                                pitcher_id: str = "synth-evo") -> tuple[PitchDataset, np.ndarray, list[str]]:
    """Anchor fastball plus two curveball clusters 2 mph apart (season drift)."""
    names = ["four_seam", "curveball_early", "curveball_late"]
    means = np.array([
        [91.5, 120.0, -38.0],
        [77.5, -75.0, 52.0],
        [75.5, -82.0, 60.0],
    ])
    sds = np.array([
        [0.8, 12.0, 10.0],
        [0.7, 11.0, 9.0],
        [0.7, 11.0, 9.0],
    ])
    return _sample_pitcher(n, seed, pitcher_id, names, means, sds, np.array([0.4, 0.3, 0.3]))


def thin_split_matrix(n_half: int, rho: float = 0.92, dz: float = 0.9,
                      seed: int = 0) -> np.ndarray:
    """One apparent cluster hiding two thin, highly correlated halves.

    Each half has unit marginals with speed/back-spin correlation +rho or
    -rho and a +/-dz offset on the third axis; pooled, the correlations
    cancel and the cloud looks like a single benign cluster. Exact-moment
    coloring keeps the fitted correlations at the target, so the
    split-vs-unsplit criterion comparison is stable.
    """
    rng = np.random.default_rng(seed)
    corr_pos = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    corr_neg = np.array([[1.0, -rho, 0.0], [-rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    half_a = exact_moment_sample(rng, n_half, (0.0, 0.0, dz), corr_pos)
    half_b = exact_moment_sample(rng, n_half, (0.0, 0.0, -dz), corr_neg)
    X = np.vstack([half_a, half_b])
    return X[rng.permutation(X.shape[0])]

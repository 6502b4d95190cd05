"""3-D Gaussian mixture model fitted by Expectation-Maximization.

Each component is parameterized the way the clusters are reasoned about
downstream: a mean vector, per-dimension standard deviations, and the
intra-cluster correlation matrix, plus a mixture weight. The implied
covariance is diag(stddev) @ correlation @ diag(stddev).

All densities go through a Cholesky factorization; nothing inverts or takes
the determinant of a covariance directly. The EM inner loop works on packed
(weights, means, covariances) arrays for speed; the component dataclasses
are built once per fit. Fits are deterministic functions of
(data, k, config): every restart derives its generator from
(config.seed, restart_index).

Restarts follow a two-phase short-EM schedule (Biernacki, Celeux & Govaert
2003, CSDA 41): all restarts run SHORT_ITER iterations, then only the one
with the highest log-likelihood runs on to convergence. One loop,
``_iterate``, serves both phases, so the winner simply resumes its own
state. Losing restarts above the true k would otherwise spend most of the
fit time in slow convergence tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllRestartsDegenerate, EmptyCluster, SingularCovariance, TooFewPoints

LOG_2PI = math.log(2.0 * math.pi)
# iterations every restart runs before only the best one continues
SHORT_ITER = 20
# the fewest points per mixture component a fit accepts
POINTS_PER_COMPONENT = 4


def param_count(k: int) -> int:
    """Free parameters: 3 means + 3 stddevs + 3 correlations per component,
    plus k-1 weights."""
    return 10 * k - 1


@dataclass(frozen=True)
class EmConfig:
    """Knobs for one EM fit. ``ridge`` scales the covariance regularizer."""

    seed: int = 0
    restarts: int = 8
    max_iter: int = 1000
    tol: float = 1e-8
    ridge: float = 1e-6

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iter", 1), ("tol", 0), ("ridge", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class MixtureComponent:
    """One cluster: mean, per-dimension stddev, correlation matrix, weight."""

    mean: np.ndarray
    stddev: np.ndarray
    correlation: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "stddev", np.asarray(self.stddev, dtype=np.float64))
        object.__setattr__(self, "correlation", np.asarray(self.correlation, dtype=np.float64))
        if self.mean.shape != (3,) or self.stddev.shape != (3,) or self.correlation.shape != (3, 3):
            raise ValueError("component must be 3-dimensional")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("non-finite mean")
        if not (np.all(self.stddev > 0) and np.all(np.isfinite(self.stddev))):
            raise ValueError("stddev entries must be positive and finite")
        corr = self.correlation
        if not np.array_equal(corr, corr.T):
            raise ValueError("correlation matrix must be symmetric")
        if not np.array_equal(np.diag(corr), np.ones(3)):
            raise ValueError("correlation diagonal must be exactly 1")
        off = corr[~np.eye(3, dtype=bool)]
        if np.any(np.abs(off) > 1.0):
            raise ValueError("correlations must lie in [-1, 1]")
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"weight {self.weight} outside (0, 1]")

    def covariance(self) -> np.ndarray:
        """Implied covariance diag(s) @ R @ diag(s)."""
        return self.correlation * np.outer(self.stddev, self.stddev)

    def spin_variance(self) -> float:
        """Back-spin variance plus side-spin variance (labeling's width measure)."""
        return float(self.stddev[1] ** 2 + self.stddev[2] ** 2)


@dataclass(frozen=True, eq=False)
class FittedMixture:
    """A fitted k-component mixture plus fit diagnostics.

    ``responsibilities`` is the n-by-k posterior membership matrix for the
    training data (None when the fit was loaded from an archive).
    ``ll_trace`` holds the log-likelihood observed at every E-step and
    ``ll_decrease_max`` the largest decrease between consecutive entries
    (0.0 for a perfectly monotone fit), checked on every fit.
    """

    components: tuple[MixtureComponent, ...]
    k: int
    log_likelihood: float
    iterations: int
    converged: bool
    responsibilities: np.ndarray | None
    seed: int
    ll_trace: tuple[float, ...] = ()
    ll_decrease_max: float = 0.0

    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def means(self) -> np.ndarray:
        return np.stack([c.mean for c in self.components])

    def assignments(self) -> np.ndarray:
        """Hard training-data assignments (argmax responsibility per row)."""
        if self.responsibilities is None:
            raise ValueError("fit carries no responsibilities (loaded from archive?)")
        return np.argmax(self.responsibilities, axis=1)

    def total_abs_correlation(self) -> float:
        """Sum over components of |rho| over the three off-diagonal pairs."""
        total = 0.0
        for c in self.components:
            r = c.correlation
            total += abs(r[0, 1]) + abs(r[0, 2]) + abs(r[1, 2])
        return float(total)


def _as_matrix(data) -> np.ndarray:
    X = data.to_matrix() if hasattr(data, "to_matrix") else np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) matrix, got shape {X.shape}")
    return X


def _cholesky(covs: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (k, 3, 3) stack. A component that does not
    factor is retried once with a tiny trace-scaled bump."""
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(covs)
    for j, cov in enumerate(covs):
        try:
            out[j] = np.linalg.cholesky(cov)
            continue
        except np.linalg.LinAlgError:
            pass
        bump = 1e-10 * (np.trace(cov) / 3.0)
        if not (np.isfinite(bump) and bump > 0):
            raise SingularCovariance("covariance has non-positive trace")
        try:
            out[j] = np.linalg.cholesky(cov + bump * np.eye(3))
        except np.linalg.LinAlgError:
            raise SingularCovariance(
                "covariance not positive definite after regularization") from None
    return out


def _e_core(weights: np.ndarray, means: np.ndarray, covs: np.ndarray,
            X: np.ndarray) -> tuple[np.ndarray, float]:
    """Responsibilities and log-likelihood from packed parameters."""
    L = _cholesky(covs)
    x0, x1, x2 = X[:, 0], X[:, 1], X[:, 2]
    # forward substitution z = L^-1 (x - mean), broadcast (k, n)
    z0 = (x0 - means[:, 0][:, None]) / L[:, 0, 0][:, None]
    z1 = (x1 - means[:, 1][:, None] - L[:, 1, 0][:, None] * z0) / L[:, 1, 1][:, None]
    z2 = (x2 - means[:, 2][:, None] - L[:, 2, 0][:, None] * z0
          - L[:, 2, 1][:, None] * z1) / L[:, 2, 2][:, None]
    quad = z0 * z0 + z1 * z1 + z2 * z2                 # (k, n)
    half_logdet = np.log(L[:, 0, 0]) + np.log(L[:, 1, 1]) + np.log(L[:, 2, 2])
    logp = quad
    logp *= -0.5
    logp += (np.log(weights) - half_logdet - 1.5 * LOG_2PI)[:, None]
    # max-shifted log-sum-exp over components
    shift = logp.max(axis=0)
    norm = shift + np.log(np.exp(logp - shift[None, :]).sum(axis=0))
    resp = np.exp(logp - norm[None, :]).T              # (n, k)
    return resp, float(norm.sum())


def _xx_features(X: np.ndarray) -> np.ndarray:
    """(n, 9) row-wise outer products x x^T, the M-step sufficient statistic."""
    return (X[:, :, None] * X[:, None, :]).reshape(X.shape[0], 9)


def _m_core(X: np.ndarray, resp: np.ndarray, ridge: float,
            xx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted ML update of (weights, means, covariances), ridge applied;
    ``xx`` is ``_xx_features(X)``."""
    n = X.shape[0]
    mass = resp.sum(axis=0)
    if np.any(mass < 10.0 * np.finfo(np.float64).eps * n):
        j = int(np.argmin(mass))
        raise EmptyCluster(f"component {j} has responsibility mass {mass[j]:.3e}")
    weights = mass / n
    means = (resp.T @ X) / mass[:, None]
    second = (resp.T @ xx).reshape(-1, 3, 3) / mass[:, None, None]
    covs = second - means[:, :, None] * means[:, None, :]
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    trace = covs[:, 0, 0] + covs[:, 1, 1] + covs[:, 2, 2]
    covs = covs + (ridge * (trace / 3.0))[:, None, None] * np.eye(3)[None, :, :]
    var = np.stack([covs[:, 0, 0], covs[:, 1, 1], covs[:, 2, 2]], axis=1)
    if np.any(var <= 0) or not np.all(np.isfinite(covs)):
        raise SingularCovariance("a component collapsed to zero or non-finite variance")
    return weights, means, covs


def _decompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stddev, correlation) from a covariance, cleaned up to exact invariants."""
    stddev = np.sqrt(np.diag(cov))
    corr = cov / np.outer(stddev, stddev)
    corr = np.clip(0.5 * (corr + corr.T), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return stddev, corr


def _pack(components: Sequence[MixtureComponent]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    weights = np.array([c.weight for c in components])
    means = np.stack([c.mean for c in components])
    covs = np.stack([c.covariance() for c in components])
    return weights, means, covs


def _build_components(weights: np.ndarray, means: np.ndarray,
                      covs: np.ndarray) -> tuple[MixtureComponent, ...]:
    out = []
    for j in range(weights.shape[0]):
        stddev, corr = _decompose(covs[j])
        out.append(MixtureComponent(mean=means[j], stddev=stddev,
                                    correlation=corr, weight=float(weights[j])))
    return tuple(out)


def log_density(component: MixtureComponent, x) -> float:
    """Log multivariate normal density of a single 3-vector under a component."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return _e_core(np.ones(1), component.mean[None], component.covariance()[None], x[None])[1]


def e_step(components: Sequence[MixtureComponent], data) -> tuple[np.ndarray, float]:
    """Posterior responsibilities and total log-likelihood.

    responsibility(i, j) is proportional to weight_j * density_j(x_i), with
    rows normalized through the max-shifted log-sum-exp.
    """
    X = _as_matrix(data)
    return _e_core(*_pack(components), X)


def m_step(data, responsibilities: np.ndarray,
           ridge: float = EmConfig.ridge) -> list[MixtureComponent]:
    """Weighted maximum-likelihood update of all components.

    Covariances are the responsibility-weighted scatter about the weighted
    mean (full, unconstrained shape) with ridge * (trace/3) * I added before
    the stddev/correlation decomposition. Raises :class:`EmptyCluster` when a
    responsibility column has (numerically) no mass.
    """
    X = _as_matrix(data)
    resp = np.asarray(responsibilities, dtype=np.float64)
    if resp.ndim != 2 or resp.shape[0] != X.shape[0]:
        raise ValueError("responsibility rows do not match data rows")
    return list(_build_components(*_m_core(X, resp, ridge, _xx_features(X))))


def _seed_centers(Z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted farthest-point seeding (squared-distance sampling)."""
    n = Z.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((Z - Z[chosen[0]]) ** 2, axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((Z - Z[idx]) ** 2, axis=1))
    return Z[chosen]


def _init_params(X: np.ndarray, xx: np.ndarray, k: int, rng: np.random.Generator,
                 ridge: float):
    """Seed k centers on standardized data, hard-assign, one M-step."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    Z = (X - mu) / sd
    centers = _seed_centers(Z, k, rng)
    d2 = np.sum((Z[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    hard = np.argmin(d2, axis=1)
    resp = np.zeros((X.shape[0], k))
    resp[np.arange(X.shape[0]), hard] = 1.0
    return _m_core(X, resp, ridge, xx)


def _rel_scale(ll: float) -> float:
    return abs(ll) if ll != 0.0 else 1.0


@dataclass(eq=False)
class _Restart:
    """EM state of one restart; ``resp`` and ``ll`` always describe ``params``."""

    index: int
    params: tuple[np.ndarray, np.ndarray, np.ndarray]
    resp: np.ndarray
    ll: float
    trace: list[float]
    iterations: int = 0
    converged: bool = False
    decrease: float = 0.0


def _iterate(X: np.ndarray, xx: np.ndarray, run: _Restart, config: EmConfig,
             until: int) -> None:
    """Advance ``run`` by M-step/E-step pairs until it converges or has made
    ``until`` iterations in total.

    Converged means the log-likelihood gained no more than ``tol`` relative
    to the previous E-step. ``run.decrease`` tracks the largest drop between
    consecutive E-steps.
    """
    while not run.converged and run.iterations < until:
        params = _m_core(X, run.resp, config.ridge, xx)
        resp, ll = _e_core(*params, X)
        run.trace.append(ll)
        run.decrease = max(run.decrease, run.ll - ll)
        run.converged = (ll - run.ll) <= config.tol * _rel_scale(run.ll)
        run.params, run.resp, run.ll = params, resp, ll
        run.iterations += 1


def fit_em(data, k: int, config: EmConfig = EmConfig()) -> FittedMixture:
    """Fit a k-component mixture by EM with seeded restarts.

    Short-EM schedule (Biernacki, Celeux & Govaert 2003): every one of
    ``config.restarts`` initializations runs ``min(SHORT_ITER,
    config.max_iter)`` iterations; then only the restart with the highest
    log-likelihood at that point (ties to the lower restart index) continues
    to convergence or ``config.max_iter`` iterations in total. If that
    restart hits an empty cluster or a singular covariance, the next best
    one continues instead. Deterministic given (data, k, config.seed).
    Raises :class:`TooFewPoints` when n < POINTS_PER_COMPONENT * k and
    :class:`AllRestartsDegenerate` when every restart hit an empty cluster
    or a singular covariance.
    """
    X = _as_matrix(data)
    n = X.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < POINTS_PER_COMPONENT * k:
        raise TooFewPoints(f"n={n} cannot support k={k} "
                           f"(need at least {POINTS_PER_COMPONENT * k})")
    # fit about the grand mean: covariances are translation-invariant and the
    # smaller magnitudes keep the sufficient-statistic M-step well conditioned
    shift = X.mean(axis=0)
    Xc = X - shift
    xx = _xx_features(Xc)
    runs: list[_Restart] = []
    failures: list[str] = []
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        try:
            params = _init_params(Xc, xx, k, rng, config.ridge)
            resp, ll = _e_core(*params, Xc)
            run = _Restart(restart, params, resp, ll, [ll])
            _iterate(Xc, xx, run, config, min(SHORT_ITER, config.max_iter))
        except (EmptyCluster, SingularCovariance) as exc:
            failures.append(f"restart {restart}: {exc}")
            continue
        runs.append(run)
    # the sort is stable, so equal log-likelihoods keep restart order
    for run in sorted(runs, key=lambda r: -r.ll):
        try:
            _iterate(Xc, xx, run, config, config.max_iter)
        except (EmptyCluster, SingularCovariance) as exc:
            failures.append(f"restart {run.index}: {exc}")
            continue
        weights, means, covs = run.params
        return FittedMixture(
            components=_build_components(weights, means + shift, covs),
            k=k,
            log_likelihood=run.ll,
            iterations=run.iterations,
            converged=run.converged,
            responsibilities=run.resp,
            seed=config.seed,
            ll_trace=tuple(run.trace),
            ll_decrease_max=run.decrease,
        )
    raise AllRestartsDegenerate(
        f"all {config.restarts} restarts degenerate: " + "; ".join(failures)
    )


def posterior_assign(fit: FittedMixture, x) -> tuple[int, np.ndarray]:
    """Argmax-posterior cluster for one pitch, ties to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    resp, _ = e_step(fit.components, x[None, :])
    posterior = resp[0]
    return int(np.argmax(posterior)), posterior

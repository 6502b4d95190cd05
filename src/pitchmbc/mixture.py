"""3-D Gaussian mixture model fitted by Expectation-Maximization.

Each component is parameterized the way the clusters are reasoned about
downstream: a mean vector, per-dimension standard deviations, and the
intra-cluster correlation matrix, plus a mixture weight. The implied
covariance is diag(stddev) @ correlation @ diag(stddev).

Each fit builds one (10, n) matrix F of its centred data's sufficient
statistics (``_features``: the six products x_a x_b, x and 1), and each EM
step is a matmul against it. The M-step's respT @ F^T sums every component's
mass, x and x x^T at once. The E-step forms x - mean as [I, -mean] @ [x; 1],
exact up to one rounding, and whitens it by the inverse Cholesky factor, so
nothing inverts a covariance. The component dataclasses are built once per
fit. Fits are deterministic functions of (data, k, config): every restart
derives its generator from (config.seed, restart_index).

Restarts follow a two-phase short-EM schedule (Biernacki, Celeux & Govaert
2003, CSDA 41): all restarts run SHORT_ITER iterations, then only the one
with the highest log-likelihood runs on to convergence. One loop,
``_iterate``, serves both phases, so the winner simply resumes its own
state. Losing restarts above the true k would otherwise spend most of the
fit time in slow convergence tails.

The short phase runs the restarts in stacked groups of at most
``STACK_ELEMENTS // (k * n)``: the E- and M-step kernels take any leading
restart axes, so a group costs one kernel call per iteration, where at small
n a call is mostly fixed numpy overhead. The long phase is a group of one,
stepped by the same call. Every slice of a stacked call is computed exactly
as it would be alone, and when a group step fails for any member, each
member retakes it as a group of one, so results and errors do not depend on
the grouping. Restart state stays in the kernels' transposed (k, n)
responsibility layout, so no step transposes it, and each restart's new
state is a slice of its group's arrays. A group's steps write their E-step
temporaries into one scratch buffer allocated when the group starts, so
they do not allocate, free and fault in fresh memory on every step.

The kernels keep off numpy's slow paths at small n without moving a bit of
any output. The E-step sets every responsibility below 2^-1022, the smallest
normal float64, to exactly 0, and likewise each log-sum-exp term, since
numpy's exp and the M-step's matmul are many times slower on subnormal
values. No sum changes: each term is added to exp(0) = 1, and a step with a
component whose mass is below 10·eps·n fails. The Cholesky factors and their
inverses come from numpy's LAPACK gufuncs, called without the ``np.linalg``
wrappers, and ``_cholesky`` reads a failed factor from the NaN the gufunc
writes. Seeding makes the draws ``Generator.choice`` would, without its
checks of the probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import AllRestartsDegenerate, EmptyCluster, SingularCovariance, TooFewPoints

LOG_2PI = math.log(2.0 * math.pi)
# exp(x) is subnormal or zero exactly when x < LOG_TINY
LOG_TINY = math.log(np.finfo(np.float64).tiny)
EPS = np.finfo(np.float64).eps
EYE3 = np.eye(3)
# iterations every restart runs before only the best one continues; of 5, 10
# and 20, 10 is the shortest that holds tests/test_oracles.py's floors
SHORT_ITER = 10
# largest k * n * restarts one stacked short-phase step may cover: wider
# stacks save little per-call overhead and cost temporaries of that size
STACK_ELEMENTS = 2**14
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
        for name, low in (("seed", 0), ("restarts", 1), ("max_iter", 1), ("tol", 0), ("ridge", 0)):
            if not low <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= {low} and finite, "
                                 f"got {getattr(self, name)!r}")


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
    ``ll_trace`` holds the log-likelihood at every E-step, at least one. Derived,
    not passed: ``k``, ``log_likelihood`` (the last entry), ``iterations`` and
    ``ll_decrease_max`` (the largest drop between entries, 0.0 when monotone).
    """

    components: tuple[MixtureComponent, ...]
    converged: bool
    responsibilities: np.ndarray | None
    seed: int
    ll_trace: tuple[float, ...]
    k: int = field(init=False)
    log_likelihood: float = field(init=False)
    iterations: int = field(init=False)
    ll_decrease_max: float = field(init=False)

    def __post_init__(self):
        trace = self.ll_trace
        if not trace:
            raise ValueError("ll_trace must hold at least one log-likelihood")
        object.__setattr__(self, "k", len(self.components))
        object.__setattr__(self, "log_likelihood", trace[-1])
        object.__setattr__(self, "iterations", len(trace) - 1)
        object.__setattr__(self, "ll_decrease_max",
                           max([0.0] + [a - b for a, b in zip(trace, trace[1:])]))

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
    """Lower Cholesky factors of a (..., 3, 3) stack. A matrix that does not
    factor raises SingularCovariance: ``_m_stack``'s ridge is the only
    regularizer. The LAPACK gufunc is called directly: it writes NaN over a
    matrix that does not factor, where ``np.linalg.cholesky`` raises."""
    with np.errstate(all="ignore"):
        L = _umath_linalg.cholesky_lo(covs, signature="d->d")
    if np.isnan(L[..., 0, 0]).any():
        raise SingularCovariance("covariance not positive definite")
    return L


def _flush_tiny(logs: np.ndarray) -> np.ndarray:
    """``logs`` with every entry below LOG_TINY set to -inf in place, so that
    its exp is exactly 0, never subnormal: numpy's exp and matmul take slow
    paths on subnormals."""
    np.copyto(logs, -np.inf, where=np.less(logs, LOG_TINY))
    return logs


def _features(X: np.ndarray) -> np.ndarray:
    """(10, n) rows x0², x1², x2², x0x1, x0x2, x1x2, x0, x1, x2, 1 of the
    (n, 3) data; the E-step reads the last four, [x; 1]."""
    F = np.empty((10, X.shape[0]))
    F[6:9], F[9] = X.T, 1.0
    F[:6] = F[[6, 7, 8, 6, 6, 7]] * F[[6, 7, 8, 7, 8, 8]]
    return F


def _e_stack(weights: np.ndarray, means: np.ndarray, covs: np.ndarray,
             X1: np.ndarray, work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Transposed responsibilities (..., k, n) and log-likelihoods (...) from
    packed parameters with any leading restart axes: weights (..., k), means
    (..., k, 3), covariances (..., k, 3, 3); ``X1`` is the (4, n) rows
    [x; 1] of ``_features``. Each slice is computed exactly as it would be
    alone. The two (..., k, 3, n) temporaries go into the flat float64
    ``work`` (at least twice their size; fresh when None). The returned
    arrays never share memory with ``work``."""
    L = _cholesky(covs)
    shape = means.shape + X1.shape[1:]
    size = math.prod(shape)
    if work is None:
        work = np.empty(2 * size)
    # x - mean as one matmul [I, -mean] @ [x; 1]: its products by 1 and 0 are
    # exact, so each difference is rounded once, as a subtraction is
    sub = np.zeros(means.shape + (4,))
    sub[..., :3], sub[..., 3] = EYE3, -means
    diff = np.matmul(sub.reshape(-1, 4), X1, out=work[:size].reshape(-1, X1.shape[1]))
    # whitened z = L^-1 (x - mean): differencing before whitening keeps a
    # tight component far from the origin free of cancellation
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        inv_L = _umath_linalg.inv(L, signature="d->d")
    z = np.matmul(inv_L, diff.reshape(shape), out=work[size:2 * size].reshape(shape))
    logp = np.square(z, out=z).sum(axis=-2)
    logp *= -0.5
    half_logdet = np.log(L[..., 0, 0]) + np.log(L[..., 1, 1]) + np.log(L[..., 2, 2])
    logp += (np.log(weights) - half_logdet - 1.5 * LOG_2PI)[..., None]
    # max-shifted log-sum-exp over components. A flushed term is below 2^-1022
    # and the sum holds exp(0) = 1, so flushing changes no sum
    shift = logp.max(axis=-2)
    terms = np.subtract(logp, shift[..., None, :], out=work[:logp.size].reshape(logp.shape))
    norm = shift + np.log(np.exp(_flush_tiny(terms), out=terms).sum(axis=-2))
    logp -= norm[..., None, :]
    return np.exp(_flush_tiny(logp), out=logp), norm.sum(axis=-1)


def _m_stack(F: np.ndarray, respT: np.ndarray,
             ridge: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted ML update of (weights, means, covariances), ridge applied, from
    transposed responsibilities (..., k, n) with any leading restart axes and
    ``F = _features(X)``. Each slice is computed exactly as it would be alone.
    The mass is checked before anything divides by it."""
    n = F.shape[1]
    sums = respT @ F.T                                  # (..., k, 10)
    mass = sums[..., 9]
    if (mass < 10.0 * EPS * n).any():
        low = np.unravel_index(np.argmin(mass), mass.shape)
        raise EmptyCluster(f"component {low[-1]} has responsibility mass {mass[low]:.3e}")
    weights = mass / n
    means = sums[..., 6:9] / mass[..., None]
    second = sums[..., [[0, 3, 4], [3, 1, 5], [4, 5, 2]]] / mass[..., None, None]
    covs = second - means[..., :, None] * means[..., None, :]
    trace = covs[..., 0, 0] + covs[..., 1, 1] + covs[..., 2, 2]
    covs = covs + (ridge * (trace / 3.0))[..., None, None] * EYE3
    var = np.diagonal(covs, axis1=-2, axis2=-1)
    if (var <= 0).any() or not np.isfinite(covs).all():
        raise SingularCovariance("a component collapsed to zero or non-finite variance")
    return weights, means, covs


def _decompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stddev, correlation) from a covariance, cleaned up to exact invariants."""
    stddev = np.sqrt(np.diag(cov))
    corr = cov / np.outer(stddev, stddev)
    corr = np.clip(corr, -1.0, 1.0)
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


def e_step(components: Sequence[MixtureComponent], data) -> tuple[np.ndarray, float]:
    """Posterior responsibilities and total log-likelihood.

    responsibility(i, j) is proportional to weight_j * density_j(x_i), with
    rows normalized through the max-shifted log-sum-exp.
    """
    respT, ll = _e_stack(*_pack(components), _features(_as_matrix(data))[6:])
    return respT.T, float(ll)


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
    center = X.mean(axis=0)
    weights, means, covs = _m_stack(_features(X - center), resp.T, ridge)
    return list(_build_components(weights, means + center, covs))


def _sq_dist(ZT: np.ndarray, i: int) -> np.ndarray:
    """Squared distances (n,) from column ``i`` of the (3, n) ``ZT`` to every
    column, added in np.sum's order over a length-3 axis: (d0² + d1²) + d2²."""
    return (ZT[0] - ZT[0, i]) ** 2 + (ZT[1] - ZT[1, i]) ** 2 + (ZT[2] - ZT[2, i]) ** 2


def _seed_dist(ZT: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted farthest-point seeding (squared-distance sampling)
    of k centers among the columns of the (3, n) ``ZT``; returns the (k, n)
    squared distances from each center to every column. Each weighted draw
    is the one ``rng.choice(n, p=d2 / d2.sum())`` makes, without that call's
    checks of ``p``."""
    n = ZT.shape[1]
    dist = np.empty((k, n))
    dist[0] = d2 = _sq_dist(ZT, int(rng.integers(n)))
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(n))
        dist[j] = _sq_dist(ZT, idx)
        d2 = np.minimum(d2, dist[j])
    return dist


def _standardize(X: np.ndarray) -> np.ndarray:
    """Columns scaled to zero mean and unit variance (a constant column to zero)."""
    sd = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0)


def _seed_resp(ZT: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """One-hot transposed (k, n) responsibilities: each column of the (3, n)
    standardized data ``ZT`` goes to the nearest of k seeded centers."""
    n = ZT.shape[1]
    nearest = _seed_dist(ZT, k, rng).argmin(axis=0)
    resp = np.zeros((n, k))
    resp[np.arange(n), nearest] = 1.0
    # the transpose of an (n, k) array, not a C-ordered (k, n) one: the first
    # M-step's matmuls round differently with each memory layout
    return resp.T


@dataclass(eq=False)
class _Restart:
    """EM state of one restart. ``respT`` holds transposed (k, n)
    responsibilities: until the first step the seeding's one-hot assignment,
    with ``trace`` empty; from then on ``respT`` and ``trace[-1]`` describe
    ``params``. ``trace`` holds the log-likelihood of every step, so the
    restart has made ``len(trace) - 1`` iterations. ``failure`` is the error
    that ended the restart."""

    index: int
    respT: np.ndarray
    params: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    trace: list[float] = field(default_factory=list)
    converged: bool = False
    failure: str | None = None


def _em_steps(F: np.ndarray, respTs: list[np.ndarray], ridge: float,
              work: np.ndarray) -> list:
    """One M-step then one E-step from each transposed (k, n) responsibility
    matrix in ``respTs``: per member, (params, respT, ll) as slices of the
    group's arrays, or the EmptyCluster or SingularCovariance its step raised.
    ``work`` is the E-step's scratch buffer (see ``_e_stack``).

    The members step as one stacked kernel call. If that fails for any member
    of a larger group, each member steps alone, so results and errors are
    exactly those of single-restart steps.
    """
    try:
        stack = respTs[0][None] if len(respTs) == 1 else np.stack(respTs)
        weights, means, covs = _m_stack(F, stack, ridge)
        respT, ll = _e_stack(weights, means, covs, F[6:], work)
    except (EmptyCluster, SingularCovariance) as exc:
        if len(respTs) == 1:
            return [exc]
        return [step for r in respTs for step in _em_steps(F, [r], ridge, work)]
    return [((weights[i], means[i], covs[i]), respT[i], float(ll[i]))
            for i in range(len(respTs))]


def _iterate(F: np.ndarray, runs: list[_Restart], config: EmConfig, until: int) -> None:
    """Advance each of ``runs`` by M-step/E-step pairs until it converges,
    fails or has made ``until`` iterations in total. The runs still going
    advance together, one ``_em_steps`` call per iteration. A run's first
    step starts it from its seeding and is not counted as an iteration.

    Converged means the log-likelihood gained no more than ``tol`` relative
    to the previous E-step.
    """
    # every step of the group writes its E-step temporaries here
    work = np.empty(2 * len(runs) * 3 * runs[0].respT.size)
    while True:
        active = [run for run in runs
                  if run.failure is None and not run.converged and len(run.trace) <= until]
        if not active:
            return
        steps = _em_steps(F, [run.respT for run in active], config.ridge, work)
        for run, step in zip(active, steps):
            if isinstance(step, Exception):
                run.failure = str(step)
                continue
            run.params, run.respT, ll = step
            if run.trace:
                prev = run.trace[-1]
                run.converged = (ll - prev) <= config.tol * (abs(prev) or 1.0)
            run.trace.append(ll)


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
    # smaller magnitudes keep the sufficient statistics well conditioned
    shift = X.mean(axis=0)
    Xc = X - shift
    F = _features(Xc)
    # the seeding reads the standardized data column-wise
    ZT = np.ascontiguousarray(_standardize(Xc).T)
    width = max(1, STACK_ELEMENTS // (k * n))
    runs: list[_Restart] = []
    for start in range(0, config.restarts, width):
        group = [_Restart(r, _seed_resp(ZT, k, np.random.default_rng([config.seed, r])))
                 for r in range(start, min(start + width, config.restarts))]
        _iterate(F, group, config, min(SHORT_ITER, config.max_iter))
        runs += group
    failed = [run for run in runs if run.failure is not None]
    # the sort is stable, so equal log-likelihoods keep restart order
    ranked = sorted((run for run in runs if run.failure is None), key=lambda r: -r.trace[-1])
    for run in ranked:
        _iterate(F, [run], config, config.max_iter)
        if run.failure is not None:
            continue
        weights, means, covs = run.params
        return FittedMixture(
            components=_build_components(weights, means + shift, covs),
            converged=run.converged,
            # a copy, so the fit does not keep its restart group's arrays alive
            responsibilities=run.respT.copy().T,
            seed=config.seed,
            ll_trace=tuple(run.trace),
        )
    raise AllRestartsDegenerate(
        f"all {config.restarts} restarts degenerate: "
        + "; ".join(f"restart {run.index}: {run.failure}" for run in failed + ranked)
    )

"""Criterion scoring (BIC and correlation-adjusted BIC) and k selection.

Plain BIC follows the minimized convention: -2*loglik + p(k)*ln(n) with
p(k) = 10k - 1 per the weight/mean/stddev/correlation parameterization.
The adjusted criterion adds penalty_scale times the sum of absolute
off-diagonal correlations over all components, discouraging thin,
strongly-correlated clusters. Lower is better for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import FitError, NoViableK, TooFewPoints
from .ingest import csv_rows
from .mixture import (POINTS_PER_COMPONENT, EmConfig, FittedMixture, fit_em,
                      param_count, _as_matrix)

CRITERIA = ("bic", "bicadj")

# Two k values scoring this close are a tie, resolved toward smaller k.
TIE_EPS = 1e-12


@dataclass(frozen=True)
class CriterionScore:
    """Score row for one fitted k."""

    k: int
    log_likelihood: float
    bic: float
    correlation_penalty: float
    bic_adj: float
    penalty_scale: float
    converged: bool

    def value(self, criterion: str) -> float:
        if criterion == "bic":
            return self.bic
        if criterion == "bicadj":
            return self.bic_adj
        raise ValueError(f"unknown criterion {criterion!r}")


@dataclass(frozen=True)
class SelectionConfig:
    """The criterion that picks k. ``penalty_scale`` None means automatic:
    ln(n), the same per-unit cost as one BIC parameter.
    """

    criterion: str = "bicadj"
    penalty_scale: float | None = None

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        scale = self.penalty_scale
        if scale is not None and not (math.isfinite(scale) and scale >= 0):
            raise ValueError(f"penalty_scale must be finite and >= 0, got {scale!r}")


@dataclass(frozen=True)
class SelectionResult:
    best: FittedMixture
    scores: tuple[CriterionScore, ...]
    failures: tuple[tuple[int, str], ...]
    criterion: str
    penalty_scale: float


def bic(fit: FittedMixture, n: int) -> float:
    """-2*loglik + p(k)*ln(n); lower is better."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -2.0 * fit.log_likelihood + param_count(fit.k) * math.log(n)


def bic_adj(fit: FittedMixture, n: int, penalty_scale: float) -> CriterionScore:
    """BIC plus penalty_scale * sum of |rho| over all off-diagonal pairs."""
    if penalty_scale < 0:
        raise ValueError("penalty_scale must be >= 0")
    base = bic(fit, n)
    penalty = penalty_scale * fit.total_abs_correlation()
    return CriterionScore(
        k=fit.k,
        log_likelihood=fit.log_likelihood,
        bic=base,
        correlation_penalty=penalty,
        bic_adj=base + penalty,
        penalty_scale=penalty_scale,
        converged=fit.converged,
    )


def choose_best(fits: Sequence[FittedMixture], n: int, criterion: str,
                penalty_scale: float) -> tuple[int, tuple[CriterionScore, ...]]:
    """Index of the winning fit plus the full score table.

    Fits are considered in the given order; a later fit wins only by
    improving the criterion by more than TIE_EPS, so ordering by ascending
    k yields the smaller-k tie-break.
    """
    if not fits:
        raise ValueError("no fits to choose from")
    scores = tuple(bic_adj(fit, n, penalty_scale) for fit in fits)
    best_idx = 0
    best_value = scores[0].value(criterion)
    for idx in range(1, len(scores)):
        value = scores[idx].value(criterion)
        if value < best_value - TIE_EPS:
            best_idx = idx
            best_value = value
    return best_idx, scores


def select_k(data, k_min: int, k_max: int, config: SelectionConfig = SelectionConfig(),
             em: EmConfig = EmConfig()) -> SelectionResult:
    """Fit every k in [k_min, k_max] with ``em`` and keep the criterion minimizer.

    k values whose fits fail entirely are recorded on ``failures`` and
    skipped. Raises :class:`NoViableK` when nothing fits and
    :class:`TooFewPoints` when the data cannot support k_max.
    """
    if not (1 <= k_min <= k_max):
        raise ValueError(f"need 1 <= k_min <= k_max, got [{k_min}, {k_max}]")
    X = _as_matrix(data)
    n = X.shape[0]
    if n < POINTS_PER_COMPONENT * k_max:
        raise TooFewPoints(f"n={n} cannot support k_max={k_max} "
                           f"(need at least {POINTS_PER_COMPONENT * k_max})")
    penalty_scale = config.penalty_scale if config.penalty_scale is not None else math.log(n)

    fits: list[FittedMixture] = []
    failures: list[tuple[int, str]] = []
    for k in range(k_min, k_max + 1):
        try:
            fits.append(fit_em(X, k, em))
        except FitError as exc:
            failures.append((k, str(exc)))
    if not fits:
        raise NoViableK(f"every k in [{k_min}, {k_max}] failed: {failures}")

    best_idx, scores = choose_best(fits, n, config.criterion, penalty_scale)
    return SelectionResult(
        best=fits[best_idx],
        scores=scores,
        failures=tuple(failures),
        criterion=config.criterion,
        penalty_scale=penalty_scale,
    )


def write_score_csv(result: SelectionResult, dest) -> None:
    """Score table as CSV: k, loglik, bic, penalty, bic_adj, converged."""
    with csv_rows(dest) as writer:
        writer.writerow(["k", "loglik", "bic", "penalty", "bic_adj", "converged"])
        rows = {score.k: score for score in result.scores}
        failed = dict(result.failures)
        for k in sorted(set(rows) | set(failed)):
            if k in rows:
                s = rows[k]
                writer.writerow([k, repr(s.log_likelihood), repr(s.bic),
                                 repr(s.correlation_penalty), repr(s.bic_adj),
                                 str(s.converged).lower()])
            else:
                writer.writerow([k, "", "", "", "", "failed"])

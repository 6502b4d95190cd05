"""Clustering stability under seeded subsampling.

The reference is a given full-data fit: the clustering a pitcher's archive
reports. Each replication splits the data into complementary subsets
(80%/20% by default), refits each subset at the reference's k, optimally
aligns each subset's cluster indices to the reference via the confusion
matrix, and records the proportion of points that stay in their reference
cluster. Cluster indices from independent fits are arbitrary, so any
comparison without the alignment step would be meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, FitError, TooFewPoints
from .ingest import csv_rows
from .mixture import POINTS_PER_COMPONENT, EmConfig, FittedMixture, fit_em, _as_matrix


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Column of each row in the exact minimum-cost perfect matching.

    The Hungarian method (Kuhn 1955) as shortest augmenting paths with row
    and column potentials: row i joins by the cheapest path from it to a
    free column under reduced costs, one row at a time. With Python ints
    every comparison is exact.
    """
    k = len(cost)
    # index 0 is the virtual root row/column each augmenting path starts from
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    row_of = [0] * (k + 1)
    for i in range(1, k + 1):
        row_of[0] = i
        col = 0
        slack = [math.inf] * (k + 1)
        via = [0] * (k + 1)
        used = [False] * (k + 1)
        while row_of[col]:
            used[col] = True
            row = row_of[col]
            delta, nxt = math.inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    reduced = cost[row - 1][j - 1] - u[row] - v[j]
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, col
                    if slack[j] < delta:
                        delta, nxt = slack[j], j
            for j in range(k + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nxt
        while col:
            row_of[col] = row_of[via[col]]
            col = via[col]
    perm = [0] * k
    for j in range(1, k + 1):
        perm[row_of[j] - 1] = j - 1
    return perm


def align_clusters(reference_assign, candidate_assign, k: int) -> np.ndarray:
    """Permutation of candidate labels maximizing agreement with the reference.

    Returns perm such that relabeling candidate c -> perm[c] matches the
    reference on the largest possible number of points (exact optimal
    assignment on the k-by-k confusion matrix). Among equally good
    permutations the lexicographically smallest is returned.
    """
    ref = np.asarray(reference_assign, dtype=np.int64)
    cand = np.asarray(candidate_assign, dtype=np.int64)
    if ref.ndim != 1 or cand.ndim != 1 or ref.shape != cand.shape:
        raise DimensionMismatch(
            f"assignments must be equal-length vectors, got {ref.shape} and {cand.shape}"
        )
    if ref.size == 0:
        raise DimensionMismatch("assignments are empty")
    for name, vec in (("reference", ref), ("candidate", cand)):
        if vec.min() < 0 or vec.max() >= k:
            raise ValueError(f"{name} assignment has labels outside [0, {k})")

    confusion = np.bincount(cand * k + ref, minlength=k * k).reshape(k, k).tolist()
    # One solve ranks permutations by agreement, then by the permutation read
    # as a base-k number (smaller wins). That number is below k**k, so a single
    # extra agreeing point outweighs any tie-break. Python ints keep it exact at
    # any k; int64 would overflow from k = 16.
    scale = k**k
    cost = [[t * k ** (k - 1 - c) - confusion[c][t] * scale for t in range(k)]
            for c in range(k)]
    return np.array(_min_cost_assignment(cost), dtype=np.int64)


def aligned_agreement(reference_assign, candidate_assign, k: int) -> tuple[np.ndarray, float]:
    """Best-permutation agreement proportion between two assignments."""
    perm = align_clusters(reference_assign, candidate_assign, k)
    cand = np.asarray(candidate_assign, dtype=np.int64)
    ref = np.asarray(reference_assign, dtype=np.int64)
    return perm, float(np.mean(perm[cand] == ref))


@dataclass(frozen=True)
class StabilityReport:
    """Per-replication agreements plus their mean and standard error.

    ``per_replication`` lists (agreement_80, agreement_20) for successful
    replications in replication order; failed replications appear in
    ``failures`` as (replication_index, reason), and
    len(per_replication) + len(failures) == replications. Standard errors
    are sample-stddev / sqrt(#successful), 0.0 when fewer than two
    replications succeeded.
    """

    pitcher_id: str
    k: int
    split: float
    replications: int
    seed: int
    per_replication: tuple[tuple[float, float], ...]
    failures: tuple[tuple[int, str], ...]
    mean_80: float
    mean_20: float
    stderr_80: float
    stderr_20: float

    def successful_indices(self) -> tuple[int, ...]:
        failed = {idx for idx, _ in self.failures}
        return tuple(i for i in range(self.replications) if i not in failed)


def draw_split(n: int, split: float, seed: int, replication: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded permutation split into disjoint index sets covering [0, n).

    The major part holds round(split * n) indices; both parts come back
    sorted so record order is preserved within each subset.
    """
    rng = np.random.default_rng([seed, replication])
    order = rng.permutation(n)
    n_major = int(round(split * n))
    return np.sort(order[:n_major]), np.sort(order[n_major:])


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def check_split(n: int, k: int, split: float, replications: int) -> None:
    """Raise unless every subset of an n-point split can be fit at k."""
    if not (0.0 < split < 1.0):
        raise ValueError("split must lie strictly between 0 and 1")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    n_major = int(round(split * n))
    n_minor = n - n_major
    need = POINTS_PER_COMPONENT * k
    if min(n_major, n_minor) < need:
        raise TooFewPoints(
            f"subsets of sizes {n_major}/{n_minor} cannot support k={k} (need {need} each)"
        )


def stability_run(data, reference: FittedMixture, split: float = 0.8, replications: int = 20,
                  em_config: EmConfig = EmConfig()) -> StabilityReport:
    """Measure assignment stability of a fixed-k clustering under subsampling.

    ``reference`` is the full-data fit (for example the one ``select_k``
    chose); k is ``reference.k`` and is never re-selected. Each replication
    draws a seeded uniform permutation split; both parts are refit
    independently and compared (after alignment) against the reference's
    assignments restricted to each part's points. ``em_config.seed`` seeds
    the splits and the subset fits. Pure function of (data, reference,
    split, replications, em_config).
    """
    X = _as_matrix(data)
    n = X.shape[0]
    k = reference.k
    check_split(n, k, split, replications)
    rows = None if reference.responsibilities is None else reference.responsibilities.shape[0]
    if rows != n:
        raise DimensionMismatch(f"reference fit covers {rows} rows, data has {n}")
    pitcher_id = ""
    if hasattr(data, "single_pitcher_id"):
        pitcher_id = data.single_pitcher_id()

    seed = em_config.seed
    assign = reference.assignments()

    results: list[tuple[float, float]] = []
    failures: list[tuple[int, str]] = []
    for rep in range(replications):
        idx_major, idx_minor = draw_split(n, split, seed, rep)
        rng = np.random.default_rng([seed, rep, 1])
        seed_major = int(rng.integers(2**31 - 1))
        seed_minor = int(rng.integers(2**31 - 1))
        try:
            fit_major = fit_em(X[idx_major], k, replace(em_config, seed=seed_major))
            fit_minor = fit_em(X[idx_minor], k, replace(em_config, seed=seed_minor))
        except FitError as exc:
            failures.append((rep, str(exc)))
            continue
        _, agree_major = aligned_agreement(assign[idx_major], fit_major.assignments(), k)
        _, agree_minor = aligned_agreement(assign[idx_minor], fit_minor.assignments(), k)
        results.append((agree_major, agree_minor))

    mean_80, stderr_80 = _mean_stderr([a for a, _ in results])
    mean_20, stderr_20 = _mean_stderr([b for _, b in results])
    return StabilityReport(
        pitcher_id=pitcher_id,
        k=k,
        split=split,
        replications=replications,
        seed=seed,
        per_replication=tuple(results),
        failures=tuple(failures),
        mean_80=mean_80,
        mean_20=mean_20,
        stderr_80=stderr_80,
        stderr_20=stderr_20,
    )


def write_stability_csv(report: StabilityReport, dest) -> None:
    """One row per replication plus a summary row with means and stderrs."""
    with csv_rows(dest) as writer:
        writer.writerow(["pitcher_id", "k", "row", "agreement_80", "agreement_20",
                         "stderr_80", "stderr_20", "status"])
        ok_indices = report.successful_indices()
        for (a80, a20), rep in zip(report.per_replication, ok_indices):
            writer.writerow([report.pitcher_id, report.k, rep, repr(a80), repr(a20), "", "", "ok"])
        for rep, reason in report.failures:
            writer.writerow([report.pitcher_id, report.k, rep, "", "", "", "", f"failed: {reason}"])
        writer.writerow([report.pitcher_id, report.k, "summary",
                         repr(report.mean_80), repr(report.mean_20),
                         repr(report.stderr_80), repr(report.stderr_20), ""])

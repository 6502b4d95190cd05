"""Independent oracles used across the suite.

Everything here recomputes expected values by a different route than the
library: dense density formula with explicit det/inverse, exhaustive
permutation search, contingency-table ARI, and a from-scratch rewrite of
the labeling cascade, and a row-at-a-time pitch-file parser. Keep these
independent of the package internals, except ``reference_restarts``, which
reuses the seeding and the E/M kernels to replay the plain schedule that
runs every restart to convergence. ``reference_e_stack``,
``reference_seed_centers`` and ``reference_seed_resp`` are the E-step and
seeding as they were before they were tuned: through the ``np.linalg``
wrappers, with subnormal responsibilities kept, and with
``Generator.choice`` draws. ``reference_labeled_csv``,
``reference_plot_csv`` and ``reference_projection_svg`` are the per-pitch
writers as they were before they were tuned: a ``csv.writer`` row at a time
and one f-string per SVG circle. ``child_env`` sets up subprocess tests.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from pathlib import Path

import numpy as np

import pitchmbc
from pitchmbc.errors import (EmptyCluster, EmptyDataset, MalformedRow, MissingColumn,
                             SingularCovariance)
from pitchmbc.ingest import OPTIONAL_FIELDS, REQUIRED_FIELDS, PitchRecord
from pitchmbc.mixture import (EmConfig, FittedMixture, MixtureComponent, _build_components,
                              _e_stack, _features, _m_stack, _seed_resp, _standardize)
from pitchmbc.plotting import PANELS, _axis


def child_env(**extra: str) -> dict:
    """Environment in which a child process imports the same pitchmbc as this
    one, installed or not, plus the ``extra`` variables."""
    src = str(Path(pitchmbc.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _reference_float(token: str, what: str) -> float:
    token = token.strip()
    if not token:
        raise ValueError(f"missing {what}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {token!r}")
    return value


def _reference_flag(token: str) -> bool:
    token = token.strip().lower()
    if token in ("1", "true", "t", "yes"):
        return True
    if token in ("0", "false", "f", "no", ""):
        return False
    raise ValueError(f"unparseable intentional flag {token!r}")


def reference_parse(text: str, schema) -> tuple[list[PitchRecord], list[tuple[int, str]]]:
    """Row-at-a-time parse of a pitch file's text: one ``PitchRecord`` per
    valid row (its ``__post_init__`` runs the range checks last) and
    (line, message) per rejected row. Line ends are ``str.splitlines``'s,
    so it agrees with the package only on files whose rows end in ``\\n``
    or ``\\r\\n`` and hold no other line-break character. Raises like
    ``parse_pitch_csv`` on a missing column or an empty result."""
    lines = text.splitlines()
    if not lines:
        raise EmptyDataset("input has no header")
    reader = csv.reader(lines, delimiter=schema.delimiter)
    header = [h.strip() for h in next(reader)]
    position: dict[str, int] = {}
    for logical in REQUIRED_FIELDS + OPTIONAL_FIELDS:
        column = getattr(schema, logical)
        if column in header:
            position[logical] = header.index(column)
        elif logical in REQUIRED_FIELDS:
            raise MissingColumn(logical, column)

    def get(row, logical: str) -> str:
        idx = position.get(logical)
        return row[idx] if idx is not None and idx < len(row) else ""

    records: list[PitchRecord] = []
    rejected: list[tuple[int, str]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            pid = get(row, "pitcher_id").strip()
            if not pid:
                raise ValueError("missing pitcher_id")
            records.append(PitchRecord(
                pitcher_id=pid,
                start_speed=_reference_float(get(row, "start_speed"), "start_speed"),
                back_spin=_reference_float(get(row, "back_spin"), "back_spin"),
                side_spin=_reference_float(get(row, "side_spin"), "side_spin"),
                season=get(row, "season").strip() or None,
                reference_label=get(row, "reference_label").strip() or None,
                is_intentional_ball=_reference_flag(get(row, "intentional")),
            ))
        except ValueError as exc:
            rejected.append((line_no, str(MalformedRow(line_no, exc))))
    if not records:
        raise EmptyDataset(f"no valid rows ({len(rejected)} malformed)", rejected=rejected)
    return records, rejected


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
    return FittedMixture(
        components=tuple(components), converged=True,
        responsibilities=responsibilities, seed=seed, ll_trace=(log_likelihood,),
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


def reference_e_stack(weights, means, covs, X1):
    """``mixture._e_stack`` before subnormal flushing: transposed
    responsibilities (..., k, n) and log-likelihoods (...) through
    ``np.linalg.cholesky`` and ``np.linalg.inv``."""
    L = np.linalg.cholesky(covs)
    sub = np.zeros(means.shape + (4,))
    sub[..., :3], sub[..., 3] = np.eye(3), -means
    diff = np.matmul(sub.reshape(-1, 4), X1).reshape(means.shape + X1.shape[1:])
    z = np.matmul(np.linalg.inv(L), diff)
    logp = np.square(z).sum(axis=-2)
    logp *= -0.5
    half_logdet = np.log(L[..., 0, 0]) + np.log(L[..., 1, 1]) + np.log(L[..., 2, 2])
    logp += (np.log(weights) - half_logdet - 1.5 * math.log(2.0 * math.pi))[..., None]
    shift = logp.max(axis=-2)
    terms = logp - shift[..., None, :]
    norm = shift + np.log(np.exp(terms).sum(axis=-2))
    logp -= norm[..., None, :]
    return np.exp(logp), norm.sum(axis=-1)


def reference_seed_centers(Z, k: int, rng: np.random.Generator) -> np.ndarray:
    """Squared-distance seeding over the rows of the (n, 3) ``Z`` with
    ``Generator.choice`` draws; returns the (k, 3) centers."""
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


def reference_seed_resp(Z, k: int, rng: np.random.Generator) -> np.ndarray:
    """One-hot transposed (k, n) responsibilities from
    ``reference_seed_centers``: each row of ``Z`` to its nearest center."""
    centers = reference_seed_centers(Z, k, rng)
    d2 = np.sum((Z[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    resp = np.zeros((Z.shape[0], k))
    resp[np.arange(Z.shape[0]), np.argmin(d2, axis=1)] = 1.0
    return resp.T


def reference_restarts(X, k: int, config: EmConfig) -> list[FittedMixture | None]:
    """Every restart run to convergence or max_iter on its own, in restart
    order; None for a restart that hit an empty cluster or a singular
    covariance. Each restart is seeded, then alternates single-restart
    ``_e_stack``/``_m_stack`` calls (no leading restart axis)."""
    X = np.asarray(X.to_matrix() if hasattr(X, "to_matrix") else X, dtype=float)
    shift = X.mean(axis=0)
    Xc = X - shift
    F = _features(Xc)
    ZT = np.ascontiguousarray(_standardize(Xc).T)
    out: list[FittedMixture | None] = []
    for restart in range(max(1, config.restarts)):
        rng = np.random.default_rng([config.seed, restart])
        try:
            params = _m_stack(F, _seed_resp(ZT, k, rng), config.ridge)
            trace, prev, converged = [], None, False
            for _ in range(config.max_iter):
                respT, ll = _e_stack(*params, F[6:])
                ll = float(ll)
                trace.append(ll)
                if prev is not None and ll - prev <= config.tol * (abs(prev) or 1.0):
                    converged = True
                    break
                prev = ll
                params = _m_stack(F, respT, config.ridge)
            else:
                respT, ll = _e_stack(*params, F[6:])
                ll = float(ll)
                trace.append(ll)
        except (EmptyCluster, SingularCovariance):
            out.append(None)
            continue
        weights, means, covs = params
        out.append(FittedMixture(
            components=_build_components(weights, means + shift, covs), converged=converged,
            responsibilities=respT.T, seed=config.seed, ll_trace=tuple(trace)))
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


def reference_labeled_csv(indices, types, pmax, reference_labels=None) -> str:
    """The text of ``labeling.write_labeled_csv``, written a row at a time by
    ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    indices = np.asarray(indices).tolist()
    refs = (itertools.repeat("") if reference_labels is None
            else (ref or "" for ref in reference_labels))
    writer.writerow(["row_id", "cluster_index", "pitch_type", "posterior_max", "reference_label"])
    writer.writerows(zip(range(len(indices)), indices, map(str, types),
                         map(repr, np.asarray(pmax, dtype=np.float64).tolist()), refs))
    return buf.getvalue()


def reference_plot_csv(X, types, colors) -> str:
    """The text of ``plotting.write_plot_csv``, written a row at a time by
    ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    speed, back, side = (map(repr, col) for col in np.asarray(X, dtype=np.float64).T.tolist())
    writer.writerow(["start_speed", "back_spin", "side_spin", "pitch_type", "color"])
    writer.writerows(zip(speed, back, side, map(str, types), colors))
    return buf.getvalue()


def reference_projection_svg(X, point_colors, legend=()) -> str:
    """``plotting.projection_svg`` with one f-string per circle."""
    panel, margin, gap = 300, 48, 26
    width = 3 * (panel + 2 * margin) + 2 * gap
    legend_height = 30 if legend else 0
    height = panel + 2 * margin + legend_height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    n = X.shape[0] if X.size else 0
    for p, (ix, iy, xlabel, ylabel) in enumerate(PANELS):
        ox = p * (panel + 2 * margin + gap) + margin
        oy = margin
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{panel}" height="{panel}" '
            f'fill="none" stroke="#444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ox + panel / 2:.1f}" y="{oy + panel + 34}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{xlabel}</text>'
        )
        parts.append(
            f'<text x="{ox - 32}" y="{oy + panel / 2:.1f}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif" '
            f'transform="rotate(-90 {ox - 32} {oy + panel / 2:.1f})">{ylabel}</text>'
        )
        if not n:
            continue
        x_lo, x_scale = _axis(X[:, ix], panel)
        y_lo, y_scale = _axis(X[:, iy], panel)
        cx = ox + (X[:, ix] - x_lo) * x_scale
        cy = oy + panel - (X[:, iy] - y_lo) * y_scale
        for x, y, color in zip(cx.tolist(), cy.tolist(), point_colors):
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" '
                         f'fill-opacity="0.65"/>')
    if legend:
        lx = margin
        ly = panel + 2 * margin + 12
        for label, color in legend:
            parts.append(f'<circle cx="{lx}" cy="{ly - 4}" r="5" fill="{color}"/>')
            parts.append(
                f'<text x="{lx + 10}" y="{ly}" font-size="13" font-family="sans-serif">{label}</text>'
            )
            lx += 12 * len(label) + 46
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

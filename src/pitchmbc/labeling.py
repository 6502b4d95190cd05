"""Rule-based pitch-type names for fitted clusters.

The cluster whose mean start speed is highest anchors the cascade as the
four-seam fastball; every other cluster is compared against that anchor and
takes the first rule that fires, in the fixed order R1..R6. Side-spin sign
comparisons are made relative to the anchor, not to pitcher handedness, and
a mean side spin of exactly zero counts as "same side". The known anchor
failure mode (a sinker cluster measured faster than the four-seam) is not
patched here; callers can force a different anchor via ``anchor_override``.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .ingest import write_csv_columns
from .mixture import FittedMixture, MixtureComponent, e_step, posterior_assign


class PitchType(str, enum.Enum):
    FOUR_SEAM = "FourSeam"
    TWO_SEAM = "TwoSeam"
    SINKER = "Sinker"
    CUTTER = "Cutter"
    CHANGEUP = "Changeup"
    SLIDER = "Slider"
    CURVEBALL = "Curveball"
    KNUCKLEBALL = "Knuckleball"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class LabelConfig:
    """Thresholds for the rule cascade, in input units (mph / spin units)."""

    changeup_speed_gap: float = 6.0
    sidespin_band: float = 60.0
    cutter_speed_gap: float = 5.0
    knuckleball_spin_var_ratio: float = 4.0
    curveball_backspin_max: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            # every threshold but the curveball back-spin ceiling is a positive size
            if f.name != "curveball_backspin_max" and not (value > 0):
                raise ValueError(f"{f.name} must be positive, got {value!r}")


@dataclass(frozen=True, eq=False)
class LabeledModel:
    """A fitted mixture with one pitch-type name per component."""

    fit: FittedMixture
    labels: tuple[PitchType, ...]
    anchor_index: int
    rule_trace: tuple[tuple[str, ...], ...]
    config: LabelConfig = field(default_factory=LabelConfig)


def _pick_anchor(components: Sequence[MixtureComponent]) -> int:
    """Highest mean start speed; ties go to larger weight, then lower index."""
    best = 0
    for idx in range(1, len(components)):
        cand, cur = components[idx], components[best]
        if cand.mean[0] > cur.mean[0] or (
            cand.mean[0] == cur.mean[0] and cand.weight > cur.weight
        ):
            best = idx
    return best


def _same_side(side: float, anchor_side: float) -> bool:
    # zero side spin (either one) counts as same side
    return side * anchor_side >= 0.0


def _label_one(comp: MixtureComponent, anchor: MixtureComponent,
               config: LabelConfig) -> tuple[PitchType, list[str]]:
    dspeed = float(anchor.mean[0] - comp.mean[0])
    dside = float(abs(comp.mean[2] - anchor.mean[2]))
    dback = float(abs(comp.mean[1] - anchor.mean[1]))
    back = float(comp.mean[1])
    same = _same_side(float(comp.mean[2]), float(anchor.mean[2]))
    spin_var = comp.spin_variance()
    anchor_spin_var = anchor.spin_variance()
    trace: list[str] = []

    r1 = spin_var > config.knuckleball_spin_var_ratio * anchor_spin_var and dspeed > 0
    trace.append(
        f"R1 knuckleball: spin_var={spin_var:.3f} > "
        f"{config.knuckleball_spin_var_ratio:g}*anchor({anchor_spin_var:.3f}) "
        f"and dspeed={dspeed:.3f}>0 -> {'fired' if r1 else 'no'}"
    )
    if r1:
        return PitchType.KNUCKLEBALL, trace

    r2 = same and dspeed > config.changeup_speed_gap and dside < config.sidespin_band
    trace.append(
        f"R2 changeup: same_side={same}, dspeed={dspeed:.3f}>{config.changeup_speed_gap:g}, "
        f"dside={dside:.3f}<{config.sidespin_band:g} -> {'fired' if r2 else 'no'}"
    )
    if r2:
        return PitchType.CHANGEUP, trace

    if same:
        two_seam = dside > dback
        trace.append(
            f"R3 two-seam/sinker: same_side, dside={dside:.3f} vs dback={dback:.3f} -> "
            f"{'two-seam' if two_seam else 'sinker'}"
        )
        return (PitchType.TWO_SEAM if two_seam else PitchType.SINKER), trace
    trace.append("R3 two-seam/sinker: same_side=False -> no")

    r4 = dspeed > config.changeup_speed_gap and back <= config.curveball_backspin_max
    trace.append(
        f"R4 curveball: opposite_or_topspin, dspeed={dspeed:.3f}>{config.changeup_speed_gap:g}, "
        f"back={back:.3f}<={config.curveball_backspin_max:g} -> {'fired' if r4 else 'no'}"
    )
    if r4:
        return PitchType.CURVEBALL, trace

    r5 = dspeed <= config.cutter_speed_gap
    trace.append(
        f"R5 cutter: opposite side, dspeed={dspeed:.3f}<={config.cutter_speed_gap:g} -> "
        f"{'fired' if r5 else 'no'}"
    )
    if r5:
        return PitchType.CUTTER, trace

    trace.append("R6 slider: opposite side, catch-all -> fired")
    return PitchType.SLIDER, trace


def label_clusters(fit: FittedMixture, config: LabelConfig = LabelConfig(),
                   anchor_override: int | None = None) -> LabeledModel:
    """Name every component via the anchor-relative rule cascade.

    Total for any valid fit: the anchor takes FourSeam and each remaining
    component matches one of R1..R6 (R3 and R6 are catch-alls for their
    sign branches). ``rule_trace`` records every rule evaluated per
    component, with the measured quantities.
    """
    if anchor_override is not None:
        if not (0 <= anchor_override < fit.k):
            raise ValueError(f"anchor_override {anchor_override} out of range for k={fit.k}")
        anchor_idx = anchor_override
        anchor_note = f"anchor: forced by override to component {anchor_idx}"
    else:
        anchor_idx = _pick_anchor(fit.components)
        anchor_note = (
            f"anchor: highest mean start speed "
            f"({fit.components[anchor_idx].mean[0]:.3f} mph, weight "
            f"{fit.components[anchor_idx].weight:.3f})"
        )
    anchor = fit.components[anchor_idx]
    labels: list[PitchType] = []
    traces: list[tuple[str, ...]] = []
    for idx, comp in enumerate(fit.components):
        if idx == anchor_idx:
            labels.append(PitchType.FOUR_SEAM)
            traces.append((anchor_note,))
            continue
        label, trace = _label_one(comp, anchor, config)
        labels.append(label)
        traces.append(tuple(trace))
    return LabeledModel(
        fit=fit, labels=tuple(labels), anchor_index=anchor_idx,
        rule_trace=tuple(traces), config=config,
    )


def classify_pitch(model: LabeledModel, x) -> tuple[PitchType, int, np.ndarray]:
    """Posterior-assign one pitch, then map the winning cluster to its name."""
    idx, posterior = posterior_assign(model.fit, x)
    return model.labels[idx], idx, posterior


def classify_dataset(model: LabeledModel, data) -> tuple[np.ndarray, list[PitchType], np.ndarray]:
    """(cluster_index, pitch_type, max posterior) for every row of ``data``."""
    resp, _ = e_step(model.fit.components, data)
    idx = np.argmax(resp, axis=1)
    pmax = resp[np.arange(resp.shape[0]), idx]
    return idx, [model.labels[i] for i in idx.tolist()], pmax


def write_labeled_csv(dest, indices, types, pmax, reference_labels=None) -> None:
    """Per-pitch labels: row_id, cluster_index, pitch_type, posterior_max, reference_label."""
    indices = np.asarray(indices)
    n = len(indices)
    write_csv_columns(dest, ["row_id", "cluster_index", "pitch_type", "posterior_max",
                             "reference_label"],
                      [np.arange(n), indices, types, np.asarray(pmax, dtype=np.float64),
                       (None,) * n if reference_labels is None else reference_labels])


def confusion_counts(reference_labels, types) -> dict[tuple[str, str], int]:
    """Counts of (reference_label, assigned pitch_type) pairs, unlabeled rows skipped."""
    counts: dict[tuple[str, str], int] = {}
    for (ref, pt), count in Counter(zip(reference_labels, types)).items():
        if ref:
            key = (ref, str(pt))
            counts[key] = counts.get(key, 0) + count
    return counts


def format_confusion(counts: dict[tuple[str, str], int]) -> str:
    """Small fixed-width table of reference labels vs assigned types."""
    refs = sorted({r for r, _ in counts})
    assigned = sorted({a for _, a in counts})
    if not refs:
        return "(no reference labels present)"
    width = max(12, max(len(r) for r in refs) + 2)
    header = "reference".ljust(width) + "".join(a.rjust(13) for a in assigned) + "    total"
    lines = [header]
    for r in refs:
        row = [counts.get((r, a), 0) for a in assigned]
        lines.append(r.ljust(width) + "".join(str(v).rjust(13) for v in row) + str(sum(row)).rjust(9))
    return "\n".join(lines)

"""Plot-data emission: colored scatter CSV and an SVG of the 2-D projections.

Colors follow the conventional pitch-type palette (four-seam red, two-seam
grey, sinker light blue, cutter blue, changeup green, knuckleball orange,
slider brown); curveball clusters alternate black then purple so split
curveball clusters stay distinguishable. Output is plain SVG rather than a
raster so identical inputs produce identical bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ingest import csv_rows
from .labeling import PitchType

BASE_COLORS: dict[PitchType, str] = {
    PitchType.FOUR_SEAM: "red",
    PitchType.TWO_SEAM: "grey",
    PitchType.SINKER: "lightblue",
    PitchType.CUTTER: "blue",
    PitchType.CHANGEUP: "green",
    PitchType.KNUCKLEBALL: "orange",
    PitchType.SLIDER: "brown",
}
CURVEBALL_COLORS = ("black", "purple")
INTENTIONAL_COLOR = "yellow"  # palette completeness; intentional balls are filtered upstream

PANELS = (
    (0, 1, "start speed (mph)", "back spin"),
    (0, 2, "start speed (mph)", "side spin"),
    (1, 2, "back spin", "side spin"),
)


def cluster_colors(labels: Sequence[PitchType]) -> list[str]:
    """Per-cluster colors; repeat curveballs cycle black/purple."""
    colors = []
    curveballs = 0
    for label in labels:
        if label is PitchType.CURVEBALL:
            colors.append(CURVEBALL_COLORS[curveballs % len(CURVEBALL_COLORS)])
            curveballs += 1
        else:
            colors.append(BASE_COLORS[label])
    return colors


def write_plot_csv(dest, X: np.ndarray, types: Sequence[PitchType],
                   colors: Sequence[str]) -> None:
    """Scatter rows: start_speed, back_spin, side_spin, pitch_type, color."""
    with csv_rows(dest) as writer:
        writer.writerow(["start_speed", "back_spin", "side_spin", "pitch_type", "color"])
        for row, ptype, color in zip(X, types, colors):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(row[2])),
                             str(ptype), color])


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def projection_svg(X: np.ndarray, point_colors: Sequence[str],
                   legend: Sequence[tuple[str, str]] = ()) -> str:
    """Self-contained SVG with the three pairwise projections side by side.

    ``legend`` is (label, color) pairs rendered once under the panels.
    Coordinates are rounded to fixed precision so output is byte-stable.
    """
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
        x_lo, x_hi = _axis_range(X[:, ix])
        y_lo, y_hi = _axis_range(X[:, iy])
        sx = panel / (x_hi - x_lo)
        sy = panel / (y_hi - y_lo)
        for row, color in zip(X, point_colors):
            cx = ox + (float(row[ix]) - x_lo) * sx
            cy = oy + panel - (float(row[iy]) - y_lo) * sy
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{color}" fill-opacity="0.65"/>')
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

import io

import numpy as np
import pytest

from pitchmbc.labeling import PitchType
from pitchmbc.plotting import (BASE_COLORS, CURVEBALL_COLORS, cluster_colors,
                               projection_svg, write_plot_csv, write_projection_svg)


def test_palette_matches_convention():
    assert BASE_COLORS[PitchType.FOUR_SEAM] == "red"
    assert BASE_COLORS[PitchType.TWO_SEAM] == "grey"
    assert BASE_COLORS[PitchType.SINKER] == "lightblue"
    assert BASE_COLORS[PitchType.CUTTER] == "blue"
    assert BASE_COLORS[PitchType.CHANGEUP] == "green"
    assert BASE_COLORS[PitchType.KNUCKLEBALL] == "orange"
    assert BASE_COLORS[PitchType.SLIDER] == "brown"
    assert CURVEBALL_COLORS == ("black", "purple")


def test_cluster_colors_four_seam_and_curveball():
    colors = cluster_colors([PitchType.FOUR_SEAM, PitchType.CURVEBALL])
    assert colors == ["red", "black"]


def test_curveball_pair_cycles_black_then_purple():
    colors = cluster_colors([PitchType.FOUR_SEAM, PitchType.CURVEBALL,
                             PitchType.SLIDER, PitchType.CURVEBALL])
    assert colors == ["red", "black", "brown", "purple"]


def test_plot_csv_contents():
    X = np.array([[91.0, 120.0, -40.0], [77.5, -60.0, 30.0]])
    buf = io.StringIO()
    write_plot_csv(buf, X, [PitchType.FOUR_SEAM, PitchType.CURVEBALL], ["red", "black"])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "start_speed,back_spin,side_spin,pitch_type,color"
    assert lines[1] == "91.0,120.0,-40.0,FourSeam,red"
    assert lines[2] == "77.5,-60.0,30.0,Curveball,black"


def test_plot_csv_empty_is_header_only():
    buf = io.StringIO()
    write_plot_csv(buf, np.empty((0, 3)), [], [])
    assert buf.getvalue() == "start_speed,back_spin,side_spin,pitch_type,color\n"


def test_svg_deterministic_and_wellformed():
    rng = np.random.default_rng(3)
    X = rng.uniform(-10, 10, size=(25, 3))
    colors = ["red"] * 15 + ["black"] * 10
    legend = [("FourSeam", "red"), ("Curveball", "black")]
    svg1 = projection_svg(X, colors, legend)
    svg2 = projection_svg(X, colors, legend)
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert svg1.rstrip().endswith("</svg>")
    assert svg1.count("<circle") == 3 * 25 + len(legend)
    assert "start speed (mph)" in svg1


def test_svg_empty_input():
    svg = projection_svg(np.empty((0, 3)), [])
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "<circle" not in svg


def test_svg_with_a_color_missing_raises_before_writing(tmp_path):
    X = np.array([[90.0, 1.0, 2.0], [80.0, 3.0, 4.0]])
    with pytest.raises(ValueError, match="1 colors for 2 points"):
        projection_svg(X, ["red"])
    svg = tmp_path / "projections.svg"
    with pytest.raises(ValueError, match="1 colors for 2 points"):
        write_projection_svg(svg, X, ["red"])
    assert not svg.exists()

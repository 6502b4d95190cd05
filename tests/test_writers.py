"""The per-pitch writers give the bytes of their row-at-a-time oracles.

Reference labels, pitch-type names and colors are public inputs, so the
strategies below draw text full of what ``csv.writer`` has to quote, and
floats at the edges of ``repr`` and ``:.2f``. Each CSV writer is checked
with a text-stream and with a path destination.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import reference_labeled_csv, reference_plot_csv, reference_projection_svg
from pitchmbc.ingest import ROWS_PER_CALL
from pitchmbc.labeling import PitchType, write_labeled_csv
from pitchmbc.plotting import projection_svg, write_plot_csv

EDGE_FLOATS = (-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# bounded so that the SVG's axis arithmetic cannot overflow
SVG_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e16, 1e16))
TRICKY = (",", '"', "\r", "\n", "%", "%s", " ", "\t", ";", "'", "a", "FF", "é", "⚾")
TEXT = st.lists(st.sampled_from(TRICKY), max_size=4).map("".join)
LABELS = st.one_of(st.none(), TEXT)
TYPES = st.sampled_from(list(PitchType))
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def written(write, tmp_path) -> str:
    """What ``write(dest)`` puts in a text stream, which it must leave open; what
    it writes to a path must be the same text in UTF-8."""
    buf = io.StringIO()
    write(buf)
    assert not buf.closed
    path = tmp_path / "out.csv"
    write(path)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    return buf.getvalue()


def assert_same_svg(X, colors, legend):
    """``projection_svg`` gives the oracle's text, or raises where it raises (a
    constant column of magnitude 2**53 or more leaves a zero-width axis).
    numpy's warnings are off: a subnormal axis width makes the scale infinite
    and the coordinates NaN, and both sides must still agree on the text."""
    with np.errstate(all="ignore"):
        try:
            want = reference_projection_svg(X, colors, legend)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                projection_svg(X, colors, legend)
            return
        assert projection_svg(X, colors, legend) == want


def labeled_rows(n):
    return st.tuples(st.lists(st.integers(0, 12), min_size=n, max_size=n),
                     st.lists(TYPES, min_size=n, max_size=n),
                     st.lists(FLOATS, min_size=n, max_size=n),
                     st.one_of(st.none(), st.lists(LABELS, min_size=n, max_size=n)))


def point_rows(n, floats):
    return st.tuples(st.lists(st.tuples(floats, floats, floats), min_size=n, max_size=n),
                     st.lists(TYPES, min_size=n, max_size=n),
                     st.lists(TEXT, min_size=n, max_size=n))


SIZES = st.one_of(st.just(0), st.just(1), st.integers(2, 60))


@SETTINGS
@given(SIZES.flatmap(labeled_rows))
@example(([], [], [], None))
@example(([3], [PitchType.SLIDER], [-0.0], [None]))
@example(([0, 1, 2, 3, 4], [PitchType.FOUR_SEAM] * 5, list(EDGE_FLOATS),
          ['a,b', 'say "hi"', "\r\n", " 50% ", ""]))
def test_labeled_csv_matches_oracle(tmp_path, rows):
    indices, types, pmax, refs = rows
    got = written(lambda d: write_labeled_csv(d, np.array(indices, dtype=np.int64), types,
                                              np.array(pmax), refs), tmp_path)
    assert got == reference_labeled_csv(indices, types, pmax, refs)


@SETTINGS
@given(SIZES.flatmap(lambda n: point_rows(n, FLOATS)))
@example(([], [], []))
@example(([tuple(EDGE_FLOATS[:3])], [PitchType.CURVEBALL], ['"red", or "blue"']))
def test_plot_csv_matches_oracle(tmp_path, rows):
    points, types, colors = rows
    X = np.array(points, dtype=np.float64).reshape(-1, 3)
    got = written(lambda d: write_plot_csv(d, X, types, colors), tmp_path)
    assert got == reference_plot_csv(X, types, colors)


@SETTINGS
@given(SIZES.flatmap(lambda n: point_rows(n, SVG_FLOATS)),
       st.lists(st.tuples(TEXT, TEXT), max_size=3))
@example(([], [], []), [])
@example(([(5e-324, 1e-7, -0.0)], [PitchType.SINKER], ["%s"]), [("50%", "%d")])
@example(([(-0.0, -0.0, -0.0), (5e-324, -0.0, -0.0)], [PitchType.SLIDER] * 2, ["", ""]), [])
def test_projection_svg_matches_oracle(rows, legend):
    points, _, colors = rows
    assert_same_svg(np.array(points, dtype=np.float64).reshape(-1, 3), colors, legend)


@pytest.mark.parametrize("seed,n", [(0, ROWS_PER_CALL), (1, 3000)])
def test_many_rows_match_oracles(tmp_path, seed, n):
    """One full block of rows, and several blocks with a partial one, drawn
    from the same awkward pools."""
    rng = np.random.default_rng(seed)
    types = [list(PitchType)[i] for i in rng.integers(len(PitchType), size=n)]
    texts = ["".join(rng.choice(TRICKY, size=int(size))) for size in rng.integers(4, size=n)]
    refs = [None if i % 7 == 0 else t for i, t in enumerate(texts)]
    pmax = rng.choice(np.concatenate([EDGE_FLOATS, rng.uniform(0, 1, 50)]), size=n)
    X = np.where(rng.uniform(size=(n, 3)) < 0.1, rng.choice(EDGE_FLOATS, size=(n, 3)),
                 rng.normal(80, 30, size=(n, 3)))
    indices = rng.integers(9, size=n)
    assert (written(lambda d: write_labeled_csv(d, indices, types, pmax, refs), tmp_path)
            == reference_labeled_csv(indices, types, pmax, refs))
    assert (written(lambda d: write_plot_csv(d, X, types, texts), tmp_path)
            == reference_plot_csv(X, types, texts))
    assert_same_svg(X, texts, [("FF", "red")])

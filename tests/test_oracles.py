"""Two oracles of fit quality, held as floors.

- EM optima: production ``fit_em`` on the 432 fixed cases of
  ``scripts/reference_optima.py``, against each case's best log-likelihood
  over 64 single-restart full-EM runs in ``tests/optima.json``.
- Per-pitch accuracy: the pipeline of ``scripts/accuracy_map.py`` on a fixed
  subset of its grid, scored against the generator's archetypes.

The cases are fixed: never re-seed or resize them to hide a miss. A change
that lowers a floor says so, with the old and new counts, in CHANGES.md; one
that raises a count raises its floor.

Both sets of floors were recorded on the platform stamped in
``tests/optima.json``. Elsewhere rounding can lead a fit to another optimum
by an unmeasured amount, so the floor tests skip there, as the golden bytes
do.
"""

import json
import runpy
import statistics
from pathlib import Path

import pytest

from pitchmbc.platform_stamp import platform_stamp

ROOT = Path(__file__).resolve().parents[1]
OPTIMA = runpy.run_path(str(ROOT / "scripts" / "reference_optima.py"), run_name="optima")
ACCURACY = runpy.run_path(str(ROOT / "scripts" / "accuracy_map.py"), run_name="accuracy")

# production cases within REL of the reference, and above it
HITS_FLOOR, BEATS_FLOOR = 222, 5
# (n, spread): floors of the median and the minimum BIC-adj accuracy over
# runs 0-9, truncated to three decimals
ACCURACY_FLOORS = {
    (150, 1.0): (1.0, 1.0),
    (150, 1.3): (0.833, 0.74),
    (150, 1.6): (0.713, 0.533),
    (150, 2.0): (0.613, 0.086),
    (400, 1.3): (0.986, 0.975),
}


@pytest.fixture(scope="module")
def optima() -> dict:
    return json.loads((ROOT / "tests" / "optima.json").read_text(encoding="utf-8"))


@pytest.fixture
def recorded_platform(optima):
    here = platform_stamp()
    if here != optima["platform"]:
        pytest.skip(f"floors recorded with {optima['platform']}, running {here}")


def test_reference_optima_cover_the_fixed_cases(optima):
    assert optima["runs"] == 64
    assert [(c["n"], c["seed"], c["spread"], c["k"]) for c in optima["cases"]] == \
        list(OPTIMA["CASES"])


def test_production_fit_reaches_reference_optima(optima, recorded_platform):
    got = OPTIMA["outcomes"](optima)
    hits, beats = got.count("hit"), got.count("beat")
    assert hits >= HITS_FLOOR and beats >= BEATS_FLOOR, (hits, beats)


@pytest.mark.parametrize("cell", sorted(ACCURACY_FLOORS))
def test_per_pitch_accuracy_holds_its_floors(cell, recorded_platform):
    accuracies = [ACCURACY["run"](*cell, i)[1] for i in range(10)]
    median, low = ACCURACY_FLOORS[cell]
    assert statistics.median(accuracies) >= median and min(accuracies) >= low, accuracies

"""The three benchmark workloads: the CLI commands of one operation, the
checks on its outputs, and the facts the quality metrics are built from.

Each operation calls ``pitchmbc.cli.main`` in-process, exactly as the
``pitchmbc`` console script would. Checks run after the operation's clock
has stopped. An operation fails if a command raises or exits non-zero, or
if an output fails a check; a repeated operation must reproduce its first
outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
import traceback
from pathlib import Path

import pitchmbc.cli
from pitchmbc.archive import archive_to_json, load_archive
from pitchmbc.errors import PitchMbcError
from pitchmbc.labeling import PitchType

VALID_TYPES = {t.value for t in PitchType}
STABILITY_REPS = "20"


class CheckFailed(Exception):
    """An output did not pass a benchmark check."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = pitchmbc.cli.main(argv)
    return code, sink.getvalue()


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_archive(path: Path) -> dict:
    """The archive loads, re-serialises to the same bytes and has valid labels."""
    text = path.read_text(encoding="utf-8")
    try:
        archive = load_archive(path)
    except PitchMbcError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    _require(archive_to_json(archive) == text, f"{path.name}: re-serialised bytes differ")
    labels = [str(label) for label in archive.labels]
    _require(set(labels) <= VALID_TYPES, f"{path.name}: invalid label in {labels}")
    return {"k": archive.fit.k, "labels": sorted(labels)}


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _truth_matches(fact: dict, truth: dict) -> bool:
    return fact["k"] == truth["k"] and fact["labels"] == truth["labels"]


class Workload:
    """The commands and checks of one workload's operations.

    ``op`` is an entry of the generator's manifest; ``out`` the directory the
    operation writes to.
    """

    name = ""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.model: Path | None = None

    def commands(self, op: dict, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, op: dict, out: Path) -> list[Path]:
        raise NotImplementedError

    def check(self, op: dict, out: Path) -> dict:
        """Raise CheckFailed or return the facts the quality metrics use."""
        raise NotImplementedError

    def run(self, op: dict, out: Path) -> tuple[float, str | None]:
        """Time the operation's commands; returns (seconds, failure or None)."""
        out.mkdir(parents=True, exist_ok=True)
        failure = None
        start = time.perf_counter()
        try:
            for argv in self.commands(op, out):
                code, text = run_cli(argv)
                if code != 0:
                    failure = f"{argv[0]} exited {code}: {text.strip()[-300:]}"
                    break
        except Exception:  # the benchmark keeps running and counts the failure
            failure = traceback.format_exc(limit=3)
        return time.perf_counter() - start, failure

    def input_path(self, op: dict) -> str:
        return str(self.inputs / op["files"][0])


class FitLarge(Workload):
    """``pitchmbc fit --kmin 1 --kmax 9`` on one large single-pitcher file."""

    name = "fit-large"

    def commands(self, op, out):
        return [["fit", "--input", self.input_path(op), "--kmin", "1", "--kmax", "9",
                 "--out", str(out / "model.json")]]

    def outputs(self, op, out):
        return [out / "model.json", out / "model_scores.csv"]

    def check(self, op, out):
        fact = check_archive(out / "model.json")
        scores = _read_csv(out / "model_scores.csv")
        _require([int(r["k"]) for r in scores] == list(range(1, 10)), "score table lacks k=1..9")
        return {op["pitchers"][0]["id"]: fact}


class CohortBatch(Workload):
    """``pitchmbc batch --reps 20`` over one team file of four pitchers."""

    name = "cohort-batch"

    def commands(self, op, out):
        return [["batch", "--input", self.input_path(op), "--reps", STABILITY_REPS,
                 "--outdir", str(out)]]

    def outputs(self, op, out):
        names = ["summary.csv", "stability_agreements.csv"]
        for p in op["pitchers"]:
            names += [f"{p['id']}.json", f"{p['id']}_scores.csv", f"{p['id']}_stability.csv"]
        return [out / name for name in names]

    def check(self, op, out):
        rows = _read_csv(out / "summary.csv")
        expected = [p["id"] for p in op["pitchers"]]
        _require(sorted(r["pitcher_id"] for r in rows) == sorted(expected),
                 f"summary lists {[r['pitcher_id'] for r in rows]}, expected {expected}")
        facts = {}
        for row in rows:
            pid = row["pitcher_id"]
            _require(row["status"] == "ok", f"{pid}: status {row['status']!r}")
            fact = check_archive(out / f"{pid}.json")
            _require(int(row["k"]) == fact["k"], f"{pid}: summary k differs from archive")
            for key in ("mean_80", "mean_20"):
                value = float(row[key])
                _require(0.0 <= value <= 1.0, f"{pid}: {key}={value} outside [0, 1]")
            fact["agree20"] = float(row["mean_20"])
            facts[pid] = fact
        return facts


class ClassifySeason(Workload):
    """``pitchmbc classify`` then ``pitchmbc plot`` on one season file."""

    name = "classify-season"

    def commands(self, op, out):
        src, model = self.input_path(op), str(self.model)
        return [["classify", "--input", src, "--model", model, "--out", str(out / "labeled.csv")],
                ["plot", "--input", src, "--model", model, "--out", str(out / "plot")]]

    def outputs(self, op, out):
        return [out / "labeled.csv", out / "plot" / "scatter.csv", out / "plot" / "projections.svg"]

    def check(self, op, out):
        want = op["filtered_rows"]
        for name in ("labeled.csv", "plot/scatter.csv"):
            rows, types = 0, set()
            with open(out / name, encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    rows += 1
                    types.add(row["pitch_type"])
            _require(rows == want, f"{name} has {rows} rows, expected {want}")
            _require(types <= VALID_TYPES, f"{name}: invalid pitch types {types - VALID_TYPES}")
        svg = (out / "plot" / "projections.svg").read_text(encoding="utf-8")
        _require(svg.startswith("<svg") and svg.endswith("</svg>\n"), "projections.svg truncated")
        return {}


WORKLOADS = {w.name: w for w in (FitLarge, CohortBatch, ClassifySeason)}


def model_true_frac(facts: dict, pitchers: list[dict]) -> float:
    """Share of pitchers whose selected k and label multiset match the truth."""
    hits = sum(1 for p in pitchers if p["id"] in facts and _truth_matches(facts[p["id"]], p))
    return hits / len(pitchers)


def stability_agree20(input_path: str, k: int, out: Path) -> float:
    """mean_20 from ``pitchmbc stability --reps 20`` at the selected k."""
    out.mkdir(parents=True, exist_ok=True)
    dest = out / "stability.csv"
    code, text = run_cli(["stability", "--input", input_path, "--k", str(k),
                          "--reps", STABILITY_REPS, "--out", str(dest)])
    if code != 0:
        raise CheckFailed(f"stability exited {code}: {text.strip()[-300:]}")
    summary = [r for r in _read_csv(dest) if r["row"] == "summary"]
    value = float(summary[0]["agreement_20"])
    _require(0.0 <= value <= 1.0, f"agreement_20={value} outside [0, 1]")
    return value

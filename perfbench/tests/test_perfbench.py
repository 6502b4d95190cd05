"""Self-test of the benchmark: a tiny-size run of every workload, failure
accounting for a corrupted output, and the refusal to run without sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_truncated_archive_counts_as_failed(monkeypatch):
    import pitchmbc.cli
    original = pitchmbc.cli.save_archive
    calls = []

    def save_then_truncate(archive, path):
        original(archive, path)
        calls.append(path)
        if len(calls) == 3:  # call 1 is the warm-up, 2 the first timed operation
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(pitchmbc.cli, "save_archive", save_then_truncate)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "fit-large", "--seed", "0", "--seconds", "0.2",
                         "--trace", "0", "--size", "tiny"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == (result["attempted"] - 1) / result["attempted"]
    assert "FAILED op1" in out.getvalue()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},  # overlaps span 1
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},  # grandchild: not span 0's
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)


def test_a_fit_that_raised_is_timed_but_not_counted():
    def span(i, name, parent, start, end, **counts):
        return {"id": i, "name": name, "parent": parent, "op": 0,
                "start": start, "end": end, **counts}

    spans = [
        span(0, "stability.run", None, 0.0, 4.0, ok_reps=0, attempted_reps=1),
        span(1, "mixture.fit_em", 0, 0.0, 1.0, k=3, n=90, restarts=8, iterations=12,
             converged=True, ll_decrease_max=0.0),
        span(2, "mixture.fit_em", 0, 1.0, 3.0),  # raised AllRestartsDegenerate
    ]
    m = layer_metrics(spans)
    assert m["stability.fit_em_calls"] == 2
    assert m["mixture.fit_em_s"] == pytest.approx(3.0)
    assert m["mixture.iterations_total"] == 12
    assert m["mixture.fit_em_s_k3"] == pytest.approx(1.0)
    assert m["stability.ok_reps"] == 0 and m["stability.attempted_reps"] == 1

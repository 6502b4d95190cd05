"""Spans recorded from outside the program, and the per-layer metrics built on them.

:class:`Tracer` replaces public pitchmbc functions, at the names each calling
module imported, with wrappers that record a span: name, start, end, parent
span and operation id, plus counts taken from the arguments and the result.
Spans stay in memory until the run ends. Nothing under ``src/`` is changed;
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path


def _fit_counts(args, kwargs, result) -> dict:
    # selection and stability both call fit_em(X, k, config) with an array X
    X, k, config = args
    return {"k": int(k), "n": len(X), "restarts": config.restarts,
            "iterations": result.iterations, "converged": bool(result.converged),
            "ll_decrease_max": float(result.ll_decrease_max)}


def _parse_counts(args, kwargs, result) -> dict:
    return {"rows": result.n, "rejected": len(result.rejected)}


def _select_counts(args, kwargs, result) -> dict:
    return {"failed_k": len(result.failures)}


def _stability_counts(args, kwargs, result) -> dict:
    return {"ok_reps": len(result.per_replication), "attempted_reps": result.replications}


def _classify_counts(args, kwargs, result) -> dict:
    return {"rows": len(result[0])}


def _save_counts(args, kwargs, result) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def _svg_counts(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, counts taken at the span)
WRAP_POINTS = (
    ("pitchmbc.cli", "main", "cli.command", None),
    ("pitchmbc.cli", "parse_pitch_csv", "ingest.parse", _parse_counts),
    ("pitchmbc.cli", "filter_pitches", "ingest.filter", None),
    ("pitchmbc.cli", "select_k", "selection.select_k", _select_counts),
    ("pitchmbc.selection", "fit_em", "mixture.fit_em", _fit_counts),
    ("pitchmbc.cli", "stability_run", "stability.run", _stability_counts),
    ("pitchmbc.stability", "fit_em", "mixture.fit_em", _fit_counts),
    ("pitchmbc.stability", "aligned_agreement", "stability.align", None),
    ("pitchmbc.cli", "label_clusters", "labeling.label", None),
    ("pitchmbc.cli", "classify_dataset", "labeling.classify", _classify_counts),
    ("pitchmbc.labeling", "e_step", "mixture.e_step", None),
    ("pitchmbc.cli", "write_labeled_csv", "labeling.write_csv", None),
    ("pitchmbc.cli", "save_archive", "archive.save", _save_counts),
    ("pitchmbc.cli", "load_archive", "archive.load", None),
    ("pitchmbc.cli", "projection_svg", "plotting.svg", _svg_counts),
    ("pitchmbc.cli", "write_plot_csv", "plotting.csv", None),
)


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[dict] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, func, name, counts):
        def wrapper(*args, **kwargs):
            span = {"name": name, "op": self.op_id, "id": len(self.spans),
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counts in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {s["id"]: _duration(s) - _covered(children.get(s["id"], [])) for s in spans}


def layer_metrics(spans: list[dict], max_k: int = 9) -> dict[str, float]:
    """Per-layer totals over the given spans (one traced cycle of operations)."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    own = self_times(spans)
    ids = {s["id"]: s for s in spans}

    def total(name: str) -> float:
        return sum(_duration(s) for s in by_name.get(name, []))

    def count(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    def fits_under(parent_name: str) -> list[dict]:
        return [s for s in by_name.get("mixture.fit_em", [])
                if s["parent"] is not None and ids[s["parent"]]["name"] == parent_name]

    fits = by_name.get("mixture.fit_em", [])
    done = [s for s in fits if "k" in s]  # a fit that raised has no counts
    fit_times = [_duration(s) for s in fits]
    parse_rows = count("ingest.parse", "rows") + count("ingest.parse", "rejected")
    classify_s = total("labeling.classify")
    stab_fits = fits_under("stability.run")
    m = {
        "ingest.parse_s": total("ingest.parse"),
        "ingest.us_per_row": 1e6 * total("ingest.parse") / parse_rows if parse_rows else 0.0,
        "ingest.rows": parse_rows,
        "ingest.rejected_rows": count("ingest.parse", "rejected"),
        "ingest.filter_s": total("ingest.filter"),
        "mixture.fit_em_s": sum(fit_times),
        "mixture.fit_em_p50_s": statistics.median(fit_times) if fit_times else 0.0,
        "mixture.fit_em_calls": len(fits),
        "mixture.iterations_total": sum(s["iterations"] for s in done),
        "mixture.max_iter_hits": sum(1 for s in done if not s["converged"]),
        "mixture.ll_decrease_max": max((s["ll_decrease_max"] for s in done), default=0.0),
        "selection.select_k_s": total("selection.select_k"),
        "selection.self_s": sum(own[s["id"]] for s in by_name.get("selection.select_k", [])),
        "selection.failed_k": count("selection.select_k", "failed_k"),
        "stability.run_s": total("stability.run"),
        "stability.fit_em_calls": len(stab_fits),
        "stability.fit_em_s": sum(_duration(s) for s in stab_fits),
        "stability.align_s": total("stability.align"),
        "stability.ok_reps": count("stability.run", "ok_reps"),
        "stability.attempted_reps": count("stability.run", "attempted_reps"),
        "labeling.label_s": total("labeling.label"),
        "labeling.classify_s": classify_s,
        "labeling.classify_rows_per_s":
            count("labeling.classify", "rows") / classify_s if classify_s else 0.0,
        "labeling.write_csv_s": total("labeling.write_csv"),
        "archive.save_s": total("archive.save"),
        "archive.load_s": total("archive.load"),
        "archive.bytes": count("archive.save", "bytes"),
        "plotting.svg_s": total("plotting.svg"),
        "plotting.svg_bytes": count("plotting.svg", "bytes"),
        "plotting.csv_s": total("plotting.csv"),
        "cli.command_s": total("cli.command"),
        "cli.self_s": sum(own[s["id"]] for s in by_name.get("cli.command", [])),
    }
    for k in range(1, max_k + 1):
        m[f"mixture.fit_em_s_k{k}"] = sum(_duration(s) for s in done if s["k"] == k)
    return m


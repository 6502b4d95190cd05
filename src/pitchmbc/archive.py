"""Versioned JSON persistence for fitted, labeled models.

Archives are human-readable JSON with sorted keys and stable layout, so the
same model always serializes to the same bytes. The layout is the dataclass
fields: the top-level keys are those of :class:`ModelArchive`, ``fit`` holds
those of :class:`FittedMixture` minus ``responsibilities`` (recomputable from
the components and the data), each component those of
:class:`MixtureComponent` and each score row those of :class:`CriterionScore`.
Floats go through Python's shortest round-trip repr, which json preserves
exactly, making load(save(m)) lossless.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ArchiveError, ArchiveVersionMismatch
from .labeling import LabelConfig, LabeledModel, PitchType
from .mixture import FittedMixture, MixtureComponent
from .selection import CriterionScore, SelectionResult

FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class ModelArchive:
    pitcher_id: str
    fit: FittedMixture
    labels: tuple[PitchType, ...]
    anchor_index: int
    rule_trace: tuple[tuple[str, ...], ...]
    score_table: tuple[CriterionScore, ...]
    selection_failures: tuple[tuple[int, str], ...]
    criterion: str
    penalty_scale: float
    config: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def labeled_model(self) -> LabeledModel:
        label_cfg = LabelConfig(**self.config.get("labels", {}))
        return LabeledModel(
            fit=self.fit, labels=self.labels, anchor_index=self.anchor_index,
            rule_trace=self.rule_trace, config=label_cfg,
        )


def archive_from_results(pitcher_id: str, labeled: LabeledModel,
                         selection: SelectionResult,
                         config: dict | None = None) -> ModelArchive:
    return ModelArchive(
        pitcher_id=pitcher_id,
        fit=replace(labeled.fit, responsibilities=None),
        labels=labeled.labels,
        anchor_index=labeled.anchor_index,
        rule_trace=labeled.rule_trace,
        score_table=selection.scores,
        selection_failures=selection.failures,
        criterion=selection.criterion,
        penalty_scale=selection.penalty_scale,
        config=dict(config or {}),
    )


def archive_to_json(archive: ModelArchive) -> str:
    doc = asdict(archive)
    del doc["fit"]["responsibilities"]
    return json.dumps(doc, indent=2, sort_keys=True, default=lambda a: a.tolist()) + "\n"


def save_archive(archive: ModelArchive, path) -> None:
    Path(path).write_text(archive_to_json(archive), encoding="utf-8")


def _fit_from_dict(doc: dict) -> FittedMixture:
    components = tuple(
        MixtureComponent(
            mean=c["mean"], stddev=c["stddev"],
            correlation=c["correlation"], weight=c["weight"],
        )
        for c in doc["components"]
    )
    return FittedMixture(
        components=components,
        k=int(doc["k"]),
        log_likelihood=float(doc["log_likelihood"]),
        iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
        responsibilities=None,
        seed=int(doc["seed"]),
        ll_trace=tuple(float(v) for v in doc["ll_trace"]),
        ll_decrease_max=float(doc["ll_decrease_max"]),
    )


def load_archive(path) -> ModelArchive:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"not a model archive: {exc}") from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveVersionMismatch(version, FORMAT_VERSION)
    try:
        return ModelArchive(
            pitcher_id=doc["pitcher_id"],
            fit=_fit_from_dict(doc["fit"]),
            labels=tuple(PitchType(v) for v in doc["labels"]),
            anchor_index=int(doc["anchor_index"]),
            rule_trace=tuple(tuple(t) for t in doc["rule_trace"]),
            score_table=tuple(CriterionScore(**s) for s in doc["score_table"]),
            selection_failures=tuple((int(k), reason) for k, reason in doc["selection_failures"]),
            criterion=doc["criterion"],
            penalty_scale=float(doc["penalty_scale"]),
            config=doc.get("config", {}),
            format_version=int(version),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveError(f"malformed archive: {exc}") from None

"""Versioned JSON persistence for fitted, labeled models.

Archives are human-readable JSON with sorted keys and stable layout, so the
same model always serializes to the same bytes. The layout is the dataclass
fields: the top-level keys are those of :class:`ModelArchive`, ``fit`` holds
those of :class:`FittedMixture` minus ``responsibilities`` (recomputable from
the components and the data), each component those of
:class:`MixtureComponent` and each score row those of :class:`CriterionScore`.
The fit's ``k``, ``log_likelihood``, ``iterations`` and ``ll_decrease_max`` and
each score row's ``bic_adj`` are derived copies. ``load_archive`` reads the top
level, the fit and each score row alike: just their fields, each derived copy
checked, and each bool, int, float and str field, ``ll_trace`` entry and
``selection_failures`` k a JSON value of that type (:func:`is_json_type`).
Floats go through Python's shortest round-trip repr, which json preserves
exactly, making load(save(m)) lossless.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
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
        return LabeledModel(
            fit=self.fit, labels=self.labels, anchor_index=self.anchor_index,
            rule_trace=self.rule_trace, config=_label_config(self.config),
        )


def _label_config(config) -> LabelConfig:
    """The rule-cascade thresholds an archive's ``config.labels`` records."""
    labels = config.get("labels", {}) if isinstance(config, dict) else None
    if not isinstance(labels, dict):
        raise TypeError(f"config and config.labels must be JSON objects, got {config!r}")
    return LabelConfig(**labels)


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


_JSON_SCALARS = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def is_json_type(declared: str, value) -> bool:
    """Whether ``value`` is a JSON value of the ``declared`` type name, if that is bool,
    int, float (an int too) or str, else True; a JSON bool fits a bool only."""
    kinds = _JSON_SCALARS.get(declared)
    return kinds is None or (isinstance(value, kinds)
                             and isinstance(value, bool) == (declared == "bool"))


def _json_value(declared: str, value, what: str):
    """``value``, if it is a JSON value of the ``declared`` type (see
    :func:`is_json_type`); ValueError naming it as ``what`` if not."""
    if not is_json_type(declared, value):
        raise ValueError(f"{what} is {value!r}, not a JSON {declared}")
    return value


def _record_from_dict(cls, doc: dict, **given):
    """A ``cls`` built from ``given`` and ``doc``'s other init fields; ValueError unless
    ``doc`` holds just the fields of ``cls``, each bool, int, float and str field a
    JSON value of that type, and the value of each derived one."""
    if set(doc) | set(given) != {f.name for f in fields(cls)}:
        raise ValueError(f"{cls.__name__} keys {sorted(doc)} are not its fields")
    for f in fields(cls):
        if f.name not in given:
            _json_value(f.type, doc[f.name], f"{cls.__name__}.{f.name}")
    record = cls(**{f.name: doc[f.name] for f in fields(cls) if f.init and f.name not in given},
                 **given)
    for f in fields(cls):
        if not f.init and doc[f.name] != getattr(record, f.name):
            raise ValueError(f"{cls.__name__}.{f.name} is {doc[f.name]!r}, but the other "
                             f"fields give {getattr(record, f.name)!r}")
    return record


def _fit_from_dict(doc: dict) -> FittedMixture:
    return _record_from_dict(FittedMixture, doc, responsibilities=None,
                             components=tuple(MixtureComponent(**c) for c in doc["components"]),
                             ll_trace=tuple(_json_value("float", v, "FittedMixture.ll_trace entry")
                                            for v in doc["ll_trace"]))


def load_archive(path) -> ModelArchive:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArchiveError(f"not a model archive: {exc}") from None
    if not isinstance(doc, dict):
        raise ArchiveError(f"not a model archive: top level is {type(doc).__name__}, "
                           f"not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveVersionMismatch(version, FORMAT_VERSION)
    try:
        archive = _record_from_dict(
            ModelArchive, doc,
            fit=_fit_from_dict(doc["fit"]),
            labels=tuple(PitchType(v) for v in doc["labels"]),
            rule_trace=tuple(tuple(t) for t in doc["rule_trace"]),
            score_table=tuple(_record_from_dict(CriterionScore, s) for s in doc["score_table"]),
            selection_failures=tuple((_json_value("int", k, "selection_failures k"), reason)
                                     for k, reason in doc["selection_failures"]),
        )
        # what classify and plot index by, checked here so a bad archive
        # is an ArchiveError rather than a crash further on
        _label_config(archive.config)
        k = archive.fit.k
        if len(archive.labels) != k:
            raise ValueError(f"{len(archive.labels)} labels for k={k}")
        if not 0 <= archive.anchor_index < k:
            raise ValueError(f"anchor_index {archive.anchor_index} outside [0, {k})")
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveError(f"malformed archive: {exc}") from None
    return archive

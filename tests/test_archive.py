import json

import pytest

from helpers import assert_fits_identical
from pitchmbc.archive import (archive_from_results, archive_to_json, load_archive,
                              save_archive)
from pitchmbc.errors import ArchiveError, ArchiveVersionMismatch
from pitchmbc.labeling import label_clusters
from pitchmbc.mixture import EmConfig
from pitchmbc.selection import select_k
from pitchmbc.synth import archetype_pitcher


def small_archive(seed=4):
    ds, _, _ = archetype_pitcher(200, seed=seed)
    result = select_k(ds, 1, 5, em=EmConfig(seed=seed, restarts=2, max_iter=200, tol=1e-7))
    labeled = label_clusters(result.best)
    return archive_from_results("synth5", labeled, result,
                                {"labels": {"changeup_speed_gap": 6.0}})


def test_roundtrip_exact(tmp_path):
    archive = small_archive()
    path = tmp_path / "model.json"
    save_archive(archive, path)
    loaded = load_archive(path)
    assert archive_to_json(loaded) == archive_to_json(archive)
    assert loaded.pitcher_id == archive.pitcher_id
    assert loaded.labels == archive.labels
    assert loaded.anchor_index == archive.anchor_index
    assert loaded.rule_trace == archive.rule_trace
    assert loaded.score_table == archive.score_table
    assert loaded.criterion == archive.criterion
    assert loaded.penalty_scale == archive.penalty_scale
    assert loaded.config == archive.config
    assert_fits_identical(loaded.fit, archive.fit)


def test_archive_key_sets_are_pinned():
    # a new dataclass field enters the archive only by editing these literals
    doc = json.loads(archive_to_json(small_archive()))
    assert set(doc) == {"anchor_index", "config", "criterion", "fit", "format_version",
                        "labels", "penalty_scale", "pitcher_id", "rule_trace",
                        "score_table", "selection_failures"}
    assert set(doc["fit"]) == {"components", "converged", "iterations", "k",
                               "ll_decrease_max", "ll_trace", "log_likelihood", "seed"}
    for comp in doc["fit"]["components"]:
        assert set(comp) == {"correlation", "mean", "stddev", "weight"}
    for row in doc["score_table"]:
        assert set(row) == {"bic", "bic_adj", "converged", "correlation_penalty", "k",
                            "log_likelihood", "penalty_scale"}


def test_fit_responsibilities_stripped():
    archive = small_archive()
    assert archive.fit.responsibilities is None
    assert "responsibilities" not in archive_to_json(archive)


def test_awkward_floats_survive(tmp_path):
    archive = small_archive()
    doc = json.loads(archive_to_json(archive))
    awkward = [0.1, 1.0 / 3.0, 1e-300, 123456789.987654321, -7.000000000000001]
    doc["fit"]["components"][0]["mean"] = awkward[:3]
    doc["fit"]["log_likelihood"] = awkward[3]
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    loaded = load_archive(path)
    assert loaded.fit.components[0].mean.tolist() == awkward[:3]
    assert loaded.fit.log_likelihood == awkward[3]
    save_archive(loaded, path)
    again = load_archive(path)
    assert again.fit.components[0].mean.tolist() == awkward[:3]


def test_version_mismatch(tmp_path):
    archive = small_archive()
    doc = json.loads(archive_to_json(archive))
    doc["format_version"] = 99
    path = tmp_path / "future.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArchiveVersionMismatch):
        load_archive(path)


def test_not_json_raises_archive_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("definitely not json {")
    with pytest.raises(ArchiveError):
        load_archive(path)


def test_missing_field_raises_archive_error(tmp_path):
    archive = small_archive()
    doc = json.loads(archive_to_json(archive))
    del doc["labels"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArchiveError):
        load_archive(path)


def test_labeled_model_reconstruction():
    archive = small_archive()
    model = archive.labeled_model()
    assert model.labels == archive.labels
    assert model.anchor_index == archive.anchor_index
    assert model.config.changeup_speed_gap == 6.0


def test_serialization_is_stable_bytes():
    a = small_archive(seed=8)
    b = small_archive(seed=8)
    assert archive_to_json(a) == archive_to_json(b)

"""Command-line front end: fit, classify, stability, plot, batch.

Every command is deterministic given its flags and seed. Errors exit with
distinct codes so pipelines can tell I/O trouble from bad data from fit
failures: 2 usage (argparse), 3 I/O, 4 validation, 5 fit failure,
6 archive problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .archive import archive_from_results, load_archive, save_archive
from .errors import ArchiveError, FitError, IngestError
from .ingest import (OPTIONAL_FIELDS, REQUIRED_FIELDS, ColumnSchema, csv_rows, filter_pitches,
                     parse_pitch_csv)
from .labeling import (LabelConfig, classify_dataset, confusion_counts,
                       format_confusion, label_clusters, write_labeled_csv)
from .mixture import POINTS_PER_COMPONENT, EmConfig, fit_em
from .plotting import cluster_colors, projection_svg, write_plot_csv
from .selection import CRITERIA, SelectionConfig, select_k, write_score_csv
from .stability import check_split, stability_run, write_stability_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_FIT = 5
EXIT_ARCHIVE = 6

_SUMMARY_FIELDS = ("pitcher_id", "n", "k", "labels", "mean_80", "stderr_80",
                  "mean_20", "stderr_20", "status")


def _add_input_options(parser):
    parser.add_argument("--input", required=True, help="delimited pitch file")
    parser.add_argument("--config", help="JSON config file (schema/em/selection/labels sections)")
    parser.add_argument("--delimiter", help="field delimiter (default ,)")
    parser.add_argument("--columns",
                        help="column remapping, e.g. start_speed=velo,side_spin=sspin")
    parser.add_argument("--pitcher", help="restrict a multi-pitcher file to one pitcher_id")


def _add_field_options(parser, config_cls, helps=None):
    """One --flag-name per field of ``config_cls``, typed like the field's default."""
    for f in fields(config_cls):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=None, help=(helps or {}).get(f.name))


def _add_em_options(parser):
    _add_field_options(parser, EmConfig, {"seed": "random seed (default 0)"})


def _add_selection_options(parser):
    parser.add_argument("--kmin", type=int, default=1)
    parser.add_argument("--kmax", type=int, default=9)
    parser.add_argument("--criterion", choices=CRITERIA, default=None)
    parser.add_argument("--penalty-scale", default=None,
                        help="'auto' (= ln n) or a nonnegative number")


def _add_label_options(parser):
    _add_field_options(parser, LabelConfig)
    parser.add_argument("--swap-anchor", type=int, default=None,
                        help="force this component index to be the four-seam anchor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitchmbc",
        description="Cluster a pitcher's pitches, name the clusters, and measure stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="select k, fit, label, and archive a model")
    _add_input_options(p_fit)
    _add_em_options(p_fit)
    _add_selection_options(p_fit)
    _add_label_options(p_fit)
    p_fit.add_argument("--out", required=True, help="archive output path (JSON)")
    p_fit.add_argument("--scores-out", help="score table CSV (default <out stem>_scores.csv)")
    p_fit.set_defaults(func=cmd_fit)

    p_cls = sub.add_parser("classify", help="label pitches with a saved model")
    _add_input_options(p_cls)
    p_cls.add_argument("--model", required=True, help="archive from 'fit'")
    p_cls.add_argument("--out", required=True, help="labeled CSV output path")
    p_cls.set_defaults(func=cmd_classify)

    p_stab = sub.add_parser("stability", help="subsample agreement at fixed k")
    _add_input_options(p_stab)
    _add_em_options(p_stab)
    p_stab.add_argument("--k", type=int, required=True)
    p_stab.add_argument("--split", type=float, default=0.8)
    p_stab.add_argument("--reps", type=int, default=20)
    p_stab.add_argument("--out", required=True, help="stability CSV output path")
    p_stab.set_defaults(func=cmd_stability)

    p_plot = sub.add_parser("plot", help="emit colored scatter CSV and projection SVG")
    _add_input_options(p_plot)
    p_plot.add_argument("--model", required=True)
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.set_defaults(func=cmd_plot)

    p_batch = sub.add_parser("batch", help="fit + stability for every pitcher in a file")
    _add_input_options(p_batch)
    _add_em_options(p_batch)
    _add_selection_options(p_batch)
    _add_label_options(p_batch)
    p_batch.add_argument("--outdir", required=True)
    p_batch.add_argument("--split", type=float, default=0.8)
    p_batch.add_argument("--reps", type=int, default=20,
                         help="stability replications per pitcher (0 skips stability)")
    p_batch.set_defaults(func=cmd_batch)
    return parser


# each --config section and the settings type it builds
_SECTIONS = {"schema": ColumnSchema, "em": EmConfig, "selection": SelectionConfig,
             "labels": LabelConfig}


def _load_config_file(args) -> dict:
    if not args.config:
        return {}
    cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    return _checked("config top level", cfg, list(_SECTIONS))


def _checked(where: str, values: dict, known) -> dict:
    """``values`` unchanged; a key outside ``known`` is an error naming that key."""
    if not isinstance(values, dict):
        raise ValueError(f"{where}: expected a JSON object, got {values!r}")
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)} "
                         f"(known: {', '.join(known)})")
    return values


def _has_type(value, kind: type) -> bool:
    """An int field takes an int, a float field an int or a float, a str
    field a string; a bool is neither number."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _penalty_scale(value, where: str) -> float | None:
    """None for 'auto' (= ln n), else the number ``value`` is or spells."""
    if isinstance(value, str):
        if value.lower() == "auto":
            return None
        try:
            return float(value)
        except ValueError:
            pass
    elif _has_type(value, float):
        return float(value)
    raise ValueError(f"{where}: expected 'auto' or a number, got {value!r}")


def _typed(f, value, where: str):
    """``value`` for field ``f``, named ``where`` in an error; it must have
    the type of the field's default."""
    if f.name == "penalty_scale":
        return _penalty_scale(value, where)
    kind = type(f.default)
    if not _has_type(value, kind):
        raise ValueError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _config_from(config_cls, name: str, flags: dict, cfg: dict):
    """``config_cls`` from config-file section ``name``, each set flag taking precedence."""
    section = _checked(f"config section {name!r}", cfg.get(name, {}),
                       [f.name for f in fields(config_cls)])
    values = {}
    for f in fields(config_cls):
        if f.name in section:
            values[f.name] = _typed(f, section[f.name], f"config {name}.{f.name}")
        if f.name in flags:
            values[f.name] = _typed(f, flags[f.name], "--" + f.name.replace("_", "-"))
    return config_cls(**values)


def _settings(args) -> dict:
    """The value of each ``--config`` section in ``_SECTIONS``, with each set
    flag on top of its section and each ``--columns`` entry on top of
    ``schema``. Every section is built, and so checked, whether the command
    uses it or not.
    """
    cfg = _load_config_file(args)
    flags = {key: value for key, value in vars(args).items() if value is not None}
    columns = {}
    if args.columns:
        for pair in args.columns.split(","):
            logical, _, physical = pair.partition("=")
            if not physical:
                raise ValueError(f"bad --columns entry {pair!r} (want logical=physical)")
            columns[logical.strip()] = physical.strip()
    flags.update(_checked("--columns", columns, REQUIRED_FIELDS + OPTIONAL_FIELDS))
    return {name: _config_from(cls, name, flags, cfg) for name, cls in _SECTIONS.items()}


def _load_dataset(args, schema, single_pitcher: bool):
    dataset = parse_pitch_csv(args.input, schema)
    if dataset.rejected:
        print(f"rejected {len(dataset.rejected)} malformed rows; first {dataset.rejected[0][1]}",
              file=sys.stderr)
    if getattr(args, "pitcher", None):
        wanted = args.pitcher
        subsets = dataset.split_by_pitcher()
        if wanted not in subsets:
            raise ValueError(f"pitcher {wanted!r} not in file (found {dataset.pitcher_ids()})")
        dataset = subsets[wanted]
    if single_pitcher:
        dataset.single_pitcher_id()
    return dataset


def _fit_pitcher(args, data, kmax: int, settings, archive_path, scores_path):
    """Select k, label the winner, write its archive and score table."""
    result = select_k(data, args.kmin, kmax, settings["selection"], settings["em"])
    labeled = label_clusters(result.best, settings["labels"], anchor_override=args.swap_anchor)
    config = {name: asdict(value) for name, value in settings.items()}
    save_archive(archive_from_results(data.single_pitcher_id(), labeled, result, config),
                 archive_path)
    write_score_csv(result, scores_path)
    return result, labeled


def _classify_input(args):
    """The saved model, the filtered input, and (index, type, max posterior) per pitch."""
    schema = _settings(args)["schema"]
    archive = load_archive(args.model)
    filtered = filter_pitches(_load_dataset(args, schema, single_pitcher=False))
    model = archive.labeled_model()
    return model, filtered, classify_dataset(model, filtered)


def cmd_fit(args) -> int:
    settings = _settings(args)
    filtered = filter_pitches(_load_dataset(args, settings["schema"], single_pitcher=True))
    if filtered.removed_intentional:
        print(f"filtered {filtered.removed_intentional} intentional balls", file=sys.stderr)

    scores_out = args.scores_out or str(Path(args.out).with_suffix("")) + "_scores.csv"
    result, labeled = _fit_pitcher(args, filtered, args.kmax, settings, args.out, scores_out)

    print(f"pitcher {filtered.single_pitcher_id()}: n={filtered.n}, selected k={result.best.k} "
          f"by {result.criterion} (penalty_scale={result.penalty_scale:g})")
    for idx, (comp, label) in enumerate(zip(result.best.components, labeled.labels)):
        marker = " (anchor)" if idx == labeled.anchor_index else ""
        print(f"  cluster {idx}: {label} weight={comp.weight:.3f} "
              f"mean=({comp.mean[0]:.1f} mph, {comp.mean[1]:.1f}, {comp.mean[2]:.1f}){marker}")
    print(f"archive -> {args.out}\nscores  -> {scores_out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    _, filtered, (idx, types, pmax) = _classify_input(args)
    write_labeled_csv(args.out, idx, types, pmax, filtered.reference_labels)
    print(f"classified {filtered.n} pitches -> {args.out}")
    counts = confusion_counts(filtered.reference_labels, types)
    if counts:
        print("confusion vs reference labels:")
        print(format_confusion(counts))
    return EXIT_OK


def cmd_stability(args) -> int:
    settings = _settings(args)
    em = settings["em"]
    filtered = filter_pitches(_load_dataset(args, settings["schema"], single_pitcher=True))
    check_split(filtered.n, args.k, args.split, args.reps)
    report = stability_run(filtered, fit_em(filtered, args.k, em), split=args.split,
                           replications=args.reps, em_config=em)
    write_stability_csv(report, args.out)
    print(f"pitcher {report.pitcher_id}: k={report.k}, "
          f"mean_80={report.mean_80:.4f} (se {report.stderr_80:.4f}), "
          f"mean_20={report.mean_20:.4f} (se {report.stderr_20:.4f}), "
          f"{len(report.failures)} failed replications")
    print(f"report -> {args.out}")
    return EXIT_OK


def cmd_plot(args) -> int:
    model, filtered, (idx, types, _) = _classify_input(args)
    per_cluster = cluster_colors(model.labels)
    colors = [per_cluster[i] for i in idx.tolist()]
    X = filtered.to_matrix()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "scatter.csv"
    svg_path = outdir / "projections.svg"
    write_plot_csv(csv_path, X, types, colors)
    legend = []
    for label, color in zip(model.labels, per_cluster):
        if (str(label), color) not in legend:
            legend.append((str(label), color))
    svg_path.write_text(projection_svg(X, colors, legend), encoding="utf-8")
    print(f"scatter -> {csv_path}\nprojections -> {svg_path}")
    return EXIT_OK


def cmd_batch(args) -> int:
    if args.reps < 0:
        raise ValueError(f"--reps must be >= 0 (0 skips stability), got {args.reps}")
    if not 0.0 < args.split < 1.0:
        raise ValueError(f"--split must lie strictly between 0 and 1, got {args.split}")
    if not 1 <= args.kmin <= args.kmax:
        raise ValueError(f"need 1 <= --kmin <= --kmax, got [{args.kmin}, {args.kmax}]")
    settings = _settings(args)
    dataset = _load_dataset(args, settings["schema"], single_pitcher=False)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    per_pitcher = dataset.split_by_pitcher()
    for pitcher_id in sorted(per_pitcher):
        sub = per_pitcher[pitcher_id]
        row = dict(dict.fromkeys(_SUMMARY_FIELDS, ""), pitcher_id=pitcher_id, status="ok")
        try:
            filtered = filter_pitches(sub)
            kmax = min(args.kmax, filtered.n // POINTS_PER_COMPONENT)
            if kmax < args.kmin:
                raise FitError(f"n={filtered.n} too small for kmin={args.kmin}")
            result, labeled = _fit_pitcher(args, filtered, kmax, settings,
                                           outdir / f"{pitcher_id}.json",
                                           outdir / f"{pitcher_id}_scores.csv")
            row["n"] = filtered.n
            row["k"] = result.best.k
            row["labels"] = ";".join(str(lb) for lb in labeled.labels)
            if args.reps > 0:
                # stability is measured against the clustering the archive reports
                report = stability_run(filtered, result.best, split=args.split,
                                       replications=args.reps, em_config=settings["em"])
                write_stability_csv(report, outdir / f"{pitcher_id}_stability.csv")
                row.update(mean_80=repr(report.mean_80), stderr_80=repr(report.stderr_80),
                           mean_20=repr(report.mean_20), stderr_20=repr(report.stderr_20))
            print(f"{pitcher_id}: k={row['k']} labels={row['labels']}")
        except (IngestError, FitError, ValueError) as exc:
            row["status"] = f"error: {exc}"
            print(f"{pitcher_id}: skipped ({exc})", file=sys.stderr)
        summary_rows.append(row)

    with csv_rows(outdir / "summary.csv") as writer:
        writer.writerow(_SUMMARY_FIELDS)
        writer.writerows([row[f] for f in _SUMMARY_FIELDS] for row in summary_rows)
    # raw per-pitcher agreement means, one row each, for the two stability histograms
    with csv_rows(outdir / "stability_agreements.csv") as writer:
        writer.writerow(["pitcher_id", "agreement_80", "agreement_20"])
        for row in summary_rows:
            if row["status"] == "ok" and row["mean_80"] != "":
                writer.writerow([row["pitcher_id"], row["mean_80"], row["mean_20"]])
    print(f"summary -> {outdir / 'summary.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArchiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARCHIVE
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

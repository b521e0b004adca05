"""Subcommand CLI: synth, ingest, cluster, tweets, features, train, predict,
evaluate, ablate, describe.

Every command takes --config (JSON overriding PipelineConfig fields), --seed
and --out; data-consuming commands take --data pointing at a directory laid
out per the canonical file names. Exit code 0 on success, 2 on validation
errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import warnings
from datetime import date as date_t
from datetime import timedelta
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, load_config
from .errors import SchemaMismatch, Tweet2TrafficError
from .harness.ablation import run_ablation
from .harness.descriptive import run_descriptive_analysis
from .harness.pipeline import (
    ABLATION_VARIANTS,
    StackModel,
    build_split,
    clean_tweet_texts,
    day_blocks,
    day_rows,
    descriptor_scales,
    fit_stack,
    prepare_data,
    road_features,
    segment_design,
)
from .harness.report import emit_report, token_frequency
from .harness.tscv import EvaluationReport, run_nested_tscv
from .ingest.loaders import FILE_NAMES, load_bundle, write_dataset, write_rows
from .ingest.synthetic import AGENCY_USER, SyntheticConfig, generate_synthetic
from .learn.serialize import bundle_from_json, bundle_to_json
from .learn.stack import predict_day
from .tweetpipe.users import geotag_timeline

log = logging.getLogger("t2t")


def _data_config(args) -> PipelineConfig:
    """Config resolution: --config file, else data-dir config.json, else defaults."""
    if args.config:
        cfg = load_config(args.config)
    else:
        candidate = Path(args.data) / "config.json" if getattr(args, "data", None) else None
        cfg = load_config(candidate) if candidate and candidate.exists() else PipelineConfig()
    data = getattr(args, "data", None)
    if data:
        updates = {}
        for key, fname in (("slang_path", "slang.txt"),
                           ("resident_lexicon_path", "resident_lexicon.txt"),
                           ("wordlist_path", "wordlist.txt"),
                           ("sentiment_scores_path", "sentiment_scores.csv")):
            p = Path(data) / fname
            if getattr(cfg, key) is None and p.exists():
                updates[key] = str(p)
        if updates:
            cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _prepare(args):
    """The --data directory loaded and prepared under the resolved config."""
    return prepare_data(load_bundle(args.data), _data_config(args))


def _full_span(args):
    """Prepared data and the artifacts of one split that trains on every day."""
    prepared = _prepare(args)
    return prepared, build_split(prepared, prepared.days, [], seed=args.seed)


def cmd_synth(args) -> int:
    overrides = json.loads(Path(args.synth_config).read_text(encoding="utf-8")) \
        if args.synth_config else {}
    if "start_date" in overrides:
        overrides["start_date"] = date_t.fromisoformat(overrides["start_date"])
    cfg = SyntheticConfig(**overrides)
    bundle, sidecar = generate_synthetic(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind, fname in sorted(FILE_NAMES.items()):
        write_dataset(kind, getattr(bundle, kind), out / fname)
    (out / "sidecar.json").write_text(json.dumps(sidecar, sort_keys=True, indent=1),
                                      encoding="utf-8")
    pipeline_overrides = {"tweets": {"agency_user_ids": [AGENCY_USER]}}
    (out / "config.json").write_text(json.dumps(pipeline_overrides, sort_keys=True),
                                     encoding="utf-8")
    print(f"wrote synthetic dataset ({cfg.n_days} days, {cfg.n_roads} roads) to {out}")
    return 0


def cmd_ingest(args) -> int:
    bundle = load_bundle(args.data)
    print(f"segments {len(bundle.segments)} | speed rows {len(bundle.speed)} | "
          f"incidents {len(bundle.incidents)} | weather rows {len(bundle.weather)} | "
          f"tweets {len(bundle.tweets)} | tracts {len(bundle.tracts)} | "
          f"zones {len(bundle.zones)} | calendar {len(bundle.calendar)}")
    return 0


def cmd_cluster(args) -> int:
    prepared, art = _full_span(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for road_id in prepared.roads:
        clusters = art.clusters[road_id]
        ordered = clusters.ordered
        safe = road_id.replace(" ", "_").replace("/", "_")
        write_rows(out / f"labels_{safe}.csv", ["date", "cluster"],
                   ([d.isoformat(), int(lab)] for d, lab in zip(clusters.dates, ordered.labels)))
        write_rows(out / f"centroids_{safe}.csv",
                   ["cluster"] + [f"x{i}" for i in range(ordered.centroids.shape[1])],
                   ([int(ordered.permutation[old_label])] + [repr(float(v)) for v in row]
                    for old_label, row in enumerate(ordered.centroids)))
        if clusters.elbow:
            write_rows(out / f"inertia_{safe}.csv", ["k", "inertia"],
                       ([kk, repr(float(clusters.elbow[kk].inertia))]
                        for kk in sorted(clusters.elbow)))
    print(f"cluster outputs written to {out}")
    return 0


def cmd_tweets(args) -> int:
    if not (args.augment or args.clean or args.parse_incidents or args.encode):
        print("no stage flags given; use --augment/--clean/--parse-incidents/--encode",
              file=sys.stderr)
        return 2
    if args.augment or args.encode:
        prepared, art = _full_span(args)
        cfg, tweets = prepared.config, prepared.tweets
    elif args.parse_incidents:
        prepared = _prepare(args)
        cfg, tweets = prepared.config, prepared.tweets
    else:
        cfg, tweets = _data_config(args), load_bundle(args.data).tweets
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.augment:
        augmented = geotag_timeline(tweets, art.homes, cfg.tweets)
        write_dataset("tweets", augmented, out / "tweets_augmented.csv")
        write_rows(out / "homes.csv", ["user_id", "lat", "lon"],
                   ([uid, repr(lat), repr(lon)] for uid, (lat, lon) in sorted(art.homes.items())))
        print(f"augmented {len(art.homes)} users' timelines -> {out/'tweets_augmented.csv'}")
    if args.clean:
        cleaned = clean_tweet_texts(cfg, tweets)
        write_rows(out / "tweets_clean.csv", ["tweet_id", "normalized_text"],
                   ([t.tweet_id, cleaned[t.text]] for t in tweets))
        print(f"cleaned {len(tweets)} tweets -> {out/'tweets_clean.csv'}")
    if args.parse_incidents:
        write_dataset("incidents", prepared.tweet_incidents, out / "incidents_from_tweets.csv")
        print(f"parsed {len(prepared.tweet_incidents)} incident records from agency "
              f"tweets -> {out/'incidents_from_tweets.csv'}")
    if args.encode:
        fm = art.road_matrix
        tweet_cols = [i for i, g in enumerate(fm.groups) if g.startswith("tweet")]
        write_rows(out / "tweet_features.csv", ["date"] + [fm.names[i] for i in tweet_cols],
                   ([d.isoformat()] + [repr(float(fm.values[di, i])) for i in tweet_cols]
                    for di, d in enumerate(fm.days)))
        print(f"encoded tweet features -> {out/'tweet_features.csv'}")
    return 0


def cmd_features(args) -> int:
    prepared, art = _full_span(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fm = art.road_matrix
    write_rows(out / "road_features.csv", ["date"] + fm.names,
               ([d.isoformat()] + [repr(float(v)) for v in fm.values[di]]
                for di, d in enumerate(fm.days)))
    from .features.incident import incident_feature_names

    write_rows(out / "segment_incident_features.csv",
               ["segment_id", "date"] + incident_feature_names(),
               ([sid, d.isoformat()] + [repr(float(v)) for v in block[prepared.day_index[d]]]
                for sid, block in sorted(prepared.incident_features.items())
                for d in fm.days))
    print(f"feature matrices written to {out}")
    return 0


def cmd_train(args) -> int:
    prepared, art = _full_span(args)
    stack = fit_stack(prepared, art, StackModel(head=args.variant), seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lo, hi = art.weather_bounds
    features = {"homes": {u: list(home) for u, home in sorted(art.homes.items())},
                "weather_min": lo.tolist(), "weather_max": hi.tolist()}
    text = bundle_to_json(stack.descriptors, stack.segment_models,
                          meta={"seed": args.seed, "variant": args.variant,
                                "version": __version__,
                                "train_end": art.train_days[-1].isoformat(),
                                "features": features})
    (out / "model.json").write_text(text, encoding="utf-8")
    emit_report(EvaluationReport().finalize(), out,
                descriptors=stack.descriptors, segment_models=stack.segment_models)
    print(f"model bundle -> {out/'model.json'}")
    return 0


def _feature_state(meta: dict):
    """The last training day, homes and weather bounds a bundle's meta stores."""
    try:
        features = meta["features"]
        return (date_t.fromisoformat(meta["train_end"]),
                {u: tuple(home) for u, home in features["homes"].items()},
                (np.array(features["weather_min"]), np.array(features["weather_max"])))
    except KeyError as exc:
        raise SchemaMismatch(exc.args[0], "model bundle meta lacks its fitted feature "
                             "state; retrain it with `t2t train`") from None


def cmd_predict(args) -> int:
    descriptors, segments, meta = bundle_from_json(Path(args.model).read_text(encoding="utf-8"))
    train_end, homes, bounds = _feature_state(meta)
    cfg = _data_config(args)
    target = date_t.fromisoformat(args.date) if args.date else train_end + timedelta(days=1)
    bundle = load_bundle(args.data, skip=("speed", "zones"), keep=day_rows(cfg, target))
    blocks = day_blocks(bundle, cfg, [target])
    road_matrix = road_features(blocks, [target], homes, bounds)
    served = {s.segment_id for s in blocks.segments}
    if served != set(segments):
        raise SchemaMismatch("segment_id", "--data and the model bundle differ in segment "
                             f"{min(served ^ set(segments))!r}")
    for road, desc in sorted(descriptors.items()):
        if desc is not None and desc.feature_names != road_matrix.names:
            raise SchemaMismatch("feature_names", f"--data lays out other road columns "
                                 f"than the bundle's {road} descriptor reads")
    designs = segment_design(blocks, None, road_matrix,
                             descriptor_scales(descriptors, road_matrix))
    rows = []
    for sid in sorted(segments):
        names, X_all, _pos = designs[sid]
        if names != segments[sid].feature_names:
            raise SchemaMismatch("feature_names", f"--data lays out other design columns "
                                 f"than the bundle's {sid} model reads")
        p = predict_day(segments[sid], X_all[0], cfg.model.cs_threshold)
        rows.append([sid, target.isoformat(), p.cs, repr(p.cst),
                     "" if p.cd is None else repr(p.cd),
                     "" if p.pti is None else repr(p.pti), repr(p.p_congested)])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(out / f"predictions_{target.isoformat()}.csv",
               ["segment_id", "date", "cs", "cst_slots", "cd_slots", "pti", "p_congested"],
               rows)
    print(f"predictions -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    prepared = _prepare(args)
    models = tuple(args.models.split(","))
    report = run_nested_tscv(prepared, models=models, seed=args.seed)
    geo_tweets = [t for t in prepared.tweets if t.coord is not None]
    tokens = token_frequency(geo_tweets, prepared.clean_texts, prepared.config.tweets.periods)
    emit_report(report, Path(args.out), token_counts=tokens)
    for m in models:
        agg = report.aggregate.get((m, "ALL"), {})
        line = " ".join(f"{k}={v:.4f}" for k, v in agg.items() if v is not None)
        print(f"{m}: {line}")
    return 0


def cmd_ablate(args) -> int:
    var_report, deltas = run_ablation(_prepare(args), args.variant, seed=args.seed)
    out = Path(args.out)
    emit_report(var_report, out)
    write_rows(out / "deltas.csv", ["variant", "metric", "relative_delta"],
               ([args.variant, metric, "" if v is None else repr(v)]
                for metric, v in sorted(deltas.items())))
    print(f"{args.variant} deltas: " + " ".join(
        f"{k}={v:+.3%}" for k, v in deltas.items() if v is not None))
    return 0


def cmd_describe(args) -> int:
    prepared, art = _full_span(args)
    rows = run_descriptive_analysis(prepared, art, seed=args.seed)
    emit_report(EvaluationReport().finalize(), Path(args.out), association_rows=rows)
    for r in rows:
        print(f"{r.road_id}: {r.n_traffic_clusters} x {r.n_tweet_clusters} clusters, "
              f"chi2={r.chi2:.3f} p={r.p_value:.2e} V={r.cramers_v:.3f} n={r.n_days}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="t2t", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--config", default=None, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        if data:
            p.add_argument("--data", required=True, help="dataset directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p, data=False)
    p.add_argument("--synth-config", default=None, help="SyntheticConfig overrides JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a dataset directory")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="road congestion clustering outputs")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("tweets", help="tweet pipeline stages")
    common(p)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--clean", action="store_true")
    p.add_argument("--parse-incidents", action="store_true")
    p.add_argument("--encode", action="store_true")
    p.set_defaults(func=cmd_tweets)

    p = sub.add_parser("features", help="export assembled feature matrices")
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit the full-data model stack")
    common(p)
    p.add_argument("--variant", default="linear", choices=["linear", "rf", "knn"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict one day from a saved model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--date", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="nested time-series cross-validation")
    common(p)
    p.add_argument("--models", default="t2t,hm,sar")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run one ablation variant")
    common(p)
    p.add_argument("--variant", required=True, choices=sorted(ABLATION_VARIANTS))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("describe", help="traffic vs tweeting association analysis")
    common(p)
    p.set_defaults(func=cmd_describe)
    return parser


def _warning_line(message, category, *_where) -> str:
    """A printed warning as one line, `Category: message`, without the source
    file and line that would differ between checkouts and edits."""
    return f"{category.__name__}: {message}\n"


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except Tweet2TrafficError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

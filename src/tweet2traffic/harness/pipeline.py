"""End-to-end orchestration: dataset views, per-split artifacts, predictions.

DayBlocks holds the split-independent feature blocks of a day list, one
(n_days, n_cols) array per family in layout order: period counts and neutral
shares, unscaled weather hours, time features and each segment's incident
features. It also keeps each day's tweet buckets, the one place a tweet is
assigned to a day, and the tracts of the sleep/wake bucket's coordinates.
`t2t predict` builds them for the target day alone, from the records that
`day_rows` keeps.
PreparedData adds what the training span needs over every speed day: views
of the loaded speed cube and their gap-filled mornings, the tweet records,
cleaned tweet text, and the land-use join. It keeps nothing else of the
bundle, so the other records are freed once the blocks exist.
build_split refits every leakage-sensitive artifact (reference speeds, user
set and homes, the weather scaling, clustering, descriptors, segment models)
from the training span only; `road_features` applies the fitted homes and
weather bounds to any day list.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date as date_t
from datetime import datetime, time, timedelta

import numpy as np

from ..clock import CUTOFF_HOUR, MORNING_END_HOUR, N_SLOTS, SLEEP_ANCHOR_HOUR, SLOTS_PER_HOUR
from ..config import PipelineConfig
from ..congestion import (
    CongestionMeasurements,
    TtiSeries,
    congestion_measurements,
    fill_speed_gaps,
    reference_speed,
)
from ..clustering import (
    KMeansModel,
    OrderedClusterLabels,
    build_road_profiles,
    elbow_select_k,
    kmeans_fit,
    order_clusters_by_mean_tti,
    pca_fit,
    pca_transform,
)
from ..errors import SchemaMismatch, TooFewDays
from ..features.assemble import (
    FeatureMatrix,
    build_feature_matrix,
    cluster_feature_layout,
    pulse_keys,
    time_feature_layout,
    tweet_feature_layout,
    weather_feature_layout,
)
from ..features.incident import bulk_incident_features, incident_feature_names
from ..features.timefeat import time_features
from ..features.weather import weather_bounds, weather_features, weather_hours
from ..ingest.loaders import DatasetBundle
from ..learn.stack import (
    OrderedDescriptor,
    SegmentModelSet,
    fit_ordered_descriptor,
    fit_segment_heads,
    fit_segment_models,
    predict_day,
)
from ..tweetpipe.encode import encode_event_indicators, encode_sleep_wake
from ..tweetpipe.geo import in_bbox
from ..tweetpipe.geocode import MilepostGeocoder, TractGeocoder
from ..tweetpipe.incidents import assemble_incident_records, parse_incident_tweet
from ..tweetpipe.sentiment import (
    LexiconSentimentProvider,
    PrecomputedSentimentProvider,
    sentiment_label,
)
from ..tweetpipe.textclean import clean_text, load_slang, load_wordlist
from ..tweetpipe.users import (
    detect_bots,
    filter_influential_users,
    geotag_timeline,
    infer_home,
    landuse_table,
    load_resident_lexicon,
)

log = logging.getLogger(__name__)


@dataclass
class DayBlocks:
    """The split-independent feature blocks of a day list; see `day_blocks`."""
    config: PipelineConfig
    days: list[date_t]
    day_index: dict[date_t, int]
    segments: list
    segs_by_road: dict[str, list]
    tract_ids: list[str]
    geocoder: TractGeocoder
    road_layout: list
    tweet_incidents: list                   # records parsed from agency tweets
    incident_features: dict[str, np.ndarray]  # segment -> (n_days, 66), RCRS + tweet records
    event_features: np.ndarray              # (n_days, 2 * periods) counts, then neutral shares
    weather_hours: np.ndarray               # (n_days, 88) unscaled, NaN rows when unusable
    time_features: np.ndarray               # (n_days, 10)
    sleep_buckets: dict                     # day -> user -> [tweets in the sleep/wake windows]
    pulse_tracts: dict                      # sleep_buckets coordinate -> tract or None

    @property
    def roads(self) -> list[str]:
        return sorted(self.segs_by_road)


@dataclass
class PreparedData(DayBlocks):
    """The blocks of every speed day and what a training span reads besides."""
    tweets: list                            # every tweet record, for reports and `t2t tweets`
    speeds: dict[str, np.ndarray]          # (n_days, emit_slots) cube views, NaN when absent
    filled: dict[str, np.ndarray]          # (n_days, 72) gap-filled mornings, NaN when incomplete
    incomplete: dict[str, np.ndarray]      # (n_days,) True when a morning cannot be filled
    morning_offset: int
    clean_texts: dict[str, str]             # text of every tweet with coordinates -> clean_text
    user_geo: dict[str, list]
    landuse: dict                           # user_geo coordinate -> land use


def clean_tweet_texts(cfg: PipelineConfig, tweets) -> dict[str, str]:
    """The cleaned text of each distinct text of `tweets`."""
    slang, wordlist = load_slang(cfg.slang_path), load_wordlist(cfg.wordlist_path)
    return {text: clean_text(text, slang=slang, wordlist=wordlist)
            for text in dict.fromkeys(t.text for t in tweets)}


def _anchor_day(ts: datetime, hour: int) -> date_t:
    """The day whose window from `hour` on the eve to `hour` on the day holds `ts`."""
    return ts.date() + timedelta(days=1) if ts.hour >= hour else ts.date()


def day_rows(config: PipelineConfig, day: date_t):
    """The `load_bundle` `keep` of the rows a one-day `day_blocks` of `day` reads.

    Tweets from 05:00 on the eve up to 12:00 on the day, where the geo and
    sleep/wake windows of `day` lie, and every tweet of an agency account,
    whatever its time, since its series is assembled into incident records.
    Weather from 00:00 on the day on: `weather_hours` fills forward only.
    """
    anchors = (CUTOFF_HOUR, SLEEP_ANCHOR_HOUR)
    first = datetime.combine(day - timedelta(days=1), time(min(anchors)))
    end = datetime.combine(day, time(max(anchors)))
    midnight = datetime.combine(day, time(0))
    agency = frozenset(config.tweets.agency_user_ids)

    def keep(kind, ts, user_id):
        if kind == "weather":
            return ts >= midnight
        return first <= ts < end or user_id in agency

    return keep


def day_blocks(bundle: DatasetBundle, config: PipelineConfig, days,
               clean_texts: dict[str, str] | None = None) -> DayBlocks:
    """The split-independent feature blocks of `days`.

    Reads the segments, tracts, calendar, weather, incidents and the tweets
    of each day's windows; never speed.csv or the land-use zones.
    `clean_texts` holds cleaned tweet text; None cleans the tweets read here.
    """
    cfg = config
    days = list(days)
    segments = sorted(bundle.segments, key=lambda s: (s.road_id, s.order_on_road))
    segs_by_road: dict[str, list] = {}
    for s in segments:
        segs_by_road.setdefault(s.road_id, []).append(s)
    geocoder = TractGeocoder(bundle.tracts)
    tract_ids = [t.tract_id for t in geocoder.tracts]

    # event indicators and neutral shares of the in-box geotagged tweets of
    # each day's window
    geo_by_window: dict[date_t, list] = {d: [] for d in days}
    in_window = []
    for t in bundle.tweets:
        if t.coord is None or not in_bbox(t.coord, cfg.tweets.bbox):
            continue
        anchor = _anchor_day(t.timestamp, CUTOFF_HOUR)
        if anchor in geo_by_window:
            geo_by_window[anchor].append(t)
            in_window.append(t)
    if cfg.sentiment_scores_path:
        sentiment_provider = PrecomputedSentimentProvider(cfg.sentiment_scores_path)
    else:
        sentiment_provider = LexiconSentimentProvider()
    if clean_texts is None:
        clean_texts = clean_tweet_texts(cfg, in_window)
    labels = {}
    for t in in_window:
        _p, lab = sentiment_label(t.tweet_id, clean_texts[t.text], sentiment_provider,
                                  cfg.tweets.sentiment_pos, cfg.tweets.sentiment_neg)
        labels[t.tweet_id] = lab
    period_names = [name for name, _s, _e in cfg.tweets.periods]
    event_features = np.zeros((len(days), 2 * len(period_names)))
    for i, d in enumerate(days):
        counts, neu = encode_event_indicators(geo_by_window[d], labels, cfg.tweets)
        event_features[i] = [counts[n] for n in period_names] + [neu[n] for n in period_names]

    # tweet buckets over the sleep and wake windows for sleep/wake encoding
    # (any kind, any user), and the tracts of their coordinates in one join
    pulse_hours = set(cfg.tweets.sleep_hours + cfg.tweets.wake_hours)
    sleep_buckets: dict[date_t, dict[str, list]] = {d: {} for d in days}
    pulse_coords = {}
    for t in bundle.tweets:
        anchor = _anchor_day(t.timestamp, SLEEP_ANCHOR_HOUR)
        if anchor in sleep_buckets and t.timestamp.hour in pulse_hours:
            sleep_buckets[anchor].setdefault(t.user_id, []).append(t)
            if t.coord is not None:
                pulse_coords[t.coord] = None

    # records parsed from agency tweets, merged with the RCRS rows
    parsed = [parse_incident_tweet(t.text, t.timestamp) for t in bundle.tweets
              if t.user_id in cfg.tweets.agency_user_ids]
    tweet_incidents = assemble_incident_records([p for p in parsed if p is not None],
                                                MilepostGeocoder(segments))

    holidays = {c.date for c in bundle.calendar if c.is_holiday}
    return DayBlocks(
        config=cfg, days=days, day_index={d: i for i, d in enumerate(days)},
        segments=segments, segs_by_road=segs_by_road, tract_ids=tract_ids,
        geocoder=geocoder,
        road_layout=(tweet_feature_layout(tract_ids, cfg.tweets)
                     + weather_feature_layout() + time_feature_layout()),
        tweet_incidents=tweet_incidents,
        incident_features=_incident_features(cfg, segs_by_road,
                                             list(bundle.incidents) + tweet_incidents, days),
        event_features=event_features,
        weather_hours=weather_hours(bundle.weather, days),
        time_features=time_features(days, holidays),
        sleep_buckets=sleep_buckets,
        pulse_tracts=dict(zip(pulse_coords, geocoder.locate_many(list(pulse_coords)))),
    )


def prepare_data(bundle: DatasetBundle, config: PipelineConfig) -> PreparedData:
    """The day blocks of every speed day, plus the speed cube and the joins
    the training span reads."""
    cfg = config
    cube = bundle.speed
    if not cube.days:
        raise TooFewDays("no speed data")
    # cleaned text of every tweet with coordinates (the report's token
    # counts read all of them)
    coord_tweets = [t for t in bundle.tweets if t.coord is not None]
    clean_texts = clean_tweet_texts(cfg, coord_tweets)
    blocks = day_blocks(bundle, cfg, cube.days, clean_texts)

    segments = blocks.segments
    known = {s.segment_id for s in segments}
    unknown = [sid for sid in cube.segment_ids if sid not in known]
    if unknown:
        raise SchemaMismatch("segment_id", f"speed.csv segment {unknown[0]!r} "
                             "is not in segments.csv")

    # each segment's (days, emit slots) view of the loaded cube, NaN when
    # absent; the emitted range starts at the cube's first hour and ends at
    # 11:00. A cube that starts after 05:00 holds no whole morning.
    if cube.start_hour > CUTOFF_HOUR:
        raise SchemaMismatch("timestamp", f"speed.csv has no row before "
                             f"{CUTOFF_HOUR + 1:02d}:00, so no morning from "
                             f"{CUTOFF_HOUR:02d}:00 can be filled")
    emit_slots = (MORNING_END_HOUR - cube.start_hour) * SLOTS_PER_HOUR
    morning_offset = (CUTOFF_HOUR - cube.start_hour) * SLOTS_PER_HOUR
    views = dict(zip(cube.segment_ids, cube.speed[:, :, :emit_slots]))
    speeds = {s.segment_id: views[s.segment_id] if s.segment_id in views
              else np.full((len(blocks.days), emit_slots), np.nan) for s in segments}
    # bounded gap-fill of every morning, once per run
    filled, incomplete = {}, {}
    for sid, arr in speeds.items():
        filled[sid], incomplete[sid] = fill_speed_gaps(
            arr[:, morning_offset:morning_offset + N_SLOTS], cfg.max_ffill_slots)

    user_geo: dict[str, list] = {}
    for t in bundle.tweets:
        if t.kind == "GEOCODED" and t.coord is not None:
            user_geo.setdefault(t.user_id, []).append(t)
    landuse = landuse_table([t.coord for ts in user_geo.values() for t in ts],
                            bundle.zones)

    return PreparedData(
        **vars(blocks), tweets=bundle.tweets, speeds=speeds, filled=filled,
        incomplete=incomplete, morning_offset=morning_offset, clean_texts=clean_texts,
        user_geo=user_geo, landuse=landuse,
    )


@dataclass
class RoadClusters:
    """One road's congestion clustering of a split's training days."""
    dates: list[date_t]
    ordered: OrderedClusterLabels       # the chosen K's labels and centroids
    elbow: dict[int, KMeansModel]       # every candidate K's fit; empty if the elbow did not run


@dataclass
class SplitArtifacts:
    train_days: list[date_t]
    test_days: list[date_t]
    v_ref: dict[str, float]
    quads: dict[str, dict[date_t, CongestionMeasurements | None]]
    tti: dict[tuple[str, date_t], np.ndarray]
    road_matrix: FeatureMatrix
    clusters: dict[str, RoadClusters]
    homes: dict[str, tuple[float, float]]
    weather_bounds: tuple[np.ndarray, np.ndarray]   # per-column (min, max) of the training rows


def _split_quadruples(prepared: PreparedData, train_days, all_days):
    cfg = prepared.config
    train_idx = [prepared.day_index[d] for d in train_days]
    all_idx = [prepared.day_index[d] for d in all_days]
    v_ref, quads, tti = {}, {}, {}
    for seg in prepared.segments:
        sid = seg.segment_id
        train_vals = prepared.speeds[sid][train_idx].ravel()
        train_vals = train_vals[np.isfinite(train_vals)]
        ref = reference_speed(train_vals, cfg.ref_quantile)
        v_ref[sid] = ref
        ratios = ref / prepared.filled[sid][all_idx]
        incomplete = prepared.incomplete[sid][all_idx]
        quads[sid] = {}
        for d, row, skip in zip(all_days, ratios, incomplete):
            if skip:
                quads[sid][d] = None
                continue
            series = TtiSeries(sid, d, row)
            tti[(sid, d)] = series.values
            quads[sid][d] = congestion_measurements(series, cfg.congestion, cfg.pti_quantile)
    return v_ref, quads, tti


def _split_homes(prepared: PreparedData, train_days) -> dict[str, tuple[float, float]]:
    """The homes of the influential residents of the training span."""
    cfg = prepared.config.tweets
    train_set = set(train_days)
    train_tweets = [t for u in sorted(prepared.user_geo)
                    for t in prepared.user_geo[u]
                    if t.timestamp.date() in train_set
                    or (t.timestamp.date() + timedelta(days=1)) in train_set]
    users = filter_influential_users(train_tweets, cfg,
                                     lexicon=load_resident_lexicon(
                                         prepared.config.resident_lexicon_path))
    bots = detect_bots(users, cfg)
    residents = [u for u in sorted(users)
                 if users[u].is_resident and u not in bots]
    homes = {}
    for u in residents:
        geo = [t for t in prepared.user_geo.get(u, [])
               if t.timestamp.date() in train_set]
        home = infer_home(u, geo, prepared.landuse, cfg)
        if home is not None:
            homes[u] = home
    return homes


def _pulse_features(blocks: DayBlocks, days, homes) -> np.ndarray:
    """The (n_days, n_cols) sleep/wake pulse block of the residents' `homes`,
    sleep columns then wake columns as `pulse_keys` orders them."""
    cfg = blocks.config.tweets
    # geotagged timeline tweets sit at their user's home
    home_coords = list(dict.fromkeys(homes.values()))
    tracts = {**blocks.pulse_tracts,
              **dict(zip(home_coords, blocks.geocoder.locate_many(home_coords)))}
    sleep_col = {k: j for j, k in enumerate(pulse_keys(blocks.tract_ids, cfg.sleep_hours))}
    wake_col = {k: len(sleep_col) + j
                for j, k in enumerate(pulse_keys(blocks.tract_ids, cfg.wake_hours))}
    pulses = np.zeros((len(days), len(sleep_col) + len(wake_col)))
    for i, d in enumerate(days):
        bucket = blocks.sleep_buckets.get(d, {})
        tweets_by_user = {u: geotag_timeline(bucket[u], homes, cfg)
                          for u in homes if bucket.get(u)}
        sleep, wake = encode_sleep_wake(tweets_by_user, tracts, cfg)
        for key, v in sleep.items():
            pulses[i, sleep_col[key]] = v
        for key, v in wake.items():
            pulses[i, wake_col[key]] = v
    return pulses


def road_features(blocks: DayBlocks, days, homes, bounds) -> FeatureMatrix:
    """The road feature matrix of `days` from their blocks and the state a
    training span fitted: the residents' homes and the weather bounds."""
    rows = [blocks.day_index[d] for d in days]
    pulses = _pulse_features(blocks, days, homes)
    weather = weather_features(blocks.weather_hours[rows], days, bounds)
    return build_feature_matrix(days, [pulses, blocks.event_features[rows], weather,
                                       blocks.time_features[rows]], blocks.road_layout)


def _incident_features(prepared_config, segs_by_road, incidents, days):
    """Per-segment (n_days, n_cols) incident blocks under the configured mode."""
    cfg = prepared_config

    def usable(rec, day):
        if cfg.harness.assume_all_known:
            return True
        return rec.closure_start_ts < datetime.combine(day, time(CUTOFF_HOUR, 0))

    by_road: dict[str, list] = {}
    for rec in incidents:
        by_road.setdefault(rec.road_id, []).append(rec)
    out: dict[str, np.ndarray] = {}
    for road_id, segs in sorted(segs_by_road.items()):
        out.update(bulk_incident_features(by_road.get(road_id, []), segs, days,
                                          usable, cfg.features.d_thres_km))
    return out


def _split_clusters(prepared: PreparedData, tti, train_days, seed: int):
    cfg = prepared.config.clustering
    out = {}
    for road_id in prepared.roads:
        segs = prepared.segs_by_road[road_id]
        seg_ids = [s.segment_id for s in segs]
        tti_map = {}
        for d in train_days:
            for sid in seg_ids:
                v = tti.get((sid, d))
                if v is not None:
                    tti_map[(sid, d)] = v
        profile = build_road_profiles(road_id, seg_ids, tti_map)
        pca = pca_fit(profile.rows, cfg.pca_variance_target)
        reduced = pca_transform(pca, profile.rows)
        k_max = min(cfg.k_max, max(2, len(profile.dates) - 1))
        k_range = list(range(cfg.k_min, k_max + 1))
        if len(k_range) >= 3:
            k, models = elbow_select_k(reduced, k_range, seed=seed,
                                       n_init=cfg.kmeans_n_init,
                                       max_iter=cfg.kmeans_max_iter)
            km = models[k]
        else:
            models = {}
            km = kmeans_fit(reduced, min(2, len(profile.dates)), seed=seed,
                            n_init=cfg.kmeans_n_init, max_iter=cfg.kmeans_max_iter)
        out[road_id] = RoadClusters(profile.dates, order_clusters_by_mean_tti(km, pca), models)
    return out


def build_split(prepared: PreparedData, train_days, test_days, seed: int) -> SplitArtifacts:
    all_days = list(train_days) + list(test_days)
    v_ref, quads, tti = _split_quadruples(prepared, train_days, all_days)
    homes = _split_homes(prepared, train_days)
    # an unusable training row makes NaN bounds, but road_features rejects it first
    bounds = weather_bounds(prepared.weather_hours[[prepared.day_index[d] for d in train_days]])
    road_matrix = road_features(prepared, all_days, homes, bounds)
    clusters = _split_clusters(prepared, tti, list(train_days), seed)
    return SplitArtifacts(list(train_days), list(test_days), v_ref, quads, tti,
                          road_matrix, clusters, homes, bounds)


@dataclass
class FittedStack:
    descriptors: dict[str, OrderedDescriptor | None]
    segment_models: dict[str, SegmentModelSet]
    designs: dict[str, tuple[list[str], np.ndarray, dict]]   # segment_design output


def segment_design(blocks: DayBlocks, art: SplitArtifacts | None,
                   road_matrix: FeatureMatrix, scales: dict[str, np.ndarray],
                   use_incidents: bool = True):
    """Per-segment design matrices over the road matrix's days: road +
    incident + scales.

    The incident columns are the segment's block in `blocks`; `art` is not read.
    """
    day_pos = {d: i for i, d in enumerate(road_matrix.days)}
    rows = [blocks.day_index[d] for d in road_matrix.days]
    inc_names = incident_feature_names()
    out = {}
    for road_id in blocks.roads:
        road_scales = scales[road_id]
        n_levels = road_scales.shape[1]
        for seg in blocks.segs_by_road[road_id]:
            sid = seg.segment_id
            names = list(road_matrix.names)
            parts = [road_matrix.values]
            if use_incidents:
                names += inc_names
                parts.append(blocks.incident_features[sid][rows])
            if n_levels:
                names += [c[0] for c in cluster_feature_layout(n_levels)]
                parts.append(road_scales)
            out[sid] = (names, np.hstack(parts), day_pos)
    return out


@dataclass(frozen=True)
class StackModel:
    """One stack model: its segment heads, the feature groups it drops and
    the forecast-horizon cutoff hour it applies (None for none)."""
    head: str = "linear"                # "linear", "rf" or "knn"
    drop: frozenset = frozenset()       # feature groups, "incident" and "cluster" included
    cutoff: float | None = None


ABLATION_VARIANTS = {
    "NO_TWEET": StackModel(drop=frozenset({"tweet_sleep", "tweet_wake", "tweet_period",
                                           "tweet_sentiment"})),
    "NO_INCIDENT": StackModel(drop=frozenset({"incident"})),
    "NO_WEATHER": StackModel(drop=frozenset({"weather"})),
    "NO_CLUSTER": StackModel(drop=frozenset({"cluster"})),
    "BEFORE_3AM": StackModel(cutoff=3.0),
    "BEFORE_MIDNIGHT": StackModel(cutoff=0.0),
}

STACK_MODELS = {"t2t": StackModel(), "t2t_rf": StackModel(head="rf"),
                "t2t_knn": StackModel(head="knn"), **ABLATION_VARIANTS}


def descriptor_scales(descriptors, road_matrix: FeatureMatrix) -> dict[str, np.ndarray]:
    """Each road's cluster-scale columns; none for a road without a descriptor."""
    return {road: (desc.predict_scales(road_matrix.values) if desc is not None
                   else np.zeros((len(road_matrix.days), 0)))
            for road, desc in descriptors.items()}


def fit_stack(prepared: PreparedData, art: SplitArtifacts, model: StackModel = StackModel(),
              seed: int = 0, fits: dict | None = None) -> FittedStack:
    """Fit one stack model on one split's training span: road view, descriptors,
    segment linear models, heads. `fits` keeps what the stack models of a split
    share: descriptors with the scales and designs built from them, keyed by the
    view's column names, and linear sets keyed by segment and design columns."""
    cfg = prepared.config
    fits = {} if fits is None else fits
    road_matrix = art.road_matrix.drop_groups(model.drop)
    if model.cutoff is not None:
        road_matrix = road_matrix.before_cutoff(model.cutoff)

    view = ("descriptors", tuple(road_matrix.names), "cluster" not in model.drop)
    if view not in fits:
        day_pos = {d: i for i, d in enumerate(road_matrix.days)}
        descriptors: dict[str, OrderedDescriptor | None] = dict.fromkeys(prepared.roads)
        for road_id in prepared.roads if view[2] else ():
            clusters = art.clusters[road_id]
            keep = [i for i, d in enumerate(clusters.dates) if d in day_pos]
            descriptors[road_id] = fit_ordered_descriptor(
                road_matrix.values[[day_pos[clusters.dates[i]] for i in keep]],
                clusters.ordered.labels[keep], road_matrix.names, cfg.model)
        fits[view] = descriptors, road_matrix, descriptor_scales(descriptors, road_matrix)
    descriptors, road_matrix, scales = fits[view]
    design = ("designs", *view[1:], "incident" not in model.drop)
    if design not in fits:
        fits[design] = segment_design(prepared, art, road_matrix, scales, design[3])

    segment_models: dict[str, SegmentModelSet] = {}
    for sid, (names, X_all, pos) in sorted(fits[design].items()):
        days = [d for d in art.train_days if art.quads[sid][d] is not None]
        X, quads = X_all[[pos[d] for d in days]], [art.quads[sid][d] for d in days]
        key = ("linear", sid, tuple(names))
        if key not in fits:
            fits[key] = fit_segment_models(sid, X, quads, names, cfg.model)
        segment_models[sid] = fits[key] if model.head == "linear" else \
            fit_segment_heads(fits[key], X, quads, model.head, cfg.model, seed)
    return FittedStack(descriptors, segment_models, fits[design])


def stack_predictions(prepared: PreparedData, stack: FittedStack, sid: str, days) -> list:
    """One segment's (cs, cst, cd, pti) rows from its split design rows, with
    the raw regression estimates whatever the CS decision."""
    _names, X_all, pos = stack.designs[sid]
    preds = [predict_day(stack.segment_models[sid], X_all[pos[d]],
                         prepared.config.model.cs_threshold) for d in days]
    return [(p.cs, p.raw["cst"], p.raw["cd"], p.raw["pti"]) for p in preds]

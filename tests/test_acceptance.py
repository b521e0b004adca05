"""Acceptance gate: every criterion runs at its stated tolerance and prints a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

The synthetic end-to-end fixture (criteria 5-6) generates the pinned 300-day,
4-road world once and shares its reports across tests.
"""
import dataclasses
import itertools
import json
import time
import warnings
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from tweet2traffic.cli import main as cli_main
from tweet2traffic.config import (
    CongestionParams,
    HarnessConfig,
    PipelineConfig,
    TweetConfig,
)
from tweet2traffic.harness.baselines import fit_sar, sar_quadruple, sar_rollout
from tweet2traffic.harness.pipeline import (
    _split_quadruples,
    build_split,
    fit_stack,
    prepare_data,
)
from tweet2traffic.harness.tscv import outer_folds, run_nested_tscv
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic
from tweet2traffic.learn.serialize import bundle_hash
from tweet2traffic.learn.stack import predict_day
from tweet2traffic.tweetpipe.incidents import assemble_incident_records, parse_incident_tweet
from tweet2traffic.tweetpipe.textclean import clean_text

MAIN_SEED = 2014


def report_criterion(number: int | str, checks: list[tuple[str, bool, str]]):
    ok = all(flag for _n, flag, _d in checks)
    for name, flag, detail in checks:
        print(f"[{'PASS' if flag else 'FAIL'}] criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number} failed: " + "; ".join(
        n for n, flag, _d in checks if not flag)


# --------------------------------------------------------------------------
# Criterion 1: optimizer correctness
# --------------------------------------------------------------------------

def test_criterion_1_optimizers():
    from tweet2traffic.learn.optimizers import (
        fit_l1_logistic,
        fit_lasso,
        lasso_kkt_violation,
        sigmoid,
    )
    from tweet2traffic.learn.selection import _standardize

    t0 = time.time()
    rng = np.random.default_rng(101)
    checks = []

    worst_kkt = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 201))
        p = int(rng.integers(2, 51))
        X = rng.normal(size=(n, p))
        w_true = rng.normal(size=p) * (rng.random(p) < 0.3)
        y = X @ w_true + 0.5 * rng.normal(size=n)
        alpha = float(rng.uniform(0.05, 30.0))
        model = fit_lasso(X, y, alpha=alpha)
        worst_kkt = max(worst_kkt, lasso_kkt_violation(X, y, model))
    checks.append(("lasso KKT on 100 random instances", worst_kkt < 1e-6,
                   f"max violation {worst_kkt:.2e} < 1e-6"))

    worst_ortho = 0.0
    for trial in range(10):
        Q, _ = np.linalg.qr(rng.normal(size=(80, 8)))
        ols = rng.normal(size=8) * 3
        y = Q @ ols
        alpha = float(rng.uniform(0.5, 4.0))
        model = fit_lasso(Q, y, alpha=alpha, fit_bias=False)
        closed = np.sign(ols) * np.maximum(np.abs(ols) - alpha / 2.0, 0.0)
        worst_ortho = max(worst_ortho, float(np.abs(model.weights - closed).max()))
    checks.append(("orthonormal-design closed form", worst_ortho < 1e-8,
                   f"max deviation {worst_ortho:.2e} < 1e-8"))

    monotone = True
    for _ in range(20):
        n = int(rng.integers(30, 120))
        p = int(rng.integers(2, 30))
        X = rng.normal(size=(n, p))
        y = (rng.random(n) < sigmoid(X[:, 0])).astype(float)
        model = fit_l1_logistic(_standardize(X)[0], y, lam=float(rng.uniform(0.1, 5.0)))
        path = model.objective_path
        monotone &= all(a >= b - 1e-9 for a, b in zip(path, path[1:]))
    checks.append(("L1-logistic objective nonincreasing", monotone, "20 fits checked"))

    elapsed = time.time() - t0
    checks.append(("runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s"))
    report_criterion(1, checks)


# --------------------------------------------------------------------------
# Criterion 2: congestion oracle
# --------------------------------------------------------------------------

def brute_force(flags, min_slots, gap_slots):
    runs, i, n = [], 0, len(flags)
    while i < n:
        if flags[i]:
            j = i
            while j < n and flags[j]:
                j += 1
            if j - i >= min_slots:
                runs.append((i, j))
            i = j
        else:
            i += 1
    merged = []
    for run in runs:
        if merged and run[0] - merged[-1][1] < gap_slots:
            merged[-1] = (merged[-1][0], run[1])
        else:
            merged.append(run)
    return merged


def test_criterion_2_congestion_oracle():
    from tweet2traffic.congestion import (
        N_SLOTS,
        TtiSeries,
        congestion_measurements,
        detect_congested_periods,
    )

    t0 = time.time()
    checks = []
    cases = 0
    mismatches = 0
    for t_min, merge_gap in ((15, 15), (10, 20), (5, 10)):
        params = CongestionParams(t_min=t_min, merge_gap=merge_gap)
        for length in range(1, 13):
            for bits in itertools.product((False, True), repeat=length):
                vals = np.ones(N_SLOTS)
                vals[:length] = np.where(bits, 3.0, 1.0)
                got = detect_congested_periods(vals, params)
                want = brute_force(list(bits) + [False] * (N_SLOTS - length),
                                   params.min_slots, params.gap_slots)
                cases += 1
                mismatches += got != want
    checks.append(("exhaustive run detection", mismatches == 0,
                   f"{cases} cases x 3 settings, {mismatches} mismatches"))

    params = CongestionParams()
    vals = np.ones(N_SLOTS)
    vals[0:6] = 2.5
    m = congestion_measurements(TtiSeries("s", "d", vals), params)
    checks.append(("CST = 72 at a 05:00 start", m.cs and m.cst == 72, f"cst={m.cst}"))
    m0 = congestion_measurements(TtiSeries("s", "d", np.ones(N_SLOTS)), params)
    checks.append(("CST = 0 with no congestion", (not m0.cs) and m0.cst == 0,
                   f"cst={m0.cst}"))
    elapsed = time.time() - t0
    checks.append(("runtime", elapsed < 5.0, f"{elapsed:.1f}s < 5s"))
    report_criterion(2, checks)


# --------------------------------------------------------------------------
# Criterion 3: clustering
# --------------------------------------------------------------------------

def adjusted_rand_index(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    cats_a, cats_b = np.unique(a), np.unique(b)
    table = np.array([[(np.logical_and(a == x, b == y)).sum() for y in cats_b]
                      for x in cats_a])
    comb = lambda x: x * (x - 1) / 2.0
    sum_ij = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb(n)
    max_index = (sum_a + sum_b) / 2.0
    return (sum_ij - expected) / (max_index - expected)


def test_criterion_3_clustering():
    from tweet2traffic.clustering import kmeans_fit, pca_fit

    checks = []
    rng = np.random.default_rng(33)
    X = rng.normal(size=(200, 6))
    model = kmeans_fit(X, 5, seed=3)
    path = model.inertia_path
    checks.append(("k-means inertia monotone per iteration",
                   all(x >= y - 1e-9 for x, y in zip(path, path[1:])),
                   f"{len(path)} iterations"))

    sigma = 0.5
    centers = np.array([[0.0, 0.0], [10 * sigma * 4, 0.0], [0.0, 10 * sigma * 4]])
    truth = np.repeat(np.arange(3), 60)
    blob = np.vstack([rng.normal(size=(60, 2)) * sigma + c for c in centers])
    km = kmeans_fit(blob, 3, seed=1)
    ari = adjusted_rand_index(km.labels, truth)
    checks.append(("3-blob recovery ARI", ari == 1.0, f"ARI={ari:.3f} at >=10 sigma"))

    Y = rng.normal(size=(120, 10)) @ np.diag([6, 4, 3, 2, 1, 0.5, 0.3, 0.2, 0.1, 0.05])
    pca = pca_fit(Y, variance_target=0.90)
    gram = pca.components @ pca.components.T
    ortho = float(np.abs(gram - np.eye(pca.n_components)).max())
    cum = float(pca.explained_variance_ratio.sum())
    checks.append(("PCA cumulative variance", cum >= 0.90, f"{cum:.3f} >= 0.90"))
    checks.append(("PCA components orthonormal", ortho < 1e-8, f"max dev {ortho:.1e}"))
    report_criterion(3, checks)


# --------------------------------------------------------------------------
# Criterion 4: parser and cleaner exactness
# --------------------------------------------------------------------------

def test_criterion_4_parser_exactness():
    from datetime import datetime

    checks = []
    t0 = datetime(2019, 12, 27, 6, 42)
    t1 = datetime(2019, 12, 27, 7, 18)
    t2 = datetime(2019, 12, 27, 8, 2)
    texts = [
        "Multi vehicle crash on I-376 eastbound at Mile Post: 74.0. There is a lane restriction.",
        "UPDATE: Multi vehicle crash on I-376 eastbound at Mile Post: 74.0. All lanes closed.",
        "CLEARED: Multi vehicle crash on I-376 eastbound at Mile Post: 74.0.",
    ]
    parsed = [parse_incident_tweet(t, ts) for t, ts in zip(texts, (t0, t1, t2))]
    fields_ok = (parsed[0].road_name == "I-376"
                 and parsed[0].direction == "eastbound"
                 and parsed[0].mileposts == (74.0,)
                 and parsed[0].lane_status == "RESTRICTION"
                 and [p.flag for p in parsed] == ["OCCUR", "UPDATE", "CLEAR"]
                 and parsed[1].lane_status == "FULL_CLOSURE")
    checks.append(("three agency tweets parse exactly", fields_ok,
                   "I-376 eastbound mp 74.0, flags occur/update/clear"))

    recs = assemble_incident_records(
        parsed, lambda road, direction, mp: (f"{road} E", 40.0, -80.0))
    rec_ok = (len(recs) == 1 and recs[0].closure_start_ts == t0
              and recs[0].closure_end_ts == t2 and recs[0].closure_type == "FULL")
    checks.append(("record assembly 06:42-08:02 FULL", rec_ok,
                   f"{recs[0].closure_start_ts:%H:%M}-{recs[0].closure_end_ts:%H:%M} "
                   f"{recs[0].closure_type}"))

    cleaner_ok = (clean_text("#LetsGoPens") == "lets go pens."
                  and clean_text("Ain't H A P P Y") == "ain't happy."
                  and clean_text("Soooo good lololol") == "so good lol.")
    checks.append(("cleaner reproduces the three example outputs", cleaner_ok,
                   "'lets go pens.' / \"ain't happy.\" / 'so good lol.'"))
    report_criterion(4, checks)


# --------------------------------------------------------------------------
# Criteria 5-6: synthetic end-to-end world
# --------------------------------------------------------------------------

MAIN_SYNTH = SyntheticConfig(n_days=300, n_roads=4, segments_per_road=10,
                             n_users=50, n_tracts=6)
NULL_SYNTH = dataclasses.replace(MAIN_SYNTH, sleep_effect=0.0,
                                 incident_effect=0.0, weather_effect=0.0)
PIPELINE_CFG = PipelineConfig(tweets=TweetConfig(agency_user_ids=("agency511",)))


def _sar_restricted_recall(prepared, sidecar):
    """SAR recall over test days whose true congestion starts after 05:00."""
    hits = positives = 0
    grid = prepared.config.harness.sar_grid[0]
    params = prepared.config.congestion
    folds = outer_folds(len(prepared.days), prepared.config.harness.n_outer)
    for k in range(1, len(folds)):
        train_days = [prepared.days[i] for fold in folds[:k] for i in fold]
        test_days = [prepared.days[i] for i in folds[k]]
        v_ref, quads, _tti = _split_quadruples(prepared, train_days,
                                               train_days + test_days)
        for seg in prepared.segments:
            sid = seg.segment_id
            model = fit_sar(sid, prepared.speeds[sid],
                            [prepared.day_index[d] for d in train_days],
                            grid[0], grid[1], prepared.morning_offset)
            for d in test_days:
                truth = quads[sid][d]
                if truth is None or not truth.cs or truth.cst >= 72:
                    continue    # keep only after-cutoff congestion starts
                pred = sar_rollout(model, prepared.speeds[sid],
                                   [prepared.day_index[d]], prepared.morning_offset)
                cs, *_ = sar_quadruple(pred[0], v_ref[sid], params)
                positives += 1
                hits += cs
    return hits / positives if positives else 0.0


@pytest.fixture(scope="module")
def big_world():
    t_start = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle, sidecar = generate_synthetic(MAIN_SYNTH, seed=MAIN_SEED)
        prepared = prepare_data(bundle, PIPELINE_CFG)
        report = run_nested_tscv(
            prepared, seed=0,
            models=("t2t", "hm", "sar", "NO_TWEET", "BEFORE_MIDNIGHT"))
        sar_recall_late = _sar_restricted_recall(prepared, sidecar)

        null_bundle, _null_sidecar = generate_synthetic(NULL_SYNTH, seed=MAIN_SEED)
        null_prepared = prepare_data(null_bundle, PIPELINE_CFG)
        null_report = run_nested_tscv(
            null_prepared, seed=0, models=("t2t", "NO_TWEET"))

        interp_cfg = dataclasses.replace(
            PIPELINE_CFG, harness=HarnessConfig(assume_all_known=True))
        interp_prepared = prepare_data(bundle, interp_cfg)
        interp_art = build_split(interp_prepared, interp_prepared.days, [], seed=99)
        interp_stack = fit_stack(interp_prepared, interp_art, seed=99)
    runtime = time.time() - t_start
    return SimpleNamespace(
        sidecar=sidecar, report=report, null_report=null_report,
        sar_recall_late=sar_recall_late, interp_stack=interp_stack,
        runtime=runtime)


def test_criterion_5_synthetic_end_to_end(big_world):
    checks = []
    agg = {m: big_world.report.aggregate[(m, "ALL")]
           for m in ("t2t", "hm", "sar", "NO_TWEET")}

    gap_hm = agg["t2t"]["accuracy"] - agg["hm"]["accuracy"]
    gap_sar = agg["t2t"]["accuracy"] - agg["sar"]["accuracy"]
    checks.append(("(a) CS accuracy vs HM", gap_hm >= 0.05,
                   f"t2t {agg['t2t']['accuracy']:.3f} vs hm {agg['hm']['accuracy']:.3f}"
                   f" (+{gap_hm * 100:.1f} pts >= 5)"))
    checks.append(("(a) CS accuracy vs SAR", gap_sar >= 0.15,
                   f"t2t {agg['t2t']['accuracy']:.3f} vs sar {agg['sar']['accuracy']:.3f}"
                   f" (+{gap_sar * 100:.1f} pts >= 15)"))

    checks.append(("(b) SAR recall on after-cutoff starts",
                   big_world.sar_recall_late < 0.2,
                   f"recall {big_world.sar_recall_late:.3f} < 0.2"))

    ev_sum = mn_sum = 0.0
    ev_pos = ev_neg = mn_pos = mn_neg = 0
    for _road, desc in big_world.interp_stack.descriptors.items():
        for name, wgt in desc.classifiers[0].coef_map().items():
            if abs(wgt) < 1e-8:
                continue
            head = name.split("_")[0]
            if head in ("21", "22", "23"):
                ev_sum += wgt
                ev_pos += wgt > 0
                ev_neg += wgt < 0
            elif head in ("0", "1", "2"):
                mn_sum += wgt
                mn_pos += wgt > 0
                mn_neg += wgt < 0
    checks.append(("(c) evening sleep-bin weights predominantly positive",
                   ev_sum > 0 and ev_pos > ev_neg,
                   f"+{ev_pos}/-{ev_neg}, sum {ev_sum:+.1f}"))
    checks.append(("(c) midnight sleep-bin weights predominantly negative",
                   mn_sum < 0 and mn_neg > mn_pos,
                   f"+{mn_pos}/-{mn_neg}, sum {mn_sum:+.1f}"))

    base = agg["t2t"]["rmse_cst_h"]
    ablated = agg["NO_TWEET"]["rmse_cst_h"]
    delta = (ablated - base) / base
    checks.append(("(d) NO_TWEET degrades CST RMSE", delta >= 0.05,
                   f"{delta:+.1%} >= +5%"))
    null_base = big_world.null_report.aggregate[("t2t", "ALL")]["rmse_cst_h"]
    null_abl = big_world.null_report.aggregate[("NO_TWEET", "ALL")]["rmse_cst_h"]
    null_delta = (null_abl - null_base) / null_base
    checks.append(("(d) null-effect delta within noise", abs(null_delta) <= 0.02,
                   f"{null_delta:+.2%} within +/-2%"))

    checks.append(("full pipeline runtime", big_world.runtime < 600.0,
                   f"{big_world.runtime:.0f}s < 600s"))
    report_criterion(5, checks)


def test_criterion_6_incident_weather_behavior(big_world):
    checks = []
    stack = big_world.interp_stack
    agree = total = 0
    for inc in big_world.sidecar["incidents"]:
        for aff in inc["affected"]:
            if aff["cst_shift_slots"] <= 0:
                continue
            sid = aff["segment_id"]
            d = date.fromisoformat(aff["date"])
            model = stack.segment_models[sid]
            _names, X_all, pos = stack.designs[sid]
            row = X_all[pos[d]]
            counterfactual = row.copy()
            for i, name in enumerate(model.feature_names):
                if name.startswith(("p_", "f_")):
                    counterfactual[i] = 0.0
            shift = (predict_day(model, row).raw["cst"]
                     - predict_day(model, counterfactual).raw["cst"])
            total += 1
            agree += shift > 0
    frac = agree / total if total else 0.0
    checks.append(("downstream closures shift predicted CST in-direction",
                   frac >= 0.70, f"{agree}/{total} = {frac:.1%} >= 70%"))

    base = big_world.report.aggregate[("t2t", "ALL")]
    var = big_world.report.aggregate[("BEFORE_MIDNIGHT", "ALL")]
    rels = {}
    for metric, better_low in (("accuracy", False), ("rmse_cst_h", True),
                               ("rmse_cd_h", True), ("rmse_pti", True)):
        b, v = base[metric], var[metric]
        degradation = (b - v) / b if not better_low else (v - b) / b
        rels[metric] = degradation
    worst = max(rels.values())
    checks.append(("BEFORE_MIDNIGHT degrades metrics < 10% relative",
                   worst < 0.10,
                   " ".join(f"{k}:{v:+.1%}" for k, v in rels.items())))
    report_criterion(6, checks)


def spearman(x, y) -> float:
    """Spearman's rank correlation, tied values taking their mean rank."""
    def ranks(v):
        _values, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        ends = np.cumsum(counts)
        return ((ends - counts + 1 + ends) / 2)[inverse]
    return float(np.corrcoef(ranks(x), ranks(y))[0, 1])


def test_per_segment_gains_follow_day_to_day_variation(big_world):
    """The paper's per-segment claim: t2t predicts best on segments whose
    congestion varies most from day to day, and is no worse than the
    baselines elsewhere. p is the share of a segment's test days that are
    congested; the bounds were set after one measurement (Spearman 0.77 and
    0.94, worst segment 1.5 points below HM and 0.7 below SAR)."""
    report = big_world.report
    segments = sorted({s for m, s, _k in report.per_split if m == "t2t"})
    days = {s: [0, 0] for s in segments}       # segment -> [congested, scored]
    for (model, s, _k), ms in report.per_split.items():
        if model == "t2t":
            days[s][0] += ms.n_congested
            days[s][1] += ms.n_days
    p = np.array([congested / scored for congested, scored in days.values()])

    def accuracy(model):
        return np.array([report.aggregate[(model, s)]["accuracy"] for s in segments])

    checks = []
    for base in ("hm", "NO_TWEET"):
        rho = spearman(p * (1 - p), accuracy("t2t") - accuracy(base))
        checks.append((f"gain over {base} rises with p(1-p)", rho >= 0.5,
                       f"Spearman {rho:.2f} >= 0.5 over {len(segments)} segments"))
    for base in ("hm", "sar"):
        gap = accuracy("t2t") - accuracy(base)
        worst = int(np.argmin(gap))
        checks.append((f"no segment far below {base}", gap[worst] >= -0.03,
                       f"worst {segments[worst]} {gap[worst] * 100:+.1f} pts >= -3"))
    report_criterion("per-segment", checks)


# --------------------------------------------------------------------------
# Criterion 7: leakage and determinism
# --------------------------------------------------------------------------

SMALL_SYNTH = SyntheticConfig(n_days=40, n_roads=1, segments_per_road=3,
                              n_users=14, n_tracts=3)


def drop_days(cube, cut):
    """The speed cube without the days in `cut`."""
    kept = [i for i, d in enumerate(cube.days) if d not in cut]
    return dataclasses.replace(cube, days=tuple(cube.days[i] for i in kept),
                               speed=cube.speed[:, kept])


def test_criterion_7_leakage_and_determinism(tmp_path):
    checks = []

    bundle, _ = generate_synthetic(SMALL_SYNTH, seed=33)
    prepared = prepare_data(bundle, PIPELINE_CFG)
    days = prepared.days
    train_days, test_days = days[:30], days[30:36]

    def fitted_hash(b, test):
        p = prepare_data(b, PIPELINE_CFG)
        art = build_split(p, train_days, test, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stack = fit_stack(p, art, seed=5)
        return bundle_hash(stack.descriptors, stack.segment_models)

    h_full = fitted_hash(bundle, test_days)
    cut = set(test_days)
    pruned = dataclasses.replace(
        bundle,
        speed=drop_days(bundle.speed, cut),
        tweets=[t for t in bundle.tweets if t.timestamp.date() not in cut],
        weather=[w for w in bundle.weather if w.timestamp.date() not in cut],
        incidents=[i for i in bundle.incidents if i.closure_start_ts.date() not in cut],
    )
    h_pruned = fitted_hash(pruned, [])
    checks.append(("fitted-model hash invariant to test-fold deletion",
                   h_full == h_pruned, f"{h_full[:12]}.. == {h_pruned[:12]}.."))

    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"n_days": 30, "n_roads": 1, "segments_per_road": 3,
                              "n_users": 12, "n_tracts": 3}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"harness": {"n_outer": 3},
                                    "tweets": {"agency_user_ids": ["agency511"]}}))
    trees = {}
    for run in ("r1", "r2"):
        data = tmp_path / run / "data"
        out = tmp_path / run / "out"
        assert cli_main(["synth", "--synth-config", str(sc), "--seed", "9",
                         "--out", str(data)]) == 0
        assert cli_main(["evaluate", "--data", str(data), "--config", str(cfg_path),
                         "--models", "t2t,hm", "--seed", "9", "--out", str(out)]) == 0
        tree = {}
        for p in sorted((tmp_path / run).rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(tmp_path / run))] = p.read_bytes()
        trees[run] = tree
    identical = (trees["r1"].keys() == trees["r2"].keys()
                 and all(trees["r1"][k] == trees["r2"][k] for k in trees["r1"]))
    checks.append(("CLI run byte-reproducible under a fixed seed", identical,
                   f"{len(trees['r1'])} files compared"))
    report_criterion(7, checks)

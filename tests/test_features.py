import dataclasses
from datetime import date, datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from tweet2traffic.config import HarnessConfig, PipelineConfig, TweetConfig
from tweet2traffic.errors import EmptyInput
from tweet2traffic.features import (
    cyclic_encode,
    incident_location_impact,
    incident_time_window,
    road_orientation,
    time_features,
    weather_bounds,
    weather_features,
    weather_hours,
)
from tweet2traffic.features.assemble import (
    build_feature_matrix,
    tweet_feature_layout,
    time_feature_layout,
    weather_feature_layout,
)
from tweet2traffic.features.incident import (
    LOCATION_CODES,
    N_HOURS,
    _IncidentGeometry,
    bulk_incident_features,
    incident_feature_names,
)
from tweet2traffic.features.timefeat import TIME_FEATURE_NAMES
from tweet2traffic.features.weather import weather_feature_names
from tweet2traffic.harness.pipeline import _incident_features, segment_design
from tweet2traffic.ingest.types import (
    IncidentRecord,
    SegmentDescriptor,
    Tweet,
    WeatherRecord,
)
from tweet2traffic.tweetpipe.encode import encode_sleep_wake

CFG = TweetConfig()
DEG_PER_KM = 1.0 / 111.2


def seg(road, order, mp0, mp1, lat0=40.0):
    return SegmentDescriptor(f"{road}-{order}", road, order, mp0, mp1,
                             (lat0 + mp0 * DEG_PER_KM, -80.0),
                             (lat0 + mp1 * DEG_PER_KM, -80.0))


ROAD = [seg("R1", o, o * 1.5, (o + 1) * 1.5) for o in range(5)]


def incident(mp0, mp1, start, end, closure="FULL", road="R1"):
    lat = 40.0 + mp0 * DEG_PER_KM
    lat2 = 40.0 + mp1 * DEG_PER_KM
    return IncidentRecord("i1", "RCRS", road, start, end,
                          (lat, -80.0), (lat2, -80.0), closure, "roadwork")


class FakeGeom:
    def __init__(self, mp0, mp1):
        self.start_milepost, self.end_milepost = mp0, mp1
        self.start_coord = (40.0 + mp0 * DEG_PER_KM, -80.0)
        self.end_coord = (40.0 + mp1 * DEG_PER_KM, -80.0)


class TestLocationImpact:
    SEG = ROAD[1]   # mileposts 1.5..3.0

    def test_abutting_downstream_full_impact(self):
        geom = FakeGeom(3.0, 3.5)   # starts exactly at segment end
        ds, c, us = incident_location_impact(geom, self.SEG, +1)
        assert (ds, c, us) == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)

    def test_at_threshold_distance_zero(self):
        geom = FakeGeom(8.0, 8.2)   # 5 km past the segment end
        ds, c, us = incident_location_impact(geom, self.SEG, +1, d_thres_km=5.0)
        assert ds == pytest.approx(0.0, abs=1e-3)

    def test_half_distance_half_impact(self):
        geom = FakeGeom(5.5, 5.6)   # 2.5 km past the segment end
        ds, c, us = incident_location_impact(geom, self.SEG, +1, d_thres_km=5.0)
        assert ds == pytest.approx(0.5, abs=0.01)
        assert c == 0.0 and us == 0.0

    def test_containing_incident(self):
        geom = FakeGeom(1.0, 3.5)
        assert incident_location_impact(geom, self.SEG, +1) == (0.0, 1.0, 0.0)

    def test_upstream_side(self):
        geom = FakeGeom(0.0, 0.5)    # 1 km before segment start
        ds, c, us = incident_location_impact(geom, self.SEG, +1)
        assert ds == 0.0 and c == 0.0
        assert us == pytest.approx(0.8, abs=0.01)

    def test_orientation_flip(self):
        geom = FakeGeom(3.0, 3.5)
        ds, _c, us = incident_location_impact(geom, self.SEG, -1)
        assert ds == 0.0 and us == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_threshold(self):
        geom = FakeGeom(5.5, 5.6)
        wide = incident_location_impact(geom, self.SEG, +1, d_thres_km=5.0)[0]
        narrow = incident_location_impact(geom, self.SEG, +1, d_thres_km=3.0)[0]
        assert narrow <= wide


class TestTimeWindow:
    DAY = date(2014, 3, 5)

    def test_morning_closure(self):
        rec = incident(3.0, 3.0, datetime(2014, 3, 5, 6, 42), datetime(2014, 3, 5, 8, 2))
        h = incident_time_window(rec, self.DAY)
        assert h.tolist() == [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0]

    def test_overnight_closure(self):
        rec = incident(3.0, 3.0, datetime(2014, 3, 4, 23, 0), datetime(2014, 3, 5, 1, 0))
        h = incident_time_window(rec, self.DAY)
        assert h.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]

    def test_after_morning_ignored(self):
        rec = incident(3.0, 3.0, datetime(2014, 3, 5, 12, 0), datetime(2014, 3, 5, 14, 0))
        assert incident_time_window(rec, self.DAY).sum() == 0


def scalar_incident_features(incidents, segment, road_segments, day,
                             d_thres_km=5.0):
    """Oracle: all p_*/f_* features of one segment-day, one incident at a time."""
    values = {name: 0.0 for name in incident_feature_names()}
    if not incidents:
        return values
    orientation = road_orientation(road_segments)
    for rec in incidents:
        if rec.road_id != segment.road_id:
            continue
        hours = incident_time_window(rec, day)
        if not hours.any():
            continue
        geom = _IncidentGeometry(rec, road_segments)
        triple = incident_location_impact(geom, segment, orientation, d_thres_km)
        prefix = "p" if rec.closure_type == "PARTIAL" else "f"
        for loc, impact in zip(LOCATION_CODES, triple):
            if impact <= 0:
                continue
            for h in range(N_HOURS):
                if hours[h]:
                    key = f"{prefix}_{loc}_{h}"
                    values[key] = max(values[key], impact)
    return values


def always(_rec, _day):
    return True


def dense(row):
    """One segment-day row of a bulk incident block, by column name."""
    return dict(zip(incident_feature_names(), row))


def bulk_features(incidents, segment, road_segments, day):
    out = bulk_incident_features(incidents, road_segments, [day], always)
    return dense(out[segment.segment_id][0])


class TestIncidentFeatures:
    DAY = date(2014, 3, 5)

    def test_partial_routes_to_p(self):
        rec = incident(5.5, 5.6, datetime(2014, 3, 5, 7, 0), datetime(2014, 3, 5, 7, 30),
                       closure="PARTIAL")
        feats = bulk_features([rec], ROAD[1], ROAD, self.DAY)
        assert feats["p_ds_7"] == pytest.approx(0.5, abs=0.01)
        assert all(v == 0.0 for k, v in feats.items() if k.startswith("f_"))

    def test_max_combination(self):
        rec1 = incident(5.5, 5.6, datetime(2014, 3, 5, 7, 0), datetime(2014, 3, 5, 7, 30),
                        closure="PARTIAL")
        rec2 = incident(4.0, 4.1, datetime(2014, 3, 5, 7, 10), datetime(2014, 3, 5, 7, 40),
                        closure="PARTIAL")
        feats = bulk_features([rec1, rec2], ROAD[1], ROAD, self.DAY)
        solo = bulk_features([rec2], ROAD[1], ROAD, self.DAY)
        assert feats["p_ds_7"] == pytest.approx(solo["p_ds_7"])
        assert solo["p_ds_7"] > 0.5

    def test_no_incidents_all_zero(self):
        feats = bulk_features([], ROAD[1], ROAD, self.DAY)
        assert all(v == 0.0 for v in feats.values())

    def test_other_road_ignored(self):
        # roads are routed to their own segments before the bulk encoder runs
        rec = incident(3.0, 3.5, datetime(2014, 3, 5, 7, 0), datetime(2014, 3, 5, 8, 0),
                       road="R9")
        cfg = PipelineConfig(harness=HarnessConfig(assume_all_known=True))
        out = _incident_features(cfg, {"R1": ROAD}, [rec], [self.DAY])
        feats = dense(out[ROAD[1].segment_id][0])
        assert all(v == 0.0 for v in feats.values())
        on_road = dataclasses.replace(rec, road_id="R1")
        out = _incident_features(cfg, {"R1": ROAD}, [on_road], [self.DAY])
        assert any(v > 0.0 for v in dense(out[ROAD[1].segment_id][0]).values())

    def test_orientation_detected(self):
        assert road_orientation(ROAD) == 1
        flipped = [seg("R2", o, 10 - (o + 1) * 1.5, 10 - o * 1.5) for o in range(5)]
        assert road_orientation(flipped) == -1

    def test_bulk_matches_scalar_on_random_incidents(self):
        rng = np.random.default_rng(21)
        flipped = [seg("R1", o, 10 - (o + 1) * 1.5, 10 - o * 1.5) for o in range(5)]
        days = [date(2014, 3, 4) + timedelta(days=i) for i in range(4)]
        for road in (ROAD, flipped):
            recs = []
            for i in range(40):
                mp0 = float(rng.uniform(-3.0, 11.0))
                mp1 = mp0 + float(rng.uniform(0.0, 4.0))
                start = datetime(2014, 3, 3, 12) + timedelta(minutes=int(rng.integers(0, 5760)))
                end = start + timedelta(minutes=int(rng.integers(1, 1800)))
                closure = "PARTIAL" if rng.random() < 0.5 else "FULL"
                rec = incident(mp0, mp1, start, end, closure=closure)
                recs.append(dataclasses.replace(rec, incident_id=f"i{i}"))
            for n_recs in (1, 3, 40):
                bulk = bulk_incident_features(recs[:n_recs], road, days, always)
                for s in road:
                    for di, d in enumerate(days):
                        want = scalar_incident_features(recs[:n_recs], s, road, d)
                        assert dense(bulk[s.segment_id][di]) == want


def wrec(day, hour, **kw):
    defaults = dict(temperature=50.0, humidity=60.0, wind_speed=5.0, pressure=30.0,
                    visibility=10.0, precip_hourly=0.0, pavement_wet=False, wx_severity=0)
    defaults.update(kw)
    return WeatherRecord(datetime.combine(day, datetime.min.time()).replace(hour=hour),
                         **defaults)


def scaled_weather(recs, train_days, test_days=()):
    """Scaled weather features of each split day by name, bounds from `train_days`."""
    split = list(train_days) + list(test_days)
    hours = weather_hours(recs, split)
    bounds = weather_bounds(hours[:len(train_days)])
    block = weather_features(hours, split, bounds)
    return [dict(zip(weather_feature_names(), row)) for row in block]


class TestWeather:
    D1, D2, D3 = date(2014, 3, 4), date(2014, 3, 5), date(2014, 3, 6)

    def make(self):
        recs = []
        for h in range(24):
            recs.append(wrec(self.D1, h, temperature=40.0 + h))
            recs.append(wrec(self.D2, h, temperature=60.0 + h))
        return recs

    def test_endpoints(self):
        f1, f2 = scaled_weather(self.make(), [self.D1, self.D2])
        assert f1["temp_0"] == 0.0 and f2["temp_0"] == 1.0

    def test_constant_field_zero(self):
        f1, _f2 = scaled_weather(self.make(), [self.D1, self.D2])
        assert f1["pressure_4"] == 0.0

    def test_test_value_unclipped(self):
        recs = self.make() + [wrec(self.D3, h, temperature=80.0 + h) for h in range(24)]
        _f1, _f2, f3 = scaled_weather(recs, [self.D1, self.D2], [self.D3])
        assert f3["temp_3"] > 1.0

    def test_missing_hour_carried_forward(self):
        recs = [wrec(self.D1, h, wx_severity=h) for h in range(24) if h != 4]
        (feats,) = scaled_weather(recs, [self.D1])
        assert feats["wx_phrase_4"] == feats["wx_phrase_3"] == 3.0

    def test_lead_gap_borrows_first_later_record(self):
        recs = [wrec(self.D1, h, wx_severity=h) for h in range(2, 24)]
        (feats,) = scaled_weather(recs, [self.D1])
        assert feats["wx_phrase_0"] == feats["wx_phrase_1"] == feats["wx_phrase_2"] == 2.0

    def test_no_leakage_train_only_bounds(self):
        recs = self.make() + [wrec(self.D3, h, temperature=80.0 + h) for h in range(24)]
        s_train = scaled_weather(recs, [self.D1, self.D2], [self.D3])
        s_both = scaled_weather(recs, [self.D1, self.D2, self.D3])
        assert s_train[2]["temp_0"] != s_both[2]["temp_0"]
        assert scaled_weather(recs, [self.D1, self.D2]) == s_train[:2]
        assert scaled_weather(recs, [self.D1, self.D2], [self.D3]) == s_train

    def test_unusable_day_fails_when_a_split_reads_it(self):
        recs = [wrec(self.D1, h) for h in range(24)]
        hours = weather_hours(recs, [self.D1, self.D2])
        assert np.isnan(hours[1]).all() and not np.isnan(hours[0]).any()
        weather_features(hours[:1], [self.D1], weather_bounds(hours[:1]))
        with pytest.raises(EmptyInput, match=str(self.D2)):
            weather_features(hours, [self.D1, self.D2], weather_bounds(hours))


def time_row(day, holidays):
    """One day's time features by name."""
    return dict(zip(TIME_FEATURE_NAMES, time_features([day], holidays)[0]))


class TestTimeFeatures:
    def test_cyclic_identities(self):
        s, c = cyclic_encode(0, 12)
        assert (s, c) == pytest.approx((0.0, 1.0))
        s, c = cyclic_encode(6, 12)
        assert (s, c) == pytest.approx((0.0, -1.0))
        for i in range(12):
            s, c = cyclic_encode(i, 12)
            assert s * s + c * c == pytest.approx(1.0)

    def test_december_january_adjacency(self):
        dec = np.array(cyclic_encode(11, 12))
        jan = np.array(cyclic_encode(0, 12))
        jun = np.array(cyclic_encode(5, 12))
        assert np.linalg.norm(dec - jan) < np.linalg.norm(jun - dec)

    def test_wednesday_merged(self):
        f = time_row(date(2014, 3, 5), set())
        assert f["dow_tue_thu"] == 1.0
        assert f["dow_mon"] == f["dow_fri"] == f["dow_wkd_holiday"] == 0.0

    def test_saturday(self):
        f = time_row(date(2014, 3, 8), set())
        assert f["dow_wkd_holiday"] == 1.0

    def test_holiday_overrides_weekday(self):
        f = time_row(date(2014, 7, 4), {date(2014, 7, 4)})   # a Friday
        assert f["dow_wkd_holiday"] == 1.0 and f["dow_fri"] == 0.0

    def test_exactly_one_dow_flag(self):
        for offset in range(14):
            f = time_row(date(2014, 3, 3 + offset), {date(2014, 3, 10)})
            flags = [f["dow_mon"], f["dow_tue_thu"], f["dow_fri"], f["dow_wkd_holiday"]]
            assert sum(flags) == 1.0

    def test_friday_next_rest(self):
        f = time_row(date(2014, 3, 7), set())
        assert f["nxt_rest"] == 1.0

    def test_monday_last_rest(self):
        f = time_row(date(2014, 3, 10), set())
        assert f["lst_rest"] == 1.0


def family_blocks(days, vec, layouts):
    """One block per layout family, every day holding the named values of `vec`."""
    return [np.array([[vec.get(name, 0.0) for name, _g, _a in layout] for _d in days])
            for layout in layouts]


def road_layouts(tract_ids):
    return [tweet_feature_layout(tract_ids, CFG), weather_feature_layout(),
            time_feature_layout()]


def road_matrix(days, vec, tract_ids):
    layouts = road_layouts(tract_ids)
    return build_feature_matrix(days, family_blocks(days, vec, layouts),
                                [c for layout in layouts for c in layout])


class TestAssembly:
    DAY = date(2014, 3, 5)
    TRACTS = ["T01", "T02"]

    def road_matrix(self, vec):
        return road_matrix([self.DAY], vec, self.TRACTS)

    def parts(self):
        return {"21_T01": 0.5, "EV": 3, "Neu_EV": 0.4, "temp_0": 0.3, "dow_mon": 1.0}

    def test_road_vector_has_no_incident_columns(self):
        fm = self.road_matrix(self.parts())
        assert not any(n.startswith(("p_", "f_")) for n in fm.names)
        row = dict(zip(fm.names, fm.values[0]))
        assert {k: v for k, v in row.items() if v != 0.0} == self.parts()

    def test_segment_vector_cluster_columns(self):
        sid = ROAD[1].segment_id
        incidents = np.zeros((2, len(incident_feature_names())))
        incidents[1, incident_feature_names().index("p_ds_7")] = 0.25
        prepared = SimpleNamespace(roads=["R1"], segs_by_road={"R1": [ROAD[1]]},
                                   day_index={self.DAY - timedelta(days=1): 0, self.DAY: 1},
                                   incident_features={sid: incidents})
        art = SimpleNamespace()
        fm = self.road_matrix(self.parts())
        scales = {"R1": np.array([[0.4, 0.6, 0.2]])}
        names, X_all, pos = segment_design(prepared, art, fm, scales)[sid]
        vals = X_all[pos[self.DAY]]
        assert names[-3:] == ["c_1", "c_2", "c_3"]
        assert vals[-3:].tolist() == [0.4, 0.6, 0.2]
        assert any(n.startswith("p_") for n in names)
        assert names[:len(fm.names)] == fm.names
        assert vals[names.index("p_ds_7")] == 0.25
        assert vals[names.index("21_T01")] == 0.5

    def test_column_stability(self):
        n1 = self.road_matrix(self.parts()).names
        n2 = self.road_matrix({"MN": 9, "vis_2": 0.2, "dow_fri": 1.0}).names
        assert n1 == n2

    def test_blocks_must_match_the_layout(self):
        layouts = road_layouts(self.TRACTS)
        layout = [c for lay in layouts for c in lay]
        blocks = family_blocks([self.DAY], self.parts(), layouts)
        with pytest.raises(ValueError, match="layout needs"):
            build_feature_matrix([self.DAY], blocks[:-1], layout)
        with pytest.raises(ValueError, match="layout needs"):
            build_feature_matrix([self.DAY], blocks + [np.zeros((1, 1))], layout)
        with pytest.raises(ValueError, match="layout needs"):
            build_feature_matrix([self.DAY, self.DAY + timedelta(days=1)], blocks, layout)


class TestSleepWakeLayout:
    DAY = date(2014, 3, 5)

    def emitted_keys(self, cfg):
        """Column names of every (hour, tract) key encode_sleep_wake can emit."""
        tweets_by_user = {}
        for h in cfg.sleep_hours + cfg.wake_hours:
            day = self.DAY - timedelta(days=1) if h >= 12 else self.DAY
            ts = datetime.combine(day, datetime.min.time()).replace(hour=h, minute=30)
            tweets_by_user[f"u{h}"] = [Tweet(f"t{h}", f"u{h}", ts, "", (40.5, -80.0),
                                             None, "TIMELINE")]
        sleep, wake = encode_sleep_wake(tweets_by_user, {(40.5, -80.0): "T01"}, cfg)
        return ({f"{h}_{t}" for h, t in sleep}, {f"{h}_{t}" for h, t in wake})

    def layout_columns(self, cfg, group):
        return {name for name, g, _a in tweet_feature_layout(["T01"], cfg) if g == group}

    def test_default_windows(self):
        assert CFG.sleep_hours == (21, 22, 23, 0, 1, 2)
        assert CFG.wake_hours == (3, 4)

    def test_layout_follows_configured_windows(self):
        cfg = TweetConfig(sleep_window=(22, 1), wake_window=(1, 4))
        assert cfg.sleep_hours == (22, 23, 0)
        assert cfg.wake_hours == (1, 2, 3)
        sleep, wake = self.emitted_keys(cfg)
        assert sleep == self.layout_columns(cfg, "tweet_sleep")
        assert wake == self.layout_columns(cfg, "tweet_wake")


class TestFeatureMatrix:
    def make(self):
        days = [date(2014, 3, 4), date(2014, 3, 5)]
        return road_matrix(days, {"21_T01": 1.0, "temp_5": 0.5, "dow_mon": 1.0}, ["T01"])

    def test_before_midnight_drops_wake_and_small_hours(self):
        fm = self.make().before_cutoff(0.0)
        assert "21_T01" in fm.names
        assert not any(n.startswith(("3_", "4_", "0_", "1_", "2_")) for n in fm.names)
        assert "MN" not in fm.names and "EM" not in fm.names
        assert not any(n.startswith("temp_") for n in fm.names)
        assert "dow_mon" in fm.names

    def test_before_3am_keeps_early_weather(self):
        fm = self.make().before_cutoff(3.0)
        assert "temp_2" in fm.names and "temp_3" not in fm.names
        assert "MN" in fm.names and "EM" not in fm.names
        assert "2_T01" in fm.names
        assert not any(n.startswith(("3_", "4_")) for n in fm.names)

    def test_drop_groups(self):
        fm = self.make().drop_groups({"tweet_sleep", "tweet_wake",
                                      "tweet_period", "tweet_sentiment"})
        assert not any(g.startswith("tweet") for g in fm.groups)
        assert "temp_5" in fm.names


class TestPeriodAvailability:
    def period_avail(self, cfg):
        return {name: a for name, g, a in tweet_feature_layout(["T01"], cfg)
                if g in ("tweet_period", "tweet_sentiment")}

    def test_default_periods(self):
        avail = self.period_avail(CFG)
        assert {n: a for n, a in avail.items() if not n.startswith("Neu_")} == {
            "EM": 5.0, "AM": 0.0, "DA": 0.0, "EV": 0.0, "LN": 0.0, "MN": 3.0}
        assert all(avail[f"Neu_{n}"] == a for n, a in avail.items()
                   if not n.startswith("Neu_"))

    def test_availability_follows_the_hours_not_the_name(self):
        for name in ("EV", "LN", "X"):
            cfg = TweetConfig(periods=((name, 3, 5), ("AM", 5, 9)))
            assert self.period_avail(cfg) == {name: 5.0, f"Neu_{name}": 5.0,
                                              "AM": 0.0, "Neu_AM": 0.0}

    def test_before_midnight_drops_a_period_completing_at_five(self):
        cfg = TweetConfig(periods=(("EV", 3, 5), ("AM", 5, 9)))
        layout = tweet_feature_layout(["T01"], cfg)
        fm = build_feature_matrix([date(2014, 3, 5)], [np.zeros((1, len(layout)))], layout)
        names = fm.before_cutoff(0.0).names
        assert "EV" not in names and "Neu_EV" not in names
        assert "AM" in names and "Neu_AM" in names

"""Deterministic synthetic dataset generator with a ground-truth sidecar.

The generator builds a small metro area (roads of ordered segments feeding a
bottleneck, a tract/zone grid, resident and tourist users) and simulates:

  * a latent daily "sleep earliness" that always shifts the evening tweeting
    peak, and scales morning travel demand by `sleep_effect`;
  * demand-driven morning congestion that starts at the bottleneck and spills
    upstream (later starts, shorter durations on upstream segments);
  * injected incidents (RCRS rows or agency tweet series) that shift
    congestion start/duration on nearby segments by `incident_effect`;
  * adverse weather days that lengthen congestion by `weather_effect`.

Every latent quantity and the per-segment-day truth is recorded in the
sidecar, so behavioral tests never have to reverse-engineer the data.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import date as date_t
from datetime import datetime, time, timedelta

import numpy as np

from ..clock import CUTOFF_HOUR, MORNING_END_HOUR, N_SLOTS, SLOTS_PER_HOUR
from ..config import CongestionParams
from ..congestion import TtiSeries, congestion_measurements, reference_speed
from ..errors import InvalidConfig
from .types import (
    CalendarInfo,
    IncidentRecord,
    SegmentDescriptor,
    SpeedCube,
    TractPolygon,
    Tweet,
    WeatherRecord,
    ZonePolygon,
)
from .loaders import DatasetBundle

BBOX = (40.30, -80.20, 40.62, -79.80)
ROAD_NAMES = ["I-279", "PA-28", "I-376", "I-376", "I-579", "US-19", "PA-51", "I-176"]
ROAD_DIRS = ["southbound", "southbound", "westbound", "eastbound",
             "northbound", "southbound", "eastbound", "westbound"]

AGENCY_USER = "agency511"

_EVENING_PHRASES = [
    "What a great game at the park tonight", "So tired after work today",
    "Watching tv on the couch", "dinner with friends was awesome",
    "cannot sleep yet", "time for bed", "Good night everyone",
    "This traffic was terrible today", "love this city", "off to sleep soon",
    "just got home", "long day tomorrow", "one more episode then bed",
]
_DAY_PHRASES = [
    "coffee break", "lunch downtown", "busy morning at work", "nice weather out",
    "meetings all day", "heading to the gym", "good morning",
]
_WAKE_PHRASES = ["up early today", "cannot sleep anymore", "early shift this morning",
                 "airport run at dawn"]


@dataclass(frozen=True)
class SyntheticConfig:
    n_days: int = 300
    n_roads: int = 4
    segments_per_road: int = 10
    n_users: int = 50
    n_tracts: int = 6
    sleep_effect: float = 0.8      # latent sleep time -> morning demand coupling
    incident_effect: float = 0.8   # incident -> congestion start/duration shifts
    weather_effect: float = 0.4    # adverse weather -> duration increase
    start_date: date_t = date_t(2014, 1, 6)
    peak_shift_hours: float = 1.3  # sleep time -> evening tweeting peak shift
    incident_rate: float = 0.22    # per road-day injection probability
    adverse_weather_rate: float = 0.12

    def validate(self) -> None:
        if min(self.n_days, self.n_roads, self.segments_per_road,
               self.n_users, self.n_tracts) <= 0:
            raise InvalidConfig("sizes must be positive")
        if self.n_roads > len(ROAD_NAMES):
            raise InvalidConfig(f"at most {len(ROAD_NAMES)} roads supported")
        for name in ("sleep_effect", "incident_effect", "weather_effect"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.peak_shift_hours <= 3.0:
            raise InvalidConfig("peak_shift_hours must lie in [0, 3]")


HOLIDAYS_2014 = {date_t(2014, 1, 1), date_t(2014, 1, 20), date_t(2014, 2, 17),
                 date_t(2014, 5, 26), date_t(2014, 7, 4), date_t(2014, 9, 1),
                 date_t(2014, 11, 27), date_t(2014, 12, 25)}


def _build_geography(cfg: SyntheticConfig, rng):
    minlat, minlon, maxlat, maxlon = BBOX
    tracts, zones = [], []
    n = cfg.n_tracts
    lon_edges = np.round(np.linspace(minlon, maxlon, n + 1), 6)
    for i in range(n):
        ring = ((minlat, lon_edges[i]), (minlat, lon_edges[i + 1]),
                (maxlat, lon_edges[i + 1]), (maxlat, lon_edges[i]),
                (minlat, lon_edges[i]))
        tracts.append(TractPolygon(f"T{i + 1:02d}", ring))
        # each tract: residence in the north 60%, a mixed band, odd-use south strip
        lat_res = round(minlat + 0.4 * (maxlat - minlat), 6)
        lat_mix = round(minlat + 0.2 * (maxlat - minlat), 6)
        zones.append(ZonePolygon("residence", ((lat_res, lon_edges[i]), (lat_res, lon_edges[i + 1]),
                                               (maxlat, lon_edges[i + 1]), (maxlat, lon_edges[i]),
                                               (lat_res, lon_edges[i]))))
        zones.append(ZonePolygon("mixed-use", ((lat_mix, lon_edges[i]), (lat_mix, lon_edges[i + 1]),
                                               (lat_res, lon_edges[i + 1]), (lat_res, lon_edges[i]),
                                               (lat_mix, lon_edges[i]))))
        odd = ("industry", "amenity", "downtown", "education")[i % 4]
        zones.append(ZonePolygon(odd, ((minlat, lon_edges[i]), (minlat, lon_edges[i + 1]),
                                       (lat_mix, lon_edges[i + 1]), (lat_mix, lon_edges[i]),
                                       (minlat, lon_edges[i]))))
    return tracts, zones


def _build_segments(cfg: SyntheticConfig):
    segments = []
    minlat, minlon, maxlat, maxlon = BBOX
    seg_len_km = 1.5
    deg_per_km = 1.0 / 111.2
    for r in range(cfg.n_roads):
        name, direction = ROAD_NAMES[r], ROAD_DIRS[r]
        road_id = f"{name} {direction[0].upper()}"
        lon = round(minlon + (r + 1) * (maxlon - minlon) / (cfg.n_roads + 1), 6)
        lat0 = maxlat - 0.02
        for o in range(cfg.segments_per_road):
            mp0, mp1 = o * seg_len_km, (o + 1) * seg_len_km
            segments.append(SegmentDescriptor(
                segment_id=f"{100 + r}-{o:02d}", road_id=road_id, order_on_road=o,
                start_milepost=mp0, end_milepost=mp1,
                start_coord=(round(lat0 - mp0 * deg_per_km, 6), lon),
                end_coord=(round(lat0 - mp1 * deg_per_km, 6), lon)))
    return segments


def _build_users(cfg: SyntheticConfig, tracts, rng):
    minlat, minlon, maxlat, maxlon = BBOX
    lat_res = minlat + 0.45 * (maxlat - minlat)
    users = []
    profiles = ["Pittsburgh, PA", "pgh", "da burgh", "Steel City", "Pittsburgh 412",
                "shadyside, pittsburgh", "oakland", "Moon Township", "15213"]
    n_resident = max(1, int(round(cfg.n_users * 0.84)))
    for u in range(cfg.n_users):
        tract = tracts[u % len(tracts)]
        lons = [p[1] for p in tract.ring]
        lon = float(rng.uniform(min(lons) + 0.002, max(lons) - 0.002))
        lat = float(rng.uniform(lat_res + 0.01, maxlat - 0.01))
        resident = u < n_resident
        users.append({
            "user_id": f"user{u:03d}",
            "home": (round(lat, 6), round(lon, 6)),
            "tract": tract.tract_id,
            "resident": resident,
            "profile": profiles[u % len(profiles)] if resident else "Somewhere Else",
            "offset": float(rng.normal(0.0, 0.4)),
            "wake_prone": bool(rng.random() < 0.5),
            # night owls tweet past midnight regardless of the day's sleep
            # state, so midnight activity is a noisy congestion cue while
            # evening activity stays clean
            "owl": resident and (u % 4 == 3),
        })
    return users


def _minute_ts(day: date_t, hour_float: float) -> datetime:
    """Clock time from fractional hours past the day's midnight (can exceed 24)."""
    minutes = int(round(hour_float * 60))
    return datetime.combine(day, time(0, 0)) + timedelta(minutes=minutes)


def generate_synthetic(config: SyntheticConfig, seed: int):
    """Build the full dataset bundle plus the ground-truth sidecar."""
    config.validate()
    rng = np.random.default_rng(seed)
    cfg = config

    tracts, zones = _build_geography(cfg, rng)
    segments = _build_segments(cfg)
    users = _build_users(cfg, tracts, rng)
    days = [cfg.start_date + timedelta(days=d) for d in range(cfg.n_days)]
    prelude = cfg.start_date - timedelta(days=1)

    road_ids = sorted({s.road_id for s in segments})
    segs_by_road = {rid: sorted((s for s in segments if s.road_id == rid),
                                key=lambda s: s.order_on_road) for rid in road_ids}
    v_ff = {s.segment_id: float(rng.uniform(60.0, 70.0)) for s in segments}

    # ---- daily latents -------------------------------------------------
    sleep_latent = rng.normal(0.0, 1.0, size=cfg.n_days).clip(-2.2, 2.2)
    demand_noise = rng.normal(0.0, 0.45, size=cfg.n_days)
    road_noise = rng.normal(0.0, 0.3, size=(cfg.n_days, len(road_ids)))
    adverse = rng.random(cfg.n_days) < cfg.adverse_weather_rate
    wx_severity = np.where(adverse, rng.integers(2, 4, size=cfg.n_days), 0)

    day_rows = []
    demand = np.zeros((cfg.n_days, len(road_ids)))
    for d in range(cfg.n_days):
        rest = days[d].weekday() >= 5 or days[d] in HOLIDAYS_2014
        base = (0.45 + cfg.sleep_effect * 1.3 * sleep_latent[d] + demand_noise[d]
                - (1.2 if rest else 0.0))
        demand[d] = base + road_noise[d]
        peak = 21.9 - cfg.peak_shift_hours * sleep_latent[d]
        day_rows.append({
            "date": days[d].isoformat(),
            "latent_sleep": round(float(sleep_latent[d]), 6),
            "tweet_peak_hour": round(float(peak), 6),
            "wx_severity": int(wx_severity[d]),
            "rest_day": bool(rest),
            "demand": {rid: round(float(demand[d][i]), 6) for i, rid in enumerate(road_ids)},
        })

    # ---- intended congestion plan per (segment, day) --------------------
    plan: dict[tuple[str, str], tuple[int, int]] = {}   # (seg, date) -> (start, dur)
    start_jitter = rng.integers(-2, 3, size=(cfg.n_days, len(segments)))
    dur_jitter = rng.integers(-2, 3, size=(cfg.n_days, len(segments)))
    for d in range(cfg.n_days):
        for ri, rid in enumerate(road_ids):
            dem = demand[d][ri]
            if dem <= 0.0:
                continue
            segs = segs_by_road[rid]
            n_seg = len(segs)
            start0 = int(np.clip(round(22 - 9.0 * dem), 1, 54))
            extent = int(np.clip(round(2.5 + 3.0 * dem), 1, n_seg))
            dur0 = int(np.clip(round(13 + 9.0 * dem
                                     + cfg.weather_effect * 9.0 * (wx_severity[d] >= 2)), 4, 60))
            for seg in segs:
                k = (n_seg - 1) - seg.order_on_road   # 0 at the bottleneck
                if k >= extent:
                    continue
                si = segments.index(seg)
                start = int(np.clip(start0 + 3 * k + start_jitter[d][si], 0, 66))
                dur = int(dur0 - 3 * k + dur_jitter[d][si])
                if dur < 4:
                    continue
                dur = min(dur, N_SLOTS - start)
                plan[(seg.segment_id, days[d].isoformat())] = (start, dur)

    # ---- incidents -------------------------------------------------------
    incidents: list[IncidentRecord] = []
    agency_tweets: list[Tweet] = []
    sidecar_incidents = []
    inc_counter = 0
    for d in range(cfg.n_days):
        for ri, rid in enumerate(road_ids):
            if rng.random() >= cfg.incident_rate:
                continue
            segs = segs_by_road[rid]
            n_seg = len(segs)
            loc_seg = int(rng.integers(n_seg // 2, n_seg))     # downstream half
            milepost = segs[loc_seg].end_milepost
            coord = segs[loc_seg].end_coord
            start_h = float(rng.uniform(1.0, 6.0))
            dur_h = float(rng.uniform(1.0, 4.0))
            full = bool(rng.random() < 0.45)
            start_ts = _minute_ts(days[d], round(start_h * 60) / 60)
            end_ts = start_ts + timedelta(minutes=int(round(dur_h * 60)))
            inc_counter += 1
            inc_id = f"syn{inc_counter:05d}"
            as_tweets = rng.random() < 0.35
            name = ROAD_NAMES[road_ids.index(rid) if rid in road_ids else 0]
            # recover display name/direction from the road id
            name, letter = rid.rsplit(" ", 1)
            direction = {"N": "northbound", "S": "southbound",
                         "E": "eastbound", "W": "westbound"}[letter]
            category = "roadwork" if not full else "multi vehicle crash"
            if as_tweets:
                mid_ts = start_ts + (end_ts - start_ts) / 2
                base = f"{category.capitalize()} on {name} {direction} at Mile Post: {milepost:.1f}."
                status0 = "All lanes closed." if full else "There is a lane restriction."
                agency_tweets.append(Tweet(f"ag{inc_counter:05d}a", AGENCY_USER,
                                           start_ts.replace(second=0, microsecond=0),
                                           f"{base} {status0}", None, None, "TIMELINE"))
                agency_tweets.append(Tweet(f"ag{inc_counter:05d}b", AGENCY_USER,
                                           mid_ts.replace(second=0, microsecond=0),
                                           f"UPDATE: {base} {status0}", None, None, "TIMELINE"))
                agency_tweets.append(Tweet(f"ag{inc_counter:05d}c", AGENCY_USER,
                                           end_ts.replace(second=0, microsecond=0),
                                           f"CLEARED: {base}", None, None, "TIMELINE"))
            else:
                incidents.append(IncidentRecord(
                    inc_id, "RCRS", rid, start_ts, end_ts, coord, coord,
                    "FULL" if full else "PARTIAL", category))
            # effect on the plan: upstream neighbors see the incident downstream
            affected = []
            if cfg.incident_effect > 0:
                for seg in segs:
                    gap_km = milepost - seg.end_milepost
                    if gap_km < 0 or gap_km >= 5.0:
                        continue
                    impact = (5.0 - gap_km) / 5.0
                    scale = cfg.incident_effect * impact * (1.0 if full else 0.45)
                    cst_shift = int(round(7.0 * scale))
                    cd_shift = int(round(6.0 * scale))
                    key = (seg.segment_id, days[d].isoformat())
                    if key in plan:
                        start, dur = plan[key]
                        new_start = max(0, start - cst_shift)
                        new_dur = min(dur + cd_shift + (start - new_start), N_SLOTS - new_start)
                        plan[key] = (new_start, new_dur)
                    elif full and impact >= 0.5:
                        new_start = int(np.clip(round(max(start_h - CUTOFF_HOUR, 0.2)
                                                      * SLOTS_PER_HOUR), 0, 60))
                        new_dur = min(6 + cd_shift, N_SLOTS - new_start)
                        plan[key] = (new_start, new_dur)
                        cst_shift = new_start + new_dur   # created from nothing
                    else:
                        continue
                    if cst_shift > 0:
                        affected.append({"segment_id": seg.segment_id,
                                         "date": days[d].isoformat(),
                                         "cst_shift_slots": cst_shift,
                                         "cd_shift_slots": cd_shift})
            sidecar_incidents.append({
                "incident_id": inc_id if not as_tweets else f"tweeted{inc_counter:05d}",
                "road_id": rid, "date": days[d].isoformat(), "full": full,
                "as_tweets": as_tweets, "milepost": milepost,
                "reported_before_cutoff": start_h < CUTOFF_HOUR,
                "affected": affected,
            })

    # ---- speeds ----------------------------------------------------------
    emit_start_h = 3
    slots_per_day = (MORNING_END_HOUR - emit_start_h) * SLOTS_PER_HOUR
    morning_offset = (CUTOFF_HOUR - emit_start_h) * SLOTS_PER_HOUR
    seg_ids = sorted(s.segment_id for s in segments)
    speed_cube = np.empty((len(segments), cfg.n_days, slots_per_day))
    tti_all = {}
    for seg in segments:
        g = seg_ids.index(seg.segment_id)
        ff = v_ff[seg.segment_id]
        for d in range(cfg.n_days):
            tti_target = np.ones(slots_per_day)
            key = (seg.segment_id, days[d].isoformat())
            if key in plan:
                start, dur = plan[key]
                level = float(2.45 + 0.5 * min(max(demand[d][road_ids.index(seg.road_id)], 0), 2.0))
                tti_target[morning_offset + start: morning_offset + start + dur] = level
            noise = 1.0 + rng.uniform(-0.02, 0.02, size=slots_per_day)
            speeds = np.round(ff / tti_target * noise, 3)
            speed_cube[g, d] = speeds
            tti_all[key] = speeds[morning_offset:morning_offset + N_SLOTS]

    # ---- weather ---------------------------------------------------------
    weather_records: list[WeatherRecord] = []
    for d in range(-1, cfg.n_days):
        day = prelude if d < 0 else days[d]
        sev = 0 if d < 0 else int(wx_severity[d])
        doy = day.timetuple().tm_yday
        base_temp = 35 + 30 * np.sin(2 * np.pi * (doy - 100) / 365.0)
        for h in range(24):
            temp = round(float(base_temp + 8 * np.sin(2 * np.pi * (h - 9) / 24.0)
                               + rng.normal(0, 1.5)), 1)
            precip = round(float(rng.uniform(0.05, 0.4)), 2) if sev >= 2 else 0.0
            weather_records.append(WeatherRecord(
                datetime.combine(day, time(h, 0)), temp,
                round(float(rng.uniform(40, 95)), 1), round(float(rng.uniform(0, 20)), 1),
                round(float(rng.uniform(29.0, 30.8)), 2),
                round(float(10.0 if sev < 2 else rng.uniform(1.0, 6.0)), 1),
                precip, bool(sev >= 2), sev))

    # ---- tweets ----------------------------------------------------------
    tweets: list[Tweet] = list(agency_tweets)
    tid = 0

    def emit(day, hour_float, user, kind, near_home=True, text=None):
        nonlocal tid
        tid += 1
        ts = _minute_ts(day, hour_float)
        coord = None
        if kind == "GEOCODED":
            if near_home:
                lat = round(user["home"][0] + float(rng.normal(0, 0.0008)), 6)
                lon = round(user["home"][1] + float(rng.normal(0, 0.0008)), 6)
            else:
                lat = round(float(rng.uniform(BBOX[0] + 0.01, BBOX[2] - 0.01)), 6)
                lon = round(float(rng.uniform(BBOX[1] + 0.01, BBOX[3] - 0.01)), 6)
            coord = (lat, lon)
        phrases = _EVENING_PHRASES if hour_float >= 17 else _DAY_PHRASES
        text = text if text is not None else phrases[int(rng.integers(len(phrases)))]
        tweets.append(Tweet(f"t{tid:07d}", user["user_id"], ts, text, coord,
                            user["profile"], kind))

    for d in range(-1, cfg.n_days):
        day = prelude if d < 0 else days[d]
        # the evening of calendar date `day` feeds the NEXT morning's features,
        # so it reflects the next day's latent sleep state
        nxt = d + 1
        latent_next = float(sleep_latent[nxt]) if nxt < cfg.n_days else 0.0
        peak = 21.9 - cfg.peak_shift_hours * latent_next
        for user in users:
            if not user["resident"]:
                if rng.random() < 0.08:
                    emit(day, float(rng.uniform(10, 20)), user, "GEOCODED", near_home=False)
                continue
            n_evening = 1 + int(rng.poisson(2.2))
            if user["owl"] and rng.random() < 0.65:
                user_peak = 24.3 + user["offset"]       # up late on their own clock
            else:
                user_peak = peak + user["offset"]
            for _ in range(n_evening):
                h = float(np.clip(rng.normal(user_peak, 1.0), 17.5, 26.9))
                kind = "GEOCODED" if rng.random() < 0.45 else "TIMELINE"
                emit(day, h, user, kind)
            if rng.random() < 0.25:   # daytime chatter
                emit(day, float(rng.uniform(7, 17)), user, "GEOCODED", near_home=False)
            # wake tweets land on the next calendar date's early morning
            wake_p = 0.18 + 0.12 * max(latent_next, 0.0)
            if user["wake_prone"] and rng.random() < wake_p:
                h = 24.0 + float(rng.uniform(3.0, 4.97))
                emit(day, h, user,
                     "GEOCODED" if rng.random() < 0.3 else "TIMELINE",
                     text=_WAKE_PHRASES[int(rng.integers(len(_WAKE_PHRASES)))])
    # a bot account: pinned coordinate, relentless posting
    bot = {"user_id": "botuser01", "home": (40.45, -80.0), "profile": "pgh deals",
           "offset": 0.0, "wake_prone": False, "resident": True}
    for d in range(-1, cfg.n_days, 3):
        day = prelude if d < 0 else days[d]
        for j in range(2):
            tid += 1
            tweets.append(Tweet(f"t{tid:07d}", bot["user_id"],
                                _minute_ts(day, 12.0 + j), "great deals call now",
                                (40.45, -80.0), bot["profile"], "GEOCODED"))

    tweets.sort(key=lambda t: (t.timestamp, t.tweet_id))

    # ---- calendar --------------------------------------------------------
    calendar = [CalendarInfo(prelude, prelude in HOLIDAYS_2014)]
    calendar += [CalendarInfo(day, day in HOLIDAYS_2014) for day in days]
    extra = days[-1]
    for i in range(1, 8):    # horizon padding for rest-day lookahead
        calendar.append(CalendarInfo(extra + timedelta(days=i),
                                     (extra + timedelta(days=i)) in HOLIDAYS_2014))

    bundle = DatasetBundle(
        segments=segments,
        speed=SpeedCube(tuple(seg_ids), tuple(days), emit_start_h, speed_cube),
        incidents=incidents, weather=weather_records, tweets=tweets, tracts=tracts,
        zones=zones, calendar=calendar,
    )

    # ---- sidecar quadruples (from the emitted, rounded speeds) -----------
    params = CongestionParams()
    quadruples: dict[str, dict[str, dict]] = {}
    ref = {seg.segment_id: reference_speed(speed_cube[g].ravel())
           for g, seg in enumerate(segments)}
    for seg in segments:
        quadruples[seg.segment_id] = {}
        for d in range(cfg.n_days):
            key = (seg.segment_id, days[d].isoformat())
            series = TtiSeries(seg.segment_id, days[d],
                               ref[seg.segment_id] / np.asarray(tti_all[key]))
            m = congestion_measurements(series, params)
            quadruples[seg.segment_id][days[d].isoformat()] = {
                "cs": int(m.cs), "cst": m.cst,
                "cd": m.cd, "pti": None if m.pti is None else round(m.pti, 9),
            }

    sidecar = {
        "config": {k: (v.isoformat() if isinstance(v, date_t) else v)
                   for k, v in dataclasses.asdict(cfg).items()},
        "seed": seed,
        "reference_speed": {k: round(v, 6) for k, v in sorted(ref.items())},
        "days": day_rows,
        "incidents": sidecar_incidents,
        "intended": {f"{k[0]}|{k[1]}": list(v) for k, v in sorted(plan.items())},
        "quadruples": quadruples,
    }
    return bundle, sidecar

"""CSV / GeoJSON loaders with schema validation and canonical writers.

Every loader validates the header, parses with row-indexed diagnostics,
and returns records sorted by timestamp where one exists; speed.csv loads
as one dense SpeedCube rather than one record per row.
Writers emit the canonical form, so write(load(x)) is a normalizing
round trip. `_open_rows` and `write_rows` are the program's one CSV codec:
every CSV file it reads or writes goes through them. The small files are
read through `read_rows`; speed, tweets and weather, the large ones, read
`_open_rows` in a loop of their own.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from datetime import date as date_t
from datetime import datetime
from itertools import islice
from pathlib import Path

import numpy as np

from ..clock import MORNING_END_HOUR, SLOT_MINUTES, SLOTS_PER_DAY, SLOTS_PER_HOUR
from ..errors import MissingFile, ParseError, SchemaMismatch
from .types import (
    LAND_USE_CLASSES,
    CalendarInfo,
    IncidentRecord,
    SegmentDescriptor,
    SpeedCube,
    TractPolygon,
    Tweet,
    WeatherRecord,
    ZonePolygon,
)

SCHEMAS = {
    "speed": ["segment_id", "timestamp", "observed_speed"],
    "incidents": ["incident_id", "source", "road_id", "closure_start", "closure_end",
                  "start_lat", "start_lon", "end_lat", "end_lon", "closure_type", "category"],
    "weather": ["timestamp", "temp", "humidity", "wind", "pressure", "visibility",
                "precip", "pavement_wet", "wx_severity"],
    "tweets": ["tweet_id", "user_id", "timestamp", "kind", "lat", "lon",
               "profile_location", "text"],
    "segments": ["segment_id", "road_id", "order_on_road", "start_mp", "end_mp",
                 "start_lat", "start_lon", "end_lat", "end_lon"],
    "calendar": ["date", "is_holiday"],
    "sentiment_scores": ["tweet_id", "p"],
}

FILE_NAMES = {
    "speed": "speed.csv",
    "incidents": "incidents.csv",
    "weather": "weather.csv",
    "tweets": "tweets.csv",
    "segments": "segments.csv",
    "calendar": "calendar.csv",
    "tracts": "tracts.geojson",
    "zones": "zones.geojson",
}


def _parse_ts(value: str, row: int) -> datetime:
    """A local wall-clock timestamp; one with a UTC offset is rejected."""
    try:
        ts = datetime.fromisoformat(value)
    except ValueError as exc:
        raise ParseError(row, f"bad timestamp {value!r}: {exc}") from None
    if ts.tzinfo is not None:
        raise ParseError(row, f"timestamp {value!r} carries a UTC offset; "
                         "dataset timestamps are local wall-clock time")
    return ts


def _parse_float(value: str, row: int, name: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(row, f"bad {name} {value!r}") from None


def _open_rows(path, kind):
    p = Path(path)
    if not p.exists():
        raise MissingFile(str(p))
    fh = p.open(newline="", encoding="utf-8")
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        fh.close()
        raise SchemaMismatch(SCHEMAS[kind][0], "empty file") from None
    want = SCHEMAS[kind]
    if header != want:
        fh.close()
        missing = [c for c in want if c not in header]
        raise SchemaMismatch(missing[0] if missing else header[0],
                             f"expected header {want}, got {header}")
    return fh, reader


def read_rows(path, kind):
    """Yield (1-based data-row number, fields) of each row past SCHEMAS[kind]'s header."""
    fh, reader = _open_rows(path, kind)
    width = len(SCHEMAS[kind])
    with fh:
        for i, row in enumerate(reader, start=1):
            if len(row) != width:
                raise ParseError(i, f"expected {width} fields, got {len(row)}")
            yield i, row


def write_rows(path, header, rows) -> str:
    """Write a CSV in canonical form (UTF-8, "\\n" line ends, header first); return its path."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def _off_grid(ts: datetime) -> bool:
    return bool((ts.minute % SLOT_MINUTES) or ts.second or ts.microsecond)


def _speed_row_error(i: int, row: list[str]) -> None:
    """Raise the ParseError of speed row `i`, checking in a fixed order."""
    if len(row) != 3:
        raise ParseError(i, f"expected 3 fields, got {len(row)}")
    ts = _parse_ts(row[1], i)
    v = _parse_float(row[2], i, "speed")
    if not v > 0:
        raise ParseError(i, "nonpositive speed")
    if math.isinf(v):
        raise ParseError(i, "infinite speed")
    if _off_grid(ts):
        raise ParseError(i, f"timestamp {row[1]} not on the {SLOT_MINUTES}-min grid")


def _grid_stamp(text: str):
    """(date, slot of the day) of an on-grid local timestamp, else None."""
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        return None
    if ts.tzinfo is not None or _off_grid(ts):
        return None
    return ts.date(), ts.hour * SLOTS_PER_HOUR + ts.minute // SLOT_MINUTES


def _regrid(cube: np.ndarray, lo: int, need: tuple[int, int], new_lo: int,
            new_hi: int) -> np.ndarray:
    """A NaN cube holding `cube`, whose slot axis starts at hour `lo`, with room
    for `need` (segments, days) and slots over hours [new_lo, new_hi).

    A segment or day axis that must grow at least doubles, so a file read in
    chunks is copied O(log n) times.
    """
    n_seg, n_day = (c if n <= c else max(n, 2 * c) for n, c in zip(need, cube.shape))
    out = np.full((n_seg, n_day, (new_hi - new_lo) * SLOTS_PER_HOUR), np.nan)
    at = (lo - new_lo) * SLOTS_PER_HOUR
    out[:cube.shape[0], :cube.shape[1], at:at + cube.shape[2]] = cube
    return out


_SPEED_CHUNK = 1 << 10


def _load_speed(path) -> SpeedCube:
    """Parse speed.csv into one SpeedCube.

    Chunks of rows are checked as whole columns; a chunk that fails any
    check is re-read row by row so the first bad row raises its ParseError.
    Each chunk's speeds go straight into a cube laid out in order of first
    appearance, which grows as segments, days and hours appear; it is put in
    sorted order once, at the end. A repeated (segment_id, timestamp) key
    raises SchemaMismatch naming the first row whose key an earlier row
    holds, once every row has passed its checks.
    """
    fh, reader = _open_rows(path, "speed")
    seg_code: dict[str, int] = {}
    day_code: dict[date_t, int] = {}
    cube = np.full((0, 0, 0), np.nan)
    lo, hi = 24, MORNING_END_HOUR       # hours [lo, hi) of the slot axis, once a row is in
    duplicate = None                    # SchemaMismatch of the first repeated key
    first = 1                           # row number of the chunk's first row
    with fh:
        while rows := list(islice(reader, _SPEED_CHUNK)):
            n = len(rows)
            if set(map(len, rows)) == {3}:
                segs, texts, values = zip(*rows)
                stamps = {t: _grid_stamp(t) for t in dict.fromkeys(texts)}
                try:
                    speed = np.fromiter(map(float, values), float, n)
                except ValueError:
                    speed = None
                if (speed is not None and None not in stamps.values()
                        and ((speed > 0) & (speed < np.inf)).all()):
                    code = {t: day_code.setdefault(d, len(day_code)) * SLOTS_PER_DAY + s
                            for t, (d, s) in stamps.items()}
                    day, slot = np.divmod(np.fromiter(map(code.__getitem__, texts), np.intp, n),
                                          SLOTS_PER_DAY)
                    for g in dict.fromkeys(segs):
                        seg_code.setdefault(g, len(seg_code))
                    seg = np.fromiter(map(seg_code.__getitem__, segs), np.intp, n)
                    new_lo = min(lo, int(slot.min()) // SLOTS_PER_HOUR)
                    new_hi = max(hi, int(slot.max()) // SLOTS_PER_HOUR + 1)
                    if (len(seg_code) > cube.shape[0] or len(day_code) > cube.shape[1]
                            or (new_lo, new_hi) != (lo, hi)):
                        cube = _regrid(cube, lo, (len(seg_code), len(day_code)),
                                       new_lo, new_hi)
                        lo, hi = new_lo, new_hi
                    cells = (seg, day, slot - lo * SLOTS_PER_HOUR)
                    if duplicate is None and (i := _first_repeat(cube, cells)) is not None:
                        d, s = stamps[texts[i]]
                        duplicate = SchemaMismatch("timestamp", f"row {first + i}: duplicate "
                                                   f"speed key ({segs[i]}, {d}{_SLOT_TEXT[s]})")
                    cube[cells] = speed
                    first += n
                    continue
            for i, row in enumerate(rows, start=first):
                _speed_row_error(i, row)
            raise AssertionError(f"speed rows {first}-{first + n - 1} flagged but valid")
    if duplicate is not None:
        raise duplicate
    seg_ids, days = sorted(seg_code), sorted(day_code)
    cube = cube[np.ix_([seg_code[g] for g in seg_ids], [day_code[d] for d in days])]
    return SpeedCube(tuple(seg_ids), tuple(days), lo if seg_ids else 0, cube)


def _first_repeat(cube: np.ndarray, cells) -> int | None:
    """The index of the first of a chunk's rows whose cell holds a speed
    already or is an earlier row's of the chunk too; None if there is none."""
    later = np.ones(len(cells[0]), bool)    # not the chunk's first row of its cell
    later[np.unique(np.ravel_multi_index(cells, cube.shape), return_index=True)[1]] = False
    hits = np.flatnonzero(later | ~np.isnan(cube[cells]))
    return int(hits[0]) if hits.size else None


_SORT_KEYS = {
    "incidents": lambda r: (r.closure_start_ts, r.incident_id),
    "weather": lambda r: r.timestamp,
    "tweets": lambda r: (r.timestamp, r.tweet_id),
    "segments": lambda r: (r.road_id, r.order_on_road),
    "calendar": lambda r: r.date,
    "tracts": lambda r: r.tract_id,
    "zones": lambda r: (r.land_use, r.ring),
}


def _load_incidents(path):
    out = []
    for i, row in read_rows(path, "incidents"):
        if row[1] not in ("RCRS", "TWEET"):
            raise ParseError(i, f"unknown source {row[1]!r}")
        if row[9] not in ("PARTIAL", "FULL"):
            raise ParseError(i, f"unknown closure_type {row[9]!r}")
        start = _parse_ts(row[3], i)
        end = _parse_ts(row[4], i)
        if start > end:
            raise ParseError(i, "closure_start after closure_end")
        out.append(IncidentRecord(
            row[0], row[1], row[2], start, end,
            (_parse_float(row[5], i, "start_lat"), _parse_float(row[6], i, "start_lon")),
            (_parse_float(row[7], i, "end_lat"), _parse_float(row[8], i, "end_lon")),
            row[9], row[10]))
    out.sort(key=_SORT_KEYS["incidents"])
    return out


def _load_weather(path, keep):
    """Every row is checked in a fixed order. A value is parsed directly;
    only one that fails goes to `_parse_ts` or `_parse_float`, which word
    its row's ParseError."""
    out = []
    seen = set()
    fh, reader = _open_rows(path, "weather")
    with fh:
        for i, row in enumerate(reader, start=1):
            try:
                stamp, temp, humidity, wind, pressure, visibility, precip, wet, sev = row
            except ValueError:
                raise ParseError(i, f"expected 9 fields, got {len(row)}") from None
            try:
                ts = datetime.fromisoformat(stamp)
            except ValueError:
                ts = None
            if ts is None or ts.tzinfo is not None:
                ts = _parse_ts(stamp, i)        # raises the row's ParseError
            if ts.minute or ts.second:
                raise ParseError(i, f"weather timestamp {stamp} not hourly")
            if ts in seen:
                raise SchemaMismatch("timestamp", f"duplicate hourly key {stamp}")
            seen.add(ts)
            flag = wet.strip().lower()
            if flag not in ("0", "1", "true", "false"):
                raise ParseError(i, f"bad pavement_wet {wet!r}")
            try:
                severity = float(sev)
            except ValueError:
                severity = _parse_float(sev, i, "wx_severity")
            if not severity.is_integer():       # nan, inf or a fraction
                raise ParseError(i, f"bad wx_severity {sev!r}")
            if severity < 0:
                raise ParseError(i, "negative wx_severity")
            severity = int(severity)
            try:
                values = (float(temp), float(humidity), float(wind), float(pressure),
                          float(visibility), float(precip))
            except ValueError:
                values = tuple(_parse_float(text, i, name)
                               for name, text in zip(SCHEMAS["weather"][1:7], row[1:7]))
            if keep is None or keep("weather", ts, None):
                out.append(WeatherRecord(ts, *values, flag in ("1", "true"), severity))
    out.sort(key=_SORT_KEYS["weather"])
    return out


def _load_tweets(path, keep):
    """Every row is checked in a fixed order, as in `_load_weather`."""
    out = []
    kinds = ("GEOCODED", "TIMELINE", "RETWEET", "FAVORITE")
    share = {}.setdefault               # one string object per distinct user, kind, location
    fh, reader = _open_rows(path, "tweets")
    with fh:
        for i, row in enumerate(reader, start=1):
            try:
                tweet_id, user, stamp, kind, lat, lon, place, text = row
            except ValueError:
                raise ParseError(i, f"expected 8 fields, got {len(row)}") from None
            if kind not in kinds:
                raise ParseError(i, f"unknown kind {kind!r}")
            coord = None
            if lat or lon:
                try:
                    coord = (float(lat), float(lon))
                except ValueError:
                    coord = (_parse_float(lat, i, "lat"), _parse_float(lon, i, "lon"))
            elif kind == "GEOCODED":
                raise ParseError(i, "GEOCODED tweet without coordinates")
            try:
                ts = datetime.fromisoformat(stamp)
            except ValueError:
                ts = None
            if ts is None or ts.tzinfo is not None:
                ts = _parse_ts(stamp, i)        # raises the row's ParseError
            if keep is None or keep("tweets", ts, user):
                out.append(Tweet(tweet_id, share(user, user), ts, text, coord,
                                 share(place, place) or None, share(kind, kind)))
    out.sort(key=_SORT_KEYS["tweets"])
    return out


def _load_segments(path):
    out = []
    for i, row in read_rows(path, "segments"):
        try:
            order = int(row[2])
        except ValueError:
            raise ParseError(i, f"bad order_on_road {row[2]!r}") from None
        if order < 0:
            raise ParseError(i, "negative order_on_road")
        start_mp = _parse_float(row[3], i, "start_mp")
        end_mp = _parse_float(row[4], i, "end_mp")
        if start_mp > end_mp:
            raise ParseError(i, "start_mp greater than end_mp")
        out.append(SegmentDescriptor(
            row[0], row[1], order, start_mp, end_mp,
            (_parse_float(row[5], i, "start_lat"), _parse_float(row[6], i, "start_lon")),
            (_parse_float(row[7], i, "end_lat"), _parse_float(row[8], i, "end_lon"))))
    seen = set()
    for rec in out:
        key = (rec.road_id, rec.order_on_road)
        if key in seen:
            raise SchemaMismatch("order_on_road", f"duplicate order {key}")
        seen.add(key)
    out.sort(key=_SORT_KEYS["segments"])
    return out


def _load_calendar(path):
    out = []
    for i, row in read_rows(path, "calendar"):
        try:
            d = date_t.fromisoformat(row[0])
        except ValueError:
            raise ParseError(i, f"bad date {row[0]!r}") from None
        flag = row[1].strip().lower()
        if flag not in ("0", "1", "true", "false"):
            raise ParseError(i, f"bad is_holiday {row[1]!r}")
        out.append(CalendarInfo(d, flag in ("1", "true")))
    out.sort(key=_SORT_KEYS["calendar"])
    return out


def _ring_from_geojson(coords, row):
    # GeoJSON order is (lon, lat); internal order is (lat, lon)
    ring = tuple((float(lat), float(lon)) for lon, lat in coords)
    if len(ring) < 4 or ring[0] != ring[-1]:
        raise ParseError(row, "polygon ring must be closed with >= 4 points")
    return ring


def _load_polygons(path, kind):
    p = Path(path)
    if not p.exists():
        raise MissingFile(str(p))
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(0, f"bad geojson: {exc}") from None
    feats = doc.get("features")
    if doc.get("type") != "FeatureCollection" or feats is None:
        raise SchemaMismatch("features", "expected a FeatureCollection")
    out = []
    for i, feat in enumerate(feats, start=1):
        geom = feat.get("geometry", {})
        if geom.get("type") != "Polygon":
            raise ParseError(i, f"expected Polygon geometry, got {geom.get('type')!r}")
        ring = _ring_from_geojson(geom["coordinates"][0], i)
        props = feat.get("properties", {})
        if kind == "tracts":
            tract_id = props.get("tract_id")
            if not tract_id:
                raise SchemaMismatch("tract_id", f"feature {i} missing tract_id")
            out.append(TractPolygon(str(tract_id), ring))
        else:
            land_use = props.get("land_use")
            if land_use not in LAND_USE_CLASSES:
                raise SchemaMismatch("land_use", f"feature {i}: {land_use!r}")
            out.append(ZonePolygon(land_use, ring))
    if kind == "tracts":
        out.sort(key=_SORT_KEYS["tracts"])
    return out


_LOADERS = {
    "speed": _load_speed,
    "incidents": _load_incidents,
    "weather": _load_weather,
    "tweets": _load_tweets,
    "segments": _load_segments,
    "calendar": _load_calendar,
    "tracts": lambda p: _load_polygons(p, "tracts"),
    "zones": lambda p: _load_polygons(p, "zones"),
}


def load_dataset(kind: str, path, keep=None):
    """Load and validate one dataset; see SCHEMAS for the expected headers.

    `keep` filters tweet and weather records as in `load_bundle`; the other
    kinds load whole.
    """
    if kind not in _LOADERS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if kind in ("tweets", "weather"):
        return _LOADERS[kind](path, keep)
    return _LOADERS[kind](path)


def _fmt_ts(ts: datetime) -> str:
    return ts.isoformat(sep="T", timespec="minutes")


def _fmt_num(x: float) -> str:
    # shortest representation that parses back to the identical float
    return repr(float(x))


_SLOT_TEXT = [f"T{s // SLOTS_PER_HOUR:02d}:{s % SLOTS_PER_HOUR * SLOT_MINUTES:02d}"
              for s in range(SLOTS_PER_DAY)]


def _write_speed(cube: SpeedCube, path: Path) -> None:
    """The cube's occupied cells as rows in (timestamp, segment_id) order."""
    slot_text = _SLOT_TEXT[cube.start_hour * SLOTS_PER_HOUR:]

    def rows():
        for d, day in enumerate(cube.days):
            by_slot = cube.speed[:, d].T                # (slot, segment)
            slot, seg = np.nonzero(~np.isnan(by_slot))
            stamp = day.isoformat()
            for t, g, v in zip(slot.tolist(), seg.tolist(), by_slot[slot, seg].tolist()):
                yield cube.segment_ids[g], stamp + slot_text[t], _fmt_num(v)

    write_rows(path, SCHEMAS["speed"], rows())


def _tweet_row(r):
    lat, lon = (_fmt_num(r.coord[0]), _fmt_num(r.coord[1])) if r.coord else ("", "")
    return (r.tweet_id, r.user_id, _fmt_ts(r.timestamp), r.kind, lat, lon,
            r.user_profile_location or "", r.text)


# one formatter call per record: the fields of its canonical CSV row
_ROW_FORMATS = {
    "incidents": lambda r: (
        r.incident_id, r.source, r.road_id, _fmt_ts(r.closure_start_ts),
        _fmt_ts(r.closure_end_ts), _fmt_num(r.start_coord[0]), _fmt_num(r.start_coord[1]),
        _fmt_num(r.end_coord[0]), _fmt_num(r.end_coord[1]), r.closure_type, r.category),
    "weather": lambda r: (
        _fmt_ts(r.timestamp), _fmt_num(r.temperature), _fmt_num(r.humidity),
        _fmt_num(r.wind_speed), _fmt_num(r.pressure), _fmt_num(r.visibility),
        _fmt_num(r.precip_hourly), int(r.pavement_wet), r.wx_severity),
    "tweets": _tweet_row,
    "segments": lambda r: (
        r.segment_id, r.road_id, r.order_on_road, _fmt_num(r.start_milepost),
        _fmt_num(r.end_milepost), _fmt_num(r.start_coord[0]), _fmt_num(r.start_coord[1]),
        _fmt_num(r.end_coord[0]), _fmt_num(r.end_coord[1])),
    "calendar": lambda r: (r.date.isoformat(), int(r.is_holiday)),
}


def write_dataset(kind: str, records, path) -> None:
    """Write records in canonical form and order (the inverse of load_dataset)."""
    p = Path(path)
    if kind == "speed":
        _write_speed(records, p)
        return
    records = sorted(records, key=_SORT_KEYS[kind])
    if kind in ("tracts", "zones"):
        feats = []
        for rec in records:
            coords = [[lon, lat] for lat, lon in rec.ring]
            props = ({"tract_id": rec.tract_id} if kind == "tracts"
                     else {"land_use": rec.land_use})
            feats.append({"type": "Feature", "properties": props,
                          "geometry": {"type": "Polygon", "coordinates": [coords]}})
        p.write_text(json.dumps({"type": "FeatureCollection", "features": feats},
                                sort_keys=True), encoding="utf-8")
        return
    write_rows(p, SCHEMAS[kind], map(_ROW_FORMATS[kind], records))


@dataclass
class DatasetBundle:
    segments: list
    speed: SpeedCube | None
    incidents: list
    weather: list
    tweets: list
    tracts: list
    zones: list | None
    calendar: list


def load_bundle(data_dir, skip=(), keep=None) -> DatasetBundle:
    """Load every dataset of a directory laid out per FILE_NAMES.

    A kind named in `skip` is neither read nor required and loads as None.
    `keep(kind, timestamp, user_id)`, when given, decides which tweet and
    weather rows become records once they pass every check; it sees a
    tweet's user id and None for a weather row.
    """
    d = Path(data_dir)
    return DatasetBundle(**{f.name: None if f.name in skip
                            else load_dataset(f.name, d / FILE_NAMES[f.name], keep)
                            for f in fields(DatasetBundle)})

import csv
import dataclasses
import io
import json
import tracemalloc
from collections import namedtuple
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tweet2traffic.config import PipelineConfig
from tweet2traffic.errors import InvalidConfig, MissingFile, ParseError, SchemaMismatch
from tweet2traffic.harness.pipeline import day_rows, prepare_data
from tweet2traffic.ingest import (
    SpeedCube,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from tweet2traffic.ingest import loaders
from tweet2traffic.ingest.loaders import (
    FILE_NAMES,
    _open_rows,
    load_bundle,
    read_rows,
    write_rows,
)

SpeedRow = namedtuple("SpeedRow", "segment_id timestamp observed_speed")


def speed_rows(cube):
    """The cube's occupied cells as (segment_id, timestamp, observed_speed) rows,
    in (timestamp, segment_id) order."""
    day, col, seg = np.nonzero(~np.isnan(np.moveaxis(cube.speed, 0, -1)))
    slot = cube.start_hour * 12 + col
    return [SpeedRow(cube.segment_ids[g],
                     datetime.combine(cube.days[d], time(t // 12, t % 12 * 5)), v)
            for g, d, t, v in zip(seg.tolist(), day.tolist(), slot.tolist(),
                                  cube.speed[seg, day, col].tolist())]


def row_by_row_load_speed(path):
    """Reference loader: one record per row, each check in turn, sorted."""
    fh, reader = _open_rows(path, "speed")
    out = []
    with fh:
        for i, row in enumerate(reader, start=1):
            if len(row) != 3:
                raise ParseError(i, f"expected 3 fields, got {len(row)}")
            try:
                ts = datetime.fromisoformat(row[1])
            except ValueError as exc:
                raise ParseError(i, f"bad timestamp {row[1]!r}: {exc}") from None
            if ts.tzinfo is not None:
                raise ParseError(i, f"timestamp {row[1]!r} carries a UTC offset; "
                                 "dataset timestamps are local wall-clock time")
            try:
                v = float(row[2])
            except ValueError:
                raise ParseError(i, f"bad speed {row[2]!r}") from None
            if not v > 0:
                raise ParseError(i, "nonpositive speed")
            if v == float("inf"):
                raise ParseError(i, "infinite speed")
            if (ts.minute % 5) or ts.second or ts.microsecond:
                raise ParseError(i, f"timestamp {row[1]} not on the 5-min grid")
            out.append(SpeedRow(row[0], ts, v))
    out.sort(key=lambda r: (r.timestamp, r.segment_id))
    return out


def densify(records, segment_ids, end_hour=11):
    """Reference scatter: per-segment (days, slots) arrays, row by row, over
    the hours from the earliest row's up to `end_hour`."""
    days = sorted({r.timestamp.date() for r in records})
    day_index = {d: i for i, d in enumerate(days)}
    emit_start = min(r.timestamp.hour for r in records)
    emit_slots = (end_hour - emit_start) * 12
    speeds = {sid: np.full((len(days), emit_slots), np.nan) for sid in segment_ids}
    for rec in records:
        slot = (rec.timestamp.hour - emit_start) * 12 + rec.timestamp.minute // 5
        if 0 <= slot < emit_slots:
            speeds[rec.segment_id][day_index[rec.timestamp.date()], slot] = rec.observed_speed
    return days, (5 - emit_start) * 12, speeds


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestSpeedLoader:
    def test_basic_row(self, tmp_path):
        p = write(tmp_path, "speed.csv",
                  "segment_id,timestamp,observed_speed\nT1,2014-03-04T05:00,41.0\n")
        recs = speed_rows(load_dataset("speed", p))
        assert recs[0].segment_id == "T1"
        assert recs[0].observed_speed == 41.0
        assert recs[0].timestamp.hour == 5

    def test_nonpositive_speed(self, tmp_path):
        p = write(tmp_path, "speed.csv",
                  "segment_id,timestamp,observed_speed\nT1,2014-03-04T05:00,-3\n")
        with pytest.raises(ParseError, match="nonpositive speed"):
            load_dataset("speed", p)

    def test_infinite_speed(self, tmp_path):
        for text in ("inf", "Infinity", "1e400"):
            p = write(tmp_path, "speed.csv",
                      f"segment_id,timestamp,observed_speed\nS1,2014-01-06T05:00,{text}\n")
            with pytest.raises(ParseError, match="row 1: infinite speed"):
                load_dataset("speed", p)

    def test_off_grid_timestamp(self, tmp_path):
        p = write(tmp_path, "speed.csv",
                  "segment_id,timestamp,observed_speed\nT1,2014-03-04T05:03,41.0\n")
        with pytest.raises(ParseError, match="grid"):
            load_dataset("speed", p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset("speed", tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "speed.csv", "a,b,c\n")
        with pytest.raises(SchemaMismatch):
            load_dataset("speed", p)

    def test_sorted_by_timestamp(self, tmp_path):
        p = write(tmp_path, "speed.csv",
                  "segment_id,timestamp,observed_speed\n"
                  "T1,2014-03-04T05:10,41.0\nT1,2014-03-04T05:00,42.0\n")
        recs = speed_rows(load_dataset("speed", p))
        assert recs[0].timestamp < recs[1].timestamp

    def test_duplicate_key(self, tmp_path):
        p = write(tmp_path, "speed.csv",
                  "segment_id,timestamp,observed_speed\n"
                  "T1,2014-03-04T05:00,41.0\nT2,2014-03-04T05:00,40.0\n"
                  "T1,2014-03-04 05:00,42.0\n")
        with pytest.raises(SchemaMismatch, match=r"row 3: duplicate speed key "
                                                 r"\(T1, 2014-03-04T05:00\)"):
            load_dataset("speed", p)

    def test_error_in_a_later_chunk_keeps_its_row_number(self, tmp_path):
        rows = [f"T1,2014-03-04T05:00,{v}.0" for v in range(1, 3001)]
        rows[2500] = "T1,2014-03-04T05:00"
        p = write(tmp_path, "speed.csv",
                  "segment_id,timestamp,observed_speed\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="row 2501: expected 3 fields, got 2"):
            load_dataset("speed", p)


SEGMENTS = ("S1", "S2", "a,b", "")
DATES = ("2014-03-03", "2014-03-04", "2014-03-10")


@st.composite
def speed_row(draw, defect_percent):
    """One speed.csv row as fields; with the given chance it carries a set of
    defects, so one row can fail several checks."""
    defects = set()
    if draw(st.integers(0, 99)) < defect_percent:
        defects = draw(st.sets(st.sampled_from(["stamp", "grid", "speed", "fields"]),
                               min_size=1))
    seg = draw(st.sampled_from(SEGMENTS))
    hour = draw(st.integers(2, 12))
    minute = 5 * draw(st.integers(0, 11))
    stamp = f"{draw(st.sampled_from(DATES))}T{hour:02d}:{minute:02d}"
    speed = repr(draw(st.floats(0.5, 90.0)))
    if "grid" in defects:
        stamp = draw(st.sampled_from([stamp[:-1] + "3", stamp + ":30", stamp + ":00.5"]))
    if "stamp" in defects:
        stamp = draw(st.sampled_from(["2014-02-30T05:00", "nope", "", "05:00",
                                      stamp + "+01:00", stamp + "Z"]))
    if "speed" in defects:
        speed = draw(st.sampled_from(["0", "-4.5", "nan", "inf", "-inf", "fast", "", " 7 "]))
    if "fields" in defects:
        return draw(st.sampled_from([[seg, stamp], [seg, stamp, speed, "x"], []]))
    return [seg, stamp, speed]


@st.composite
def speed_file(draw):
    rows = draw(st.lists(speed_row(draw(st.sampled_from([0, 5, 40]))), max_size=40))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(["segment_id", "timestamp", "observed_speed"])
    writer.writerows(rows)
    return buf.getvalue()


def load_both(path):
    """(table or error, reference records or error) for one file."""
    out = []
    for load in (lambda: load_dataset("speed", path), lambda: row_by_row_load_speed(path)):
        try:
            out.append(load())
        except (ParseError, SchemaMismatch) as exc:
            out.append(exc)
    return out


class TestSpeedColumnsMatchRowByRow:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=speed_file())
    def test_loader(self, tmp_path, text):
        p = tmp_path / "speed.csv"
        p.write_bytes(text.encode("utf-8"))
        table, records = load_both(p)
        if isinstance(records, ParseError):
            assert isinstance(table, ParseError)
            assert (table.row, str(table)) == (records.row, str(records))
            return
        keys = [(r.segment_id, r.timestamp) for r in records]
        if len(set(keys)) < len(keys):
            assert isinstance(table, SchemaMismatch) and "duplicate speed key" in str(table)
            return
        assert speed_rows(table) == records
        assert table.segment_ids == tuple(sorted({r.segment_id for r in records}))
        assert table.days == tuple(sorted({r.timestamp.date() for r in records}))

    def test_loader_on_every_combination_of_defects(self, tmp_path):
        """A row that fails several checks reports the first, in the fixed order."""
        good = ["S1", "2014-03-03T05:00", "41.0"]
        stamps = ["2014-03-03T05:05", "2014-03-03T05:03", "2014-03-03T05:05:00.5", "nope",
                  "2014-03-03T05:05+00:00", "2014-03-03T05:03-05:00"]
        speeds = ["42.0", "0", "nan", "inf", "fast"]
        cases = [row for stamp in stamps for speed in speeds
                 for row in (["S2", stamp, speed], ["S2", stamp], ["S2", stamp, speed, "x"])]
        for i, row in enumerate(cases):
            p = tmp_path / f"speed{i}.csv"
            with p.open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([["segment_id", "timestamp", "observed_speed"],
                                          good, row])
            table, records = load_both(p)
            if isinstance(records, ParseError):
                assert (table.row, str(table)) == (records.row, str(records)), row
            else:
                assert speed_rows(table) == records, row

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_prepared_cube(self, tmp_path, data, small_bundle):
        """prepare_data's cube equals the row-by-row scatter of the same file."""
        seg_ids = [s.segment_id for s in small_bundle.segments]
        picks = data.draw(st.lists(st.tuples(
            st.sampled_from(seg_ids), st.integers(0, 3), st.integers(1, 11),
            st.integers(0, 11), st.floats(1.0, 90.0)), min_size=1, max_size=80))
        lines = {(g, f"2014-03-0{3 + d}T{h:02d}:{5 * m:02d}"): v for g, d, h, m, v in picks}
        p = write(tmp_path, "speed.csv", "segment_id,timestamp,observed_speed\n" + "".join(
            f"{g},{ts},{v!r}\n" for (g, ts), v in lines.items()))
        bundle = dataclasses.replace(small_bundle, speed=load_dataset("speed", p))
        days, offset, want = densify(row_by_row_load_speed(p), seg_ids)
        if offset < 0:      # the earliest row is after 05:59
            with pytest.raises(SchemaMismatch, match="no row before 06:00"):
                prepare_data(bundle, PipelineConfig())
            return
        prepared = prepare_data(bundle, PipelineConfig())
        assert (prepared.days, prepared.morning_offset) == (days, offset)
        for sid in seg_ids:
            assert np.array_equal(prepared.speeds[sid], want[sid], equal_nan=True), sid


def reference_load_weather(path, keep):
    """The weather loader as it was before its one-pass loop: `read_rows`, then
    each field through `_parse_ts` or `_parse_float`."""
    out = []
    seen = set()
    for i, row in read_rows(path, "weather"):
        ts = loaders._parse_ts(row[0], i)
        if ts.minute or ts.second:
            raise ParseError(i, f"weather timestamp {row[0]} not hourly")
        if ts in seen:
            raise SchemaMismatch("timestamp", f"duplicate hourly key {row[0]}")
        seen.add(ts)
        wet = row[7].strip().lower()
        if wet not in ("0", "1", "true", "false"):
            raise ParseError(i, f"bad pavement_wet {row[7]!r}")
        sev = loaders._parse_float(row[8], i, "wx_severity")
        if not sev.is_integer():
            raise ParseError(i, f"bad wx_severity {row[8]!r}")
        if sev < 0:
            raise ParseError(i, "negative wx_severity")
        sev = int(sev)
        values = tuple(loaders._parse_float(row[j], i, name) for j, name in
                       enumerate(("temp", "humidity", "wind", "pressure", "visibility",
                                  "precip"), start=1))
        if keep is None or keep("weather", ts, None):
            out.append(loaders.WeatherRecord(ts, *values, wet in ("1", "true"), sev))
    out.sort(key=lambda r: r.timestamp)
    return out


def reference_load_tweets(path, keep):
    """The tweet loader as it was before its one-pass loop."""
    out = []
    for i, row in read_rows(path, "tweets"):
        if row[3] not in ("GEOCODED", "TIMELINE", "RETWEET", "FAVORITE"):
            raise ParseError(i, f"unknown kind {row[3]!r}")
        coord = None
        if row[4] != "" or row[5] != "":
            coord = (loaders._parse_float(row[4], i, "lat"),
                     loaders._parse_float(row[5], i, "lon"))
        if row[3] == "GEOCODED" and coord is None:
            raise ParseError(i, "GEOCODED tweet without coordinates")
        ts = loaders._parse_ts(row[2], i)
        if keep is None or keep("tweets", ts, row[1]):
            out.append(loaders.Tweet(row[0], row[1], ts, row[7], coord, row[6] or None, row[3]))
    out.sort(key=lambda r: (r.timestamp, r.tweet_id))
    return out


AGENCY = "agency1"
PARITY_DAY = date(2014, 3, 4)
PARITY_CONFIG = dataclasses.replace(
    PipelineConfig(),
    tweets=dataclasses.replace(PipelineConfig().tweets, agency_user_ids=(AGENCY,)))


def outcome(load):
    """The records of `load()` as reprs (so NaN fields compare equal), or the
    type, row and message of the typed error it raised; any other exception
    fails the test."""
    try:
        return [repr(r) for r in load()]
    except (ParseError, SchemaMismatch) as exc:
        return type(exc).__name__, getattr(exc, "row", None), str(exc)


def assert_loaders_agree(kind, path):
    """Both loaders give equal records or raise alike, keeping every row or one
    day's rows as a one-day predict does."""
    reference = {"tweets": reference_load_tweets, "weather": reference_load_weather}[kind]
    for keep in (None, day_rows(PARITY_CONFIG, PARITY_DAY)):
        want = outcome(lambda: reference(path, keep))
        assert outcome(lambda: load_dataset(kind, path, keep)) == want


def write_csv(path, kind, rows, quoting=csv.QUOTE_MINIMAL, lineterminator="\n"):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator=lineterminator)
        writer.writerow(loaders.SCHEMAS[kind])
        writer.writerows(rows)
    return path


PARITY_STAMPS = [f"2014-03-0{d}T{h:02d}:{m:02d}" for d in (3, 4, 5) for h in (0, 4, 5, 11, 12, 23)
                 for m in (0, 59)]
BAD_STAMPS = ["2014-02-30T05:00", "nope", "", "2014-03-04T05:00+00:00", "2014-03-04T05:00Z",
              "2014-03-04 05:00:00-05:00"]
BAD_NUMBERS = ["north", "", "1,5", "--1"]


@st.composite
def tweet_row(draw, defect_percent):
    """One tweets.csv row as fields; with the given chance it carries a set of
    defects, so one row can fail several checks."""
    defects = set()
    if draw(st.integers(0, 99)) < defect_percent:
        defects = draw(st.sets(st.sampled_from(["fields", "kind", "lat", "lon", "coords",
                                                "stamp"]), min_size=1))
    kind = draw(st.sampled_from(["GEOCODED", "TIMELINE", "RETWEET", "FAVORITE"]))
    coord = draw(st.sampled_from([("40.4", "-80.0"), ("nan", "inf"), (" 40 ", "-8e1"),
                                  ("", "")]))
    if kind == "GEOCODED" and coord == ("", ""):
        coord = ("40.5", "-79.9")
    lat, lon = coord
    row = [draw(st.sampled_from(["t1", "t2", "t3", "a,b"])),
           draw(st.sampled_from(["u1", "u2", AGENCY])),
           draw(st.sampled_from(PARITY_STAMPS)), kind, lat, lon,
           draw(st.sampled_from(["", "Pittsburgh", "home, PA"])),
           draw(st.sampled_from(["going to sleep", "", "a \"quoted\", text"]))]
    if "kind" in defects:
        row[3] = draw(st.sampled_from(["geocoded", "", "REPLY"]))
    if "lat" in defects:
        row[4] = draw(st.sampled_from(BAD_NUMBERS))
    if "lon" in defects:
        row[5] = draw(st.sampled_from(BAD_NUMBERS))
    if "coords" in defects:
        row[3:6] = ["GEOCODED", "", ""]
    if "stamp" in defects:
        row[2] = draw(st.sampled_from(BAD_STAMPS))
    if "fields" in defects:
        return draw(st.sampled_from([row[:7], row + ["x"], []]))
    return row


WEATHER_FLOATS = ["12.5", "-3", "1e3", "nan", "inf", " 7 "]


@st.composite
def weather_row(draw, defect_percent):
    """One weather.csv row as fields, as `tweet_row`."""
    defects = set()
    if draw(st.integers(0, 99)) < defect_percent:
        defects = draw(st.sets(st.sampled_from(["fields", "stamp", "hourly", "wet", "sev",
                                                "float"]), min_size=1))
    day = draw(st.sampled_from(["2014-03-03", "2014-03-04", "2014-03-05"]))
    stamp = f"{day}T{draw(st.integers(0, 23)):02d}:00"     # repeats make duplicate hours
    row = [stamp, *(draw(st.sampled_from(WEATHER_FLOATS)) for _ in range(6)),
           draw(st.sampled_from(["0", "1", "true", " False ", "TRUE"])),
           draw(st.sampled_from(["0", "2", "3.0", "1e1"]))]
    if "hourly" in defects:
        row[0] = draw(st.sampled_from([stamp[:-2] + "30", stamp + ":30", stamp + ":00.5"]))
    if "stamp" in defects:
        row[0] = draw(st.sampled_from(BAD_STAMPS))
    if "wet" in defects:
        row[7] = draw(st.sampled_from(["yes", "", "2"]))
    if "sev" in defects:
        row[8] = draw(st.sampled_from(["-1", "-0.5", "high", "", "nan", "inf", "3.9", "-inf"]))
    if "float" in defects:
        for j in draw(st.sets(st.integers(1, 6), min_size=1)):
            row[j] = draw(st.sampled_from(BAD_NUMBERS))
    if "fields" in defects:
        return draw(st.sampled_from([row[:8], row + ["x"], []]))
    return row


@st.composite
def loader_file(draw, kind):
    make = {"tweets": tweet_row, "weather": weather_row}[kind]
    rows = draw(st.lists(make(draw(st.sampled_from([0, 5, 40]))), max_size=30))
    return (rows, draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
            draw(st.sampled_from(["\n", "\r\n"])))


class TestTweetAndWeatherLoopsMatchTheReference:
    """The one-pass tweet and weather loops keep every record, check and
    message of the loops they replaced, which called a field helper per field."""

    @pytest.mark.parametrize("kind", ["tweets", "weather"])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_files(self, tmp_path, kind, data):
        rows, quoting, end = data.draw(loader_file(kind))
        assert_loaders_agree(kind, write_csv(tmp_path / f"{kind}.csv", kind, rows, quoting, end))

    def test_tweets_on_every_combination_of_defects(self, tmp_path):
        """A row that fails several checks reports the first, in the fixed order."""
        good = ["t0", "u1", "2014-03-04T06:00", "GEOCODED", "40.4", "-80.0", "", "hi"]
        path = tmp_path / "tweets.csv"
        for kind in ("GEOCODED", "TIMELINE", "bogus"):
            for lat in ("40.4", "", "north"):
                for lon in ("-80.0", "", "west"):
                    for stamp in ("2014-03-04T07:00", "nope", "2014-03-04T07:00+00:00",
                                  "2014-02-30T07:00"):
                        row = ["t1", AGENCY, stamp, kind, lat, lon, "PA", "text"]
                        for case in (row, row[:7], row + ["x"]):
                            assert_loaders_agree("tweets", write_csv(path, "tweets",
                                                                     [good, case]))

    def test_weather_on_every_combination_of_defects(self, tmp_path):
        """As for tweets, with a duplicate hour and each of the six floats."""
        good = ["2014-03-04T05:00", "1", "2", "3", "4", "5", "6", "0", "0"]
        floats = [["8.5"] * 6, ["nan", "inf", "-inf", "1e3", " 2 ", "-0"]]
        floats += [["8.5"] * j + ["bad"] + ["8.5"] * (5 - j) for j in range(6)]
        floats += [["bad", "8.5", "8.5", "8.5", "8.5", ""]]
        path = tmp_path / "weather.csv"
        for stamp in ("2014-03-04T06:00", "2014-03-04T05:00", "nope", "2014-03-04T06:00+00:00",
                      "2014-03-04T06:30", "2014-03-04T06:00:30"):
            for wet in ("1", " True ", "maybe"):
                for sev in ("0", "2.7", "-1", "bad", "nan"):
                    for values in floats:
                        row = [stamp, *values, wet, sev]
                        for case in (row, row[:8], row + ["x"]):
                            assert_loaders_agree("weather", write_csv(path, "weather",
                                                                      [good, case]))


@pytest.fixture(scope="module")
def small_bundle():
    cfg = SyntheticConfig(n_days=4, n_roads=1, segments_per_road=3, n_users=8, n_tracts=3)
    return generate_synthetic(cfg, seed=11)[0]


def test_prepared_cube_of_a_synthetic_world(tmp_path):
    cfg = SyntheticConfig(n_days=9, n_roads=2, segments_per_road=3, n_users=8, n_tracts=3)
    bundle, _ = generate_synthetic(cfg, seed=4)
    write_dataset("speed", bundle.speed, tmp_path / "speed.csv")
    seg_ids = [s.segment_id for s in bundle.segments]
    days, offset, want = densify(row_by_row_load_speed(tmp_path / "speed.csv"), seg_ids)
    for table in (bundle.speed, load_dataset("speed", tmp_path / "speed.csv")):
        prepared = prepare_data(dataclasses.replace(bundle, speed=table), PipelineConfig())
        assert (prepared.days, prepared.morning_offset) == (days, offset)
        for sid in seg_ids:
            assert np.array_equal(prepared.speeds[sid], want[sid], equal_nan=True)


@st.composite
def shuffled_speed_rows(draw):
    """Valid speed rows with distinct keys in a random order, each as
    (segment_id, timestamp text, speed), and a chunk size to read them in."""
    keys = draw(st.lists(st.tuples(st.sampled_from(SEGMENTS), st.sampled_from(DATES),
                                   st.integers(0, 23), st.integers(0, 11)),
                         min_size=1, max_size=60, unique=True))
    rows = [(g, f"{d}T{h:02d}:{5 * m:02d}", draw(st.floats(0.5, 90.0)))
            for g, d, h, m in keys]
    return draw(st.permutations(rows)), draw(st.sampled_from([1, 2, 5, 1024]))


def write_speed_rows(path, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["segment_id", "timestamp", "observed_speed"]]
                                 + [[g, ts, repr(v)] for g, ts, v in rows])


class TestSpeedCube:
    """The loaded cube against the row-by-row reference, read in chunks of any size."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=shuffled_speed_rows())
    def test_cube_equals_the_row_by_row_scatter(self, tmp_path, drawn):
        rows, chunk = drawn
        p = tmp_path / "speed.csv"
        write_speed_rows(p, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loaders, "_SPEED_CHUNK", chunk)
            cube = load_dataset("speed", p)
        records = row_by_row_load_speed(p)
        seg_ids = sorted({r.segment_id for r in records})
        end_hour = max(11, max(r.timestamp.hour for r in records) + 1)
        days, _offset, want = densify(records, seg_ids, end_hour)
        assert (cube.segment_ids, cube.days) == (tuple(seg_ids), tuple(days))
        assert cube.start_hour == min(r.timestamp.hour for r in records)
        assert cube.speed.shape == (len(seg_ids), len(days), (end_hour - cube.start_hour) * 12)
        for g, sid in enumerate(seg_ids):
            assert np.array_equal(cube.speed[g], want[sid], equal_nan=True), sid
        assert len(cube) == len(rows)
        assert not cube.speed.flags.writeable

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=shuffled_speed_rows(), data=st.data())
    def test_duplicate_key_names_the_first_repeat(self, tmp_path, drawn, data):
        """The error names the first row whose key an earlier row holds, as
        the whole-file check did, in whichever chunk the two rows fall."""
        rows, chunk = drawn
        g, ts, _v = data.draw(st.sampled_from(rows))
        at = data.draw(st.integers(0, len(rows)))
        rows = rows[:at] + [(g, ts.replace("T", " "), 7.5)] + rows[at:]
        seen, first = set(), None
        for i, (g2, ts2, _v2) in enumerate(rows, start=1):
            key = (g2, datetime.fromisoformat(ts2))
            if key in seen:
                first = (i, g2, ts2.replace(" ", "T"))
                break
            seen.add(key)
        p = tmp_path / "speed.csv"
        write_speed_rows(p, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loaders, "_SPEED_CHUNK", chunk)
            with pytest.raises(SchemaMismatch) as err:
                load_dataset("speed", p)
        i, g, ts = first
        assert str(err.value).endswith(f"row {i}: duplicate speed key ({g}, {ts})")

    def test_a_parse_error_after_a_duplicate_wins(self, tmp_path):
        p = write(tmp_path, "speed.csv",
                  "segment_id,timestamp,observed_speed\n"
                  "T1,2014-03-04T05:00,41.0\nT1,2014-03-04T05:00,42.0\n"
                  "T1,2014-03-04T05:05,fast\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loaders, "_SPEED_CHUNK", 2)
            with pytest.raises(ParseError, match="row 3: bad speed 'fast'"):
                load_dataset("speed", p)

    def test_synth_write_load_write_is_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(n_days=5, n_roads=2, segments_per_road=3, n_users=8, n_tracts=3)
        synth = generate_synthetic(cfg, seed=8)[0].speed
        write_dataset("speed", synth, tmp_path / "a.csv")
        loaded = load_dataset("speed", tmp_path / "a.csv")
        assert (loaded.segment_ids, loaded.days, loaded.start_hour) == \
            (synth.segment_ids, synth.days, synth.start_hour)
        assert np.array_equal(loaded.speed, synth.speed)
        assert len(loaded) == synth.speed.size
        write_dataset("speed", loaded, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_load_peak_memory_is_a_small_multiple_of_the_cube(self, tmp_path):
        """One load of a 92,160-row file (120 days x 8 segments x 96 slots)
        traces at most 4x the bytes of the cube it returns."""
        rng = np.random.default_rng(3)
        days = tuple(date(2014, 1, 1) + timedelta(days=i) for i in range(120))
        speed = np.round(rng.uniform(20.0, 70.0, (8, len(days), 96)), 3)
        write_dataset("speed", SpeedCube(tuple(f"S{g}" for g in range(8)), days, 3, speed),
                      tmp_path / "speed.csv")
        tracemalloc.start()
        try:
            cube = load_dataset("speed", tmp_path / "speed.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cube) == 92_160
        assert np.array_equal(cube.speed, speed)
        assert peak <= 4 * cube.speed.nbytes, (peak, cube.speed.nbytes)


def test_speed_data_with_no_row_before_11_is_a_schema_error(tmp_path, small_bundle):
    p = write(tmp_path, "speed.csv", "segment_id,timestamp,observed_speed\n"
              f"{small_bundle.segments[0].segment_id},2014-03-04T12:00,41.0\n")
    bundle = dataclasses.replace(small_bundle, speed=load_dataset("speed", p))
    with pytest.raises(SchemaMismatch, match="no row before 06:00"):
        prepare_data(bundle, PipelineConfig())


def test_speed_data_with_no_row_before_6_is_a_schema_error(tmp_path, small_bundle):
    """A file whose earliest row is at 06:00 holds no morning from 05:00."""
    sid = small_bundle.segments[0].segment_id
    p = write(tmp_path, "speed.csv", "segment_id,timestamp,observed_speed\n" + "".join(
        f"{sid},2014-03-0{d}T{h:02d}:00,41.0\n" for d in (4, 5) for h in range(6, 12)))
    bundle = dataclasses.replace(small_bundle, speed=load_dataset("speed", p))
    with pytest.raises(SchemaMismatch, match="no row before 06:00") as exc:
        prepare_data(bundle, PipelineConfig())
    assert exc.value.column == "timestamp"


class TestWeatherLoader:
    HEADER = "timestamp,temp,humidity,wind,pressure,visibility,precip,pavement_wet,wx_severity\n"

    def test_duplicate_hour(self, tmp_path):
        p = write(tmp_path, "weather.csv",
                  self.HEADER
                  + "2014-03-04T05:00,41,60,5,30,10,0,0,0\n"
                  + "2014-03-04T05:00,42,61,5,30,10,0,0,0\n")
        with pytest.raises(SchemaMismatch, match="duplicate hourly key"):
            load_dataset("weather", p)

    def test_good_row(self, tmp_path):
        p = write(tmp_path, "weather.csv", self.HEADER + "2014-03-04T05:00,41,60,5,30,10,0.2,1,2\n")
        recs = load_dataset("weather", p)
        assert recs[0].pavement_wet is True
        assert recs[0].wx_severity == 2


class TestIncidentLoader:
    HEADER = ("incident_id,source,road_id,closure_start,closure_end,"
              "start_lat,start_lon,end_lat,end_lon,closure_type,category\n")

    def test_good_row(self, tmp_path):
        p = write(tmp_path, "inc.csv", self.HEADER
                  + "i1,RCRS,R1,2014-03-04T06:42,2014-03-04T08:02,40.1,-80.0,40.2,-80.0,FULL,crash\n")
        recs = load_dataset("incidents", p)
        assert recs[0].closure_type == "FULL"

    def test_reversed_interval(self, tmp_path):
        p = write(tmp_path, "inc.csv", self.HEADER
                  + "i1,RCRS,R1,2014-03-04T08:02,2014-03-04T06:42,40.1,-80.0,40.2,-80.0,FULL,crash\n")
        with pytest.raises(ParseError, match="closure_start after"):
            load_dataset("incidents", p)


class TestTweetLoader:
    HEADER = "tweet_id,user_id,timestamp,kind,lat,lon,profile_location,text\n"

    def test_quoted_text(self, tmp_path):
        p = write(tmp_path, "tweets.csv", self.HEADER
                  + 't1,u1,2014-03-04T22:00,GEOCODED,40.4,-80.0,"Pittsburgh, PA","hello, world"\n')
        recs = load_dataset("tweets", p)
        assert recs[0].text == "hello, world"
        assert recs[0].user_profile_location == "Pittsburgh, PA"

    def test_geocoded_requires_coord(self, tmp_path):
        p = write(tmp_path, "tweets.csv", self.HEADER
                  + "t1,u1,2014-03-04T22:00,GEOCODED,,,loc,text\n")
        with pytest.raises(ParseError, match="without coordinates"):
            load_dataset("tweets", p)

    def test_timeline_without_coord(self, tmp_path):
        p = write(tmp_path, "tweets.csv", self.HEADER
                  + "t1,u1,2014-03-04T22:00,TIMELINE,,,loc,text\n")
        assert load_dataset("tweets", p)[0].coord is None

    def test_repeated_fields_share_one_string(self, tmp_path):
        """Rows that repeat a user id, kind or profile location load with one
        string object for each distinct value, and the same field values."""
        p = write(tmp_path, "tweets.csv", self.HEADER + "".join(
            f"t{i},user{i % 2},2014-03-04T22:{i:02d},{('TIMELINE', 'RETWEET')[i % 3 == 0]},,,"
            f"{('Pittsburgh PA', '')[i % 4 == 0]},text {i}\n" for i in range(12)))
        recs = load_dataset("tweets", p)
        assert [(r.tweet_id, r.user_id, r.kind, r.user_profile_location) for r in recs] == [
            (f"t{i}", f"user{i % 2}", ("TIMELINE", "RETWEET")[i % 3 == 0],
             ("Pittsburgh PA", None)[i % 4 == 0]) for i in range(12)]
        for field in ("user_id", "kind", "user_profile_location"):
            values = [getattr(r, field) for r in recs]
            assert len({id(v) for v in values}) == len(set(values)), field


class TestGeojson:
    def test_tract_round_trip(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"tract_id": "T01"},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[-80.0, 40.0], [-79.0, 40.0],
                                          [-79.0, 41.0], [-80.0, 41.0], [-80.0, 40.0]]]}}]}
        p = write(tmp_path, "tracts.geojson", json.dumps(doc))
        recs = load_dataset("tracts", p)
        assert recs[0].tract_id == "T01"
        assert recs[0].ring[0] == (40.0, -80.0)
        out = tmp_path / "out.geojson"
        write_dataset("tracts", recs, out)
        assert load_dataset("tracts", out) == recs

    def test_bad_land_use(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"land_use": "swamp"},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[-80, 40], [-79, 40], [-79, 41], [-80, 41], [-80, 40]]]}}]}
        p = write(tmp_path, "zones.geojson", json.dumps(doc))
        with pytest.raises(SchemaMismatch, match="land_use"):
            load_dataset("zones", p)


class TestCsvCodec:
    def test_write_rows_without_rows_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "metrics.csv"
        assert write_rows(path, ["model", "value"], iter(())) == str(path)
        assert path.read_bytes() == b"model,value\n"

    def test_rows_round_trip_in_canonical_form(self, tmp_path):
        path = tmp_path / "sentiment_scores.csv"
        rows = [["t1", "0.25"], ["caf\u00e9, \"two\" lines\nhere", repr(0.1)]]
        write_rows(path, ["tweet_id", "p"], rows)
        assert path.read_bytes() == ('tweet_id,p\nt1,0.25\n'
                                     '"caf\u00e9, ""two"" lines\nhere",0.1\n').encode("utf-8")
        assert list(read_rows(path, "sentiment_scores")) == [(1, rows[0]), (2, rows[1])]

    def test_read_rows_width_error_keeps_the_data_row_number(self, tmp_path):
        p = write(tmp_path, "calendar.csv",
                  "date,is_holiday\n2014-03-04,0\n2014-03-05,0\n2014-03-06\n")
        with pytest.raises(ParseError, match="row 3: expected 2 fields, got 1"):
            list(read_rows(p, "calendar"))
        with pytest.raises(ParseError, match="row 3: expected 2 fields, got 1"):
            load_dataset("calendar", p)


@pytest.mark.parametrize("kind", ["speed", "incidents", "weather", "tweets",
                                  "segments", "calendar"])
def test_write_load_round_trip(tmp_path, kind):
    """write(load(x)) reproduces the loaded records and is idempotent."""
    cfg = SyntheticConfig(n_days=4, n_roads=2, segments_per_road=3, n_users=8, n_tracts=3)
    bundle, _ = generate_synthetic(cfg, seed=11)
    records = getattr(bundle, {"speed": "speed", "incidents": "incidents",
                               "weather": "weather", "tweets": "tweets",
                               "segments": "segments", "calendar": "calendar"}[kind])
    p1 = tmp_path / f"a_{FILE_NAMES[kind]}"
    p2 = tmp_path / f"b_{FILE_NAMES[kind]}"
    write_dataset(kind, records, p1)
    loaded = load_dataset(kind, p1)
    assert as_records(kind, loaded) == sorted_records(kind, as_records(kind, records))
    write_dataset(kind, loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def as_records(kind, data):
    return speed_rows(data) if kind == "speed" else data


def sorted_records(kind, records):
    keys = {
        "speed": lambda r: (r.timestamp, r.segment_id),
        "incidents": lambda r: (r.closure_start_ts, r.incident_id),
        "weather": lambda r: r.timestamp,
        "tweets": lambda r: (r.timestamp, r.tweet_id),
        "segments": lambda r: (r.road_id, r.order_on_road),
        "calendar": lambda r: r.date,
    }
    return sorted(records, key=keys[kind])


class TestSyntheticGenerator:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(n_days=6, n_roads=2, segments_per_road=3, n_users=10, n_tracts=3)
        for run in ("x", "y"):
            b, sc = generate_synthetic(cfg, seed=42)
            d = tmp_path / run
            d.mkdir()
            for kind in FILE_NAMES:
                write_dataset(kind, getattr(b, kind), d / FILE_NAMES[kind])
            (d / "sidecar.json").write_text(json.dumps(sc, sort_keys=True))
        for kind in FILE_NAMES:
            assert ((tmp_path / "x" / FILE_NAMES[kind]).read_bytes()
                    == (tmp_path / "y" / FILE_NAMES[kind]).read_bytes())
        assert ((tmp_path / "x" / "sidecar.json").read_bytes()
                == (tmp_path / "y" / "sidecar.json").read_bytes())

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            generate_synthetic(SyntheticConfig(n_days=0), seed=1)
        with pytest.raises(InvalidConfig):
            generate_synthetic(SyntheticConfig(sleep_effect=1.5), seed=1)

    def test_bundle_passes_loaders(self, tmp_path):
        cfg = SyntheticConfig(n_days=5, n_roads=2, segments_per_road=3, n_users=10, n_tracts=3)
        bundle, _ = generate_synthetic(cfg, seed=3)
        for kind in FILE_NAMES:
            write_dataset(kind, getattr(bundle, kind), tmp_path / FILE_NAMES[kind])
        reloaded = load_bundle(tmp_path)
        assert len(reloaded.speed) == len(bundle.speed)
        assert len(reloaded.tweets) == len(bundle.tweets)
        assert reloaded.segments == bundle.segments

    def test_sidecar_quadruples_match_congestion_module(self, tmp_path):
        from tweet2traffic.config import CongestionParams
        from tweet2traffic.congestion import (TtiSeries, congestion_measurements,
                                              reference_speed)

        cfg = SyntheticConfig(n_days=8, n_roads=1, segments_per_road=3, n_users=8, n_tracts=3)
        bundle, sidecar = generate_synthetic(cfg, seed=5)
        for kind in FILE_NAMES:
            write_dataset(kind, getattr(bundle, kind), tmp_path / FILE_NAMES[kind])
        reloaded = load_bundle(tmp_path)
        by_seg = {}
        for rec in speed_rows(reloaded.speed):
            by_seg.setdefault(rec.segment_id, []).append(rec)
        params = CongestionParams()
        for seg_id, recs in by_seg.items():
            ref = reference_speed([r.observed_speed for r in recs])
            by_day = {}
            for r in recs:
                if 5 <= r.timestamp.hour < 11:
                    by_day.setdefault(r.timestamp.date(), []).append(r.observed_speed)
            for day, speeds in by_day.items():
                m = congestion_measurements(
                    TtiSeries(seg_id, day, ref / np.asarray(speeds)), params)
                want = sidecar["quadruples"][seg_id][day.isoformat()]
                assert int(m.cs) == want["cs"], (seg_id, day)
                assert m.cst == want["cst"]
                assert m.cd == want["cd"]
                if m.pti is not None:
                    assert m.pti == pytest.approx(want["pti"], abs=1e-8)

    def test_null_effect_quadruples_independent_of_tweets(self):
        cfg = SyntheticConfig(n_days=300, n_roads=1, segments_per_road=4,
                              n_users=12, n_tracts=3,
                              sleep_effect=0.0, incident_effect=0.0, weather_effect=0.0)
        _, sidecar = generate_synthetic(cfg, seed=9)
        peaks, cst = [], []
        for row in sidecar["days"]:
            day = row["date"]
            vals = [sidecar["quadruples"][s][day]["cst"] for s in sidecar["quadruples"]]
            peaks.append(row["tweet_peak_hour"])
            cst.append(np.mean(vals))
        r = np.corrcoef(peaks, cst)[0, 1]
        assert abs(r) < 2.0 / np.sqrt(len(peaks))

    def test_sleep_effect_rank_correlation(self):
        cfg = SyntheticConfig(n_days=200, n_roads=1, segments_per_road=4,
                              n_users=12, n_tracts=3, sleep_effect=0.9,
                              incident_effect=0.0, weather_effect=0.0)
        _, sidecar = generate_synthetic(cfg, seed=10)
        earliness, cst = [], []
        for row in sidecar["days"]:
            day = row["date"]
            vals = [sidecar["quadruples"][s][day]["cst"] for s in sidecar["quadruples"]]
            earliness.append(-row["tweet_peak_hour"])
            cst.append(np.mean(vals))
        # spearman rank correlation without scipy.stats dependence in the test
        def ranks(x):
            order = np.argsort(x)
            rk = np.empty(len(x))
            rk[order] = np.arange(len(x))
            return rk
        r = np.corrcoef(ranks(np.array(earliness)), ranks(np.array(cst)))[0, 1]
        assert r > 0.3

    def test_congestion_rate_sane(self):
        cfg = SyntheticConfig(n_days=120, n_roads=2, segments_per_road=5,
                              n_users=12, n_tracts=3)
        _, sidecar = generate_synthetic(cfg, seed=12)
        cs = [q["cs"] for seg in sidecar["quadruples"].values() for q in seg.values()]
        rate = np.mean(cs)
        assert 0.2 < rate < 0.8

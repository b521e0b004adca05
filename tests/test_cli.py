import dataclasses
import json
from pathlib import Path

import pytest

from tweet2traffic.cli import main
from tweet2traffic.learn.serialize import FORMAT_VERSION


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    data = tmp / "data"
    sc = tmp / "sc.json"
    sc.write_text(json.dumps({"n_days": 26, "n_roads": 1, "segments_per_road": 3,
                              "n_users": 12, "n_tracts": 3}))
    rc = main(["synth", "--synth-config", str(sc), "--seed", "3", "--out", str(data)])
    assert rc == 0
    return data


@dataclasses.dataclass
class Served:
    model: Path             # a linear bundle trained on the first days only
    days: list              # every speed day of the data
    train_days: list


@pytest.fixture(scope="module")
def served(data_dir, tmp_path_factory):
    """A bundle trained on a copy of the data whose speed.csv stops 4 days early."""
    from datetime import date

    import shutil

    tmp = tmp_path_factory.mktemp("served")
    data = tmp / "data"
    shutil.copytree(data_dir, data)
    header, *rows = (data / "speed.csv").read_text().splitlines(keepends=True)
    days = sorted({date.fromisoformat(r.split(",")[1][:10]) for r in rows})
    train_days = days[:-4]
    (data / "speed.csv").write_text(header + "".join(
        r for r in rows if date.fromisoformat(r.split(",")[1][:10]) <= train_days[-1]))
    assert main(["train", "--data", str(data), "--seed", "2",
                 "--out", str(tmp / "m")]) == 0
    return Served(tmp / "m" / "model.json", days, train_days)


@dataclasses.dataclass
class Edged:
    data: Path              # a copy of the data with records on a predict's window edges
    day: object             # the day whose windows the edge records straddle
    agency_start: object    # when the added agency closure starts, days before `day`


@pytest.fixture(scope="module")
def edged(data_dir, served, tmp_path_factory):
    """The data plus tweets at 04:59 and 05:00 on the eve of a middle day and at
    11:59 and 12:00 on it, an agency closure from three days before that day
    to the morning after, and the day's 00:00 and 01:00 weather hours deleted,
    so the fill takes them from 02:00."""
    import shutil
    from datetime import datetime, time, timedelta

    from tweet2traffic.ingest.synthetic import AGENCY_USER

    data = tmp_path_factory.mktemp("edged") / "data"
    shutil.copytree(data_dir, data)
    day = served.days[len(served.days) // 2]
    eve = day - timedelta(days=1)
    user = sorted(json.loads(served.model.read_text())["meta"]["features"]["homes"])[0]
    stamps = [f"{eve}T04:59", f"{eve}T05:00", f"{day}T11:59", f"{day}T12:00"]
    road = "Crash on I-279 southbound at Mile Post: 3.0. All lanes closed."
    start = datetime.combine(day - timedelta(days=3), time(22))
    series = [(start, road), (datetime.combine(eve, time(3)), f"UPDATE: {road}"),
              (datetime.combine(day + timedelta(days=1), time(9)), f"CLEARED: {road}")]
    with (data / "tweets.csv").open("a", encoding="utf-8") as fh:
        for i, ts in enumerate(stamps):
            fh.write(f"edge{i},{user},{ts},GEOCODED,40.45,-80.0,,going to sleep at home\n")
        for i, (ts, text) in enumerate(series):
            fh.write(f"edge_ag{i},{AGENCY_USER},{ts.isoformat(timespec='minutes')},"
                     f"TIMELINE,,,,{text}\n")
    header, *rows = (data / "weather.csv").read_text().splitlines(keepends=True)
    gone = (f"{day}T00:00", f"{day}T01:00")
    (data / "weather.csv").write_text(header + "".join(
        r for r in rows if not r.startswith(gone)))
    return Edged(data, day, start)


def _assert_same_blocks(got, want):
    """Every field of two DayBlocks holds the same values."""
    import numpy as np

    from tweet2traffic.harness.pipeline import DayBlocks

    for field in dataclasses.fields(DayBlocks):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), field.name
        elif field.name == "incident_features":
            assert a.keys() == b.keys(), field.name
            assert all(np.array_equal(a[sid], b[sid]) for sid in a), field.name
        elif field.name == "geocoder":
            assert a.tracts == b.tracts
        else:
            assert a == b, field.name


class TestCli:
    def test_synth_writes_all_files(self, data_dir):
        for name in ("speed.csv", "incidents.csv", "weather.csv", "tweets.csv",
                     "segments.csv", "calendar.csv", "tracts.geojson",
                     "zones.geojson", "sidecar.json", "config.json"):
            assert (data_dir / name).exists()

    def test_ingest_ok(self, data_dir, capsys):
        assert main(["ingest", "--data", str(data_dir)]) == 0
        assert "segments" in capsys.readouterr().out

    def test_ingest_missing_dir_exit_2(self, tmp_path):
        assert main(["ingest", "--data", str(tmp_path / "nope")]) == 2

    def test_ingest_bad_file_exit_2(self, data_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        (broken / "speed.csv").write_text("segment_id,timestamp,observed_speed\nS,2014-01-06T05:00,-1\n")
        assert main(["ingest", "--data", str(broken)]) == 2

    def test_evaluate_small(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "harness": {"n_outer": 3},
            "tweets": {"agency_user_ids": ["agency511"]},
        }))
        out = tmp_path / "eval"
        rc = main(["evaluate", "--data", str(data_dir), "--config", str(cfg),
                   "--models", "t2t,hm", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.csv").exists()
        assert (out / "aggregates.csv").exists()
        assert (out / "token_frequencies.csv").exists()
        assert "t2t:" in capsys.readouterr().out

    def test_evaluate_takes_an_ablation_name(self, data_dir, tmp_path):
        import csv

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"harness": {"n_outer": 3}}))
        out = tmp_path / "eval"
        assert main(["evaluate", "--data", str(data_dir), "--config", str(cfg),
                     "--models", "NO_CLUSTER", "--out", str(out)]) == 0
        with (out / "aggregates.csv").open(newline="") as fh:
            assert {r["model"] for r in csv.DictReader(fh)} == {"NO_CLUSTER"}

    def test_evaluate_unknown_model_exit_2(self, data_dir, tmp_path, capsys):
        rc = main(["evaluate", "--data", str(data_dir), "--models", "hm,bogus",
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "unknown model(s) 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_evaluate_token_frequencies_match_fresh_cleaning(self, data_dir, tmp_path):
        import csv
        import shutil
        from datetime import datetime, time

        from tweet2traffic.config import PipelineConfig
        from tweet2traffic.harness.report import token_frequency
        from tweet2traffic.ingest.loaders import load_bundle, write_dataset
        from tweet2traffic.ingest.types import Tweet
        from tweet2traffic.tweetpipe.textclean import clean_text

        # one geocoded tweet outside the box: its tokens are still counted
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        bundle = load_bundle(data)
        morning = datetime.combine(bundle.tweets[0].timestamp.date(), time(8, 0))
        outside = Tweet("far1", "visitor", morning, "Sooo many #roadworks near Harrisburg today",
                        (40.27, -76.88), None, "GEOCODED")
        write_dataset("tweets", bundle.tweets + [outside], data / "tweets.csv")
        bundle = load_bundle(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"harness": {"n_outer": 3}}))
        out = tmp_path / "eval"
        rc = main(["evaluate", "--data", str(data), "--config", str(cfg),
                   "--models", "hm", "--out", str(out)])
        assert rc == 0
        with (out / "token_frequencies.csv").open(encoding="utf-8") as fh:
            rows = [(r["period"], r["token"], int(r["count"])) for r in csv.DictReader(fh)]
        geo = [t for t in bundle.tweets if t.coord is not None]
        periods = PipelineConfig().tweets.periods
        want = token_frequency(geo, {t.text: clean_text(t.text) for t in geo}, periods)
        assert sorted(rows) == sorted((p, tok, n) for p, c in want.items()
                                      for tok, n in c.items())
        assert ("AM", "harrisburg", 1) in rows

    def test_ablate_small(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "harness": {"n_outer": 3},
            "tweets": {"agency_user_ids": ["agency511"]},
        }))
        out = tmp_path / "abl"
        rc = main(["ablate", "--data", str(data_dir), "--config", str(cfg),
                   "--variant", "NO_WEATHER", "--seed", "1", "--out", str(out)])
        assert rc == 0
        deltas = (out / "deltas.csv").read_text().splitlines()
        assert deltas[0] == "variant,metric,relative_delta"
        assert len(deltas) == 7

    def test_tweets_requires_stage_flag(self, data_dir, tmp_path):
        rc = main(["tweets", "--data", str(data_dir), "--out", str(tmp_path / "t")])
        assert rc == 2

    def test_tweets_augment_exports_the_model_homes(self, data_dir, tmp_path):
        import csv

        from tweet2traffic.config import load_config
        from tweet2traffic.harness.pipeline import build_split, prepare_data
        from tweet2traffic.ingest.loaders import load_bundle, write_dataset
        from tweet2traffic.tweetpipe.users import geotag_timeline

        cfg_path = data_dir / "config.json"
        out = tmp_path / "t"
        assert main(["tweets", "--augment", "--data", str(data_dir), "--config",
                     str(cfg_path), "--seed", "2", "--out", str(out)]) == 0
        cfg = load_config(cfg_path)
        bundle = load_bundle(data_dir)
        prepared = prepare_data(bundle, cfg)
        homes = build_split(prepared, prepared.days, [], seed=2).homes
        assert homes
        with (out / "homes.csv").open(newline="") as fh:
            assert {r["user_id"]: (float(r["lat"]), float(r["lon"]))
                    for r in csv.DictReader(fh)} == homes
        write_dataset("tweets", geotag_timeline(bundle.tweets, homes, cfg.tweets),
                      tmp_path / "augmented.csv")
        assert ((out / "tweets_augmented.csv").read_bytes()
                == (tmp_path / "augmented.csv").read_bytes())

    def test_parse_incidents_writes_the_merged_records(self, data_dir, tmp_path):
        from tweet2traffic.config import load_config
        from tweet2traffic.harness.pipeline import prepare_data
        from tweet2traffic.ingest.loaders import load_bundle, write_dataset

        cfg_path = data_dir / "config.json"
        out = tmp_path / "t"
        assert main(["tweets", "--parse-incidents", "--data", str(data_dir), "--config",
                     str(cfg_path), "--out", str(out)]) == 0
        prepared = prepare_data(load_bundle(data_dir), load_config(cfg_path))
        assert prepared.tweet_incidents
        write_dataset("incidents", prepared.tweet_incidents, tmp_path / "incidents.csv")
        assert ((out / "incidents_from_tweets.csv").read_bytes()
                == (tmp_path / "incidents.csv").read_bytes())

    def test_parse_incidents_alone_builds_no_split(self, data_dir, tmp_path, monkeypatch):
        common = ["--data", str(data_dir), "--config", str(data_dir / "config.json")]
        assert main(["tweets", "--augment", "--parse-incidents", "--out",
                     str(tmp_path / "full")] + common) == 0

        def no_split(*_a, **_k):
            raise AssertionError("--parse-incidents alone ran build_split")

        monkeypatch.setattr("tweet2traffic.cli.build_split", no_split)
        assert main(["tweets", "--parse-incidents", "--out", str(tmp_path / "t")]
                    + common) == 0
        assert ((tmp_path / "t" / "incidents_from_tweets.csv").read_bytes()
                == (tmp_path / "full" / "incidents_from_tweets.csv").read_bytes())

    def test_parse_incidents_without_agency_accounts_is_header_only(self, data_dir,
                                                                      tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tweets": {"agency_user_ids": []}}))
        out = tmp_path / "t"
        assert main(["tweets", "--parse-incidents", "--data", str(data_dir),
                     "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "incidents_from_tweets.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("incident_id,")

    def test_predict_unknown_bundle_version_exit_2(self, data_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": 99, "meta": {},
                                     "descriptors": {}, "segments": {}}))
        rc = main(["predict", "--data", str(data_dir), "--model", str(model),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_predict_model_not_json_exit_2(self, data_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("segment_id,weights\n")
        rc = main(["predict", "--data", str(data_dir), "--model", str(model),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sentiment_header_exit_2(self, data_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "sentiment_scores.csv").write_text("id,score\nt1,0.9\n")
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "f")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_weather_ending_before_last_speed_day_exit_2(self, data_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        lines = (data / "weather.csv").read_text().splitlines(keepends=True)
        last_day = lines[-1].split("T")[0]
        (data / "weather.csv").write_text(
            "".join(line for line in lines if not line.startswith(last_day)))
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "f")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_weather_hours_warn_once_per_run(self, data_dir, tmp_path, caplog):
        import logging
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        header, *rows = (data / "weather.csv").read_text().splitlines(keepends=True)
        days = sorted({row.split("T")[0] for row in rows})
        gone = [f"{days[5]}T04:00", f"{days[-3]}T07:00"]
        kept = [row for row in rows if row.split(",")[0] not in gone]
        assert len(kept) == len(rows) - 2
        (data / "weather.csv").write_text(header + "".join(kept))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"harness": {"n_outer": 3}}))
        logger = "tweet2traffic.features.weather"
        with caplog.at_level(logging.WARNING, logger=logger):
            assert main(["evaluate", "--data", str(data), "--config", str(cfg),
                         "--models", "hm", "--out", str(tmp_path / "eval")]) == 0
        warned = [r.getMessage() for r in caplog.records if r.name == logger]
        assert sorted(warned) == [f"weather: missing hour {stamp.replace('T', ' ')}:00 "
                                  "carried forward" for stamp in gone]

    def test_speed_row_of_unknown_segment_exit_2(self, data_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        with (data / "speed.csv").open("a", encoding="utf-8") as fh:
            fh.write("ZZ-99,2014-01-06T05:00,41.0\n")
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "f")])
        assert rc == 2
        assert "error: schema mismatch on column 'segment_id'" in capsys.readouterr().err

    def test_duplicate_speed_key_exit_2(self, data_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        lines = (data / "speed.csv").read_text().splitlines(keepends=True)
        (data / "speed.csv").write_text("".join(lines + [lines[5]]))
        rc = main(["ingest", "--data", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"row {len(lines)}: duplicate speed key" in err

    @pytest.mark.parametrize("row", ["t1,high\n", "t1\n"])
    def test_bad_sentiment_row_exit_2(self, data_dir, tmp_path, capsys, row):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "sentiment_scores.csv").write_text("tweet_id,p\nt0,0.9\n" + row)
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "f")])
        assert rc == 2
        assert "error: row 2:" in capsys.readouterr().err

    def test_missing_sentiment_scores_exit_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sentiment_scores_path": str(tmp_path / "absent.csv")}))
        rc = main(["features", "--data", str(data_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "f")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "absent.csv" in err

    def test_config_not_json_exit_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("harness: {n_outer: 3}\n")
        rc = main(["features", "--data", str(data_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "f")])
        assert rc == 2
        assert "is not JSON" in capsys.readouterr().err

    def test_predict_bundle_missing_key_exit_2(self, data_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": FORMAT_VERSION}))
        rc = main(["predict", "--data", str(data_dir), "--model", str(model),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        assert "schema mismatch on column 'meta'" in capsys.readouterr().err

    def test_predict_version_1_bundle_asks_for_retrain_exit_2(self, data_dir, tmp_path,
                                                              capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": 1, "meta": {}, "descriptors": {},
                                     "segments": {}}))
        rc = main(["predict", "--data", str(data_dir), "--model", str(model),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        assert "retrain it with `t2t train`" in capsys.readouterr().err

    def test_predict_bundle_without_feature_state_exit_2(self, data_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                     "meta": {"train_end": "2014-01-06"},
                                     "descriptors": {}, "segments": {}}))
        rc = main(["predict", "--data", str(data_dir), "--model", str(model),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "schema mismatch on column 'features'" in err
        assert "retrain it with `t2t train`" in err
        assert not (tmp_path / "pred").exists()

    def test_predict_version_2_bundle_asks_for_retrain_exit_2(self, data_dir, tmp_path,
                                                              capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": 2,
                                     "meta": {"train_days": ["2014-01-06"]},
                                     "descriptors": {}, "segments": {}}))
        rc = main(["predict", "--data", str(data_dir), "--model", str(model),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        assert "retrain it with `t2t train`" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    def test_predict_serves_an_unseen_day_as_a_split_test_row(self, data_dir, served,
                                                              tmp_path):
        import csv

        import numpy as np

        from tweet2traffic.config import load_config
        from tweet2traffic.harness.pipeline import (
            build_split,
            day_blocks,
            descriptor_scales,
            prepare_data,
            road_features,
            segment_design,
        )
        from tweet2traffic.ingest.loaders import load_bundle
        from tweet2traffic.learn.serialize import bundle_from_json
        from tweet2traffic.learn.stack import predict_day

        cfg = load_config(data_dir / "config.json")
        descriptors, segments, meta = bundle_from_json(served.model.read_text())
        prepared = prepare_data(load_bundle(data_dir), cfg)
        target = served.days[len(served.train_days)]
        assert meta["train_end"] == served.train_days[-1].isoformat()
        art = build_split(prepared, served.train_days, [target], seed=2)
        assert {u: tuple(h) for u, h in meta["features"]["homes"].items()} == art.homes
        assert meta["features"]["weather_min"] == art.weather_bounds[0].tolist()
        assert meta["features"]["weather_max"] == art.weather_bounds[1].tolist()
        want = segment_design(prepared, art, art.road_matrix,
                              descriptor_scales(descriptors, art.road_matrix))

        # the served row from the target day's blocks and the stored state
        blocks = day_blocks(load_bundle(data_dir), cfg, [target])
        bounds = tuple(np.array(meta["features"][k]) for k in ("weather_min", "weather_max"))
        homes = {u: tuple(h) for u, h in meta["features"]["homes"].items()}
        road = road_features(blocks, [target], homes, bounds)
        got = segment_design(blocks, None, road, descriptor_scales(descriptors, road))
        n_road = len(art.road_matrix.names)
        assert road.names == art.road_matrix.names
        assert np.array_equal(road.values[0], art.road_matrix.values[-1])
        for sid in segments:
            names, X_want, pos = want[sid]
            assert got[sid][0] == names == segments[sid].feature_names
            row_want, row_got = X_want[pos[target]], got[sid][1][0]
            # road, incident and cluster-scale columns are the split row's bits
            scale = [i for i, n in enumerate(names) if n.startswith("c_")]
            rest = [i for i in range(len(names)) if i not in scale]
            assert scale and len(rest) > n_road
            assert np.array_equal(row_got[rest], row_want[rest])
            assert np.array_equal(row_got[scale], row_want[scale])

        # with no --date, the CLI predicts the day after the training span
        assert main(["predict", "--model", str(served.model), "--data", str(data_dir),
                     "--seed", "2", "--out", str(tmp_path / "p")]) == 0
        with (tmp_path / "p" / f"predictions_{target}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["segment_id"] for r in rows] == sorted(segments)
        for r in rows:
            _names, X_want, pos = want[r["segment_id"]]
            p = predict_day(segments[r["segment_id"]], X_want[pos[target]],
                            cfg.model.cs_threshold)
            assert r["date"] == target.isoformat() and int(r["cs"]) == p.cs
            assert float(r["p_congested"]) == p.p_congested
            assert float(r["cst_slots"]) == p.cst

    def test_predict_reads_no_speed_and_builds_no_split(self, data_dir, served, tmp_path,
                                                        monkeypatch):
        import shutil
        from datetime import datetime, time, timedelta

        from tweet2traffic.harness.pipeline import day_blocks
        from tweet2traffic.ingest.synthetic import AGENCY_USER

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "speed.csv").unlink()
        (data / "zones.geojson").unlink()

        def refuse(*_a, **_k):
            raise AssertionError("predict ran the full-span pipeline")

        monkeypatch.setattr("tweet2traffic.cli.build_split", refuse)
        monkeypatch.setattr("tweet2traffic.cli.prepare_data", refuse)
        bundles = []

        def capture(bundle, *args):
            bundles.append(bundle)
            return day_blocks(bundle, *args)

        monkeypatch.setattr("tweet2traffic.cli.day_blocks", capture)
        day = served.days[-1].isoformat()
        assert main(["predict", "--model", str(served.model), "--data", str(data),
                     "--date", day, "--out", str(tmp_path / "p")]) == 0
        assert main(["predict", "--model", str(served.model), "--data", str(data_dir),
                     "--date", day, "--out", str(tmp_path / "full")]) == 0
        name = f"predictions_{day}.csv"
        assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

        # the records built are those of the day's windows and the agency
        # accounts, not every row of the files
        n_rows = len((data / "tweets.csv").read_text().splitlines()) - 1
        first = datetime.combine(served.days[-1] - timedelta(days=1), time(5))
        end = datetime.combine(served.days[-1], time(12))
        assert len(bundles) == 2
        for bundle in bundles:
            assert 0 < len(bundle.tweets) < n_rows
            assert all(first <= t.timestamp < end or t.user_id == AGENCY_USER
                       for t in bundle.tweets)
            assert all(r.timestamp >= datetime.combine(served.days[-1], time(0))
                       for r in bundle.weather)

    def test_predict_keeps_only_the_rows_its_day_reads(self, served, edged, tmp_path,
                                                       monkeypatch, caplog):
        """A one-day load keeps the eve-to-noon tweets, the agency tweets and
        the weather from the day on; its blocks and predictions are those of
        a load that keeps every row, on every day."""
        import logging

        from tweet2traffic import cli
        from tweet2traffic.config import load_config
        from tweet2traffic.harness.pipeline import day_blocks, day_rows
        from tweet2traffic.ingest.loaders import load_bundle

        cfg = load_config(edged.data / "config.json")
        skip = ("speed", "zones")
        full = load_bundle(edged.data, skip=skip)
        kept = load_bundle(edged.data, skip=skip, keep=day_rows(cfg, edged.day))
        ids = {t.tweet_id for t in kept.tweets}
        assert {"edge1", "edge2", "edge_ag0", "edge_ag1", "edge_ag2"} <= ids
        assert not ids & {"edge0", "edge3"}
        assert len(kept.tweets) < len(full.tweets)
        assert min(r.timestamp.date() for r in kept.weather) == edged.day
        with caplog.at_level(logging.WARNING, logger="tweet2traffic.features.weather"):
            blocks = day_blocks(kept, cfg, [edged.day])
        assert f"weather: missing hour {edged.day} 00:00:00 filled from {edged.day} " \
            "02:00:00" in caplog.messages
        assert any(r.closure_start_ts == edged.agency_start for r in blocks.tweet_incidents)
        assert any(block.any() for block in blocks.incident_features.values())
        assert blocks.event_features.any()

        for day in served.days:
            kept = load_bundle(edged.data, skip=skip, keep=day_rows(cfg, day))
            _assert_same_blocks(day_blocks(kept, cfg, [day]), day_blocks(full, cfg, [day]))

        def predict(out):
            for day in served.days:
                assert main(["predict", "--model", str(served.model), "--data",
                             str(edged.data), "--date", day.isoformat(),
                             "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        filtered = predict(tmp_path / "kept")
        monkeypatch.setattr(cli, "day_rows", lambda _cfg, _day: None)
        assert predict(tmp_path / "all") == filtered
        assert len(filtered) == len(served.days)

    @pytest.mark.parametrize("fname,row,reason", [
        ("tweets.csv", "tbad,user001,{month_before}T24:30,GEOCODED,40.45,-80.0,,x\n",
         "bad timestamp"),
        ("weather.csv", "{month_before}T06:30,1.0,50.0,5.0,30.0,10.0,0.0,0,0\n",
         "not hourly")])
    def test_predict_rejects_a_bad_row_outside_its_window_exit_2(
            self, data_dir, served, tmp_path, capsys, fname, row, reason):
        import shutil
        from datetime import timedelta

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        day = served.days[-1]
        with (data / fname).open("a", encoding="utf-8") as fh:
            fh.write(row.format(month_before=day - timedelta(days=30)))
        rc = main(["predict", "--model", str(served.model), "--data", str(data),
                   "--date", day.isoformat(), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_predict_with_a_tract_the_bundle_lacks_exit_2(self, data_dir, served, tmp_path,
                                                          capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        doc = json.loads((data / "tracts.geojson").read_text())
        doc["features"] = doc["features"][:-1]
        (data / "tracts.geojson").write_text(json.dumps(doc))
        rc = main(["predict", "--model", str(served.model), "--data", str(data),
                   "--out", str(tmp_path / "p")])
        assert rc == 2
        assert "schema mismatch on column 'feature_names'" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_predict_without_a_bundle_segment_exit_2(self, data_dir, served, tmp_path,
                                                     capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        header, *rows = (data / "segments.csv").read_text().splitlines(keepends=True)
        gone = rows[-1].split(",")[0]
        (data / "segments.csv").write_text(header + "".join(rows[:-1]))
        speed = (data / "speed.csv").read_text().splitlines(keepends=True)
        (data / "speed.csv").write_text(
            "".join(line for line in speed if not line.startswith(gone + ",")))
        rc = main(["predict", "--model", str(served.model), "--data", str(data),
                   "--out", str(tmp_path / "p")])
        assert rc == 2
        assert f"segment {gone!r}" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_predict_bundle_coefficient_naming_no_feature_exit_2(self, data_dir, served,
                                                                 tmp_path, capsys):
        """A stored coefficient whose name is not among its model's features is
        rejected, not dropped, so no loaded model differs from the saved one."""
        doc = json.loads(served.model.read_text())
        sid = sorted(doc["segments"])[0]
        doc["segments"][sid]["classifier"]["coefficients"]["no_such_feature"] = 0.5
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        rc = main(["predict", "--model", str(model), "--data", str(data_dir),
                   "--date", served.train_days[-1].isoformat(), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "schema mismatch on column 'coefficients'" in err
        assert "'no_such_feature' names no feature" in err
        assert not (tmp_path / "p").exists()

    def test_capped_fit_warns_in_one_line_naming_no_source(self, data_dir, tmp_path):
        """A NotConverged warning on stderr reads `NotConverged: <message>`: no
        source path or line number, which change with any edit or checkout.
        It runs in a fresh interpreter, whose warnings print as a user sees them."""
        import os
        import re
        import subprocess
        import sys

        import tweet2traffic

        cfg = tmp_path / "capped.json"
        cfg.write_text(json.dumps({"model": {"lasso_max_iter": 2}}))
        env = dict(os.environ)
        src = str(Path(tweet2traffic.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "tweet2traffic.cli", "train",
                               "--data", str(data_dir), "--config", str(cfg),
                               "--out", str(tmp_path / "m")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        capped = [line for line in lines if "did not converge" in line]
        assert capped
        assert all(re.fullmatch(r"NotConverged: lasso did not converge: (max_iter=2 sweeps "
                                r"ran out|\d+ working-set rounds ran out after \d+ of "
                                r"max_iter=2 sweeps)", line) for line in capped), capped
        assert not [line for line in lines if ".py" in line or "warnings.warn" in line]

    @pytest.mark.parametrize("variant", ["linear", "rf", "knn"])
    def test_saved_bundle_serves_the_trained_stack(self, data_dir, tmp_path, variant):
        import csv

        from tweet2traffic.config import load_config
        from tweet2traffic.harness.pipeline import (
            StackModel,
            build_split,
            fit_stack,
            prepare_data,
        )
        from tweet2traffic.ingest.loaders import load_bundle
        from tweet2traffic.learn.serialize import bundle_from_json
        from tweet2traffic.learn.stack import predict_day

        cfg_path = data_dir / "config.json"
        common = ["--data", str(data_dir), "--config", str(cfg_path), "--seed", "2"]
        assert main(["train", "--variant", variant, "--out", str(tmp_path / "m")]
                    + common) == 0
        cfg = load_config(cfg_path)
        prepared = prepare_data(load_bundle(data_dir), cfg)
        art = build_split(prepared, prepared.days, [], seed=2)
        stack = fit_stack(prepared, art, StackModel(head=variant), seed=2)

        _desc, segments, meta = bundle_from_json((tmp_path / "m" / "model.json").read_text())
        assert meta["train_end"] == prepared.days[-1].isoformat()
        assert {u: tuple(h) for u, h in meta["features"]["homes"].items()} == art.homes
        assert segments.keys() == stack.segment_models.keys()
        if variant != "linear":
            assert any(m.heads for m in segments.values())
        for sid, fitted in stack.segment_models.items():
            _names, X_all, _pos = stack.designs[sid]
            for row in X_all:
                assert predict_day(segments[sid], row) == predict_day(fitted, row), sid

        # an in-sample day, mid-span or last, is served from its training-time
        # design row
        for day in (prepared.days[len(prepared.days) // 2], prepared.days[-1]):
            assert main(["predict", "--model", str(tmp_path / "m" / "model.json"),
                         "--date", day.isoformat(), "--out", str(tmp_path / "p")]
                        + common) == 0
            with (tmp_path / "p" / f"predictions_{day}.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [r["segment_id"] for r in rows] == sorted(stack.segment_models)
            for r in rows:
                sid = r["segment_id"]
                _names, X_all, pos = stack.designs[sid]
                p = predict_day(stack.segment_models[sid], X_all[pos[day]],
                                cfg.model.cs_threshold)
                assert r == {"segment_id": sid, "date": day.isoformat(), "cs": str(p.cs),
                             "cst_slots": repr(p.cst),
                             "cd_slots": "" if p.cd is None else repr(p.cd),
                             "pti": "" if p.pti is None else repr(p.pti),
                             "p_congested": repr(p.p_congested)}

    @pytest.mark.parametrize("fname,column", [("tweets.csv", 2), ("weather.csv", 0),
                                              ("incidents.csv", 3), ("speed.csv", 1)])
    def test_utc_offset_timestamp_exit_2(self, data_dir, tmp_path, capsys, fname, column):
        import csv
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        with (broken / fname).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[2][column] += "+00:00"
        with (broken / fname).open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["ingest", "--data", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "row 2:" in err and "carries a UTC offset" in err, err

    @pytest.mark.parametrize("severity", ["nan", "inf", "2.7"])
    def test_wx_severity_that_is_no_whole_number_exit_2(self, data_dir, tmp_path, capsys,
                                                         severity):
        import csv
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        with (broken / "weather.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[3][8] = severity
        with (broken / "weather.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["ingest", "--data", str(broken)]) == 2
        err = capsys.readouterr().err
        assert f"row 3: bad wx_severity {severity!r}" in err, err

    @pytest.mark.parametrize("overrides", [
        {"morning": {"start_hour": 6}},
        {"timezone": "UTC"},
        {"features": {"incident_hours": 10}},
        {"features": {"wx_severity_map": [["clear", 0]]}},
        {"tweets": {"dbscan_min_pts": 2}},
        {"tweets": {"bot_score_threshold": 1.0}},
    ])
    def test_removed_config_keys_exit_2(self, data_dir, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        rc = main(["features", "--data", str(data_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "f")])
        assert rc == 2
        assert "error: unknown" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_cluster_centroids_follow_configured_max_iter(self, data_dir, tmp_path):
        import csv

        import numpy as np

        from tweet2traffic.clustering import build_road_profiles
        from tweet2traffic.config import load_config
        from tweet2traffic.harness.pipeline import build_split, prepare_data
        from tweet2traffic.ingest.loaders import load_bundle

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clustering": {"kmeans_max_iter": 1}}))
        out = tmp_path / "clu"
        assert main(["cluster", "--data", str(data_dir), "--config", str(cfg),
                     "--seed", "5", "--out", str(out)]) == 0
        prepared = prepare_data(load_bundle(data_dir), load_config(cfg))
        art = build_split(prepared, prepared.days, [], seed=5)
        for road in prepared.roads:
            dates, labels = art.clusters[road].dates, art.clusters[road].ordered.labels
            seg_ids = [s.segment_id for s in prepared.segs_by_road[road]]
            rows = build_road_profiles(road, seg_ids, {(s, d): art.tti[(s, d)] for d in dates
                                                       for s in seg_ids}).rows
            safe = road.replace(" ", "_").replace("/", "_")
            with (out / f"centroids_{safe}.csv").open(newline="") as fh:
                cents = {int(r.pop("cluster")): np.array([float(v) for v in r.values()])
                         for r in csv.DictReader(fh)}
            # a Lloyd step ends on an assignment, so each day sits nearest its own centroid
            nearest = [min(cents, key=lambda c: ((row - cents[c]) ** 2).sum()) for row in rows]
            assert nearest == [int(lab) for lab in labels], road

    def test_describe(self, data_dir, tmp_path, capsys):
        rc = main(["describe", "--data", str(data_dir), "--out", str(tmp_path / "d")])
        assert rc == 0
        assert "chi2=" in capsys.readouterr().out

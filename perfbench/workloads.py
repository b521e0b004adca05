"""The benchmark's workloads: seeded worlds, timed CLI calls and output checks.

Every workload is a closed loop with one caller: the benchmark process calls
`tweet2traffic.cli.main` back to back, waiting for each call to return.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from spans import ROOT, Tracer

SETUP_SAMPLES = 3
N_SLOTS = 72  # 5-minute slots in the 05:00-11:00 window


@dataclass(frozen=True)
class Workload:
    """The traffic worlds of one run and the CLI calls made on them."""

    name: str
    days: int             # days of history in speed.csv
    roads: int
    segments_per_road: int
    users: int            # synthetic tweeting users
    n_outer: int          # outer tsCV splits of `t2t evaluate`
    worlds: int = 1       # seeded worlds per run; calls cycle through them
    models: str = ""      # `t2t evaluate --models`; empty for serve
    headline: tuple = ()  # quality keys averaged into cs_accuracy
    serve_days: int = 0   # consecutive final days predicted one at a time

    def synth_config(self) -> dict:
        return {"n_days": self.days, "n_roads": self.roads,
                "segments_per_road": self.segments_per_road, "n_users": self.users}


# The evaluate workloads cycle through three worlds per run: evaluate time
# and CV accuracy depend on the world (solver convergence, congestion base
# rate), and a median over three worlds varies less from seed to seed than
# one world does.
WORKLOADS = {
    "tscv": Workload("tscv", days=72, roads=2, segments_per_road=4, users=40,
                     n_outer=3, worlds=3, models="t2t,hm,sar",
                     headline=("t2t_accuracy",)),
    "baselines": Workload("baselines", days=120, roads=2, segments_per_road=4,
                          users=40, n_outer=4, worlds=3, models="hm,sar",
                          headline=("hm_accuracy", "sar_accuracy")),
    "serve": Workload("serve", days=72, roads=2, segments_per_road=4, users=40,
                      n_outer=3, serve_days=5, headline=("t2t_insample_accuracy",)),
}


@dataclass
class World:
    path: Path
    seed: int
    config: Path
    segments: list


def setup_worlds(workload: Workload, seed: int, work: Path) -> tuple[list[World], list]:
    """Write every world of the run with `t2t synth`, in a child process.

    World 0 is written again until there are SETUP_SAMPLES timings. The
    child keeps the generator's memory out of this process's peak RSS.
    Returns the worlds and the wall seconds of each `t2t synth` call.
    """
    sc = work / "synth_config.json"
    sc.write_text(json.dumps(workload.synth_config()), encoding="utf-8")
    worlds = [World(work / f"world{i}", seed * 1000 + i, work / f"config{i}.json", [])
              for i in range(workload.worlds)]
    jobs = worlds + worlds[:1] * max(0, SETUP_SAMPLES - len(worlds))
    child = Path(__file__).with_name("setup_world.py")
    proc = subprocess.run(
        [sys.executable, str(child), str(sc)] + [f"{w.path}={w.seed}" for w in jobs],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"world setup failed with exit code {proc.returncode}")
    for w in worlds:
        # pin the outer split count next to the world's own config
        cfg = json.loads((w.path / "config.json").read_text(encoding="utf-8"))
        cfg["harness"] = {"n_outer": workload.n_outer}
        w.config.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        with (w.path / "segments.csv").open(newline="", encoding="utf-8") as fh:
            w.segments = sorted(row["segment_id"] for row in csv.DictReader(fh))
    return worlds, json.loads(proc.stdout.strip().splitlines()[-1])


class Runner:
    """CLI calls of one run, with their outputs checked as they come."""

    def __init__(self, workload: Workload, worlds: list[World], work: Path):
        from tweet2traffic import cli

        self.cli = cli
        self.workload = workload
        self.worlds = worlds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[tuple, bytes] = {}
        self.problems: list[str] = []

    def call(self, world: World, argv: list[str], tracer: Tracer | None) -> float:
        """Wall seconds of one `cli.main(argv)`; a nonzero exit raises."""
        argv = argv + ["--data", str(world.path), "--seed", str(world.seed),
                       "--config", str(world.config)]
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                elapsed = time.perf_counter() - t0
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span(ROOT):
                        rc = self.cli.main(argv)
                    elapsed = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"t2t {argv[0]} exited with {rc}")
        return elapsed

    def _same_as_first(self, key: tuple, data: bytes) -> bool:
        return data == self.first_output.setdefault(key, data)

    # ---- evaluate ------------------------------------------------------------

    def eval_dir(self, i: int) -> Path:
        return self.work / f"eval{i}"

    def evaluate(self, i: int, tracer: Tracer | None = None) -> float:
        elapsed = self.call(self.worlds[i], ["evaluate", "--out", str(self.eval_dir(i)),
                                             "--models", self.workload.models], tracer)
        self._check_evaluate(i)
        return elapsed

    def _check_evaluate(self, i: int) -> None:
        """Every expected (model, segment, split) entry with finite metrics,
        and the same aggregates as the run's first call on this world."""
        out = self.eval_dir(i)
        expected = {(m, s, str(k)) for m in self.workload.models.split(",")
                    for s in self.worlds[i].segments
                    for k in range(1, self.workload.n_outer + 1)}
        seen, bad = set(), set()
        with (out / "metrics.csv").open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["model"], row["segment_id"], row["split"])
                seen.add(key)
                # metrics.py leaves a metric empty when it is undefined (say,
                # RMSE on a split with no congested day); accuracy always exists.
                if row["value"] == "" and row["metric"] != "accuracy":
                    continue
                if row["value"] == "" or not math.isfinite(float(row["value"])):
                    bad.add(key)
        missing = expected - seen
        failed = missing | (bad & expected)
        if missing:
            self.problems.append(f"evaluate world {i}: {len(missing)} report entries missing")
        if bad:
            self.problems.append(f"evaluate world {i}: {len(bad)} entries with non-finite metrics")
        if not self._same_as_first(("aggregates", i), (out / "aggregates.csv").read_bytes()):
            self.problems.append(f"evaluate world {i}: aggregates differ from the first call")
            failed = expected
        self.attempted += len(expected)
        self.failed += len(failed)

    def quality(self) -> dict[str, float]:
        """`<model>_accuracy` and `<model>_rmse_cst_h` of the whole-run
        aggregates, averaged over the worlds evaluated."""
        per_key: dict[str, list[float]] = {}
        for i in range(len(self.worlds)):
            path = self.eval_dir(i) / "aggregates.csv"
            if not path.is_file():
                continue
            with path.open(newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if row["segment_id"] == "ALL" and row["metric"] in ("accuracy",
                                                                         "rmse_cst_h"):
                        per_key.setdefault(f"{row['model']}_{row['metric']}",
                                           []).append(float(row["value"]))
        return {k: statistics.fmean(v) for k, v in per_key.items()}

    # ---- serve ----------------------------------------------------------------

    @property
    def model_path(self) -> Path:
        return self.work / "model" / "model.json"

    def serve_dates(self) -> list[str]:
        sidecar = json.loads((self.worlds[0].path / "sidecar.json").read_text(encoding="utf-8"))
        days = sorted(next(iter(sidecar["quadruples"].values())))
        return days[-self.workload.serve_days:]

    def train(self, tracer: Tracer | None = None) -> float:
        elapsed = self.call(self.worlds[0], ["train", "--out", str(self.model_path.parent)],
                            tracer)
        if not self.model_path.is_file():
            raise RuntimeError("t2t train wrote no model.json")
        return elapsed

    def predict(self, day: str, tracer: Tracer | None = None) -> float:
        out = self.work / "pred"
        elapsed = self.call(self.worlds[0], ["predict", "--model", str(self.model_path),
                                             "--date", day, "--out", str(out)], tracer)
        self._check_predict(out / f"predictions_{day}.csv", day)
        return elapsed

    def _check_predict(self, path: Path, day: str) -> None:
        """One row per segment, cs in {0, 1}, 0 <= cst_slots <= 72, and the
        same bytes as the run's first prediction of this day."""
        rows = {}
        if path.is_file():
            with path.open(newline="", encoding="utf-8") as fh:
                rows = {row["segment_id"]: row for row in csv.DictReader(fh)}
        segments = self.worlds[0].segments
        failed = sum(not (row is not None and row["date"] == day and row["cs"] in ("0", "1")
                          and 0.0 <= float(row["cst_slots"]) <= N_SLOTS)
                     for row in map(rows.get, segments))
        if failed:
            self.problems.append(f"predict {day}: {failed} bad or missing segment rows")
        if not self._same_as_first(("predict", day),
                                   path.read_bytes() if path.is_file() else b""):
            self.problems.append(f"predict {day}: output differs from the day's first call")
            failed = len(segments)
        self.attempted += len(segments)
        self.failed += failed

    def serve_checks(self) -> tuple[dict[str, float], tuple[int, int]]:
        """Quality of the trained bundle and the skew of what it served.

        Rebuilds the training-time design rows as `t2t train` does. Returns
        the bundle's in-sample CS accuracy and CST RMSE against the
        pipeline's own quadruples, and (differing, compared): the served
        `p_congested` values that differ by more than 1e-9 from `predict_day`
        on the training-time row of the same segment-day.
        """
        import numpy as np
        from tweet2traffic.config import load_config
        from tweet2traffic.harness.metrics import compute_metrics
        from tweet2traffic.harness.pipeline import build_split, prepare_data, segment_design
        from tweet2traffic.ingest.loaders import load_bundle
        from tweet2traffic.learn.serialize import bundle_from_json
        from tweet2traffic.learn.stack import predict_day

        world = self.worlds[0]
        cfg = load_config(world.config)
        prepared = prepare_data(load_bundle(world.path), cfg)
        art = build_split(prepared, prepared.days, [], seed=world.seed)
        descriptors, segments, _meta = bundle_from_json(
            self.model_path.read_text(encoding="utf-8"))
        n_days = len(art.road_matrix.days)
        scales = {road: (desc.predict_scales(art.road_matrix.values) if desc is not None
                         else np.zeros((n_days, 0)))
                  for road, desc in descriptors.items()}
        designs = segment_design(prepared, art, art.road_matrix, scales)

        def predict(sid, d):
            _names, X_all, pos = designs[sid]
            return predict_day(segments[sid], X_all[pos[d]], cfg.model.cs_threshold)

        pairs = [(sid, d) for sid in sorted(segments) for d in prepared.days
                 if art.quads[sid][d] is not None]
        preds = [predict(sid, d) for sid, d in pairs]
        ms = compute_metrics([art.quads[sid][d] for sid, d in pairs],
                             [p.cs for p in preds], [p.raw["cst"] for p in preds],
                             [p.raw["cd"] for p in preds], [p.raw["pti"] for p in preds],
                             cfg.congestion.slot)
        quality = {"t2t_insample_accuracy": ms.accuracy,
                   "t2t_insample_rmse_cst_h": ms.rmse_cst_h}

        differing = compared = 0
        for day in self.serve_dates():
            path = self.work / "pred" / f"predictions_{day}.csv"
            with path.open(newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    p = predict(row["segment_id"], date.fromisoformat(day))
                    compared += 1
                    differing += abs(float(row["p_congested"]) - p.p_congested) > 1e-9
        return quality, (differing, compared)

    def cleanup(self) -> None:
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

"""Fast self-test of the benchmark on tiny worlds.

Run from the root of a checkout, either way:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It checks that every named metric is emitted with its unit, that every
wrapped call site fires on the workloads whose pass should reach it and on
no other (so a refactor that moves a call cannot silently zero a layer), and
that the benchmark refuses to run without the program's sources.
"""
import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread cap before numpy loads)
from spans import ROOT, SITES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "tscv": dataclasses.replace(WORKLOADS["tscv"], days=45, roads=1,
                                segments_per_road=3, users=20, n_outer=2),
    "baselines": dataclasses.replace(WORKLOADS["baselines"], days=60, roads=1,
                                     segments_per_road=3, users=20, n_outer=2),
    "serve": dataclasses.replace(WORKLOADS["serve"], days=45, roads=1,
                                 segments_per_road=3, users=20, serve_days=2),
}


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)], workloads=TINY)
    assert rc == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_end_to_end_metrics_emitted():
    for workload in TINY:
        metrics = _run(workload, 0)["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END, workload
        for name, entry in metrics.items():
            assert math.isfinite(entry["value"]) and entry["value"] > 0, (workload, name)


def test_every_site_fires_where_it_should():
    for workload in TINY:
        metrics = _run(workload, 1)["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == run.per_layer_units(), workload
        assert metrics[f"{ROOT}.calls"]["value"] > 0
        for site in SITES:
            calls = metrics[f"{site.name}.calls"]["value"]
            if workload in site.fires_on:
                assert calls > 0, f"{site.name} never called on {workload}"
                assert metrics[f"{site.name}.s"]["value"] > 0
            else:
                assert calls == 0, f"{site.name} called {calls} times on {workload}"
        served = metrics["serve_skew.compared"]["value"]
        assert (served > 0) == (workload == "serve"), workload


def test_benchmark_json_lists_what_run_emits():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_without_sources():
    bare = HERE.parent / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "tscv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_benchmark_json_lists_what_run_emits, test_refuses_without_sources,
                 test_end_to_end_metrics_emitted,
                 test_every_site_fires_where_it_should):
        test()
        print(f"ok {test.__name__}")

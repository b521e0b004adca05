"""tweet2traffic benchmark: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tscv --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The run writes its seeded synthetic worlds (timed as `setup_s`), then drives
`tweet2traffic.cli.main` back to back for `--seconds` seconds and checks
every output. With `--trace 0` it reports end-to-end metrics from untraced
calls; with `--trace 1` it wraps each layer's functions (see spans.py) and
reports per-layer calls, inclusive and self seconds. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. `--workload all`
runs every workload, each in a fresh process. Work files go under
`.perfbench/` in the checkout.
"""
import os

# The BLAS thread cap must be in the environment before numpy loads.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from statistics import fmean, median  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import ROOT, SITES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Runner,
    setup_worlds,
)

# name -> unit; emitted on every workload with --trace 0
END_TO_END = {
    "setup_s": "s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
    "cs_accuracy": "share",
}


def per_layer_units() -> dict[str, str]:
    """name -> unit; emitted on every workload with --trace 1."""
    units = {}
    for name in [ROOT] + [s.name for s in SITES]:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for site in SITES:
        if site.counts_not_converged:
            units[f"{site.name}.not_converged"] = "count"
    units["trace_overhead_share"] = "share"
    units["serve_skew.differing"] = "count"
    units["serve_skew.compared"] = "count"
    return units


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """The timed calls of one run.

    Untraced: every call is timed, and the loop stops once each world has
    been used and one more call of the median length would pass `seconds`.
    Traced: an untraced and a traced call (or pass over the served days)
    alternate under the same rule from the first pair on; the first traced
    pass keeps its spans for the per-layer metrics, the rest only time the
    tracing overhead.
    """
    out = {"plain": [], "traced": [], "train_s": None,
           "tracer": Tracer() if trace else None}
    start = time.perf_counter()

    def pass_tracer() -> Tracer:
        return out["tracer"] if not out["traced"] else Tracer()

    def done(calls: int, minimum: int, per_loop: float) -> bool:
        return calls >= minimum and time.perf_counter() - start + per_loop > seconds

    if not runner.workload.serve_days:
        n_worlds = len(runner.worlds)
        while True:
            i = len(out["plain"]) % n_worlds
            out["plain"].append(runner.evaluate(i))
            if trace:
                out["traced"].append(runner.evaluate(i, pass_tracer()))
            per_loop = median(out["plain"]) + (median(out["traced"]) if trace else 0.0)
            if done(len(out["plain"]), 1 if trace else n_worlds, per_loop):
                return out

    days = runner.serve_dates()
    out["train_s"] = runner.train(out["tracer"])
    while True:
        if trace:
            out["plain"] += [runner.predict(d) for d in days]
            tracer = pass_tracer()
            out["traced"] += [runner.predict(d, tracer) for d in days]
            per_loop = len(days) * (median(out["plain"]) + median(out["traced"]))
        else:
            out["plain"].append(runner.predict(days[len(out["plain"]) % len(days)]))
            per_loop = median(out["plain"])
        if done(len(out["plain"]), len(days), per_loop):
            return out


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the full result record."""
    env = environment()
    work = root / ".perfbench" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worlds, setup_times = setup_worlds(workload, seed, work)
    runner = Runner(workload, worlds, work)

    timed = measure(runner, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if workload.serve_days:
        quality, skew = runner.serve_checks()
    else:
        quality, skew = runner.quality(), (0, 0)
    named = {"setup_s": (median(setup_times), "s", f"median of {len(setup_times)}")}
    call = "predict_p50_s" if workload.serve_days else "evaluate_s"
    named[call] = (median(timed["plain"]), "s", f"median of {len(timed['plain'])} calls")
    if timed["train_s"] is not None:
        named["train_s"] = (timed["train_s"], "s", "one call")
    if not trace:
        named["peak_rss_mb"] = (peak_rss_mb, "MB", "ru_maxrss of this process")
    named["failed_share"] = (runner.failed / max(runner.attempted, 1), "share",
                             f"{runner.failed} of {runner.attempted}")
    for name, value in sorted(quality.items()):
        named[name] = (value, "h" if name.endswith("_h") else "share", "")
    if workload.serve_days:
        named["serve_skew_share"] = (skew[0] / skew[1], "share", f"{skew[0]} of {skew[1]}")

    if trace:
        stats = timed["tracer"].stats()
        metrics = {}
        for name in [ROOT] + [s.name for s in SITES]:
            st = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            metrics[f"{name}.calls"] = st["calls"]
            metrics[f"{name}.s"] = st["s"]
            metrics[f"{name}.self_s"] = st["self_s"]
        for site in SITES:
            if site.counts_not_converged:
                metrics[f"{site.name}.not_converged"] = timed["tracer"].not_converged[site.name]
        metrics["trace_overhead_share"] = median(timed["traced"]) / median(timed["plain"]) - 1
        metrics["serve_skew.differing"], metrics["serve_skew.compared"] = skew
        units = per_layer_units()
        timed["tracer"].save(work / "spans.npz")
    else:
        metrics = {
            "setup_s": median(setup_times),
            "call_p50_s": median(timed["plain"]),
            "peak_rss_mb": peak_rss_mb,
            "cs_accuracy": fmean(quality[k] for k in workload.headline),
        }
        units = END_TO_END
    runner.cleanup()
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "dimensions": workload.__dict__,
        "world_seeds": [w.seed for w in worlds],
        "setup_times": setup_times, "call_times": timed["plain"],
        "traced_call_times": timed["traced"], "named": named,
        "problems": runner.problems,
        "result": {
            "correct": runner.failed == 0 and not runner.problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} environment={json.dumps(record['environment'])}")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")
    for name, (value, unit, note) in record["named"].items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps(record["result"]))


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tweet2traffic" / "cli.py").is_file():
        print("perfbench: run from the root of a tweet2traffic checkout "
              "(src/tweet2traffic not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        rc = 0
        for name in workloads:
            rc |= subprocess.run([sys.executable, __file__, "--workload", name,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]).returncode
        return rc
    sys.path.insert(0, str(root / "src"))
    print_record(run(workloads[args.workload], args.seed, args.seconds,
                     bool(args.trace), root))
    return 0


if __name__ == "__main__":
    sys.exit(main())

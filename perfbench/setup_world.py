"""Write seeded synthetic worlds with `t2t synth`, timing each call.

Usage: python3 perfbench/setup_world.py SYNTH_CONFIG OUT_DIR=SEED [OUT_DIR=SEED ...]

Run from the root of a checkout. Writes one world per OUT_DIR=SEED job, in
order (a repeated job writes the same files again), and prints the wall
seconds of each `t2t synth` call as a JSON list on the last line of stdout.
"""
import contextlib
import json
import sys
import time

sys.path.insert(0, "src")

from tweet2traffic.cli import main  # noqa: E402


def run(synth_config: str, jobs: list[str]) -> list[float]:
    times = []
    for job in jobs:
        out, seed = job.rsplit("=", 1)
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            rc = main(["synth", "--out", out, "--seed", seed, "--synth-config", synth_config])
            times.append(time.perf_counter() - t0)
        if rc != 0:
            sys.exit(rc)
    return times


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1], sys.argv[2:])))

"""The repository's benchmark: one workload per run, checked, with its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload proxy_day --seed 5 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (self times of the wrapped layers, measured in a separate run).
``--smoke`` shrinks every workload to a few seconds while running all of
its checks.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: String hashing is seeded per process by default, and dict and set
#: layouts with it: on the reference host that alone moved the same
#: replay's time by up to 20% between processes.  Every run uses this seed.
HASH_SEED = "0"

WORKLOADS = ("fleet_cold", "proxy_day", "proxy_day_stream", "proxy_day_durable")

#: End-to-end metrics, in the order of BENCHMARK.json: (name, unit).
E2E_METRICS = (
    ("setup_s", "s"),
    ("packets_per_s", "pkt/s"),
    ("home_s_p50", "s"),
    ("verdict_us_p50", "us"),
    ("state_kb", "KiB"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Context:
    """Everything a workload needs from the command line and the process."""

    seed: int
    seconds: float
    smoke: bool
    trace: bool
    workdir: str
    src_dir: str
    syncs: object


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, every check")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One thread per run: keep native math libraries from starting pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    import layers  # imports the program

    syncs = layers.SyncCounter()
    syncs.install()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run with this pid
    os.makedirs(workdir)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        trace=bool(args.trace),
        workdir=workdir,
        src_dir=SRC,
        syncs=syncs,
    )
    try:
        if args.workload == "fleet_cold":
            import fleet_cold

            outcome = fleet_cold.run(ctx)
        else:
            import proxy_day

            outcome = proxy_day.run(args.workload, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = outcome["values"]
    if ctx.trace:
        listed = layers.LAYER_METRICS
    else:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        listed = E2E_METRICS
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not outcome["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in listed
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the mptutte CLI on seeded perspective workloads.

    python3 bench/run.py --workload graphic-ladder --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36

Each workload run gets a fresh child process (worker.py) that imports the
program from this checkout's ``src/``.  ``--trace 0`` reports the end-to-end
metrics (medians over the passes made in ``--seconds``); ``--trace 1``
reports the per-layer metrics from a traced run and writes its spans to
``bench/out/``.  Workloads run one after another.  Human-readable lines go
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits non-zero, printing no
result, when the program source is missing or a child process fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    job = {
        "workload": name,
        "seed": seed,
        "golden": workloads.golden(name),
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(BENCH / "out" / f"spans-{name}-seed{seed}.json"),
    }
    # fixed string hashing: set and dict order of vertex names repeats run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{name}: worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"{name}: worker exited with {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(name: str, result: dict):
    wall = result.get("wall", {})
    for metric, m in result["metrics"].items():
        raw = f"  (wall clock {wall[metric]:.6g} s)" if metric in wall else ""
        print(f"{name:20s} {metric:32s} {m['value']:12.6g} {m['unit']}{raw}")
    share = result["failed"] / result["attempted"]
    print(f"{name:20s} {'fail_share':32s} {share:12.6g} fraction "
          f"({result['failed']} of {result['attempted']} failed)")
    for reason in result["failures"]:
        print(f"{name:20s} FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, results[name])

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

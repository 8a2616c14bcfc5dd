"""dklab benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload duality-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a dklab checkout; dklab is imported from its src/.
Each sample runs bench/workload.py in a fresh interpreter with
DKLAB_THREADS set to the core count.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics; the last line of output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Exit code 1
means the benchmark could not run (no dklab source, or a sample crashed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("duality-sweep", "martingale-paths", "witness-sweep")
SETUP_SAMPLES = 5  # interpreters started per run to time set-up
DEADLINE_S = 170.0  # every run must end within 180 s


class SampleError(RuntimeError):
    pass


def sample(argv, env, timeout, importtime=False) -> tuple[dict, float, str]:
    """Run workload.py once; returns (its JSON, set-up seconds, its stderr)."""
    python = [sys.executable] + (["-X", "importtime"] if importtime else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(python + argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"workload.py did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise SampleError(f"workload.py exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_at"] - spawned, proc.stderr


def import_seconds(importtime_log: str) -> dict:
    """Import self time of numpy, scipy and dklab, from `python -X importtime`.

    Each module's self time goes to the innermost of those three packages
    that it was imported under (the stdlib modules numpy pulls in count as
    numpy); modules imported outside all three are left out.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(self_us)))
    totals = {"numpy": 0, "scipy": 0, "dklab": 0}
    stack: list[tuple[int, str | None]] = []
    for depth, name, self_us in reversed(rows):  # parents now precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        owner = package if package in totals else (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            totals[owner] += self_us
    return {f"setup.import_{k}_s": v / 1e6 for k, v in totals.items()}


def end_to_end(rounds, setup) -> dict:
    latencies = [t for r in rounds for t in r["ops"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
        "replicates_per_s": (
            statistics.median(r["replicates"] / r["sample_time"] for r in rounds), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "dklab" / "__init__.py").is_file():
        print(f"bench: no dklab source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = dict(os.environ, DKLAB_THREADS=str(len(os.sched_getaffinity(0))))
    argv = [str(BENCH / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup, imports = [], []
        for _ in range(SETUP_SAMPLES - 1):
            _, secs, log = sample(argv + ["--setup-only"], env, 60, importtime=bool(args.trace))
            setup.append(secs)
            imports.append(import_seconds(log))
        remaining = DEADLINE_S - (time.monotonic() - started)
        result, secs, _ = sample(argv, env, remaining)
        setup.append(secs)
    except SampleError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        values = dict(result["layers"])
        for key in imports[0]:
            values[key] = statistics.median(i[key] for i in imports)
        metrics = {k: (values[k], unit) for k, unit in LAYER_UNITS.items()}
        print(f"spans: {result['spans_file']}")
    else:
        metrics = end_to_end(result["rounds"], setup)
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of soca-kit: one workload, run from the root of a checkout.

    python3 bench/run.py --workload census|linear-count|verdicts \\
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh single-threaded process (bench/worker.py) as a
closed loop with one client: one call into the program at a time, the next
only after the previous returned.  With --trace 0 the workload process is
preceded by further set-up-only processes, and set-up time is their median.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, end-to-end with --trace 0 and per-layer with
--trace 1.  Exit code 2 when the checkout holds no src/soca_kit.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7  # set-ups per run: SETUPS - 1 set-up-only processes plus the workload's own
TIME_LIMIT = 170  # seconds for the whole run, processes included
WORKLOADS = ("census", "linear-count", "verdicts")


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # glibc's default mmap threshold, pinned: large arrays go back to the
        # system when freed.  Left dynamic, the peak resident set depended on
        # the order of a round's queries and took two values 8% apart.
        MALLOC_MMAP_THRESHOLD_="131072",
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="soca-kit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "soca_kit" / "__init__.py").is_file():
        print(f"error: no src/soca_kit under {ROOT}; run from a soca-kit checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT

    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(_worker(["--workload", args.workload, "--setup-only"], 60)["setup_s"])
    result = _worker(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        deadline - time.monotonic(),
    )
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for reason in result["wrong"]:
        print(f"WRONG: {reason}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}"
    )
    for name, m in sorted(metrics.items()):
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

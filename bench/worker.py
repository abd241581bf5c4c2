"""One workload in one fresh process: set-up, timed rounds, checks, and
either the end-to-end metrics (--trace 0) or the traced run with the
per-layer metrics (--trace 1).  Started by run.py; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
RUNS = Path(__file__).resolve().parent / "runs"


def set_up(name: str):
    """Import soca_kit from the checkout's src/ and warm its lazy caches (rule
    and Cayley plans, field tables) on the workload's shapes.  Returns the
    workload and the seconds this took."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import soca_kit
    import soca_kit.cli
    import soca_kit.polynomials

    if not Path(soca_kit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"soca_kit was imported from {soca_kit.__file__}, not from src/")
    from workloads import WORKLOADS

    sk = SimpleNamespace(**{**vars(soca_kit), "cli": soca_kit.cli, "mask_gcd": soca_kit.polynomials.mask_gcd})
    workload = WORKLOADS[name](sk)
    workload.warm_up()
    return workload, perf_counter() - t0


class Rounds:
    """Outcome of whole rounds of one workload: the time of every call that
    did not fail, by round and operation, and the checks of every output."""

    def __init__(self, ops):
        self.ops = ops
        self.calls: list[dict] = []  # per round: operation -> its call times
        self.units: dict = {}  # operation -> units of work it does
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.outputs: list = []

    def rate(self, rounds=slice(None)) -> float:
        """Units of work per busy second over the selected rounds."""
        units = busy = 0.0
        for calls in self.calls[rounds]:
            for op, times in calls.items():
                units += self.units[op] * len(times)
                busy += sum(times)
        return units / busy

    def latency(self) -> float:
        """Median over the round's operations of each one's mean call time.

        On a 2-core host shared with other tenants (see the README) a call
        runs at one of two paces, about 1.9 times apart, switching every few
        milliseconds, and the share of time at the fast pace drifts.  The
        median of all calls falls in whichever pace held more than half of them
        and jumped between the two from run to run; a mean follows the share
        smoothly.  Means per operation first, then the median over operations,
        so that the figure is still that of the workload's typical call."""
        times: dict = {}
        for calls in self.calls:
            for op, ts in calls.items():
                times.setdefault(op, []).extend(ts)
        return statistics.median(statistics.fmean(times[op]) for op in self.ops if op in times)


def run_rounds(workload, ops, seconds, tracer=None, keep_outputs=False) -> Rounds:
    """Repeat the round while the next one is expected to end within
    ``seconds`` (at least one round).  With a tracer, every other round puts a
    span around each call into the program.  Checks happen outside the timed
    calls."""
    from workloads import FAILED, OK

    out = Rounds(ops)
    verdict_cache: dict = {}
    start = perf_counter()
    while True:
        round_start = perf_counter()
        spans = tracer if len(out.calls) % 2 else None
        calls: dict = {}
        for i, op in enumerate(ops):
            if spans is None:
                t = perf_counter()
                result = workload.run(op)
                dt = perf_counter() - t
            else:
                with spans.span(workload.call, trace=i, round=len(out.calls), op=op) as span:
                    result = workload.run(op)
                dt = span["end"] - span["start"]
            out.attempted += 1
            key = (i, _fingerprint(result))
            verdict = verdict_cache.get(key)
            if verdict is None:
                verdict = verdict_cache[key] = workload.check(op, result)
            if verdict == FAILED:
                out.failed += 1
                continue
            if verdict != OK:
                out.wrong.append(verdict)
                continue
            calls.setdefault(op, []).append(dt)
            out.units[op] = workload.units(op)
            if keep_outputs and spans is not None:
                out.outputs.append((op, result))
        out.calls.append(calls)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - round_start) > seconds and len(out.calls) >= (2 if tracer else 1):
            return out


def _fingerprint(result):
    """Equal outputs give equal fingerprints: a CLI result tuple, or a report's key."""
    return result if isinstance(result, tuple) else result.key()


def end_to_end(workload, ops, seconds) -> tuple[Rounds, dict]:
    r = run_rounds(workload, ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_s": (r.rate(), "1/s"),
        "latency_p50_ms": (r.latency() * 1e3, "ms"),
    }
    return r, metrics


def traced(workload, ops, seconds, seed) -> tuple[Rounds, dict, object]:
    """Rounds alternately without and with a span around every call into the
    program (the ratio of their throughputs is the tracing overhead), then the
    replay of the round's inputs through the program's public pieces."""
    from workloads import Tracer, per_layer_metrics

    tracer = Tracer()
    rounds = run_rounds(workload, ops, seconds * 2 / 3, tracer=tracer, keep_outputs=True)
    workload.replay(ops, tracer, random.Random(seed))
    metrics = per_layer_metrics(workload, tracer, rounds)
    overhead = (rounds.rate(slice(0, None, 2)) / rounds.rate(slice(1, None, 2)) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    return rounds, metrics, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload, setup_s = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    ops = workload.make_round(random.Random(args.seed))
    if args.trace:
        rounds, metrics, tracer = traced(workload, ops, args.seconds, args.seed)
    else:
        rounds, metrics = end_to_end(workload, ops, args.seconds)
    result = {
        "correct": not rounds.wrong,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "setup_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wrong": rounds.wrong[:5],
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(RUNS / f"{stem}.spans.json")
    (RUNS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

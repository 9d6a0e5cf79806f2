#!/usr/bin/env python3
"""Compare a freshly generated BENCH_engine.json against the committed baseline.

Usage: check_bench.py BASELINE CURRENT [--threshold 0.10]
       check_bench.py --real BENCH_real.json

Engine mode fails (exit 1) when the raw-engine events/sec headline
regressed by more than the threshold, or when the fast loop allocates.
The "tick pair" row (half of its events go through the engine's
same-instant lane) is gated the same way: its allocation always, its
events/sec only when the baseline file has the row too.  Election results
are reported but not gated: their wall-times are dominated by setup at
large n and too noisy on shared runners to block a merge.

Real mode (--real) shape-checks a real-backend saturation artifact:
schema tag, every election completed, positive sustained throughput, an
ordered latency tail, and no file-descriptor leak.
"""

import argparse
import json
import math
import sys


def check_real(path: str) -> int:
    with open(path) as f:
        r = json.load(f)

    failed = False

    def gate(ok: bool, message: str) -> None:
        nonlocal failed
        if not ok:
            print(f"FAIL: {message}", file=sys.stderr)
            failed = True

    gate(
        r.get("schema") == "abe-real-bench/v1",
        f"schema is {r.get('schema')!r}, expected 'abe-real-bench/v1'",
    )
    gate(
        r.get("completed") == r.get("elections") and r.get("failed") == 0,
        f"{r.get('failed')} of {r.get('elections')} elections failed",
    )
    gate(
        r.get("elections_per_sec", 0) > 0,
        f"non-positive throughput {r.get('elections_per_sec')}",
    )
    lat = r.get("latency_wall_seconds", {})
    quantiles = [lat.get(k, math.nan) for k in ("p50", "p95", "p99")]
    gate(
        all(math.isfinite(q) and q >= 0 for q in quantiles)
        and quantiles == sorted(quantiles),
        f"latency tail not finite/ordered: {quantiles}",
    )
    fd_before, fd_after = r.get("fd_before", -1), r.get("fd_after", -1)
    if fd_before >= 0 and fd_after >= 0:
        gate(fd_after <= fd_before, f"fd leak: {fd_before} -> {fd_after}")
    print(
        f"real bench: {r.get('completed')}/{r.get('elections')} elections "
        f"at concurrency {r.get('concurrency')}, "
        f"{r.get('elections_per_sec', 0):.1f}/s, "
        f"p99 {lat.get('p99', math.nan):.3f}s, "
        f"fds {fd_before} -> {fd_after}"
    )
    return 1 if failed else 0


def main() -> int:
    if "--real" in sys.argv[1:]:
        real_args = [a for a in sys.argv[1:] if a != "--real"]
        if len(real_args) != 1:
            print("usage: check_bench.py --real BENCH_real.json", file=sys.stderr)
            return 2
        return check_real(real_args[0])

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_engine.json")
    parser.add_argument("current", help="freshly generated BENCH_engine.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="maximum tolerated fractional events/sec drop (default 0.10)",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    base_rate = base["raw_engine"]["events_per_sec"]
    cur_rate = cur["raw_engine"]["events_per_sec"]
    drop = (base_rate - cur_rate) / base_rate
    print(
        f"raw engine: baseline {base_rate:.3e} ev/s, "
        f"current {cur_rate:.3e} ev/s, change {-drop:+.1%}"
    )

    cur_alloc = cur["raw_engine"]["alloc_bytes_per_event"]
    print(f"allocation: {cur_alloc:.4f} B/event on the fast loop")

    cur_pair = cur.get("raw_tick_pair")
    base_pair = base.get("raw_tick_pair")
    pair_drop = None
    if cur_pair is not None:
        print(
            f"tick pair: {cur_pair['events_per_sec']:.3e} ev/s, "
            f"{cur_pair['alloc_bytes_per_event']:.4f} B/event"
        )
        if base_pair is None:
            print("tick pair: baseline has no row, throughput comparison skipped")
        else:
            base_pair_rate = base_pair["events_per_sec"]
            pair_drop = (base_pair_rate - cur_pair["events_per_sec"]) / base_pair_rate
            print(
                f"tick pair: baseline {base_pair_rate:.3e} ev/s, "
                f"change {-pair_drop:+.1%}"
            )

    for el in cur.get("elections", []):
        print(
            f"election n={el['n']}: elected={el['elected']} "
            f"events={el['events']} in {el['seconds']:.3f}s"
        )

    failed = False
    if drop > args.threshold:
        print(
            f"FAIL: events/sec regressed {drop:.1%} "
            f"(> {args.threshold:.0%} threshold)",
            file=sys.stderr,
        )
        failed = True
    if cur_alloc > 1.0:
        print(
            f"FAIL: fast loop allocates {cur_alloc:.2f} B/event "
            "(contract is ~0)",
            file=sys.stderr,
        )
        failed = True
    if cur_pair is None:
        print("FAIL: current file has no raw_tick_pair row", file=sys.stderr)
        failed = True
    elif cur_pair["alloc_bytes_per_event"] > 1.0:
        print(
            f"FAIL: tick pair allocates {cur_pair['alloc_bytes_per_event']:.2f} "
            "B/event (contract is ~0)",
            file=sys.stderr,
        )
        failed = True
    if pair_drop is not None and pair_drop > args.threshold:
        print(
            f"FAIL: tick pair events/sec regressed {pair_drop:.1%} "
            f"(> {args.threshold:.0%} threshold)",
            file=sys.stderr,
        )
        failed = True
    for el in cur.get("elections", []):
        if not el["elected"]:
            print(f"FAIL: election at n={el['n']} did not elect", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

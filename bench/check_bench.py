#!/usr/bin/env python3
"""Compare two BENCH_engine.json files measured on the same host.

Usage: check_bench.py PARENT CANDIDATE [--threshold 0.10]
       check_bench.py --real BENCH_real.json

PARENT is the parent commit's file and CANDIDATE the change's, both
generated on this host (a file committed from another host is not
comparable).  Engine mode fails (exit 1) when the raw-engine events/sec
headline regressed by more than the threshold, or when the fast loop
allocates.  The other raw rows are gated the same way: each must be
present and allocate at most 1 B/event, and its events/sec is compared
only when the parent file has the row too.  The rows cover the engine's
three queues: "tick pair" (half of its events take the same-instant
lane), "ticking ring" (a null-protocol ring's tick chains: the lane and
the run) and "random delay" (exponential delays: the heap and the
run-tail eviction).  Election results are reported but not gated: their
wall-times are dominated by setup at large n and too noisy on shared
runners to block a merge.

Real mode (--real) shape-checks a real-backend saturation artifact:
schema tag, every election completed, positive sustained throughput, an
ordered latency tail, and no file-descriptor leak.
"""

import argparse
import json
import math
import sys

# Raw rows gated beside the raw_engine headline (see the module docstring).
ROWS = ("raw_tick_pair", "raw_ticking_ring", "raw_random_delay")

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
    parser.add_argument("baseline", help="the parent commit's BENCH_engine.json")
    parser.add_argument("current", help="the candidate's BENCH_engine.json")
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

    failed = False

    def fail(message: str) -> None:
        nonlocal failed
        print(f"FAIL: {message}", file=sys.stderr)
        failed = True

    base_rate = base["raw_engine"]["events_per_sec"]
    cur_rate = cur["raw_engine"]["events_per_sec"]
    drop = (base_rate - cur_rate) / base_rate
    print(
        f"raw engine: baseline {base_rate:.3e} ev/s, "
        f"current {cur_rate:.3e} ev/s, change {-drop:+.1%}"
    )
    if drop > args.threshold:
        fail(f"events/sec regressed {drop:.1%} (> {args.threshold:.0%} threshold)")
    cur_alloc = cur["raw_engine"]["alloc_bytes_per_event"]
    print(f"allocation: {cur_alloc:.4f} B/event on the fast loop")
    if cur_alloc > 1.0:
        fail(f"fast loop allocates {cur_alloc:.2f} B/event (contract is ~0)")

    for key in ROWS:
        label = key.removeprefix("raw_").replace("_", " ")
        row = cur.get(key)
        if row is None:
            fail(f"current file has no {key} row")
            continue
        alloc = row["alloc_bytes_per_event"]
        print(f"{label}: {row['events_per_sec']:.3e} ev/s, {alloc:.4f} B/event")
        if alloc > 1.0:
            fail(f"{label} allocates {alloc:.2f} B/event (contract is ~0)")
        base_row = base.get(key)
        if base_row is None:
            print(f"{label}: baseline has no row, throughput comparison skipped")
            continue
        row_drop = (base_row["events_per_sec"] - row["events_per_sec"]) / base_row[
            "events_per_sec"
        ]
        print(
            f"{label}: baseline {base_row['events_per_sec']:.3e} ev/s, "
            f"change {-row_drop:+.1%}"
        )
        if row_drop > args.threshold:
            fail(
                f"{label} events/sec regressed {row_drop:.1%} "
                f"(> {args.threshold:.0%} threshold)"
            )

    for el in cur.get("elections", []):
        print(
            f"election n={el['n']}: elected={el['elected']} "
            f"events={el['events']} in {el['seconds']:.3f}s"
        )
        if not el["elected"]:
            fail(f"election at n={el['n']} did not elect")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

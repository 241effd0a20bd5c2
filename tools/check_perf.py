#!/usr/bin/env python3
"""Compare a fresh BENCH_engine.json against the committed baseline.

Usage: check_perf.py BASELINE CURRENT [--tolerance PCT]

Fails (exit 1) when any directed metric regresses by more than the
tolerance (default 20%): wall-time metrics may not rise above
baseline * (1 + tol), throughput metrics may not fall below
baseline * (1 - tol).

Parallel-scaling metrics (sweep_parallel_wall_ms, sweep_speedup,
sweep_efficiency_per_core) gate only when the baseline and current files
were recorded on machines with the same multi-core shape: equal
hardware_concurrency > 1 and equal sweep_jobs. A single-core recording
(or a core-count mismatch between CI and the committed baseline) says
nothing about scaling, so those metrics drop to informational.

--efficiency-floor FRAC adds an absolute gate that needs no comparable
baseline: whenever the *current* machine is multi-core, its
sweep_efficiency_per_core must be at least FRAC (e.g. 0.5 = each worker
delivers at least half a core's worth of throughput). This closes the gap
where CI's core count never matches the committed baseline and the
relative gate always skips.

--scaling-floor FRAC gates the scalebench sweep: the current file's
events_per_sec_vs_nodes table (node count -> engine events/sec) must not
decay below FRAC * the smallest-cluster entry at any larger node count
(0.5 = a 1,024-node run keeps at least half the 19-node event rate).

--profile-overhead-max PCT adds an absolute gate on the current run's
profile_overhead_pct (host self-profiler cost on the steady-state 32 GB
terasort, observed+profiled vs observed): it must not exceed PCT
(e.g. 2 = the profiler may slow the simulator by at most 2%). Like the
other absolute floors it reads only the current file, so it works with
any baseline, including pre-schema-4 ones.

Informational observe_surcharge rows (never gated) report what
switching the flight recorder on costs: observe_surcharge is the current
file's terasort_32gb_observed_wall_ms / terasort_32gb_wall_ms (a
steady-state run), observe_surcharge_bigram is
bigram_aggressive_observed_wall_ms / bigram_aggressive_wall_ms (a
shuffle-heavy aggressive tuning run). The INFORMATIONAL metrics
(uplink_churn_events_per_sec) are compared against the baseline like the
gated ones, but never fail.

When $GITHUB_STEP_SUMMARY is set (or --summary FILE is given), the same
comparison is appended there as a markdown table for the job summary page.
"""
import argparse
import json
import os
import sys

# metric name -> direction ("higher" / "lower" is better). Metrics not
# listed here are informational only.
GATED = {
    "engine_events_per_sec": "higher",
    # Engine churn at 1M+ pending events (the 10k-node regime).
    "queue_churn_1m_events_per_sec": "higher",
    "terasort_2gb_wall_ms": "lower",
    "terasort_32gb_wall_ms": "lower",
    "sweep_serial_wall_ms": "lower",
    "whatif_evals_per_sec": "higher",
    "whatif_search_uncached_wall_ms": "lower",
}

# Compared against the baseline like GATED, but never failing: per-layer
# numbers to watch.
INFORMATIONAL = {
    # One 300-stream rack uplink under submit/complete churn: the
    # SharedServer flat-split path on its own.
    "uplink_churn_events_per_sec": "higher",
}

# Gated only when core counts allow a meaningful comparison (see below).
PARALLEL_GATED = {
    "sweep_parallel_wall_ms": "lower",
    "sweep_speedup": "higher",
    "sweep_efficiency_per_core": "higher",
}


def parallel_gating_reason(base: dict, cur: dict) -> str | None:
    """None if parallel-scaling metrics may gate, else the skip reason."""
    b_cores = int(base.get("hardware_concurrency", 0))
    c_cores = int(cur.get("hardware_concurrency", 0))
    if b_cores != c_cores:
        return f"core count differs (baseline={b_cores}, current={c_cores})"
    if b_cores <= 1:
        return f"single-core machine (hardware_concurrency={b_cores})"
    if int(base.get("sweep_jobs", 0)) != int(cur.get("sweep_jobs", 0)):
        return (f"sweep_jobs differs (baseline={base.get('sweep_jobs')}, "
                f"current={cur.get('sweep_jobs')})")
    return None


def write_markdown_summary(path: str, rows: list, tolerance: float,
                           failures: list) -> None:
    """Append the comparison as a markdown table (GitHub job summary)."""
    with open(path, "a") as f:
        f.write("## Perf comparison vs committed baseline\n\n")
        f.write("| status | metric | baseline | current | delta | better |\n")
        f.write("|---|---|---:|---:|---:|---|\n")
        for status, name, b, c, delta_pct, direction in rows:
            icon = {"FAIL": "❌", "ok": "✅"}.get(status, "➖")
            b_s = "-" if b is None else f"{b:g}"
            c_s = "-" if c is None else f"{c:g}"
            d_s = "-" if delta_pct is None else f"{delta_pct:+.1f}%"
            f.write(f"| {icon} {status} | `{name}` | {b_s} | {c_s} | "
                    f"{d_s} | {direction} |\n")
        if failures:
            f.write(f"\n**Regression beyond {tolerance:g}% tolerance in: "
                    f"{', '.join(f'`{n}`' for n in failures)}**\n")
        else:
            f.write(f"\nNo regressions beyond the {tolerance:g}% "
                    f"tolerance.\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=20.0,
                    help="allowed regression in percent (default 20)")
    ap.add_argument("--summary", metavar="FILE",
                    help="also append a markdown table here "
                    "(default: $GITHUB_STEP_SUMMARY when set)")
    ap.add_argument("--efficiency-floor", type=float, metavar="FRAC",
                    help="absolute gate: on a multi-core machine, "
                    "sweep_efficiency_per_core of the current run must be "
                    ">= FRAC (independent of the baseline's core count)")
    ap.add_argument("--scaling-floor", type=float, metavar="FRAC",
                    help="absolute gate: every entry of the current run's "
                    "events_per_sec_vs_nodes table must be >= FRAC * the "
                    "smallest-cluster entry")
    ap.add_argument("--profile-overhead-max", type=float, metavar="PCT",
                    help="absolute gate: the current run's "
                    "profile_overhead_pct must be <= PCT")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)
    tol = args.tolerance / 100.0

    # Runs recorded under fault injection (a non-empty `faults` block, see
    # FAULTS.md) measure recovery behavior, not steady-state performance —
    # wall times include crashes, stragglers, and retries. Never gate on
    # them.
    for label, doc in (("baseline", base), ("current", cur)):
        if doc.get("faults"):
            print(f"SKIP all gates: {label} file was recorded under fault "
                  f"injection (non-empty 'faults' block)")
            return 0

    gated = dict(GATED)
    rows = []
    skip_reason = parallel_gating_reason(base, cur)
    if skip_reason is None:
        gated.update(PARALLEL_GATED)
    else:
        for name in PARALLEL_GATED:
            print(f"SKIP  {name}: {skip_reason}")
            rows.append(("SKIP", name, None, None, None, skip_reason))

    base_m, cur_m = base["metrics"], cur["metrics"]
    failures = []
    for name, direction in gated.items():
        if name not in base_m or name not in cur_m:
            print(f"SKIP  {name}: missing from one side")
            rows.append(("SKIP", name, None, None, None,
                         "missing from one side"))
            continue
        b, c = float(base_m[name]), float(cur_m[name])
        if b == 0:
            print(f"SKIP  {name}: baseline is zero")
            rows.append(("SKIP", name, b, c, None, "baseline is zero"))
            continue
        delta_pct = 100.0 * (c - b) / b
        if direction == "lower":
            bad = c > b * (1.0 + tol)
        else:
            bad = c < b * (1.0 - tol)
        status = "FAIL" if bad else "ok"
        print(f"{status:5} {name}: baseline={b:g} current={c:g} "
              f"({delta_pct:+.1f}%, {direction} is better)")
        rows.append((status, name, b, c, delta_pct, direction))
        if bad:
            failures.append(name)

    for name, direction in INFORMATIONAL.items():
        if name not in cur_m:
            continue
        c = float(cur_m[name])
        b = float(base_m[name]) if name in base_m else None
        delta_pct = 100.0 * (c - b) / b if b else None
        shown = "" if delta_pct is None else f" ({delta_pct:+.1f}%)"
        print(f"info  {name}: baseline={'-' if b is None else f'{b:g}'} "
              f"current={c:g}{shown}, {direction} is better, not gated")
        rows.append(("info", name, b, c, delta_pct,
                     f"{direction} (not gated)"))

    # Absolute parallel-efficiency floor: gates on the current machine
    # alone, so it still bites when the relative parallel gates skip.
    if args.efficiency_floor is not None:
        cur_cores = int(cur.get("hardware_concurrency", 0))
        eff = cur_m.get("sweep_efficiency_per_core")
        if cur_cores <= 1:
            print(f"SKIP  efficiency floor: single-core machine "
                  f"(hardware_concurrency={cur_cores})")
            rows.append(("SKIP", "sweep_efficiency_per_core(floor)", None,
                         None, None, "single-core machine"))
        elif eff is None:
            print("FAIL  efficiency floor: sweep_efficiency_per_core "
                  "missing from current file")
            rows.append(("FAIL", "sweep_efficiency_per_core(floor)", None,
                         None, None, "metric missing"))
            failures.append("sweep_efficiency_per_core(floor)")
        else:
            eff = float(eff)
            bad = eff < args.efficiency_floor
            status = "FAIL" if bad else "ok"
            print(f"{status:5} sweep_efficiency_per_core: {eff:g} "
                  f"(floor {args.efficiency_floor:g}, "
                  f"{cur_cores} cores, {int(cur.get('sweep_jobs', 0))} "
                  f"sweep jobs)")
            rows.append((status, "sweep_efficiency_per_core(floor)",
                         args.efficiency_floor, eff, None, "higher"))
            if bad:
                failures.append("sweep_efficiency_per_core(floor)")

    # Absolute self-profiler overhead ceiling: the observability pillar
    # that watches the simulator must never meaningfully slow it down.
    if args.profile_overhead_max is not None:
        pct = cur_m.get("profile_overhead_pct")
        if pct is None:
            print("FAIL  profile overhead max: profile_overhead_pct "
                  "missing from current file")
            rows.append(("FAIL", "profile_overhead_pct(max)", None,
                         None, None, "metric missing"))
            failures.append("profile_overhead_pct(max)")
        else:
            pct = float(pct)
            bad = pct > args.profile_overhead_max
            status = "FAIL" if bad else "ok"
            print(f"{status:5} profile_overhead_pct: {pct:g} "
                  f"(max {args.profile_overhead_max:g})")
            rows.append((status, "profile_overhead_pct(max)",
                         args.profile_overhead_max, pct, None, "lower"))
            if bad:
                failures.append("profile_overhead_pct(max)")

    # Recorder cost, observed / plain, on the steady-state 32 GB terasort
    # and on the Bigram aggressive tuning run. Informational only: a
    # trajectory to watch, not a gate.
    for row, prefix in (("observe_surcharge", "terasort_32gb"),
                        ("observe_surcharge_bigram", "bigram_aggressive")):
        plain = cur_m.get(f"{prefix}_wall_ms")
        observed = cur_m.get(f"{prefix}_observed_wall_ms")
        if plain and observed is not None:
            ratio = float(observed) / float(plain)
            print(f"info  {row}: {ratio:.3f} (observed {float(observed):g} "
                  f"ms / plain {float(plain):g} ms)")
            rows.append(("info", row, None, ratio, None,
                         "lower (not gated)"))

    # Scalebench gate: event throughput must not fall off a cliff as the
    # simulated cluster grows (the indexed hot paths' whole point).
    if args.scaling_floor is not None:
        table = cur_m.get("events_per_sec_vs_nodes")
        if not isinstance(table, dict) or len(table) < 2:
            print("FAIL  scaling floor: events_per_sec_vs_nodes table "
                  "missing or too small in current file")
            rows.append(("FAIL", "events_per_sec_vs_nodes(floor)", None,
                         None, None, "table missing"))
            failures.append("events_per_sec_vs_nodes(floor)")
        else:
            entries = sorted((int(k), float(v)) for k, v in table.items())
            anchor_nodes, anchor = entries[0]
            for nodes, rate in entries:
                ratio = rate / anchor if anchor > 0 else 0.0
                bad = ratio < args.scaling_floor
                status = "FAIL" if bad else "ok"
                name = f"events_per_sec@{nodes}nodes"
                print(f"{status:5} {name}: {rate:g} "
                      f"({ratio:.2f}x of {anchor_nodes}-node rate, "
                      f"floor {args.scaling_floor:g})")
                rows.append((status, name, anchor, rate,
                             100.0 * (ratio - 1.0), "higher"))
                if bad:
                    failures.append(name)

    for name in sorted(set(cur_m) - set(gated) - set(INFORMATIONAL)):
        if name == "events_per_sec_vs_nodes":
            continue
        print(f"info  {name}: {cur_m[name]}")

    summary = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        write_markdown_summary(summary, rows, args.tolerance, failures)

    if failures:
        print(f"\nperf regression >{args.tolerance:g}% in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print("\nno perf regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two rtnn_bench JSON reports and fail on median regressions.

CI regression gate: given a checked-in baseline (bench/baseline.json) and a
fresh report from `rtnn_bench --json`, compare the median of every timing
present in both, keyed by (case name, timing name). Exit non-zero when any
timing's median regresses by more than --threshold (default 30%).

Two noise guards for shared CI runners:
  * only timings above the --min-seconds floor in both reports are gated —
    sub-millisecond medians are dominated by scheduler jitter, not code;
  * a median regression only fails when the min regresses past the
    threshold too. A real slowdown raises every sample including the min;
    transient contamination (a neighbor stealing the core for one repeat)
    inflates the median while the min stays put.

New/removed timings are reported but never fail the gate (new cases must
be able to land, and the baseline is refreshed deliberately).

Stdlib only; schema is documented in src/bench/report.hpp.
"""

import argparse
import json
import sys

SUPPORTED_SCHEMA = 1


def load_report(path):
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    version = report.get("schema_version")
    if version != SUPPORTED_SCHEMA:
        sys.exit(
            f"bench_compare: {path} has schema_version {version!r}, "
            f"this script understands {SUPPORTED_SCHEMA}"
        )
    return report


def index_timings(report):
    """{(case_name, timing_name): (median_seconds, min_seconds)} for ok cases."""
    timings = {}
    for case in report.get("cases", []):
        if case.get("status") != "ok":
            continue
        for timing in case.get("timings", []):
            timings[(case["name"], timing["name"])] = (
                float(timing["median"]),
                float(timing["min"]),
            )
    return timings


# The serving.multi_tenant.* overload case publishes its verdict as
# scalars rather than stage times; surface them in the same informational
# breakdown so an admission-policy change is read next to its latencies.
# The serving.deadline.* robustness case contributes the same way: p99
# with deadlines on/off and the deadline-miss share under overload.
ADMISSION_METRICS = frozenset(
    {
        "queued_p99_ms",
        "admitted_p99_ms",
        "shed_share",
        "p99_ratio",
        "deadline_p99_on_ms",
        "deadline_p99_off_ms",
        "deadline_miss_share",
    }
)

# The two-level tiled index publishes its per-frame locality as scalars
# (dynamic.tiled emits them as ``tiled.*``): the touched-tile fraction is
# the headline — how little of the index a frame of localized motion
# actually paid for — next to the tile count, the lazy build-on-first-route
# count, and the resident tile index bytes.
TILED_METRIC_PREFIX = "tiled."


def index_stage_metrics(report):
    """{(case_name, metric_name): value} for breakdown metrics.

    Any case may publish a TimeBreakdown as metrics named
    ``*stage.<phase>`` (plus ``*stage.launches``); pairing the two
    reports' values attributes a wall-clock delta to its phase — e.g.
    reorder cost showing up in stage.opt against a larger win in
    stage.search. The serving cases emit the shape per tenant
    (``whole.stage.*`` / ``tiles.stage.*``), fig11 emits it per dataset
    for the rtnn backend (``knn.rtnn.<ds>.stage.*``), and the
    multi-tenant overload case (serving.multi_tenant.*) contributes its
    admission scalars (ADMISSION_METRICS), and the tiled-index cases
    contribute their per-tile locality scalars (``tiled.*``).
    """
    metrics = {}
    for case in report.get("cases", []):
        if case.get("status") != "ok":
            continue
        for metric in case.get("metrics", []):
            if (
                "stage." in metric["name"]
                or metric["name"].startswith(TILED_METRIC_PREFIX)
                or (
                    case["name"].startswith("serving.")
                    and metric["name"] in ADMISSION_METRICS
                )
            ):
                metrics[(case["name"], metric["name"])] = float(metric["value"])
    return metrics


def print_stage_breakdown(baseline, current):
    """Informational per-stage deltas; never gates."""
    base_metrics = index_stage_metrics(baseline)
    cur_metrics = index_stage_metrics(current)
    common = sorted(set(base_metrics) & set(cur_metrics))
    if not common:
        return
    print()
    print("per-stage / admission breakdown (informational, not gated):")
    print(f"{'case':<24} {'stage':<20} {'base':>12} {'cur':>12} {'delta':>8}")
    for key in common:
        base = base_metrics[key]
        cur = cur_metrics[key]
        delta = (cur - base) / base if base > 0 else 0.0
        print(
            f"{key[0]:<24} {key[1]:<20} {base:>12.5f} {cur:>12.5f} {delta:>+7.1%}"
        )
    for key in sorted(set(cur_metrics) - set(base_metrics)):
        print(f"note: new stage metric not in baseline: {key[0]}/{key[1]}")


def print_hotspot_attribution(baseline, current, moved, threshold):
    """PerFlow-style attribution: for each case whose timing moved past the
    threshold, name which TimeBreakdown stage moved the most.

    ``moved`` is the list of (case, timing, base, cur, delta) tuples the
    gate flagged (regressions and improvements). For every such case that
    also publishes ``<workload>.stage.<phase>`` metrics, the stage whose
    absolute seconds changed the most is named as the dominant mover —
    attributing the wall-clock delta to a pipeline phase instead of
    leaving it a single opaque number. Informational only; never gates.
    """
    if not moved:
        return
    base_metrics = index_stage_metrics(baseline)
    cur_metrics = index_stage_metrics(current)
    moved_cases = sorted({case for case, *_ in moved})
    # Group the stage metrics of each moved case by workload prefix
    # (the text before ".stage."; "stage.x" with no prefix groups as "").
    printed_header = False
    for case_name in moved_cases:
        workloads = {}
        for (case, metric), base_v in base_metrics.items():
            if case != case_name or "stage." not in metric:
                continue
            if (case, metric) not in cur_metrics:
                continue
            prefix, _, phase = metric.rpartition("stage.")
            if phase == "launches":
                continue
            workloads.setdefault(prefix.rstrip("."), []).append(
                (phase, base_v, cur_metrics[(case, metric)])
            )
        for workload, phases in sorted(workloads.items()):
            movers = sorted(
                ((cur_v - base_v, phase, base_v, cur_v) for phase, base_v, cur_v in phases),
                key=lambda m: abs(m[0]),
                reverse=True,
            )
            total_delta = sum(m[0] for m in movers)
            if not movers or abs(movers[0][0]) == 0.0:
                continue
            if not printed_header:
                print()
                print(
                    "hotspot attribution for timings moved past "
                    f"{threshold:.0%} (informational, not gated):"
                )
                printed_header = True
            delta, phase, base_v, cur_v = movers[0]
            share = delta / total_delta if total_delta else float("nan")
            print(
                f"  {case_name} [{workload or 'total'}]: dominant mover is "
                f"stage.{phase} ({base_v:.5f}s -> {cur_v:.5f}s, "
                f"{delta:+.5f}s, {share:.0%} of the net stage delta)"
            )


def failed_cases(report):
    return [c["name"] for c in report.get("cases", []) if c.get("status") != "ok"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in baseline report")
    parser.add_argument("current", help="freshly measured report")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="max allowed median regression as a fraction (default 0.30 = +30%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=1e-3,
        help="ignore timings whose medians are below this in both reports "
        "(noise floor, default 1e-3)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="after printing the comparison, rewrite BASELINE from CURRENT "
        "and exit 0 — re-anchors the gate after a deliberate perf change "
        "instead of hand-editing the checked-in report",
    )
    args = parser.parse_args()

    baseline = load_report(args.baseline)
    current = load_report(args.current)

    # Absolute-time comparison only means something when the measurement
    # conditions agree; warn loudly when they don't, before any median is
    # compared, so a gate failure (or pass) is read in context.
    for key in ("build_type", "compiler"):
        base_v = baseline.get("environment", {}).get(key)
        cur_v = current.get("environment", {}).get(key)
        if base_v != cur_v:
            print(
                f"WARNING: environment mismatch on {key!r}: "
                f"baseline={base_v!r} current={cur_v!r} — deltas include a "
                "machine/configuration component"
            )

    def report_threads(report):
        # `--threads` records the resolved worker count in options; older
        # reports only carry it in the environment block.
        options_threads = report.get("options", {}).get("threads")
        if options_threads:
            return options_threads
        return report.get("environment", {}).get("threads")

    if report_threads(baseline) != report_threads(current):
        print(
            f"WARNING: measurement options mismatch on 'threads': "
            f"baseline={report_threads(baseline)!r} "
            f"current={report_threads(current)!r} — medians are not "
            "directly comparable"
        )
    for key in ("scale", "repeats", "warmup"):
        base_v = baseline.get("options", {}).get(key)
        cur_v = current.get("options", {}).get(key)
        if base_v != cur_v:
            print(
                f"WARNING: measurement options mismatch on {key!r}: "
                f"baseline={base_v!r} current={cur_v!r} — medians are not "
                "directly comparable"
            )

    broken = failed_cases(current)
    if broken:
        print(f"FAIL: cases did not complete: {', '.join(broken)}")
        return 1

    base_timings = index_timings(baseline)
    cur_timings = index_timings(current)
    common = sorted(set(base_timings) & set(cur_timings))
    missing = sorted(set(base_timings) - set(cur_timings))
    new = sorted(set(cur_timings) - set(base_timings))

    regressions = []
    improvements = []
    skipped = 0
    print(f"{'case':<16} {'timing':<32} {'base[s]':>12} {'cur[s]':>12} {'delta':>8}")
    for key in common:
        base, base_min = base_timings[key]
        cur, cur_min = cur_timings[key]
        if base < args.min_seconds and cur < args.min_seconds:
            skipped += 1
            continue
        delta = (cur - base) / base if base > 0 else 0.0
        delta_min = (cur_min - base_min) / base_min if base_min > 0 else 0.0
        marker = ""
        if delta > args.threshold and delta_min > args.threshold:
            regressions.append((key, base, cur, delta))
            marker = "  << REGRESSION"
        elif delta > args.threshold:
            marker = "  (median noise: min held)"
        elif delta < -args.threshold:
            improvements.append((key, base, cur, delta))
            marker = "  (improved)"
        print(
            f"{key[0]:<16} {key[1]:<32} {base:>12.4f} {cur:>12.4f} "
            f"{delta:>+7.1%}{marker}"
        )

    print()
    print(
        f"compared {len(common)} timings "
        f"({skipped} below the {args.min_seconds}s noise floor skipped)"
    )
    for key in missing:
        print(f"note: timing gone from current report: {key[0]}/{key[1]}")
    for key in new:
        print(f"note: new timing not in baseline: {key[0]}/{key[1]}")
    if improvements:
        print(f"{len(improvements)} timings improved past the threshold — "
              "consider refreshing bench/baseline.json")
    print_stage_breakdown(baseline, current)
    moved = [(case, timing, base, cur, delta)
             for (case, timing), base, cur, delta in regressions + improvements]
    print_hotspot_attribution(baseline, current, moved, args.threshold)

    if args.update_baseline:
        rewritten = dict(current)
        rewritten["tag"] = "baseline"
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(rewritten, f, indent=2)
            f.write("\n")
        print(f"updated {args.baseline} from {args.current} "
              f"({len(cur_timings)} timings)")
        return 0

    if not common:
        print("FAIL: no comparable timings between the two reports")
        return 1
    if regressions:
        print(f"\nFAIL: {len(regressions)} median regression(s) beyond "
              f"+{args.threshold:.0%}:")
        for (case, timing), base, cur, delta in regressions:
            print(f"  {case}/{timing}: {base:.4f}s -> {cur:.4f}s ({delta:+.1%})")
        return 1
    print("OK: no median regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bench regression gate: compare a fresh micro-bench run against the
committed baseline (BENCH_lsvd.json).

Usage:
    scripts/bench_gate.py [--fresh PATH] [--baseline PATH] [--tolerance X]

Without --fresh, runs the suite in quick mode (LSVD_BENCH_QUICK=1) and
writes its JSON to a temp file first. Only the data-plane hot-path
benchmarks are gated — `crc32c/*`, `wlog/append/*`, `volume/write/4K`,
the read-plane hit paths `volume/randread_4K_hit` and `rcache/hit_4K`,
and `telemetry/span_record` — because those are the numbers the
zero-copy write path, the accelerated CRC kernel, the lock-split read
plane, and the span ring are accountable for. Everything else in the
suite (socket-bound NBD round trips, the scan-pollution pair) is
informational.

The tracing on/off pair (`nbd/randread_4K_tracing_on` vs `_off`) is
gated as a *ratio*, not an absolute: the committed baseline must show
tracing-on within 1.05x of tracing-off (the <5% overhead bound the
observability plane promises), and a fresh run must stay within
--pair-tolerance (default 1.5x — quick-mode loopback sockets are too
noisy for the strict bound, but a genuine hot-path regression such as
span recording on the disabled path still trips it).

Two GC ratio gates ride the same mechanism:

- `gc/cleaning_copies_costbenefit` vs `_greedy` compares *copied
  sectors* (`elements_per_iter`), not time. The seeded skewed workload
  is deterministic, so both runs must show cost-benefit copying at most
  0.95x of greedy's sectors — the "measurably lower cleaning write
  amplification" contract, gated exactly (no noise tolerance needed).
- `gc/write_4K_churn_gc_on` vs `_off` holds the cleaner's foreground
  tax: mean write cost with the budgeted cleaner active must stay
  within 3x of the GC-off baseline in both files.

One exact count gate: `gc/collect_fragmented_victims` declares the
backend GETs one cleaning pass issues over 16 victims of 8 live pieces
each as `elements_per_iter` (deterministic). Both files must show at
most 2 GETs per victim — one header GET and one coalesced data GET —
not one GET per live piece.

The fleet scaling gate (`fleet/aggregate_write_4K_64vol` vs `_1vol`)
divides the 64-tenant per-iteration time by 64 to get per-op cost: the
committed baseline must show 64-tenant aggregate throughput at >= 0.85x
of single-tenant (per-op cost <= 1/0.85). Fresh quick runs get a
noise-tolerant 4x bound: the quick budget fits only a couple of 64-vol
iterations, so cold caches and first-touch page faults dominate its
side of the ratio.

Two serving-plane bars ride the same pair mechanism:

- `nbd/randread_4K_loopback` vs `nbd/loopback_floor_4K` (a bare
  loopback TCP exchange shaped like a 4K NBD read) compares *p50*: a
  read-cache hit served over NBD must cost at most 2x the socket floor
  in the committed baseline.
- `fleet/conn_scale_512` vs `fleet/conn_scale_64` compares mean
  ns_per_iter: one round trip with 512 idle connections open must cost
  at most 1.3x the same with 64 in the committed baseline.

Fresh quick runs get noise-tolerant bounds (3x and 2x): their loopback
round trips run a few thousand iterations on a shared host.

A benchmark fails the gate when its fresh ns_per_iter exceeds
baseline * tolerance (default 2x: quick mode on shared CI runners is
noisy, so the gate only catches order-of-magnitude regressions such as
the dispatch silently falling back to the bitwise path or the wlog
re-growing its per-append allocation). Benchmarks present in only one
file are reported but do not fail the gate, so adding a new benchmark
does not require regenerating the baseline in the same change.

Exit status: 0 = within tolerance, 1 = regression, 2 = usage/run error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

GATED_PREFIXES = ("crc32c/", "wlog/append/")
GATED_EXACT = (
    "volume/write/4K",
    "volume/randread_4K_hit",
    "rcache/hit_4K",
    "telemetry/span_record",
)

# Tracing must stay nearly free on the serving hot path: the committed
# baseline pair proves the overhead bound (<5%), while fresh quick runs
# over a loopback socket get a noise-tolerant bound.
TRACING_PAIR = ("nbd/randread_4K_tracing_on", "nbd/randread_4K_tracing_off")
BASELINE_PAIR_BOUND = 1.05

# Cost-benefit must copy measurably fewer sectors than greedy on the
# seeded skewed-churn workload. The comparison is over elements_per_iter
# (sectors copied by cleaning — deterministic, not a timing), so the
# bound applies to baseline and fresh runs alike.
GC_POLICY_PAIR = ("gc/cleaning_copies_costbenefit", "gc/cleaning_copies_greedy")
GC_POLICY_BOUND = 0.95

# The budgeted cleaner's foreground tax: mean 4K overwrite cost with the
# cleaner active vs the GC-off baseline (timing ratio, noise-tolerant).
GC_CHURN_PAIR = ("gc/write_4K_churn_gc_on", "gc/write_4K_churn_gc_off")
GC_CHURN_BOUND = 3.0

# The cleaner reads each victim with coalesced ranged GETs: at most one
# header GET and one data GET per victim (elements_per_iter is the GET
# count of one pass, deterministic). FRAG_VICTIMS matches the bench.
GC_READS = "gc/collect_fragmented_victims"
FRAG_VICTIMS = 16
GC_READS_BOUND = 2 * FRAG_VICTIMS

# Fleet aggregate scaling: the 64-tenant bench writes one 4K block on
# every tenant per iteration, so ns_per_iter / 64 is its per-op cost.
# Aggregate throughput with 64 tenants on one reactor must stay >= 0.85x
# of single-tenant throughput in the committed baseline (per-op cost
# within 1/0.85); fresh quick runs get a noise-tolerant bound.
FLEET_PAIR = ("fleet/aggregate_write_4K_64vol", "fleet/aggregate_write_4K_1vol")
FLEET_VOLS = 64
FLEET_BASELINE_BOUND = 1 / 0.85
FLEET_FRESH_BOUND = 4.0

# Serving-plane bars: an NBD read-cache hit within 2x of the bare
# loopback floor (p50), and the reactor's per-round cost flat in idle
# connections (512 vs 64, mean). Strict on the committed baseline,
# noise-tolerant on fresh quick runs.
READ_FLOOR_PAIR = ("nbd/randread_4K_loopback", "nbd/loopback_floor_4K")
READ_FLOOR_BASELINE_BOUND = 2.0
READ_FLOOR_FRESH_BOUND = 3.0
CONN_SCALE_PAIR = ("fleet/conn_scale_512", "fleet/conn_scale_64")
CONN_SCALE_BASELINE_BOUND = 1.3
CONN_SCALE_FRESH_BOUND = 2.0

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def is_gated(name: str) -> bool:
    return name.startswith(GATED_PREFIXES) or name in GATED_EXACT


def tracing_pair_ratio(results: dict):
    on, off = TRACING_PAIR
    if on in results and off in results:
        return results[on]["ns_per_iter"] / results[off]["ns_per_iter"]
    return None


def pair_ratio(results: dict, pair, field: str):
    a, b = pair
    if a in results and b in results and results[b].get(field):
        return results[a][field] / results[b][field]
    return None


def check_pair(failures, results, label, pair, field, bound, required):
    """Gates results[pair[0]][field] / results[pair[1]][field] <= bound."""
    ratio = pair_ratio(results, pair, field)
    if ratio is None:
        if required:
            failures.append((label + " missing", 0.0, 0.0, float("inf")))
            print(f"{label}: pair missing")
        return
    verdict = ""
    if ratio > bound:
        failures.append((label, bound, ratio, ratio))
        verdict = "  REGRESSION"
    print(f"{label:<28} bound {bound:.2f}x  measured {ratio:>6.2f}x{verdict}")


def check_count(failures, results, label, name, bound, required):
    """Gates results[name]["elements_per_iter"] <= bound (an exact count)."""
    count = results.get(name, {}).get("elements_per_iter")
    if count is None:
        if required:
            failures.append((label + " missing", 0.0, 0.0, float("inf")))
            print(f"{label}: missing")
        return
    verdict = ""
    if count > bound:
        failures.append((label, bound, count, count / bound))
        verdict = "  REGRESSION"
    print(f"{label:<28} bound {bound:>5}   measured {count:>6}{verdict}")


def fleet_ratio(results: dict):
    """Per-op cost ratio of the 64-tenant aggregate vs single-tenant."""
    many, one = FLEET_PAIR
    if many in results and one in results and results[one].get("ns_per_iter"):
        return results[many]["ns_per_iter"] / FLEET_VOLS / results[one]["ns_per_iter"]
    return None


def check_fleet(failures, results, label, bound, required):
    ratio = fleet_ratio(results)
    if ratio is None:
        if required:
            failures.append((label + " missing", 0.0, 0.0, float("inf")))
            print(f"{label}: pair missing")
        return
    verdict = ""
    if ratio > bound:
        failures.append((label, bound, ratio, ratio))
        verdict = "  REGRESSION"
    print(f"{label:<28} bound {bound:.2f}x  measured {ratio:>6.2f}x{verdict}")


def load_results(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("suite") != "lsvd-microbench":
        sys.exit(f"error: {path} is not an lsvd-microbench result file")
    return {r["name"]: r for r in doc["results"]}


def run_quick_suite() -> str:
    out = os.path.join(tempfile.mkdtemp(prefix="bench-gate-"), "fresh.json")
    env = dict(os.environ, LSVD_BENCH_QUICK="1", LSVD_BENCH_JSON=out)
    print(f"running quick bench suite -> {out}", flush=True)
    proc = subprocess.run(
        ["cargo", "bench", "-p", "bench", "--bench", "micro"],
        cwd=REPO,
        env=env,
    )
    if proc.returncode != 0:
        sys.exit(2)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", help="bench JSON to check (default: run quick suite)")
    ap.add_argument(
        "--baseline",
        default=os.path.join(REPO, "BENCH_lsvd.json"),
        help="committed baseline JSON (default: BENCH_lsvd.json)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="allowed ns_per_iter ratio vs baseline (default: 2.0)",
    )
    ap.add_argument(
        "--pair-tolerance",
        type=float,
        default=1.5,
        help="allowed tracing-on/off ratio in the fresh run (default: 1.5; "
        "the committed baseline pair is always held to "
        f"{BASELINE_PAIR_BOUND}x)",
    )
    args = ap.parse_args()

    fresh_path = args.fresh or run_quick_suite()
    baseline = load_results(args.baseline)
    fresh = load_results(fresh_path)

    failures = []
    print(f"{'benchmark':<28} {'baseline ns':>12} {'fresh ns':>12} {'ratio':>7}")
    for name in sorted(n for n in baseline if is_gated(n)):
        base_ns = baseline[name]["ns_per_iter"]
        if name not in fresh:
            print(f"{name:<28} {base_ns:>12.2f} {'missing':>12} {'-':>7}")
            continue
        fresh_ns = fresh[name]["ns_per_iter"]
        ratio = fresh_ns / base_ns if base_ns else float("inf")
        verdict = ""
        if ratio > args.tolerance:
            failures.append((name, base_ns, fresh_ns, ratio))
            verdict = "  REGRESSION"
        print(f"{name:<28} {base_ns:>12.2f} {fresh_ns:>12.2f} {ratio:>6.2f}x{verdict}")
    for name in sorted(n for n in fresh if is_gated(n) and n not in baseline):
        print(f"{name:<28} {'(new)':>12} {fresh[name]['ns_per_iter']:>12.2f} {'-':>7}")

    base_pair = tracing_pair_ratio(baseline)
    if base_pair is None:
        failures.append(("tracing pair (baseline)", 0.0, 0.0, float("inf")))
        print("tracing on/off pair missing from baseline")
    else:
        verdict = ""
        if base_pair > BASELINE_PAIR_BOUND:
            failures.append(
                ("tracing pair (baseline)", BASELINE_PAIR_BOUND, base_pair, base_pair)
            )
            verdict = "  REGRESSION"
        print(
            f"tracing on/off (baseline)    bound {BASELINE_PAIR_BOUND:.2f}x"
            f"  measured {base_pair:>6.2f}x{verdict}"
        )
    fresh_pair = tracing_pair_ratio(fresh)
    if fresh_pair is not None:
        verdict = ""
        if fresh_pair > args.pair_tolerance:
            failures.append(
                ("tracing pair (fresh)", args.pair_tolerance, fresh_pair, fresh_pair)
            )
            verdict = "  REGRESSION"
        print(
            f"tracing on/off (fresh)       bound {args.pair_tolerance:.2f}x"
            f"  measured {fresh_pair:>6.2f}x{verdict}"
        )

    # GC gates: the policy pair is deterministic (sectors copied), so it
    # is required and exact in both files; the churn pair is a timing
    # ratio held to a loose bound in both files.
    for label, results, required in [
        ("gc policy WA (baseline)", baseline, True),
        ("gc policy WA (fresh)", fresh, False),
    ]:
        check_pair(
            failures, results, label, GC_POLICY_PAIR, "elements_per_iter",
            GC_POLICY_BOUND, required,
        )
    for label, results, required in [
        ("gc churn tax (baseline)", baseline, True),
        ("gc churn tax (fresh)", fresh, False),
    ]:
        check_pair(
            failures, results, label, GC_CHURN_PAIR, "ns_per_iter",
            GC_CHURN_BOUND, required,
        )

    for label, results, required in [
        ("gc victim GETs (baseline)", baseline, True),
        ("gc victim GETs (fresh)", fresh, False),
    ]:
        check_count(failures, results, label, GC_READS, GC_READS_BOUND, required)

    for label, results, field, pair, bound, required in [
        ("nbd hit/floor p50 (baseline)", baseline, "p50_ns", READ_FLOOR_PAIR,
         READ_FLOOR_BASELINE_BOUND, True),
        ("nbd hit/floor p50 (fresh)", fresh, "p50_ns", READ_FLOOR_PAIR,
         READ_FLOOR_FRESH_BOUND, False),
        ("conn 512/64 (baseline)", baseline, "ns_per_iter", CONN_SCALE_PAIR,
         CONN_SCALE_BASELINE_BOUND, True),
        ("conn 512/64 (fresh)", fresh, "ns_per_iter", CONN_SCALE_PAIR,
         CONN_SCALE_FRESH_BOUND, False),
    ]:
        check_pair(failures, results, label, pair, field, bound, required)

    # Fleet scaling gate: per-op cost at 64 tenants vs 1, strict on the
    # committed baseline, noise-tolerant on fresh quick runs.
    check_fleet(
        failures, baseline, "fleet 64v/1v (baseline)", FLEET_BASELINE_BOUND, True
    )
    check_fleet(failures, fresh, "fleet 64v/1v (fresh)", FLEET_FRESH_BOUND, False)

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond {args.tolerance}x:")
        for name, base_ns, fresh_ns, ratio in failures:
            print(f"  {name}: {base_ns:.2f} ns -> {fresh_ns:.2f} ns ({ratio:.2f}x)")
        return 1
    print("\nbench gate: all gated benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

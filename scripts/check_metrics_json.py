#!/usr/bin/env python3
"""Validate the metrics records in a BENCH_*.json artifact.

Usage: check_metrics_json.py [--serving] [--memory N] [--compose-p95 RATIO]
       BENCH_query_kernel.json

Checks, in order:
  1. the file is a JSON array whose first record is build provenance,
  2. it contains at least one {"record": "metric", "type": "histogram"}
     record carrying count / mean_ns / p50_ns / p95_ns / p99_ns / max_ns
     with sane ordering (p50 <= p95 <= p99 <= max, count > 0),
  3. counter metric records carry a non-negative integer value,
  4. if a {"record": "metrics_overhead"} record is present, it carries
     ns_per_probe_metrics_on / ns_per_probe_metrics_off / overhead_ratio.

With --serving (for BENCH_serving.json), additionally:
  5. a nonzero serve.shed counter record is present (the resilience phase
     actually exercised admission control),
  6. at least one nonzero serve.breaker.* counter record is present,
     including serve.breaker.opened AND serve.breaker.reclosed (a breaker
     observably tripped and recovered),
  7. a {"record": "resilience"} summary exists with "recovered": true,
  8. a nonzero serve.compose.probes counter record is present and no
     serve.fallback* counter exists at all — cross-shard probes are
     composed over the boundary skeleton, not silently routed through a
     resurrected whole-graph fallback tier,
  9. every {"record": "community"} and mode record with telemetry agrees
     ("agree": true),
 10. row-build conservation: when serve.compose.table_builds > 0, a
     serve.compose.row_states record exists and is >= table_builds — every
     row-build DFS visits at least its start state, so fewer states than
     builds means a build went uncounted or the counter stopped being
     exported,
 11. tier conservation: every mode record carrying routing telemetry
     (intra_true) has intra_true + cross_refuted + compose_probes == probes
     (and queries == probes when it reports queries) — on the fault-free
     throughput phases every probe ends in exactly one tier,
 12. one router: the scalar_service and batched_service mode records exist
     and carry identical tier counts (queries, intra_true, intra_miss,
     cross_refuted, compose_probes) — ShardedRlcService::Query is a
     one-probe Execute, so the two modes cannot route a probe differently.

With --compose-p95 RATIO (nightly, for BENCH_serving.json), additionally:
 13. both {"record": "compose_p95"} policies (hash, range_ordered) exist
     with samples, and p95(hash) <= RATIO * p95(range_ordered) — the
     composed-probe tail under the composition-heavy hash partitioning
     stays within RATIO of the locality-friendly policy at equal shard
     count.

With --memory N (for BENCH_serving.json from an N-shard run), additionally:
  14. a {"record": "memory"} summary exists whose
      aggregate_shard_index_bytes / whole_index_bytes <= 1.3 / N — the
      sharded deployment actually divides index memory instead of
      duplicating it.

Exit status 0 on success; 1 with a one-line reason otherwise. The CI
metrics smoke step runs this against BENCH_query_kernel.json (and, with
--serving, BENCH_serving.json) so a refactor cannot silently stop
exporting the registry — or the fault-handling counters — into the bench
artifacts. The nightly memory-acceptance step runs --memory against the
20K-vertex bench artifact.
"""

import json
import sys


def fail(reason: str) -> None:
    print(f"FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def check_serving(path: str, records: list) -> None:
    """Fault-handling telemetry checks for BENCH_serving.json."""
    counters = {}
    for rec in records:
        if rec.get("record") == "metric" and rec.get("type") == "counter":
            counters[rec.get("metric")] = rec.get("value", 0)

    if counters.get("serve.shed", 0) <= 0:
        fail(f"{path}: no nonzero serve.shed counter "
             "(resilience phase did not shed)")
    breaker = {k: v for k, v in counters.items()
               if k.startswith("serve.breaker.") and v > 0}
    if not breaker:
        fail(f"{path}: no nonzero serve.breaker.* counters")
    for required in ("serve.breaker.opened", "serve.breaker.reclosed"):
        if counters.get(required, 0) <= 0:
            fail(f"{path}: {required} is zero — breaker never "
                 "observably tripped and recovered")

    summaries = [r for r in records if r.get("record") == "resilience"]
    if not summaries:
        fail(f"{path}: no resilience summary record")
    for rec in summaries:
        if rec.get("recovered") is not True:
            fail(f"{path}: resilience summary reports recovered="
                 f"{rec.get('recovered')!r}")

    # Composition is the only cross-shard tier: its counters must be live
    # and nothing may reintroduce a fallback metric under any name.
    if counters.get("serve.compose.probes", 0) <= 0:
        fail(f"{path}: serve.compose.probes is zero — cross-shard "
             "composition was bypassed")
    fallback = [k for k in counters if "fallback" in k]
    if fallback:
        fail(f"{path}: fallback counters present ({', '.join(fallback)}) — "
             "the whole-graph fallback tier must stay deleted")
    for rec in records:
        if rec.get("record") in ("community",) or "agree" in rec:
            if rec.get("agree") is not True:
                fail(f"{path}: record {rec.get('record') or rec.get('mode')!r} "
                     "disagrees with the whole-graph oracle")

    # Row-build conservation, per registry (records carry their source):
    # every row-build DFS visits at least its start state.
    by_source = {}
    for rec in records:
        if rec.get("record") == "metric" and rec.get("type") == "counter":
            by_source.setdefault(rec.get("source"), {})[rec.get("metric")] = \
                rec.get("value", 0)
    for source, values in sorted(by_source.items(), key=lambda kv: str(kv[0])):
        builds = values.get("serve.compose.table_builds", 0)
        if builds <= 0:
            continue
        states = values.get("serve.compose.row_states")
        if states is None or states < builds:
            fail(f"{path}: source {source!r} has serve.compose.table_builds="
                 f"{builds} but serve.compose.row_states={states} — every "
                 "row build visits at least its start state")

    # Tier conservation per mode record, and one router for both service
    # modes.
    tiers = ("queries", "intra_true", "intra_miss", "cross_refuted",
             "compose_probes")
    modes = {}
    for rec in records:
        if "mode" not in rec or "intra_true" not in rec:
            continue
        mode = rec["mode"]
        modes[mode] = rec
        probes = rec.get("probes")
        ended = (rec["intra_true"] + rec.get("cross_refuted", 0)
                 + rec.get("compose_probes", 0))
        if ended != probes:
            fail(f"{path}: mode {mode!r} has intra_true + cross_refuted + "
                 f"compose_probes = {ended}, but probes = {probes!r}")
        if "queries" in rec and rec["queries"] != probes:
            fail(f"{path}: mode {mode!r} has queries = {rec['queries']}, "
                 f"but probes = {probes!r}")
    for required in ("scalar_service", "batched_service"):
        if required not in modes:
            fail(f"{path}: no {required!r} mode record with routing telemetry")
    for tier in tiers:
        scalar = modes["scalar_service"].get(tier)
        batched = modes["batched_service"].get(tier)
        if scalar != batched:
            fail(f"{path}: scalar_service {tier}={scalar!r} but "
                 f"batched_service {tier}={batched!r} — Query and Execute "
                 "must route through one path")

    compose = {k: v for k, v in counters.items()
               if k.startswith("serve.compose.") and v > 0}
    print(f"serving: shed={counters['serve.shed']}, "
          + ", ".join(f"{k.removeprefix('serve.breaker.')}={v}"
                      for k, v in sorted(breaker.items()))
          + "; " + ", ".join(f"{k.removeprefix('serve.')}={v}"
                             for k, v in sorted(compose.items())))


def check_compose_p95(path: str, records: list, ratio: float) -> None:
    """Nightly gate: composed-probe p95 under hash partitioning stays
    within `ratio` of range_ordered at equal shard count."""
    p95 = {}
    for rec in records:
        if rec.get("record") != "compose_p95":
            continue
        if rec.get("samples", 0) <= 0:
            fail(f"{path}: compose_p95 record for {rec.get('policy')!r} "
                 "has no histogram samples")
        p95[rec.get("policy")] = rec.get("p95_ns", 0)
    for policy in ("hash", "range_ordered"):
        if policy not in p95:
            fail(f"{path}: no compose_p95 record for policy {policy!r}")
    if p95["range_ordered"] <= 0:
        fail(f"{path}: compose_p95 for range_ordered is {p95['range_ordered']}")
    actual = p95["hash"] / p95["range_ordered"]
    if actual > ratio:
        fail(f"{path}: composed-probe p95 under hash is {actual:.2f}x "
             f"range_ordered ({p95['hash']} vs {p95['range_ordered']} ns); "
             f"bound is {ratio:.2f}x")
    print(f"compose_p95: hash {p95['hash']} ns vs range_ordered "
          f"{p95['range_ordered']} ns = {actual:.2f}x (bound {ratio:.2f}x)")


def check_memory(path: str, records: list, num_shards: int) -> None:
    """The ~1/N memory-scaling acceptance gate for BENCH_serving.json."""
    memory = [r for r in records if r.get("record") == "memory"]
    if not memory:
        fail(f"{path}: no memory record")
    bound = 1.3 / num_shards
    for rec in memory:
        whole = rec.get("whole_index_bytes", 0)
        shard = rec.get("aggregate_shard_index_bytes", 0)
        if whole <= 0:
            fail(f"{path}: memory record has whole_index_bytes={whole!r}")
        ratio = shard / whole
        if ratio > bound:
            fail(f"{path}: aggregate shard index bytes {shard} is "
                 f"{ratio:.3f}x the whole-graph index {whole}; bound for "
                 f"{num_shards} shards is {bound:.3f}x")
        print(f"memory: {num_shards} shards at {ratio:.3f}x whole-graph "
              f"index ({shard}/{whole} bytes, bound {bound:.3f}x)")


def main() -> None:
    argv = sys.argv[1:]
    serving = "--serving" in argv
    memory_shards = None
    compose_p95_ratio = None
    args = []
    i = 0
    while i < len(argv):
        if argv[i] == "--serving":
            pass
        elif argv[i] == "--memory":
            i += 1
            if i >= len(argv) or not argv[i].isdigit() or int(argv[i]) < 1:
                fail("--memory requires a positive shard count")
            memory_shards = int(argv[i])
        elif argv[i] == "--compose-p95":
            i += 1
            try:
                compose_p95_ratio = float(argv[i]) if i < len(argv) else 0.0
            except ValueError:
                compose_p95_ratio = 0.0
            if compose_p95_ratio <= 0:
                fail("--compose-p95 requires a positive ratio")
        else:
            args.append(argv[i])
        i += 1
    if len(args) != 1:
        fail("usage: check_metrics_json.py [--serving] [--memory N] "
             "[--compose-p95 RATIO] <BENCH_*.json>")
    path = args[0]
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    if not isinstance(records, list) or not records:
        fail(f"{path}: expected a non-empty JSON array")
    if records[0].get("record") != "provenance":
        fail(f"{path}: first record is not build provenance")

    histograms = 0
    counters = 0
    for i, rec in enumerate(records):
        if rec.get("record") != "metric":
            continue
        name = rec.get("metric", f"#{i}")
        kind = rec.get("type")
        if kind == "histogram":
            for key in ("count", "mean_ns", "p50_ns", "p95_ns", "p99_ns",
                        "max_ns"):
                if key not in rec:
                    fail(f"{path}: histogram {name} missing {key}")
            if rec["count"] <= 0:
                fail(f"{path}: histogram {name} has count {rec['count']}")
            if not (rec["p50_ns"] <= rec["p95_ns"] <= rec["p99_ns"]
                    <= rec["max_ns"]):
                fail(f"{path}: histogram {name} has unordered percentiles")
            histograms += 1
        elif kind == "counter":
            value = rec.get("value")
            if not isinstance(value, int) or value < 0:
                fail(f"{path}: counter {name} has bad value {value!r}")
            counters += 1
        elif kind == "gauge":
            if not isinstance(rec.get("value"), int):
                fail(f"{path}: gauge {name} has bad value")
        else:
            fail(f"{path}: metric {name} has unknown type {kind!r}")
    if histograms == 0:
        fail(f"{path}: no histogram metric records (exporter not wired?)")
    if counters == 0:
        fail(f"{path}: no counter metric records (exporter not wired?)")

    overheads = [r for r in records if r.get("record") == "metrics_overhead"]
    for rec in overheads:
        for key in ("ns_per_probe_metrics_on", "ns_per_probe_metrics_off",
                    "overhead_ratio"):
            if key not in rec:
                fail(f"{path}: metrics_overhead record missing {key}")
        print(f"metrics overhead: {(rec['overhead_ratio'] - 1) * 100:+.2f}% "
              f"({rec['ns_per_probe_metrics_off']:.1f} -> "
              f"{rec['ns_per_probe_metrics_on']:.1f} ns/probe)")

    if serving:
        check_serving(path, records)
    if compose_p95_ratio is not None:
        check_compose_p95(path, records, compose_p95_ratio)
    if memory_shards is not None:
        check_memory(path, records, memory_shards)

    print(f"OK: {path} carries {histograms} histogram and {counters} counter "
          f"metric records"
          + (f", {len(overheads)} overhead record(s)" if overheads else ""))


if __name__ == "__main__":
    main()

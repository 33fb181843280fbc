// Serving-layer throughput: scalar vs batched query execution, single index
// vs sharded service. Emits BENCH_serving.json.
//
// Modes measured over one mixed true/false workload (every mode must return
// identical answers — the harness aborts otherwise):
//
//   scalar_query         index.Query per probe (per-call validation+FindMr)
//   scalar_interned      index.QueryInterned per probe, MRs pre-resolved
//   batched_index        ExecuteBatch: grouped by MR + CSR prefetch
//   batched_index_fresh  ditto, batch re-assembled inside the timed region
//   scalar_service       ShardedRlcService::Query per probe (a one-probe
//                        Execute each)
//   batched_service      ShardedRlcService::Execute
//
//   $ ./bench_serving [num_vertices num_edges num_probes iters shards]
//     defaults:            20000     100000    20000     5     4
//
// The interesting ratios (also emitted as a JSON record): batched_index vs
// scalar_query is the per-call-overhead amortization; batched_index vs
// scalar_interned isolates the CSR prefetch pipeline.
//
// Sharded phases also emit routing composition telemetry per mode —
// intra_shard_share (endpoints co-located, no composition needed) and
// skeleton hops per composed probe — plus a "memory" record comparing the
// aggregate per-shard index bytes against the whole-graph index (the
// ~1/N scaling claim) and a "community" record contrasting kHash vs
// kRangeOrdered locality on a planted-partition graph.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "rlc/core/indexer.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/failpoint.h"
#include "rlc/util/rng.h"
#include "rlc/util/timer.h"

using namespace rlc;

namespace {

double BestSeconds(int iters, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const VertexId n = argc > 1 ? static_cast<VertexId>(std::atoi(argv[1])) : 20'000;
  const uint64_t m = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100'000;
  const uint32_t num_probes = argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 20'000;
  const int iters = argc > 4 ? std::atoi(argv[4]) : 5;
  const uint32_t shards = argc > 5 ? static_cast<uint32_t>(std::atoi(argv[5])) : 4;
  const Label num_labels = 8;

  Rng rng(7);
  auto edges = ErdosRenyiEdges(n, m, rng);
  AssignZipfLabels(&edges, num_labels, 2.0, rng);
  const DiGraph g(n, std::move(edges), num_labels);
  std::printf("graph: |V|=%u |E|=%llu |L|=%u, %u probes x %d iters\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
              g.num_labels(), num_probes, iters);

  Timer build_timer;
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::printf("whole-graph index: %.2fs, %llu entries\n",
              build_timer.ElapsedSeconds(),
              static_cast<unsigned long long>(index.NumEntries()));

  // Workload: length-2 oracle-classified queries (the paper's protocol),
  // shuffled so true/false and constraint templates interleave.
  WorkloadOptions wopts;
  wopts.count = num_probes / 2;
  wopts.constraint_length = 2;
  wopts.fill_true_with_walks = true;
  Workload w = GenerateWorkload(g, wopts);
  std::vector<RlcQuery> log = w.true_queries;
  log.insert(log.end(), w.false_queries.begin(), w.false_queries.end());
  Rng shuffle_rng(17);
  for (size_t i = log.size(); i > 1; --i) {
    std::swap(log[i - 1], log[shuffle_rng.Below(i)]);
  }
  std::printf("workload: %zu probes (%zu true)\n", log.size(),
              w.true_queries.size());

  // Prepared-statement view of the log: distinct templates interned once.
  QueryBatch batch;
  for (const RlcQuery& q : log) {
    batch.Add(q.s, q.t, batch.InternSequence(q.constraint));
  }
  const std::vector<BatchProbe>& probes = batch.probes();
  std::vector<MrId> mr_of(batch.num_sequences());
  for (uint32_t i = 0; i < batch.num_sequences(); ++i) {
    mr_of[i] = index.FindMr(batch.sequence(i));
  }
  std::printf("templates: %u distinct\n", batch.num_sequences());

  // Reference answers (scalar validated path).
  std::vector<uint8_t> reference;
  reference.reserve(log.size());
  for (const RlcQuery& q : log) {
    reference.push_back(index.Query(q.s, q.t, q.constraint) ? 1 : 0);
  }

  bench::JsonWriter json("serving");
  bool all_agree = true;
  std::vector<double> ns_per_query;
  auto report = [&](const std::string& mode, uint32_t mode_shards,
                    double seconds, const std::vector<uint8_t>& answers,
                    const ServiceStats* stats) {
    bool agree = answers == reference;
    all_agree = all_agree && agree;
    const double ns = seconds * 1e9 / static_cast<double>(log.size());
    ns_per_query.push_back(ns);
    std::printf("%-20s: %8.1f ns/probe  %7.2f Mq/s  answers %s\n", mode.c_str(),
                ns, static_cast<double>(log.size()) / seconds / 1e6,
                agree ? "ok" : "MISMATCH");
    auto& rec = json.AddRecord()
                    .Set("mode", mode)
                    .Set("shards", mode_shards)
                    .Set("num_vertices", n)
                    .Set("num_edges", m)
                    .Set("probes", static_cast<uint64_t>(log.size()))
                    .Set("iters", iters)
                    .Set("ns_per_probe", ns)
                    .Set("agree", agree);
    if (stats != nullptr) {
      const double intra_share =
          stats->queries == 0
              ? 0.0
              : static_cast<double>(stats->intra_true + stats->intra_miss) /
                    static_cast<double>(stats->queries);
      std::printf("  %-18s  intra_shard_share %.3f, composed %llu, "
                  "skeleton hops %llu\n",
                  "", intra_share,
                  static_cast<unsigned long long>(stats->compose_probes),
                  static_cast<unsigned long long>(stats->compose_skeleton_hops));
      rec.Set("queries", stats->queries)
          .Set("intra_true", stats->intra_true)
          .Set("intra_miss", stats->intra_miss)
          .Set("compose_probes", stats->compose_probes)
          .Set("compose_skeleton_hops", stats->compose_skeleton_hops)
          .Set("intra_shard_share", intra_share);
    }
  };

  // Per-mode routing telemetry: the service accumulates stats across every
  // iteration and mode, so report the per-run delta (the workload is
  // deterministic — each iteration adds identical counts).
  auto stats_delta = [&](const ServiceStats& before, const ServiceStats& after,
                         int runs) {
    ServiceStats d;
    d.queries = (after.queries - before.queries) / runs;
    d.intra_true = (after.intra_true - before.intra_true) / runs;
    d.intra_miss = (after.intra_miss - before.intra_miss) / runs;
    d.compose_probes = (after.compose_probes - before.compose_probes) / runs;
    d.compose_skeleton_hops =
        (after.compose_skeleton_hops - before.compose_skeleton_hops) / runs;
    return d;
  };

  // --- scalar_query ---
  std::vector<uint8_t> answers(log.size());
  double secs = BestSeconds(iters, [&] {
    for (size_t i = 0; i < log.size(); ++i) {
      answers[i] = index.Query(log[i].s, log[i].t, log[i].constraint) ? 1 : 0;
    }
  });
  report("scalar_query", 1, secs, answers, nullptr);

  // --- scalar_interned ---
  secs = BestSeconds(iters, [&] {
    for (size_t i = 0; i < probes.size(); ++i) {
      answers[i] =
          index.QueryInterned(probes[i].s, probes[i].t, mr_of[probes[i].seq_id])
              ? 1
              : 0;
    }
  });
  report("scalar_interned", 1, secs, answers, nullptr);

  // --- batched_index (prepared batch) ---
  AnswerBatch batch_answers;
  secs = BestSeconds(iters, [&] { batch_answers = ExecuteBatch(index, batch); });
  report("batched_index", 1, secs, batch_answers.answers, nullptr);
  const double batched_index_ns = ns_per_query.back();

  // --- batched_index_fresh (assembly inside the timed region) ---
  secs = BestSeconds(iters, [&] {
    QueryBatch fresh;
    for (const RlcQuery& q : log) fresh.Add(q.s, q.t, q.constraint);
    batch_answers = ExecuteBatch(index, fresh);
  });
  report("batched_index_fresh", 1, secs, batch_answers.answers, nullptr);

  // --- sharded service (scalar + batched) ---
  ServiceOptions options;
  options.partition.num_shards = shards;
  options.indexer.k = 2;
  Timer service_timer;
  ShardedRlcService service(g, options);
  std::printf("sharded service (%u shards): built in %.2fs, %.2f MB, "
              "boundary %llu/%u\n",
              shards, service_timer.ElapsedSeconds(),
              static_cast<double>(service.MemoryBytes()) / (1 << 20),
              static_cast<unsigned long long>(
                  service.partition().num_boundary_vertices()),
              g.num_vertices());

  ServiceStats before = service.stats();
  secs = BestSeconds(iters, [&] {
    for (size_t i = 0; i < log.size(); ++i) {
      answers[i] = service.Query(log[i].s, log[i].t, log[i].constraint) ? 1 : 0;
    }
  });
  ServiceStats scalar_stats = stats_delta(before, service.stats(), iters);
  report("scalar_service", shards, secs, answers, &scalar_stats);

  before = service.stats();
  secs = BestSeconds(iters, [&] { batch_answers = service.Execute(batch); });
  ServiceStats batched_stats = stats_delta(before, service.stats(), iters);
  report("batched_service", shards, secs, batch_answers.answers,
         &batched_stats);

  // --- resilience: shedding, deadlines, breaker trip + reclose ---
  // A dedicated small instance (its own metrics registry) so the throughput
  // telemetry above stays clean. The point is nonzero serve.shed /
  // serve.deadline_exceeded / serve.breaker.* records in the JSON: the
  // schema the degradation-ladder dashboards consume has to come from a
  // real overloaded/faulted run, not a hand-written fixture.
  {
    ServiceOptions ropts;
    ropts.partition.num_shards = shards;
    ropts.indexer.k = 2;
    ropts.max_batch_probes = 64;  // tiny admission high-water mark
    ropts.breaker.failure_threshold = 1;
    ropts.breaker.initial_backoff_ns = 1'000'000;  // recloses within the run
    ropts.breaker.max_backoff_ns = 8'000'000;
    ShardedRlcService resilience(g, ropts);

    // Shed: the full workload batch is far over the 64-probe mark.
    ExecuteLimits shed_limits;
    shed_limits.shed_as_status = true;
    const AnswerBatch shedded = resilience.Execute(batch, shed_limits);

    QueryBatch small;  // under the mark, for the fault phases
    for (size_t i = 0; i < 48 && i < log.size(); ++i) {
      small.Add(log[i].s, log[i].t, log[i].constraint);
    }
    ExecuteLimits expired;  // already-expired budget: every probe marked
    expired.batch_budget_ns = 1;
    resilience.Execute(small, expired);

    // One erroring pass trips every touched shard breaker
    // (failure_threshold=1, answers stay exact via index-free degraded
    // evaluation); clean traffic after the backoff recloses them.
    Failpoints::Instance().Parse("serve.shard.execute=error@p1");
    const AnswerBatch degraded = resilience.Execute(small);
    Failpoints::Instance().Clear();
    ::usleep(10'000);  // > initial_backoff + jitter
    const AnswerBatch healed = resilience.Execute(small);

    const ServiceStats rs = resilience.stats();
    bool resilient = shedded.num_shedded == batch.num_probes() &&
                     rs.shed > 0 && rs.deadline_exceeded > 0 &&
                     rs.breaker_opened > 0 && rs.breaker_reclosed > 0;
    for (size_t i = 0; i < small.num_probes(); ++i) {
      resilient = resilient && healed.answers[i] == reference[i] &&
                  (degraded.statuses[i] != ProbeStatus::kOk ||
                   degraded.answers[i] == reference[i]);
    }
    std::printf(
        "resilience: shed %llu, deadline_exceeded %llu, breaker opened "
        "%llu/reclosed %llu, degraded-exact %llu, recovery %s\n",
        static_cast<unsigned long long>(rs.shed),
        static_cast<unsigned long long>(rs.deadline_exceeded),
        static_cast<unsigned long long>(rs.breaker_opened),
        static_cast<unsigned long long>(rs.breaker_reclosed),
        static_cast<unsigned long long>(rs.breaker_degraded),
        resilient ? "ok" : "FAILED");
    json.AddRecord()
        .Set("record", "resilience")
        .Set("shards", shards)
        .Set("shed", rs.shed)
        .Set("deadline_exceeded", rs.deadline_exceeded)
        .Set("breaker_opened", rs.breaker_opened)
        .Set("breaker_reclosed", rs.breaker_reclosed)
        .Set("breaker_degraded", rs.breaker_degraded)
        .Set("recovered", resilient);
    json.AppendMetrics(resilience.metrics().Snapshot(), "resilience");
    all_agree = all_agree && resilient;
  }

  // --- per-shard composition attribution + per-stage latency percentiles ---
  // The routing pathology this harness watches for is one shard sourcing
  // a spiking share of the composed probes while the total stays flat. Per-stage serve.stage.* histograms land in the
  // JSON via AppendMetrics (p50/p95/p99 per record).
  {
    const std::vector<uint64_t> per_shard = service.ShardComposeCounts();
    uint64_t compose_total = 0;
    for (const uint64_t c : per_shard) compose_total += c;
    for (uint32_t s = 0; s < per_shard.size(); ++s) {
      const double share =
          compose_total == 0 ? 0.0
                             : static_cast<double>(per_shard[s]) /
                                   static_cast<double>(compose_total);
      std::printf("shard %u: %llu composed probes (%.1f%% of composed)\n", s,
                  static_cast<unsigned long long>(per_shard[s]), share * 100.0);
      json.AddRecord()
          .Set("record", "shard_compose")
          .Set("shard", s)
          .Set("compose_probes", per_shard[s])
          .Set("compose_share", share);
    }
    json.AppendMetrics(service.metrics().Snapshot(), "service");
  }

  // --- memory: aggregate shard indexes vs the whole-graph index ---
  // The point of deleting the whole-graph tier: N shards should cost ~1/N
  // of the monolithic index (plus the boundary skeleton), not 1 + 1/N.
  {
    const uint64_t whole_bytes = index.MemoryBytes();
    uint64_t shard_bytes = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      shard_bytes += service.shard_index(s).MemoryBytes();
    }
    const double ratio = whole_bytes == 0
                             ? 0.0
                             : static_cast<double>(shard_bytes) /
                                   static_cast<double>(whole_bytes);
    std::printf("memory: whole-graph index %.2f MB, %u-shard aggregate "
                "%.2f MB (%.3fx), service total %.2f MB\n",
                static_cast<double>(whole_bytes) / (1 << 20), shards,
                static_cast<double>(shard_bytes) / (1 << 20), ratio,
                static_cast<double>(service.MemoryBytes()) / (1 << 20));
    json.AddRecord()
        .Set("record", "memory")
        .Set("num_shards", shards)
        .Set("whole_index_bytes", whole_bytes)
        .Set("aggregate_shard_index_bytes", shard_bytes)
        .Set("service_bytes", service.MemoryBytes())
        .Set("shard_to_whole_ratio", ratio);
  }

  // --- community locality: kHash vs kRangeOrdered on a planted-partition
  // graph --- Membership is id-shuffled, so plain range sees no locality;
  // the ordering heuristic has to rediscover the communities. The record
  // pins that kRangeOrdered pushes intra_shard_share up (and composition
  // down) relative to hash on the same graph and workload.
  {
    Rng crng(29);
    auto cedges =
        PlantedPartitionEdges(n, m, std::max(2u, shards * 2), 0.9, crng);
    AssignZipfLabels(&cedges, num_labels, 2.0, crng);
    const DiGraph cg(n, std::move(cedges), num_labels);
    WorkloadOptions cwopts;
    cwopts.count = std::max<uint32_t>(num_probes / 4, 64);
    cwopts.constraint_length = 2;
    cwopts.fill_true_with_walks = true;
    const Workload cw = GenerateWorkload(cg, cwopts);
    QueryBatch cbatch;
    for (const auto* side : {&cw.true_queries, &cw.false_queries}) {
      for (const RlcQuery& q : *side) cbatch.Add(q.s, q.t, q.constraint);
    }
    const RlcIndex coracle = BuildRlcIndex(cg, 2);
    std::vector<uint8_t> cexpected;
    cexpected.reserve(cbatch.num_probes());
    for (const BatchProbe& p : cbatch.probes()) {
      cexpected.push_back(
          coracle.QueryInterned(p.s, p.t,
                                coracle.FindMr(cbatch.sequence(p.seq_id)))
              ? 1
              : 0);
    }
    for (const PartitionPolicy policy :
         {PartitionPolicy::kHash, PartitionPolicy::kRangeOrdered}) {
      ServiceOptions copts;
      copts.partition.num_shards = shards;
      copts.partition.policy = policy;
      copts.indexer.k = 2;
      ShardedRlcService cservice(cg, copts);
      const AnswerBatch got = cservice.Execute(cbatch);
      const bool agree = got.answers == cexpected;
      all_agree = all_agree && agree;
      const auto first = cservice.metrics().Snapshot();
      const auto counter = [&first](std::string_view metric) -> uint64_t {
        const auto* c = first.FindCounter(metric);
        return c == nullptr ? 0 : c->value;
      };
      const uint64_t queries = counter("serve.queries");
      const uint64_t composed = counter("serve.compose.probes");
      const uint64_t skeleton_hops = counter("serve.compose.skeleton_hops");
      const uint64_t cross_hops = counter("serve.compose.cross_hops");
      const uint64_t table_builds = counter("serve.compose.table_builds");
      const double intra_share =
          queries == 0 ? 0.0
                       : static_cast<double>(counter("serve.intra_true") +
                                             counter("serve.intra_miss")) /
                             static_cast<double>(queries);
      const char* name =
          policy == PartitionPolicy::kHash ? "hash" : "range_ordered";
      std::printf("community/%-13s: intra_shard_share %.3f, composed %llu, "
                  "skeleton hops %llu, cross hops %llu, table builds %llu, "
                  "answers %s\n",
                  name, intra_share, static_cast<unsigned long long>(composed),
                  static_cast<unsigned long long>(skeleton_hops),
                  static_cast<unsigned long long>(cross_hops),
                  static_cast<unsigned long long>(table_builds),
                  agree ? "ok" : "MISMATCH");
      json.AddRecord()
          .Set("record", "community")
          .Set("policy", name)
          .Set("shards", shards)
          .Set("intra_shard_share", intra_share)
          .Set("compose_probes", composed)
          .Set("compose_skeleton_hops", skeleton_hops)
          .Set("compose_cross_hops", cross_hops)
          .Set("compose_table_builds", table_builds)
          .Set("agree", agree);

      // Composed-probe latency percentiles at equal shard count: the
      // nightly gate pins p95(hash) <= RATIO x p95(range_ordered) — hash
      // composes far more probes, and its tail must stay in the same
      // regime. Re-run the batch so rounds over warm transition tables
      // dominate the histogram the way a steady workload would — enough
      // rounds that the first round's lazy row builds fall out of the p95
      // sample mass (< 5%).
      for (int warm = 0; warm < 12; ++warm) {
        const AnswerBatch again = cservice.Execute(cbatch);
        all_agree = all_agree && again.answers == cexpected;
      }
      const auto snapshot = cservice.metrics().Snapshot();
      const auto* hist = snapshot.FindHistogram("serve.stage.compose_probe_ns");
      const uint64_t p50 = hist == nullptr ? 0 : hist->Percentile(0.50);
      const uint64_t p95 = hist == nullptr ? 0 : hist->Percentile(0.95);
      const uint64_t samples = hist == nullptr ? 0 : hist->count;
      std::printf("compose_p95/%-11s: p50 %llu ns, p95 %llu ns "
                  "(%llu composed)\n",
                  name, static_cast<unsigned long long>(p50),
                  static_cast<unsigned long long>(p95),
                  static_cast<unsigned long long>(samples));
      json.AddRecord()
          .Set("record", "compose_p95")
          .Set("policy", name)
          .Set("shards", shards)
          .Set("samples", samples)
          .Set("p50_ns", p50)
          .Set("p95_ns", p95);
    }
  }

  // --- summary ratios ---
  const double scalar_query_ns = ns_per_query[0];
  const double scalar_interned_ns = ns_per_query[1];
  std::printf("speedup batched_index vs scalar_query:    %.2fx\n",
              scalar_query_ns / batched_index_ns);
  std::printf("speedup batched_index vs scalar_interned: %.2fx\n",
              scalar_interned_ns / batched_index_ns);
  json.AddRecord()
      .Set("mode", "summary")
      .Set("shards", shards)
      .Set("speedup_batched_vs_scalar_query", scalar_query_ns / batched_index_ns)
      .Set("speedup_batched_vs_scalar_interned",
           scalar_interned_ns / batched_index_ns)
      .Set("all_agree", all_agree);

  if (!all_agree) {
    std::fprintf(stderr, "FAIL: modes disagree\n");
    return 1;
  }
  return 0;
}

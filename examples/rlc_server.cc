// rlc_server — drive the sharded serving subsystem from a query log.
//
// Builds a ShardedRlcService over a graph (a real edge-list file or a
// synthetic ER surrogate), replays a query log through the batched API in
// fixed-size chunks, and prints the routing telemetry: how many probes the
// shard indexes answered alone, and how many were composed across shards
// over the boundary skeleton.
//
//   $ ./examples/rlc_server [options]
//     --graph FILE        edge-list text file (default: synthetic ER)
//     --er N M            synthetic ER graph size (default 20000 100000)
//     --labels L          labels for the synthetic graph (default 8, Zipf-2)
//     --log FILE          query log, workload text format "s t l1,l2,.. 0|1"
//                         (default: synthesize --queries probes)
//     --queries N         synthesized log size (default 20000)
//     --save-log FILE     write the synthesized log for reuse
//     --shards S          shard count (default 4)
//     --policy hash|range|range-ordered   partition policy (default hash)
//     --k K               recursion bound (default 2)
//     --batch B           probes per batch (default 4096)
//     --threads T         build threads (default 0 = all)
//     --metrics-every N   dump Prometheus-text metrics every N batches
//                         (default 0 = only the final dump)
//     --metrics-json FILE write the final metrics snapshot as JSON
//
// Metrics come from two registries: the service's own (serve.* routing and
// stage latencies) and the process-global one (rlc.query.*, pool.*). Both
// are dumped; RLC_METRICS=off silences the instrumentation sites.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "rlc/graph/edge_list_io.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/obs/metrics.h"
#include "rlc/obs/trace.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/timer.h"
#include "rlc/workload/query_gen.h"

using namespace rlc;

namespace {

struct Args {
  std::string graph_file;
  VertexId er_n = 20'000;
  uint64_t er_m = 100'000;
  Label labels = 8;
  std::string log_file;
  uint32_t queries = 20'000;
  std::string save_log;
  uint32_t shards = 4;
  PartitionPolicy policy = PartitionPolicy::kHash;
  uint32_t k = 2;
  uint32_t batch = 4096;
  uint32_t threads = 0;
  uint32_t metrics_every = 0;
  std::string metrics_json;
};

// Checked numeric flag parsing: `--shards lots` or a negative count must
// be a usage error, not a silently-zero config (atoi would hand back 0 and
// the service would then fail far from the typo).
bool ParseU64(const char* flag, const char* v, uint64_t max, uint64_t* out) {
  if (v == nullptr || *v == '\0') {
    std::fprintf(stderr, "%s: missing numeric value\n", flag);
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long val = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || val > max) {
    std::fprintf(stderr, "%s: invalid number '%s' (expected 0..%llu)\n", flag,
                 v, static_cast<unsigned long long>(max));
    return false;
  }
  *out = val;
  return true;
}

bool ParseU32(const char* flag, const char* v, uint32_t* out) {
  uint64_t wide = 0;
  if (!ParseU64(flag, v, std::numeric_limits<uint32_t>::max(), &wide)) {
    return false;
  }
  *out = static_cast<uint32_t>(wide);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (flag == "--graph") {
      if (const char* v = next()) args->graph_file = v; else return false;
    } else if (flag == "--er") {
      const char* n = next();
      const char* m = next();
      uint32_t er_n = 0;
      if (!ParseU32("--er N", n, &er_n) ||
          !ParseU64("--er M", m, std::numeric_limits<uint64_t>::max(),
                    &args->er_m)) {
        return false;
      }
      args->er_n = er_n;
    } else if (flag == "--labels") {
      if (!ParseU32("--labels", next(), &args->labels)) return false;
    } else if (flag == "--log") {
      if (const char* v = next()) args->log_file = v; else return false;
    } else if (flag == "--queries") {
      if (!ParseU32("--queries", next(), &args->queries)) return false;
    } else if (flag == "--save-log") {
      if (const char* v = next()) args->save_log = v; else return false;
    } else if (flag == "--shards") {
      if (!ParseU32("--shards", next(), &args->shards)) return false;
    } else if (flag == "--policy") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "hash") == 0) args->policy = PartitionPolicy::kHash;
      else if (std::strcmp(v, "range") == 0) args->policy = PartitionPolicy::kRange;
      else if (std::strcmp(v, "range-ordered") == 0)
        args->policy = PartitionPolicy::kRangeOrdered;
      else return false;
    } else if (flag == "--k") {
      if (!ParseU32("--k", next(), &args->k)) return false;
    } else if (flag == "--batch") {
      if (!ParseU32("--batch", next(), &args->batch)) return false;
    } else if (flag == "--threads") {
      if (!ParseU32("--threads", next(), &args->threads)) return false;
    } else if (flag == "--metrics-every") {
      if (!ParseU32("--metrics-every", next(), &args->metrics_every)) {
        return false;
      }
    } else if (flag == "--metrics-json") {
      if (const char* v = next()) args->metrics_json = v; else return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->batch == 0) {
    std::fprintf(stderr, "--batch must be >= 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see header comment of examples/rlc_server.cc\n");
    return 2;
  }

  // Graph.
  DiGraph g;
  if (!args.graph_file.empty()) {
    std::printf("loading graph from %s\n", args.graph_file.c_str());
    g = LoadEdgeListText(args.graph_file);
  } else {
    Rng rng(7);
    auto edges = ErdosRenyiEdges(args.er_n, args.er_m, rng);
    AssignZipfLabels(&edges, args.labels, 2.0, rng);
    g = DiGraph(args.er_n, std::move(edges), args.labels);
  }
  std::printf("graph: |V|=%u |E|=%llu |L|=%u\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), g.num_labels());

  // Query log. A malformed log is a hard error: the loader pins the first
  // bad line as path:line and the server refuses to start on it.
  std::vector<RlcQuery> log;
  if (!args.log_file.empty()) {
    Workload w;
    try {
      w = LoadWorkload(args.log_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rlc_server: bad query log: %s\n", e.what());
      return 2;
    }
    log = w.true_queries;
    log.insert(log.end(), w.false_queries.begin(), w.false_queries.end());
    std::printf("loaded %zu probes from %s\n", log.size(), args.log_file.c_str());
  } else {
    WorkloadOptions wopts;
    wopts.count = args.queries / 2;
    wopts.constraint_length = std::min(args.k, 2u);
    wopts.fill_true_with_walks = true;
    Workload w = GenerateWorkload(g, wopts);
    log = w.true_queries;
    log.insert(log.end(), w.false_queries.begin(), w.false_queries.end());
    if (!args.save_log.empty()) {
      SaveWorkload(w, args.save_log);
      std::printf("wrote synthesized log to %s\n", args.save_log.c_str());
    }
    std::printf("synthesized %zu probes\n", log.size());
  }
  // Deterministic shuffle so batches mix true/false probes like real traffic.
  Rng shuffle_rng(17);
  for (size_t i = log.size(); i > 1; --i) {
    std::swap(log[i - 1], log[shuffle_rng.Below(i)]);
  }

  // Service.
  ServiceOptions options;
  options.partition.num_shards = args.shards;
  options.partition.policy = args.policy;
  options.indexer.k = args.k;
  options.build_threads = args.threads;
  Timer build_timer;
  ShardedRlcService service(g, options);
  std::printf("service build: %.2f s (partition %.2fs, indexes %.2fs), "
              "%.2f MB\n",
              build_timer.ElapsedSeconds(), service.stats().partition_seconds,
              service.stats().index_build_seconds,
              static_cast<double>(service.MemoryBytes()) / (1 << 20));
  const GraphPartition& partition = service.partition();
  for (uint32_t s = 0; s < partition.num_shards(); ++s) {
    const ShardInfo& shard = partition.shard(s);
    std::printf("  shard %u: |V|=%u |E|=%llu boundary=%zu entries=%llu\n", s,
                shard.graph.num_vertices(),
                static_cast<unsigned long long>(shard.graph.num_edges()),
                shard.boundary.size(),
                static_cast<unsigned long long>(service.shard_index(s).NumEntries()));
  }
  std::printf("  cross edges: %zu, boundary vertices: %llu\n",
              partition.cross_edges().size(),
              static_cast<unsigned long long>(partition.num_boundary_vertices()));

  // Replay in batches.
  QueryBatch batch;
  uint64_t agree = 0;
  uint64_t served = 0;
  uint64_t batches_run = 0;
  Timer serve_timer;
  for (size_t base = 0; base < log.size(); base += args.batch) {
    batch.ClearProbes();
    const size_t end = std::min(log.size(), base + args.batch);
    for (size_t i = base; i < end; ++i) {
      batch.Add(log[i].s, log[i].t, log[i].constraint);
    }
    const AnswerBatch answers = service.Execute(batch);
    for (size_t i = base; i < end; ++i) {
      agree += (answers.answers[i - base] != 0) == log[i].expected;
    }
    served += end - base;
    ++batches_run;
    if (args.metrics_every > 0 && batches_run % args.metrics_every == 0) {
      std::printf("--- metrics after %llu batches ---\n%s",
                  static_cast<unsigned long long>(batches_run),
                  service.metrics().Snapshot().ToPrometheusText().c_str());
    }
  }
  const double seconds = serve_timer.ElapsedSeconds();

  const ServiceStats& stats = service.stats();
  std::printf("served %llu probes in %.1f ms: %.0f q/s, %.2f us/probe\n",
              static_cast<unsigned long long>(served), seconds * 1e3,
              static_cast<double>(served) / seconds,
              seconds * 1e6 / static_cast<double>(served));
  std::printf("routing: intra-shard true %llu, composed %llu / hops %llu "
              "(batches %llu, groups %llu)\n",
              static_cast<unsigned long long>(stats.intra_true),
              static_cast<unsigned long long>(stats.compose_probes),
              static_cast<unsigned long long>(stats.compose_skeleton_hops),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.batch_groups));
  std::printf("oracle agreement: %llu/%llu\n",
              static_cast<unsigned long long>(agree),
              static_cast<unsigned long long>(served));

  // Final metrics dump: service registry (routing + stage latencies) then
  // the process-global one (query kernel, pools, durability).
  if (obs::Enabled()) {
    std::printf("--- final metrics (service) ---\n%s",
                service.metrics().Snapshot().ToPrometheusText().c_str());
    std::printf("--- final metrics (global) ---\n%s",
                obs::Registry::Global().Snapshot().ToPrometheusText().c_str());
    std::printf("--- recent spans ---\n%s", obs::DumpRecentSpans(16).c_str());
    if (!args.metrics_json.empty()) {
      std::ofstream out(args.metrics_json);
      if (out) {
        out << "{\"service\": " << service.metrics().Snapshot().ToJson()
            << ",\n \"global\": " << obs::Registry::Global().Snapshot().ToJson()
            << "}\n";
        std::printf("wrote metrics JSON to %s\n", args.metrics_json.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
      }
    }
  }

  // A fresh oracle matches exactly; a stale log (edited graph) may not.
  return agree == served ? 0 : 1;
}

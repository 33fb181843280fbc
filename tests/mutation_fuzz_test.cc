// Unified mixed-mutation differential fuzz harness.
//
// Every configuration drives a seeded random insert/delete workload against
// a dynamically maintained index (or a full sharded service) and, after
// every batch, checks answers bit-identically against a from-scratch
// Indexer build on the mutated graph — the oracle that catches both failure
// modes of incremental maintenance at once: stale entries answering pairs
// that deletion disconnected (unsoundness) and lost covers for pairs that
// remain reachable (incompleteness). Serialization round-trips ride along
// so the v5 tombstone format is fuzzed with real overlays, and metamorphic
// round-trip checks pin that insert -> delete -> reinsert converges back to
// the insert-once state down to the serialized bytes.
//
// Failures print the configuration name and master seed; re-running the
// binary with the same build replays the exact schedule
// (--gtest_filter=MutationFuzz*). Tests whose names contain "DeepFuzz" are
// registered as a separate slow-labeled ctest entry (CMakeLists.txt) and
// run in the nightly workflow; the remaining tests keep the per-PR suite
// fast.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "rlc/core/dynamic_index.h"
#include "rlc/core/index_io.h"
#include "rlc/core/indexer.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/serve/query_batch.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/rng.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

RlcIndex BuildSealed(const DiGraph& g, uint32_t k) {
  IndexerOptions options;
  options.k = k;
  RlcIndexBuilder builder(g, options);
  return builder.Build();
}

/// RLC_FUZZ_SEED=<n> re-seeds the whole suite without recompiling: the env
/// seed is mixed into each configuration's base seed, so every config still
/// runs a distinct schedule and the replay line prints the effective seed.
uint64_t EffectiveSeed(uint64_t base_seed) {
  static const uint64_t env_seed = [] {
    const char* env = std::getenv("RLC_FUZZ_SEED");
    if (env == nullptr || *env == '\0') return uint64_t{0};
    char* end = nullptr;
    const uint64_t v = std::strtoull(env, &end, 10);
    return *end == '\0' ? v : uint64_t{0};
  }();
  return base_seed ^ env_seed;
}

/// One mixed-mutation fuzz configuration.
struct FuzzConfig {
  std::string name;
  uint64_t seed = 1;
  bool barabasi = false;  ///< BA preferential attachment instead of ER
  VertexId n = 60;
  uint64_t m = 200;  ///< edges (ER) / edges-per-vertex m0 (BA)
  Label labels = 3;
  uint32_t k = 2;
  double reseal_ratio = 0.05;
  int rounds = 4;
  int batch_size = 8;
  uint32_t delete_percent = 50;  ///< share of mutations that are deletes
  bool io_round_trip = false;    ///< serialize/load/compare each round
};

std::string Replay(const FuzzConfig& config) {
  return " [replay: " + config.name +
         " seed=" + std::to_string(config.seed) + "]";
}

DiGraph MakeGraph(const FuzzConfig& config, Rng& rng) {
  auto edges = config.barabasi
                   ? BarabasiAlbertEdges(config.n,
                                         static_cast<uint32_t>(config.m), rng)
                   : ErdosRenyiEdges(config.n, config.m, rng);
  AssignZipfLabels(&edges, config.labels, 2.0, rng);
  return DiGraph(config.n, std::move(edges), config.labels);
}

/// Constraints worth probing: known MRs (capped) plus random primitive
/// sequences that are mostly unknown.
std::vector<LabelSeq> ProbeSeqs(const RlcIndex& index, Label num_labels,
                                uint32_t k, Rng& rng) {
  std::vector<LabelSeq> seqs;
  const MrTable& mrs = index.mr_table();
  for (MrId id = 0; id < mrs.size() && seqs.size() < 16; ++id) {
    if (mrs.Get(id).size() <= k) seqs.push_back(mrs.Get(id));
  }
  for (uint32_t i = 0; i < 6; ++i) {
    seqs.push_back(RandomPrimitiveSeq(1 + i % k, num_labels, rng));
  }
  return seqs;
}

/// The differential oracle: all-pairs answers of `dyn` — signatures on and
/// off — must equal a fresh sealed build on the mutated graph.
void ExpectMatchesRebuild(const DynamicRlcIndex& dyn,
                          const FuzzConfig& config, Rng& rng) {
  const DiGraph& base = dyn.base_graph();
  const DiGraph mutated(base.num_vertices(), dyn.MaterializedEdges(),
                        base.num_labels(), /*dedup_parallel=*/false);
  const RlcIndex oracle = BuildSealed(mutated, config.k);

  RlcIndex unsigned_copy = dyn.index();
  unsigned_copy.set_use_signatures(false);

  const auto seqs = ProbeSeqs(dyn.index(), base.num_labels(), config.k, rng);
  const VertexId n = base.num_vertices();
  for (const LabelSeq& seq : seqs) {
    const MrId dyn_mr = dyn.index().FindMr(seq);
    const MrId oracle_mr = oracle.FindMr(seq);
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        const bool want = oracle.QueryInterned(s, t, oracle_mr);
        ASSERT_EQ(want, dyn.index().QueryInterned(s, t, dyn_mr))
            << "s=" << s << " t=" << t << " L=" << seq.ToString()
            << Replay(config);
        ASSERT_EQ(want, unsigned_copy.QueryInterned(s, t, dyn_mr))
            << "unsignatured s=" << s << " t=" << t << " L=" << seq.ToString()
            << Replay(config);
      }
    }
  }
}

/// Serialize -> load -> compare sampled answers and overlay state.
void ExpectIoRoundTrip(const DynamicRlcIndex& dyn, const FuzzConfig& config,
                       Rng& rng) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(dyn.index(), buf);
  const RlcIndex loaded = ReadIndex(buf);
  ASSERT_EQ(dyn.index().delta_entries(), loaded.delta_entries())
      << Replay(config);
  ASSERT_EQ(dyn.index().tombstone_entries(), loaded.tombstone_entries())
      << Replay(config);
  std::stringstream resaved(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(loaded, resaved);
  ASSERT_EQ(buf.str(), resaved.str())
      << "v5 resave not byte-identical" << Replay(config);
  const VertexId n = dyn.base_graph().num_vertices();
  for (int trial = 0; trial < 300; ++trial) {
    const auto s = static_cast<VertexId>(rng.Below(n));
    const auto t = static_cast<VertexId>(rng.Below(n));
    const LabelSeq c =
        RandomPrimitiveSeq(1 + rng.Below(config.k), config.labels, rng);
    ASSERT_EQ(dyn.index().Query(s, t, c), loaded.Query(s, t, c))
        << Replay(config);
  }
}

EdgeUpdate RandomMutation(const DynamicRlcIndex& dyn, const FuzzConfig& config,
                          Rng& rng) {
  if (rng.Below(100) < config.delete_percent) {
    const std::vector<Edge> edges = dyn.MaterializedEdges();
    if (!edges.empty()) {
      const Edge& e = edges[rng.Below(edges.size())];
      return {e.src, e.label, e.dst, EdgeOp::kDelete};
    }
  }
  const DiGraph& g = dyn.base_graph();
  for (;;) {
    const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto l = static_cast<Label>(rng.Below(g.num_labels()));
    if (!dyn.HasEdge(u, l, v)) return {u, l, v};
  }
}

/// The core-fuzz driver: batches of mixed mutations through ApplyUpdates,
/// differential after every batch, reseals as the policy dictates.
void RunCoreFuzz(FuzzConfig config) {
  config.seed = EffectiveSeed(config.seed);
  SCOPED_TRACE(Replay(config));
  Rng rng(config.seed);
  const DiGraph g = MakeGraph(config, rng);
  ResealPolicy policy;
  policy.min_delta_entries = 4;
  policy.max_delta_ratio = config.reseal_ratio;
  DynamicRlcIndex dyn(g, BuildSealed(g, config.k), policy);

  for (int round = 0; round < config.rounds; ++round) {
    for (int i = 0; i < config.batch_size; ++i) {
      // Apply one at a time through the batch API so deletes can target
      // edges inserted earlier in the same round.
      const EdgeUpdate update = RandomMutation(dyn, config, rng);
      ASSERT_EQ(dyn.ApplyUpdates(std::span(&update, 1)), 1u) << Replay(config);
    }
    ExpectMatchesRebuild(dyn, config, rng);
    if (config.io_round_trip) ExpectIoRoundTrip(dyn, config, rng);
  }
  // Fold everything and re-check: the sealed state must answer identically.
  dyn.ForceReseal();
  ASSERT_EQ(dyn.index().delta_entries(), 0u) << Replay(config);
  ASSERT_EQ(dyn.index().tombstone_entries(), 0u) << Replay(config);
  ExpectMatchesRebuild(dyn, config, rng);
}

TEST(MutationFuzzTest, ErK2InlineReseals) {
  RunCoreFuzz({.name = "er_k2_inline", .seed = 0xA1, .io_round_trip = true});
}

TEST(MutationFuzzTest, ErK3) {
  RunCoreFuzz({.name = "er_k3",
               .seed = 0xB2,
               .n = 40,
               .m = 120,
               .k = 3,
               .rounds = 3,
               .batch_size = 6});
}

TEST(MutationFuzzTest, BarabasiAlbertReseals) {
  RunCoreFuzz({.name = "ba_k2_reseals",
               .seed = 0xC3,
               .barabasi = true,
               .n = 50,
               .m = 3,
               .labels = 4,
               .reseal_ratio = 1e-6});
}

TEST(MutationFuzzTest, DeleteHeavyChurn) {
  RunCoreFuzz({.name = "er_k2_delete_heavy",
               .seed = 0xD4,
               .n = 50,
               .m = 220,
               .delete_percent = 80,
               .io_round_trip = true});
}

TEST(MutationFuzzTest, DeepFuzzCoreManyRounds) {
  for (const uint64_t seed : {11ull, 22ull, 33ull}) {
    RunCoreFuzz({.name = "deep_er_k2",
                 .seed = seed,
                 .n = 80,
                 .m = 300,
                 .rounds = 8,
                 .batch_size = 10,
                 .io_round_trip = true});
    RunCoreFuzz({.name = "deep_er_k3",
                 .seed = seed ^ 0xFF,
                 .n = 45,
                 .m = 140,
                 .k = 3,
                 .reseal_ratio = 0.01,
                 .rounds = 5,
                 .batch_size = 8});
  }
}

// ---------------------------------------------------------------------------
// Metamorphic round trips: insert -> delete -> reinsert must converge back
// to the insert-once state — answers *and* serialized bytes after a reseal —
// and insert -> delete alone must answer exactly like the never-mutated
// index.

std::string SealedBytes(DynamicRlcIndex& dyn) {
  dyn.ForceReseal();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(dyn.index(), buf);
  return buf.str();
}

TEST(MutationFuzzTest, InsertDeleteReinsertMatchesInsertOnce) {
  const uint64_t kSeed = 0xE5;
  Rng rng(kSeed);
  FuzzConfig config{.name = "metamorphic_round_trip", .seed = kSeed};
  const DiGraph g = MakeGraph(config, rng);
  ResealPolicy policy;
  policy.max_delta_ratio = 1e9;  // reseal manually at the comparison points

  for (int trial = 0; trial < 5; ++trial) {
    DynamicRlcIndex once(g, BuildSealed(g, config.k), policy);
    DynamicRlcIndex churn(g, BuildSealed(g, config.k), policy);
    EdgeUpdate e{};
    for (;;) {
      e = {static_cast<VertexId>(rng.Below(g.num_vertices())),
           static_cast<Label>(rng.Below(g.num_labels())),
           static_cast<VertexId>(rng.Below(g.num_vertices()))};
      if (!once.HasEdge(e.src, e.label, e.dst)) break;
    }
    ASSERT_TRUE(once.InsertEdge(e.src, e.label, e.dst));
    ASSERT_TRUE(churn.InsertEdge(e.src, e.label, e.dst));
    ASSERT_TRUE(churn.DeleteEdge(e.src, e.label, e.dst));
    ASSERT_TRUE(churn.InsertEdge(e.src, e.label, e.dst));
    EXPECT_EQ(SealedBytes(once), SealedBytes(churn))
        << "trial " << trial << " edge " << e.src << " -" << e.label << "-> "
        << e.dst << Replay(config);
  }
}

TEST(MutationFuzzTest, InsertThenDeleteAnswersLikeNeverMutated) {
  const uint64_t kSeed = 0xF6;
  Rng rng(kSeed);
  FuzzConfig config{.name = "metamorphic_cancel", .seed = kSeed};
  const DiGraph g = MakeGraph(config, rng);
  const RlcIndex never = BuildSealed(g, config.k);
  ResealPolicy policy;
  policy.max_delta_ratio = 1e9;
  DynamicRlcIndex dyn(g, BuildSealed(g, config.k), policy);

  for (int trial = 0; trial < 4; ++trial) {
    EdgeUpdate e{};
    for (;;) {
      e = {static_cast<VertexId>(rng.Below(g.num_vertices())),
           static_cast<Label>(rng.Below(g.num_labels())),
           static_cast<VertexId>(rng.Below(g.num_vertices()))};
      if (!dyn.HasEdge(e.src, e.label, e.dst)) break;
    }
    ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
    ASSERT_TRUE(dyn.DeleteEdge(e.src, e.label, e.dst));
    // The cancelling delete never tombstones a CSR entry: every pre-insert
    // entry's witness survives untouched. (Delta entries may remain — the
    // hub-compressed insert cover can add entries whose claims hold even
    // without the edge; they are valid, just redundant.)
    EXPECT_EQ(dyn.index().tombstone_entries(), 0u) << Replay(config);
  }
  for (int probe = 0; probe < 2000; ++probe) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const LabelSeq c =
        RandomPrimitiveSeq(1 + rng.Below(config.k), config.labels, rng);
    ASSERT_EQ(never.Query(s, t, c), dyn.Query(s, t, c)) << Replay(config);
  }
}

// ---------------------------------------------------------------------------
// Sharded-service fuzz: the same mixed workloads routed through
// ShardedRlcService::ApplyUpdates — intra-shard mutations, boundary-summary
// grow/shrink, cross-shard composition over the churned skeleton, batched
// execution — against a whole-graph rebuild oracle. cross_bias steers the
// schedule toward cross-shard edge adds/removes so boundary membership
// flips (vertices gaining/losing boundary status) every round, stressing
// the composition engine's epoch invalidation rather than just intra
// maintenance.

struct ShardedFuzzConfig {
  std::string name;
  uint64_t seed = 1;
  uint32_t shards = 4;
  PartitionPolicy policy = PartitionPolicy::kHash;
  bool cross_bias = false;  ///< steer mutations toward cross-shard edges
  bool frequent_reseals = false;  ///< reseal on (nearly) every mutation
  uint32_t exec_threads = 1;
  int rounds = 3;
  int batch_size = 10;
  /// Transition-table budget of the composition engine; 1 admits no
  /// table, so every skeleton hop expands its shard on the fly.
  uint32_t table_budget_nodes = ComposeOptions{}.table_budget_nodes;
};

void RunShardedFuzz(ShardedFuzzConfig config) {
  config.seed = EffectiveSeed(config.seed);
  const std::string replay =
      " [replay: " + config.name + " seed=" + std::to_string(config.seed) + "]";
  SCOPED_TRACE(replay);
  Rng rng(config.seed);
  const VertexId n = 120;
  const Label labels = 3;
  auto base_edges = ErdosRenyiEdges(n, 480, rng);
  AssignZipfLabels(&base_edges, labels, 2.0, rng);
  const DiGraph g(n, base_edges, labels);

  ServiceOptions options;
  options.partition.num_shards = config.shards;
  options.partition.policy = config.policy;
  options.indexer.k = 2;
  options.build_threads = 2;
  options.exec_threads = config.exec_threads;
  options.exec_probes_per_job = 64;
  if (config.frequent_reseals) {
    options.reseal.min_delta_entries = 1;
    options.reseal.max_delta_ratio = 1e-6;
  }
  options.compose.table_budget_nodes = config.table_budget_nodes;
  ShardedRlcService service(g, options);

  // The mutated graph's current edge multiset, mirrored edge by edge.
  std::vector<Edge> current = base_edges;
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());

  for (int round = 0; round < config.rounds; ++round) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < config.batch_size; ++i) {
      const GraphPartition& part = service.partition();
      if (rng.Below(2) == 0 && !current.empty()) {
        size_t pick = rng.Below(current.size());
        if (config.cross_bias) {
          // Prefer deleting a cross edge: removing the last cross edge at a
          // vertex demotes it from the boundary and shrinks the skeleton.
          for (size_t off = 0; off < current.size(); ++off) {
            const size_t i = (pick + off) % current.size();
            if (part.ShardOf(current[i].src) != part.ShardOf(current[i].dst)) {
              pick = i;
              break;
            }
          }
        }
        const Edge e = current[pick];
        current.erase(current.begin() + static_cast<ptrdiff_t>(pick));
        batch.push_back({e.src, e.label, e.dst, EdgeOp::kDelete});
      } else {
        for (;;) {
          const Edge e{static_cast<VertexId>(rng.Below(n)),
                       static_cast<VertexId>(rng.Below(n)),
                       static_cast<Label>(rng.Below(labels))};
          if (config.cross_bias && part.ShardOf(e.src) == part.ShardOf(e.dst)) {
            continue;  // new edge must cross shards (promotes fresh boundary)
          }
          if (std::find(current.begin(), current.end(), e) != current.end()) {
            continue;
          }
          current.push_back(e);
          batch.push_back({e.src, e.label, e.dst});
          break;
        }
      }
    }
    ASSERT_EQ(service.ApplyUpdates(batch), batch.size()) << replay;

    const DiGraph mutated(n, current, labels);
    const RlcIndex oracle = BuildSealed(mutated, 2);

    // Scalar differential + batched agreement.
    QueryBatch qbatch;
    std::vector<uint8_t> expected;
    for (int probe = 0; probe < 600; ++probe) {
      const auto s = static_cast<VertexId>(rng.Below(n));
      const auto t = static_cast<VertexId>(rng.Below(n));
      const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(2), labels, rng);
      const bool want = oracle.Query(s, t, c);
      ASSERT_EQ(want, service.Query(s, t, c))
          << "round " << round << " s=" << s << " t=" << t << " L="
          << c.ToString() << replay;
      qbatch.Add(s, t, c);
      expected.push_back(want ? 1 : 0);
    }
    const AnswerBatch answers = service.Execute(qbatch);
    ASSERT_EQ(answers.answers, expected) << "round " << round << replay;
  }
  const DiGraph mutated(n, current, labels);
  const RlcIndex oracle = BuildSealed(mutated, 2);
  for (int probe = 0; probe < 400; ++probe) {
    const auto s = static_cast<VertexId>(rng.Below(n));
    const auto t = static_cast<VertexId>(rng.Below(n));
    const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(2), labels, rng);
    ASSERT_EQ(oracle.Query(s, t, c), service.Query(s, t, c)) << replay;
  }
  EXPECT_GT(service.stats().updates_deleted, 0u) << replay;
}

TEST(MutationFuzzTest, ShardedComposeHash) {
  RunShardedFuzz({.name = "sharded_compose_hash", .seed = 0x51});
}

TEST(MutationFuzzTest, ShardedComposeRangeReseals) {
  RunShardedFuzz({.name = "sharded_compose_range_reseals",
                  .seed = 0x52,
                  .shards = 3,
                  .policy = PartitionPolicy::kRange,
                  .frequent_reseals = true,
                  .exec_threads = 4});
}

TEST(MutationFuzzTest, ShardedComposeCrossEdgeChurn) {
  // Every mutation touches a cross edge: boundary membership and the
  // skeleton flip constantly under the composition engine.
  RunShardedFuzz({.name = "sharded_compose_cross_churn",
                  .seed = 0x53,
                  .cross_bias = true,
                  .rounds = 2,
                  .batch_size = 8});
}

TEST(MutationFuzzTest, ShardedComposeCrossChurnOverBudget) {
  // Cross-edge churn with a table budget of 1: no shard gets transition
  // tables, so every composed probe walks the mutated shards on the fly
  // while the rebuild oracle pins its answers.
  RunShardedFuzz({.name = "sharded_cross_churn_over_budget",
                  .seed = 0x55,
                  .cross_bias = true,
                  .rounds = 2,
                  .batch_size = 8,
                  .table_budget_nodes = 1});
}

TEST(MutationFuzzTest, ShardedComposeRangeOrdered) {
  RunShardedFuzz({.name = "sharded_compose_range_ordered",
                  .seed = 0x54,
                  .shards = 3,
                  .policy = PartitionPolicy::kRangeOrdered,
                  .rounds = 2,
                  .batch_size = 8});
}

TEST(MutationFuzzTest, DeepFuzzShardedManySeeds) {
  for (const uint64_t seed : {101ull, 202ull}) {
    RunShardedFuzz({.name = "deep_sharded_compose",
                    .seed = seed,
                    .rounds = 5,
                    .batch_size = 14});
    RunShardedFuzz({.name = "deep_sharded_cross_churn",
                    .seed = seed ^ 0xAB,
                    .cross_bias = true,
                    .exec_threads = 4,
                    .rounds = 3,
                    .batch_size = 10});
    RunShardedFuzz({.name = "deep_sharded_range_ordered",
                    .seed = seed ^ 0xCD,
                    .shards = 5,
                    .policy = PartitionPolicy::kRangeOrdered,
                    .rounds = 3,
                    .batch_size = 12});
  }
}

}  // namespace
}  // namespace rlc

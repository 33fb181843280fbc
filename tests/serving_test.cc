// Serving-subsystem correctness: the partitioner's structural invariants,
// and — the load-bearing property — that ShardedRlcService answers are
// bit-identical to a whole-graph RlcIndex for every probe, on the paper's
// worked-example graphs and on random ER graphs, for every partition
// policy, with empty shards and all-boundary partitions — with no
// whole-graph structure anywhere (cross-shard probes compose over the
// boundary skeleton). The batched executors must match the scalar paths.
// The dedicated partition-sweep differential lives in composition_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "rlc/core/indexer.h"
#include "rlc/core/mr_cache.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/graph/paper_graphs.h"
#include "rlc/serve/partitioner.h"
#include "rlc/serve/query_batch.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/rng.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

DiGraph RandomGraph(VertexId n, uint64_t m, Label labels, uint64_t seed) {
  Rng rng(seed);
  auto edges = ErdosRenyiEdges(n, m, rng);
  AssignZipfLabels(&edges, labels, 2.0, rng);
  return DiGraph(n, std::move(edges), labels);
}

/// Query constraints worth probing: every MR the whole-graph index recorded
/// (these produce the true answers) plus random primitive sequences (mostly
/// unknown, exercising the all-false paths).
std::vector<LabelSeq> ProbeSequences(const DiGraph& g, const RlcIndex& index,
                                     uint32_t k, uint64_t seed) {
  std::vector<LabelSeq> seqs;
  const MrTable& mrs = index.mr_table();
  for (MrId id = 0; id < mrs.size() && id < 24; ++id) {
    if (mrs.Get(id).size() <= k) seqs.push_back(mrs.Get(id));
  }
  if (g.num_labels() >= 2) {
    Rng rng(seed);
    for (int i = 0; i < 8; ++i) {
      seqs.push_back(RandomPrimitiveSeq(1 + i % k, g.num_labels(), rng));
    }
  }
  return seqs;
}

/// Core equivalence check: service answers == whole-graph index answers on
/// `trials` random probes over the sequence pool, scalar and batched.
void ExpectServiceMatchesIndex(const DiGraph& g, const RlcIndex& index,
                               ShardedRlcService& service, int trials,
                               uint64_t seed) {
  const auto seqs = ProbeSequences(g, index, service.k(), seed);
  if (g.num_vertices() == 0 || seqs.empty()) return;
  Rng rng(seed ^ 0xABCD);
  QueryBatch batch;
  std::vector<uint8_t> expected;
  for (int i = 0; i < trials; ++i) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const LabelSeq& c = seqs[rng.Below(seqs.size())];
    const bool want = index.QueryInterned(s, t, index.FindMr(c));
    ASSERT_EQ(want, service.Query(s, t, c))
        << "scalar mismatch s=" << s << " t=" << t << " c=" << c.ToString();
    batch.Add(s, t, c);
    expected.push_back(want ? 1 : 0);
  }
  const AnswerBatch answers = service.Execute(batch);
  ASSERT_EQ(answers.answers.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], answers.answers[i]) << "batched mismatch at " << i;
  }
}

ServiceOptions Opts(uint32_t shards, PartitionPolicy policy, uint32_t k = 2) {
  ServiceOptions options;
  options.partition.num_shards = shards;
  options.partition.policy = policy;
  options.indexer.k = k;
  options.build_threads = 2;
  return options;
}

TEST(PartitionerTest, StructuralInvariants) {
  const DiGraph g = RandomGraph(120, 480, 4, 11);
  for (const PartitionPolicy policy :
       {PartitionPolicy::kHash, PartitionPolicy::kRange}) {
    PartitionerOptions options;
    options.num_shards = 5;
    options.policy = policy;
    const GraphPartition p = GraphPartition::Build(g, options);
    ASSERT_EQ(p.num_shards(), 5u);

    // Every vertex appears exactly once, and the id maps round-trip.
    uint64_t vertices = 0;
    for (uint32_t s = 0; s < p.num_shards(); ++s) {
      const ShardInfo& shard = p.shard(s);
      ASSERT_EQ(shard.graph.num_vertices(), shard.global_of.size());
      ASSERT_EQ(shard.graph.num_labels(), g.num_labels());
      vertices += shard.graph.num_vertices();
      for (VertexId local = 0; local < shard.graph.num_vertices(); ++local) {
        const VertexId global = p.GlobalOf(s, local);
        EXPECT_EQ(p.ShardOf(global), s);
        EXPECT_EQ(p.LocalOf(global), local);
      }
    }
    EXPECT_EQ(vertices, g.num_vertices());

    // Intra + cross edges partition the edge set.
    uint64_t intra = 0;
    for (uint32_t s = 0; s < p.num_shards(); ++s) {
      intra += p.shard(s).graph.num_edges();
    }
    EXPECT_EQ(intra + p.cross_edges().size(), g.num_edges());

    // Boundary flags match the cross edges.
    std::vector<uint8_t> expect_boundary(g.num_vertices(), 0);
    for (const Edge& e : p.cross_edges()) {
      EXPECT_NE(p.ShardOf(e.src), p.ShardOf(e.dst));
      expect_boundary[e.src] = expect_boundary[e.dst] = 1;
    }
    uint64_t boundary = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(p.IsBoundary(v), expect_boundary[v] != 0);
      boundary += expect_boundary[v];
    }
    EXPECT_EQ(boundary, p.num_boundary_vertices());
  }
}

TEST(PartitionerTest, SingleShardHasNoBoundary) {
  const DiGraph g = RandomGraph(60, 200, 3, 5);
  PartitionerOptions options;
  options.num_shards = 1;
  const GraphPartition p = GraphPartition::Build(g, options);
  EXPECT_EQ(p.cross_edges().size(), 0u);
  EXPECT_EQ(p.num_boundary_vertices(), 0u);
  EXPECT_TRUE(p.shard(0).boundary.empty());
  EXPECT_EQ(p.shard(0).graph.num_edges(), g.num_edges());
}

/// The partition's skeleton view equals a fresh Build's: boundary flags,
/// per-shard boundary lists and count, and each vertex's outgoing cross
/// edges (in any order: registered edges append).
void ExpectSameSkeleton(const GraphPartition& got, const GraphPartition& want,
                        VertexId n) {
  ASSERT_EQ(got.num_shards(), want.num_shards());
  EXPECT_EQ(got.num_boundary_vertices(), want.num_boundary_vertices());
  for (uint32_t s = 0; s < want.num_shards(); ++s) {
    EXPECT_EQ(got.shard(s).boundary, want.shard(s).boundary) << "shard " << s;
  }
  const auto sorted = [](std::span<const LabeledNeighbor> adj) {
    std::vector<LabeledNeighbor> v(adj.begin(), adj.end());
    std::sort(v.begin(), v.end());
    return v;
  };
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(got.IsBoundary(v), want.IsBoundary(v)) << "v=" << v;
    EXPECT_EQ(sorted(got.CrossOutEdges(v)), sorted(want.CrossOutEdges(v)))
        << "v=" << v;
  }
}

TEST(PartitionerTest, CrossEdgeUpdatesMatchRebuild) {
  // kHash assigns shards from vertex ids alone, so Build on the mutated
  // graph puts every vertex where the updated partition has it.
  constexpr VertexId kN = 90;
  constexpr Label kLabels = 3;
  const DiGraph g = RandomGraph(kN, 320, kLabels, 17);
  PartitionerOptions options;
  options.num_shards = 4;
  options.policy = PartitionPolicy::kHash;
  GraphPartition p = GraphPartition::Build(g, options);
  std::set<Edge> edges;
  for (const Edge& e : g.ToEdgeList()) edges.insert(e);

  Rng rng(18);
  uint32_t added = 0, removed = 0;
  for (int step = 1; step <= 240; ++step) {
    if (rng.Below(2) == 0 || p.cross_edges().empty()) {
      const Edge e{static_cast<VertexId>(rng.Below(kN)),
                   static_cast<VertexId>(rng.Below(kN)),
                   static_cast<Label>(rng.Below(kLabels))};
      if (p.ShardOf(e.src) == p.ShardOf(e.dst) || edges.count(e) != 0) {
        continue;
      }
      p.AddCrossEdge(e.src, e.label, e.dst);
      edges.insert(e);
      ++added;
    } else {
      const Edge e = p.cross_edges()[rng.Below(p.cross_edges().size())];
      p.RemoveCrossEdge(e.src, e.label, e.dst);
      edges.erase(e);
      ++removed;
    }
    if (step % 40 == 0) {
      SCOPED_TRACE("step=" + std::to_string(step));
      const DiGraph mutated(kN, std::vector<Edge>(edges.begin(), edges.end()),
                            kLabels);
      ExpectSameSkeleton(p, GraphPartition::Build(mutated, options), kN);
    }
  }
  EXPECT_GT(added, 20u);
  EXPECT_GT(removed, 20u);
  EXPECT_THROW(p.AddCrossEdge(0, 0, 0), std::invalid_argument);
}

TEST(PartitionerTest, RejectsBadShardCounts) {
  const DiGraph g = RandomGraph(10, 20, 2, 1);
  PartitionerOptions options;
  options.num_shards = 0;
  EXPECT_THROW(GraphPartition::Build(g, options), std::invalid_argument);
  options.num_shards = GraphPartition::kMaxShards + 1;
  EXPECT_THROW(GraphPartition::Build(g, options), std::invalid_argument);
}

TEST(ServingTest, MatchesWholeGraphOnPaperGraphs) {
  for (const DiGraph& g : {BuildFig1Graph(), BuildFig2Graph()}) {
    const RlcIndex index = BuildRlcIndex(g, 2);
    for (const PartitionPolicy policy :
         {PartitionPolicy::kHash, PartitionPolicy::kRange}) {
      for (const uint32_t shards : {2u, 3u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        ShardedRlcService service(g, Opts(shards, policy));
        // Exhaustive vertex pairs on these tiny graphs, every recorded MR.
        const MrTable& mrs = index.mr_table();
        for (MrId id = 0; id < mrs.size(); ++id) {
          if (mrs.Get(id).size() > 2) continue;
          for (VertexId s = 0; s < g.num_vertices(); ++s) {
            for (VertexId t = 0; t < g.num_vertices(); ++t) {
              ASSERT_EQ(index.QueryInterned(s, t, id),
                        service.Query(s, t, mrs.Get(id)))
                  << "s=" << s << " t=" << t << " c=" << mrs.Get(id).ToString();
            }
          }
        }
      }
    }
  }
}

TEST(ServingTest, MatchesWholeGraphOnErGraphs) {
  for (const uint64_t seed : {21u, 22u}) {
    const DiGraph g = RandomGraph(150, 600, 4, seed);
    const RlcIndex index = BuildRlcIndex(g, 2);
    for (const PartitionPolicy policy :
         {PartitionPolicy::kHash, PartitionPolicy::kRange,
          PartitionPolicy::kRangeOrdered}) {
      for (const uint32_t shards : {1u, 2u, 4u, 7u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " shards=" + std::to_string(shards));
        ShardedRlcService service(g, Opts(shards, policy));
        ExpectServiceMatchesIndex(g, index, service, 1500, seed);
      }
    }
  }
}

TEST(ServingTest, ParallelExecuteMatchesForEveryThreadCount) {
  // The batched executor's fan-out must be invisible: answers and stats
  // identical for every exec_threads / chunk size — shard kernel jobs and
  // composed-probe jobs both.
  const DiGraph g = RandomGraph(150, 600, 4, 23);
  const RlcIndex index = BuildRlcIndex(g, 2);
  ServiceStats reference_stats;
  bool have_reference = false;
  for (const uint32_t threads : {1u, 2u, 5u}) {
    for (const size_t chunk : {size_t{3}, size_t{8192}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk=" + std::to_string(chunk));
      ServiceOptions options = Opts(4, PartitionPolicy::kHash);
      options.exec_threads = threads;
      options.exec_probes_per_job = chunk;
      ShardedRlcService service(g, options);
      ExpectServiceMatchesIndex(g, index, service, 800, 23);
      if (!have_reference) {
        reference_stats = service.stats();
        have_reference = true;
      } else {
        // Deterministic routing: telemetry equal across thread counts.
        EXPECT_EQ(reference_stats.intra_true, service.stats().intra_true);
        EXPECT_EQ(reference_stats.intra_miss, service.stats().intra_miss);
        EXPECT_EQ(reference_stats.compose_probes,
                  service.stats().compose_probes);
        EXPECT_EQ(reference_stats.compose_skeleton_hops,
                  service.stats().compose_skeleton_hops);
        EXPECT_EQ(reference_stats.compose_expanded,
                  service.stats().compose_expanded);
        EXPECT_EQ(reference_stats.batch_groups, service.stats().batch_groups);
      }
    }
  }
}

TEST(ServingTest, EmptyShardsAreHarmless) {
  // Range policy with more shards than the block count leaves the tail
  // shards empty; hash with 8 shards on 5 vertices leaves some empty too.
  const DiGraph g(5, {{0, 1, 0}, {1, 2, 1}, {2, 3, 0}, {3, 4, 1}, {4, 0, 0}}, 2);
  const RlcIndex index = BuildRlcIndex(g, 2);
  for (const PartitionPolicy policy :
       {PartitionPolicy::kHash, PartitionPolicy::kRange}) {
    ShardedRlcService service(g, Opts(8, policy));
    uint32_t empty = 0;
    for (uint32_t s = 0; s < 8; ++s) {
      empty += service.partition().shard(s).graph.num_vertices() == 0;
    }
    EXPECT_GT(empty, 0u);
    ExpectServiceMatchesIndex(g, index, service, 400, 77);
  }
}

TEST(ServingTest, AllBoundaryPartition) {
  // Bipartite halves with only cross-shard edges under the range policy:
  // every vertex is boundary and every shard graph is edgeless.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 5; ++v) {
    edges.push_back({v, static_cast<VertexId>(5 + v), 0});
    edges.push_back({static_cast<VertexId>(5 + v), (v + 1) % 5, 1});
  }
  const DiGraph g(10, std::move(edges), 2);
  const RlcIndex index = BuildRlcIndex(g, 2);
  ShardedRlcService service(g, Opts(2, PartitionPolicy::kRange));
  EXPECT_EQ(service.partition().num_boundary_vertices(), 10u);
  EXPECT_EQ(service.partition().shard(0).graph.num_edges(), 0u);
  EXPECT_EQ(service.partition().shard(1).graph.num_edges(), 0u);
  ExpectServiceMatchesIndex(g, index, service, 500, 31);
}

TEST(ServingTest, RangeOrderedPolicyMatches) {
  const DiGraph g = RandomGraph(100, 350, 3, 9);
  const RlcIndex index = BuildRlcIndex(g, 2);
  for (const OrderHeuristic h :
       {OrderHeuristic::kDegree, OrderHeuristic::kReverseDegree,
        OrderHeuristic::kGreatestConstraintFirst}) {
    ServiceOptions options = Opts(3, PartitionPolicy::kRangeOrdered);
    options.partition.ordering = h;
    ShardedRlcService service(g, options);
    ExpectServiceMatchesIndex(g, index, service, 800, 9);
  }
}

TEST(ServingTest, UnmatchedCrossLabelComposesToFalse) {
  // Two range shards joined by a single label-0 cross edge: a (1)+ probe
  // across shards has no label-matched way out of shard 0, and composition
  // answers it false. The (0)+ probe is false too: 0 has no label-0 edge.
  std::vector<Edge> edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 0},
                             {3, 4, 1}, {4, 5, 1}};
  const DiGraph g(6, std::move(edges), 2);
  ShardedRlcService service(g, Opts(2, PartitionPolicy::kRange));
  ASSERT_NE(service.partition().ShardOf(0), service.partition().ShardOf(4));
  EXPECT_FALSE(service.Query(0, 4, LabelSeq{1}));
  EXPECT_EQ(service.stats().compose_probes, 1u);
  EXPECT_EQ(service.stats().cross_refuted, 0u);
  EXPECT_FALSE(service.Query(0, 4, LabelSeq{0}));
  EXPECT_EQ(service.stats().compose_probes, 2u);
}

TEST(ServingTest, StatsAccountForEveryProbe) {
  const DiGraph g = RandomGraph(120, 500, 3, 15);
  ShardedRlcService service(g, Opts(4, PartitionPolicy::kHash));
  Rng rng(4);
  QueryBatch batch;
  for (int i = 0; i < 300; ++i) {
    service.Query(static_cast<VertexId>(rng.Below(120)),
                  static_cast<VertexId>(rng.Below(120)),
                  RandomPrimitiveSeq(1 + i % 2, 3, rng));
    batch.Add(static_cast<VertexId>(rng.Below(120)),
              static_cast<VertexId>(rng.Below(120)),
              RandomPrimitiveSeq(1 + i % 2, 3, rng));
  }
  service.Execute(batch);
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.queries, 600u);
  // Each Query is a one-probe batch: 300 of them plus the Execute.
  EXPECT_EQ(stats.batches, 301u);
  // Every probe ends in exactly one terminal bucket.
  EXPECT_EQ(stats.queries, stats.intra_true + stats.compose_probes);
  // Misses are the subset of same-shard probes that continued past step 1.
  EXPECT_LE(stats.intra_true, stats.queries);
}

TEST(ServingTest, BatchValidation) {
  const DiGraph g = RandomGraph(30, 90, 3, 2);
  const RlcIndex index = BuildRlcIndex(g, 2);
  ShardedRlcService service(g, Opts(2, PartitionPolicy::kHash));

  QueryBatch empty_seq;
  empty_seq.Add(0, 1, LabelSeq{});
  EXPECT_THROW(service.Execute(empty_seq), std::invalid_argument);
  EXPECT_THROW(ExecuteBatch(index, empty_seq), std::invalid_argument);

  QueryBatch non_primitive;
  non_primitive.Add(0, 1, LabelSeq{1, 1});
  EXPECT_THROW(service.Execute(non_primitive), std::invalid_argument);

  QueryBatch too_long;
  too_long.Add(0, 1, LabelSeq{0, 1, 2});
  EXPECT_THROW(service.Execute(too_long), std::invalid_argument);

  QueryBatch bad_vertex;
  bad_vertex.Add(0, 99, LabelSeq{1});
  EXPECT_THROW(service.Execute(bad_vertex), std::invalid_argument);
  EXPECT_THROW(ExecuteBatch(index, bad_vertex), std::invalid_argument);

  QueryBatch bad_seq_id;
  bad_seq_id.Add(0, 1, /*seq_id=*/3);
  EXPECT_THROW(service.Execute(bad_seq_id), std::invalid_argument);

  EXPECT_THROW(service.Query(0, 99, LabelSeq{1}), std::invalid_argument);
  EXPECT_THROW(service.Query(0, 1, LabelSeq{1, 1}), std::invalid_argument);
}

TEST(ServingTest, SingleIndexBatchMatchesScalar) {
  const DiGraph g = RandomGraph(140, 560, 4, 33);
  const RlcIndex index = BuildRlcIndex(g, 2);
  Rng rng(6);
  QueryBatch batch;
  std::vector<uint8_t> expected;
  const auto seqs = ProbeSequences(g, index, 2, 33);
  for (int i = 0; i < 1200; ++i) {
    const auto s = static_cast<VertexId>(rng.Below(140));
    const auto t = static_cast<VertexId>(rng.Below(140));
    const LabelSeq& c = seqs[rng.Below(seqs.size())];
    batch.Add(s, t, c);
    expected.push_back(index.Query(s, t, c) ? 1 : 0);
  }
  const AnswerBatch answers = ExecuteBatch(index, batch);
  ASSERT_EQ(answers.answers, expected);
  // One executed group per distinct *recorded* sequence.
  EXPECT_GT(answers.num_groups, 0u);
  EXPECT_LE(answers.num_groups, batch.num_sequences());

  // ClearProbes keeps the interned templates usable.
  QueryBatch reuse = batch;
  reuse.ClearProbes();
  EXPECT_EQ(reuse.num_probes(), 0u);
  EXPECT_EQ(reuse.num_sequences(), batch.num_sequences());
  reuse.Add(1, 2, /*seq_id=*/0);
  EXPECT_EQ(ExecuteBatch(index, reuse).answers.size(), 1u);
}

TEST(ServingTest, QueryGroupInternedMatchesScalar) {
  const DiGraph g = RandomGraph(160, 640, 4, 44);
  IndexerOptions options;
  options.k = 2;
  options.seal = false;
  RlcIndexBuilder builder(g, options);
  RlcIndex nested = builder.Build();
  RlcIndex sealed = nested;
  sealed.Seal();

  Rng rng(8);
  std::vector<VertexPair> probes;
  for (int i = 0; i < 600; ++i) {
    probes.push_back({static_cast<VertexId>(rng.Below(160)),
                      static_cast<VertexId>(rng.Below(160))});
  }
  std::vector<uint8_t> sealed_ans(probes.size());
  std::vector<uint8_t> nested_ans(probes.size());
  for (MrId mr : {MrId{0}, MrId{1}, kInvalidMrId}) {
    sealed.QueryGroupInterned(mr, probes, sealed_ans);
    nested.QueryGroupInterned(mr, probes, nested_ans);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(sealed_ans[i], sealed.QueryInterned(probes[i].s, probes[i].t, mr))
          << "mr=" << mr << " i=" << i;
      ASSERT_EQ(sealed_ans[i], nested_ans[i]);
    }
  }
}

TEST(ServingTest, MrCacheMatchesFindMr) {
  const DiGraph g = RandomGraph(80, 320, 3, 3);
  const RlcIndex index = BuildRlcIndex(g, 2);
  MrCache cache(index);
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const LabelSeq seq = RandomPrimitiveSeq(1 + i % 2, 3, rng);
    EXPECT_EQ(cache.Get(seq), index.FindMr(seq));
    EXPECT_EQ(cache.Get(seq), index.FindMr(seq));  // memoized hit
  }
  EXPECT_GT(cache.size(), 0u);
  EXPECT_LE(cache.size(), 200u);
}

TEST(ServingTest, ParallelShardBuildsAreDeterministic) {
  const DiGraph g = RandomGraph(130, 520, 4, 55);
  ServiceOptions sequential = Opts(4, PartitionPolicy::kHash);
  sequential.build_threads = 1;
  ServiceOptions parallel = Opts(4, PartitionPolicy::kHash);
  parallel.build_threads = 4;
  ShardedRlcService a(g, sequential);
  ShardedRlcService b(g, parallel);
  for (uint32_t s = 0; s < 4; ++s) {
    ASSERT_EQ(a.shard_index(s).NumEntries(), b.shard_index(s).NumEntries());
    ASSERT_EQ(a.shard_index(s).mr_table().size(),
              b.shard_index(s).mr_table().size());
  }
  Rng rng(14);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<VertexId>(rng.Below(130));
    const auto t = static_cast<VertexId>(rng.Below(130));
    const LabelSeq c = RandomPrimitiveSeq(1 + i % 2, 4, rng);
    ASSERT_EQ(a.Query(s, t, c), b.Query(s, t, c));
  }
}

/// Shared driver for the live-update differential: apply random *mixed*
/// insert/delete batches and, after each, re-check the service (scalar +
/// batched) against a fresh whole-graph index built on the mutated graph.
void RunUpdateDifferential(ServiceOptions options, uint64_t seed) {
  const VertexId n = 150;
  const Label labels = 3;
  std::vector<Edge> base_edges;
  {
    Rng rng(seed);
    base_edges = ErdosRenyiEdges(n, 600, rng);
    AssignZipfLabels(&base_edges, labels, 2.0, rng);
  }
  const DiGraph g(n, base_edges, labels);
  ShardedRlcService service(g, options);

  Rng rng(seed ^ 0x5EED);
  // Mirror of the mutated graph's edge set. The DiGraph deduplicates exact
  // parallel copies (and the service deletes all copies of a triple), so
  // the mirror starts deduplicated too.
  std::vector<Edge> mutated_edges = base_edges;
  std::sort(mutated_edges.begin(), mutated_edges.end());
  mutated_edges.erase(
      std::unique(mutated_edges.begin(), mutated_edges.end()),
      mutated_edges.end());
  uint64_t applied_total = 0;
  uint64_t deleted_total = 0;
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<EdgeUpdate> updates;
    // Four deletes of currently-present edges lead the batch.
    for (int i = 0; i < 4; ++i) {
      const size_t pick = rng.Below(mutated_edges.size());
      const Edge e = mutated_edges[pick];
      mutated_edges.erase(mutated_edges.begin() +
                          static_cast<ptrdiff_t>(pick));
      updates.push_back({e.src, e.label, e.dst, EdgeOp::kDelete});
      ++deleted_total;
    }
    // Eight inserts of new edges follow; none may collide with the first
    // deleted edge (reserved for the no-op delete below).
    const EdgeUpdate reserved = updates[0];
    while (updates.size() < 12) {
      const auto u = static_cast<VertexId>(rng.Below(n));
      const auto v = static_cast<VertexId>(rng.Below(n));
      const auto l = static_cast<Label>(rng.Below(labels));
      if (u == reserved.src && l == reserved.label && v == reserved.dst) {
        continue;
      }
      if (std::find(mutated_edges.begin(), mutated_edges.end(),
                    Edge{u, v, l}) != mutated_edges.end()) {
        continue;
      }
      mutated_edges.push_back({u, v, l});
      updates.push_back({u, l, v});
    }
    // Two no-ops ride along: re-inserting one of this batch's own inserts
    // and re-deleting the already-deleted reserved edge.
    updates.push_back(updates[4]);
    updates.push_back(reserved);

    ASSERT_EQ(service.ApplyUpdates(updates), 12u);
    applied_total += 12;
    ASSERT_EQ(service.stats().updates_applied, applied_total);
    ASSERT_EQ(service.stats().updates_deleted, deleted_total);
    ASSERT_EQ(service.stats().updates_duplicate, uint64_t(2 * (batch + 1)));

    const DiGraph mutated(n, mutated_edges, labels);
    const RlcIndex fresh = BuildRlcIndex(mutated, options.indexer.k);
    ExpectServiceMatchesIndex(mutated, fresh, service, 400, seed + batch);
  }
  EXPECT_GT(service.stats().updates_cross, 0u);
}

TEST(ServingTest, ApplyUpdatesMatchesRebuiltIndexHybrid) {
  RunUpdateDifferential(Opts(4, PartitionPolicy::kHash), 111);
}

TEST(ServingTest, ApplyUpdatesMatchesRebuiltIndexRange) {
  RunUpdateDifferential(Opts(3, PartitionPolicy::kRange), 222);
}

TEST(ServingTest, ApplyUpdatesMatchesRebuiltIndexRangeOrdered) {
  RunUpdateDifferential(Opts(4, PartitionPolicy::kRangeOrdered), 333);
}

TEST(ServingTest, ApplyUpdatesWithResealsAndExecThreads) {
  ServiceOptions options = Opts(4, PartitionPolicy::kHash);
  options.exec_threads = 4;
  options.exec_probes_per_job = 32;
  options.reseal.min_delta_entries = 1;
  options.reseal.max_delta_ratio = 1e-6;  // reseal on (nearly) every insert
  RunUpdateDifferential(options, 444);
}

TEST(ServingTest, SameUpdateStreamGivesSameShardState) {
  // Shard reseals run inline at the mutation that crosses the policy, so
  // two services fed one insert/delete stream reseal at the same points
  // and report the same bytes and entry counts after every batch.
  const VertexId n = 1500;
  const Label labels = 3;
  const DiGraph g = RandomGraph(n, 6000, labels, 777);
  ServiceOptions options = Opts(4, PartitionPolicy::kHash);
  options.reseal.min_delta_entries = 4;
  options.reseal.max_delta_ratio = 0.02;
  ShardedRlcService a(g, options);
  ShardedRlcService b(g, options);

  std::vector<Edge> current = g.ToEdgeList();
  Rng rng(779);
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<EdgeUpdate> updates;
    for (int i = 0; i < 32; ++i) {
      if (rng.Below(2) == 0) {
        const size_t pick = rng.Below(current.size());
        const Edge e = current[pick];
        current.erase(current.begin() + static_cast<ptrdiff_t>(pick));
        updates.push_back({e.src, e.label, e.dst, EdgeOp::kDelete});
      } else {
        const Edge e{static_cast<VertexId>(rng.Below(n)),
                     static_cast<VertexId>(rng.Below(n)),
                     static_cast<Label>(rng.Below(labels))};
        current.push_back(e);
        updates.push_back({e.src, e.label, e.dst});
      }
    }
    ASSERT_EQ(a.ApplyUpdates(updates), b.ApplyUpdates(updates));
    ASSERT_EQ(a.MemoryBytes(), b.MemoryBytes()) << "batch " << batch;
    for (uint32_t s = 0; s < a.partition().num_shards(); ++s) {
      ASSERT_EQ(a.shard_index(s).NumEntries(), b.shard_index(s).NumEntries())
          << "batch " << batch << " shard " << s;
      ASSERT_EQ(a.shard_index(s).delta_entries(),
                b.shard_index(s).delta_entries())
          << "batch " << batch << " shard " << s;
    }
  }
  uint64_t reseals = 0;
  for (uint32_t s = 0; s < a.partition().num_shards(); ++s) {
    reseals += a.shard_dynamic(s).stats().reseals;
  }
  EXPECT_GT(reseals, 0u);
}

// Composition reads a shard's base edges through
// DynamicRlcIndex::base_graph(); that must be the partition's subgraph
// itself, or composed walks would miss the graph the partition routes on.
void ExpectShardsReadPartitionSubgraphs(const ShardedRlcService& service) {
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    EXPECT_EQ(&service.shard_dynamic(s).base_graph(),
              &service.partition().shard(s).graph)
        << "shard " << s;
  }
}

TEST(ServingTest, ShardIndexesAliasPartitionSubgraphs) {
  const DiGraph g = RandomGraph(60, 240, 3, 556);
  ShardedRlcService service(g, Opts(3, PartitionPolicy::kHash));
  ExpectShardsReadPartitionSubgraphs(service);
  std::vector<EdgeUpdate> updates;
  for (VertexId v = 0; v + 1 < 12; ++v) {
    updates.push_back({v, static_cast<Label>(v % 3), v + 1, EdgeOp::kInsert});
  }
  service.ApplyUpdates(updates);
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    service.ReviveShard(s);  // rebuild path: no durable store
  }
  ExpectShardsReadPartitionSubgraphs(service);
}

TEST(ServingTest, ApplyUpdatesRejectsBadBatchWithoutApplyingAnything) {
  const DiGraph g = RandomGraph(60, 240, 3, 555);
  ShardedRlcService service(g, Opts(3, PartitionPolicy::kHash));
  // A valid new edge followed by an invalid one: the batch must be rejected
  // atomically — nothing applied, no stats movement.
  Rng rng(556);
  EdgeUpdate fresh{};
  for (;;) {
    fresh = {static_cast<VertexId>(rng.Below(60)),
             static_cast<Label>(rng.Below(3)),
             static_cast<VertexId>(rng.Below(60))};
    if (!g.HasEdge(fresh.src, fresh.dst, fresh.label)) break;
  }
  const std::vector<EdgeUpdate> bad_vertex = {fresh, {60, 0, 1}};
  EXPECT_THROW(service.ApplyUpdates(bad_vertex), std::invalid_argument);
  const std::vector<EdgeUpdate> bad_label = {fresh, {0, 3, 1}};
  EXPECT_THROW(service.ApplyUpdates(bad_label), std::invalid_argument);
  EXPECT_EQ(service.stats().updates_applied, 0u);
  EXPECT_EQ(service.stats().updates_duplicate, 0u);
  // The service still answers exactly like the unmutated whole-graph index.
  const RlcIndex fresh_index = BuildRlcIndex(g, 2);
  ExpectServiceMatchesIndex(g, fresh_index, service, 200, 557);
}

TEST(ServingTest, RoutingIsStableAcrossFirstUpdate) {
  // PR 4 built a plain 2-hop prefilter into the hybrid fallback and
  // silently dropped it on the first applied update — identical queries
  // changed cost model mid-flight. The prefilter is now gone for good:
  // this test pins that the same probe set routes identically (same
  // per-category stat deltas) before and after updates begin, and answers
  // stay exact either way. The hybrid *engine* keeps its optional
  // prefilter for static deployments (engines_test).
  const DiGraph g = RandomGraph(120, 460, 3, 777);
  ShardedRlcService service(g, Opts(4, PartitionPolicy::kHash));

  std::vector<RlcQuery> probes;
  Rng rng(778);
  for (int i = 0; i < 200; ++i) {
    probes.push_back({static_cast<VertexId>(rng.Below(120)),
                      static_cast<VertexId>(rng.Below(120)),
                      RandomPrimitiveSeq(1 + i % 2, 3, rng), false});
  }
  auto run_probes = [&] {
    const ServiceStats before = service.stats();
    for (const RlcQuery& q : probes) service.Query(q.s, q.t, q.constraint);
    const ServiceStats& after = service.stats();
    return std::tuple(after.intra_true - before.intra_true,
                      after.intra_miss - before.intra_miss,
                      after.compose_probes - before.compose_probes);
  };
  const auto before_update = run_probes();

  // A no-op batch (duplicate insert + delete of an absent edge) must not
  // change routing at all.
  const Edge base_edge = g.ToEdgeList().front();
  EdgeUpdate absent{};
  for (;;) {
    absent = {static_cast<VertexId>(rng.Below(120)),
              static_cast<Label>(rng.Below(3)),
              static_cast<VertexId>(rng.Below(120))};
    if (!g.HasEdge(absent.src, absent.dst, absent.label)) break;
  }
  absent.op = EdgeOp::kDelete;
  const std::vector<EdgeUpdate> noop = {
      {base_edge.src, base_edge.label, base_edge.dst}, absent};
  ASSERT_EQ(service.ApplyUpdates(noop), 0u);
  EXPECT_EQ(before_update, run_probes());

  // A real mutation pair that cancels out (insert then delete of the same
  // new edge) restores the exact pre-update graph: identical probes must
  // route through the same categories with the same counts — no dropped
  // shortcut, no behavior cliff after update #1.
  absent.op = EdgeOp::kInsert;
  const std::vector<EdgeUpdate> churn = {
      absent, {absent.src, absent.label, absent.dst, EdgeOp::kDelete}};
  ASSERT_EQ(service.ApplyUpdates(churn), 2u);
  EXPECT_EQ(before_update, run_probes());

  // And answers stay exact against the unmutated oracle.
  const RlcIndex fresh = BuildRlcIndex(g, 2);
  ExpectServiceMatchesIndex(g, fresh, service, 300, 779);
}

TEST(ServingTest, WorkloadAnswersMatchOracle) {
  // End-to-end: the generated workload's oracle answers must come back
  // from the batched sharded path.
  const DiGraph g = RandomGraph(200, 800, 4, 66);
  WorkloadOptions wopts;
  wopts.count = 150;
  wopts.constraint_length = 2;
  const Workload w = GenerateWorkload(g, wopts);
  ShardedRlcService service(g, Opts(4, PartitionPolicy::kHash));
  QueryBatch batch;
  std::vector<uint8_t> expected;
  for (const auto* set : {&w.true_queries, &w.false_queries}) {
    for (const RlcQuery& q : *set) {
      batch.Add(q.s, q.t, q.constraint);
      expected.push_back(q.expected ? 1 : 0);
    }
  }
  const AnswerBatch answers = service.Execute(batch);
  ASSERT_EQ(answers.answers, expected);
}

}  // namespace
}  // namespace rlc

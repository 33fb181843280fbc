// Partition-sweep differential suite for cross-shard composition.
//
// The routing tier this pins: a cross-shard probe is answered by
// source-shard suffix -> boundary-skeleton hop(s) -> target-shard prefix
// (serve/compose.h) with NO whole-graph structure anywhere in the service.
// The whole-graph RlcIndex appears here only as the test oracle.
//
// Every cell of the matrix
//   policy in {hash, range, range-ordered} x shards in {1, 2, 4, 7}
//     x k in {2, 3} x oracle signatures {on, off}
//     x table budget {default, 1}
// compares the composed service bit-exact against the oracle on ER,
// Barabasi-Albert, and planted-partition community graphs — scalar Query
// and batched Execute both — over probe sets that cover every endpoint
// category: both endpoints boundary vertices, both interior, and mixed.
// A table budget of 1 admits no transition table, so those cells drive
// every skeleton hop through on-the-fly expansion.
// A second group pins the checkpoint layout: transition tables are never
// persisted, so a recovered service's engine starts cold. Later groups pin
// the skeleton walk, the row-build DFS (rows bit for bit
// against a brute-force product BFS, shared row objects, cross-build
// reuse) and concurrent builds on one cold plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "rlc/core/indexer.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/serve/compose.h"
#include "rlc/serve/query_batch.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/rng.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

namespace fs = std::filesystem;

RlcIndex BuildSealed(const DiGraph& g, uint32_t k) {
  IndexerOptions options;
  options.k = k;
  RlcIndexBuilder builder(g, options);
  return builder.Build();
}

DiGraph ErGraph(VertexId n, uint64_t m, Label labels, uint64_t seed) {
  Rng rng(seed);
  auto edges = ErdosRenyiEdges(n, m, rng);
  AssignZipfLabels(&edges, labels, 2.0, rng);
  return DiGraph(n, std::move(edges), labels);
}

DiGraph BaGraph(VertexId n, uint32_t m0, Label labels, uint64_t seed) {
  Rng rng(seed);
  auto edges = BarabasiAlbertEdges(n, m0, rng);
  AssignZipfLabels(&edges, labels, 2.0, rng);
  return DiGraph(n, std::move(edges), labels);
}

DiGraph CommunityGraph(VertexId n, uint64_t m, Label labels, uint64_t seed) {
  Rng rng(seed);
  auto edges = PlantedPartitionEdges(n, m, 4, 0.85, rng);
  AssignZipfLabels(&edges, labels, 2.0, rng);
  return DiGraph(n, std::move(edges), labels);
}

/// Constraints worth probing: oracle MRs (capped) plus random primitive
/// sequences of every length up to k.
std::vector<LabelSeq> ProbeSeqs(const RlcIndex& oracle, Label labels,
                                uint32_t k, Rng& rng) {
  std::vector<LabelSeq> seqs;
  const MrTable& mrs = oracle.mr_table();
  for (MrId id = 0; id < mrs.size() && seqs.size() < 8; ++id) {
    if (mrs.Get(id).size() <= k) seqs.push_back(mrs.Get(id));
  }
  for (uint32_t i = 0; i < 4; ++i) {
    seqs.push_back(RandomPrimitiveSeq(1 + i % k, labels, rng));
  }
  return seqs;
}

/// Endpoint pairs covering all categories the skeleton routing has to get
/// right: boundary->boundary, interior->interior, boundary->interior,
/// interior->boundary, plus uniform pairs. Single-shard partitions have no
/// boundary; the uniform pairs then carry the cell.
std::vector<std::pair<VertexId, VertexId>> ProbePairs(
    const GraphPartition& partition, VertexId n, Rng& rng) {
  std::vector<VertexId> boundary, interior;
  for (VertexId v = 0; v < n; ++v) {
    (partition.IsBoundary(v) ? boundary : interior).push_back(v);
  }
  const auto pick = [&](const std::vector<VertexId>& from) {
    return from[rng.Below(from.size())];
  };
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 24; ++i) {
    if (!boundary.empty()) {
      pairs.emplace_back(pick(boundary), pick(boundary));
      if (!interior.empty()) {
        pairs.emplace_back(pick(boundary), pick(interior));
        pairs.emplace_back(pick(interior), pick(boundary));
      }
    }
    if (!interior.empty()) pairs.emplace_back(pick(interior), pick(interior));
    pairs.emplace_back(static_cast<VertexId>(rng.Below(n)),
                       static_cast<VertexId>(rng.Below(n)));
  }
  return pairs;
}

/// One cell of the sweep: build the service, compare every (pair, seq)
/// probe scalar and batched against the oracle (signatures and table
/// budget as configured).
void RunCell(const DiGraph& g, const RlcIndex& oracle, bool use_signatures,
             PartitionPolicy policy, uint32_t shards, uint32_t k,
             uint32_t table_budget, uint64_t seed) {
  SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)) +
               " shards=" + std::to_string(shards) + " k=" + std::to_string(k) +
               " sig=" + std::to_string(use_signatures) +
               " budget=" + std::to_string(table_budget) +
               " seed=" + std::to_string(seed));
  RlcIndex ref = oracle;  // cheap relative to the build; keeps oracle const
  ref.set_use_signatures(use_signatures);

  ServiceOptions options;
  options.partition.num_shards = shards;
  options.partition.policy = policy;
  options.indexer.k = k;
  options.build_threads = 2;
  options.compose.table_budget_nodes = table_budget;
  ShardedRlcService service(g, options);

  Rng rng(seed);
  const auto seqs = ProbeSeqs(ref, g.num_labels(), k, rng);
  const auto pairs = ProbePairs(service.partition(), g.num_vertices(), rng);

  QueryBatch batch;
  std::vector<uint8_t> expected;
  for (const LabelSeq& seq : seqs) {
    const uint32_t seq_id = batch.InternSequence(seq);
    for (const auto& [s, t] : pairs) {
      const bool want = ref.Query(s, t, seq);
      ASSERT_EQ(want, service.Query(s, t, seq))
          << "s=" << s << " t=" << t << " L=" << seq.ToString();
      batch.Add(s, t, seq_id);
      expected.push_back(want ? 1 : 0);
    }
  }
  const AnswerBatch answers = service.Execute(batch);
  ASSERT_EQ(answers.answers, expected);
  EXPECT_TRUE(answers.all_ok());

  // Routing is total: every scalar probe terminated in exactly one tier.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries,
            stats.intra_true + stats.cross_refuted + stats.compose_probes);
}

void RunSweep(const DiGraph& g, uint64_t seed) {
  const uint32_t default_budget = ComposeOptions{}.table_budget_nodes;
  for (const uint32_t k : {2u, 3u}) {
    const RlcIndex oracle = BuildSealed(g, k);
    for (const PartitionPolicy policy :
         {PartitionPolicy::kHash, PartitionPolicy::kRange,
          PartitionPolicy::kRangeOrdered}) {
      for (const uint32_t shards : {1u, 2u, 4u, 7u}) {
        for (const bool sig : {true, false}) {
          for (const uint32_t budget : {default_budget, 1u}) {
            RunCell(g, oracle, sig, policy, shards, k, budget,
                    seed ^ (k * 131) ^ (shards * 17) ^
                        (static_cast<uint64_t>(policy) << 8) ^ sig);
          }
        }
      }
    }
  }
}

TEST(CompositionSweepTest, ErdosRenyi) { RunSweep(ErGraph(72, 300, 3, 0xE1), 0xE1); }

TEST(CompositionSweepTest, BarabasiAlbert) {
  RunSweep(BaGraph(72, 3, 3, 0xB2), 0xB2);
}

TEST(CompositionSweepTest, Community) {
  RunSweep(CommunityGraph(72, 300, 3, 0xC3), 0xC3);
}

// ---------------------------------------------------------------------------
// Checkpoint layout: a generation holds the service snapshot and one
// snapshot per shard, nothing else. Transition tables stay in memory, so a
// recovered engine starts cold and a stale compose.snap (the warm-cache
// file older builds wrote) is ignored, then retired with its generation.

TEST(ServiceCheckpointTest, GenerationHoldsOnlyServiceAndShardSnapshots) {
  const DiGraph g = ErGraph(50, 200, 3, 0x20);
  const RlcIndex oracle = BuildSealed(g, 2);
  std::string dir;
  {
    std::string templ =
        (fs::temp_directory_path() / "rlc_compose_svc_XXXXXX").string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir = buf.data();
  }
  ServiceOptions options;
  options.partition.num_shards = 3;
  options.indexer.k = 2;
  options.durability.dir = dir;
  options.durability.checkpoint_wal_bytes = 0;
  const auto gen_dir = [&](uint64_t gen) {
    return fs::path(dir) / ("gen-" + std::to_string(gen));
  };
  const auto expect_layout = [&](uint64_t gen) {
    std::set<std::string> want = {"service.snap"};
    for (uint32_t i = 0; i < options.partition.num_shards; ++i) {
      want.insert("shard-" + std::to_string(i) + ".snap");
    }
    std::set<std::string> got;
    for (const auto& entry : fs::directory_iterator(gen_dir(gen))) {
      got.insert(entry.path().filename().string());
    }
    EXPECT_EQ(got, want) << "gen-" << gen;
  };

  Rng rng(0x20);
  uint64_t warm_gen = 0;
  {
    ShardedRlcService service(g, options);
    for (int i = 0; i < 200; ++i) {  // build transition rows
      service.Query(static_cast<VertexId>(rng.Below(g.num_vertices())),
                    static_cast<VertexId>(rng.Below(g.num_vertices())),
                    RandomPrimitiveSeq(1 + rng.Below(2), g.num_labels(), rng));
    }
    ASSERT_GT(service.composition().num_cached_plans(), 0u);
    service.Checkpoint();
    warm_gen = service.generation();
    expect_layout(warm_gen);
  }
  const fs::path stale = gen_dir(warm_gen) / "compose.snap";
  std::ofstream(stale, std::ios::binary) << "stale composition cache";
  ASSERT_TRUE(fs::exists(stale));

  {
    ShardedRlcService reopened(g, options);
    ASSERT_TRUE(reopened.recovery_info().recovered);
    EXPECT_EQ(reopened.recovery_info().generation, warm_gen);
    EXPECT_EQ(reopened.composition().num_cached_plans(), 0u);
    expect_layout(reopened.generation());  // the constructor's checkpoint
    Rng prng(0x21);
    for (int i = 0; i < 400; ++i) {
      const auto s = static_cast<VertexId>(prng.Below(g.num_vertices()));
      const auto t = static_cast<VertexId>(prng.Below(g.num_vertices()));
      const LabelSeq c =
          RandomPrimitiveSeq(1 + prng.Below(2), g.num_labels(), prng);
      ASSERT_EQ(oracle.Query(s, t, c), reopened.Query(s, t, c))
          << "s=" << s << " t=" << t << " L=" << c.ToString();
    }
    // Retention retires the recovered generation, planted file and all.
    for (uint32_t i = 0; i < options.durability.keep_generations; ++i) {
      reopened.Checkpoint();
    }
    EXPECT_FALSE(fs::exists(gen_dir(warm_gen)));
    expect_layout(reopened.generation());
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename(), "compose.snap") << entry.path();
  }
  fs::remove_all(dir);
}

struct EngineParts {
  GraphPartition partition;
  std::vector<std::unique_ptr<DynamicRlcIndex>> shards;
};

EngineParts MakeParts(const DiGraph& g, uint32_t num_shards,
                      PartitionPolicy policy) {
  EngineParts parts;
  PartitionerOptions popts;
  popts.num_shards = num_shards;
  popts.policy = policy;
  parts.partition = GraphPartition::Build(g, popts);
  for (uint32_t s = 0; s < parts.partition.num_shards(); ++s) {
    const DiGraph& sg = parts.partition.shard(s).graph;
    parts.shards.push_back(std::make_unique<DynamicRlcIndex>(
        sg, BuildSealed(sg, 2), ResealPolicy{}));
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Skeleton walk on a hand-built graph: a probe stops at the first accepting
// entry, and a skeleton entry that an earlier table hop into its shard
// already reached needs no transition row of its own.

/// kRange over 8 vertices and 2 shards: {0..3} | {4..7}. Source 0 crosses
/// into b1 = 4 and b2 = 5 (popped in that order); inside shard 1, 4 -a-> 5
/// puts b2 in b1's row under a+. 6 -b-> 7 keeps 7 out of reach.
DiGraph TwoShardSkeletonGraph() {
  const Label a = 0, b = 1;
  return DiGraph(8,
                 {{0, 4, a}, {0, 5, a}, {1, 2, a}, {4, 5, a}, {5, 6, a},
                  {6, 7, b}},
                 2);
}

TEST(SkeletonWalkTest, FirstAcceptingPopEndsTheWalk) {
  const DiGraph g = TwoShardSkeletonGraph();
  const EngineParts parts = MakeParts(g, 2, PartitionPolicy::kRange);
  ASSERT_EQ(parts.partition.ShardOf(4), 1u);
  CompositionEngine engine(parts.partition, parts.shards, ComposeOptions{});
  const LabelSeq seq{Label{0}};
  const CompositionEngine::Plan& plan = engine.PreparePlan(seq);
  CompositionEngine::Scratch scratch;

  // The very first probe: entry b1 = 4 is the target itself, so the walk
  // answers at its first pop, before any transition row is built.
  const ComposeResult r = engine.ComposedQuery(0, 4, plan, scratch);
  EXPECT_TRUE(r.reachable);
  EXPECT_EQ(r.skeleton_hops, 1u);
  EXPECT_EQ(r.table_rows_built, 0u);
}

TEST(CoveredSetTest, CoveredEntrySkipsItsRow) {
  const DiGraph g = TwoShardSkeletonGraph();
  const EngineParts parts = MakeParts(g, 2, PartitionPolicy::kRange);
  ASSERT_EQ(parts.partition.ShardOf(3), 0u);
  ASSERT_EQ(parts.partition.ShardOf(4), 1u);
  CompositionEngine engine(parts.partition, parts.shards, ComposeOptions{});
  const RlcIndex oracle = BuildSealed(g, 2);
  const LabelSeq seq{Label{0}};
  const CompositionEngine::Plan& plan = engine.PreparePlan(seq);
  CompositionEngine::Scratch scratch;

  // A shard-0 target is never accepted in shard 1, so the probe pops both
  // entries; b2 is covered by b1's row and builds nothing.
  const ComposeResult first = engine.ComposedQuery(0, 1, plan, scratch);
  EXPECT_FALSE(first.reachable);
  EXPECT_EQ(first.skeleton_hops, 2u);
  EXPECT_EQ(first.table_rows_built, 1u);

  // Source 0 has no intra edge, so every witness crosses shards and the
  // composed answer must equal the whole-graph answer for every target.
  uint32_t rows_built = first.table_rows_built;
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    const ComposeResult r = engine.ComposedQuery(0, t, plan, scratch);
    EXPECT_EQ(r.reachable, oracle.Query(0, t, seq)) << "t=" << t;
    rows_built += r.table_rows_built;
  }
  EXPECT_EQ(rows_built, 1u);
}

// ---------------------------------------------------------------------------
// Row builds: one Tarjan DFS per missing row publishes the row of every
// boundary state it finishes. Each case hand-builds shard 1 of a kRange
// two-shard graph; shard 0 only feeds it, through one gadget chain per
// boundary product state (b, p) — a probe from the chain's source pops
// exactly the entry (b, p), and shard 1 has no cross edge out, so a probe
// fetches exactly one row. Every published row must equal, bit for bit,
// a brute-force product BFS over the current shard-1 edges, before and
// after a mutation of that shard.

class RowBuildHarness {
 public:
  static constexpr VertexId kHalf = 24;  ///< shard 0 = [0, 24), shard 1 after

  /// `edges` and `boundary` are shard-1 local ids.
  RowBuildHarness(LabelSeq seq, std::vector<Edge> edges,
                  std::vector<VertexId> boundary)
      : seq_(seq), j_(seq.size()), edges_(std::move(edges)) {
    std::vector<Edge> all;
    for (const Edge& e : edges_) {
      all.push_back({kHalf + e.src, kHalf + e.dst, e.label});
    }
    VertexId next = 0;
    for (const VertexId b : boundary) {
      for (uint32_t p = 0; p < j_; ++p) {
        // A chain of m >= 1 edges spelling seq from (src, 0) whose last,
        // cross edge lands at (b, m mod j) = (b, p).
        const uint32_t m = p == 0 ? j_ : p;
        sources_[{b, p}] = next;
        for (uint32_t i = 0; i + 1 < m; ++i) {
          all.push_back({next + i, next + i + 1, seq_[i % j_]});
        }
        all.push_back({next + m - 1, kHalf + b, seq_[(m - 1) % j_]});
        next += m;
      }
    }
    EXPECT_LE(next, kHalf);
    parts_ = MakeParts(DiGraph(2 * kHalf, all, 2), 2, PartitionPolicy::kRange);
    EXPECT_EQ(parts_.partition.shard(1).boundary, boundary);
    engine_ = std::make_unique<CompositionEngine>(parts_.partition,
                                                  parts_.shards);
  }

  /// Probes the entry (b, p) of shard 1: at most one row build.
  ComposeResult Probe(VertexId b, uint32_t p) {
    const VertexId src = sources_.at({b, p});
    const ComposeResult r = engine_->ComposedQuery(
        src, src, engine_->PreparePlan(seq_), scratch_);
    EXPECT_FALSE(r.reachable);
    EXPECT_EQ(r.skeleton_hops, 1u);
    EXPECT_LE(r.table_rows_built, 1u);
    EXPECT_GE(r.row_states, r.table_rows_built);
    return r;
  }

  const CompositionEngine::ShardPlan& plan() {
    return *engine_->PreparePlan(seq_).shards[1];
  }
  const CompositionEngine::BoundaryRow* Row(VertexId b, uint32_t p) {
    return plan().Row(Ord(b) * j_ + p);
  }

  /// Brute-force product BFS from (b, p) over the current shard-1 edges:
  /// the boundary bits it reaches (start included) and its state count.
  std::pair<std::vector<uint64_t>, uint32_t> Reach(VertexId b, uint32_t p) {
    const std::vector<VertexId>& boundary = parts_.partition.shard(1).boundary;
    std::vector<uint64_t> bits((boundary.size() * j_ + 63) / 64, 0);
    std::vector<std::pair<VertexId, uint32_t>> queue{{b, p}};
    std::vector<uint8_t> seen(static_cast<size_t>(kHalf) * j_, 0);
    seen[b * j_ + p] = 1;
    for (size_t head = 0; head < queue.size(); ++head) {
      const auto [v, q] = queue[head];
      const auto it = std::find(boundary.begin(), boundary.end(), v);
      if (it != boundary.end()) {
        const size_t bit = static_cast<size_t>(it - boundary.begin()) * j_ + q;
        bits[bit / 64] |= uint64_t{1} << (bit % 64);
      }
      for (const Edge& e : edges_) {
        const uint32_t nq = (q + 1) % j_;
        if (e.src != v || e.label != seq_[q] || seen[e.dst * j_ + nq]) continue;
        seen[e.dst * j_ + nq] = 1;
        queue.emplace_back(e.dst, nq);
      }
    }
    return {bits, static_cast<uint32_t>(queue.size())};
  }

  /// Every published row equals its brute-force row; returns how many
  /// slots are published.
  uint32_t CheckPublishedRows(const char* stage) {
    const std::vector<VertexId>& boundary = parts_.partition.shard(1).boundary;
    uint32_t published = 0;
    for (const VertexId b : boundary) {
      for (uint32_t p = 0; p < j_; ++p) {
        const CompositionEngine::BoundaryRow* row = Row(b, p);
        if (row == nullptr) continue;
        ++published;
        EXPECT_EQ(row->bits, Reach(b, p).first)
            << stage << " row (" << b << ", " << p << ")";
      }
    }
    return published;
  }

  /// Probes (b, p) and checks its build against the brute force: the DFS
  /// visits at most the start's BFS reach and publishes the start's row.
  ComposeResult ProbeAndCheck(VertexId b, uint32_t p, const char* stage) {
    const ComposeResult r = Probe(b, p);
    EXPECT_LE(r.row_states, Reach(b, p).second)
        << stage << " start (" << b << ", " << p << ")";
    EXPECT_NE(Row(b, p), nullptr);
    CheckPublishedRows(stage);
    return r;
  }

  /// Mutates shard 1 (local ids) and refreshes its stale plan.
  void Insert(VertexId u, Label l, VertexId v) {
    ASSERT_TRUE(parts_.shards[1]->InsertEdge(u, l, v));
    edges_.push_back({u, v, l});
    engine_->OnIntraMutation(1);
  }
  void Delete(VertexId u, Label l, VertexId v) {
    ASSERT_TRUE(parts_.shards[1]->DeleteEdge(u, l, v));
    edges_.erase(std::find(edges_.begin(), edges_.end(), Edge{u, v, l}));
    engine_->OnIntraMutation(1);
  }

  size_t num_row_objects() { return plan().owned.size(); }

 private:
  uint32_t Ord(VertexId b) {
    const std::vector<VertexId>& boundary = parts_.partition.shard(1).boundary;
    return static_cast<uint32_t>(
        std::find(boundary.begin(), boundary.end(), b) - boundary.begin());
  }

  LabelSeq seq_;
  uint32_t j_;
  std::vector<Edge> edges_;
  std::map<std::pair<VertexId, uint32_t>, VertexId> sources_;
  EngineParts parts_;
  std::unique_ptr<CompositionEngine> engine_;
  CompositionEngine::Scratch scratch_;
};

constexpr Label kA = 0, kB = 1;

TEST(RowBuildTest, SccBoundaryStatesShareOneRow) {
  // 0 -> 1 -> 2 -> 0 is one component holding boundary states 0 and 1;
  // it reaches 3 -> 4 downstream.
  RowBuildHarness h(LabelSeq{kA},
                    {{0, 1, kA}, {1, 2, kA}, {2, 0, kA}, {2, 3, kA},
                     {3, 4, kA}},
                    {0, 1, 3, 4});
  const ComposeResult first = h.ProbeAndCheck(0, 0, "base");
  EXPECT_EQ(first.table_rows_built, 1u);
  EXPECT_EQ(first.row_states, 5u);
  EXPECT_EQ(h.CheckPublishedRows("base"), 4u);  // one DFS built every row
  EXPECT_EQ(h.Row(0, 0), h.Row(1, 0));
  EXPECT_NE(h.Row(0, 0), h.Row(3, 0));
  EXPECT_EQ(h.num_row_objects(), 3u);
  for (const VertexId b : {1u, 3u, 4u}) {
    EXPECT_EQ(h.Probe(b, 0).table_rows_built, 0u) << "b=" << b;
  }

  // Breaking the cycle splits the component: 1 no longer reaches 0.
  h.Delete(2, kA, 0);
  EXPECT_EQ(h.ProbeAndCheck(1, 0, "after delete").table_rows_built, 1u);
  EXPECT_EQ(h.ProbeAndCheck(0, 0, "after delete").row_states, 1u);
  EXPECT_NE(h.Row(0, 0), h.Row(1, 0));
  // An overlay edge closes 4 -> 0: now 0, 1, 3 and 4 share one row.
  h.Insert(4, kA, 0);
  EXPECT_EQ(h.ProbeAndCheck(3, 0, "after insert").table_rows_built, 1u);
  EXPECT_EQ(h.Row(0, 0), h.Row(4, 0));
  EXPECT_EQ(h.Row(1, 0), h.Row(3, 0));
  EXPECT_EQ(h.Row(0, 0), h.Row(3, 0));
}

TEST(RowBuildTest, AlignedCycleUnderTwoLabels) {
  // Under (a b): (0, 0) -a-> (1, 1) -b-> (0, 0) is a cycle, but (0, 1) has
  // no b edge and (1, 0) leaves through 1 -a-> 2 -b-> 3 -a-> (0, 1).
  RowBuildHarness h(LabelSeq{kA, kB},
                    {{0, 1, kA}, {1, 0, kB}, {1, 2, kA}, {2, 3, kB},
                     {3, 0, kA}},
                    {0, 1, 2, 3});
  for (const VertexId b : {0u, 1u, 2u, 3u}) {
    for (const uint32_t p : {0u, 1u}) h.ProbeAndCheck(b, p, "base");
  }
  EXPECT_EQ(h.CheckPublishedRows("base"), 8u);
  EXPECT_EQ(h.Row(0, 0), h.Row(1, 1));
  EXPECT_NE(h.Row(0, 1), h.Row(1, 0));
  EXPECT_NE(h.Row(0, 0), h.Row(1, 0));

  // 3 -a-> 2 closes (2, 1) -b-> (3, 0) -a-> (2, 1) into a cycle.
  h.Insert(3, kA, 2);
  for (const VertexId b : {3u, 0u, 1u, 2u}) {
    for (const uint32_t p : {1u, 0u}) h.ProbeAndCheck(b, p, "after insert");
  }
  EXPECT_EQ(h.Row(2, 1), h.Row(3, 0));
  h.Delete(1, kB, 0);
  for (const VertexId b : {0u, 1u, 2u, 3u}) {
    for (const uint32_t p : {0u, 1u}) h.ProbeAndCheck(b, p, "after delete");
  }
  EXPECT_NE(h.Row(0, 0), h.Row(1, 1));
}

TEST(RowBuildTest, LaterBuildReusesFinishedComponent) {
  // 0 -> 1 -> [2 -> 3 -> 4 -> 5 -> 2] -> 6: building 2's row first
  // finishes the component; building 0's row afterwards visits 0 and 1
  // only and ORs in 2's row.
  RowBuildHarness h(LabelSeq{kA},
                    {{0, 1, kA}, {1, 2, kA}, {2, 3, kA}, {3, 4, kA},
                     {4, 5, kA}, {5, 2, kA}, {5, 6, kA}},
                    {0, 2, 6});
  EXPECT_EQ(h.ProbeAndCheck(2, 0, "base").row_states, 5u);
  const ComposeResult upstream = h.ProbeAndCheck(0, 0, "base");
  EXPECT_EQ(upstream.table_rows_built, 1u);
  EXPECT_EQ(upstream.row_states, 2u);
  EXPECT_LT(upstream.row_states, h.Reach(0, 0).second);
  EXPECT_EQ(h.num_row_objects(), 3u);

  // 6 -> 0 folds everything into one component.
  h.Insert(6, kA, 0);
  EXPECT_EQ(h.ProbeAndCheck(6, 0, "after insert").row_states, 7u);
  EXPECT_EQ(h.Row(0, 0), h.Row(2, 0));
  EXPECT_EQ(h.Row(0, 0), h.Row(6, 0));
  EXPECT_EQ(h.num_row_objects(), 1u);
  // Without 1 -> 2, 6 reaches 0 and 1 only; 2's build then stops at the
  // finished 6.
  h.Delete(1, kA, 2);
  EXPECT_EQ(h.ProbeAndCheck(6, 0, "after delete").row_states, 3u);
  EXPECT_EQ(h.ProbeAndCheck(2, 0, "after delete").row_states, 4u);
}

TEST(RowBuildTest, InteriorComponentReusesCoveringRow) {
  // Interior 1 reaches rows {3} and {2, 3}; their union is 2's row, so 1
  // points at it instead of allocating a third object. 0 adds its own bit.
  RowBuildHarness h(LabelSeq{kA},
                    {{0, 1, kA}, {1, 2, kA}, {1, 3, kA}, {2, 3, kA}},
                    {0, 2, 3});
  EXPECT_EQ(h.ProbeAndCheck(0, 0, "base").row_states, 4u);
  EXPECT_EQ(h.num_row_objects(), 3u);
  EXPECT_EQ(h.CheckPublishedRows("base"), 3u);

  // Without 2 -> 3 the union {2, 3} equals neither successor row.
  h.Delete(2, kA, 3);
  h.ProbeAndCheck(0, 0, "after delete");
  EXPECT_EQ(h.num_row_objects(), 4u);
  // With 3 -> 2 instead, 1 reaches {2} and {2, 3}: reuse again.
  h.Insert(3, kA, 2);
  h.ProbeAndCheck(0, 0, "after insert");
  EXPECT_EQ(h.num_row_objects(), 3u);
}

// ---------------------------------------------------------------------------
// Concurrent builds on one cold plan: probes fanned across threads, each
// with its own Scratch, race to allocate the plan's slot arrays and build
// overlapping rows. Answers must not depend on who built what.

TEST(ConcurrentRowBuildTest, ColdPlanAnswersMatchSingleThread) {
  const DiGraph g = CommunityGraph(160, 720, 3, 0xC5);
  const EngineParts parts = MakeParts(g, 4, PartitionPolicy::kRange);
  const RlcIndex oracle = BuildSealed(g, 2);
  Rng rng(0xC5);
  std::vector<LabelSeq> seqs;
  for (uint32_t i = 0; i < 3; ++i) {
    seqs.push_back(RandomPrimitiveSeq(1 + i % 2, g.num_labels(), rng));
  }
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 160; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.Below(g.num_vertices())),
                       static_cast<VertexId>(rng.Below(g.num_vertices())));
  }
  // need_intra: every answer is the whole-graph answer.
  const auto run = [&](const CompositionEngine& engine,
                       const std::vector<const CompositionEngine::Plan*>& plans,
                       size_t offset, std::vector<uint8_t>& out,
                       uint64_t& builds) {
    CompositionEngine::Scratch scratch;
    const size_t n = seqs.size() * pairs.size();
    out.assign(n, 0);
    for (size_t k = 0; k < n; ++k) {
      const size_t i = (k + offset) % n;
      const auto& [s, t] = pairs[i % pairs.size()];
      const ComposeResult r = engine.ComposedQuery(
          s, t, *plans[i / pairs.size()], scratch, Deadline{}, true);
      out[i] = r.reachable ? 1 : 0;
      builds += r.table_rows_built;
    }
  };
  const auto prepare = [&](CompositionEngine& engine) {
    std::vector<const CompositionEngine::Plan*> plans;
    for (const LabelSeq& seq : seqs) plans.push_back(&engine.PreparePlan(seq));
    return plans;
  };

  CompositionEngine single(parts.partition, parts.shards);
  std::vector<uint8_t> want;
  uint64_t single_builds = 0;
  run(single, prepare(single), 0, want, single_builds);
  for (size_t i = 0; i < want.size(); ++i) {
    const auto& [s, t] = pairs[i % pairs.size()];
    ASSERT_EQ(want[i] != 0, oracle.Query(s, t, seqs[i / pairs.size()]))
        << "s=" << s << " t=" << t;
  }
  ASSERT_GT(single_builds, 0u) << "no table shard: the race pins nothing";

  CompositionEngine engine(parts.partition, parts.shards);
  const auto plans = prepare(engine);
  for (const auto* plan : plans) {
    for (const auto& sp : plan->shards) {
      ASSERT_EQ(sp->rows.load(), nullptr) << "plan is not cold";
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<uint8_t>> got(kThreads);
  std::vector<uint64_t> builds(kThreads, 0);
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      run(engine, plans, static_cast<size_t>(th) * 7, got[th], builds[th]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int th = 0; th < kThreads; ++th) {
    EXPECT_EQ(got[th], want) << "thread " << th;
  }
}

// ---------------------------------------------------------------------------
// need_intra: a degraded probe makes one ComposedQuery call that also
// accepts purely intra-shard witnesses, and must then answer exactly like
// the whole graph — intra, cross-shard and mutated-overlay witnesses alike.

/// kRange over 10 vertices and 2 shards: {0..4} | {5..9}. Inside shard 1,
/// 5 -a-> 6 is an intra witness, 5 -a-> 6 -a-> 9 one through the boundary
/// vertex 6 (where a table walk without need_intra scans 6's row once it is
/// built, instead of walking on), and
/// 7 -a-> 8 -b-> 7 an aligned cycle under (a b)+ only; 5 ⇝ 8 under a+
/// leaves shard 1 (6 -> 0 -> 1 -> 7) and comes back.
std::vector<Edge> IntraWitnessEdges() {
  const Label a = 0, b = 1;
  return {{5, 6, a}, {6, 9, a}, {6, 0, a}, {0, 1, a},
          {1, 7, a}, {7, 8, a}, {8, 7, b}};
}

TEST(IntraWitnessTest, NeedIntraMatchesWholeGraphOracle) {
  std::vector<Edge> edges = IntraWitnessEdges();
  const DiGraph g(10, edges, 2);
  EngineParts parts = MakeParts(g, 2, PartitionPolicy::kRange);
  ASSERT_EQ(parts.partition.ShardOf(4), 0u);
  ASSERT_EQ(parts.partition.ShardOf(5), 1u);
  CompositionEngine engine(parts.partition, parts.shards, ComposeOptions{});
  CompositionEngine::Scratch scratch;
  const LabelSeq a{Label{0}};
  const LabelSeq ab{Label{0}, Label{1}};
  const auto probe = [&](VertexId s, VertexId t, const LabelSeq& seq,
                         bool need_intra) {
    return engine
        .ComposedQuery(s, t, engine.PreparePlan(seq), scratch, Deadline{},
                       need_intra)
        .reachable;
  };
  // With need_intra every pair — same-shard or not — gets the full answer.
  const auto expect_oracle = [&](const char* stage) {
    const RlcIndex oracle = BuildSealed(DiGraph(10, edges, 2), 2);
    for (const LabelSeq& seq : {a, LabelSeq{Label{1}}, ab}) {
      for (VertexId s = 0; s < 10; ++s) {
        for (VertexId t = 0; t < 10; ++t) {
          EXPECT_EQ(probe(s, t, seq, true), oracle.Query(s, t, seq))
              << stage << " s=" << s << " t=" << t << " L=" << seq.ToString();
        }
      }
    }
  };

  expect_oracle("base");
  // An intra-only witness needs need_intra: composition alone demands a
  // cross edge.
  EXPECT_TRUE(probe(5, 6, a, true));
  EXPECT_FALSE(probe(5, 6, a, false));
  EXPECT_TRUE(probe(5, 9, a, true));
  EXPECT_FALSE(probe(5, 9, a, false));
  // s == t: the seed (s, 0) never counts; an aligned cycle does.
  EXPECT_FALSE(probe(5, 5, a, true));
  EXPECT_FALSE(probe(7, 7, a, true));
  EXPECT_TRUE(probe(7, 7, ab, true));
  // A witness that leaves the shard and comes back.
  EXPECT_TRUE(probe(5, 8, a, true));
  EXPECT_TRUE(probe(5, 8, a, false));

  // Mutate shard(t) = shard 1 (local ids 7 -> 2, 8 -> 3, 9 -> 4): deleting
  // the base edge 7 -a-> 8 cuts both witnesses into 8 ...
  DynamicRlcIndex& shard1 = *parts.shards[1];
  ASSERT_TRUE(shard1.DeleteEdge(2, 0, 3));
  engine.OnIntraMutation(1);
  edges.erase(std::find(edges.begin(), edges.end(), Edge{7, 8, 0}));
  expect_oracle("after delete");
  EXPECT_FALSE(probe(7, 8, a, true));
  EXPECT_FALSE(probe(5, 8, a, true));
  // ... and overlay edges 7 -a-> 9 -a-> 8 restore them. The forward walk
  // from 7 and the reverse walk from (8, 0) both skip the shadowed base
  // edge and follow the overlay.
  ASSERT_TRUE(shard1.InsertEdge(2, 0, 4));
  ASSERT_TRUE(shard1.InsertEdge(4, 0, 3));
  engine.OnIntraMutation(1);
  edges.push_back({7, 9, 0});
  edges.push_back({9, 8, 0});
  expect_oracle("after insert");
  EXPECT_TRUE(probe(7, 8, a, true));
  EXPECT_TRUE(probe(5, 8, a, false));
}

// ---------------------------------------------------------------------------
// End walks in table shards stop at boundary states: phase 1 at those
// whose rows are built, scanning the rows, and phase 2 at all of them,
// collecting them into Stop. When shard(s) is shard(t), a
// phase-1 row covers shard(t) entries that may still head a genuine cross
// path into t, so that coverage must never skip an entry's Stop test.

/// Composes (s, t) under a+ on a kRange graph over 8 vertices and 2 shards,
/// {0..3} | {4..7}, without need_intra: only witnesses with a cross edge.
/// Phase 1 scans only rows that are already built, so the probe runs cold
/// and again after all-pairs probes have built every row a skeleton
/// reaches; both answers must agree.
bool ComposeA(const std::vector<Edge>& edges, VertexId s, VertexId t,
              uint32_t table_budget) {
  const EngineParts parts =
      MakeParts(DiGraph(8, edges, 1), 2, PartitionPolicy::kRange);
  EXPECT_EQ(parts.partition.ShardOf(3), 0u);
  EXPECT_EQ(parts.partition.ShardOf(4), 1u);
  ComposeOptions options;
  options.table_budget_nodes = table_budget;
  CompositionEngine engine(parts.partition, parts.shards, options);
  const CompositionEngine::Plan& plan = engine.PreparePlan(LabelSeq{kA});
  if (table_budget == ComposeOptions{}.table_budget_nodes) {
    EXPECT_TRUE(plan.shards[0]->tables);
  }
  CompositionEngine::Scratch scratch;
  const bool cold = engine.ComposedQuery(s, t, plan, scratch).reachable;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = 0; v < 8; ++v) engine.ComposedQuery(u, v, plan, scratch);
  }
  const bool warm = engine.ComposedQuery(s, t, plan, scratch).reachable;
  EXPECT_EQ(cold, warm) << "s=" << s << " t=" << t;
  return warm;
}

TEST(SameShardTrapTest, PhaseOneRowNeverSkipsAStopTest) {
  for (const uint32_t budget : {ComposeOptions{}.table_budget_nodes, 1u}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    // 0 -> 1 -> 2 inside shard 0, and 1 -> 4 -> 1 across. Warm, phase 1
    // scans the row of (1, 0); the entry (1, 0) that 4 -> 1 pushes is in
    // Stop.
    std::vector<Edge> edges = {{0, 1, kA}, {1, 2, kA}, {1, 4, kA}, {4, 1, kA}};
    EXPECT_TRUE(ComposeA(edges, 0, 2, budget));  // 0 -> 1 -> 4 -> 1 -> 2
    edges.pop_back();
    EXPECT_FALSE(ComposeA(edges, 0, 2, budget));  // only the intra path

    // Through 3 instead: Stop = {(3, 0)}, and the entry (1, 0) accepts
    // only because its row {1, 3} meets Stop.
    edges = {{0, 1, kA}, {1, 3, kA}, {3, 2, kA}, {3, 5, kA},
             {1, 4, kA}, {4, 1, kA}};
    EXPECT_TRUE(ComposeA(edges, 0, 2, budget));  // 0 -> 1 -> 4 -> 1 -> 3 -> 2
    edges.pop_back();
    EXPECT_FALSE(ComposeA(edges, 0, 2, budget));
  }
}

// ---------------------------------------------------------------------------
// Lazy skeleton hops: a scanned row queues its exit words, which emit their
// cross hops only once no skeleton entry is pending, and after phase 2 a
// hop that lands on a state phase 2 marked answers at push. Each case runs
// on a kRange graph over 8 vertices and 2 shards, {0..3} | {4..7}, under a+
// with table budgets {default, 1}, and checks every pair, cold and warm,
// against two whole-graph oracles.

/// Composition without need_intra on the whole graph: a product BFS over
/// states (v, p, crossed) from (s, 0, no), accepting (t, 0, yes) — a walk
/// spelling seq^z (z >= 1) with at least one cross-shard edge.
bool CrossWitness(VertexId n, const std::vector<Edge>& edges,
                  const GraphPartition& part, VertexId s, VertexId t,
                  const LabelSeq& seq) {
  const uint32_t j = seq.size();
  const auto id = [&](VertexId v, uint32_t p, bool crossed) {
    return (static_cast<size_t>(v) * j + p) * 2 + (crossed ? 1 : 0);
  };
  std::vector<bool> seen(static_cast<size_t>(n) * j * 2, false);
  std::vector<std::tuple<VertexId, uint32_t, bool>> queue = {{s, 0, false}};
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [v, p, crossed] = queue[head];
    for (const Edge& e : edges) {
      if (e.src != v || e.label != seq[p]) continue;
      const uint32_t np = (p + 1) % j;
      const bool nc = crossed || part.ShardOf(e.src) != part.ShardOf(e.dst);
      if (nc && np == 0 && e.dst == t) return true;
      if (!seen[id(e.dst, np, nc)]) {
        seen[id(e.dst, np, nc)] = true;
        queue.emplace_back(e.dst, np, nc);
      }
    }
  }
  return false;
}

class LazyHopHarness {
 public:
  LazyHopHarness(std::vector<Edge> edges, uint32_t budget)
      : edges_(std::move(edges)),
        parts_(MakeParts(DiGraph(8, edges_, 1), 2, PartitionPolicy::kRange)),
        engine_(parts_.partition, parts_.shards, Options(budget)),
        plan_(engine_.PreparePlan(LabelSeq{kA})) {
    EXPECT_EQ(parts_.partition.ShardOf(3), 0u);
    EXPECT_EQ(parts_.partition.ShardOf(4), 1u);
    EXPECT_EQ(plan_.shards[0]->tables,
              budget == ComposeOptions{}.table_budget_nodes);
  }

  ComposeResult Probe(VertexId s, VertexId t, bool need_intra = false) {
    return engine_.ComposedQuery(s, t, plan_, scratch_, Deadline{},
                                 need_intra);
  }

  /// Every pair, twice (the first round builds the rows that later walks
  /// scan): need_intra answers equal the whole-graph index, composed
  /// answers the cross-witness BFS, and each composed probe pops no more
  /// entries than its hops generated.
  void ExpectOracle() {
    const RlcIndex oracle = BuildSealed(DiGraph(8, edges_, 1), 2);
    const LabelSeq seq{kA};
    for (int round = 0; round < 2; ++round) {
      for (VertexId s = 0; s < 8; ++s) {
        for (VertexId t = 0; t < 8; ++t) {
          EXPECT_EQ(Probe(s, t, true).reachable, oracle.Query(s, t, seq))
              << "need_intra round=" << round << " s=" << s << " t=" << t;
          const ComposeResult r = Probe(s, t);
          EXPECT_EQ(r.reachable,
                    CrossWitness(8, edges_, parts_.partition, s, t, seq))
              << "round=" << round << " s=" << s << " t=" << t;
          EXPECT_LE(r.skeleton_hops, r.cross_hops);
        }
      }
    }
  }

 private:
  static ComposeOptions Options(uint32_t budget) {
    ComposeOptions options;
    options.table_budget_nodes = budget;
    return options;
  }

  std::vector<Edge> edges_;
  EngineParts parts_;
  CompositionEngine engine_;
  const CompositionEngine::Plan& plan_;
  CompositionEngine::Scratch scratch_;
};

constexpr uint32_t kLazyHopBudgets[] = {ComposeOptions{}.table_budget_nodes,
                                        1u};

TEST(LazyHopTest, FirstHopOutOfTheSourceRowAcceptsAtPush) {
  // 0 -> 4 -> 6 -> 7 and 0 -> 4 -> 5 -> 1 -> 2, with 5 -> 0 back.
  for (const uint32_t budget : kLazyHopBudgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    const bool tables = budget != 1;
    LazyHopHarness h({{0, 4, kA}, {4, 6, kA}, {6, 7, kA}, {4, 5, kA},
                      {5, 1, kA}, {5, 0, kA}, {1, 2, kA}},
                     budget);
    h.ExpectOracle();
    // Warm, phase 1 scans the built row of (0, 0) and queues its exit
    // word. Phase 2 marks (7, 0), (6, 0) and (4, 0); the word's one hop
    // 0 -> 4 lands on (4, 0) and answers before any entry is popped. Over
    // budget phase 1 pushes (4, 0) itself, and phase 1 never accepts at
    // push: the answer comes at its pop.
    const ComposeResult r = h.Probe(0, 7);
    EXPECT_TRUE(r.reachable);
    EXPECT_EQ(r.skeleton_hops, tables ? 0u : 1u);
    EXPECT_EQ(r.cross_hops, 1u);
    // Into shard 0: the one entry (4, 0) is popped, and its walk's hop
    // 5 -> 1 lands on (1, 0), which phase 2 marked — before 5 -> 0's
    // entry is ever popped.
    const ComposeResult back = h.Probe(0, 2);
    EXPECT_TRUE(back.reachable);
    EXPECT_EQ(back.skeleton_hops, 1u);
  }
}

TEST(LazyHopTest, CoveredEntryWaitsForItsQueuedExitWord) {
  // 0 crosses into 4 and 5; 4 -> 5 puts 5 in 4's row; 5's exit 5 -> 2
  // comes back into shard 0, where 2 -> 3.
  for (const uint32_t budget : kLazyHopBudgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    LazyHopHarness h({{0, 4, kA}, {0, 5, kA}, {4, 5, kA}, {5, 2, kA},
                      {2, 3, kA}},
                     budget);
    if (budget != 1) {
      // Cold: entry (4, 0) scans its row {4, 5} and queues the exit word;
      // entry (5, 0) is popped while that word is still queued, and is
      // skipped as covered without a row. Only the word's hop 5 -> 2 then
      // reaches shard 0, landing on (2, 0), which phase 2 marked.
      const ComposeResult r = h.Probe(0, 3);
      EXPECT_TRUE(r.reachable);
      EXPECT_EQ(r.skeleton_hops, 2u);
      EXPECT_EQ(r.table_rows_built, 1u);
      EXPECT_EQ(r.cross_hops, 3u);
    }
    h.ExpectOracle();
  }
}

TEST(LazyHopTest, SameShardIntraOnlyWitnessStaysFalse) {
  // 0 -> 1 -> 2 inside shard 0 is the only witness into 2: 2 -> 4 -> 3
  // leaves and comes back to 3, which does not reach 2. 5 -> 2 lets a
  // probe from 5 build the row of (2, 0).
  for (const uint32_t budget : kLazyHopBudgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    LazyHopHarness h({{0, 1, kA}, {1, 2, kA}, {2, 4, kA}, {4, 3, kA},
                      {5, 2, kA}},
                     budget);
    h.ExpectOracle();
    // Warm, phase 1 scans the row of (2, 0) and queues (2, 0) as an exit
    // while (2, 0) is in Stop: only the hop's landing state may accept.
    EXPECT_FALSE(h.Probe(0, 2).reachable);
    EXPECT_TRUE(h.Probe(0, 2, true).reachable);
    EXPECT_TRUE(h.Probe(0, 3).reachable);
  }
}

/// Service answers on table shards, for every endpoint category: source
/// and target each a boundary or an interior vertex, in one shard or in
/// two. Scalar Query, batched Execute and ComposedQuery with need_intra
/// (through an engine over the same partition) must each equal the
/// whole-graph oracle.
TEST(TableEndWalkTest, EveryEndpointCategoryMatchesOracle) {
  const DiGraph g = CommunityGraph(160, 720, 3, 0xD7);
  const RlcIndex oracle = BuildSealed(g, 2);
  ServiceOptions options;
  options.partition.num_shards = 4;
  options.partition.policy = PartitionPolicy::kRangeOrdered;
  options.indexer.k = 2;
  options.build_threads = 2;
  ShardedRlcService service(g, options);
  const EngineParts parts = MakeParts(g, 4, PartitionPolicy::kRangeOrdered);
  CompositionEngine engine(parts.partition, parts.shards);
  CompositionEngine::Scratch scratch;

  // Vertices by (boundary, shard); both partitions must agree.
  std::vector<VertexId> by_cat[2][4];
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(service.partition().ShardOf(v), parts.partition.ShardOf(v));
    ASSERT_EQ(service.partition().IsBoundary(v), parts.partition.IsBoundary(v));
    by_cat[parts.partition.IsBoundary(v)][parts.partition.ShardOf(v)]
        .push_back(v);
  }
  Rng rng(0xD7);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (const int sb : {0, 1}) {
    for (const int tb : {0, 1}) {
      for (const bool same : {true, false}) {
        for (int i = 0; i < 16; ++i) {
          const uint32_t ss = static_cast<uint32_t>(rng.Below(4));
          const uint32_t st =
              same ? ss : (ss + 1 + static_cast<uint32_t>(rng.Below(3))) % 4;
          const auto& from = by_cat[sb][ss];
          const auto& to = by_cat[tb][st];
          ASSERT_FALSE(from.empty() || to.empty())
              << "category (" << sb << ", " << tb << ") is empty in a shard";
          pairs.emplace_back(from[rng.Below(from.size())],
                             to[rng.Below(to.size())]);
        }
      }
    }
  }

  QueryBatch batch;
  std::vector<uint8_t> expected;
  uint64_t rows_read = 0, composed_true = 0;
  for (const LabelSeq& seq : {LabelSeq{Label{0}}, LabelSeq{Label{1}},
                              LabelSeq{Label{0}, Label{1}},
                              LabelSeq{Label{0}, Label{2}}}) {
    const CompositionEngine::Plan& plan = engine.PreparePlan(seq);
    for (const auto& sp : plan.shards) ASSERT_TRUE(sp->tables);
    const uint32_t seq_id = batch.InternSequence(seq);
    for (const auto& [s, t] : pairs) {
      const bool want = oracle.Query(s, t, seq);
      ASSERT_EQ(want, service.Query(s, t, seq))
          << "s=" << s << " t=" << t << " L=" << seq.ToString();
      const ComposeResult r =
          engine.ComposedQuery(s, t, plan, scratch, Deadline{}, true);
      ASSERT_EQ(want, r.reachable)
          << "need_intra s=" << s << " t=" << t << " L=" << seq.ToString();
      rows_read += r.table_rows_built;
      // Without need_intra only witnesses with a cross edge count.
      const bool composed = engine.ComposedQuery(s, t, plan, scratch).reachable;
      ASSERT_TRUE(want || !composed) << "s=" << s << " t=" << t;
      composed_true += composed;
      batch.Add(s, t, seq_id);
      expected.push_back(want ? 1 : 0);
    }
  }
  const AnswerBatch answers = service.Execute(batch);
  EXPECT_EQ(answers.answers, expected);
  EXPECT_TRUE(answers.all_ok());
  EXPECT_GT(rows_read, 0u);
  EXPECT_GT(composed_true, 0u);
}

// ---------------------------------------------------------------------------
// Mutate-then-reprobe differential: transition tables are functions of one
// shard's graph, so every mutation must refresh the stale shard plans
// before they answer again.

TEST(TableInvalidationTest, MutationRefreshesStaleTables) {
  // The service stays exact against a whole-graph dynamic oracle sharing
  // the mutation stream (cross-shard edges included), and the stale plans
  // show up as invalidations, never as wrong answers.
  const DiGraph g = ErGraph(72, 300, 3, 0xF3);
  ServiceOptions options;
  options.partition.num_shards = 4;
  options.partition.policy = PartitionPolicy::kHash;
  options.indexer.k = 2;
  options.build_threads = 2;
  ShardedRlcService service(g, options);

  IndexerOptions oracle_opts;
  oracle_opts.k = 2;
  oracle_opts.seal = true;
  RlcIndexBuilder oracle_builder(g, oracle_opts);
  DynamicRlcIndex oracle(g, oracle_builder.Build(), ResealPolicy{});

  Rng rng(0xF3);
  QueryBatch batch;
  for (int i = 0; i < 96; ++i) {
    batch.Add(static_cast<VertexId>(rng.Below(g.num_vertices())),
              static_cast<VertexId>(rng.Below(g.num_vertices())),
              RandomPrimitiveSeq(1 + static_cast<uint32_t>(i % 2),
                                 g.num_labels(), rng));
  }
  const auto check_round = [&](int round) {
    const AnswerBatch out = service.Execute(batch);
    ASSERT_TRUE(out.all_ok());
    for (size_t i = 0; i < batch.num_probes(); ++i) {
      const BatchProbe& p = batch.probes()[i];
      ASSERT_EQ(out.answers[i] != 0,
                oracle.Query(p.s, p.t, batch.sequence(p.seq_id)))
          << "round " << round << " s=" << p.s << " t=" << p.t;
    }
  };

  for (int round = 0; round < 6; ++round) {
    check_round(round);
    // Cross-heavy churn: random endpoints across the whole id space mostly
    // land in different shards under hash partitioning.
    std::vector<EdgeUpdate> updates;
    for (int u = 0; u < 8; ++u) {
      const auto src = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto dst = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto label = static_cast<Label>(rng.Below(g.num_labels()));
      const EdgeOp op = rng.Below(4) == 0 ? EdgeOp::kDelete : EdgeOp::kInsert;
      updates.push_back({src, label, dst, op});
    }
    service.ApplyUpdates(updates);
    for (const EdgeUpdate& e : updates) {
      if (e.op == EdgeOp::kInsert) {
        oracle.InsertEdge(e.src, e.label, e.dst);
      } else {
        oracle.DeleteEdge(e.src, e.label, e.dst);
      }
    }
  }
  check_round(6);

  // Reprobing the same templates after each round of mutations must have
  // refreshed at least one stale shard plan.
  EXPECT_GT(service.stats().compose_invalidations, 0u)
      << "mutations never invalidated a transition table";
}

}  // namespace
}  // namespace rlc

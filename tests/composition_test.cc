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
// A second group round-trips the composition warm cache through
// SerializeCache / WriteCompositionCache / ReadCompositionCache /
// RestoreCache, including corruption and shape-mismatch rejection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "rlc/core/index_io.h"
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
// Warm-cache IO: SerializeCache payloads survive the file framing, restore
// into a same-shape engine byte-deterministically, and are rejected (engine
// stays usable, cold) on corruption or a different partition shape.

std::string TempCachePath() {
  std::string templ =
      (fs::temp_directory_path() / "rlc_compose_cache_XXXXXX").string();
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + templ);
  }
  return std::string(buf.data()) + "/compose.snap";
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

TEST(CompositionCacheIoTest, RoundTripRestoresWarmTables) {
  const DiGraph g = ErGraph(60, 260, 3, 0x10);
  const EngineParts parts = MakeParts(g, 3, PartitionPolicy::kHash);
  CompositionEngine warm(parts.partition, parts.shards);

  // Warm the cache: prepare plans and run probes so transition rows build.
  Rng rng(0x10);
  CompositionEngine::Scratch scratch;
  std::vector<LabelSeq> seqs;
  for (uint32_t i = 0; i < 4; ++i) {
    seqs.push_back(RandomPrimitiveSeq(1 + i % 2, g.num_labels(), rng));
  }
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 40; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.Below(g.num_vertices())),
                       static_cast<VertexId>(rng.Below(g.num_vertices())));
  }
  std::vector<uint8_t> want;
  for (const LabelSeq& seq : seqs) {
    const CompositionEngine::Plan& plan = warm.PreparePlan(seq);
    for (const auto& [s, t] : pairs) {
      want.push_back(warm.ComposedQuery(s, t, plan, scratch).reachable ? 1 : 0);
    }
  }

  // Payload -> file -> payload is identity.
  const std::vector<uint8_t> payload = warm.SerializeCache();
  const std::string path = TempCachePath();
  WriteCompositionCache(path, payload);
  const std::vector<uint8_t> read = ReadCompositionCache(path);
  EXPECT_EQ(payload, read);

  // Restore into a fresh engine over the same partition shape: accepted,
  // resaves byte-identically, and answers match the warm engine.
  CompositionEngine cold(parts.partition, parts.shards);
  ASSERT_TRUE(cold.RestoreCache(read));
  EXPECT_EQ(cold.SerializeCache(), payload);
  CompositionEngine::Scratch cold_scratch;
  size_t i = 0;
  for (const LabelSeq& seq : seqs) {
    const CompositionEngine::Plan& plan = cold.PreparePlan(seq);
    for (const auto& [s, t] : pairs) {
      EXPECT_EQ(want[i++] != 0,
                cold.ComposedQuery(s, t, plan, cold_scratch).reachable)
          << "s=" << s << " t=" << t << " L=" << seq.ToString();
    }
  }

  // Corruption is detectable: any flipped byte fails the framing checksum.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char b = 0;
    f.seekg(static_cast<std::streamoff>(fs::file_size(path) / 2));
    f.read(&b, 1);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  EXPECT_THROW(ReadCompositionCache(path), std::runtime_error);

  // Shape mismatch: a different shard count rejects the payload but the
  // engine stays fully usable (cold).
  const EngineParts other = MakeParts(g, 4, PartitionPolicy::kRange);
  CompositionEngine mismatched(other.partition, other.shards);
  EXPECT_FALSE(mismatched.RestoreCache(payload));
  EXPECT_EQ(mismatched.num_cached_plans(), 0u);
  CompositionEngine::Scratch mm_scratch;
  const CompositionEngine::Plan& plan = mismatched.PreparePlan(seqs[0]);
  (void)mismatched.ComposedQuery(pairs[0].first, pairs[0].second, plan,
                                 mm_scratch);

  fs::remove_all(fs::path(path).parent_path());
}

TEST(CompositionCacheIoTest, ServiceCheckpointCarriesComposeSnap) {
  // End to end through the service: a checkpointed generation contains
  // compose.snap; deleting it does NOT break recovery (pure warm cache) —
  // the reopened service answers identically either way.
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
  Rng rng(0x20);
  {
    ShardedRlcService service(g, options);
    for (int i = 0; i < 200; ++i) {  // warm the compose cache
      service.Query(static_cast<VertexId>(rng.Below(g.num_vertices())),
                    static_cast<VertexId>(rng.Below(g.num_vertices())),
                    RandomPrimitiveSeq(1 + rng.Below(2), g.num_labels(), rng));
    }
    service.Checkpoint();
  }
  std::vector<fs::path> snaps;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().filename() == "compose.snap") snaps.push_back(entry);
  }
  ASSERT_FALSE(snaps.empty()) << "checkpoint wrote no compose.snap under "
                              << dir;
  const auto check = [&] {
    ShardedRlcService reopened(g, options);
    EXPECT_TRUE(reopened.recovery_info().recovered);
    Rng prng(0x21);
    for (int i = 0; i < 400; ++i) {
      const auto s = static_cast<VertexId>(prng.Below(g.num_vertices()));
      const auto t = static_cast<VertexId>(prng.Below(g.num_vertices()));
      const LabelSeq c =
          RandomPrimitiveSeq(1 + prng.Below(2), g.num_labels(), prng);
      ASSERT_EQ(oracle.Query(s, t, c), reopened.Query(s, t, c))
          << "s=" << s << " t=" << t << " L=" << c.ToString();
    }
  };
  check();                                       // warm restore path
  for (const fs::path& p : snaps) fs::remove(p);
  check();                                       // cold path: cache absent
  fs::remove_all(dir);
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
// need_intra: a degraded probe makes one ComposedQuery call that also
// accepts purely intra-shard witnesses, and must then answer exactly like
// the whole graph — intra, cross-shard and mutated-overlay witnesses alike.

/// kRange over 10 vertices and 2 shards: {0..4} | {5..9}. Inside shard 1,
/// 5 -a-> 6 is an intra witness and 7 -a-> 8 -b-> 7 an aligned cycle under
/// (a b)+ only; 5 ⇝ 8 under a+ leaves shard 1 (6 -> 0 -> 1 -> 7) and comes
/// back.
std::vector<Edge> IntraWitnessEdges() {
  const Label a = 0, b = 1;
  return {{5, 6, a}, {6, 0, a}, {0, 1, a}, {1, 7, a}, {7, 8, a}, {8, 7, b}};
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

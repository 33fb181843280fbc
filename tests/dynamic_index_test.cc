// Dynamic-index correctness: the differential oracle (every dynamically
// maintained answer must be bit-identical to a from-scratch Indexer build on
// the mutated graph — the property that silently rots first in an
// incrementally maintained index), metamorphic update properties
// (monotonicity, duplicate no-ops, permutation of independent inserts), and
// reseals: answers and index() references survive them, and pooled batched
// readers see the pending delta and tombstone overlays.

#include "rlc/core/dynamic_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "rlc/core/index_io.h"
#include "rlc/core/indexer.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/serve/query_batch.h"
#include "rlc/util/rng.h"
#include "rlc/util/thread_pool.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

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

RlcIndex BuildSealed(const DiGraph& g, uint32_t k) {
  IndexerOptions options;
  options.k = k;
  RlcIndexBuilder builder(g, options);
  return builder.Build();
}

/// Constraints worth probing: every MR the (larger) dynamic table knows,
/// capped, plus random primitive sequences that are mostly unknown.
std::vector<LabelSeq> ProbeSeqs(const RlcIndex& index, Label num_labels,
                                uint32_t k, uint64_t seed) {
  std::vector<LabelSeq> seqs;
  const MrTable& mrs = index.mr_table();
  for (MrId id = 0; id < mrs.size() && seqs.size() < 20; ++id) {
    if (mrs.Get(id).size() <= k) seqs.push_back(mrs.Get(id));
  }
  Rng rng(seed);
  for (int i = 0; i < 6; ++i) {
    seqs.push_back(RandomPrimitiveSeq(1 + i % k, num_labels, rng));
  }
  return seqs;
}

/// The oracle: every all-pairs answer of the dynamic index must equal a
/// fresh build on the mutated graph — sealed and unsealed oracle layouts,
/// dynamic signatures on and off.
void ExpectMatchesRebuild(const DynamicRlcIndex& dyn, uint32_t k,
                          bool check_unsealed = false) {
  const DiGraph& base = dyn.base_graph();
  const DiGraph mutated(base.num_vertices(), dyn.MaterializedEdges(),
                        base.num_labels(), /*dedup_parallel=*/false);
  const RlcIndex oracle = BuildSealed(mutated, k);

  RlcIndex unsigned_copy = dyn.index();  // exercises the unguarded path too
  unsigned_copy.set_use_signatures(false);

  const auto seqs = ProbeSeqs(dyn.index(), base.num_labels(), k, 97);
  const VertexId n = base.num_vertices();
  for (const LabelSeq& seq : seqs) {
    const MrId dyn_mr = dyn.index().FindMr(seq);
    const MrId oracle_mr = oracle.FindMr(seq);
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        const bool want = oracle.QueryInterned(s, t, oracle_mr);
        ASSERT_EQ(want, dyn.index().QueryInterned(s, t, dyn_mr))
            << "s=" << s << " t=" << t << " L=" << seq.ToString();
        ASSERT_EQ(want, unsigned_copy.QueryInterned(s, t, dyn_mr))
            << "unsignatured s=" << s << " t=" << t << " L=" << seq.ToString();
      }
    }
  }

  if (check_unsealed) {
    IndexerOptions options;
    options.k = k;
    options.seal = false;
    RlcIndexBuilder builder(mutated, options);
    const RlcIndex nested = builder.Build();
    ASSERT_FALSE(nested.sealed());
    Rng rng(4242);
    for (int trial = 0; trial < 500; ++trial) {
      const auto s = static_cast<VertexId>(rng.Below(n));
      const auto t = static_cast<VertexId>(rng.Below(n));
      const LabelSeq& seq = seqs[rng.Below(seqs.size())];
      ASSERT_EQ(nested.QueryInterned(s, t, nested.FindMr(seq)),
                dyn.index().QueryInterned(s, t, dyn.index().FindMr(seq)));
    }
  }
}

/// One random not-yet-present edge.
EdgeUpdate RandomNewEdge(const DynamicRlcIndex& dyn, Rng& rng) {
  const DiGraph& g = dyn.base_graph();
  for (;;) {
    const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto l = static_cast<Label>(rng.Below(g.num_labels()));
    if (!dyn.HasEdge(u, l, v)) return {u, l, v};
  }
}

TEST(DynamicIndexTest, DifferentialInsertScheduleErWithInlineReseals) {
  const DiGraph g = ErGraph(60, 180, 3, 11);
  ResealPolicy policy;
  policy.min_delta_entries = 4;
  policy.max_delta_ratio = 0.02;  // reseal often: schedule crosses boundaries
  DynamicRlcIndex dyn(g, BuildSealed(g, 2), policy);

  Rng rng(7);
  for (int batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 5; ++i) {
      const EdgeUpdate e = RandomNewEdge(dyn, rng);
      ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
    }
    ExpectMatchesRebuild(dyn, 2, /*check_unsealed=*/batch == 5);
  }
  EXPECT_GT(dyn.stats().reseals, 0u);
  EXPECT_GT(dyn.stats().delta_entries_added, 0u);
  EXPECT_EQ(dyn.stats().edges_inserted, 30u);
}

TEST(DynamicIndexTest, DifferentialK3) {
  const DiGraph g = ErGraph(40, 100, 3, 23);
  DynamicRlcIndex dyn(g, BuildSealed(g, 3));
  Rng rng(29);
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 4; ++i) {
      const EdgeUpdate e = RandomNewEdge(dyn, rng);
      ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
    }
    ExpectMatchesRebuild(dyn, 3);
  }
}

TEST(DynamicIndexTest, DifferentialBarabasiAlbert) {
  const DiGraph g = BaGraph(50, 3, 4, 31);
  ResealPolicy policy;
  policy.min_delta_entries = 8;
  policy.max_delta_ratio = 0.05;
  DynamicRlcIndex dyn(g, BuildSealed(g, 2), policy);
  Rng rng(37);
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 20; ++i) updates.push_back(RandomNewEdge(dyn, rng));
  // Applied in two chunks through the batch API.
  EXPECT_EQ(dyn.ApplyUpdates(std::span(updates).first(10)), 10u);
  ExpectMatchesRebuild(dyn, 2);
  EXPECT_EQ(dyn.ApplyUpdates(std::span(updates).subspan(10)), 10u);
  ExpectMatchesRebuild(dyn, 2);
}

TEST(DynamicIndexTest, DifferentialAcrossReseal) {
  const DiGraph g = ErGraph(80, 280, 3, 41);
  ResealPolicy policy;
  policy.min_delta_entries = 1;
  policy.max_delta_ratio = 1e-6;  // trigger on (nearly) every insert
  DynamicRlcIndex dyn(g, BuildSealed(g, 2), policy);
  Rng rng(43);
  for (int i = 0; i < 25; ++i) {
    const EdgeUpdate e = RandomNewEdge(dyn, rng);
    ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
  }
  ExpectMatchesRebuild(dyn, 2);
  EXPECT_GT(dyn.stats().reseals, 0u);

  dyn.ForceReseal();
  EXPECT_EQ(dyn.index().delta_entries(), 0u);
  ExpectMatchesRebuild(dyn, 2);
}

TEST(DynamicIndexTest, InsertNeverFlipsReachableToUnreachable) {
  const DiGraph g = ErGraph(50, 150, 3, 53);
  DynamicRlcIndex dyn(g, BuildSealed(g, 2));
  const auto seqs = ProbeSeqs(dyn.index(), g.num_labels(), 2, 59);

  std::vector<uint8_t> before;
  for (const LabelSeq& seq : seqs) {
    const MrId mr = dyn.index().FindMr(seq);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        before.push_back(dyn.index().QueryInterned(s, t, mr) ? 1 : 0);
      }
    }
  }

  Rng rng(61);
  for (int i = 0; i < 15; ++i) {
    const EdgeUpdate e = RandomNewEdge(dyn, rng);
    ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
  }

  size_t pos = 0;
  for (const LabelSeq& seq : seqs) {
    const MrId mr = dyn.index().FindMr(seq);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        const bool after = dyn.index().QueryInterned(s, t, mr);
        if (before[pos++]) {
          ASSERT_TRUE(after) << "insert flipped (" << s << "," << t << ","
                             << seq.ToString() << ") to unreachable";
        }
      }
    }
  }
}

TEST(DynamicIndexTest, DuplicateInsertIsExactNoOp) {
  const DiGraph g = ErGraph(40, 140, 3, 67);
  DynamicRlcIndex dyn(g, BuildSealed(g, 2));

  Rng rng(71);
  const EdgeUpdate fresh = RandomNewEdge(dyn, rng);
  ASSERT_TRUE(dyn.InsertEdge(fresh.src, fresh.label, fresh.dst));

  const auto snapshot_state = [&] {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    WriteIndex(dyn.index(), buf);
    return buf.str();
  };
  const std::string bytes = snapshot_state();
  const uint64_t entries = dyn.index().NumEntries();
  const DynamicIndexStats stats = dyn.stats();

  // Re-inserting the overlay edge and a base-graph edge must change nothing:
  // entries, maintenance counters, serialized bytes.
  EXPECT_FALSE(dyn.InsertEdge(fresh.src, fresh.label, fresh.dst));
  const Edge base_edge = g.ToEdgeList().front();
  EXPECT_FALSE(dyn.InsertEdge(base_edge.src, base_edge.label, base_edge.dst));

  EXPECT_EQ(dyn.index().NumEntries(), entries);
  EXPECT_EQ(dyn.stats().edges_inserted, stats.edges_inserted);
  EXPECT_EQ(dyn.stats().delta_entries_added, stats.delta_entries_added);
  EXPECT_EQ(dyn.stats().pairs_examined, stats.pairs_examined);
  EXPECT_EQ(dyn.stats().edges_duplicate, stats.edges_duplicate + 2);
  EXPECT_EQ(snapshot_state(), bytes);
}

/// Canonical, MR-id-independent view of one entry list.
std::vector<std::pair<uint32_t, std::vector<Label>>> Canonical(
    const RlcIndex& index, std::span<const IndexEntry> entries) {
  std::vector<std::pair<uint32_t, std::vector<Label>>> out;
  for (const IndexEntry& e : entries) {
    const auto labels = index.mr_table().Get(e.mr).labels();
    out.emplace_back(e.hub_aid,
                     std::vector<Label>(labels.begin(), labels.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DynamicIndexTest, PermutingIndependentInsertsYieldsSameSealedIndex) {
  // Three disconnected components; one insert per component, so the inserts
  // are independent — any order must produce the same sealed index (up to
  // MR interning order, hence the canonical comparison).
  Rng rng(73);
  std::vector<Edge> edges;
  for (VertexId base : {0u, 20u, 40u}) {
    auto comp = ErdosRenyiEdges(20, 60, rng);
    AssignZipfLabels(&comp, 3, 2.0, rng);
    for (Edge& e : comp) {
      e.src += base;
      e.dst += base;
    }
    edges.insert(edges.end(), comp.begin(), comp.end());
  }
  const DiGraph g(60, std::move(edges), 3);

  DynamicRlcIndex probe(g, BuildSealed(g, 2));
  std::vector<EdgeUpdate> inserts;
  Rng pick(79);
  for (VertexId base : {0u, 20u, 40u}) {
    for (;;) {
      const auto u = static_cast<VertexId>(base + pick.Below(20));
      const auto v = static_cast<VertexId>(base + pick.Below(20));
      const auto l = static_cast<Label>(pick.Below(3));
      if (probe.HasEdge(u, l, v)) continue;
      inserts.push_back({u, l, v});
      break;
    }
  }

  auto run = [&](std::vector<size_t> order) {
    auto dyn = std::make_unique<DynamicRlcIndex>(g, BuildSealed(g, 2));
    for (const size_t i : order) {
      EXPECT_TRUE(
          dyn->InsertEdge(inserts[i].src, inserts[i].label, inserts[i].dst));
    }
    dyn->ForceReseal();
    return dyn;
  };
  const auto a = run({0, 1, 2});
  const auto b = run({2, 0, 1});
  const auto c = run({1, 2, 0});

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto want_out = Canonical(a->index(), a->index().Lout(v));
    const auto want_in = Canonical(a->index(), a->index().Lin(v));
    for (const auto* other : {b.get(), c.get()}) {
      ASSERT_EQ(want_out, Canonical(other->index(), other->index().Lout(v)))
          << "Lout differs at v=" << v;
      ASSERT_EQ(want_in, Canonical(other->index(), other->index().Lin(v)))
          << "Lin differs at v=" << v;
    }
  }
}

/// One random currently-present edge (base minus removals plus overlay).
EdgeUpdate RandomPresentEdge(const DynamicRlcIndex& dyn, Rng& rng) {
  const std::vector<Edge> edges = dyn.MaterializedEdges();
  const Edge& e = edges[rng.Below(edges.size())];
  return {e.src, e.label, e.dst, EdgeOp::kDelete};
}

TEST(DynamicIndexTest, ExecuteBatchHammerOverPendingOverlay) {
  // Batched queries fan out across a worker pool over an index with
  // pending delta entries and tombstones, and a reseal folds them between
  // rounds; every answer must match a from-scratch build on the graph
  // state of its round.
  const DiGraph g = ErGraph(400, 1600, 3, 83);
  DynamicRlcIndex dyn(g, BuildSealed(g, 2),
                      ResealPolicy{.max_delta_ratio = 1e9});

  ThreadPool pool(4);
  ExecuteOptions exec;
  exec.pool = &pool;
  exec.probes_per_job = 64;

  Rng rng(89);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 5; ++i) {
      const EdgeUpdate e = RandomNewEdge(dyn, rng);
      ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
      const EdgeUpdate d = RandomPresentEdge(dyn, rng);
      ASSERT_TRUE(dyn.DeleteEdge(d.src, d.label, d.dst));
    }
    const RlcIndex& index = dyn.index();
    ASSERT_GT(index.delta_entries(), 0u) << "round " << round;
    ASSERT_GT(index.tombstone_entries(), 0u) << "round " << round;
    const auto seqs = ProbeSeqs(index, g.num_labels(), 2, 91 + round);

    const DiGraph mutated(g.num_vertices(), dyn.MaterializedEdges(),
                          g.num_labels(), /*dedup_parallel=*/false);
    const RlcIndex oracle = BuildSealed(mutated, 2);

    QueryBatch batch;
    std::vector<uint8_t> expected;
    for (int probe = 0; probe < 4000; ++probe) {
      const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const LabelSeq& seq = seqs[rng.Below(seqs.size())];
      batch.Add(s, t, seq);
      expected.push_back(oracle.QueryInterned(s, t, oracle.FindMr(seq)) ? 1 : 0);
    }
    for (int rep = 0; rep < 3; ++rep) {
      const AnswerBatch answers = ExecuteBatch(index, batch, exec);
      ASSERT_EQ(answers.answers.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i], answers.answers[i])
            << "round " << round << " rep " << rep << " probe " << i;
      }
    }
    dyn.ForceReseal();
  }
  EXPECT_EQ(dyn.stats().reseals, 4u);
  ExpectMatchesRebuild(dyn, 2);
}

TEST(DynamicIndexTest, IndexReferenceAnswersAcrossReseal) {
  // A reseal replaces the index's contents in place: a reference taken
  // from index() before it is the resealed index afterwards.
  const DiGraph g = ErGraph(60, 200, 3, 181);
  ResealPolicy policy;
  policy.min_delta_entries = 1;
  policy.max_delta_ratio = 1e-6;  // the first mutation adding an entry
  DynamicRlcIndex dyn(g, BuildSealed(g, 2), policy);
  const RlcIndex& held = dyn.index();
  Rng rng(191);
  while (dyn.stats().reseals == 0) {
    const EdgeUpdate e = RandomNewEdge(dyn, rng);
    ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
  }
  EXPECT_EQ(&held, &dyn.index());
  EXPECT_EQ(held.delta_entries(), 0u);

  const DiGraph mutated(g.num_vertices(), dyn.MaterializedEdges(),
                        g.num_labels(), /*dedup_parallel=*/false);
  const RlcIndex oracle = BuildSealed(mutated, 2);
  for (const LabelSeq& seq : ProbeSeqs(held, g.num_labels(), 2, 193)) {
    const MrId mr = held.FindMr(seq);
    const MrId oracle_mr = oracle.FindMr(seq);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        ASSERT_EQ(oracle.QueryInterned(s, t, oracle_mr),
                  held.QueryInterned(s, t, mr))
            << "s=" << s << " t=" << t << " L=" << seq.ToString();
      }
    }
  }
}

TEST(DynamicIndexTest, DifferentialDeleteScheduleEr) {
  const DiGraph g = ErGraph(60, 200, 3, 103);
  ResealPolicy policy;
  policy.min_delta_entries = 4;
  policy.max_delta_ratio = 0.02;  // reseal often: schedule crosses boundaries
  DynamicRlcIndex dyn(g, BuildSealed(g, 2), policy);

  Rng rng(107);
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 5; ++i) {
      const EdgeUpdate e = RandomPresentEdge(dyn, rng);
      ASSERT_TRUE(dyn.DeleteEdge(e.src, e.label, e.dst));
    }
    ExpectMatchesRebuild(dyn, 2, /*check_unsealed=*/batch == 4);
  }
  EXPECT_EQ(dyn.stats().edges_deleted, 25u);
  EXPECT_GT(dyn.stats().entries_suppressed, 0u);
}

TEST(DynamicIndexTest, DifferentialDeleteK3) {
  const DiGraph g = ErGraph(40, 120, 3, 109);
  DynamicRlcIndex dyn(g, BuildSealed(g, 3));
  Rng rng(113);
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 4; ++i) {
      const EdgeUpdate e = RandomPresentEdge(dyn, rng);
      ASSERT_TRUE(dyn.DeleteEdge(e.src, e.label, e.dst));
    }
    ExpectMatchesRebuild(dyn, 3);
  }
}

TEST(DynamicIndexTest, DeleteNeverFlipsUnreachableToReachable) {
  const DiGraph g = ErGraph(50, 160, 3, 127);
  DynamicRlcIndex dyn(g, BuildSealed(g, 2));
  const auto seqs = ProbeSeqs(dyn.index(), g.num_labels(), 2, 131);

  std::vector<uint8_t> before;
  for (const LabelSeq& seq : seqs) {
    const MrId mr = dyn.index().FindMr(seq);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        before.push_back(dyn.index().QueryInterned(s, t, mr) ? 1 : 0);
      }
    }
  }

  Rng rng(137);
  for (int i = 0; i < 12; ++i) {
    const EdgeUpdate e = RandomPresentEdge(dyn, rng);
    ASSERT_TRUE(dyn.DeleteEdge(e.src, e.label, e.dst));
  }

  size_t pos = 0;
  for (const LabelSeq& seq : seqs) {
    const MrId mr = dyn.index().FindMr(seq);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        const bool after = dyn.index().QueryInterned(s, t, mr);
        if (!before[pos++]) {
          ASSERT_FALSE(after) << "delete flipped (" << s << "," << t << ","
                              << seq.ToString() << ") to reachable";
        }
      }
    }
  }
}

TEST(DynamicIndexTest, MixedMutationsAcrossReseal) {
  const DiGraph g = ErGraph(70, 240, 3, 139);
  ResealPolicy policy;
  policy.min_delta_entries = 1;
  policy.max_delta_ratio = 1e-6;  // trigger on (nearly) every mutation
  DynamicRlcIndex dyn(g, BuildSealed(g, 2), policy);
  Rng rng(149);
  for (int i = 0; i < 30; ++i) {
    if (rng.Below(2) == 0) {
      const EdgeUpdate e = RandomNewEdge(dyn, rng);
      ASSERT_TRUE(dyn.InsertEdge(e.src, e.label, e.dst));
    } else {
      const EdgeUpdate e = RandomPresentEdge(dyn, rng);
      ASSERT_TRUE(dyn.DeleteEdge(e.src, e.label, e.dst));
    }
  }
  EXPECT_GT(dyn.stats().reseals, 0u);
  ExpectMatchesRebuild(dyn, 2);

  dyn.ForceReseal();
  EXPECT_EQ(dyn.index().delta_entries(), 0u);
  EXPECT_EQ(dyn.index().tombstone_entries(), 0u);
  ExpectMatchesRebuild(dyn, 2);
}

TEST(DynamicIndexTest, DeleteMissingEdgeIsExactNoOp) {
  const DiGraph g = ErGraph(40, 140, 3, 151);
  DynamicRlcIndex dyn(g, BuildSealed(g, 2));

  Rng rng(157);
  const EdgeUpdate absent = RandomNewEdge(dyn, rng);
  const auto snapshot_state = [&] {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    WriteIndex(dyn.index(), buf);
    return buf.str();
  };
  const std::string bytes = snapshot_state();
  const DynamicIndexStats stats = dyn.stats();

  EXPECT_FALSE(dyn.DeleteEdge(absent.src, absent.label, absent.dst));
  EXPECT_EQ(dyn.stats().edges_delete_missing, stats.edges_delete_missing + 1);
  EXPECT_EQ(dyn.stats().edges_deleted, stats.edges_deleted);
  EXPECT_EQ(dyn.stats().entries_suppressed, stats.entries_suppressed);
  EXPECT_EQ(snapshot_state(), bytes);

  // Deleting an edge twice: the second call is the same exact no-op.
  const Edge base_edge = g.ToEdgeList().front();
  ASSERT_TRUE(dyn.DeleteEdge(base_edge.src, base_edge.label, base_edge.dst));
  const std::string after_delete = snapshot_state();
  EXPECT_FALSE(dyn.DeleteEdge(base_edge.src, base_edge.label, base_edge.dst));
  EXPECT_EQ(snapshot_state(), after_delete);
}

TEST(DynamicIndexTest, ApplyUpdatesRoutesMixedOps) {
  const DiGraph g = ErGraph(50, 170, 3, 163);
  DynamicRlcIndex dyn(g, BuildSealed(g, 2));
  Rng rng(167);
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 6; ++i) updates.push_back(RandomNewEdge(dyn, rng));
  const Edge base_edge = g.ToEdgeList()[7];
  updates.push_back({base_edge.src, base_edge.label, base_edge.dst,
                     EdgeOp::kDelete});
  // Delete one of the batch's own inserts: present by then, so it applies.
  updates.push_back({updates[0].src, updates[0].label, updates[0].dst,
                     EdgeOp::kDelete});
  // And a no-op pair: delete of an absent edge, re-insert of a base edge.
  EdgeUpdate absent = RandomNewEdge(dyn, rng);
  while (std::find_if(updates.begin(), updates.end(), [&](const EdgeUpdate& u) {
           return u.src == absent.src && u.label == absent.label &&
                  u.dst == absent.dst;
         }) != updates.end()) {
    absent = RandomNewEdge(dyn, rng);
  }
  updates.push_back({absent.src, absent.label, absent.dst, EdgeOp::kDelete});
  updates.push_back({base_edge.src, base_edge.label, base_edge.dst});

  // 6 inserts + 2 deletes + re-insert of the deleted base edge apply; the
  // delete of the never-present edge does not.
  EXPECT_EQ(dyn.ApplyUpdates(updates), 9u);
  EXPECT_EQ(dyn.stats().edges_deleted, 2u);
  EXPECT_EQ(dyn.stats().edges_delete_missing, 1u);
  ExpectMatchesRebuild(dyn, 2);
}

TEST(DynamicIndexTest, RejectsInvalidArguments) {
  const DiGraph g = ErGraph(20, 60, 2, 97);
  DynamicRlcIndex dyn(g, BuildSealed(g, 2));
  EXPECT_THROW(dyn.InsertEdge(20, 0, 1), std::invalid_argument);
  EXPECT_THROW(dyn.InsertEdge(0, 0, 20), std::invalid_argument);
  EXPECT_THROW(dyn.InsertEdge(0, 2, 1), std::invalid_argument);  // new label
  EXPECT_THROW(dyn.DeleteEdge(20, 0, 1), std::invalid_argument);
  EXPECT_THROW(dyn.DeleteEdge(0, 0, 20), std::invalid_argument);
  EXPECT_THROW(dyn.DeleteEdge(0, 2, 1), std::invalid_argument);
}

TEST(DynamicIndexTest, RequiresSealedIndex) {
  const DiGraph g = ErGraph(20, 60, 2, 101);
  IndexerOptions options;
  options.k = 2;
  options.seal = false;
  RlcIndexBuilder builder(g, options);
  EXPECT_THROW(DynamicRlcIndex(g, builder.Build()), std::invalid_argument);
}

}  // namespace
}  // namespace rlc

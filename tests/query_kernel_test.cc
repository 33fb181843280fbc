// Correctness of the signature-guarded query kernel (rlc_index.h) and the
// raw intersection kernels (util/simd.h):
//
//  * randomized property tests pitting FilterFirstBySecond and every
//    intersection kernel against scalar references / std::set_intersection
//    across length ratios 1:1 → 1:10000, including empty and singleton
//    lists (duplicate-free inputs, as the index guarantees);
//  * bit-identity of the sealed signature-guarded path against the
//    unsignatured and unsealed paths, scalar and grouped, on random ER
//    graphs and the paper's worked example;
//  * eviction accounting of the bounded MrCache;
//  * thread-count independence of the parallel ExecuteBatch.
//
// The whole file is ASan/UBSan-clean (the CI sanitizer job runs it).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rlc/core/indexer.h"
#include "rlc/core/mr_cache.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/graph/paper_graphs.h"
#include "rlc/serve/query_batch.h"
#include "rlc/util/rng.h"
#include "rlc/util/simd.h"
#include "rlc/util/thread_pool.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

std::vector<uint32_t> SortedUnique(size_t n, uint32_t spread, Rng& rng) {
  std::vector<uint32_t> v;
  v.reserve(n);
  uint32_t cur = 0;
  for (size_t i = 0; i < n; ++i) {
    cur += 1 + static_cast<uint32_t>(rng.Below(spread));
    v.push_back(cur);
  }
  return v;
}

bool ReferenceHasCommon(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  std::vector<uint32_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return !both.empty();
}

TEST(SimdKernelTest, IntersectionMatchesSetIntersectionAcrossRatios) {
  // Length ratios 1:1 up to 1:10000, plus empty and singleton lists. For
  // each shape, sweep overlap densities so both hit and miss outcomes
  // occur, and check every kernel (the selector and the three underlying
  // ones) against std::set_intersection.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {0, 0},      {0, 100},   {1, 1},     {1, 10000}, {7, 7},
      {100, 100},  {100, 400}, {64, 4096}, {16, 8192}, {3, 30000},
      {500, 500},  {2, 17},    {33, 1000}, {8, 80000},
  };
  Rng rng(99);
  for (const auto& [na, nb] : shapes) {
    for (const uint32_t spread : {1u, 3u, 16u, 256u}) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<uint32_t> a = SortedUnique(na, spread, rng);
        std::vector<uint32_t> b = SortedUnique(nb, 3, rng);
        const bool want = ReferenceHasCommon(a, b);
        const char* ctx_fmt = "na=%zu nb=%zu spread=%u trial=%d";
        char ctx[64];
        std::snprintf(ctx, sizeof(ctx), ctx_fmt, na, nb, spread, trial);
        EXPECT_EQ(want, simd::HasCommonElement(a.data(), a.size(), b.data(),
                                               b.size()))
            << ctx;
        EXPECT_EQ(want, simd::HasCommonElement(b.data(), b.size(), a.data(),
                                               a.size()))
            << ctx;
        EXPECT_EQ(want, simd::MergeHasCommon(a.data(), a.size(), b.data(),
                                             b.size()))
            << ctx;
        EXPECT_EQ(want, simd::BlockHasCommon(a.data(), a.size(), b.data(),
                                             b.size()))
            << ctx;
        if (na <= nb) {
          EXPECT_EQ(want, simd::GallopHasCommon(a.data(), a.size(), b.data(),
                                                b.size()))
              << ctx;
        }
      }
    }
  }
}

TEST(SimdKernelTest, FilterFirstBySecondMatchesScalar) {
  Rng rng(7);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{7}, size_t{8}, size_t{64}, size_t{1000}}) {
    for (int trial = 0; trial < 16; ++trial) {
      // Interleaved (key, tag) pairs with keys increasing and tags drawn
      // from a tiny alphabet so matches are common.
      std::vector<uint32_t> pairs;
      uint32_t key = 0;
      for (size_t i = 0; i < n; ++i) {
        key += 1 + static_cast<uint32_t>(rng.Below(5));
        pairs.push_back(key);
        pairs.push_back(static_cast<uint32_t>(rng.Below(4)));
      }
      const uint32_t target = static_cast<uint32_t>(rng.Below(5));  // may miss
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < n; ++i) {
        if (pairs[2 * i + 1] == target) expected.push_back(pairs[2 * i]);
      }
      std::vector<uint32_t> got(n + 1, 0xDEADBEEF);
      const size_t m =
          simd::FilterFirstBySecond(pairs.data(), n, target, got.data());
      ASSERT_EQ(expected.size(), m) << "n=" << n << " trial=" << trial;
      for (size_t i = 0; i < m; ++i) {
        EXPECT_EQ(expected[i], got[i]) << "n=" << n << " trial=" << trial;
      }
      EXPECT_EQ(0xDEADBEEFu, got[n]);  // never writes past n slots
    }
  }
}

DiGraph RandomGraph(VertexId n, uint64_t m, Label labels, uint64_t seed) {
  Rng rng(seed);
  auto edges = ErdosRenyiEdges(n, m, rng);
  AssignZipfLabels(&edges, labels, 2.0, rng);
  return DiGraph(n, std::move(edges), labels);
}

TEST(SignatureQueryTest, SealedSignedMatchesUnsignedAndUnsealed) {
  const DiGraph g = RandomGraph(300, 1400, 5, 41);
  IndexerOptions options;
  options.k = 2;
  options.seal = false;
  RlcIndexBuilder unsealed_builder(g, options);
  RlcIndex unsealed = unsealed_builder.Build();
  ASSERT_FALSE(unsealed.sealed());
  RlcIndexBuilder sealed_builder(g, IndexerOptions{.k = 2});
  RlcIndex sealed = sealed_builder.Build();
  ASSERT_TRUE(sealed.sealed());

  Rng rng(43);
  std::vector<LabelSeq> seqs;
  for (int i = 0; i < 12; ++i) {
    seqs.push_back(RandomPrimitiveSeq(1 + i % 2, g.num_labels(), rng));
  }
  // Include every recorded MR so positive probes occur.
  for (MrId id = 0; id < sealed.mr_table().size() && id < 16; ++id) {
    if (sealed.mr_table().Get(id).size() <= 2) {
      seqs.push_back(sealed.mr_table().Get(id));
    }
  }

  uint64_t positives = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const LabelSeq& c = seqs[rng.Below(seqs.size())];
    const bool want = unsealed.Query(s, t, c);
    positives += want;
    ASSERT_EQ(want, sealed.Query(s, t, c))
        << "signed sealed mismatch s=" << s << " t=" << t;
    sealed.set_use_signatures(false);
    ASSERT_EQ(want, sealed.Query(s, t, c))
        << "unsigned sealed mismatch s=" << s << " t=" << t;
    sealed.set_use_signatures(true);
  }
  EXPECT_GT(positives, 0u);  // the workload must exercise the true paths
}

TEST(SignatureQueryTest, GroupedMatchesScalarWithSignaturesOnAndOff) {
  const DiGraph g = RandomGraph(250, 1100, 4, 57);
  RlcIndex index = BuildRlcIndex(g, 2);
  Rng rng(59);
  std::vector<LabelSeq> seqs;
  for (MrId id = 0; id < index.mr_table().size() && id < 8; ++id) {
    if (index.mr_table().Get(id).size() <= 2) {
      seqs.push_back(index.mr_table().Get(id));
    }
  }
  ASSERT_FALSE(seqs.empty());
  for (const LabelSeq& seq : seqs) {
    const MrId mr = index.FindMr(seq);
    std::vector<VertexPair> pairs;
    std::vector<uint8_t> expected;
    for (int i = 0; i < 500; ++i) {
      const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
      pairs.push_back({s, t});
      expected.push_back(index.QueryInterned(s, t, mr) ? 1 : 0);
    }
    for (const bool signatures : {true, false}) {
      index.set_use_signatures(signatures);
      std::vector<uint8_t> answers(pairs.size(), 0);
      index.QueryGroupInterned(mr, pairs, answers);
      EXPECT_EQ(expected, answers) << "signatures=" << signatures;
    }
    index.set_use_signatures(true);
  }
}

TEST(SignatureQueryTest, RefutedBySignatureNeverRefutesATrueAnswer) {
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  Rng rng(61);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(2), g.num_labels(), rng);
    if (index.RefutedBySignature(s, t, c.labels())) {
      EXPECT_FALSE(index.Query(s, t, c))
          << "signature refuted a true answer s=" << s << " t=" << t;
    }
  }
}

TEST(MrCacheTest, BoundedWithEvictionCounters) {
  const DiGraph g = RandomGraph(60, 200, 4, 71);
  const RlcIndex index = BuildRlcIndex(g, 2);
  MrCache cache(index, /*max_entries=*/4);
  Rng rng(73);
  // Stream far more distinct templates than the bound.
  for (int i = 0; i < 64; ++i) {
    const LabelSeq seq = RandomPrimitiveSeq(2, g.num_labels(), rng);
    const MrId direct = index.FindMr(seq);
    EXPECT_EQ(direct, cache.Get(seq));  // eviction never changes answers
    EXPECT_LE(cache.size(), 4u);
  }
  const MrCacheStats& stats = cache.stats();
  EXPECT_EQ(stats.lookups, 64u);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GE(stats.evicted_entries, 4 * stats.flushes - 4);
  // A repeat-heavy stream under the bound evicts nothing further.
  MrCache small(index, /*max_entries=*/8);
  const LabelSeq seq = RandomPrimitiveSeq(2, g.num_labels(), rng);
  for (int i = 0; i < 10; ++i) small.Get(seq);
  EXPECT_EQ(small.stats().lookups, 10u);
  EXPECT_EQ(small.stats().hits, 9u);
  EXPECT_EQ(small.stats().flushes, 0u);
}

TEST(ParallelExecuteTest, ThreadCountsProduceIdenticalAnswers) {
  const DiGraph g = RandomGraph(400, 1800, 5, 81);
  const RlcIndex index = BuildRlcIndex(g, 2);
  WorkloadOptions wopts;
  wopts.count = 400;
  wopts.constraint_length = 2;
  wopts.fill_true_with_walks = true;
  const Workload w = GenerateWorkload(g, wopts);
  QueryBatch batch;
  for (const auto* pool : {&w.true_queries, &w.false_queries}) {
    for (const RlcQuery& q : *pool) batch.Add(q.s, q.t, q.constraint);
  }
  const AnswerBatch reference = ExecuteBatch(index, batch);
  for (const uint32_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{8192}}) {
      ExecuteOptions opts;
      opts.pool = &pool;
      opts.probes_per_job = chunk;
      const AnswerBatch got = ExecuteBatch(index, batch, opts);
      EXPECT_EQ(reference.answers, got.answers)
          << "threads=" << threads << " chunk=" << chunk;
      EXPECT_EQ(reference.num_groups, got.num_groups);
    }
  }
}

}  // namespace
}  // namespace rlc

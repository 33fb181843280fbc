// Unit tests for RlcIndex storage mechanics and the Algorithm 1 query:
// entry ordering, Case 1 / Case 2 resolution, the merge join, and the
// mutation API contracts — independent of the indexing algorithm.

#include "rlc/core/rlc_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace rlc {
namespace {

// A hand-built index over 4 vertices with access order (2,0,1,3):
// hub aids: v2 -> 1, v0 -> 2, v1 -> 3, v3 -> 4.
class HandBuiltIndexTest : public ::testing::Test {
 protected:
  HandBuiltIndexTest() : index_(4, 2) {
    index_.SetAccessOrder({2, 0, 1, 3});
    mr_a_ = index_.mr_table().Intern(LabelSeq{0});
    mr_ab_ = index_.mr_table().Intern(LabelSeq{0, 1});
    // v0 reaches hub v2 with (a) and (a b); hub v2 reaches v1 with (a b).
    index_.AddOut(0, 1, mr_a_);
    index_.AddOut(0, 1, mr_ab_);
    index_.AddIn(1, 1, mr_ab_);
    // Case 2 material: hub v0 reaches v3 directly with (a).
    index_.AddIn(3, 2, mr_a_);
    index_.AddOut(2, 2, mr_a_);  // v2 reaches hub v0 with (a)
  }

  RlcIndex index_;
  MrId mr_a_, mr_ab_;
};

TEST_F(HandBuiltIndexTest, AccessOrderMapping) {
  EXPECT_EQ(index_.AccessId(2), 1u);
  EXPECT_EQ(index_.AccessId(0), 2u);
  EXPECT_EQ(index_.AccessId(1), 3u);
  EXPECT_EQ(index_.AccessId(3), 4u);
  EXPECT_EQ(index_.VertexOfAid(1), 2u);
  EXPECT_EQ(index_.VertexOfAid(4), 3u);
}

TEST_F(HandBuiltIndexTest, CaseOneMergeJoin) {
  // v0 -> v1 via hub v2 with (a b): (v2,(ab)) ∈ Lout(v0) ∧ ∈ Lin(v1).
  EXPECT_TRUE(index_.Query(0, 1, LabelSeq{0, 1}));
  // MR mismatch on one side: (a) only in Lout(v0), not Lin(v1).
  EXPECT_FALSE(index_.Query(0, 1, LabelSeq{0}));
}

TEST_F(HandBuiltIndexTest, CaseTwoDirectEntries) {
  // (s,L) ∈ Lin(t): hub v0 -> v3 with (a).
  EXPECT_TRUE(index_.Query(0, 3, LabelSeq{0}));
  // (t,L) ∈ Lout(s): v2 -> hub v0 with (a).
  EXPECT_TRUE(index_.Query(2, 0, LabelSeq{0}));
  EXPECT_FALSE(index_.Query(2, 0, LabelSeq{0, 1}));
}

TEST_F(HandBuiltIndexTest, NoFalsePositives) {
  EXPECT_FALSE(index_.Query(1, 0, LabelSeq{0}));
  EXPECT_FALSE(index_.Query(3, 0, LabelSeq{0}));
  EXPECT_FALSE(index_.Query(0, 3, LabelSeq{0, 1}));
  // Unknown MR -> necessarily false.
  EXPECT_FALSE(index_.Query(0, 1, LabelSeq{1, 0}));
}

TEST_F(HandBuiltIndexTest, HasEntryLookups) {
  EXPECT_TRUE(index_.HasOutEntry(0, 1, mr_a_));
  EXPECT_TRUE(index_.HasOutEntry(0, 1, mr_ab_));
  EXPECT_FALSE(index_.HasOutEntry(0, 2, mr_a_));
  EXPECT_TRUE(index_.HasInEntry(3, 2, mr_a_));
  EXPECT_FALSE(index_.HasInEntry(3, 2, mr_ab_));
}

TEST_F(HandBuiltIndexTest, QueryInternedInvalidIdIsFalse) {
  EXPECT_FALSE(index_.QueryInterned(0, 1, kInvalidMrId));
}

TEST_F(HandBuiltIndexTest, CountsAndMemory) {
  EXPECT_EQ(index_.NumEntries(), 5u);
  EXPECT_GT(index_.MemoryBytes(), 5 * sizeof(IndexEntry));
}

TEST(RlcIndexTest, MergeJoinScansWholeHubGroups) {
  // Regression: multiple MRs under the same hub on both sides; the matching
  // MR sits at different offsets within each group. The hub (vertex 2,
  // access id 1) is distinct from both endpoints so only Case 1 can fire.
  RlcIndex index(3, 2);
  index.SetAccessOrder({2, 0, 1});
  const MrId a = index.mr_table().Intern(LabelSeq{0});
  const MrId b = index.mr_table().Intern(LabelSeq{1});
  const MrId c = index.mr_table().Intern(LabelSeq{2});
  index.AddOut(0, 1, a);
  index.AddOut(0, 1, b);
  index.AddIn(1, 1, b);
  index.AddIn(1, 1, c);
  EXPECT_TRUE(index.Query(0, 1, LabelSeq{1}));   // b on both sides of hub v2
  EXPECT_FALSE(index.Query(0, 1, LabelSeq{0}));  // a only on the out side
  EXPECT_FALSE(index.Query(0, 1, LabelSeq{2}));  // c only on the in side
}

TEST(RlcIndexTest, MergeJoinAdvancesPastNonCommonHubs) {
  RlcIndex index(3, 1);
  index.SetAccessOrder({0, 1, 2});
  const MrId a = index.mr_table().Intern(LabelSeq{0});
  index.AddOut(0, 1, a);  // hub aid 1 only on out side
  index.AddOut(0, 3, a);  // hub aid 3 on both
  index.AddIn(2, 2, a);   // hub aid 2 only on in side
  index.AddIn(2, 3, a);
  EXPECT_TRUE(index.Query(0, 2, LabelSeq{0}));
}

TEST(RlcIndexTest, SetAccessOrderValidation) {
  RlcIndex index(2, 1);
  EXPECT_THROW(index.SetAccessOrder({0}), std::invalid_argument);
  EXPECT_THROW(index.SetAccessOrder({0, 7}), std::invalid_argument);
}

TEST(RlcIndexTest, ConstructorValidatesK) {
  EXPECT_THROW(RlcIndex(1, 0), std::invalid_argument);
  EXPECT_THROW(RlcIndex(1, kMaxK + 1), std::invalid_argument);
}

TEST_F(HandBuiltIndexTest, SealPreservesEntriesAndAnswers) {
  // Snapshot the nested-vector layout, seal, and compare the CSR layout.
  std::vector<std::vector<IndexEntry>> out_before, in_before;
  for (VertexId v = 0; v < index_.num_vertices(); ++v) {
    out_before.emplace_back(index_.Lout(v).begin(), index_.Lout(v).end());
    in_before.emplace_back(index_.Lin(v).begin(), index_.Lin(v).end());
  }
  const uint64_t entries_before = index_.NumEntries();

  EXPECT_FALSE(index_.sealed());
  index_.Seal();
  EXPECT_TRUE(index_.sealed());
  index_.Seal();  // idempotent

  EXPECT_EQ(index_.NumEntries(), entries_before);
  for (VertexId v = 0; v < index_.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(index_.Lout(v), out_before[v])) << "v=" << v;
    EXPECT_TRUE(std::ranges::equal(index_.Lin(v), in_before[v])) << "v=" << v;
  }
  // The Algorithm 1 cases answer identically through the CSR layout.
  EXPECT_TRUE(index_.Query(0, 1, LabelSeq{0, 1}));
  EXPECT_FALSE(index_.Query(0, 1, LabelSeq{0}));
  EXPECT_TRUE(index_.Query(0, 3, LabelSeq{0}));
  EXPECT_TRUE(index_.Query(2, 0, LabelSeq{0}));
  EXPECT_FALSE(index_.Query(1, 0, LabelSeq{0}));
  EXPECT_TRUE(index_.HasOutEntry(0, 1, mr_a_));
  EXPECT_FALSE(index_.HasOutEntry(0, 2, mr_a_));
  EXPECT_GT(index_.MemoryBytes(), 0u);
}

TEST(RlcIndexTest, GallopingJoinOnSkewedLists) {
  // One side keeps a single hub group, the other side is long enough to
  // trigger the galloping path (ratio > 16). The common hub sits at
  // different spots to exercise early/mid/late gallops.
  // Hub aids 10..109 stay clear of the endpoints' own access ids (1..3) so
  // only Case 1 can answer true.
  for (const uint32_t common_aid : {10u, 55u, 109u}) {
    RlcIndex index(3, 1);
    index.SetAccessOrder({0, 1, 2});
    const MrId a = index.mr_table().Intern(LabelSeq{0});
    const MrId b = index.mr_table().Intern(LabelSeq{1});
    index.AddOut(0, common_aid, a);
    for (uint32_t aid = 10; aid <= 109; ++aid) {
      index.AddIn(2, aid, aid == common_aid ? a : b);
    }
    index.Seal();
    EXPECT_TRUE(index.Query(0, 2, LabelSeq{0})) << "aid=" << common_aid;
    EXPECT_FALSE(index.Query(0, 2, LabelSeq{1})) << "aid=" << common_aid;
  }
  // Same shape but no common aid at all: the gallop must run off the end
  // without matching.
  RlcIndex index(3, 1);
  index.SetAccessOrder({0, 1, 2});
  const MrId a = index.mr_table().Intern(LabelSeq{0});
  index.AddOut(0, 200, a);
  for (uint32_t aid = 10; aid <= 109; ++aid) index.AddIn(2, aid, a);
  index.Seal();
  EXPECT_FALSE(index.Query(0, 2, LabelSeq{0}));
}

TEST(RlcIndexTest, AdoptSealedRoundTrip) {
  // The same lists built through AddOut/AddIn + Seal give the signatures
  // AdoptSealed must be handed.
  RlcIndex built(2, 1);
  built.SetAccessOrder({1, 0});
  const MrId a = built.mr_table().Intern(LabelSeq{0});
  built.AddOut(0, 1, a);
  built.AddIn(1, 1, a);
  built.Seal();

  RlcIndex index(2, 1);
  index.SetAccessOrder({1, 0});
  ASSERT_EQ(index.mr_table().Intern(LabelSeq{0}), a);
  const std::vector<uint64_t> out_sigs = {built.OutSignature(0),
                                          built.OutSignature(1)};
  const std::vector<uint64_t> in_sigs = {built.InSignature(0),
                                         built.InSignature(1)};
  EXPECT_THROW(index.AdoptSealed({0, 1, 1}, {{1, a}}, {0, 0, 1}, {{1, a}},
                                 {}, {}),
               std::invalid_argument);
  index.AdoptSealed({0, 1, 1}, {{1, a}}, {0, 0, 1}, {{1, a}}, out_sigs,
                    in_sigs);
  EXPECT_TRUE(index.sealed());
  EXPECT_EQ(index.OutSignature(0), out_sigs[0]);
  EXPECT_EQ(index.InSignature(1), in_sigs[1]);
  EXPECT_EQ(index.NumEntries(), 2u);
  EXPECT_EQ(index.Lout(0).size(), 1u);
  EXPECT_EQ(index.Lin(1).size(), 1u);
  EXPECT_TRUE(index.Query(0, 1, LabelSeq{0}));
}

TEST(RlcIndexTest, SelfQueryThroughSelfEntry) {
  RlcIndex index(1, 1);
  index.SetAccessOrder({0});
  const MrId a = index.mr_table().Intern(LabelSeq{0});
  index.AddOut(0, 1, a);
  EXPECT_TRUE(index.Query(0, 0, LabelSeq{0}));
}

}  // namespace
}  // namespace rlc

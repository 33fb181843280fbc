// Serialization round-trip and corruption tests for the index format.
// Corruption cases target one section each — CSR entries, signatures,
// deltas, tombstones, the header's version — and check that the load
// fails there.

#include "rlc/core/index_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include "rlc/baselines/online_search.h"
#include "rlc/core/dynamic_index.h"
#include "rlc/core/indexer.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/graph/paper_graphs.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

void ExpectSameIndex(const RlcIndex& a, const RlcIndex& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.k(), b.k());
  ASSERT_EQ(a.mr_table().size(), b.mr_table().size());
  for (MrId id = 0; id < a.mr_table().size(); ++id) {
    EXPECT_EQ(a.mr_table().Get(id), b.mr_table().Get(id));
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.AccessId(v), b.AccessId(v));
    EXPECT_TRUE(std::ranges::equal(a.Lout(v), b.Lout(v))) << "Lout at v=" << v;
    EXPECT_TRUE(std::ranges::equal(a.Lin(v), b.Lin(v))) << "Lin at v=" << v;
    // Signatures are a pure function of the lists, so an adopted signature
    // must equal the one a build computed.
    EXPECT_EQ(a.OutSignature(v), b.OutSignature(v)) << "out sig at v=" << v;
    EXPECT_EQ(a.InSignature(v), b.InSignature(v)) << "in sig at v=" << v;
  }
}

/// Expects `bytes` to fail the load with an error naming `section`.
void ExpectLoadFailsIn(const std::string& bytes, const std::string& section,
                       const std::string& what_for) {
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  try {
    (void)ReadIndex(in);
    ADD_FAILURE() << what_for << ": load succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[section: " + section + ","),
              std::string::npos)
        << what_for << ": " << e.what();
  }
}

/// Byte offset where the signature section starts in the image of an index
/// without pending overlays: the signatures (2n words + checksum) and the
/// two empty overlay sections (3 words each) end the file.
size_t SignatureSectionStart(const RlcIndex& index, size_t file_size) {
  const size_t tail = (2 * size_t{index.num_vertices()} + 1 + 6) * 8;
  return file_size - tail;
}

TEST(IndexIoTest, RoundTripFig2) {
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  const RlcIndex loaded = ReadIndex(buf);
  ExpectSameIndex(index, loaded);
  // Loaded index answers like the original.
  const Label l1 = *g.FindLabel("l1");
  const Label l2 = *g.FindLabel("l2");
  EXPECT_TRUE(loaded.Query(*g.FindVertex("v3"), *g.FindVertex("v6"),
                           LabelSeq{l2, l1}));
  EXPECT_FALSE(loaded.Query(*g.FindVertex("v1"), *g.FindVertex("v3"),
                            LabelSeq{l1}));
}

TEST(IndexIoTest, RoundTripRandomGraphQueriesAgree) {
  Rng rng(31);
  auto edges = ErdosRenyiEdges(120, 420, rng);
  AssignZipfLabels(&edges, 4, 2.0, rng);
  const DiGraph g(120, std::move(edges), 4);
  const RlcIndex index = BuildRlcIndex(g, 3);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  const RlcIndex loaded = ReadIndex(buf);
  ExpectSameIndex(index, loaded);

  for (int trial = 0; trial < 300; ++trial) {
    const auto s = static_cast<VertexId>(rng.Below(120));
    const auto t = static_cast<VertexId>(rng.Below(120));
    const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(3), 4, rng);
    ASSERT_EQ(index.Query(s, t, c), loaded.Query(s, t, c));
  }
}

TEST(IndexIoTest, UnsealedIndexWritesIdenticalBytes) {
  // The serialized form must not depend on whether Seal() ran.
  Rng rng(17);
  auto edges = ErdosRenyiEdges(80, 300, rng);
  AssignZipfLabels(&edges, 3, 2.0, rng);
  const DiGraph g(80, std::move(edges), 3);

  IndexerOptions options;
  options.k = 2;
  options.seal = false;
  RlcIndexBuilder builder(g, options);
  RlcIndex index = builder.Build();
  ASSERT_FALSE(index.sealed());

  std::stringstream unsealed_bytes(std::ios::in | std::ios::out |
                                   std::ios::binary);
  WriteIndex(index, unsealed_bytes);
  index.Seal();
  std::stringstream sealed_bytes(std::ios::in | std::ios::out |
                                 std::ios::binary);
  WriteIndex(index, sealed_bytes);
  EXPECT_EQ(unsealed_bytes.str(), sealed_bytes.str());
}

TEST(IndexIoTest, CorruptCsrEntriesRejected) {
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  uint64_t in_entries = 0;
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    in_entries += index.Lin(v).size();
  }
  ASSERT_GT(in_entries, 0u);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  std::string bytes = buf.str();
  // The in-CSR entry buffer ends where the signatures start; smash the last
  // IndexEntry's mr id to an out-of-range value.
  const size_t csr_end = SignatureSectionStart(index, bytes.size());
  for (size_t i = csr_end - 4; i < csr_end; ++i) {
    bytes[i] = static_cast<char>(0xFF);
  }
  ExpectLoadFailsIn(bytes, "in csr", "smashed mr id");
}

TEST(IndexIoTest, RoundTripResaveIsByteIdentical) {
  // The file persists the vertex signatures; a load-then-save cycle must
  // reproduce it byte for byte (the adopted signatures equal the ones a
  // build computes).
  Rng rng(23);
  auto edges = ErdosRenyiEdges(150, 600, rng);
  AssignZipfLabels(&edges, 5, 2.0, rng);
  const DiGraph g(150, std::move(edges), 5);
  const RlcIndex index = BuildRlcIndex(g, 2);

  std::stringstream first(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, first);
  const RlcIndex loaded = ReadIndex(first);
  ExpectSameIndex(index, loaded);

  std::stringstream resaved(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(loaded, resaved);
  EXPECT_EQ(first.str(), resaved.str());
}

TEST(IndexIoTest, CorruptSignaturesRejected) {
  // Unlike entries (range-checked) a flipped signature bit would silently
  // change answers, so the signature checksum must reject it at load time.
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  std::string bytes = buf.str();
  bytes[SignatureSectionStart(index, bytes.size()) + 3] ^= 0x10;
  ExpectLoadFailsIn(bytes, "signatures", "flipped signature bit");
}

TEST(IndexIoTest, TruncatedSignatureBlockRejected) {
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  const std::string bytes = buf.str();
  const size_t cut = SignatureSectionStart(index, bytes.size()) + 5;
  ExpectLoadFailsIn(bytes.substr(0, cut), "signatures", "cut in signatures");
}

/// A dynamically maintained index with pending (unmerged) delta entries.
std::unique_ptr<DynamicRlcIndex> DeltaedIndex(const DiGraph& g, uint32_t k,
                                              uint64_t seed) {
  ResealPolicy policy;
  policy.max_delta_ratio = 1e9;  // never reseal: keep the deltas pending
  auto dyn = std::make_unique<DynamicRlcIndex>(g, BuildRlcIndex(g, k), policy);
  Rng rng(seed);
  while (dyn->index().delta_entries() < 12) {
    const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto l = static_cast<Label>(rng.Below(g.num_labels()));
    if (!dyn->HasEdge(u, l, v)) dyn->InsertEdge(u, l, v);
  }
  return dyn;
}

TEST(IndexIoTest, RoundTripWithPendingDeltas) {
  Rng rng(37);
  auto edges = ErdosRenyiEdges(90, 300, rng);
  AssignZipfLabels(&edges, 3, 2.0, rng);
  const DiGraph g(90, std::move(edges), 3);
  const auto dyn = DeltaedIndex(g, 2, 41);
  const RlcIndex& index = dyn->index();
  ASSERT_GT(index.delta_entries(), 0u);

  std::stringstream first(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, first);
  const RlcIndex loaded = ReadIndex(first);
  ExpectSameIndex(index, loaded);
  EXPECT_EQ(index.delta_entries(), loaded.delta_entries());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(index.DeltaLout(v), loaded.DeltaLout(v)));
    EXPECT_TRUE(std::ranges::equal(index.DeltaLin(v), loaded.DeltaLin(v)));
  }

  // Load -> resave must reproduce the file byte for byte.
  std::stringstream resaved(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(loaded, resaved);
  EXPECT_EQ(first.str(), resaved.str());

  // Loaded and original answer identically, deltas consulted.
  for (int trial = 0; trial < 400; ++trial) {
    const auto s = static_cast<VertexId>(rng.Below(90));
    const auto t = static_cast<VertexId>(rng.Below(90));
    const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(2), 3, rng);
    ASSERT_EQ(index.Query(s, t, c), loaded.Query(s, t, c));
  }
}

TEST(IndexIoTest, MergedDeltasSerializeLikeNoDeltas) {
  // After MergeDeltas the overlay sections are empty: the bytes must equal
  // those of an index that never had deltas pending... which is exactly the
  // byte layout property the static round-trip tests already rely on.
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::stringstream direct(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, direct);
  RlcIndex copy = ReadIndex(direct);
  copy.MergeDeltas();  // no-op on an empty overlay
  std::stringstream after(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(copy, after);
  EXPECT_EQ(direct.str(), after.str());
}

TEST(IndexIoTest, CorruptDeltaSectionRejected) {
  Rng rng(47);
  auto edges = ErdosRenyiEdges(70, 240, rng);
  AssignZipfLabels(&edges, 3, 2.0, rng);
  const DiGraph g(70, std::move(edges), 3);
  const auto dyn = DeltaedIndex(g, 2, 53);

  ASSERT_EQ(dyn->index().tombstone_entries(), 0u);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(dyn->index(), buf);
  const std::string bytes = buf.str();

  // The delta section ends where the empty tombstone section (3 words)
  // starts: its last u64 is the section checksum, entries precede it. Both
  // a flipped entry word and a flipped checksum must fail the load there.
  const size_t delta_end = bytes.size() - 3 * 8;
  for (const size_t back_off : {9u, 3u}) {
    std::string corrupt = bytes;
    corrupt[delta_end - back_off] ^= 0x04;
    ExpectLoadFailsIn(corrupt, "delta",
                      "flip at end-" + std::to_string(back_off));
  }

  // Truncation inside the delta section.
  for (const size_t cut_back : {1u, 8u, 17u}) {
    ExpectLoadFailsIn(bytes.substr(0, delta_end - cut_back), "delta",
                      "cut " + std::to_string(cut_back) + " bytes");
  }
}

/// A dynamically maintained index with pending deltas *and* tombstones:
/// random inserts grow the delta lists, deletes of base edges tombstone
/// stale CSR entries.
std::unique_ptr<DynamicRlcIndex> TombstonedIndex(const DiGraph& g, uint32_t k,
                                                 uint64_t seed) {
  ResealPolicy policy;
  policy.max_delta_ratio = 1e9;  // never reseal: keep the overlays pending
  auto dyn = std::make_unique<DynamicRlcIndex>(g, BuildRlcIndex(g, k), policy);
  Rng rng(seed);
  const std::vector<Edge> base = g.ToEdgeList();
  while (dyn->index().tombstone_entries() < 6) {
    const Edge& e = base[rng.Below(base.size())];
    dyn->DeleteEdge(e.src, e.label, e.dst);
  }
  while (dyn->index().delta_entries() < 8) {
    const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto l = static_cast<Label>(rng.Below(g.num_labels()));
    if (!dyn->HasEdge(u, l, v)) dyn->InsertEdge(u, l, v);
  }
  return dyn;
}

TEST(IndexIoTest, RoundTripWithTombstones) {
  Rng rng(59);
  auto edges = ErdosRenyiEdges(90, 340, rng);
  AssignZipfLabels(&edges, 3, 2.0, rng);
  const DiGraph g(90, std::move(edges), 3);
  const auto dyn = TombstonedIndex(g, 2, 61);
  const RlcIndex& index = dyn->index();
  ASSERT_GT(index.tombstone_entries(), 0u);
  ASSERT_GT(index.delta_entries(), 0u);

  std::stringstream first(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, first);
  const RlcIndex loaded = ReadIndex(first);
  ExpectSameIndex(index, loaded);
  EXPECT_EQ(index.delta_entries(), loaded.delta_entries());
  EXPECT_EQ(index.tombstone_entries(), loaded.tombstone_entries());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(index.DeltaLout(v), loaded.DeltaLout(v)));
    EXPECT_TRUE(std::ranges::equal(index.DeltaLin(v), loaded.DeltaLin(v)));
    EXPECT_TRUE(std::ranges::equal(index.TombLout(v), loaded.TombLout(v)));
    EXPECT_TRUE(std::ranges::equal(index.TombLin(v), loaded.TombLin(v)));
  }

  // Load -> resave must reproduce the file byte for byte.
  std::stringstream resaved(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(loaded, resaved);
  EXPECT_EQ(first.str(), resaved.str());

  // Loaded and original answer identically, tombstones consulted.
  for (int trial = 0; trial < 400; ++trial) {
    const auto s = static_cast<VertexId>(rng.Below(90));
    const auto t = static_cast<VertexId>(rng.Below(90));
    const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(2), 3, rng);
    ASSERT_EQ(index.Query(s, t, c), loaded.Query(s, t, c));
  }
}

TEST(IndexIoTest, CorruptTombstoneSectionRejected) {
  Rng rng(73);
  auto edges = ErdosRenyiEdges(70, 260, rng);
  AssignZipfLabels(&edges, 3, 2.0, rng);
  const DiGraph g(70, std::move(edges), 3);
  const auto dyn = TombstonedIndex(g, 2, 79);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(dyn->index(), buf);
  const std::string bytes = buf.str();

  // The tombstone section ends the file: last u64 is its checksum, entries
  // precede it. A flipped entry word and a flipped checksum must both fail
  // the load there.
  for (const size_t back_off : {9u, 3u}) {
    std::string corrupt = bytes;
    corrupt[corrupt.size() - back_off] ^= 0x04;
    ExpectLoadFailsIn(corrupt, "tombstone",
                      "flip at size-" + std::to_string(back_off));
  }

  // Truncation anywhere inside the tombstone section.
  for (const size_t cut_back : {1u, 8u, 17u}) {
    ExpectLoadFailsIn(bytes.substr(0, bytes.size() - cut_back), "tombstone",
                      "cut " + std::to_string(cut_back) + " bytes");
  }
}

TEST(IndexIoTest, TombstoneForMissingEntryRejected) {
  // An adversarial file whose tombstone section passes the checksum but
  // references a CSR entry that does not exist: the load must fail on the
  // AddTombstone validation, not install a dangling tombstone.
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  std::string bytes = buf.str();

  // Strip the empty tombstone section (u64 count, u64 count, u64 checksum)
  // and append a crafted one claiming vertex 0 tombstones an entry with an
  // in-range hub/mr that its Lout does not hold, with a valid checksum
  // (same FNV fold as index_io.cc).
  ASSERT_GE(bytes.size(), 24u);
  bytes.resize(bytes.size() - 24);
  uint32_t missing_aid = 0;
  const std::span<const IndexEntry> lout = index.Lout(0);
  for (uint32_t aid = 1; aid <= index.num_vertices(); ++aid) {
    if (std::none_of(lout.begin(), lout.end(), [&](const IndexEntry& e) {
          return e.hub_aid == aid && e.mr == 0;
        })) {
      missing_aid = aid;
      break;
    }
  }
  ASSERT_GT(missing_aid, 0u);
  uint64_t checksum = 0xCBF29CE484222325ULL;
  const auto fold = [&](uint64_t word) {
    checksum = (checksum ^ word) * 0x100000001B3ULL;
  };
  const auto put32 = [&](uint32_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto put64 = [&](uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put64(1);  // out side: one vertex with tombstones
  fold(1);
  put32(0);  // vertex 0
  put32(1);  // one entry
  fold(0);
  fold(1);
  put32(missing_aid);
  put32(0);  // mr 0
  fold(missing_aid);
  fold(0);
  put64(0);  // in side: empty
  fold(0);
  put64(checksum);

  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(ReadIndex(in), std::runtime_error);
}

TEST(IndexIoTest, OtherVersionHeadersRejected) {
  // Files of the retired formats 1-4 (and any future version) fail in the
  // header, right after the version word: the error names the version, the
  // section and the byte offset.
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  const std::string bytes = buf.str();
  uint32_t written = 0;
  std::memcpy(&written, bytes.data() + 8, sizeof(written));
  ASSERT_EQ(written, kIndexFormatVersion);
  for (const uint32_t version : {1u, 2u, 3u, 4u, 6u}) {
    std::string old = bytes;
    std::memcpy(old.data() + 8, &version, sizeof(version));
    std::stringstream in(old, std::ios::in | std::ios::binary);
    try {
      (void)ReadIndex(in, "old.idx");
      ADD_FAILURE() << "version " << version << " loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ReadIndex(old.idx): unsupported version " +
                          std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("[section: header, byte offset 12]"),
                std::string::npos)
          << what;
    }
  }
}

TEST(IndexIoTest, RoundTripEmptyIndex) {
  const RlcIndex index = BuildRlcIndex(DiGraph(), 2);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  const RlcIndex loaded = ReadIndex(buf);
  EXPECT_EQ(loaded.num_vertices(), 0u);
  EXPECT_EQ(loaded.NumEntries(), 0u);
}

TEST(IndexIoTest, BadMagicRejected) {
  std::stringstream buf;
  buf << "this is not an index file at all, sorry";
  EXPECT_THROW(ReadIndex(buf), std::runtime_error);
}

TEST(IndexIoTest, TruncationRejected) {
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  WriteIndex(index, buf);
  const std::string full = buf.str();
  for (const size_t cut : {size_t{4}, full.size() / 2, full.size() - 3}) {
    std::stringstream trunc(full.substr(0, cut), std::ios::in | std::ios::binary);
    EXPECT_THROW(ReadIndex(trunc), std::runtime_error) << "cut at " << cut;
  }
}

TEST(IndexIoTest, FileRoundTrip) {
  const DiGraph g = BuildFig2Graph();
  const RlcIndex index = BuildRlcIndex(g, 2);
  const std::string path = ::testing::TempDir() + "/rlc_index_io_test.idx";
  SaveIndex(index, path);
  const RlcIndex loaded = LoadIndex(path);
  ExpectSameIndex(index, loaded);
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadIndex("/nonexistent/dir/index.idx"), std::runtime_error);
}

}  // namespace
}  // namespace rlc

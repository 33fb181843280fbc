// Load-path robustness fuzz: every byte flip, truncation or garbage prefix
// applied to a valid index file — sealed, with pending deltas, and with
// deltas plus tombstones — must either load successfully (the mutation
// missed everything that matters, e.g. padding it doesn't have — in
// practice: almost never) or throw a clean std::exception naming the
// source. Never UB, never a crash,
// never an abort — the property the hardened ReadIndex section/bounds
// checks exist for, enforced under ASan/UBSan by the sanitizer CI jobs.
//
// Tests named *Sweep* are registered as a separate slow-labeled ctest
// entry (nightly); the rest keep the per-PR suite fast.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "rlc/core/dynamic_index.h"
#include "rlc/core/index_io.h"
#include "rlc/core/indexer.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/util/rng.h"

namespace rlc {
namespace {

DiGraph TestGraph(uint64_t seed) {
  Rng rng(seed);
  auto edges = ErdosRenyiEdges(36, 110, rng);
  AssignZipfLabels(&edges, 3, 2.0, rng);
  return DiGraph(36, std::move(edges), 3);
}

RlcIndex BuildSealed(const DiGraph& g, uint32_t k = 2) {
  IndexerOptions options;
  options.k = k;
  RlcIndexBuilder builder(g, options);
  return builder.Build();
}

/// Valid serialized images covering every section kind: a clean sealed
/// index (empty overlay sections), one with live delta entries, and one with
/// deltas and tombstones.
std::vector<std::pair<std::string, std::string>> Images(uint64_t seed) {
  const DiGraph g = TestGraph(seed);
  std::vector<std::pair<std::string, std::string>> images;
  const auto add = [&images](const char* name, const RlcIndex& index) {
    std::ostringstream os(std::ios::binary);
    WriteIndex(index, os);
    images.emplace_back(name, std::move(os).str());
  };
  add("sealed", BuildSealed(g));

  DynamicRlcIndex dyn(g, BuildSealed(g), ResealPolicy{.max_delta_ratio = 1e9});
  Rng rng(seed ^ 0x5A5A);
  for (int i = 0; i < 8; ++i) {  // populate the delta overlay
    for (;;) {
      const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto l = static_cast<Label>(rng.Below(g.num_labels()));
      if (!dyn.HasEdge(u, l, v)) {
        dyn.InsertEdge(u, l, v);
        break;
      }
    }
  }
  add("deltas", dyn.index());
  // Delete base-graph edges (not the fresh delta inserts, whose deletion
  // would just cancel) so the last image carries real tombstone sections.
  const std::vector<Edge> base = g.ToEdgeList();
  dyn.DeleteEdge(base[0].src, base[0].label, base[0].dst);
  dyn.DeleteEdge(base[1].src, base[1].label, base[1].dst);
  add("deltas+tombstones", dyn.index());
  return images;
}

/// Loads mutated bytes: success and clean std::exception are both fine;
/// anything else (UB, abort) is caught by the sanitizers / the harness.
void TryLoad(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    const RlcIndex loaded = ReadIndex(in, "fuzzed");
    // A survivor must at least be internally consistent enough to answer.
    (void)loaded.NumEntries();
  } catch (const std::exception&) {
    // Clean rejection.
  }
}

void RunByteFlipFuzz(int flips_per_image, uint64_t seed) {
  uint64_t image_seed = seed;
  for (const auto& [name, bytes] : Images(seed)) {
    SCOPED_TRACE(name);
    Rng rng(++image_seed);
    for (int trial = 0; trial < flips_per_image; ++trial) {
      std::string mutated = bytes;
      const size_t offset = rng.Below(mutated.size());
      mutated[offset] =
          static_cast<char>(mutated[offset] ^ (1u << rng.Below(8)));
      TryLoad(mutated);
    }
    // Multi-byte corruption: whole random words, not just single bits —
    // exercises the count/offset bounds checks with large bogus values.
    for (int trial = 0; trial < flips_per_image / 2; ++trial) {
      std::string mutated = bytes;
      const size_t offset = rng.Below(mutated.size());
      for (size_t i = offset; i < mutated.size() && i < offset + 8; ++i) {
        mutated[i] = static_cast<char>(rng.Below(256));
      }
      TryLoad(mutated);
    }
  }
}

void RunTruncationFuzz(int cuts_per_image, uint64_t seed) {
  uint64_t image_seed = seed * 31;
  for (const auto& [name, bytes] : Images(seed)) {
    SCOPED_TRACE(name);
    Rng rng(++image_seed);
    // Every short prefix length near the front (header, access order),
    // then random cuts across the file.
    for (size_t cut = 0; cut < 128 && cut < bytes.size(); ++cut) {
      TryLoad(bytes.substr(0, cut));
    }
    for (int trial = 0; trial < cuts_per_image; ++trial) {
      TryLoad(bytes.substr(0, rng.Below(bytes.size())));
    }
  }
}

TEST(LoadFuzzTest, ByteFlipsEveryImage) { RunByteFlipFuzz(200, 0x10AD); }

TEST(LoadFuzzTest, TruncationsEveryImage) { RunTruncationFuzz(100, 0x70AD); }

TEST(LoadFuzzTest, GarbageAndEmptyInputs) {
  TryLoad("");
  TryLoad(std::string(1, '\0'));
  TryLoad("not an index file at all");
  Rng rng(0xBAD);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.Below(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Below(256));
    TryLoad(garbage);
  }
  // Valid magic + bogus everything after it.
  const auto images = Images(0x600D);
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = images.back().second.substr(0, 16);
    mutated.resize(16 + rng.Below(256));
    for (size_t i = 12; i < mutated.size(); ++i) {
      mutated[i] = static_cast<char>(rng.Below(256));
    }
    TryLoad(mutated);
  }
}

TEST(LoadFuzzTest, SweepDeepByteFlips) { RunByteFlipFuzz(2000, 0xDEEF); }

TEST(LoadFuzzTest, SweepDeepTruncations) { RunTruncationFuzz(1000, 0xCAFE); }

}  // namespace
}  // namespace rlc

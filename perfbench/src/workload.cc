#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "rlc/core/label_seq.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/util/rng.h"
#include "rlc/util/zipf.h"
#include "rlc/workload/query_gen.h"

namespace perfbench {

using rlc::Edge;
using rlc::EdgeOp;
using rlc::EdgeUpdate;
using rlc::Label;
using rlc::LabelSeq;
using rlc::Rng;
using rlc::VertexId;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "kernel-er20k",
       .num_vertices = 20'000,
       .num_edges = 100'000,
       .communities = 0,
       .intra_fraction = 0.0,
       .shards = 1,
       .policy = rlc::PartitionPolicy::kHash,
       .durable = false,
       .batch_probes = 1024,
       .walk_share = 0.5,
       .source_zipf = 0.0,
       .reads_per_round = 64,
       .updates_per_write = 0,
       .cold_batches = 512,
       .rounds = 100,
       .replays_per_second = 0.17,
       .pool_batches = 512},
      {.name = "compose-comm10k",
       .num_vertices = 10'000,
       .num_edges = 50'000,
       .communities = 16,
       .intra_fraction = 0.9,
       .shards = 4,
       .policy = rlc::PartitionPolicy::kRangeOrdered,
       .durable = false,
       .batch_probes = 64,
       .walk_share = 0.5,
       .source_zipf = 1.1,
       .reads_per_round = 16,
       .updates_per_write = 0,
       .cold_batches = 48,
       .rounds = 24,
       .replays_per_second = 0.17,
       .pool_batches = 0},
      {.name = "churn-comm5k",
       .num_vertices = 5'000,
       .num_edges = 25'000,
       .communities = 16,
       .intra_fraction = 0.9,
       .shards = 4,
       .policy = rlc::PartitionPolicy::kRangeOrdered,
       .durable = true,
       .batch_probes = 64,
       .walk_share = 0.0,
       .source_zipf = 0.0,
       .reads_per_round = 16,
       .updates_per_write = 16,
       .cold_batches = 32,
       .rounds = 24,
       .replays_per_second = 0.17,
       .pool_batches = 0},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& s : AllWorkloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint32_t Replays(const WorkloadSpec& spec, uint32_t seconds) {
  return std::max<uint32_t>(
      3, static_cast<uint32_t>(std::lround(spec.replays_per_second * seconds)));
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finaliser over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

GeneratedGraph MakeGraph(const WorkloadSpec& spec) {
  Rng rng(SubSeed(kGraphSeed, 1));
  GeneratedGraph out;
  std::vector<Edge> edges =
      spec.communities == 0
          ? rlc::ErdosRenyiEdges(spec.num_vertices, spec.num_edges, rng)
          : rlc::PlantedPartitionEdges(spec.num_vertices, spec.num_edges,
                                       spec.communities, spec.intra_fraction,
                                       rng, &out.community);
  rlc::AssignZipfLabels(&edges, kNumLabels, kLabelZipf, rng);
  out.graph = rlc::DiGraph(spec.num_vertices, std::move(edges), kNumLabels);
  return out;
}

namespace {

class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// The live edge set of a churn run, with O(1) uniform choice of a present
/// edge (base or previously inserted).
class EdgeSet {
 public:
  explicit EdgeSet(const rlc::DiGraph& g) {
    for (const Edge& e : g.ToEdgeList()) Insert(e);
  }
  static uint64_t Key(const Edge& e) {
    return (uint64_t{e.src} << 36) ^ (uint64_t{e.dst} << 4) ^ e.label;
  }
  bool Contains(const Edge& e) const { return pos_.count(Key(e)) != 0; }
  void Insert(const Edge& e) {
    pos_.emplace(Key(e), edges_.size());
    edges_.push_back(e);
  }
  Edge RemoveAt(size_t i) {
    const Edge e = edges_[i];
    pos_.erase(Key(e));
    if (i + 1 != edges_.size()) {
      edges_[i] = edges_.back();
      pos_[Key(edges_[i])] = i;
    }
    edges_.pop_back();
    return e;
  }
  size_t size() const { return edges_.size(); }

 private:
  std::vector<Edge> edges_;
  std::unordered_map<uint64_t, size_t> pos_;
};

class ProbeGen {
 public:
  ProbeGen(const WorkloadSpec& spec, const rlc::DiGraph& g, uint64_t seed)
      : spec_(spec),
        g_(g),
        rng_(seed),
        perm_(g.num_vertices()),
        source_zipf_(g.num_vertices(),
                     spec.source_zipf > 0 ? spec.source_zipf : 1.0) {
    std::iota(perm_.begin(), perm_.end(), VertexId{0});
  }

  /// Draws a fresh source permutation: the hot sources of a skewed
  /// workload move between batches, so a run averages over many hot sets
  /// instead of being decided by the few its seed happens to pick.
  void Reskew() {
    if (spec_.source_zipf <= 0) return;
    for (size_t i = perm_.size(); i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng_.Below(i)]);
    }
  }

  ReadBatch Next(Digest& digest) {
    ReadBatch rb;
    std::unordered_set<uint64_t> seen_probes;
    std::unordered_set<VertexId> seen_sources;
    const uint32_t walks = static_cast<uint32_t>(
        std::lround(spec_.walk_share * spec_.batch_probes));
    uint32_t walks_done = 0;
    while (rb.batch.num_probes() < spec_.batch_probes) {
      // Interleave walk-derived and uniform probes in the spec's ratio.
      const uint32_t uniform_done =
          static_cast<uint32_t>(rb.batch.num_probes()) - walks_done;
      const bool walk = walks_done < walks &&
                        (uniform_done >= spec_.batch_probes - walks ||
                         walks_done <= uniform_done);
      VertexId s = Source();
      VertexId t = 0;
      LabelSeq seq;
      if (walk) {
        if (!Walk(s, &t, &seq)) continue;
      } else {
        Uniform(&t, &seq);
      }
      const uint64_t key = (uint64_t{s} << 32 | t) * 31 +
                           rlc::LabelSeqHash{}(seq);
      if (!seen_probes.insert(key).second) continue;
      if (!seen_sources.insert(s).second) ++rb.repeated_sources;
      walks_done += walk ? 1 : 0;
      rb.batch.Add(s, t, seq);
      digest.Add(uint64_t{s} << 32 | t);
      for (const Label l : seq.labels()) digest.Add(l);
    }
    return rb;
  }

 private:
  VertexId Source() {
    if (spec_.source_zipf <= 0) {
      return static_cast<VertexId>(rng_.Below(g_.num_vertices()));
    }
    return perm_[source_zipf_.Sample(rng_)];
  }

  /// A random walk of 1..4 edges whose label word is a power of a
  /// primitive sequence of length <= k: (s, end, mr) is true by
  /// construction.
  bool Walk(VertexId s, VertexId* t, LabelSeq* seq) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const uint32_t len = 1 + static_cast<uint32_t>(rng_.Below(4));
      std::vector<Label> word;
      VertexId v = s;
      for (uint32_t i = 0; i < len; ++i) {
        const auto out = g_.OutEdges(v);
        if (out.empty()) break;
        const rlc::LabeledNeighbor& nb = out[rng_.Below(out.size())];
        word.push_back(nb.label);
        v = nb.v;
      }
      if (word.size() != len) continue;
      const std::vector<Label> mr = rlc::MinimumRepeat(word);
      if (mr.size() > kBoundK) continue;
      *t = v;
      *seq = LabelSeq(std::span<const Label>(mr));
      return true;
    }
    return false;
  }

  void Uniform(VertexId* t, LabelSeq* seq) {
    *t = static_cast<VertexId>(rng_.Below(g_.num_vertices()));
    const uint32_t len = 1 + static_cast<uint32_t>(rng_.Below(kBoundK));
    *seq = rlc::RandomPrimitiveSeq(len, kNumLabels, rng_);
  }

  const WorkloadSpec& spec_;
  const rlc::DiGraph& g_;
  Rng rng_;
  std::vector<VertexId> perm_;
  rlc::ZipfSampler source_zipf_;
};

/// Half inserts of absent edges (intra-community with the generator's
/// intra_fraction), half deletes of present edges, interleaved.
class WriteGen {
 public:
  WriteGen(const WorkloadSpec& spec, const GeneratedGraph& gg, uint64_t seed)
      : spec_(spec),
        gg_(gg),
        rng_(seed),
        edges_(gg.graph),
        labels_(kNumLabels, kLabelZipf) {
    if (!gg.community.empty()) {
      members_.resize(spec.communities);
      for (VertexId v = 0; v < gg.community.size(); ++v) {
        members_[gg.community[v]].push_back(v);
      }
    }
  }

  WriteBatch Next(Digest& digest) {
    WriteBatch wb;
    for (uint32_t i = 0; i < spec_.updates_per_write; ++i) {
      const EdgeUpdate u = i % 2 == 0 ? Insert() : Delete();
      digest.Add(uint64_t{u.src} << 32 | u.dst);
      digest.Add(uint64_t{u.label} << 1 | (u.op == EdgeOp::kDelete));
      wb.push_back(u);
    }
    return wb;
  }

 private:
  EdgeUpdate Insert() {
    const VertexId n = spec_.num_vertices;
    while (true) {
      const VertexId u = static_cast<VertexId>(rng_.Below(n));
      VertexId v = static_cast<VertexId>(rng_.Below(n));
      if (!members_.empty() && rng_.Bernoulli(spec_.intra_fraction)) {
        const auto& group = members_[gg_.community[u]];
        v = group[rng_.Below(group.size())];
      }
      const Edge e{u, v, static_cast<Label>(labels_.Sample(rng_))};
      if (u == v || edges_.Contains(e)) continue;
      edges_.Insert(e);
      return {e.src, e.label, e.dst, EdgeOp::kInsert};
    }
  }

  EdgeUpdate Delete() {
    const Edge e = edges_.RemoveAt(rng_.Below(edges_.size()));
    return {e.src, e.label, e.dst, EdgeOp::kDelete};
  }

  const WorkloadSpec& spec_;
  const GeneratedGraph& gg_;
  Rng rng_;
  EdgeSet edges_;
  rlc::ZipfSampler labels_;
  std::vector<std::vector<VertexId>> members_;
};

}  // namespace

Stream MakeStream(const WorkloadSpec& spec, const GeneratedGraph& gg,
                  uint64_t seed, uint32_t rounds) {
  Stream st;
  Digest digest;
  ProbeGen cold_gen(spec, gg.graph, SubSeed(seed, 2));
  for (uint32_t i = 0; i < spec.cold_batches; ++i) {
    cold_gen.Reskew();
    st.cold.push_back(cold_gen.Next(digest));
  }
  ProbeGen gen(spec, gg.graph, SubSeed(seed, 3));
  for (uint32_t i = 0; i < spec.reads_per_round; ++i) {
    gen.Reskew();
    st.warmup.push_back(gen.Next(digest));
  }
  const uint32_t steady_batches = spec.pool_batches > 0
                                      ? spec.pool_batches
                                      : rounds * spec.reads_per_round;
  for (uint32_t i = 0; i < steady_batches; ++i) {
    gen.Reskew();
    st.steady.push_back(gen.Next(digest));
  }
  if (spec.updates_per_write > 0) {
    // The update trace belongs to the dataset, like the graph: every run
    // replays the same writes, so the index state they leave behind
    // (entries_vs_fresh) is identical across runs and seeds.
    WriteGen wgen(spec, gg, SubSeed(kGraphSeed, 4));
    for (uint32_t r = 0; r < rounds; ++r) st.writes.push_back(wgen.Next(digest));
    for (uint32_t r = 0; r < kTailWrites; ++r) {
      st.tail.push_back(wgen.Next(digest));
    }
  }
  st.digest = digest.value();
  return st;
}

}  // namespace perfbench

#include "rlc/serve/partitioner.h"

#include <algorithm>
#include <utility>

#include "rlc/util/common.h"

namespace rlc {

namespace {

/// splitmix64 finalizer over (vertex, seed): stateless, platform-portable,
/// and well mixed so hash sharding stays balanced on dense id ranges.
uint32_t HashShard(VertexId v, uint64_t seed, uint32_t num_shards) {
  uint64_t z = (static_cast<uint64_t>(v) + 0x9E3779B97F4A7C15ULL) ^ seed;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<uint32_t>(z % num_shards);
}

}  // namespace

GraphPartition GraphPartition::Build(const DiGraph& g,
                                     const PartitionerOptions& options) {
  RLC_REQUIRE(options.num_shards >= 1 && options.num_shards <= kMaxShards,
              "GraphPartition: num_shards " << options.num_shards
                  << " out of range [1," << kMaxShards << "]");
  GraphPartition p;
  p.options_ = options;

  const VertexId n = g.num_vertices();
  const uint32_t num_shards = options.num_shards;
  p.shard_of_.resize(n);
  p.local_of_.resize(n);
  p.is_boundary_.assign(n, 0);

  // Vertex assignment + dense local ids (ascending global order per shard).
  // kRangeOrdered ranges over the heuristic rank instead of the raw id, so
  // vertices the ordering places together share a shard.
  std::vector<VertexId> rank_of;
  if (options.policy == PartitionPolicy::kRangeOrdered) {
    rank_of = InvertOrder(ComputeVertexOrder(g, options.ordering,
                                             options.order_seed));
  }
  std::vector<std::vector<VertexId>> global_of(num_shards);
  const VertexId block = n == 0 ? 1 : (n + num_shards - 1) / num_shards;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t s = 0;
    switch (options.policy) {
      case PartitionPolicy::kHash:
        s = HashShard(v, options.hash_seed, num_shards);
        break;
      case PartitionPolicy::kRange:
        s = v / block;
        break;
      case PartitionPolicy::kRangeOrdered:
        s = rank_of[v] / block;
        break;
    }
    p.shard_of_[v] = s;
    p.local_of_[v] = static_cast<VertexId>(global_of[s].size());
    global_of[s].push_back(v);
  }

  // Edge split: intra edges feed the shard subgraphs, cross edges the
  // skeleton.
  std::vector<std::vector<Edge>> shard_edges(num_shards);
  p.cross_out_.assign(n, {});
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t sv = p.shard_of_[v];
    for (const LabeledNeighbor& nb : g.OutEdges(v)) {
      const uint32_t sw = p.shard_of_[nb.v];
      if (sv == sw) {
        shard_edges[sv].push_back({p.local_of_[v], p.local_of_[nb.v], nb.label});
      } else {
        p.cross_edges_.push_back({v, nb.v, nb.label});
        p.cross_out_[v].push_back(nb);
        p.is_boundary_[v] = 1;
        p.is_boundary_[nb.v] = 1;
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) p.num_boundary_ += p.is_boundary_[v];

  // Materialize the shards. The subgraphs keep parallel edges exactly as
  // the parent graph holds them (the parent already deduplicated if asked
  // to), so each shard is precisely the induced intra-shard multigraph.
  p.shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardInfo info;
    info.graph = DiGraph(static_cast<VertexId>(global_of[s].size()),
                         std::move(shard_edges[s]), g.num_labels(),
                         /*dedup_parallel=*/false);
    info.global_of = std::move(global_of[s]);
    for (VertexId local = 0; local < info.graph.num_vertices(); ++local) {
      if (p.is_boundary_[info.global_of[local]]) info.boundary.push_back(local);
    }
    p.shards_.push_back(std::move(info));
  }
  return p;
}

void GraphPartition::AddCrossEdge(VertexId global_src, Label label,
                                  VertexId global_dst) {
  RLC_REQUIRE(shard_of_[global_src] != shard_of_[global_dst],
              "GraphPartition::AddCrossEdge: endpoints share shard "
                  << shard_of_[global_src]);
  cross_edges_.push_back({global_src, global_dst, label});
  cross_out_[global_src].push_back({global_dst, label});
  const auto flag_boundary = [&](VertexId global) {
    if (is_boundary_[global]) return;
    is_boundary_[global] = 1;
    ++num_boundary_;
    ShardInfo& shard = shards_[shard_of_[global]];
    const VertexId local = local_of_[global];
    shard.boundary.insert(
        std::lower_bound(shard.boundary.begin(), shard.boundary.end(), local),
        local);
  };
  flag_boundary(global_src);
  flag_boundary(global_dst);
}

void GraphPartition::RemoveCrossEdge(VertexId global_src, Label label,
                                     VertexId global_dst) {
  RLC_REQUIRE(shard_of_[global_src] != shard_of_[global_dst],
              "GraphPartition::RemoveCrossEdge: endpoints share shard "
                  << shard_of_[global_src]);
  const auto tail = std::remove_if(
      cross_edges_.begin(), cross_edges_.end(), [&](const Edge& e) {
        return e.src == global_src && e.dst == global_dst && e.label == label;
      });
  RLC_REQUIRE(tail != cross_edges_.end(),
              "GraphPartition::RemoveCrossEdge: no registered cross edge "
                  << global_src << " -" << label << "-> " << global_dst);
  cross_edges_.erase(tail, cross_edges_.end());
  RebuildBoundary();
}

void GraphPartition::RebuildBoundary() {
  std::fill(is_boundary_.begin(), is_boundary_.end(), uint8_t{0});
  num_boundary_ = 0;
  for (ShardInfo& shard : shards_) shard.boundary.clear();
  cross_out_.assign(is_boundary_.size(), {});
  for (const Edge& e : cross_edges_) {
    is_boundary_[e.src] = 1;
    is_boundary_[e.dst] = 1;
    cross_out_[e.src].push_back({e.dst, e.label});
  }
  // Boundary lists rebuilt in ascending global id, which is ascending local
  // id per shard — the same order Build produces.
  for (VertexId v = 0; v < is_boundary_.size(); ++v) {
    if (!is_boundary_[v]) continue;
    ++num_boundary_;
    shards_[shard_of_[v]].boundary.push_back(local_of_[v]);
  }
}

uint64_t GraphPartition::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const ShardInfo& s : shards_) {
    bytes += s.graph.MemoryBytes();
    bytes += s.global_of.capacity() * sizeof(VertexId);
    bytes += s.boundary.capacity() * sizeof(VertexId);
  }
  bytes += shard_of_.capacity() * sizeof(uint32_t);
  bytes += local_of_.capacity() * sizeof(VertexId);
  bytes += cross_edges_.capacity() * sizeof(Edge);
  for (const auto& adj : cross_out_) {
    bytes += adj.capacity() * sizeof(LabeledNeighbor);
  }
  bytes += cross_out_.capacity() * sizeof(std::vector<LabeledNeighbor>);
  bytes += is_boundary_.capacity();
  return bytes;
}

}  // namespace rlc

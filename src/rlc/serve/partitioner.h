// Graph partitioning for the sharded serving subsystem.
//
// A GraphPartition splits one DiGraph into vertex-disjoint shards. Each
// shard keeps its intra-shard subgraph, re-labeled with dense local vertex
// ids, so a full per-shard RlcIndex can be built on it; edges whose
// endpoints land in different shards become *cross edges*, which are not
// indexed: they form the boundary skeleton that cross-shard composition
// hops over (compose.h):
//
//  * boundary vertices — endpoints of cross edges — are flagged globally
//    and listed per shard;
//  * each vertex's outgoing cross edges form its skeleton adjacency.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rlc/graph/digraph.h"
#include "rlc/serve/vertex_order.h"

namespace rlc {

/// How vertices are assigned to shards.
enum class PartitionPolicy {
  kHash,   ///< splitmix64(v, seed) % num_shards — stateless and balanced
  kRange,  ///< v / ceil(n / num_shards) — contiguous id blocks, locality-
           ///< friendly when vertex ids correlate with communities
  kRangeOrdered,  ///< rank(v) / ceil(n / num_shards) under a locality
                  ///< heuristic (vertex_order.h) — recovers community
                  ///< locality when raw ids carry none
};

struct PartitionerOptions {
  uint32_t num_shards = 4;  ///< in [1, kMaxShards]
  PartitionPolicy policy = PartitionPolicy::kHash;
  uint64_t hash_seed = 0x51A2DED5ULL;  ///< salt for PartitionPolicy::kHash
  /// Ordering heuristic for PartitionPolicy::kRangeOrdered (ignored
  /// otherwise). GreatestConstraintFirst is the community agglomerator;
  /// kDegree/kReverseDegree shard by hubness.
  OrderHeuristic ordering = OrderHeuristic::kGreatestConstraintFirst;
  uint64_t order_seed = 0;  ///< tie-break seed for the ordering
};

/// One shard: its local-id subgraph and its boundary vertices.
struct ShardInfo {
  DiGraph graph;                    ///< intra-shard edges, local vertex ids
  std::vector<VertexId> global_of;  ///< local id -> global id (ascending)
  std::vector<VertexId> boundary;   ///< local ids of boundary vertices, sorted
};

/// A full partition of one graph: shard subgraphs, the global<->local vertex
/// id maps, and the cross-edge skeleton. Build once; only AddCrossEdge and
/// RemoveCrossEdge change it afterwards.
class GraphPartition {
 public:
  /// More shards than this is a configuration error: every shard owns a
  /// sealed index, a breaker and per-constraint composition plans, and
  /// every batch and plan refresh walks all of them.
  static constexpr uint32_t kMaxShards = 4096;

  /// An empty zero-shard partition; assign Build()'s result over it.
  GraphPartition() = default;

  /// Partitions `g` according to `options`.
  /// \throws std::invalid_argument when num_shards is outside [1, kMaxShards].
  static GraphPartition Build(const DiGraph& g, const PartitionerOptions& options);

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const PartitionerOptions& options() const { return options_; }

  const ShardInfo& shard(uint32_t s) const { return shards_[s]; }

  /// Shard and local id of a global vertex (no range validation).
  uint32_t ShardOf(VertexId global) const { return shard_of_[global]; }
  VertexId LocalOf(VertexId global) const { return local_of_[global]; }
  VertexId GlobalOf(uint32_t s, VertexId local) const {
    return shards_[s].global_of[local];
  }

  /// Cross-shard edges in global vertex ids: build-time edges in
  /// source-vertex order, edges registered later (AddCrossEdge) appended.
  const std::vector<Edge>& cross_edges() const { return cross_edges_; }

  /// Registers a newly inserted cross-shard edge (serving-layer updates):
  /// refreshes the boundary flags/lists and the skeleton adjacency, exactly
  /// as if the edge had been present at Build time.
  /// \throws std::invalid_argument when both endpoints share a shard.
  void AddCrossEdge(VertexId global_src, Label label, VertexId global_dst);

  /// Unregisters a deleted cross-shard edge (all parallel copies of the
  /// exact triple) and recomputes the boundary flags/lists and the
  /// skeleton adjacency from the remaining cross edges: an endpoint stays a
  /// boundary vertex only while another cross edge touches it.
  /// \throws std::invalid_argument when both endpoints share a shard or no
  ///         such cross edge is registered.
  void RemoveCrossEdge(VertexId global_src, Label label, VertexId global_dst);

  /// True when `global` has at least one incident cross-shard edge.
  bool IsBoundary(VertexId global) const { return is_boundary_[global] != 0; }
  uint64_t num_boundary_vertices() const { return num_boundary_; }

  /// Outgoing cross-shard edges of a global vertex (neighbor ids are
  /// global). Empty for interior vertices. This is the skeleton adjacency
  /// the composition engine hops over (compose.h).
  std::span<const LabeledNeighbor> CrossOutEdges(VertexId global) const {
    return cross_out_[global];
  }

  /// Heap footprint of the shard subgraphs, id maps and skeleton in bytes.
  uint64_t MemoryBytes() const;

 private:
  /// Recomputes the boundary flags/lists and the skeleton adjacency from
  /// cross_edges_ — the shrink path of RemoveCrossEdge.
  void RebuildBoundary();

  PartitionerOptions options_;
  std::vector<ShardInfo> shards_;
  std::vector<uint32_t> shard_of_;   // global vertex -> shard
  std::vector<VertexId> local_of_;   // global vertex -> local id in its shard
  std::vector<Edge> cross_edges_;    // global ids
  // Per-vertex outgoing cross-edge adjacency (global neighbor ids), the
  // forward skeleton view of cross_edges_.
  std::vector<std::vector<LabeledNeighbor>> cross_out_;
  std::vector<uint8_t> is_boundary_; // global vertex -> 0/1
  uint64_t num_boundary_ = 0;
};

}  // namespace rlc

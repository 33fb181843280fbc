// Workload definitions and seeded input generation for the serving
// benchmark. Everything a run feeds the service — the graph, every probe
// batch and every update batch — is generated here from the workload seed
// before any timer starts; the service only ever sees these inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rlc/core/dynamic_index.h"
#include "rlc/graph/digraph.h"
#include "rlc/serve/partitioner.h"
#include "rlc/serve/query_batch.h"

namespace perfbench {

/// One workload: graph shape, service configuration, traffic mix and how
/// much fixed work a run does. See README.md for why each one exists.
struct WorkloadSpec {
  std::string_view name;
  // Graph: Erdős–Rényi when communities == 0, planted partition otherwise.
  rlc::VertexId num_vertices;
  uint64_t num_edges;
  uint32_t communities;
  double intra_fraction;
  // Service.
  uint32_t shards;
  rlc::PartitionPolicy policy;
  bool durable;
  // Traffic: every round is `reads_per_round` read batches of
  // `batch_probes` distinct probes, then (churn only) one write batch.
  uint32_t batch_probes;
  double walk_share;   ///< share of walk-derived (true by construction) probes
  double source_zipf;  ///< Zipf exponent of the source draw; 0 = uniform
  uint32_t reads_per_round;
  uint32_t updates_per_write;  ///< 0 = read-only; > 0 = churn
  // Fixed work per run: every replay runs set-up, the cold pass, one
  // warm-up round and the steady rounds of the same stream on a fresh
  // service; --seconds sets how many replays a run makes.
  uint32_t cold_batches;  ///< batches of the cold pass
  uint32_t rounds;        ///< steady rounds
  double replays_per_second;  ///< replays per second of --seconds
  uint32_t pool_batches;  ///< > 0: read batches come from a fixed pool
};

inline constexpr rlc::Label kNumLabels = 8;
inline constexpr double kLabelZipf = 2.0;
inline constexpr uint32_t kBoundK = 2;

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Replays a run of `seconds` makes (at least 3): fixed by the arguments,
/// never by how fast the host happens to be.
uint32_t Replays(const WorkloadSpec& spec, uint32_t seconds);

/// Independent random streams derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

struct GeneratedGraph {
  rlc::DiGraph graph;
  std::vector<uint32_t> community;  ///< empty for Erdős–Rényi graphs
};

/// The graph (and, for churn, the update trace) is the workload's fixed
/// dataset: it comes from kGraphSeed, not from the run seed, so every run
/// of a workload serves the same graph and replays the same writes, and the
/// run seed varies the read traffic (probes and hot sources). Index size
/// and set-up work are then the same on every run.
inline constexpr uint64_t kGraphSeed = 1;

GeneratedGraph MakeGraph(const WorkloadSpec& spec);

/// A read batch plus what the generator knows about it.
struct ReadBatch {
  rlc::QueryBatch batch;
  uint32_t repeated_sources = 0;  ///< probes whose source already appeared
                                  ///< earlier in the same batch
};

/// One write batch: inserts of absent edges and deletes of present ones.
using WriteBatch = std::vector<rlc::EdgeUpdate>;

/// The whole input stream of one run.
struct Stream {
  std::vector<ReadBatch> cold;    ///< cold pass (replayed on each fresh service)
  std::vector<ReadBatch> warmup;  ///< one unmeasured round before the steady phase
  /// Steady read batches. With a pool, round r reads batches
  /// (r * reads_per_round + i) % pool size; otherwise they are consecutive.
  std::vector<ReadBatch> steady;
  std::vector<WriteBatch> writes;  ///< one per steady round (churn)
  std::vector<WriteBatch> tail;    ///< writes after the checkpoint (churn)
  uint64_t digest = 0;             ///< FNV-1a over every generated input
};

Stream MakeStream(const WorkloadSpec& spec, const GeneratedGraph& gg,
                  uint64_t seed, uint32_t rounds);

/// Number of write batches replayed after the checkpoint (churn).
inline constexpr uint32_t kTailWrites = 2;

}  // namespace perfbench

// The sharded serving layer: one sealed RLC index per shard behind a
// batched-query router — no whole-graph structure anywhere.
//
// A ShardedRlcService partitions its graph (partitioner.h), builds one
// sealed per-shard RlcIndex — shard builds run in parallel on the shared
// worker pool — and routes probes in three exact steps:
//
//  1. intra-shard probe: when s and t land in the same shard, the shard
//     index is probed first. The shard graph is a subgraph of G, so a hit
//     is definitive; a miss is not (the witness path may detour through
//     another shard) and continues with step 2.
//  2. boundary refutation: a path that crosses shards must leave the
//     source shard over a cross edge labeled with a label of L, enter the
//     target shard the same way, and induce a walk in the shard quotient
//     graph. Each is a necessary condition, so a failed check answers
//     exactly false from the boundary summary alone.
//  3. composition: the remaining probes are answered by composing
//     source-shard suffix -> boundary-skeleton hops -> target-shard prefix
//     over the partition's cross-edge skeleton, with per-(shard,
//     constraint) boundary transition tables as the intra-shard closure
//     oracle (compose.h). There is no whole-graph fallback tier: the
//     aggregate index footprint is the sum of the shard indexes, and
//     composed answers are exact by construction.
//
// All three steps preserve exactness: answers are bit-identical to a
// whole-graph RlcIndex for every probe (tests/serving_test.cc,
// tests/composition_test.cc sweep policies x shard counts).
//
// The batched entry point (Execute) additionally resolves each distinct
// constraint once, counting-sorts the same-shard probes into one flat
// (shard, MR)-grouped layout, runs each group over the sealed CSR layout
// with lookahead prefetch (query_batch.h), routes the rest in submission
// order, and fans the surviving composed probes out across the execution
// pool (the composition engine's probe path is const; lazily built
// transition rows publish via acquire/release). Every job writes the
// answers of its own probes in place.
//
// The service also accepts live edge inserts and deletes (ApplyUpdates):
// intra-shard edges go to the owning shard's dynamically maintained index
// (dynamic_index.h), cross-shard edges refresh the boundary summary —
// AddCrossEdge grows it in place, RemoveCrossEdge shrinks it by a
// recompute — and the composition engine is told which shards' transition
// tables went stale (they refresh lazily on the next probe that needs
// them), so answers stay exact on the mutated graph. Each shard index
// reseals independently under ServiceOptions::reseal, inline inside the
// ApplyUpdates call whose mutation crossed the threshold, so two services
// fed the same updates hold the same bytes. Reseals do not invalidate
// composition state (the tables are a function of the graph, not the
// index).
//
// When a shard's breaker is open (or its probe faults), same-shard probes
// cannot trust the shard index — and no whole-graph index exists to detour
// to. They are answered exactly anyway, index-free: an intra-shard product
// BFS over the live mutated shard graph, OR-ed with the composed
// cross-shard answer (compose.h evaluates both on the graph, not on any
// index). Degraded probes cost more, but degrade capacity, not
// correctness.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "rlc/core/durable_index.h"
#include "rlc/core/dynamic_index.h"
#include "rlc/core/indexer.h"
#include "rlc/core/rlc_index.h"
#include "rlc/obs/metrics.h"
#include "rlc/serve/circuit_breaker.h"
#include "rlc/serve/compose.h"
#include "rlc/serve/partitioner.h"
#include "rlc/serve/query_batch.h"
#include "rlc/serve/serving_status.h"
#include "rlc/util/thread_pool.h"

namespace rlc {

struct ServiceOptions {
  PartitionerOptions partition;
  /// Per-shard build configuration. k bounds every constraint the service
  /// accepts; num_threads/seal are overridden (shards build sequentially
  /// inside the service's own pool and are always sealed).
  IndexerOptions indexer;
  /// Worker pool size for parallel shard builds; 0 = all hardware threads.
  uint32_t build_threads = 0;
  /// Worker pool size for batched query execution (Execute): the (shard,
  /// MR) probe groups and the composed-probe chunks fan out across a pool
  /// kept alive for the service's lifetime. Kernel jobs answer disjoint
  /// spans of one flat per-batch array; compose jobs write their probes'
  /// answers and statuses straight into the result. 1 = execute on the
  /// caller's thread (default); 0 = all hardware threads. Answers and
  /// stats are identical for every value.
  uint32_t exec_threads = 1;
  /// Split probe groups larger than this into multiple jobs so a batch
  /// dominated by one (shard, MR) group still spreads across the pool.
  size_t exec_probes_per_job = 8192;
  /// Cross-shard composition tuning (transition-table budget, plan cache).
  ComposeOptions compose;
  /// Reseal policy for the dynamically maintained shard indexes (only
  /// relevant once ApplyUpdates has been called). A shard that crosses it
  /// reseals inline, on the thread calling ApplyUpdates.
  ResealPolicy reseal;
  /// Crash-safe durability (durable_index.h). With `durability.dir` set the
  /// service logs every ApplyUpdates batch to a WAL before applying it and
  /// checkpoints generation-numbered snapshot directories:
  ///   <dir>/MANIFEST, <dir>/wal-<G>.log,
  ///   <dir>/gen-<G>/{service.snap, shard-<i>.snap}
  /// When the directory already holds a durable state, the constructor
  /// recovers it — per-shard snapshots load in parallel on the build pool,
  /// skipping every index build — and replays the WAL tail. Composition
  /// transition tables are not persisted: they rebuild lazily, as in a
  /// fresh service. Empty dir (default) disables durability.
  DurabilityOptions durability;
  /// Default per-batch execution budget for Execute(batch) in nanoseconds
  /// (0 = none); overridable per call via ExecuteLimits. When the budget
  /// expires mid-batch, jobs that have not started are skipped and their
  /// probes return ProbeStatus::kDeadlineExceeded; completed probes keep
  /// their exact answers.
  uint64_t batch_budget_ns = 0;
  /// Default per-probe budget for composed probes in nanoseconds (0 =
  /// none). The budget is enforced *inside* the composition traversal
  /// (deadline-checked every CompositionEngine::kDeadlineCheckStride pops),
  /// so a pathological skeleton walk overruns by at most one stride: the
  /// probe aborts without an answer (it reports
  /// ProbeStatus::kDeadlineExceeded, and Query throws UnavailableError),
  /// counts a serve.compose.budget_overruns + serve.deadline_exceeded, and
  /// fails the compose breaker (once per batch; a Query is a one-probe
  /// batch). A probe that finishes just past its budget keeps its exact
  /// answer and still counts the overrun. Query always runs under this
  /// budget; Execute(batch) uses it unless ExecuteLimits overrides it.
  uint64_t probe_budget_ns = 0;
  /// Admission control: Execute rejects batches with more probes than this
  /// before running anything (0 = unlimited).
  size_t max_batch_probes = 0;
  /// Admission control: Execute sheds new batches while the process-global
  /// kernel-job queue ("serve.exec.queue_depth" gauge) is at or above this
  /// many pending jobs — the high-water mark that trades a fast typed
  /// rejection for a latency collapse. 0 disables.
  int64_t max_pending_jobs = 0;
  /// Circuit-breaker tuning shared by every per-shard breaker and the
  /// compose breaker (each slot gets its own seed offset for jitter).
  BreakerOptions breaker;
};

/// Per-call overrides for ShardedRlcService::Execute. The zero-argument
/// Execute overload fills these from ServiceOptions.
struct ExecuteLimits {
  uint64_t batch_budget_ns = 0;  ///< 0 = no batch deadline
  uint64_t probe_budget_ns = 0;  ///< 0 = no per-probe compose budget
  /// When admission control rejects the batch: false (default) throws
  /// OverloadedError; true returns an AnswerBatch with every status
  /// ProbeStatus::kShedded instead — for callers that must keep their
  /// submission loop alive under overload.
  bool shed_as_status = false;
};

/// Cumulative query-routing and build telemetry — a point-in-time
/// materialization of the service's metrics registry (stats() reads the
/// atomic counters; the struct itself holds plain values). Exact once the
/// service is quiescent; jobs running on the execution pool update the
/// underlying counters atomically.
///
/// Fault-free invariant: queries == intra_true + cross_refuted +
/// compose_probes (every probe ends in exactly one of the three tiers;
/// degraded probes are composed probes).
struct ServiceStats {
  uint64_t queries = 0;          ///< probes admitted by Execute (a Query
                                 ///< call is one probe)
  uint64_t intra_true = 0;       ///< answered true by a shard index alone
  uint64_t intra_miss = 0;       ///< same-shard probes the shard index missed
  uint64_t cross_refuted = 0;    ///< answered false by the boundary summary
  uint64_t compose_probes = 0;   ///< answered by cross-shard composition
                                 ///< (degraded index-free probes included)
  uint64_t compose_skeleton_hops = 0;  ///< boundary product states popped
  uint64_t compose_table_builds = 0;   ///< row-build traversals (one DFS
                                       ///< per missing row fetched; it
                                       ///< publishes every row it finishes)
  uint64_t compose_invalidations = 0;  ///< stale shard plans refreshed after
                                       ///< mutations
  uint64_t compose_expanded = 0;       ///< product states expanded on the fly
  // Always 0. They stay until the benchmark change that drops perfbench's
  // reads of them (ROADMAP item 6).
  uint64_t frontier_hits = 0;
  uint64_t frontier_misses = 0;
  uint64_t frontier_evictions = 0;
  uint64_t compose_budget_boosts = 0;
  uint64_t batches = 0;          ///< Execute calls admitted (a Query call
                                 ///< is a one-probe batch)
  uint64_t batch_groups = 0;     ///< (shard, MR) groups executed
  uint64_t seq_cache_flushes = 0;    ///< constraint-memo capacity flushes
  uint64_t seq_cache_evictions = 0;  ///< memo entries dropped by flushes
  uint64_t updates_applied = 0;      ///< mutations that changed the graph
  uint64_t updates_deleted = 0;      ///< applied updates that were deletes
  uint64_t updates_duplicate = 0;    ///< no-op updates (insert of a present
                                     ///< edge, delete of an absent one)
  uint64_t updates_cross = 0;        ///< applied mutations of cross edges
  uint64_t shed = 0;                 ///< probes rejected by admission control
  uint64_t deadline_exceeded = 0;    ///< probes past their batch deadline
  uint64_t breaker_opened = 0;       ///< breaker transitions into kOpen
  uint64_t breaker_reclosed = 0;     ///< half-open -> closed recoveries
  uint64_t breaker_trials = 0;       ///< half-open trial admissions
  uint64_t breaker_degraded = 0;     ///< probes answered index-free because
                                     ///< their shard was broken (answers
                                     ///< still exact)
  uint64_t breaker_fail_fast = 0;    ///< probes refused: compose breaker open
  uint64_t compose_overruns = 0;     ///< composed probes over probe_budget_ns
  uint64_t shard_revives = 0;        ///< ReviveShard calls that completed
  double partition_seconds = 0.0;
  double index_build_seconds = 0.0;  ///< shard index builds
};

/// A serving instance bound to one graph. `g` must outlive the service.
/// Queries mutate internal memo tables and counters, so a service instance
/// is not thread-safe; run one instance per serving thread (they share the
/// immutable graph).
class ShardedRlcService {
 public:
  ShardedRlcService(const DiGraph& g, ServiceOptions options);

  /// Answers the RLC query (s, t, L+) as a one-probe Execute with no batch
  /// budget and ServiceOptions::probe_budget_ns as the probe budget, so it
  /// passes the same admission control, breakers, failpoints and counters
  /// as every batched probe (and counts as one batch). Exact: equal to a
  /// whole-graph RlcIndex::Query for every input — including when the
  /// owning shard's breaker is open or the shard probe faults, in which
  /// case the probe is answered index-free (intra product BFS OR
  /// composition).
  /// \throws std::invalid_argument on out-of-range vertices or an invalid
  ///         constraint (empty, longer than k, or non-primitive);
  ///         OverloadedError when admission control sheds it;
  ///         UnavailableError, naming the status, when the probe's status
  ///         is not kOk (kShardUnavailable: the compose breaker is open or
  ///         the composed probe faulted; kDeadlineExceeded: the composed
  ///         probe ran out of probe_budget_ns).
  bool Query(VertexId s, VertexId t, const LabelSeq& constraint);

  /// Answers every probe of `batch` (see class comment). On the fault-free
  /// path answers are identical to a whole-graph RlcIndex::Query per
  /// probe, in submission order, and every status is kOk. Under faults or
  /// deadlines, each probe with statuses[i] == kOk still carries the exact
  /// answer; other probes report why they have none (see ProbeStatus).
  /// \throws std::invalid_argument like Query, plus on out-of-range
  ///         seq_ids; OverloadedError when admission control sheds the
  ///         batch (unless limits.shed_as_status).
  AnswerBatch Execute(const QueryBatch& batch);
  AnswerBatch Execute(const QueryBatch& batch, const ExecuteLimits& limits);

  /// Applies a batch of edge mutations in order (see class comment).
  /// Inserts of edges already present and deletes of absent edges are exact
  /// no-ops. Returns how many updates changed the graph. Subsequent queries
  /// answer exactly on the mutated graph.
  /// \throws std::invalid_argument on out-of-range vertices or labels
  ///         outside the base graph's alphabet (the whole batch is rejected
  ///         before anything is applied).
  size_t ApplyUpdates(std::span<const EdgeUpdate> updates);

  /// No-op. Shard reseals run inline inside ApplyUpdates, so none is ever
  /// in flight; kept because perfbench/src/phases.cc calls it.
  void FinishReseals() {}

  /// Re-adopts one shard after its breaker tripped: in durable mode the
  /// shard index reloads from the newest snapshot generation and replays
  /// the intra-shard WAL tail (DurableStore::ReplayWal, scoped to one shard);
  /// otherwise it rebuilds from the partition's shard graph and re-applies
  /// the live mutation overlay. Either way the fresh index answers exactly
  /// on the current mutated graph, the constraint memo flushes (its MR ids
  /// pointed into the old index), and the shard's breaker force-closes.
  /// The composition engine needs no refresh — its state is a function of
  /// the graph, which a revive does not change.
  /// \throws std::runtime_error when both the durable reload and the
  ///         rebuild fail; the old index then stays in place.
  void ReviveShard(uint32_t shard);

  /// Durable mode only: checkpoints a new snapshot generation (per-shard
  /// and service meta snapshots, WAL switch, manifest commit, stale
  /// generation cleanup). Called automatically when the current WAL
  /// passes DurabilityOptions::checkpoint_wal_bytes. \throws
  /// std::runtime_error on I/O failure or an injected fault — the previous
  /// generation then stays the recovery target and the service remains
  /// usable; throws std::logic_error when durability is off.
  void Checkpoint();

  /// True when the service persists mutations (durability.dir was set).
  bool durable() const { return store_.has_value(); }
  /// LSN of the last acknowledged (logged) mutation batch; 0 before any.
  uint64_t last_lsn() const { return store_ ? store_->last_lsn() : 0; }
  /// Newest committed snapshot generation (durable mode).
  uint64_t generation() const { return store_ ? store_->generation() : 0; }
  /// What the constructor found on disk (durable mode).
  const RecoveryInfo& recovery_info() const {
    static const RecoveryInfo kNotDurable;
    return store_ ? store_->recovery_info() : kNotDurable;
  }

  uint32_t k() const { return options_.indexer.k; }
  const GraphPartition& partition() const { return partition_; }
  const RlcIndex& shard_index(uint32_t s) const {
    return shard_dyn_[s]->index();
  }
  const DynamicRlcIndex& shard_dynamic(uint32_t s) const {
    return *shard_dyn_[s];
  }
  /// The cross-shard composition engine (compose.h).
  const CompositionEngine& composition() const { return *compose_; }
  /// Materializes the routing/build counters (thin shim over the metrics
  /// registry; see ServiceStats).
  ServiceStats stats() const;

  /// The per-instance metrics registry: every ServiceStats counter under
  /// "serve.*", per-shard composition counters ("serve.compose.shard.<i>"),
  /// and the per-stage latency histograms ("serve.stage.*_ns", recorded
  /// only while obs::Enabled()). Snapshot() it for percentiles/export.
  const obs::Registry& metrics() const { return metrics_; }

  /// Composed probes attributed to each source shard — the per-shard
  /// composition share of the routing pathology BENCH_serving tracks.
  /// Counted where serve.compose.probes is (after the compose breaker
  /// admits the probes), so the entries sum to stats().compose_probes.
  std::vector<uint64_t> ShardComposeCounts() const;

  /// Current circuit-breaker states (exported live through the
  /// "serve.breaker.state.<i>" / ".compose" gauges: 0 closed, 1 open,
  /// 2 half-open).
  BreakerState shard_breaker_state(uint32_t shard) const {
    return shard_breakers_[shard].breaker.state();
  }
  BreakerState compose_breaker_state() const {
    return compose_breaker_.breaker.state();
  }

  /// Heap footprint: partition + shard indexes + composition state.
  uint64_t MemoryBytes() const;

 private:
  /// Bound on memoized constraint templates: Execute flushes the memo
  /// before a batch would overflow it, so template churn cannot grow the
  /// process without limit.
  static constexpr size_t kMaxCachedSequences = 1 << 16;

  /// Per distinct constraint: every shard's MR id. Resolved and validated
  /// once, memoized while cached (MR tables are frozen after build, so a
  /// flush is only a re-resolution cost).
  struct SeqEntry {
    std::vector<MrId> shard_mr;
  };

  const SeqEntry& Resolve(const LabelSeq& seq);

  /// True when the boundary summary proves no cross-shard witness path can
  /// exist for a probe from shard `ss` to shard `st`.
  bool RefutedByBoundary(uint32_t ss, uint32_t st,
                         const LabelSeq& seq) const {
    return !partition_.QuotientReaches(ss, st) ||
           !partition_.shard(ss).out_cross_labels.MayContainAny(seq.labels()) ||
           !partition_.shard(st).in_cross_labels.MayContainAny(seq.labels());
  }

  /// One breaker plus its exported state gauge.
  struct BreakerSlot {
    CircuitBreaker breaker;
    obs::Gauge* state_gauge = nullptr;
  };

  /// Allow() with a lazy clock (closed breakers never read it), trial
  /// counting, and the state gauge kept current.
  CircuitBreaker::Decision BreakerDecide(BreakerSlot& slot);
  /// OnFailure/OnSuccess with transition counters + gauge updates.
  void BreakerFail(BreakerSlot& slot);
  void BreakerOk(BreakerSlot& slot);

  /// True when the edge exists in the service's current mutated graph.
  bool EdgePresent(VertexId src, Label label, VertexId dst) const;

  /// The mutation routing of ApplyUpdates, without the durability wrapper.
  size_t ApplyUpdatesInternal(std::span<const EdgeUpdate> updates);

  /// Runs task(shard) for every shard on a build pool of
  /// ServiceOptions::build_threads.
  void ForEachShard(const std::function<void(uint32_t)>& task) const;

  /// Builds every shard index from scratch — the non-recovery constructor
  /// path.
  void BuildIndexes();

  /// Loads one generation directory (parallel per-shard snapshot loads)
  /// into the service and returns its applied_lsn, or throws. The caller
  /// resets partial state on failure.
  uint64_t LoadGeneration(const std::string& gdir);

  const DiGraph& g_;
  ServiceOptions options_;
  GraphPartition partition_;
  std::vector<std::unique_ptr<DynamicRlcIndex>> shard_dyn_;
  // Cross-shard composition over the boundary skeleton (created once the
  // shard indexes exist; reads partition_ and shard_dyn_ by reference).
  std::unique_ptr<CompositionEngine> compose_;
  // Traversal scratch for compose jobs run on the caller's thread (pool
  // workers carry their own).
  CompositionEngine::Scratch compose_scratch_;
  // Mutation bookkeeping: overlay inserts currently present (set + ordered
  // list for deterministic rebuilds) and base edges currently deleted.
  std::set<std::tuple<VertexId, Label, VertexId>> applied_set_;
  std::vector<EdgeUpdate> applied_inserts_;
  std::set<std::tuple<VertexId, Label, VertexId>> deleted_base_;
  // Batched-execution worker pool (null when exec_threads resolves to 1).
  // Only Execute uses it, and only between its fan-out barriers — the
  // service's single-caller contract is unchanged.
  std::unique_ptr<ThreadPool> exec_pool_;
  std::unordered_map<LabelSeq, SeqEntry, LabelSeqHash> seq_cache_;

  // Per-instance metrics. The registry owns every metric; the structs
  // below cache the references once so query/update paths never touch the
  // registry mutex. Counters are the source of truth behind stats().
  struct ServiceCounters {
    explicit ServiceCounters(obs::Registry& reg);
    obs::Counter& queries;
    obs::Counter& intra_true;
    obs::Counter& intra_miss;
    obs::Counter& cross_refuted;
    obs::Counter& compose_probes;        ///< serve.compose.probes
    obs::Counter& compose_skeleton_hops; ///< serve.compose.skeleton_hops
    obs::Counter& compose_cross_hops;    ///< serve.compose.cross_hops
    obs::Counter& compose_table_builds;  ///< serve.compose.table_builds
    obs::Counter& compose_row_states;    ///< serve.compose.row_states
    obs::Counter& compose_invalidations; ///< serve.compose.invalidations
    obs::Counter& compose_expanded;      ///< serve.compose.expanded
    obs::Counter& batches;
    obs::Counter& batch_groups;
    obs::Counter& seq_cache_flushes;
    obs::Counter& seq_cache_evictions;
    obs::Counter& updates_applied;
    obs::Counter& updates_deleted;
    obs::Counter& updates_duplicate;
    obs::Counter& updates_cross;
    obs::Counter& shed;                ///< serve.shed
    obs::Counter& deadline_exceeded;   ///< serve.deadline_exceeded
    obs::Counter& breaker_opened;      ///< serve.breaker.opened
    obs::Counter& breaker_reclosed;    ///< serve.breaker.reclosed
    obs::Counter& breaker_trials;      ///< serve.breaker.trials
    obs::Counter& breaker_degraded;    ///< serve.breaker.degraded_probes
    obs::Counter& breaker_fail_fast;   ///< serve.breaker.fail_fast
    obs::Counter& compose_overruns;    ///< serve.compose.budget_overruns
    obs::Counter& shard_revives;       ///< serve.breaker.revives
  };
  struct StageHistograms {
    explicit StageHistograms(obs::Registry& reg);
    obs::Histogram& execute_ns;        ///< whole Execute() call
    obs::Histogram& resolve_ns;        ///< constraint resolution + grouping
    obs::Histogram& shard_kernel_ns;   ///< per shard-phase kernel job
    obs::Histogram& route_ns;          ///< sequential routing pass
    obs::Histogram& compose_job_ns;    ///< per compose-phase job
    obs::Histogram& compose_probe_ns;  ///< per composed probe
    obs::Histogram& apply_updates_ns;
    obs::Histogram& checkpoint_ns;
  };
  obs::Registry metrics_;
  ServiceCounters c_{metrics_};
  StageHistograms h_{metrics_};
  std::vector<obs::Counter*> shard_compose_;  ///< serve.compose.shard.<i>
  // Fault-tolerance state: one breaker per shard plus one guarding the
  // composition engine (initialized in the constructor once the shard
  // count is known).
  std::vector<BreakerSlot> shard_breakers_;
  BreakerSlot compose_breaker_;
  double partition_seconds_ = 0.0;
  double index_build_seconds_ = 0.0;
  // The generation protocol over <dir>/gen-<G>/ (durable mode only).
  std::optional<DurableStore> store_;
};

}  // namespace rlc

// Cross-shard query composition over the boundary skeleton.
//
// The sharded service answers a cross-shard RLC probe (s, t, L+) without
// any whole-graph structure by composing three exact pieces over the
// *product graph* — states (v, p) where p ∈ [0, |L|) counts labels
// consumed modulo |L|, so a walk (s, 0) ⇝ (t, 0) of >= 1 edge spells
// exactly L^z for some z >= 1:
//
//   1. source-shard suffix: a forward product BFS from (s, 0) inside
//      shard(s) (base subgraph + live mutation overlay) finds every
//      product state with an outgoing cross edge carrying the label the
//      position demands — the skeleton seeds. Seeding with cross-edge
//      *successors* enforces the >= 1-cross-edge requirement, which keeps
//      composition disjoint from the shard-index intra tier: a purely
//      intra-shard witness is exactly the shard index's job.
//   2. skeleton hops: a BFS over boundary product states alternates
//      intra-shard closure with label-matched cross-edge hops. Closure
//      inside a shard comes from its per-(shard, constraint) boundary
//      transition table when the shard's boundary product graph fits the
//      table budget — row (b, p) is the bitset of boundary product states
//      (b', p') intra-reachable from (b, p), built lazily one product BFS
//      per touched row and reused across probes — or, over budget, from an
//      incremental per-probe product BFS whose visited set is shared by
//      every entry into that shard (monotone, so a probe expands each
//      shard's product graph at most once). Table hops dedup exits word-
//      parallel: the probe ORs every scanned row into a per-shard covered
//      set and emits cross hops only for the bits a row adds to it. An
//      entry whose own bit is already covered is skipped without reading
//      its row: the row that covered it starts at a state that intra-
//      reaches the entry, so it already holds the entry's whole row.
//   3. target-shard prefix: a reverse product BFS from (t, 0) inside
//      shard(t) precomputes the accept set A — every product state that
//      intra-reaches (t, 0). A skeleton entry into shard(t) answers true
//      iff it lands in A. Membership is intra-closed, so checking entries
//      on arrival is complete: an interior state of A reachable from an
//      entry puts the entry itself in A.
//
// Correctness does not depend on any shard index: every traversal walks
// the live mutated graph (shard subgraphs + DynamicRlcIndex overlays +
// the partition's cross-edge adjacency), so composed answers are exact on
// the mutated graph even while a shard's index is broken or resealing.
//
// Invalidation: transition tables are a function of one shard's intra
// product graph and its boundary list. The engine keeps a per-shard epoch,
// bumped by intra-shard mutations of that shard and by cross-edge changes
// incident to it (those can re-order boundary ordinals). PreparePlan
// replaces the whole plan of every stale shard — all of its rows are
// dropped and rebuilt lazily on next use; shards whose epoch did not move
// keep theirs. This happens per constraint, as each cached plan is next
// prepared. Reseals do not bump epochs (tables depend on the graph, not
// the index).
//
// Frontier cache: the phase-3 skeleton closure is a pure function of
// (constraint, skeleton seed set, graph) — the target only decides the
// early exit. Probes that share a seed set (100 probes fanning out of one
// source shard under one MR typically collapse to a handful of exit sets)
// therefore share one exhaustively-computed frontier: the set of every
// skeleton entry reachable from the seeds, grouped by shard. A hit
// replaces the whole skeleton BFS with a stamped-array scan of the
// frontier's target-shard slice against the accept set; answers are
// bit-identical with the cache on or off. Builds are single-flight (the
// first prober builds, contemporaries wait on the published entry), which
// keeps the skeleton-hop/expansion counter totals identical for every
// thread count. Entries are tagged with the engine's mutation epoch —
// OnIntraMutation/OnCrossMutation invalidate every cached frontier, since
// a frontier depends on the whole graph, not one shard.
//
// Adaptive table budgets: per-shard on-the-fly expansion volume and
// probe-budget overruns accumulate as heat; AdaptTableBudgets() (owner
// thread) boosts a hot shard's effective budget by hot_budget_multiplier
// so its transition tables materialize even when the boundary product
// graph exceeds the static budget, and releases the boost (dropping the
// tables on the next plan refresh) after cold_release_rounds quiet
// rounds. Budget changes never change answers — tables and on-the-fly
// expansion compute the same closure.
//
// Thread contract: PreparePlan, mutation notifications, AdaptTableBudgets
// and cache serialization are owner-thread-only. ComposedQuery and
// IntraProductReaches on a prepared plan are safe to fan out across a
// worker pool (per-call Scratch; lazy row construction is published with
// acquire/release atomics under a per-shard build mutex; the frontier
// cache is guarded by its own mutex + condition variable).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "rlc/core/dynamic_index.h"
#include "rlc/core/label_seq.h"
#include "rlc/serve/partitioner.h"
#include "rlc/serve/serving_status.h"

namespace rlc {

struct ComposeOptions {
  /// A shard's transition table is materialized only when its boundary
  /// product graph (|B_S| * |L|) has at most this many states; larger
  /// shards expand on the fly per probe. Bounds table memory at
  /// budget^2 bits per (shard, constraint). Hot shards get a boosted
  /// budget (see adaptive_tables).
  uint32_t table_budget_nodes = 2048;
  /// Plan-cache capacity (distinct constraints); the cache flushes when
  /// full, mirroring the service's constraint memo.
  size_t max_cached_plans = 1 << 12;
  /// Skeleton frontier cache capacity in entries (distinct (constraint,
  /// seed-set) keys, LRU-evicted, epoch-invalidated by mutations).
  /// 0 disables the cache; answers are identical either way.
  size_t frontier_cache_entries = 1024;
  /// Adaptive table budgets: boost hot shards past table_budget_nodes,
  /// release cold boosts. Off = the static budget for every shard.
  bool adaptive_tables = true;
  /// Effective budget of a boosted shard = table_budget_nodes * this.
  /// Values <= 1 disable adaptivity.
  uint32_t hot_budget_multiplier = 8;
  /// A shard is hot once it expanded at least this many product states on
  /// the fly since the last adapt round (0 = 4 * table_budget_nodes).
  /// Any probe-budget overrun attributed to the shard also marks it hot.
  uint64_t hot_expand_threshold = 0;
  /// A boosted shard whose tables went untouched for this many consecutive
  /// adapt rounds releases its boost (tables drop on the next refresh).
  uint32_t cold_release_rounds = 4;
  /// An adapt round only evaluates after at least this many composed
  /// probes, so scalar callers can invoke AdaptTableBudgets() per probe.
  uint64_t adapt_min_probes = 64;
};

/// Telemetry of one composed probe (the caller folds these into its
/// metrics registry; sums are independent of thread count).
struct ComposeResult {
  bool reachable = false;
  /// The deadline expired mid-traversal: `reachable` is meaningless, the
  /// probe carries no answer. Overrun is bounded by one deadline-check
  /// stride (kDeadlineCheckStride pops) or one table-row build.
  bool timed_out = false;
  bool frontier_hit = false;   ///< answered from a cached frontier
  bool frontier_miss = false;  ///< this call built + cached a frontier
  uint32_t skeleton_hops = 0;  ///< skeleton entries popped
  uint32_t expanded = 0;       ///< product states visited on the fly
  uint32_t table_rows_built = 0;  ///< transition rows built by this call
  uint32_t frontier_evictions = 0;  ///< cache entries this call dropped
                                    ///< (stale, replaced, or LRU capacity)
};

/// What one AdaptTableBudgets() round changed.
struct BudgetAdaptation {
  uint32_t boosts = 0;    ///< shards granted the boosted budget
  uint32_t releases = 0;  ///< boosted shards released back to static
};

class CompositionEngine {
 public:
  /// Deadline granularity: traversal loops read the clock once per this
  /// many pops/expansions, so deadline overrun inside a probe is bounded
  /// by one stride (plus at most one table-row build).
  static constexpr uint32_t kDeadlineCheckStride = 128;

  /// One boundary-transition row: bitset over the shard's boundary product
  /// states (ordinal * j + position).
  struct BoundaryRow {
    std::vector<uint64_t> bits;
  };

  /// Per-(shard, constraint) composition state. Rows build lazily and are
  /// published via atomics; everything else is immutable after
  /// PreparePlan installs the struct.
  struct ShardPlan {
    uint64_t epoch = 0;        ///< engine shard epoch at build time
    uint64_t budget_epoch = 0;  ///< shard budget epoch at build time
    bool tables = false;       ///< boundary product graph within budget
    uint32_t num_boundary = 0;
    /// local id -> boundary ordinal, -1 interior (tables only).
    std::vector<int32_t> boundary_ord;
    std::vector<std::atomic<const BoundaryRow*>> rows;  ///< |B| * j slots
    std::mutex build_mu;
    std::vector<std::unique_ptr<BoundaryRow>> owned;  ///< guarded by build_mu
    /// Row-build scratch, guarded by build_mu.
    std::vector<uint32_t> build_stamp;
    uint32_t build_counter = 0;
    std::vector<uint64_t> build_queue;
  };

  /// One constraint's composition plan.
  struct Plan {
    LabelSeq seq;
    uint32_t j = 0;  ///< |seq|
    std::vector<std::unique_ptr<ShardPlan>> shards;
  };

  /// Per-thread traversal scratch: stamped visited arrays over the global
  /// product space plus BFS queues. Reusable across probes and plans.
  struct Scratch {
    std::vector<uint32_t> fwd_stamp;   ///< source-shard forward BFS
    std::vector<uint32_t> acc_stamp;   ///< target-shard accept set A
    std::vector<uint32_t> exp_stamp;   ///< skeleton + on-the-fly expansion
    /// Per table shard: union of the rows this probe scanned, laid out
    /// like BoundaryRow::bits. Every covered exit already emitted its
    /// cross hops, and a popped entry whose own bit is covered needs no
    /// row of its own.
    std::vector<std::vector<uint64_t>> covered;
    /// Per shard: the probe stamp `covered` was last cleared for (cleared
    /// lazily, on the probe's first table hop into the shard).
    std::vector<uint32_t> covered_stamp;
    uint32_t stamp = 0;
    std::vector<uint64_t> fwd_queue;
    std::vector<uint64_t> acc_queue;
    std::vector<uint64_t> skel_queue;
    std::vector<uint64_t> exp_queue;
  };

  /// `partition` and `shards` must outlive the engine; `shards` is the
  /// service's per-shard dynamic-index vector (the engine reads shard
  /// graphs through the partition and mutation overlays through the
  /// dynamic indexes — never the sealed indexes themselves).
  CompositionEngine(const GraphPartition& partition,
                    const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards,
                    ComposeOptions options = {});

  /// Gets (building or refreshing stale shards as needed) the plan for
  /// `seq`. Owner thread only; the returned reference is stable until the
  /// cache flushes (max_cached_plans). When `invalidated` is non-null it
  /// receives how many stale shard plans this call rebuilt.
  const Plan& PreparePlan(const LabelSeq& seq, uint32_t* invalidated = nullptr);

  /// True iff a path s ⇝ t spelling seq^z (z >= 1) with >= 1 cross-shard
  /// edge exists on the current mutated graph. Thread-safe on a prepared
  /// plan (see class comment). A set `deadline` is enforced inside every
  /// traversal loop (stride kDeadlineCheckStride); on expiry the result
  /// has timed_out = true and carries no answer, only partial-work
  /// telemetry.
  ComposeResult ComposedQuery(VertexId s, VertexId t, const Plan& plan,
                              Scratch& scratch,
                              const Deadline& deadline = {}) const;

  /// True iff a purely intra-shard path s ⇝ t spelling seq^z (z >= 1)
  /// exists (s and t must share a shard) — the index-free exact intra
  /// answer for degraded probes whose shard index is unavailable. A set
  /// `deadline` is stride-checked; on expiry returns false and sets
  /// *timed_out (when given).
  bool IntraProductReaches(VertexId s, VertexId t, const LabelSeq& seq,
                           Scratch& scratch, const Deadline& deadline = {},
                           bool* timed_out = nullptr) const;

  /// Mutation notifications (owner thread): bump the affected shards'
  /// epochs so stale tables refresh on next PreparePlan, and the global
  /// mutation epoch so cached skeleton frontiers (functions of the whole
  /// graph) lazily invalidate.
  void OnIntraMutation(uint32_t shard) {
    ++epochs_[shard];
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnCrossMutation(uint32_t src_shard, uint32_t dst_shard) {
    ++epochs_[src_shard];
    if (dst_shard != src_shard) ++epochs_[dst_shard];
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Drops every cached plan and cached frontier (recovery / wholesale
  /// rebuild). Returns how many cached frontiers were dropped so the
  /// caller can fold them into its eviction counter.
  size_t InvalidateAll();

  /// One budget-adaptation round (owner thread, between batches): drains
  /// the per-shard heat gathered since the last round, boosts hot shards'
  /// effective table budgets and releases cold boosts. No-op until
  /// adapt_min_probes composed probes ran, unless `force_round`.
  BudgetAdaptation AdaptTableBudgets(bool force_round = false);

  /// Current effective table budget of `shard` (owner thread; gauge
  /// export and tests).
  uint32_t EffectiveTableBudget(uint32_t shard) const {
    return effective_budget_[shard];
  }
  bool ShardBoosted(uint32_t shard) const {
    return effective_budget_[shard] != options_.table_budget_nodes;
  }

  /// Attributes one probe-budget overrun to `shard` (thread-safe) —
  /// overrun evidence marks the shard hot for the next adapt round.
  void NoteShardOverrun(uint32_t shard) {
    if (shard < overrun_heat_.size())
      overrun_heat_[shard].fetch_add(1, std::memory_order_relaxed);
  }

  /// Serializes the built transition rows (warm-cache checkpoint payload;
  /// index_io.h frames it into a file). Deterministic for a fixed cache
  /// state. Owner thread only.
  std::vector<uint8_t> SerializeCache() const;

  /// Restores a SerializeCache payload. Returns false (leaving the cache
  /// cold but the engine fully usable) when the payload does not match
  /// the current partition shape. Owner thread only, before any
  /// concurrent queries.
  bool RestoreCache(std::span<const uint8_t> bytes);

  const ComposeOptions& options() const { return options_; }
  size_t num_cached_plans() const { return plans_.size(); }
  /// Installed (fully built) frontier-cache entries right now.
  size_t num_cached_frontiers() const;

  /// Heap footprint of the plan cache (tables, ordinal maps) and the
  /// frontier cache in bytes.
  uint64_t MemoryBytes() const;

 private:
  /// Cache key of one skeleton frontier: the constraint plus the sorted,
  /// deduplicated skeleton seed set (global product-state ids). The seed
  /// set already encodes the source shard and entry states, so probes
  /// from different sources that induce the same seeds legitimately
  /// share a frontier.
  struct FrontierKey {
    LabelSeq seq;
    std::vector<uint64_t> seeds;
    bool operator==(const FrontierKey& o) const {
      return seq == o.seq && seeds == o.seeds;
    }
  };
  struct FrontierKeyHash {
    size_t operator()(const FrontierKey& k) const {
      size_t h = LabelSeqHash{}(k.seq);
      for (uint64_t s : k.seeds) {
        h ^= std::hash<uint64_t>{}(s) + 0x9e3779b97f4a7c15ull + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };
  /// One cached frontier: every skeleton entry reachable from the seeds,
  /// grouped by shard. `building` entries are placeholders owned by the
  /// in-flight builder (single-flight); they are not in the LRU list and
  /// readers wait on frontier_cv_ until the build completes or aborts.
  struct Frontier {
    uint64_t epoch = 0;  ///< mutation_epoch_ at build begin
    bool building = true;
    uint32_t hops = 0;  ///< skeleton pops the build cost (telemetry)
    std::vector<std::vector<uint64_t>> by_shard;  ///< entry pids per shard
    std::list<FrontierKey>::iterator lru_it;      ///< valid when !building
  };

  /// (Re)creates the per-shard plan for shard `s` of `plan`.
  void BuildShardPlan(Plan& plan, uint32_t s);

  /// Returns the transition row for boundary product state `row_idx`
  /// of shard `s`, building and publishing it on first use. `built` is
  /// incremented when this call did the build.
  const BoundaryRow* GetRow(ShardPlan& sp, uint32_t s, uint32_t row_idx,
                            const Plan& plan, uint32_t* built) const;

  void EnsureScratch(Scratch& scratch, uint32_t j) const;

  /// Erases `it` from the frontier map (and the LRU list when installed).
  /// Caller holds frontier_mu_.
  void EraseFrontierLocked(
      std::unordered_map<FrontierKey, std::shared_ptr<Frontier>,
                         FrontierKeyHash>::iterator it) const;

  const GraphPartition& partition_;
  const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards_;
  ComposeOptions options_;
  std::vector<uint64_t> epochs_;
  std::unordered_map<LabelSeq, std::unique_ptr<Plan>, LabelSeqHash> plans_;
  VertexId num_vertices_ = 0;

  /// Global mutation epoch: any graph mutation invalidates every cached
  /// frontier (read by worker threads at lookup, hence atomic).
  std::atomic<uint64_t> mutation_epoch_{0};

  /// Frontier cache (guarded by frontier_mu_; mutable because lookups
  /// from const ComposedQuery mutate LRU order and single-flight state).
  mutable std::mutex frontier_mu_;
  mutable std::condition_variable frontier_cv_;
  mutable std::unordered_map<FrontierKey, std::shared_ptr<Frontier>,
                             FrontierKeyHash>
      frontiers_;
  mutable std::list<FrontierKey> frontier_lru_;  ///< front = most recent

  /// Per-shard heat drained by AdaptTableBudgets (relaxed; written by
  /// worker threads during probes).
  mutable std::vector<std::atomic<uint64_t>> expand_heat_;
  mutable std::vector<std::atomic<uint64_t>> pop_heat_;
  mutable std::vector<std::atomic<uint64_t>> overrun_heat_;
  mutable std::atomic<uint64_t> probes_since_adapt_{0};

  /// Owner-thread budget state: effective per-shard budget, the epoch that
  /// forces a plan refresh when the budget changes, and the consecutive
  /// quiet rounds of each boosted shard.
  std::vector<uint32_t> effective_budget_;
  std::vector<uint64_t> budget_epochs_;
  std::vector<uint32_t> cold_rounds_;
};

}  // namespace rlc

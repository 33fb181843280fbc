// Cross-shard query composition over the boundary skeleton.
//
// The sharded service answers a cross-shard RLC probe (s, t, L+) without
// any whole-graph structure by composing three exact pieces over the
// *product graph* — states (v, p) where p ∈ [0, |L|) counts labels
// consumed modulo |L|, so a walk (s, 0) ⇝ (t, 0) of >= 1 edge spells
// exactly L^z for some z >= 1:
//
//   1. source-shard suffix: a forward product walk from (s, 0) inside
//      shard(s) (base subgraph + live mutation overlay) finds every
//      product state with an outgoing cross edge carrying the label the
//      position demands — the skeleton seeds. Seeding with cross-edge
//      *successors* enforces the >= 1-cross-edge requirement, which keeps
//      composition disjoint from the shard-index intra tier: a purely
//      intra-shard witness is exactly the shard index's job. When shard(s)
//      has transition tables (below), the walk does not expand a boundary
//      state whose row is already built: it scans the row instead — every
//      boundary state the state intra-reaches, itself included — and queues
//      the row's words as exit words, whose cross hops phase 3 emits when
//      it needs them. Only boundary states carry cross edges, so that finds
//      the same seeds. Phase 1 never accepts: a probe whose walk neither
//      pushed an entry nor queued an exit word is false. Phase 1 builds no
//      row (a boundary state without one is expanded like an interior
//      state): a build for every boundary state the walk meets makes rows
//      for states no skeleton enters, which grew the row cache far more
//      than it saved walk work (src/rlc/serve/README.md has the numbers).
//      A degraded probe, whose shard index is unavailable, asks for intra
//      witnesses too (`need_intra`): the walk is then always full and also
//      accepts when an edge arrives at (t, 0), so the probe walks its
//      shard once.
//   2. target-shard prefix: a reverse product walk from (t, 0) inside
//      shard(t). Over the table budget it marks the accept set A — every
//      product state that intra-reaches (t, 0) — and a skeleton entry into
//      shard(t) answers true iff it lands in A. Membership is
//      intra-closed, so checking entries on arrival is complete: an
//      interior state of A reachable from an entry puts the entry itself
//      in A. With tables the walk stops at boundary states and collects
//      them into the per-probe set Stop; an entry answers true iff its own
//      bit is in Stop or its row meets Stop (tested word-parallel while the
//      row is scanned). Any path from an entry to (t, 0) has a last
//      boundary state, which lies in Stop and in the entry's row. Either
//      way every state the walk marks intra-reaches (t, 0), so from here on
//      a cross hop that lands on a marked state answers true at push (the
//      goal test at generation): the hop is the one cross edge composition
//      requires. Entries phase 1 pushed are still tested at pop.
//   3. skeleton hops: a BFS over boundary product states alternates
//      intra-shard closure with label-matched cross-edge hops. Closure
//      inside a shard comes from its per-(shard, constraint) boundary
//      transition table when the shard's boundary product graph fits the
//      table budget — row (b, p) is the bitset of boundary product states
//      (b', p') intra-reachable from (b, p) — or, over budget, from an
//      incremental per-probe product walk whose visited set is shared by
//      every entry into that shard (monotone, so a probe expands each
//      shard's product graph at most once). Rows build lazily and are
//      reused across probes: a missing row starts one iterative Tarjan
//      DFS over the shard's product graph (Purdom 1970; Nuutila &
//      Soisalon-Soininen 1994). Every state of one product SCC has the
//      same row — its boundary members' bits ORed with its successor
//      components' rows — so the DFS publishes the row of every boundary
//      state it finishes, each boundary member of a component pointing at
//      the component's one row object. A later build never re-enters a
//      finished state; it ORs in that state's row. Table hops dedup exits
//      word-parallel: the probe ORs every scanned row into a per-shard
//      covered set and queues, per row word, only the bits the row adds to
//      it — an exit word. Hops are lazy: the walk pops pending entries
//      first and pops one exit word, emitting its bits' cross hops, only
//      when no entry is left, so a probe that accepts early never emits
//      the hops of exits it did not need. An entry whose own bit is already
//      covered is skipped without reading its row: the row that covered it
//      starts at a state that intra-reaches the entry, so it already holds
//      the entry's whole row, and the row's exit words are queued even
//      where not yet popped. Rows phase 1 scans join the covered set of
//      shard(s) as well. The trap is shard(s) == shard(t): a phase-1 row
//      can cover an entry that heads a genuine cross path into t, and its
//      Stop test was never run (phase 1 must not accept an intra-only
//      path). So a shard(t) entry is skipped only when a row of an entry
//      already tested against Stop covers it — a subset of a row that
//      misses Stop misses it too.
//
// Which walks stay full: over-budget shards walk their product graphs
// state by state in every phase, and so does phase 1 with need_intra. An
// over-budget phase-3 walk emits its states' cross hops as it expands them
// and stops at the first hop that accepts.
//
// Deadlines: one DeadlineGate per probe reads the clock once per
// kDeadlineCheckStride pops, counting walk states, skeleton entries and
// exit words alike (an exit word emits at most 64 states' hops).
//
// The three per-probe intra-shard traversals — the source-shard suffix,
// the reverse target-shard prefix and on-the-fly expansion — are one
// walker (WalkShard in compose.cc), templated on direction, with the
// caller's visited mark and a pop callback that also says whether to
// expand the popped state (a table shard's end walk does not expand
// boundary states). It and the row-build DFS read edges through
// DynamicRlcIndex::ForEachEdge, so the mutated-graph filter lives in one
// place.
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
// the index). Tables live only in memory: a recovered service's engine
// starts cold, exactly like a fresh one (the WAL tail replayed during
// recovery would bump the touched shards' epochs anyway).
//
// Thread contract: PreparePlan and mutation notifications are
// owner-thread-only. ComposedQuery on a prepared plan is safe to fan out
// across a worker pool (per-call Scratch; row builds run under a
// per-shard-plan build mutex and publish the lazily allocated slot array
// and each row with release stores, read with acquire).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
  /// budget^2 bits per (shard, constraint).
  uint32_t table_budget_nodes = 2048;
  /// Plan-cache capacity (distinct constraints); the cache flushes when
  /// full, mirroring the service's constraint memo.
  size_t max_cached_plans = 1 << 12;
};

/// Telemetry of one composed probe (the caller folds these into its
/// metrics registry). All of it depends on which rows are already built,
/// so under concurrent probes it varies with thread timing: a build also
/// finishes the rows a concurrent probe would otherwise have built, and
/// phase 1 scans a row only once it is built.
struct ComposeResult {
  bool reachable = false;
  /// The deadline expired mid-traversal: `reachable` is meaningless, the
  /// probe carries no answer. Overrun is bounded by one deadline-check
  /// stride (kDeadlineCheckStride pops of walk states, skeleton entries or
  /// exit words) or one row build (one DFS, which visits only states the
  /// start reaches).
  bool timed_out = false;
  uint32_t skeleton_hops = 0;  ///< skeleton entries popped
  /// Skeleton entries the probe's cross hops generated: every unseen
  /// label-matched cross-edge head, pushed onto the skeleton queue — or,
  /// for the hop that accepts on arrival, counted and not pushed. So
  /// skeleton_hops <= cross_hops. Scanned rows' exits count only once
  /// their exit word is popped.
  uint32_t cross_hops = 0;
  /// Product states the probe's own walks reached: the source-shard
  /// suffix, the target-shard prefix and on-the-fly expansion of
  /// over-budget shards. In a table shard the end walks count the boundary
  /// states they stop at, not the rows those states stand for: the rows
  /// the probe reads count in table_rows_built and row_states when they
  /// are built (phase 1 reads only built ones), never here. A walk cut
  /// short — by the deadline or, with need_intra, by an intra witness —
  /// counts its partial queue.
  uint32_t expanded = 0;
  /// Row-build traversals this call ran: one per missing row it fetched,
  /// however many rows that DFS published.
  uint32_t table_rows_built = 0;
  /// Product states those row builds visited (each build visits its start
  /// at least, so row_states >= table_rows_built).
  uint32_t row_states = 0;
};

class CompositionEngine {
 public:
  /// Deadline granularity: traversal loops read the clock once per this
  /// many pops (walk states, skeleton entries and exit words), so deadline
  /// overrun inside a probe is bounded by one stride (plus at most one row
  /// build: a DFS over states the requested row's start reaches, never
  /// re-entering finished ones).
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
    bool tables = false;       ///< boundary product graph within budget
    uint32_t num_boundary = 0;
    /// local id -> boundary ordinal, -1 interior (tables only). One copy
    /// per shard and epoch, shared by the plans of every constraint.
    std::shared_ptr<const std::vector<int32_t>> boundary_ord;
    /// The |B| * j row slots (ordinal * j + position). Null until the
    /// plan's first row build allocates them; published with release.
    std::atomic<std::atomic<const BoundaryRow*>*> rows{nullptr};
    std::mutex build_mu;
    /// Guarded by build_mu: storage behind `rows`, and every row object
    /// (a row's id is its index here; boundary states of one product SCC
    /// share one object).
    std::unique_ptr<std::atomic<const BoundaryRow*>[]> slots;
    std::vector<std::unique_ptr<BoundaryRow>> owned;
    /// Guarded by build_mu, allocated by the first row build: one word
    /// per local product state (local vertex * j + position) — 0
    /// unvisited, an on-stack DFS index during a build, or a finished
    /// state's row id (kFinished | id, see compose.cc).
    std::vector<uint32_t> build_state;

    /// The published row of slot `idx`, or null when it is not built.
    const BoundaryRow* Row(uint32_t idx) const {
      const auto* r = rows.load(std::memory_order_acquire);
      return r == nullptr ? nullptr : r[idx].load(std::memory_order_acquire);
    }
  };

  /// One constraint's composition plan.
  struct Plan {
    LabelSeq seq;
    uint32_t j = 0;  ///< |seq|
    std::vector<std::unique_ptr<ShardPlan>> shards;
  };

  /// Per-thread traversal scratch: stamped visited arrays over the global
  /// product space plus walk queues (shard-local states for the intra
  /// walks, global ones for the skeleton). Reusable across probes and
  /// plans.
  struct Scratch {
    std::vector<uint32_t> fwd_stamp;   ///< source-shard forward BFS
    std::vector<uint32_t> acc_stamp;   ///< target-shard accept set A
    std::vector<uint32_t> exp_stamp;   ///< skeleton + on-the-fly expansion
    /// Per table shard: union of the rows this probe scanned, laid out
    /// like BoundaryRow::bits. Every covered exit sits in an exit word
    /// (queued or already emitted), and a popped entry whose own bit is
    /// covered needs no row of its own.
    std::vector<std::vector<uint64_t>> covered;
    /// Per shard: the probe stamp `covered` was last cleared for (cleared
    /// lazily, on the probe's first row scan in the shard).
    std::vector<uint32_t> covered_stamp;
    /// Table shard(t) only, laid out like BoundaryRow::bits: `stop` holds
    /// the boundary states phase 2 reached, and `tested` (shard(s) ==
    /// shard(t) only) the union of the rows of shard(t) entries already
    /// tested against `stop`.
    std::vector<uint64_t> stop;
    std::vector<uint64_t> tested;
    uint32_t stamp = 0;
    /// One word of a scanned row whose newly covered bits' cross hops are
    /// not emitted yet: `bits` is word `word` of table shard `shard`'s
    /// bitset over its boundary product states.
    struct ExitWord {
      uint32_t shard;
      uint32_t word;
      uint64_t bits;
    };
    /// Queue of the probe's current intra walk (one runs at a time).
    std::vector<uint64_t> walk_queue;
    /// Skeleton entries (global product states) and the exit words of the
    /// rows the probe scanned; phase 3 pops an exit word only when no
    /// entry is pending.
    std::vector<uint64_t> skel_queue;
    std::vector<ExitWord> exit_queue;
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
  /// edge exists on the current mutated graph — or, with `need_intra`,
  /// any such path, purely intra-shard ones included (the index-free exact
  /// answer for degraded probes whose shard index is unavailable; phase 1
  /// accepts when an edge arrives at (t, 0)). Thread-safe on a prepared
  /// plan (see class comment). A set `deadline` is enforced inside every
  /// traversal loop (stride kDeadlineCheckStride); on expiry the result
  /// has timed_out = true and carries no answer, only partial-work
  /// telemetry.
  ComposeResult ComposedQuery(VertexId s, VertexId t, const Plan& plan,
                              Scratch& scratch, const Deadline& deadline = {},
                              bool need_intra = false) const;

  /// Mutation notifications (owner thread): bump the affected shards'
  /// epochs so stale tables refresh on next PreparePlan.
  void OnIntraMutation(uint32_t shard) { ++epochs_[shard]; }
  void OnCrossMutation(uint32_t src_shard, uint32_t dst_shard) {
    ++epochs_[src_shard];
    if (dst_shard != src_shard) ++epochs_[dst_shard];
  }
  /// Drops every cached plan with its transition tables.
  void InvalidateAll() { plans_.clear(); }

  const ComposeOptions& options() const { return options_; }
  size_t num_cached_plans() const { return plans_.size(); }

  /// Heap footprint of the plan cache (tables, ordinal maps, row-build
  /// state) in bytes; a shared ordinal map counts once.
  uint64_t MemoryBytes() const;

 private:
  /// (Re)creates the per-shard plan for shard `s` of `plan`.
  void BuildShardPlan(Plan& plan, uint32_t s);

  /// Returns the transition row for boundary product state `row_idx`
  /// of shard `s`. A missing row runs one Tarjan DFS from it, which
  /// publishes the row of every boundary state it finishes; the build
  /// counts into `result.table_rows_built` and `result.row_states`.
  const BoundaryRow* GetRow(ShardPlan& sp, uint32_t s, uint32_t row_idx,
                            const Plan& plan, ComposeResult& result) const;

  void EnsureScratch(Scratch& scratch, uint32_t j) const;

  const GraphPartition& partition_;
  const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards_;
  ComposeOptions options_;
  std::vector<uint64_t> epochs_;
  /// Per shard: the boundary ordinal map table plans share, and the epoch
  /// it was built at.
  std::vector<std::shared_ptr<const std::vector<int32_t>>> ords_;
  std::vector<uint64_t> ord_epochs_;
  std::unordered_map<LabelSeq, std::unique_ptr<Plan>, LabelSeqHash> plans_;
  VertexId num_vertices_ = 0;
};

}  // namespace rlc

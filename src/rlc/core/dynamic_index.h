// Incremental edge-insert and edge-delete maintenance over a sealed RLC
// index.
//
// The paper builds its index once over a static graph; a serving system
// sees the graph mutate. DynamicRlcIndex keeps a sealed RlcIndex answering
// exactly on the *mutated* graph without rebuilding it per mutation:
//
//  * The graph delta is an adjacency overlay (per-vertex extra edge lists
//    plus per-vertex removed-edge shadows over the immutable base DiGraph);
//    every maintenance search traverses base + overlay minus removals.
//
//  * InsertEdge(u, l, v) runs a bounded incremental KBS around the new
//    edge. Any query pair (s, t, L+) that the insert makes reachable has a
//    witness path through the edge, and the copy of L containing the edge
//    fixes an alignment: L = α ∘ l ∘ β where α is spelled by a path ending
//    at u and β by one leaving v. Phase 1 enumerates those candidate
//    kernels — all primitive α·l·β with |α|+|β| <= k-1, words collected by
//    depth-(k-1) BFS from the endpoints. Phase 2, per candidate (L, i):
//    two kernel-BFS product searches over (vertex, position-in-L) states —
//    backward from (u, i) and forward past the edge — yield the upstream
//    boundary set S (vertices at a copy start that reach u in alignment)
//    and the downstream boundary set T (vertices a whole number of copies
//    past v). Every newly reachable pair lies in some S x T. Phase 3
//    covers: pairs the index already answers are skipped (the PR1 monotone
//    pruning argument — the index only grows), and each uncovered pair
//    (s, t) gets one direct Case-2 delta entry ((aid(s), L) into Lin(t) or
//    (aid(t), L) into Lout(s), hub = the higher-ranked endpoint). Entries
//    land in the sealed index's delta overlay (rlc_index.h), so answers are
//    exact on the mutated graph while the CSR arrays stay untouched.
//
//  * DeleteEdge(u, l, v) is the dual. An index entry is a standalone
//    reachability claim ("vertex aligned-reaches hub under L+"), and a
//    Case-1 join of two *valid* entries implies the pair is reachable — so
//    a deletion can only create false positives through entries whose own
//    claim died with the edge. Phase 1 enumerates the same candidate
//    kernels (L, i) around the edge and computes the copy-boundary sets
//    S / T on the *pre-delete* graph: every entry whose witness used the
//    edge claims a pair in some S x T. After the edge is removed, a
//    candidate whose positions carrying l all still aligned-connect u to v
//    is ruled out whole (every witness reroutes over the detour, the exact
//    dual of the insert rule-out). Phase 2 validity-checks the matched
//    entries with bounded aligned closures on the post-delete graph and
//    *suppresses* the dead ones — pending delta entries are erased, CSR
//    entries get a tombstone (rlc_index.h) that every query path skips.
//    Phase 3 repairs completeness: a pair can only lose its last cover
//    through a suppressed entry, so the sweep is restricted to
//    (S ∩ dead-out) x T and S x (T ∩ dead-in) per candidate; pairs still
//    reachable but no longer answered get a fresh Case-2 delta cover.
//    Answers stay bit-identical to a from-scratch rebuild on the mutated
//    graph.
//
//  * When the pending-mutation fraction (deltas + tombstones) crosses
//    ResealPolicy::max_delta_ratio, a *reseal* folds the deltas in, drops
//    the tombstoned entries out of the CSR arrays and recomputes the
//    exact signatures. With policy.background the merge runs on a detached
//    thread over a private snapshot (copied on the owner thread at trigger
//    time); the owner swaps the result in with an epoch-style shared_ptr
//    flip at its next touch point and replays the deltas appended since the
//    trigger, so the visible entry set — and therefore every answer — is
//    unchanged across the swap. Readers holding a Snapshot() (in-flight
//    batched queries) never block and keep a consistent index.
//
// Thread contract: like ShardedRlcService, a DynamicRlcIndex has a single
// owner thread for mutations and query submission. Batched executors may
// fan a Snapshot() out across worker pools (the RlcIndex query path is
// const and the overlay is only mutated between batches); the background
// reseal touches nothing but its private copy.

#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "rlc/core/rlc_index.h"
#include "rlc/graph/digraph.h"

namespace rlc {

/// What a batched EdgeUpdate does to the graph.
enum class EdgeOp : uint8_t {
  kInsert,  ///< add the edge (no-op when it already exists)
  kDelete,  ///< remove the edge (no-op when it does not exist)
};

/// One edge mutation (src --label--> dst) for the batched update APIs.
/// Aggregate-initializing the first three fields keeps the PR4-era
/// insert-only call sites working unchanged.
struct EdgeUpdate {
  VertexId src = 0;
  Label label = 0;
  VertexId dst = 0;
  EdgeOp op = EdgeOp::kInsert;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// Rejects a batch that names a vertex outside `g` or a label outside its
/// alphabet. Every ApplyUpdates (DynamicRlcIndex and both durable stores)
/// checks the whole batch first, so an invalid batch is rejected whole:
/// nothing logged, nothing applied.
/// \throws std::invalid_argument naming the first invalid update.
void ValidateUpdates(const DiGraph& g, std::span<const EdgeUpdate> updates);

/// When and how a dynamic index folds its delta overlay back into CSR form.
struct ResealPolicy {
  /// Reseal once delta_entries / sealed_entries exceeds this fraction.
  double max_delta_ratio = 0.10;
  /// Never reseal below this many pending deltas (tiny overlays are cheaper
  /// to merge at query time than to rebuild around).
  uint64_t min_delta_entries = 64;
  /// Merge on a background thread and epoch-swap the result in (default);
  /// false reseals inline on the owner thread (deterministic, for tests).
  bool background = true;
};

/// Maintenance telemetry.
struct DynamicIndexStats {
  uint64_t edges_inserted = 0;
  uint64_t edges_duplicate = 0;     ///< no-op inserts of existing edges
  uint64_t edges_deleted = 0;
  uint64_t edges_delete_missing = 0;  ///< no-op deletes of absent edges
  uint64_t kernels_examined = 0;    ///< candidate (kernel, offset) pairs
  uint64_t kernels_ruled_out = 0;   ///< candidates skipped: the aligned
                                    ///< detour covers / reroutes all pairs
  uint64_t pairs_examined = 0;      ///< S x T cover probes
  uint64_t delta_entries_added = 0;
  uint64_t entries_suppressed = 0;  ///< stale entries erased or tombstoned
  uint64_t pairs_recovered = 0;     ///< still-reachable pairs re-covered
                                    ///< after losing their last entry
  uint64_t reseals = 0;
  uint64_t deltas_replayed = 0;     ///< appended mid-reseal, replayed at swap
  double reseal_seconds = 0.0;      ///< cumulative merge wall time
};

/// A sealed RlcIndex plus the machinery to keep it exact under edge
/// inserts and deletes. `g` is the immutable base graph and must outlive
/// the instance; `index` must be a sealed index of exactly `g`.
class DynamicRlcIndex {
 public:
  DynamicRlcIndex(const DiGraph& g, RlcIndex index, ResealPolicy policy = {});
  ~DynamicRlcIndex();

  DynamicRlcIndex(const DynamicRlcIndex&) = delete;
  DynamicRlcIndex& operator=(const DynamicRlcIndex&) = delete;

  /// Inserts the edge u --label--> v and restores index exactness for the
  /// mutated graph. Returns false (a strict no-op: no entries, no stats
  /// beyond edges_duplicate, no serialized-byte change) when the edge
  /// already exists in the base graph or the overlay. Re-inserting a
  /// previously deleted base edge un-shadows it.
  /// \throws std::invalid_argument on out-of-range vertices or a label the
  ///         base graph has never seen (new labels require a rebuild).
  bool InsertEdge(VertexId u, Label label, VertexId v);

  /// Deletes the edge u --label--> v (all parallel copies of the exact
  /// (u, label, v) triple) and restores index exactness for the mutated
  /// graph: entries whose witness paths died with the edge are suppressed
  /// (delta entries erased, CSR entries tombstoned) and still-reachable
  /// pairs that lost their last cover are re-covered. Returns false (a
  /// strict no-op) when no such edge exists.
  /// \throws std::invalid_argument on out-of-range vertices or labels.
  bool DeleteEdge(VertexId u, Label label, VertexId v);

  /// Applies a batch of mutations in order; returns how many changed the
  /// graph (inserts of new edges + deletes of present edges).
  /// \throws std::invalid_argument (ValidateUpdates) before applying any.
  size_t ApplyUpdates(std::span<const EdgeUpdate> updates);

  /// Re-installs a previously persisted graph overlay (durable_index.h)
  /// without running any maintenance: the index passed to the constructor
  /// already carries the matching delta/tombstone entries, so only the
  /// adjacency overlay and the edge bookkeeping need rebuilding. Must be
  /// called before any mutation; `inserted`/`removed` are the
  /// inserted_edges()/removed_edges() lists a snapshot captured.
  /// \throws std::invalid_argument on out-of-range edges, a removed edge
  ///         the base graph does not have, or a non-fresh overlay.
  void RestoreOverlay(std::span<const EdgeUpdate> inserted,
                      std::span<const EdgeUpdate> removed);

  /// \name Query surface
  /// The current epoch's index. `index()` is the owner-thread shortcut;
  /// Snapshot() pins an epoch for batched readers that outlive the call
  /// (the pointer stays valid and consistent across a concurrent reseal
  /// swap). MR ids are stable across reseals.
  ///@{
  const RlcIndex& index() const { return *current_; }
  std::shared_ptr<const RlcIndex> Snapshot() const { return current_; }
  bool Query(VertexId s, VertexId t, const LabelSeq& constraint) const {
    return current_->Query(s, t, constraint);
  }
  ///@}

  /// True when the edge exists in the mutated graph (base minus removals
  /// plus the insert overlay).
  bool HasEdge(VertexId u, Label label, VertexId v) const;

  /// Calls `fn(w)` for every edge v --label--> w of the mutated graph
  /// (every edge w --label--> v when `backward`): the base adjacency minus
  /// shadowed slots, then the overlay edges, in that order. This is the
  /// one edge filter every product walk over the mutated graph uses — the
  /// maintenance searches here and the cross-shard composition engine.
  /// `fn` returns false to stop early, and then so does this call.
  template <typename Fn>
  bool ForEachEdge(VertexId v, Label label, bool backward, Fn&& fn) const {
    for (const LabeledNeighbor& nb : backward
                                         ? g_.InEdgesWithLabel(v, label)
                                         : g_.OutEdgesWithLabel(v, label)) {
      if (EdgeShadowed(backward, v, nb)) continue;
      if (!fn(nb.v)) return false;
    }
    const auto& extra = backward ? extra_in_ : extra_out_;
    if (extra.empty()) return true;
    for (const LabeledNeighbor& nb : extra[v]) {
      if (nb.label == label && !fn(nb.v)) return false;
    }
    return true;
  }

  /// Blocks until an in-flight background reseal (if any) has merged, then
  /// swaps it in. Also the deterministic sync point for tests and benches.
  void FinishReseal();

  /// Unconditional synchronous reseal: completes any in-flight merge, then
  /// folds whatever deltas remain. After this, delta_entries() == 0.
  void ForceReseal();

  bool reseal_in_flight() const { return reseal_thread_.joinable(); }

  const DiGraph& base_graph() const { return g_; }
  /// Overlay edges currently present (inserted and not since deleted).
  const std::vector<EdgeUpdate>& inserted_edges() const { return inserted_; }
  /// Base edges currently shadowed by a delete.
  const std::vector<EdgeUpdate>& removed_edges() const { return removed_; }

  /// Base + overlay edge list (the mutated graph), e.g. for rebuild oracles.
  std::vector<Edge> MaterializedEdges() const;

  const ResealPolicy& policy() const { return policy_; }
  const DynamicIndexStats& stats() const { return stats_; }

  /// Index + overlay adjacency + maintenance bookkeeping, in bytes.
  uint64_t MemoryBytes() const;

 private:
  /// One overlay mutation (delta append or entry suppression), logged so a
  /// background reseal can replay the mutations that raced past its trigger
  /// point onto the merged index.
  struct DeltaRecord {
    enum class Kind : uint8_t { kAppend, kSuppress };
    Kind kind;
    bool is_out;
    VertexId v;
    uint32_t hub_aid;
    LabelSeq seq;
  };

  void IncrementalUpdate(VertexId u, Label l, VertexId v);
  void IncrementalDelete(VertexId u, Label l, VertexId v);

  /// Distinct words (length <= k-1) spelled by paths ending at `start`
  /// (backward) or leaving it (forward), over base + overlay.
  void CollectWords(VertexId start, bool backward,
                    std::set<LabelSeq>& words) const;

  /// Kernel-aligned product search: all (vertex, position) states reachable
  /// from (start, start_pos) walking backward (consuming kernel labels in
  /// reverse, with wrap-around) or forward. Returns the sorted vertices
  /// seen at position 1 — copy-boundary vertices.
  std::vector<VertexId> AlignedBoundary(VertexId start, uint32_t start_pos,
                                        const LabelSeq& kernel, bool backward);

  /// True when the current mutated graph — minus `exclude`, when non-null —
  /// aligned-connects (u, from_pos) to (v, to_pos) under `kernel` over
  /// >= 1 edge. Both mutation paths pass the mutated edge as `exclude` to
  /// ask about the graph *without* it: the insert path about the pre-insert
  /// graph (a detour at every l-position means each S x T pair was already
  /// reachable, so the candidate is covered and skipped), the delete path —
  /// whose rule-out runs before RemoveGraphEdge, while the edge is still in
  /// the adjacency — about the post-delete graph (a detour at every
  /// l-position reroutes every witness, so no entry went stale). Dropping
  /// the exclusion on the delete side would let the deleted edge serve as
  /// its own detour and leave stale entries unsuppressed.
  bool AlignedConnects(VertexId u, VertexId v, uint32_t from_pos,
                       uint32_t to_pos, const LabelSeq& kernel,
                       const EdgeUpdate* exclude);

  /// All vertices x such that start aligned-reaches x (forward) or x
  /// aligned-reaches start (backward) under kernel+ over >= 1 full copy,
  /// on the current mutated graph. Unlike AlignedBoundary the start vertex
  /// is only included when a genuine aligned cycle returns to it. Sorted.
  std::vector<VertexId> AlignedClosure(VertexId start, const LabelSeq& kernel,
                                       bool backward);

  /// Appends one delta entry to the live index (and, while a background
  /// reseal runs, to its replay log).
  void AppendDelta(bool is_out, VertexId v, uint32_t hub_aid, MrId mr,
                   const LabelSeq& seq);

  /// Suppresses one stale entry on the live index (logged for replay while
  /// a background reseal runs).
  void SuppressEntry(bool is_out, VertexId v, uint32_t hub_aid, MrId mr,
                     const LabelSeq& seq);

  /// Adds the Case-2 cover entry for the uncovered pair (x, y, mr): the
  /// higher-ranked endpoint becomes the hub.
  void AddCoverEntry(VertexId x, VertexId y, MrId mr, const LabelSeq& seq);

  /// Hub-compressed cover for one candidate whose edge sits on a copy
  /// boundary: the boundary endpoint (`hub`) lies on every S x T witness at
  /// a copy start, so (hub, L) entries into Lout(s) / Lin(t) cover all
  /// pairs with |S| + |T| entries instead of |S| * |T|.
  void CoverViaEdgeHub(VertexId hub, MrId mr, const LabelSeq& kernel,
                       std::span<const VertexId> upstream,
                       std::span<const VertexId> downstream);

  void MaybeReseal();
  void StartReseal();
  /// Synchronous copy-merge-swap on the owner thread.
  void ResealInline();
  /// Completes a finished (or, with `wait`, any in-flight) background
  /// reseal: joins, replays post-trigger deltas, swaps the epoch pointer.
  void TryCompleteReseal(bool wait);

  uint64_t StateIndex(VertexId v, uint32_t pos) const {
    return static_cast<uint64_t>(v) * current_->k() + (pos - 1);
  }

  /// Removes u --l-> v from the mutated graph: an overlay edge is erased,
  /// a base edge is shadowed in the removal lists.
  void RemoveGraphEdge(VertexId u, Label l, VertexId v);

  /// True when the base edge u --l-> v is currently shadowed by a delete.
  bool BaseEdgeRemoved(VertexId u, Label l, VertexId v) const;

  /// Shadow test in adjacency-iteration form: true when the base adjacency
  /// slot `nb` of vertex `x` (out-neighbor forward, in-neighbor backward)
  /// is a deleted edge — the filter every maintenance traversal applies.
  bool EdgeShadowed(bool backward, VertexId x, const LabeledNeighbor& nb) const {
    const auto& removed = backward ? removed_in_ : removed_out_;
    if (removed.empty()) return false;
    const auto& list = removed[x];
    return std::find(list.begin(), list.end(), nb) != list.end();
  }

  const DiGraph& g_;
  ResealPolicy policy_;
  std::shared_ptr<RlcIndex> current_;
  // Graph overlay: edges inserted since construction and still present
  // (never folded — reseals fold index entries, the graph delta persists),
  // plus shadow lists for deleted base edges.
  std::vector<std::vector<LabeledNeighbor>> extra_out_;
  std::vector<std::vector<LabeledNeighbor>> extra_in_;
  std::vector<std::vector<LabeledNeighbor>> removed_out_;
  std::vector<std::vector<LabeledNeighbor>> removed_in_;
  std::vector<EdgeUpdate> inserted_;
  std::vector<EdgeUpdate> removed_;
  // Overlay mutations since a background reseal started (replay source for
  // its swap); empty, with no capacity, while no reseal is in flight.
  std::vector<DeltaRecord> delta_log_;
  // Background reseal state (owner thread starts/joins; the worker only
  // touches reseal_snapshot_ and the release-ordered ready flag).
  std::thread reseal_thread_;
  std::unique_ptr<RlcIndex> reseal_snapshot_;
  std::atomic<bool> reseal_ready_{false};
  double reseal_merge_seconds_ = 0.0;
  // Aligned-search scratch (owner thread only).
  std::vector<uint64_t> visit_stamp_;
  uint64_t epoch_ = 0;
  DynamicIndexStats stats_;
};

}  // namespace rlc

// The RLC index (paper Definition 4) and its query algorithm (Algorithm 1).
//
// For every vertex v the index stores two entry lists:
//
//   Lout(v) = {(u, L) : v ⇝ u and L ∈ Sk(v,u)}   ("v reaches hub u")
//   Lin(v)  = {(u, L) : u ⇝ v and L ∈ Sk(u,v)}   ("hub u reaches v")
//
// where Sk is the concise set of k-bounded minimum repeats (Definition 2).
// Hubs are identified by their *access id* (position in the IN-OUT vertex
// ordering); entries are appended in increasing access id as the indexing
// algorithm processes hubs in that order, so both lists stay sorted and the
// query is a sort-free merge join exactly as the paper describes.
//
// A query (s,t,L+) with |L| <= k and L primitive is answered true iff
//   Case 2: (t,L) ∈ Lout(s) or (s,L) ∈ Lin(t), or
//   Case 1: ∃ hub x with (x,L) ∈ Lout(s) and (x,L) ∈ Lin(t).
//
// Storage has two phases. During construction entries live in per-vertex
// vectors (cheap appends). Seal() then flattens both sides into CSR form —
// one offset array plus one contiguous IndexEntry buffer per side — which
// removes a pointer chase per query, halves allocator metadata, and enables
// the memcpy'd CSR blocks of the index file (index_io.h). Queries work in
// either phase; mutation is only allowed before sealing.
//
// Sealing additionally computes one 64-bit *signature* per (vertex, side):
// a hub-id Bloom filter (bits 0-31), a label presence mask (bits 32-47) and
// an MR-id Bloom filter (bits 48-63) folded over the side's entry list. A
// query first ANDs the signatures of Lout(s) and Lin(t) against the bits
// its MR requires; most negative probes are refuted by those two loads
// alone, before any entry list is touched. Signatures are conservative
// (never a false negative), so answers are bit-identical with them on or
// off. They persist in the index file (index_io.h), so a load adopts them
// instead of rebuilding.
//
// A sealed index additionally accepts a *delta overlay* (incremental
// edge-insert maintenance, dynamic_index.h): AddDeltaOut/AddDeltaIn append
// entries to small sorted per-vertex delta lists that every query path
// merges with the CSR buffers on the fly. Each delta append widens the
// owning vertex's signature conservatively (OR of the entry's bits), so
// signature refutation stays sound; a later MergeDeltas() folds the deltas
// into the CSR arrays and recomputes the exact (narrow) signatures.
// Pending deltas persist in the v4 file format (index_io.h).
//
// The dual overlay handles edge *deletions*: a *tombstone* marks one CSR
// entry as logically absent (SuppressOut/SuppressIn; entries still living
// in the mutable delta lists are simply erased). Every query path skips
// tombstoned entries, so answers equal those of an index that never held
// them; vertex signatures are left conservatively wide (a tombstone can
// only make a probe fall through to the entry lists, never flip an
// answer). MergeDeltas() folds tombstones out of the CSR arrays together
// with the deltas and re-narrows the signatures. Pending tombstones
// persist in the v5 file format (index_io.h).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rlc/core/label_seq.h"
#include "rlc/core/mr_table.h"
#include "rlc/graph/types.h"

namespace rlc {

/// One index entry: 8 bytes. `hub_aid` is the hub's access id; `mr` the
/// interned minimum repeat.
struct IndexEntry {
  uint32_t hub_aid;
  MrId mr;

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

static_assert(sizeof(IndexEntry) == 8, "IndexEntry must stay 8 bytes (v2 io)");

/// One (source, target) probe of a batched query group (query_batch.h).
struct VertexPair {
  VertexId s;
  VertexId t;
};

/// Per-group kernel telemetry filled by the counted QueryGroupInterned
/// overload. Fields accumulate (+=), so one struct can aggregate several
/// groups or jobs before being flushed to a metrics registry in bulk.
struct GroupQueryStats {
  uint64_t probes = 0;       ///< probes executed
  uint64_t sig_refuted = 0;  ///< refuted by the two signature loads alone
  uint64_t hits = 0;         ///< probes answered true
};

/// The RLC reachability index for one graph and one recursive bound k.
///
/// Instances are produced by RlcIndexBuilder (indexer.h) or loaded from disk
/// (index_io.h); the mutation API (AddOut/AddIn/...) is public for those
/// components and for tests but not intended for end users.
class RlcIndex {
 public:
  /// An empty index for `num_vertices` vertices and recursion bound `k`.
  RlcIndex(VertexId num_vertices, uint32_t k)
      : k_(k), out_(num_vertices), in_(num_vertices), aid_(num_vertices, 0) {
    RLC_REQUIRE(k >= 1 && k <= kMaxK, "RlcIndex: k must be in [1," << kMaxK << "]");
  }

  uint32_t k() const { return k_; }
  VertexId num_vertices() const { return static_cast<VertexId>(aid_.size()); }

  /// \name Query interface
  ///@{

  /// Answers the RLC query (s, t, L+), paper Algorithm 1.
  ///
  /// \throws std::invalid_argument when s/t are out of range, L is empty or
  ///         not primitive (L != MR(L); such constraints add a path-length
  ///         side condition the paper scopes out), or |L| > k.
  bool Query(VertexId s, VertexId t, const LabelSeq& constraint) const;

  /// Answers the Kleene-star variant (s, t, L*): true iff s == t or the
  /// plus-query holds (paper §III-B).
  bool QueryStar(VertexId s, VertexId t, const LabelSeq& constraint) const;

  /// Hot-path query on a pre-interned MR id; no argument validation.
  /// kInvalidMrId never matches (such an MR was recorded nowhere).
  bool QueryInterned(VertexId s, VertexId t, MrId mr) const;

  /// Interns-or-looks-up a query constraint. Returns kInvalidMrId when the
  /// MR was never recorded (the query is then necessarily false).
  MrId FindMr(const LabelSeq& seq) const { return mrs_.Find(seq); }

  /// Answers a group of probes that share one pre-interned MR — the
  /// batch-execution primitive behind the serving layer's QueryBatch. On a
  /// sealed index the probes are software-pipelined over the CSR layout:
  /// the offset and entry cache lines of upcoming probes are prefetched
  /// while the current probe's merge join runs, which hides most of the
  /// memory latency that dominates cache-cold random probes. Answers are
  /// identical to calling QueryInterned per probe, in any layout.
  ///
  /// Like QueryInterned this performs no argument validation: every probe
  /// vertex must be in range. `answers` must have probes.size() slots;
  /// slot i is set to 1 when probe i is reachable, else 0.
  void QueryGroupInterned(MrId mr, std::span<const VertexPair> probes,
                          std::span<uint8_t> answers) const;

  /// Counted variant: identical answers, but additionally accumulates
  /// probe/signature-refute/hit counts into `stats` (nullptr degrades to
  /// the uncounted kernel). The counts live in locals inside the probe
  /// loop and flush once at the end, so the overhead is a couple of
  /// register increments per probe — cheap enough for an always-on
  /// metrics build, but batch executors still gate it on obs::Enabled().
  void QueryGroupInterned(MrId mr, std::span<const VertexPair> probes,
                          std::span<uint8_t> answers,
                          GroupQueryStats* stats) const;

  /// Validates an RLC query constraint against recursion bound `k`: it must
  /// be non-empty, at most k labels long, and primitive (L == MR(L)).
  /// Factored out of Query so batched callers can validate each distinct
  /// constraint once instead of per probe.
  /// \throws std::invalid_argument on violation.
  static void ValidateConstraint(const LabelSeq& constraint, uint32_t k);
  ///@}

  /// \name Vertex signatures (sealed-time query prefilter)
  ///@{

  /// Toggles the signature prefilter on the query path (default on).
  /// Answers are identical either way — the toggle exists so benchmarks can
  /// attribute the win (bench_query_kernel signatures on/off sweeps).
  void set_use_signatures(bool on) { use_signatures_ = on; }
  bool use_signatures() const { return use_signatures_; }

  /// Signature of Lout(v) / Lin(v): the stored array when sealed, computed
  /// on the fly otherwise (index_io uses this to write identical bytes for
  /// sealed and unsealed indexes).
  uint64_t OutSignature(VertexId v) const {
    return out_sigs_.empty() ? ListSignature(Lout(v)) : out_sigs_[v];
  }
  uint64_t InSignature(VertexId v) const {
    return in_sigs_.empty() ? ListSignature(Lin(v)) : in_sigs_[v];
  }

  /// The label-mask part of the bits a query for a constraint requires on a
  /// side — computable from a raw constraint without interning it, which
  /// lets callers refute before even hashing the sequence (FindMr /
  /// MrCache::Get). A side whose signature lacks any of these bits provably
  /// contains no entry whose MR uses exactly these labels.
  static uint64_t LabelSignature(std::span<const Label> labels);

  /// Signature-only refutation for a pure RLC query (s, t, labels): true
  /// when neither Lout(s) nor Lin(t) can contain an entry whose MR uses
  /// exactly `labels`, which refutes all three query cases. Never refutes
  /// on an unsealed index or with signatures disabled.
  bool RefutedBySignature(VertexId s, VertexId t,
                          std::span<const Label> labels) const {
    if (out_sigs_.empty() || !use_signatures_) return false;
    const uint64_t needed = LabelSignature(labels);
    return (out_sigs_[s] & needed) != needed &&
           (in_sigs_[t] & needed) != needed;
  }
  ///@}

  /// \name Builder interface
  ///@{
  void SetAccessOrder(std::vector<VertexId> order_to_vertex);
  void AddOut(VertexId v, uint32_t hub_aid, MrId mr);
  void AddIn(VertexId v, uint32_t hub_aid, MrId mr);
  MrTable& mr_table() { return mrs_; }

  /// Flattens both entry sides into CSR arrays and frees the per-vertex
  /// vectors. Idempotent. After sealing the mutation API aborts; the query
  /// and introspection APIs are unaffected (and faster).
  void Seal();

  /// True once Seal() has run (or the index was loaded from disk; loaded
  /// indexes are always sealed).
  bool sealed() const { return sealed_; }

  /// \name Delta overlay (incremental maintenance, dynamic_index.h)
  ///
  /// Sealed-only mutation path: entries land in small sorted per-vertex
  /// delta lists that every query merges with the CSR buffers. Callers must
  /// not append exact duplicates (of a CSR entry or an earlier delta); the
  /// maintenance layer guarantees this by only covering pairs the index
  /// cannot yet answer. The MR may be one interned after sealing — the
  /// per-MR signature table is extended on demand.
  ///@{
  void AddDeltaOut(VertexId v, uint32_t hub_aid, MrId mr);
  void AddDeltaIn(VertexId v, uint32_t hub_aid, MrId mr);

  std::span<const IndexEntry> DeltaLout(VertexId v) const {
    return delta_out_.empty() ? std::span<const IndexEntry>()
                              : std::span<const IndexEntry>(delta_out_[v]);
  }
  std::span<const IndexEntry> DeltaLin(VertexId v) const {
    return delta_in_.empty() ? std::span<const IndexEntry>()
                             : std::span<const IndexEntry>(delta_in_[v]);
  }

  uint64_t delta_entries() const { return delta_entries_; }

  /// Pending-mutation fraction of the sealed entry count — delta *and*
  /// tombstone entries both count as pending maintenance work; the reseal
  /// policy (dynamic_index.h) triggers on this.
  double DeltaRatio() const {
    const uint64_t base = sealed_ ? out_entries_.size() + in_entries_.size() : 0;
    return static_cast<double>(delta_entries_ + tombstone_entries_) /
           static_cast<double>(base == 0 ? 1 : base);
  }

  /// Folds the delta lists into the CSR arrays (per-vertex merge by hub
  /// access id; CSR entries precede deltas on ties), drops tombstoned CSR
  /// entries, and recomputes the exact vertex signatures, narrowing the
  /// conservative widening the appends applied. Queries answer identically
  /// before and after. Idempotent.
  void MergeDeltas();
  ///@}

  /// \name Tombstone overlay (edge-delete maintenance, dynamic_index.h)
  ///
  /// Sealed-only suppression path, the dual of the delta overlay. Callers
  /// must only suppress entries whose claimed reachability no longer holds
  /// (the maintenance layer proves this per entry); suppressing a valid
  /// entry would create false negatives.
  ///@{

  /// Removes the (hub_aid, mr) entry of Lout(v) / Lin(v) from the visible
  /// entry set: erases it when it is a pending delta, tombstones it when it
  /// is a CSR entry.
  /// \throws std::invalid_argument when no such visible entry exists.
  void SuppressOut(VertexId v, uint32_t hub_aid, MrId mr);
  void SuppressIn(VertexId v, uint32_t hub_aid, MrId mr);

  /// Tombstones a CSR entry directly (the index_io v5 load path).
  /// \throws std::invalid_argument when the CSR side holds no such entry or
  ///         it is already tombstoned.
  void AddTombstoneOut(VertexId v, uint32_t hub_aid, MrId mr);
  void AddTombstoneIn(VertexId v, uint32_t hub_aid, MrId mr);

  /// Pending tombstones of one vertex side, sorted by (hub access id, mr).
  std::span<const IndexEntry> TombLout(VertexId v) const {
    return tomb_out_.empty() ? std::span<const IndexEntry>()
                             : std::span<const IndexEntry>(tomb_out_[v]);
  }
  std::span<const IndexEntry> TombLin(VertexId v) const {
    return tomb_in_.empty() ? std::span<const IndexEntry>()
                            : std::span<const IndexEntry>(tomb_in_[v]);
  }

  uint64_t tombstone_entries() const { return tombstone_entries_; }
  ///@}

  /// Installs pre-built CSR storage and vertex signatures (the
  /// deserialization path). Offsets must be monotone with offsets.front()
  /// == 0, offsets.back() == entries.size() and size num_vertices()+1;
  /// entry lists must be sorted by hub access id. The signature arrays must
  /// have num_vertices() slots each and are installed as-is. The MR table
  /// must already hold every MR the entries reference (the query-time
  /// per-MR bits fold MR label sets).
  /// \throws std::invalid_argument on violation.
  void AdoptSealed(std::vector<uint64_t> out_offsets,
                   std::vector<IndexEntry> out_entries,
                   std::vector<uint64_t> in_offsets,
                   std::vector<IndexEntry> in_entries,
                   std::vector<uint64_t> out_sigs,
                   std::vector<uint64_t> in_sigs);
  ///@}

  /// \name Introspection
  ///@{
  std::span<const IndexEntry> Lout(VertexId v) const {
    return sealed_ ? Csr(out_offsets_, out_entries_, v)
                   : std::span<const IndexEntry>(out_[v]);
  }
  std::span<const IndexEntry> Lin(VertexId v) const {
    return sealed_ ? Csr(in_offsets_, in_entries_, v)
                   : std::span<const IndexEntry>(in_[v]);
  }
  const MrTable& mr_table() const { return mrs_; }

  /// True when (hub, mr) is *visible* in Lout(v) / Lin(v): delta overlay
  /// included, tombstoned entries excluded. O(log |list|).
  bool HasOutEntry(VertexId v, uint32_t hub_aid, MrId mr) const {
    return (ContainsEntry(Lout(v), hub_aid, mr) &&
            !ContainsEntry(TombLout(v), hub_aid, mr)) ||
           (delta_entries_ != 0 && ContainsEntry(DeltaLout(v), hub_aid, mr));
  }
  bool HasInEntry(VertexId v, uint32_t hub_aid, MrId mr) const {
    return (ContainsEntry(Lin(v), hub_aid, mr) &&
            !ContainsEntry(TombLin(v), hub_aid, mr)) ||
           (delta_entries_ != 0 && ContainsEntry(DeltaLin(v), hub_aid, mr));
  }

  /// Access id of vertex v (1-based, as in the paper).
  uint32_t AccessId(VertexId v) const { return aid_[v]; }

  /// Vertex with access id `aid`.
  VertexId VertexOfAid(uint32_t aid) const { return order_[aid - 1]; }

  /// Total number of *visible* index entries across all Lin/Lout lists:
  /// CSR entries minus tombstones, plus pending deltas.
  uint64_t NumEntries() const;

  /// Index size in bytes: entry lists + MR table + ordering arrays. This is
  /// the "index size" metric of the paper's Table IV.
  uint64_t MemoryBytes() const;
  ///@}

 private:
  /// Signature layout: bits [0,32) hub Bloom, [32,48) label mask, [48,64)
  /// MR Bloom. The split keeps label/MR refutation (negative probes whose
  /// MR is absent from a side) independent from hub refutation (probes
  /// whose sides share no hub).
  static constexpr uint64_t kSigHubMask = 0x00000000FFFFFFFFULL;

  static uint64_t HubSignatureBit(uint32_t hub_aid) {
    return uint64_t{1} << ((hub_aid * 0x9E3779B1u) >> 27);  // top 5 bits
  }
  static uint64_t MrBloomBit(MrId mr) {
    return uint64_t{1} << (48 + (((mr + 1) * 0x85EBCA77u) >> 28));
  }

  /// Signature of one entry list (used for unsealed writes and rebuilds).
  uint64_t ListSignature(std::span<const IndexEntry> entries) const;

  /// Fills the per-MR required-bit table and, unless `keep_vertex_sigs`
  /// (AdoptSealed installed them), out_sigs_/in_sigs_. Requires sealed CSR
  /// storage and a frozen MR table.
  void ComputeSignatures(bool keep_vertex_sigs);

  /// The sealed signature-guarded query: `needed` is mr_query_sig_[mr].
  bool QuerySealedSigned(VertexId s, VertexId t, MrId mr,
                         uint64_t needed) const;

  /// Shared body of the counted/uncounted group kernels; `stats` is only
  /// touched when kCounted (the uncounted instantiation is byte-identical
  /// to the historical loop).
  template <bool kCounted>
  void QueryGroupInternedImpl(MrId mr, std::span<const VertexPair> probes,
                              std::span<uint8_t> answers,
                              GroupQueryStats* stats) const;

  /// Delta-overlay continuation of a query whose CSR-only cases all failed:
  /// Case 2 against the endpoint delta lists plus the three Case-1 joins
  /// that involve a delta side. Only called when delta_entries_ != 0.
  bool QueryDeltaTail(VertexId s, VertexId t, MrId mr,
                      std::span<const IndexEntry> lout,
                      std::span<const IndexEntry> lin) const;

  /// Shared implementation of AddDeltaOut/AddDeltaIn.
  void AddDelta(std::vector<std::vector<IndexEntry>>& lists,
                std::vector<uint64_t>& sigs, VertexId v, uint32_t hub_aid,
                MrId mr);

  /// Shared implementation of SuppressOut/SuppressIn.
  void Suppress(std::vector<std::vector<IndexEntry>>& deltas,
                const std::vector<uint64_t>& offsets,
                const std::vector<IndexEntry>& entries, bool is_out,
                VertexId v, uint32_t hub_aid, MrId mr);

  /// Shared implementation of AddTombstoneOut/AddTombstoneIn.
  void AddTombstone(std::vector<std::vector<IndexEntry>>& tombs,
                    const std::vector<uint64_t>& offsets,
                    const std::vector<IndexEntry>& entries, VertexId v,
                    uint32_t hub_aid, MrId mr);

  /// ContainsEntry restricted to visible (non-tombstoned) entries.
  static bool ContainsVisibleEntry(std::span<const IndexEntry> entries,
                                   std::span<const IndexEntry> tombs,
                                   uint32_t hub_aid, MrId mr);

  /// Visibility-aware re-check of a raw JoinHasCommonHub hit: true when a
  /// common hub carries `mr` on both sides through entries that are not
  /// tombstoned. Trivially true when neither side has tombstones.
  static bool JoinVisibleCommonHub(std::span<const IndexEntry> lout,
                                   std::span<const IndexEntry> tout,
                                   std::span<const IndexEntry> lin,
                                   std::span<const IndexEntry> tin, MrId mr);

  /// Extends mr_query_sig_ to cover MRs interned after sealing.
  void EnsureMrSigs();

  static bool ContainsEntry(std::span<const IndexEntry> entries,
                            uint32_t hub_aid, MrId mr);

  /// Case-1 join: true iff some hub aid carries `mr` on both sides. For
  /// badly skewed pairs (hub vertices accumulate huge Lin/Lout lists while
  /// most vertices keep a handful of entries) the longer list is galloped;
  /// comparable pairs are compacted to the hub ids carrying `mr` (SIMD
  /// left-packing, util/simd.h) and intersected with the hybrid
  /// merge/block kernel.
  static bool JoinHasCommonHub(std::span<const IndexEntry> lout,
                               std::span<const IndexEntry> lin, MrId mr);
  static bool GallopJoin(std::span<const IndexEntry> small,
                         std::span<const IndexEntry> large, MrId mr);

  static std::span<const IndexEntry> Csr(const std::vector<uint64_t>& offsets,
                                         const std::vector<IndexEntry>& entries,
                                         VertexId v) {
    return std::span<const IndexEntry>(entries.data() + offsets[v],
                                       entries.data() + offsets[v + 1]);
  }

  uint32_t k_;
  bool sealed_ = false;
  bool use_signatures_ = true;
  // Build-phase storage (empty once sealed).
  std::vector<std::vector<IndexEntry>> out_;
  std::vector<std::vector<IndexEntry>> in_;
  // Sealed CSR storage (empty until sealed).
  std::vector<uint64_t> out_offsets_;
  std::vector<IndexEntry> out_entries_;
  std::vector<uint64_t> in_offsets_;
  std::vector<IndexEntry> in_entries_;
  // Delta overlay (sealed indexes only; empty on the static path). Lists
  // are sorted by hub access id, like the CSR entry lists.
  std::vector<std::vector<IndexEntry>> delta_out_;
  std::vector<std::vector<IndexEntry>> delta_in_;
  uint64_t delta_entries_ = 0;
  // Tombstone overlay (sealed indexes only): CSR entries suppressed by the
  // delete-maintenance path. Lists are sorted by (hub access id, mr) and
  // hold no duplicates.
  std::vector<std::vector<IndexEntry>> tomb_out_;
  std::vector<std::vector<IndexEntry>> tomb_in_;
  uint64_t tombstone_entries_ = 0;
  // Sealed signature storage (empty until sealed).
  std::vector<uint64_t> out_sigs_;  // vertex -> signature of Lout(v)
  std::vector<uint64_t> in_sigs_;   // vertex -> signature of Lin(v)
  std::vector<uint64_t> mr_query_sig_;  // mr -> bits a query for mr needs
  std::vector<uint32_t> aid_;       // vertex id -> access id (1-based)
  std::vector<VertexId> order_;     // access id - 1 -> vertex id
  MrTable mrs_;
};

}  // namespace rlc

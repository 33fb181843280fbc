#include "rlc/core/rlc_index.h"

#include <algorithm>

#include "rlc/util/simd.h"

namespace rlc {

namespace {

/// Entry-list pairs more than this factor apart in length are joined by
/// galloping over the raw lists instead of filter-and-intersect (filtering
/// would touch every entry of the huge list — exactly what galloping
/// avoids).
constexpr size_t kGallopRatio = 16;

/// First position in `entries[lo..)` whose hub_aid is >= `aid`, found by
/// exponential probing followed by binary search. O(log distance).
size_t GallopLowerBound(std::span<const IndexEntry> entries, size_t lo,
                        uint32_t aid) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < entries.size() && entries[hi].hub_aid < aid) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, entries.size());
  const auto it = std::lower_bound(
      entries.begin() + static_cast<ptrdiff_t>(lo),
      entries.begin() + static_cast<ptrdiff_t>(hi), aid,
      [](const IndexEntry& e, uint32_t a) { return e.hub_aid < a; });
  return static_cast<size_t>(it - entries.begin());
}

}  // namespace

void RlcIndex::ValidateConstraint(const LabelSeq& constraint, uint32_t k) {
  RLC_REQUIRE(!constraint.empty(), "RlcIndex::ValidateConstraint: empty constraint");
  RLC_REQUIRE(constraint.size() <= k,
              "RlcIndex::ValidateConstraint: |L|="
                  << constraint.size() << " exceeds the index's recursive k=" << k);
  RLC_REQUIRE(IsPrimitive(constraint.labels()),
              "RlcIndex::ValidateConstraint: constraint " << constraint.ToString()
                  << " is not a minimum repeat (L != MR(L)); such queries add a"
                     " path-length constraint and are outside the RLC class");
}

bool RlcIndex::Query(VertexId s, VertexId t, const LabelSeq& constraint) const {
  RLC_REQUIRE(s < num_vertices() && t < num_vertices(),
              "RlcIndex::Query: vertex out of range");
  ValidateConstraint(constraint, k_);
  return QueryInterned(s, t, mrs_.Find(constraint));
}

bool RlcIndex::QueryStar(VertexId s, VertexId t, const LabelSeq& constraint) const {
  if (s == t) {
    RLC_REQUIRE(s < num_vertices(), "RlcIndex::QueryStar: vertex out of range");
    return true;
  }
  return Query(s, t, constraint);
}

bool RlcIndex::QueryInterned(VertexId s, VertexId t, MrId mr) const {
  if (mr == kInvalidMrId) return false;
  // The signature guard covers sealed indexes with a frozen MR table; an mr
  // beyond the table snapshot (only possible through the builder's own
  // mid-build probes) falls through to the unguarded path.
  if (use_signatures_ && mr < mr_query_sig_.size()) {
    return QuerySealedSigned(s, t, mr, mr_query_sig_[mr]);
  }

  const std::span<const IndexEntry> lout = Lout(s);
  const std::span<const IndexEntry> lin = Lin(t);

  // Case 2: (t,L) ∈ Lout(s) or (s,L) ∈ Lin(t), tombstoned entries excluded.
  if (ContainsVisibleEntry(lout, TombLout(s), aid_[t], mr)) return true;
  if (ContainsVisibleEntry(lin, TombLin(t), aid_[s], mr)) return true;

  // Case 1: a common hub carrying L on both sides. The raw (possibly
  // tombstone-polluted) join runs first as a filter: tombstones only remove
  // entries, so a false join is final and the visibility-aware re-join runs
  // only for the rare true hit on a tombstoned endpoint.
  if (JoinHasCommonHub(lout, lin, mr) &&
      JoinVisibleCommonHub(lout, TombLout(s), lin, TombLin(t), mr)) {
    return true;
  }
  return delta_entries_ != 0 && QueryDeltaTail(s, t, mr, lout, lin);
}

bool RlcIndex::QueryDeltaTail(VertexId s, VertexId t, MrId mr,
                              std::span<const IndexEntry> lout,
                              std::span<const IndexEntry> lin) const {
  const std::span<const IndexEntry> dout = DeltaLout(s);
  const std::span<const IndexEntry> din = DeltaLin(t);
  if (dout.empty() && din.empty()) return false;
  // Case 2 against the delta lists (which never hold tombstoned entries).
  if (ContainsEntry(dout, aid_[t], mr)) return true;
  if (ContainsEntry(din, aid_[s], mr)) return true;
  // Case 1 joins with at least one delta side (CSR x CSR already ran). The
  // CSR side of a mixed join may hold tombstoned entries, so a raw hit is
  // re-verified visibility-aware, exactly like the main join.
  if (JoinHasCommonHub(dout, lin, mr) &&
      JoinVisibleCommonHub(dout, {}, lin, TombLin(t), mr)) {
    return true;
  }
  if (JoinHasCommonHub(lout, din, mr) &&
      JoinVisibleCommonHub(lout, TombLout(s), din, {}, mr)) {
    return true;
  }
  return JoinHasCommonHub(dout, din, mr);
}

bool RlcIndex::QuerySealedSigned(VertexId s, VertexId t, MrId mr,
                                 uint64_t needed) const {
  const uint64_t so = out_sigs_[s];
  const uint64_t si = in_sigs_[t];
  // A true answer needs an entry carrying `mr` in Lout(s) (Cases 1 and
  // 2-out) or in Lin(t) (Cases 1 and 2-in): when both sides provably lack
  // the MR, the probe is refuted from the two signature loads alone.
  const bool out_may = (so & needed) == needed;
  const bool in_may = (si & needed) == needed;
  if (!out_may && !in_may) return false;

  // Tombstones leave the signatures conservatively wide, so the guards
  // above stay sound; raw-list hits below are re-checked for visibility.
  const std::span<const IndexEntry> lout = Lout(s);
  const std::span<const IndexEntry> lin = Lin(t);

  // Case 2, each side additionally guarded by the other endpoint's hub bit.
  if (out_may && (so & HubSignatureBit(aid_[t])) != 0 &&
      ContainsVisibleEntry(lout, TombLout(s), aid_[t], mr)) {
    return true;
  }
  if (in_may && (si & HubSignatureBit(aid_[s])) != 0 &&
      ContainsVisibleEntry(lin, TombLin(t), aid_[s], mr)) {
    return true;
  }

  // Case 1 needs the MR on both sides and at least one shared hub bit; a
  // raw join hit on a tombstoned endpoint is re-verified (see
  // QueryInterned).
  if (out_may && in_may && (so & si & kSigHubMask) != 0 &&
      JoinHasCommonHub(lout, lin, mr) &&
      JoinVisibleCommonHub(lout, TombLout(s), lin, TombLin(t), mr)) {
    return true;
  }
  // Delta appends widen the vertex signatures, so a probe whose witness
  // entry lives in a delta list survives the guards above and lands here.
  return delta_entries_ != 0 && QueryDeltaTail(s, t, mr, lout, lin);
}

template <bool kCounted>
void RlcIndex::QueryGroupInternedImpl(MrId mr,
                                      std::span<const VertexPair> probes,
                                      std::span<uint8_t> answers,
                                      GroupQueryStats* stats) const {
  RLC_DCHECK(answers.size() == probes.size());
  if (mr == kInvalidMrId) {
    std::fill(answers.begin(), answers.end(), uint8_t{0});
    if constexpr (kCounted) stats->probes += probes.size();
    return;
  }
  if (!sealed_) {
    uint64_t hits = 0;
    for (size_t i = 0; i < probes.size(); ++i) {
      const bool a = QueryInterned(probes[i].s, probes[i].t, mr);
      answers[i] = a ? 1 : 0;
      if constexpr (kCounted) hits += a;
    }
    if constexpr (kCounted) {
      stats->probes += probes.size();
      stats->hits += hits;
    }
    return;
  }
  // Two-stage lookahead: by the time a probe is merged-joined, its offset
  // and signature loads were issued kOffsetLead probes ago and its
  // entry-buffer loads kEntryLead probes ago (the entry prefetch needs the
  // offsets resident, hence the shorter distance). 8/4 measured best on the
  // 20K/100K ER workload; beyond ~16 the prefetches start evicting
  // still-needed lines.
  constexpr size_t kOffsetLead = 8;
  constexpr size_t kEntryLead = 4;
  const bool with_sigs = use_signatures_ && mr < mr_query_sig_.size();
  const uint64_t needed = with_sigs ? mr_query_sig_[mr] : 0;
  const size_t n = probes.size();
  [[maybe_unused]] uint64_t sig_refuted = 0;
  [[maybe_unused]] uint64_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i + kOffsetLead < n) {
      const VertexPair& p = probes[i + kOffsetLead];
      PrefetchRead(&out_offsets_[p.s]);
      PrefetchRead(&in_offsets_[p.t]);
      PrefetchRead(&aid_[p.s]);
      PrefetchRead(&aid_[p.t]);
      if (with_sigs) {
        PrefetchRead(&out_sigs_[p.s]);
        PrefetchRead(&in_sigs_[p.t]);
      }
    }
    if (i + kEntryLead < n) {
      const VertexPair& p = probes[i + kEntryLead];
      PrefetchRead(out_entries_.data() + out_offsets_[p.s]);
      PrefetchRead(in_entries_.data() + in_offsets_[p.t]);
    }
    bool a;
    if (with_sigs) {
      if constexpr (kCounted) {
        // Count the two-load refutation inline: re-checking the signature
        // guard here keeps QuerySealedSigned untouched, and the loads are
        // L1-resident (the guard inside re-reads the same lines).
        const bool out_may = (out_sigs_[probes[i].s] & needed) == needed;
        const bool in_may = (in_sigs_[probes[i].t] & needed) == needed;
        if (!out_may && !in_may) {
          ++sig_refuted;
          a = false;
        } else {
          a = QuerySealedSigned(probes[i].s, probes[i].t, mr, needed);
        }
      } else {
        a = QuerySealedSigned(probes[i].s, probes[i].t, mr, needed);
      }
    } else {
      a = QueryInterned(probes[i].s, probes[i].t, mr);
    }
    answers[i] = a ? 1 : 0;
    if constexpr (kCounted) hits += a;
  }
  if constexpr (kCounted) {
    stats->probes += n;
    stats->sig_refuted += sig_refuted;
    stats->hits += hits;
  }
}

void RlcIndex::QueryGroupInterned(MrId mr, std::span<const VertexPair> probes,
                                  std::span<uint8_t> answers) const {
  QueryGroupInternedImpl<false>(mr, probes, answers, nullptr);
}

void RlcIndex::QueryGroupInterned(MrId mr, std::span<const VertexPair> probes,
                                  std::span<uint8_t> answers,
                                  GroupQueryStats* stats) const {
  if (stats == nullptr) {
    QueryGroupInternedImpl<false>(mr, probes, answers, nullptr);
  } else {
    QueryGroupInternedImpl<true>(mr, probes, answers, stats);
  }
}

bool RlcIndex::JoinHasCommonHub(std::span<const IndexEntry> lout,
                                std::span<const IndexEntry> lin, MrId mr) {
  if (lout.empty() || lin.empty()) return false;
  // Extreme skew: gallop over the raw entry lists, never touching most of
  // the long one.
  if (lout.size() > lin.size() * kGallopRatio) return GallopJoin(lin, lout, mr);
  if (lin.size() > lout.size() * kGallopRatio) return GallopJoin(lout, lin, mr);

  // Comparable lengths: left-pack each side to the hub access ids that
  // carry `mr` (branch-free, SIMD when available), then run the hybrid
  // existence intersection over the two sorted hub arrays. The builder
  // never stores duplicate (hub, mr) pairs, so the packed arrays are
  // strictly increasing — and the kernels tolerate duplicates anyway.
  thread_local std::vector<uint32_t> packed_out;
  thread_local std::vector<uint32_t> packed_in;
  if (packed_out.size() < lout.size()) packed_out.resize(lout.size());
  if (packed_in.size() < lin.size()) packed_in.resize(lin.size());
  static_assert(sizeof(IndexEntry) == 2 * sizeof(uint32_t));
  const size_t na = simd::FilterFirstBySecond(
      reinterpret_cast<const uint32_t*>(lout.data()), lout.size(), mr,
      packed_out.data());
  if (na == 0) return false;
  const size_t nb = simd::FilterFirstBySecond(
      reinterpret_cast<const uint32_t*>(lin.data()), lin.size(), mr,
      packed_in.data());
  if (nb == 0) return false;
  return simd::HasCommonElement(packed_out.data(), na, packed_in.data(), nb);
}

bool RlcIndex::GallopJoin(std::span<const IndexEntry> small,
                          std::span<const IndexEntry> large, MrId mr) {
  size_t lo = 0;  // galloping resumes where the previous group ended
  for (size_t i = 0; i < small.size();) {
    const uint32_t aid = small[i].hub_aid;
    bool small_has = false;
    while (i < small.size() && small[i].hub_aid == aid) {
      small_has |= (small[i].mr == mr);
      ++i;
    }
    if (!small_has) continue;
    lo = GallopLowerBound(large, lo, aid);
    for (size_t j = lo; j < large.size() && large[j].hub_aid == aid; ++j) {
      if (large[j].mr == mr) return true;
    }
    if (lo == large.size()) return false;  // everything left is larger
  }
  return false;
}

bool RlcIndex::ContainsEntry(std::span<const IndexEntry> entries,
                             uint32_t hub_aid, MrId mr) {
  auto it = std::lower_bound(entries.begin(), entries.end(), hub_aid,
                             [](const IndexEntry& e, uint32_t aid) {
                               return e.hub_aid < aid;
                             });
  for (; it != entries.end() && it->hub_aid == hub_aid; ++it) {
    if (it->mr == mr) return true;
  }
  return false;
}

bool RlcIndex::ContainsVisibleEntry(std::span<const IndexEntry> entries,
                                    std::span<const IndexEntry> tombs,
                                    uint32_t hub_aid, MrId mr) {
  // (hub, mr) pairs are unique per list, so visibility is one extra lookup
  // — and only on a hit against a vertex that has tombstones at all.
  return ContainsEntry(entries, hub_aid, mr) &&
         (tombs.empty() || !ContainsEntry(tombs, hub_aid, mr));
}

bool RlcIndex::JoinVisibleCommonHub(std::span<const IndexEntry> lout,
                                    std::span<const IndexEntry> tout,
                                    std::span<const IndexEntry> lin,
                                    std::span<const IndexEntry> tin, MrId mr) {
  // Only reached after a raw join hit; with no tombstones on either side
  // the hit is exact. Otherwise re-join scalar, skipping suppressed
  // entries — positives on tombstoned endpoints are rare enough that the
  // O(|lout| + |lin|) sweep never shows on the profile.
  if (tout.empty() && tin.empty()) return true;
  size_t i = 0;
  size_t j = 0;
  while (i < lout.size() && j < lin.size()) {
    const uint32_t a = lout[i].hub_aid;
    const uint32_t b = lin[j].hub_aid;
    if (a < b) {
      ++i;
      continue;
    }
    if (b < a) {
      ++j;
      continue;
    }
    bool out_has = false;
    for (; i < lout.size() && lout[i].hub_aid == a; ++i) {
      out_has |= lout[i].mr == mr;
    }
    bool in_has = false;
    for (; j < lin.size() && lin[j].hub_aid == a; ++j) {
      in_has |= lin[j].mr == mr;
    }
    if (out_has && in_has && !ContainsEntry(tout, a, mr) &&
        !ContainsEntry(tin, a, mr)) {
      return true;
    }
  }
  return false;
}

void RlcIndex::SetAccessOrder(std::vector<VertexId> order_to_vertex) {
  RLC_REQUIRE(order_to_vertex.size() == aid_.size(),
              "SetAccessOrder: order size mismatch");
  order_ = std::move(order_to_vertex);
  for (uint32_t i = 0; i < order_.size(); ++i) {
    RLC_REQUIRE(order_[i] < aid_.size(), "SetAccessOrder: vertex out of range");
    aid_[order_[i]] = i + 1;  // access ids are 1-based, as in the paper
  }
}

void RlcIndex::AddOut(VertexId v, uint32_t hub_aid, MrId mr) {
  RLC_CHECK_MSG(!sealed_, "RlcIndex::AddOut: index is sealed");
  RLC_DCHECK(v < out_.size());
  RLC_DCHECK(out_[v].empty() || out_[v].back().hub_aid <= hub_aid);
  out_[v].push_back({hub_aid, mr});
}

void RlcIndex::AddIn(VertexId v, uint32_t hub_aid, MrId mr) {
  RLC_CHECK_MSG(!sealed_, "RlcIndex::AddIn: index is sealed");
  RLC_DCHECK(v < in_.size());
  RLC_DCHECK(in_[v].empty() || in_[v].back().hub_aid <= hub_aid);
  in_[v].push_back({hub_aid, mr});
}

namespace {

void Flatten(std::vector<std::vector<IndexEntry>>& lists,
             std::vector<uint64_t>& offsets, std::vector<IndexEntry>& entries) {
  offsets.resize(lists.size() + 1);
  uint64_t total = 0;
  for (size_t v = 0; v < lists.size(); ++v) {
    offsets[v] = total;
    total += lists[v].size();
  }
  offsets[lists.size()] = total;
  entries.reserve(total);
  for (auto& list : lists) {
    entries.insert(entries.end(), list.begin(), list.end());
  }
  lists.clear();
  lists.shrink_to_fit();
}

}  // namespace

uint64_t RlcIndex::LabelSignature(std::span<const Label> labels) {
  uint64_t bits = 0;
  for (const Label l : labels) bits |= uint64_t{1} << (32 + (l & 15));
  return bits;
}

uint64_t RlcIndex::ListSignature(std::span<const IndexEntry> entries) const {
  uint64_t sig = 0;
  for (const IndexEntry& e : entries) {
    sig |= HubSignatureBit(e.hub_aid) |
           LabelSignature(mrs_.Get(e.mr).labels()) | MrBloomBit(e.mr);
  }
  return sig;
}

void RlcIndex::ComputeSignatures(bool keep_vertex_sigs) {
  RLC_DCHECK(sealed_);
  // Per-MR required bits, reused both here (folding entry contributions)
  // and by every signature-guarded query.
  mr_query_sig_.resize(mrs_.size());
  for (MrId id = 0; id < mrs_.size(); ++id) {
    mr_query_sig_[id] = LabelSignature(mrs_.Get(id).labels()) | MrBloomBit(id);
  }
  if (keep_vertex_sigs) return;
  const VertexId n = num_vertices();
  out_sigs_.assign(n, 0);
  in_sigs_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t sig = 0;
    for (const IndexEntry& e : Csr(out_offsets_, out_entries_, v)) {
      sig |= HubSignatureBit(e.hub_aid) | mr_query_sig_[e.mr];
    }
    out_sigs_[v] = sig;
    sig = 0;
    for (const IndexEntry& e : Csr(in_offsets_, in_entries_, v)) {
      sig |= HubSignatureBit(e.hub_aid) | mr_query_sig_[e.mr];
    }
    in_sigs_[v] = sig;
  }
}

void RlcIndex::Seal() {
  if (sealed_) return;
  Flatten(out_, out_offsets_, out_entries_);
  Flatten(in_, in_offsets_, in_entries_);
  sealed_ = true;
  ComputeSignatures(/*keep_vertex_sigs=*/false);
}

void RlcIndex::AdoptSealed(std::vector<uint64_t> out_offsets,
                           std::vector<IndexEntry> out_entries,
                           std::vector<uint64_t> in_offsets,
                           std::vector<IndexEntry> in_entries,
                           std::vector<uint64_t> out_sigs,
                           std::vector<uint64_t> in_sigs) {
  RLC_CHECK_MSG(!sealed_ && NumEntries() == 0,
                "RlcIndex::AdoptSealed: index already has entries");
  RLC_REQUIRE(out_sigs.size() == aid_.size() && in_sigs.size() == aid_.size(),
              "AdoptSealed: signature array size mismatch");
  auto validate = [&](const std::vector<uint64_t>& offsets,
                      const std::vector<IndexEntry>& entries) {
    RLC_REQUIRE(offsets.size() == aid_.size() + 1,
                "AdoptSealed: offset array size mismatch");
    RLC_REQUIRE(offsets.front() == 0 && offsets.back() == entries.size(),
                "AdoptSealed: offsets do not cover the entry buffer");
    // Full monotonicity before any entries[] access: only once every offset
    // is known to be <= offsets.back() == entries.size() is the sortedness
    // scan below in bounds (a corrupt [0, big, small, ..., size] prefix
    // passes the front/back check but indexes past the buffer).
    for (size_t v = 0; v + 1 < offsets.size(); ++v) {
      RLC_REQUIRE(offsets[v] <= offsets[v + 1],
                  "AdoptSealed: offsets not monotone");
    }
    for (size_t v = 0; v + 1 < offsets.size(); ++v) {
      for (uint64_t i = offsets[v]; i + 1 < offsets[v + 1]; ++i) {
        RLC_REQUIRE(entries[i].hub_aid <= entries[i + 1].hub_aid,
                    "AdoptSealed: entry list not sorted by access id");
      }
    }
  };
  validate(out_offsets, out_entries);
  validate(in_offsets, in_entries);
  out_offsets_ = std::move(out_offsets);
  out_entries_ = std::move(out_entries);
  in_offsets_ = std::move(in_offsets);
  in_entries_ = std::move(in_entries);
  out_sigs_ = std::move(out_sigs);
  in_sigs_ = std::move(in_sigs);
  out_.clear();
  out_.shrink_to_fit();
  in_.clear();
  in_.shrink_to_fit();
  sealed_ = true;
  ComputeSignatures(/*keep_vertex_sigs=*/true);
}

void RlcIndex::AddDeltaOut(VertexId v, uint32_t hub_aid, MrId mr) {
  AddDelta(delta_out_, out_sigs_, v, hub_aid, mr);
}

void RlcIndex::AddDeltaIn(VertexId v, uint32_t hub_aid, MrId mr) {
  AddDelta(delta_in_, in_sigs_, v, hub_aid, mr);
}

void RlcIndex::AddDelta(std::vector<std::vector<IndexEntry>>& lists,
                        std::vector<uint64_t>& sigs, VertexId v,
                        uint32_t hub_aid, MrId mr) {
  RLC_CHECK_MSG(sealed_, "RlcIndex::AddDelta: delta overlay requires a sealed index");
  RLC_DCHECK(v < aid_.size());
  RLC_DCHECK(mr < mrs_.size());
  if (lists.empty()) lists.resize(aid_.size());
  EnsureMrSigs();
  std::vector<IndexEntry>& list = lists[v];
  const auto it = std::upper_bound(
      list.begin(), list.end(), hub_aid,
      [](uint32_t aid, const IndexEntry& e) { return aid < e.hub_aid; });
  list.insert(it, {hub_aid, mr});
  // Conservative widening: refutation stays sound, and MergeDeltas narrows
  // the signature back to the exact fold.
  sigs[v] |= HubSignatureBit(hub_aid) | mr_query_sig_[mr];
  ++delta_entries_;
}

void RlcIndex::SuppressOut(VertexId v, uint32_t hub_aid, MrId mr) {
  Suppress(delta_out_, out_offsets_, out_entries_, /*is_out=*/true, v, hub_aid,
           mr);
}

void RlcIndex::SuppressIn(VertexId v, uint32_t hub_aid, MrId mr) {
  Suppress(delta_in_, in_offsets_, in_entries_, /*is_out=*/false, v, hub_aid,
           mr);
}

void RlcIndex::Suppress(std::vector<std::vector<IndexEntry>>& deltas,
                        const std::vector<uint64_t>& offsets,
                        const std::vector<IndexEntry>& entries, bool is_out,
                        VertexId v, uint32_t hub_aid, MrId mr) {
  RLC_CHECK_MSG(sealed_, "RlcIndex::Suppress: requires a sealed index");
  RLC_DCHECK(v < aid_.size());
  // A pending delta is mutable storage: erase it outright instead of
  // carrying a tombstone for it.
  if (!deltas.empty()) {
    std::vector<IndexEntry>& list = deltas[v];
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (it->hub_aid == hub_aid && it->mr == mr) {
        list.erase(it);
        --delta_entries_;
        return;
      }
    }
  }
  if (is_out) {
    AddTombstone(tomb_out_, offsets, entries, v, hub_aid, mr);
  } else {
    AddTombstone(tomb_in_, offsets, entries, v, hub_aid, mr);
  }
}

void RlcIndex::AddTombstoneOut(VertexId v, uint32_t hub_aid, MrId mr) {
  RLC_CHECK_MSG(sealed_, "RlcIndex::AddTombstoneOut: requires a sealed index");
  AddTombstone(tomb_out_, out_offsets_, out_entries_, v, hub_aid, mr);
}

void RlcIndex::AddTombstoneIn(VertexId v, uint32_t hub_aid, MrId mr) {
  RLC_CHECK_MSG(sealed_, "RlcIndex::AddTombstoneIn: requires a sealed index");
  AddTombstone(tomb_in_, in_offsets_, in_entries_, v, hub_aid, mr);
}

void RlcIndex::AddTombstone(std::vector<std::vector<IndexEntry>>& tombs,
                            const std::vector<uint64_t>& offsets,
                            const std::vector<IndexEntry>& entries, VertexId v,
                            uint32_t hub_aid, MrId mr) {
  RLC_REQUIRE(ContainsEntry(Csr(offsets, entries, v), hub_aid, mr),
              "RlcIndex::AddTombstone: no CSR entry (hub " << hub_aid << ", mr "
                  << mr << ") at vertex " << v);
  if (tombs.empty()) tombs.resize(aid_.size());
  std::vector<IndexEntry>& list = tombs[v];
  const IndexEntry entry{hub_aid, mr};
  const auto it = std::lower_bound(
      list.begin(), list.end(), entry, [](const IndexEntry& a, const IndexEntry& b) {
        return a.hub_aid != b.hub_aid ? a.hub_aid < b.hub_aid : a.mr < b.mr;
      });
  RLC_REQUIRE(it == list.end() || !(it->hub_aid == hub_aid && it->mr == mr),
              "RlcIndex::AddTombstone: entry (hub " << hub_aid << ", mr " << mr
                  << ") at vertex " << v << " is already tombstoned");
  list.insert(it, entry);
  ++tombstone_entries_;
}

void RlcIndex::EnsureMrSigs() {
  for (MrId id = static_cast<MrId>(mr_query_sig_.size()); id < mrs_.size();
       ++id) {
    mr_query_sig_.push_back(LabelSignature(mrs_.Get(id).labels()) |
                            MrBloomBit(id));
  }
}

namespace {

/// Per-vertex two-pointer merge of the CSR side with its delta lists,
/// dropping tombstoned CSR entries; surviving CSR entries precede delta
/// entries on equal hub access ids. The tombstone list is consumed with
/// its own cursor — both lists are hub-sorted, so the merge stays linear
/// even for hub vertices dense with tombstones.
void MergeSide(std::vector<uint64_t>& offsets, std::vector<IndexEntry>& entries,
               std::vector<std::vector<IndexEntry>>& deltas,
               const std::vector<std::vector<IndexEntry>>& tombs) {
  uint64_t extra = 0;
  for (const auto& d : deltas) extra += d.size();
  uint64_t dropped = 0;
  for (const auto& t : tombs) dropped += t.size();
  if (extra == 0 && dropped == 0) return;
  std::vector<uint64_t> new_offsets(offsets.size());
  std::vector<IndexEntry> merged;
  merged.reserve(entries.size() + extra - dropped);
  const size_t n = offsets.size() - 1;
  for (size_t v = 0; v < n; ++v) {
    new_offsets[v] = merged.size();
    const IndexEntry* base = entries.data() + offsets[v];
    const IndexEntry* base_end = entries.data() + offsets[v + 1];
    const std::vector<IndexEntry>* d = deltas.empty() ? nullptr : &deltas[v];
    const std::vector<IndexEntry>* t = tombs.empty() ? nullptr : &tombs[v];
    size_t j = 0;
    size_t ti = 0;
    for (; base != base_end; ++base) {
      if (d != nullptr) {
        while (j < d->size() && (*d)[j].hub_aid < base->hub_aid) {
          merged.push_back((*d)[j++]);
        }
      }
      bool tombstoned = false;
      if (t != nullptr) {
        while (ti < t->size() && (*t)[ti].hub_aid < base->hub_aid) ++ti;
        // Scan the (tiny) equal-hub tie range without consuming it: several
        // base entries can share the hub with distinct MRs.
        for (size_t x = ti; x < t->size() && (*t)[x].hub_aid == base->hub_aid;
             ++x) {
          if ((*t)[x].mr == base->mr) {
            tombstoned = true;
            break;
          }
        }
      }
      if (!tombstoned) merged.push_back(*base);
    }
    if (d != nullptr) {
      merged.insert(merged.end(), d->begin() + static_cast<ptrdiff_t>(j),
                    d->end());
    }
  }
  new_offsets[n] = merged.size();
  offsets = std::move(new_offsets);
  entries = std::move(merged);
}

}  // namespace

void RlcIndex::MergeDeltas() {
  RLC_CHECK_MSG(sealed_, "RlcIndex::MergeDeltas: index must be sealed");
  if (delta_entries_ == 0 && tombstone_entries_ == 0) return;
  MergeSide(out_offsets_, out_entries_, delta_out_, tomb_out_);
  MergeSide(in_offsets_, in_entries_, delta_in_, tomb_in_);
  delta_out_.clear();
  delta_out_.shrink_to_fit();
  delta_in_.clear();
  delta_in_.shrink_to_fit();
  delta_entries_ = 0;
  tomb_out_.clear();
  tomb_out_.shrink_to_fit();
  tomb_in_.clear();
  tomb_in_.shrink_to_fit();
  tombstone_entries_ = 0;
  ComputeSignatures(/*keep_vertex_sigs=*/false);
}

uint64_t RlcIndex::NumEntries() const {
  if (sealed_) {
    return out_entries_.size() + in_entries_.size() + delta_entries_ -
           tombstone_entries_;
  }
  uint64_t total = 0;
  for (const auto& e : out_) total += e.size();
  for (const auto& e : in_) total += e.size();
  return total;
}

uint64_t RlcIndex::MemoryBytes() const {
  uint64_t bytes = mrs_.MemoryBytes();
  bytes += aid_.capacity() * sizeof(uint32_t);
  bytes += order_.capacity() * sizeof(VertexId);
  if (sealed_) {
    bytes += (out_offsets_.capacity() + in_offsets_.capacity()) * sizeof(uint64_t);
    bytes += (out_entries_.capacity() + in_entries_.capacity()) * sizeof(IndexEntry);
    bytes += (out_sigs_.capacity() + in_sigs_.capacity() +
              mr_query_sig_.capacity()) *
             sizeof(uint64_t);
    bytes += (delta_entries_ + tombstone_entries_) * sizeof(IndexEntry);
    bytes += (delta_out_.size() + delta_in_.size() + tomb_out_.size() +
              tomb_in_.size()) *
             sizeof(std::vector<IndexEntry>);
  } else {
    for (const auto& e : out_) bytes += e.size() * sizeof(IndexEntry);
    for (const auto& e : in_) bytes += e.size() * sizeof(IndexEntry);
    // Per-vertex vector headers are part of the materialized index.
    bytes += (out_.size() + in_.size()) * sizeof(std::vector<IndexEntry>);
  }
  return bytes;
}

}  // namespace rlc

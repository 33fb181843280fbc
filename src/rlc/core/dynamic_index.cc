#include "rlc/core/dynamic_index.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

#include "rlc/obs/trace.h"
#include "rlc/util/timer.h"

namespace {

// Process-wide dynamic-index telemetry (global registry): per-shard
// instances aggregate here, which is what capacity planning wants —
// "how long do reseals take", not "which of 64 shards resealed".
struct DynMetrics {
  rlc::obs::Histogram& insert_ns;
  rlc::obs::Histogram& delete_ns;
  rlc::obs::Histogram& reseal_merge_ns;
  rlc::obs::Counter& reseals;
  static DynMetrics& Get() {
    rlc::obs::Registry& reg = rlc::obs::Registry::Global();
    static DynMetrics m{reg.GetHistogram("dyn.insert_ns"),
                        reg.GetHistogram("dyn.delete_ns"),
                        reg.GetHistogram("dyn.reseal.merge_ns"),
                        reg.GetCounter("dyn.reseal.count")};
    return m;
  }
};

}  // namespace

namespace rlc {

namespace {

struct VertexSeq {
  VertexId v;
  LabelSeq seq;
  friend bool operator==(const VertexSeq&, const VertexSeq&) = default;
};

struct VertexSeqHash {
  uint64_t operator()(const VertexSeq& vs) const {
    return vs.seq.Hash() * 0x9E3779B97F4A7C15ULL + vs.v;
  }
};

}  // namespace

DynamicRlcIndex::DynamicRlcIndex(const DiGraph& g, RlcIndex index,
                                 ResealPolicy policy)
    : g_(g),
      policy_(policy),
      index_(std::move(index)) {
  RLC_REQUIRE(index_.sealed(),
              "DynamicRlcIndex: the wrapped index must be sealed");
  RLC_REQUIRE(index_.num_vertices() == g.num_vertices(),
              "DynamicRlcIndex: index and graph vertex counts differ");
}

bool DynamicRlcIndex::BaseEdgeRemoved(VertexId u, Label l, VertexId v) const {
  return EdgeShadowed(/*backward=*/false, u, {v, l});
}

bool DynamicRlcIndex::HasEdge(VertexId u, Label label, VertexId v) const {
  if (g_.HasEdge(u, v, label) && !BaseEdgeRemoved(u, label, v)) return true;
  if (extra_out_.empty()) return false;
  for (const LabeledNeighbor& nb : extra_out_[u]) {
    if (nb.v == v && nb.label == label) return true;
  }
  return false;
}

namespace {

bool EraseNeighbor(std::vector<LabeledNeighbor>& list, VertexId v, Label l) {
  const auto it = std::find(list.begin(), list.end(), LabeledNeighbor{v, l});
  if (it == list.end()) return false;
  list.erase(it);
  return true;
}

void EraseUpdateRecord(std::vector<EdgeUpdate>& log, VertexId u, Label l,
                       VertexId v) {
  const auto it =
      std::find_if(log.begin(), log.end(), [&](const EdgeUpdate& e) {
        return e.src == u && e.label == l && e.dst == v;
      });
  RLC_DCHECK(it != log.end());
  log.erase(it);
}

}  // namespace

void DynamicRlcIndex::RemoveGraphEdge(VertexId u, Label l, VertexId v) {
  if (!extra_out_.empty() && EraseNeighbor(extra_out_[u], v, l)) {
    EraseNeighbor(extra_in_[v], u, l);
    EraseUpdateRecord(inserted_, u, l, v);
    return;
  }
  if (removed_out_.empty()) {
    removed_out_.resize(g_.num_vertices());
    removed_in_.resize(g_.num_vertices());
  }
  removed_out_[u].push_back({v, l});
  removed_in_[v].push_back({u, l});
  removed_.push_back({u, l, v, EdgeOp::kDelete});
}

bool DynamicRlcIndex::InsertEdge(VertexId u, Label label, VertexId v) {
  RLC_REQUIRE(u < g_.num_vertices() && v < g_.num_vertices(),
              "DynamicRlcIndex::InsertEdge: vertex out of range");
  RLC_REQUIRE(label < g_.num_labels(),
              "DynamicRlcIndex::InsertEdge: label " << label
                  << " outside the base graph's alphabet (new labels require"
                     " a rebuild)");
  obs::ScopedSpan span(DynMetrics::Get().insert_ns, "dyn.insert");
  if (HasEdge(u, label, v)) {
    ++stats_.edges_duplicate;
    return false;
  }
  if (BaseEdgeRemoved(u, label, v)) {
    // A previously deleted base edge returns: un-shadow it instead of
    // duplicating it in the overlay.
    EraseNeighbor(removed_out_[u], v, label);
    EraseNeighbor(removed_in_[v], u, label);
    EraseUpdateRecord(removed_, u, label, v);
  } else {
    if (extra_out_.empty()) {
      extra_out_.resize(g_.num_vertices());
      extra_in_.resize(g_.num_vertices());
    }
    extra_out_[u].push_back({v, label});
    extra_in_[v].push_back({u, label});
    inserted_.push_back({u, label, v});
  }
  IncrementalUpdate(u, label, v);
  ++stats_.edges_inserted;
  MaybeReseal();
  return true;
}

bool DynamicRlcIndex::DeleteEdge(VertexId u, Label label, VertexId v) {
  RLC_REQUIRE(u < g_.num_vertices() && v < g_.num_vertices(),
              "DynamicRlcIndex::DeleteEdge: vertex out of range");
  RLC_REQUIRE(label < g_.num_labels(),
              "DynamicRlcIndex::DeleteEdge: label " << label
                  << " outside the base graph's alphabet");
  obs::ScopedSpan span(DynMetrics::Get().delete_ns, "dyn.delete");
  if (!HasEdge(u, label, v)) {
    ++stats_.edges_delete_missing;
    return false;
  }
  IncrementalDelete(u, label, v);
  ++stats_.edges_deleted;
  MaybeReseal();
  return true;
}

void DynamicRlcIndex::RestoreOverlay(std::span<const EdgeUpdate> inserted,
                                     std::span<const EdgeUpdate> removed) {
  RLC_REQUIRE(inserted_.empty() && removed_.empty() &&
                  stats_.edges_inserted + stats_.edges_deleted == 0,
              "RestoreOverlay: index has already been mutated");
  for (const EdgeUpdate& e : inserted) {
    RLC_REQUIRE(e.src < g_.num_vertices() && e.dst < g_.num_vertices() &&
                    e.label < g_.num_labels(),
                "RestoreOverlay: inserted edge out of range");
    if (extra_out_.empty()) {
      extra_out_.resize(g_.num_vertices());
      extra_in_.resize(g_.num_vertices());
    }
    extra_out_[e.src].push_back({e.dst, e.label});
    extra_in_[e.dst].push_back({e.src, e.label});
    inserted_.push_back({e.src, e.label, e.dst, EdgeOp::kInsert});
  }
  for (const EdgeUpdate& e : removed) {
    RLC_REQUIRE(e.src < g_.num_vertices() && e.dst < g_.num_vertices() &&
                    e.label < g_.num_labels(),
                "RestoreOverlay: removed edge out of range");
    RLC_REQUIRE(g_.HasEdge(e.src, e.dst, e.label),
                "RestoreOverlay: removed edge not in the base graph");
    if (removed_out_.empty()) {
      removed_out_.resize(g_.num_vertices());
      removed_in_.resize(g_.num_vertices());
    }
    removed_out_[e.src].push_back({e.dst, e.label});
    removed_in_[e.dst].push_back({e.src, e.label});
    removed_.push_back({e.src, e.label, e.dst, EdgeOp::kDelete});
  }
}

void ValidateUpdates(const DiGraph& g, std::span<const EdgeUpdate> updates) {
  for (const EdgeUpdate& e : updates) {
    RLC_REQUIRE(e.src < g.num_vertices() && e.dst < g.num_vertices(),
                "edge update " << e.src << " -" << e.label << "-> " << e.dst
                               << ": vertex out of range (graph has "
                               << g.num_vertices() << " vertices)");
    RLC_REQUIRE(e.label < g.num_labels(),
                "edge update " << e.src << " -" << e.label << "-> " << e.dst
                               << ": label outside the base graph's alphabet");
  }
}

size_t DynamicRlcIndex::ApplyUpdates(std::span<const EdgeUpdate> updates) {
  ValidateUpdates(g_, updates);
  size_t applied = 0;
  for (const EdgeUpdate& e : updates) {
    const bool changed = e.op == EdgeOp::kInsert
                             ? InsertEdge(e.src, e.label, e.dst)
                             : DeleteEdge(e.src, e.label, e.dst);
    applied += changed ? 1 : 0;
  }
  return applied;
}

void DynamicRlcIndex::CollectWords(VertexId start, bool backward,
                                   std::set<LabelSeq>& words) const {
  words.insert(LabelSeq{});
  const uint32_t max_len = index_.k() - 1;
  if (max_len == 0) return;
  std::vector<VertexSeq> queue{{start, LabelSeq{}}};
  std::unordered_set<VertexSeq, VertexSeqHash> seen{queue.front()};
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexSeq cur = queue[head];  // copy: the queue may reallocate
    auto expand = [&](VertexId w, Label l) {
      VertexSeq next{w, cur.seq};
      if (backward) {
        next.seq.PushFront(l);
      } else {
        next.seq.PushBack(l);
      }
      if (!seen.insert(next).second) return;
      words.insert(next.seq);
      if (next.seq.size() < max_len) queue.push_back(next);
    };
    const auto base = backward ? g_.InEdges(cur.v) : g_.OutEdges(cur.v);
    for (const LabeledNeighbor& nb : base) {
      if (EdgeShadowed(backward, cur.v, nb)) continue;
      expand(nb.v, nb.label);
    }
    const auto& extra = backward ? extra_in_ : extra_out_;
    if (!extra.empty()) {
      for (const LabeledNeighbor& nb : extra[cur.v]) expand(nb.v, nb.label);
    }
  }
}

std::vector<VertexId> DynamicRlcIndex::AlignedBoundary(VertexId start,
                                                       uint32_t start_pos,
                                                       const LabelSeq& kernel,
                                                       bool backward) {
  const uint64_t states =
      static_cast<uint64_t>(g_.num_vertices()) * index_.k();
  if (visit_stamp_.size() < states) visit_stamp_.assign(states, 0);
  ++epoch_;

  const uint32_t len = kernel.size();
  std::vector<VertexId> boundary;
  std::vector<std::pair<VertexId, uint32_t>> queue;
  auto visit = [&](VertexId v, uint32_t pos) {
    uint64_t& stamp = visit_stamp_[StateIndex(v, pos)];
    if (stamp == epoch_) return;
    stamp = epoch_;
    if (pos == 1) boundary.push_back(v);
    queue.push_back({v, pos});
  };
  visit(start, start_pos);

  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [x, pos] = queue[head];
    // Forward, state (x, pos) consumes kernel[pos] next; backward it was
    // reached by consuming kernel[pos-1] (1-based, wrapping across copies).
    const uint32_t step_pos = backward ? (pos == 1 ? len : pos - 1) : pos;
    const Label expected = kernel[step_pos - 1];
    const uint32_t next_pos =
        backward ? step_pos : (pos == len ? 1 : pos + 1);
    ForEachEdge(x, expected, backward, [&](VertexId w) {
      visit(w, next_pos);
      return true;
    });
  }
  std::sort(boundary.begin(), boundary.end());
  return boundary;
}

bool DynamicRlcIndex::AlignedConnects(VertexId u, VertexId v,
                                      uint32_t from_pos, uint32_t to_pos,
                                      const LabelSeq& kernel,
                                      const EdgeUpdate* exclude) {
  const uint64_t states =
      static_cast<uint64_t>(g_.num_vertices()) * index_.k();
  if (visit_stamp_.size() < states) visit_stamp_.assign(states, 0);
  ++epoch_;

  const uint32_t len = kernel.size();
  std::vector<std::pair<VertexId, uint32_t>> queue;
  auto visit = [&](VertexId x, uint32_t pos) {
    uint64_t& stamp = visit_stamp_[StateIndex(x, pos)];
    if (stamp == epoch_) return;
    stamp = epoch_;
    queue.push_back({x, pos});
  };
  visit(u, from_pos);
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [x, pos] = queue[head];
    const Label expected = kernel[pos - 1];
    const uint32_t next_pos = pos == len ? 1 : pos + 1;
    // The target only counts when reached over >= 1 edge (the detour must
    // consume the alignment step); the start state itself does not qualify,
    // which matters for self-loop mutations on single-label kernels.
    const bool hits_target = next_pos == to_pos;
    const bool excludes_here = exclude != nullptr && x == exclude->src &&
                               expected == exclude->label;
    // The scan stops exactly when an edge reaches the target.
    const bool missed = ForEachEdge(x, expected, /*backward=*/false,
                                    [&](VertexId w) {
      if (excludes_here && w == exclude->dst) return true;
      if (hits_target && w == v) return false;
      visit(w, next_pos);
      return true;
    });
    if (!missed) return true;
  }
  return false;
}

std::vector<VertexId> DynamicRlcIndex::AlignedClosure(VertexId start,
                                                      const LabelSeq& kernel,
                                                      bool backward) {
  const uint64_t states =
      static_cast<uint64_t>(g_.num_vertices()) * index_.k();
  if (visit_stamp_.size() < states) visit_stamp_.assign(states, 0);
  ++epoch_;

  const uint32_t len = kernel.size();
  std::vector<VertexId> closure;
  std::vector<std::pair<VertexId, uint32_t>> queue;
  auto visit = [&](VertexId x, uint32_t pos) {
    uint64_t& stamp = visit_stamp_[StateIndex(x, pos)];
    if (stamp == epoch_) return;
    stamp = epoch_;
    queue.push_back({x, pos});
  };
  visit(start, 1);
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [x, pos] = queue[head];
    const uint32_t step_pos = backward ? (pos == 1 ? len : pos - 1) : pos;
    const Label expected = kernel[step_pos - 1];
    const uint32_t next_pos = backward ? step_pos : (pos == len ? 1 : pos + 1);
    ForEachEdge(x, expected, backward, [&](VertexId w) {
      // A vertex belongs to the closure when a step lands on it at a copy
      // boundary — recorded before the dedup stamp, so an aligned cycle
      // back to the (already stamped) start still reports it.
      if (next_pos == 1) closure.push_back(w);
      visit(w, next_pos);
      return true;
    });
  }
  std::sort(closure.begin(), closure.end());
  closure.erase(std::unique(closure.begin(), closure.end()), closure.end());
  return closure;
}

void DynamicRlcIndex::AppendDelta(bool is_out, VertexId v, uint32_t hub_aid,
                                  MrId mr) {
  if (is_out) {
    index_.AddDeltaOut(v, hub_aid, mr);
  } else {
    index_.AddDeltaIn(v, hub_aid, mr);
  }
  ++stats_.delta_entries_added;
}

void DynamicRlcIndex::SuppressEntry(bool is_out, VertexId v, uint32_t hub_aid,
                                    MrId mr) {
  if (is_out) {
    index_.SuppressOut(v, hub_aid, mr);
  } else {
    index_.SuppressIn(v, hub_aid, mr);
  }
  ++stats_.entries_suppressed;
}

void DynamicRlcIndex::AddCoverEntry(VertexId x, VertexId y, MrId mr) {
  const uint32_t ax = index_.AccessId(x);
  const uint32_t ay = index_.AccessId(y);
  // Hub = the higher-ranked (smaller access id) endpoint; either entry
  // makes Case 2 of the query fire for (x, y).
  if (ax <= ay) {
    AppendDelta(/*is_out=*/false, y, ax, mr);
  } else {
    AppendDelta(/*is_out=*/true, x, ay, mr);
  }
}

void DynamicRlcIndex::CoverViaEdgeHub(VertexId hub, MrId mr,
                                      std::span<const VertexId> upstream,
                                      std::span<const VertexId> downstream) {
  const uint32_t hub_aid = index_.AccessId(hub);
  bool hub_in_s = false;
  bool hub_in_t = false;
  for (const VertexId s : upstream) {
    ++stats_.pairs_examined;
    if (s == hub) {
      hub_in_s = true;  // pairs (hub, t) ride on the Lin(t) entries (Case 2)
      continue;
    }
    if (!index_.HasOutEntry(s, hub_aid, mr)) {
      AppendDelta(/*is_out=*/true, s, hub_aid, mr);
    }
  }
  for (const VertexId t : downstream) {
    ++stats_.pairs_examined;
    if (t == hub) {
      hub_in_t = true;  // pairs (s, hub) ride on the Lout(s) entries
      continue;
    }
    if (!index_.HasInEntry(t, hub_aid, mr)) {
      AppendDelta(/*is_out=*/false, t, hub_aid, mr);
    }
  }
  // The (hub, hub) cycle pair is the one combination the skips above leave
  // uncovered; give it its own Case-2 self entry when it is real.
  if (hub_in_s && hub_in_t && !index_.QueryInterned(hub, hub, mr)) {
    AppendDelta(/*is_out=*/false, hub, hub_aid, mr);
  }
}

void DynamicRlcIndex::IncrementalUpdate(VertexId u, Label l, VertexId v) {
  const uint32_t k = index_.k();
  // Phase 1: candidate kernels L = α ∘ l ∘ β around the new edge, with the
  // edge at 1-based offset |α|+1. Non-primitive combinations are skipped:
  // their primitive root is itself a (shorter) candidate.
  std::set<LabelSeq> back_words;
  std::set<LabelSeq> fwd_words;
  CollectWords(u, /*backward=*/true, back_words);
  CollectWords(v, /*backward=*/false, fwd_words);
  std::set<std::pair<LabelSeq, uint32_t>> candidates;
  for (const LabelSeq& alpha : back_words) {
    for (const LabelSeq& beta : fwd_words) {
      if (alpha.size() + 1 + beta.size() > k) continue;
      LabelSeq kernel = alpha;
      kernel.PushBack(l);
      for (uint32_t i = 0; i < beta.size(); ++i) kernel.PushBack(beta[i]);
      if (!IsPrimitive(kernel.labels())) continue;
      candidates.insert({kernel, alpha.size() + 1});
    }
  }

  for (const auto& [kernel, offset] : candidates) {
    ++stats_.kernels_examined;
    const uint32_t len = kernel.size();
    // Bulk rule-out: when the pre-insert graph aligned-connects u to v at
    // every position carrying l, every use of the new edge in a witness has
    // an old-graph detour, so every S x T pair of this candidate was
    // already reachable — and therefore already answered. Skip it whole.
    bool detour_everywhere = true;
    const EdgeUpdate inserted{u, l, v};
    for (uint32_t j = 1; j <= len && detour_everywhere; ++j) {
      if (kernel[j - 1] != l) continue;
      detour_everywhere =
          AlignedConnects(u, v, j, j == len ? 1 : j + 1, kernel, &inserted);
    }
    if (detour_everywhere) {
      ++stats_.kernels_ruled_out;
      continue;
    }
    // Phase 2: copy-boundary vertices upstream of u and downstream of v in
    // this alignment. Every pair the edge makes newly reachable under
    // kernel+ sits in S x T for some candidate.
    const std::vector<VertexId> upstream =
        AlignedBoundary(u, offset, kernel, /*backward=*/true);
    if (upstream.empty()) continue;
    const std::vector<VertexId> downstream = AlignedBoundary(
        v, offset == len ? 1 : offset + 1, kernel, /*backward=*/false);
    if (downstream.empty()) continue;

    // Phase 3: cover. Small candidates probe each pair and add one Case-2
    // entry per pair the index cannot yet answer — QueryInterned sees the
    // deltas added earlier in this very loop, so redundant covers are
    // pruned exactly like PR1 prunes derivable entries during a build.
    // Large candidates whose edge sits on a copy boundary (always the case
    // for |L| <= 2) switch to the hub-compressed cover: the boundary
    // endpoint lies on every witness, so |S| + |T| entries suffice and the
    // quadratic pair sweep is skipped. Middle offsets (|L| >= 3 only) have
    // no boundary endpoint and always take the exact pairwise path.
    MrId mr = index_.FindMr(kernel);
    constexpr uint64_t kSmallCoverPairs = 256;
    const bool boundary_offset = offset == 1 || offset == len;
    if (boundary_offset && static_cast<uint64_t>(upstream.size()) *
                                   downstream.size() >
                               kSmallCoverPairs) {
      if (mr == kInvalidMrId) mr = index_.mr_table().Intern(kernel);
      // offset == len puts v at a copy start right after the edge; offset
      // == 1 puts u at one right before it (for |L| == 1 both hold).
      CoverViaEdgeHub(offset == len ? v : u, mr, upstream, downstream);
      continue;
    }
    for (const VertexId s : upstream) {
      for (const VertexId t : downstream) {
        ++stats_.pairs_examined;
        if (mr != kInvalidMrId && index_.QueryInterned(s, t, mr)) continue;
        if (mr == kInvalidMrId) mr = index_.mr_table().Intern(kernel);
        AddCoverEntry(s, t, mr);
      }
    }
  }
}

void DynamicRlcIndex::IncrementalDelete(VertexId u, Label l, VertexId v) {
  const uint32_t k = index_.k();
  // Phase 1 (pre-delete graph, the edge still present): candidate kernels
  // L = α ∘ l ∘ β around the edge and their copy-boundary sets S / T —
  // every entry whose witness used the edge claims a pair in some S x T.
  // Kernels whose MR was never interned are skipped whole: the live index
  // is complete, so nothing was ever reachable (or recorded) under them,
  // and a delete cannot make new pairs reachable.
  std::set<LabelSeq> back_words;
  std::set<LabelSeq> fwd_words;
  CollectWords(u, /*backward=*/true, back_words);
  CollectWords(v, /*backward=*/false, fwd_words);
  std::set<std::pair<LabelSeq, uint32_t>> keys;
  for (const LabelSeq& alpha : back_words) {
    for (const LabelSeq& beta : fwd_words) {
      if (alpha.size() + 1 + beta.size() > k) continue;
      LabelSeq kernel = alpha;
      kernel.PushBack(l);
      for (uint32_t i = 0; i < beta.size(); ++i) kernel.PushBack(beta[i]);
      if (!IsPrimitive(kernel.labels())) continue;
      keys.insert({kernel, alpha.size() + 1});
    }
  }
  struct Candidate {
    LabelSeq kernel;
    uint32_t offset;
    MrId mr;
    std::vector<VertexId> up;    // S: copy starts aligned-reaching u
    std::vector<VertexId> down;  // T: copy boundaries downstream of v
  };
  std::vector<Candidate> candidates;
  const EdgeUpdate deleted{u, l, v};
  std::map<std::pair<LabelSeq, uint32_t>, bool> detour_verdicts;
  for (const auto& [kernel, offset] : keys) {
    ++stats_.kernels_examined;
    const MrId mr = index_.FindMr(kernel);
    if (mr == kInvalidMrId) continue;
    const uint32_t len = kernel.size();
    // Aligned-detour rule-out, evaluated on "pre-delete minus the edge" —
    // exactly the post-delete graph — *before* the expensive boundary
    // searches: when every position carrying l still aligned-connects u to
    // v, every witness through the edge reroutes over the detour, so no
    // entry of this candidate goes stale and S / T are never needed. The
    // per-(kernel, position) verdicts are memoized across offsets.
    bool detour_everywhere = true;
    for (uint32_t j = 1; j <= len && detour_everywhere; ++j) {
      if (kernel[j - 1] != l) continue;
      const auto [it, missing] = detour_verdicts.try_emplace({kernel, j});
      if (missing) {
        it->second =
            AlignedConnects(u, v, j, j == len ? 1 : j + 1, kernel, &deleted);
      }
      detour_everywhere = it->second;
    }
    if (detour_everywhere) {
      ++stats_.kernels_ruled_out;
      continue;
    }
    std::vector<VertexId> up =
        AlignedBoundary(u, offset, kernel, /*backward=*/true);
    if (up.empty()) continue;
    std::vector<VertexId> down = AlignedBoundary(
        v, offset == len ? 1 : offset + 1, kernel, /*backward=*/false);
    if (down.empty()) continue;
    candidates.push_back({kernel, offset, mr, std::move(up), std::move(down)});
  }

  // Phase 2: take the edge out of the mutated graph. Everything below asks
  // about the post-delete world.
  RemoveGraphEdge(u, l, v);
  if (candidates.empty()) return;

  // Post-delete aligned closures, memoized per (kernel, vertex, direction):
  // one forward closure answers every validity and repair question about a
  // source, one backward closure about a target.
  std::map<std::pair<LabelSeq, VertexId>, std::vector<VertexId>> fwd_memo;
  std::map<std::pair<LabelSeq, VertexId>, std::vector<VertexId>> bwd_memo;
  auto closure_of = [&](bool backward, const LabelSeq& kernel,
                        VertexId x) -> const std::vector<VertexId>& {
    auto& memo = backward ? bwd_memo : fwd_memo;
    const auto [it, inserted] = memo.try_emplace({kernel, x});
    if (inserted) it->second = AlignedClosure(x, kernel, backward);
    return it->second;
  };

  // Phase 3 per candidate (all survived the rule-out above): suppression
  // of the entries whose own reachability claim provably died.
  std::set<std::pair<MrId, VertexId>> dead_out;  // suppressed Lout owners
  std::set<std::pair<MrId, VertexId>> dead_in;   // suppressed Lin owners
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const Candidate& cand = candidates[ci];
    const LabelSeq& kernel = cand.kernel;

    // Matched out-entries: (h, L) ∈ Lout(s) with s ∈ S, h ∈ T claims
    // s ⇝ h; it survives iff s is in the post-delete *backward* closure of
    // h. Grouping the checks by hub — entries share few distinct hubs,
    // that is the point of hub labeling — means one closure answers every
    // source's validity question at once. Hub ids are collected first:
    // Suppress mutates the delta lists.
    for (const VertexId s : cand.up) {
      std::vector<uint32_t> hubs;
      auto collect = [&](std::span<const IndexEntry> entries) {
        for (const IndexEntry& e : entries) {
          if (e.mr != cand.mr) continue;
          if (std::binary_search(cand.down.begin(), cand.down.end(),
                                 index_.VertexOfAid(e.hub_aid))) {
            hubs.push_back(e.hub_aid);
          }
        }
      };
      collect(index_.Lout(s));
      collect(index_.DeltaLout(s));
      for (const uint32_t hub_aid : hubs) {
        // Skip entries another candidate already suppressed (the raw CSR
        // span still shows tombstoned entries).
        if (!index_.HasOutEntry(s, hub_aid, cand.mr)) continue;
        const std::vector<VertexId>& reach = closure_of(
            /*backward=*/true, kernel, index_.VertexOfAid(hub_aid));
        if (std::binary_search(reach.begin(), reach.end(), s)) {
          continue;  // another witness survives — the entry stays
        }
        SuppressEntry(/*is_out=*/true, s, hub_aid, cand.mr);
        dead_out.insert({cand.mr, s});
      }
    }
    // Matched in-entries: (h, L) ∈ Lin(t) with h ∈ S, t ∈ T claims h ⇝ t;
    // it survives iff t is in the forward closure of h.
    for (const VertexId t : cand.down) {
      std::vector<uint32_t> hubs;
      auto collect = [&](std::span<const IndexEntry> entries) {
        for (const IndexEntry& e : entries) {
          if (e.mr != cand.mr) continue;
          if (std::binary_search(cand.up.begin(), cand.up.end(),
                                 index_.VertexOfAid(e.hub_aid))) {
            hubs.push_back(e.hub_aid);
          }
        }
      };
      collect(index_.Lin(t));
      collect(index_.DeltaLin(t));
      for (const uint32_t hub_aid : hubs) {
        if (!index_.HasInEntry(t, hub_aid, cand.mr)) continue;
        const std::vector<VertexId>& reach = closure_of(
            /*backward=*/false, kernel, index_.VertexOfAid(hub_aid));
        if (std::binary_search(reach.begin(), reach.end(), t)) {
          continue;
        }
        SuppressEntry(/*is_out=*/false, t, hub_aid, cand.mr);
        dead_in.insert({cand.mr, t});
      }
    }
  }

  // Phase 4: completeness repair. A pair can only lose its last cover
  // through a suppressed entry on its source's out side or its target's in
  // side, so the sweep is restricted to (S ∩ dead-out) x T and
  // S x (T ∩ dead-in); every still-reachable pair the index no longer
  // answers gets a fresh Case-2 delta cover (valid by construction — its
  // claim is exactly the pair's rechecked reachability).
  if (dead_out.empty() && dead_in.empty()) return;
  // Only pairs that are reachable (in the closure) *and* in the boundary
  // set can need a cover, so each row sweeps the intersection by scanning
  // the smaller sorted vector against the larger.
  const auto for_each_common = [](const std::vector<VertexId>& a,
                                  const std::vector<VertexId>& b, auto fn) {
    const std::vector<VertexId>& small = a.size() <= b.size() ? a : b;
    const std::vector<VertexId>& large = a.size() <= b.size() ? b : a;
    for (const VertexId x : small) {
      if (std::binary_search(large.begin(), large.end(), x)) fn(x);
    }
  };
  for (const Candidate& cand : candidates) {
    for (const VertexId s : cand.up) {
      if (dead_out.find({cand.mr, s}) == dead_out.end()) continue;
      const std::vector<VertexId>& reach =
          closure_of(/*backward=*/false, cand.kernel, s);
      for_each_common(reach, cand.down, [&](VertexId t) {
        ++stats_.pairs_examined;
        if (index_.QueryInterned(s, t, cand.mr)) return;
        AddCoverEntry(s, t, cand.mr);
        ++stats_.pairs_recovered;
      });
    }
    for (const VertexId t : cand.down) {
      if (dead_in.find({cand.mr, t}) == dead_in.end()) continue;
      const std::vector<VertexId>& reach =
          closure_of(/*backward=*/true, cand.kernel, t);
      for_each_common(reach, cand.up, [&](VertexId s) {
        ++stats_.pairs_examined;
        if (index_.QueryInterned(s, t, cand.mr)) return;
        AddCoverEntry(s, t, cand.mr);
        ++stats_.pairs_recovered;
      });
    }
  }
}

std::vector<Edge> DynamicRlcIndex::MaterializedEdges() const {
  std::vector<Edge> edges;
  if (removed_.empty()) {
    edges = g_.ToEdgeList();
  } else {
    for (const Edge& e : g_.ToEdgeList()) {
      if (!BaseEdgeRemoved(e.src, e.label, e.dst)) edges.push_back(e);
    }
  }
  edges.reserve(edges.size() + inserted_.size());
  for (const EdgeUpdate& e : inserted_) edges.push_back({e.src, e.dst, e.label});
  return edges;
}

void DynamicRlcIndex::MaybeReseal() {
  if (index_.delta_entries() + index_.tombstone_entries() <
      policy_.min_delta_entries) {
    return;
  }
  if (index_.DeltaRatio() <= policy_.max_delta_ratio) return;
  Reseal();
}

void DynamicRlcIndex::Reseal() {
  ++stats_.reseals;
  DynMetrics::Get().reseals.Inc();
  Timer timer;
  {
    obs::ScopedSpan span(DynMetrics::Get().reseal_merge_ns,
                         "dyn.reseal.merge");
    // Merging a copy leaves the index untouched if the merge throws.
    RlcIndex fresh(index_);
    fresh.MergeDeltas();
    index_ = std::move(fresh);
  }
  stats_.reseal_seconds += timer.ElapsedSeconds();
}

void DynamicRlcIndex::ForceReseal() {
  if (index_.delta_entries() == 0 && index_.tombstone_entries() == 0) {
    return;
  }
  Reseal();
}

uint64_t DynamicRlcIndex::MemoryBytes() const {
  uint64_t bytes = index_.MemoryBytes();
  for (const auto& list : extra_out_) bytes += list.capacity() * sizeof(LabeledNeighbor);
  for (const auto& list : extra_in_) bytes += list.capacity() * sizeof(LabeledNeighbor);
  for (const auto& list : removed_out_) bytes += list.capacity() * sizeof(LabeledNeighbor);
  for (const auto& list : removed_in_) bytes += list.capacity() * sizeof(LabeledNeighbor);
  bytes += (extra_out_.capacity() + extra_in_.capacity() +
            removed_out_.capacity() + removed_in_.capacity()) *
           sizeof(std::vector<LabeledNeighbor>);
  bytes += (inserted_.capacity() + removed_.capacity()) * sizeof(EdgeUpdate);
  bytes += visit_stamp_.capacity() * sizeof(uint64_t);
  return bytes;
}

}  // namespace rlc

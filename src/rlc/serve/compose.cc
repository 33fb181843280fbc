#include "rlc/serve/compose.h"

#include <algorithm>
#include <bit>

#include "rlc/obs/metrics.h"
#include "rlc/util/common.h"

namespace rlc {

namespace {

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t ReadU32(std::span<const uint8_t> bytes, size_t& off) {
  RLC_REQUIRE(off + 4 <= bytes.size(), "compose cache: truncated payload");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes[off + i]) << (8 * i);
  off += 4;
  return v;
}

uint64_t ReadU64(std::span<const uint8_t> bytes, size_t& off) {
  RLC_REQUIRE(off + 8 <= bytes.size(), "compose cache: truncated payload");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes[off + i]) << (8 * i);
  off += 8;
  return v;
}

/// What a product walk does with the state an edge reaches.
enum class Arrival { kSeen, kFresh, kStop };

/// How a product walk ended: it ran out of states, an arrival stopped it,
/// or the deadline expired.
enum class WalkEnd { kDone, kStopped, kTimedOut };

/// Marks `pid` in a stamped visited array.
Arrival Mark(std::vector<uint32_t>& stamps, uint64_t pid, uint32_t stamp) {
  if (stamps[pid] == stamp) return Arrival::kSeen;
  stamps[pid] = stamp;
  return Arrival::kFresh;
}

/// The in-walk deadline check of one probe, shared by all of its walks:
/// one clock read per kDeadlineCheckStride pops, so overrun past the
/// deadline is bounded by one stride of work (plus at most one table-row
/// build) instead of a whole skeleton walk.
class DeadlineGate {
 public:
  explicit DeadlineGate(Deadline deadline) : deadline_(deadline) {}

  bool Hit() {
    if (!deadline_.active() || --ticks_ != 0) return false;
    ticks_ = CompositionEngine::kDeadlineCheckStride;
    return deadline_.Expired(obs::NowNanos());
  }

 private:
  Deadline deadline_;
  uint32_t ticks_ = CompositionEngine::kDeadlineCheckStride;
};

/// The one intra-shard product walk: a BFS over the shard-local product
/// states (local vertex * j + position) of `dyn`'s mutated graph under
/// `seq`. Forward, (v, p) steps over an edge labeled seq[p] to position
/// p + 1; in reverse, over the edge labeled seq[p - 1] that led into
/// (v, p), back to position p - 1 (positions mod j). `queue` holds the
/// seeds, already marked by the caller, and ends up holding every state
/// the walk reached. `pop(v, p)` runs on each dequeued state;
/// `arrive(w, p)` marks the state an edge reaches and says whether to
/// enqueue it or to stop the walk.
template <bool kReverse, typename Pop, typename Arrive>
WalkEnd WalkShard(const DynamicRlcIndex& dyn, const LabelSeq& seq,
                  std::vector<uint64_t>& queue, DeadlineGate& gate, Pop&& pop,
                  Arrive&& arrive) {
  const uint32_t j = seq.size();
  for (size_t head = 0; head < queue.size(); ++head) {
    if (gate.Hit()) return WalkEnd::kTimedOut;
    const VertexId v = static_cast<VertexId>(queue[head] / j);
    const uint32_t p = static_cast<uint32_t>(queue[head] % j);
    pop(v, p);
    const uint32_t q = kReverse ? (p + j - 1) % j : p;
    const uint32_t np = kReverse ? q : (p + 1) % j;
    const bool done = dyn.ForEachEdge(v, seq[q], kReverse, [&](VertexId w) {
      const Arrival a = arrive(w, np);
      if (a == Arrival::kFresh) {
        queue.push_back(static_cast<uint64_t>(w) * j + np);
      }
      return a != Arrival::kStop;
    });
    if (!done) return WalkEnd::kStopped;
  }
  return WalkEnd::kDone;
}

}  // namespace

CompositionEngine::CompositionEngine(
    const GraphPartition& partition,
    const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards,
    ComposeOptions options)
    : partition_(partition),
      shards_(shards),
      options_(options),
      epochs_(partition.num_shards(), 0) {
  for (uint32_t s = 0; s < partition.num_shards(); ++s) {
    num_vertices_ += static_cast<VertexId>(partition.shard(s).global_of.size());
  }
}

void CompositionEngine::BuildShardPlan(Plan& plan, uint32_t s) {
  auto sp = std::make_unique<ShardPlan>();
  sp->epoch = epochs_[s];
  const ShardInfo& shard = partition_.shard(s);
  sp->num_boundary = static_cast<uint32_t>(shard.boundary.size());
  const uint64_t states = static_cast<uint64_t>(sp->num_boundary) * plan.j;
  sp->tables = states > 0 && states <= options_.table_budget_nodes;
  if (sp->tables) {
    sp->boundary_ord.assign(shard.graph.num_vertices(), -1);
    for (uint32_t i = 0; i < sp->num_boundary; ++i) {
      sp->boundary_ord[shard.boundary[i]] = static_cast<int32_t>(i);
    }
    sp->rows = std::vector<std::atomic<const BoundaryRow*>>(states);
  }
  plan.shards[s] = std::move(sp);
}

const CompositionEngine::Plan& CompositionEngine::PreparePlan(
    const LabelSeq& seq, uint32_t* invalidated) {
  if (invalidated) *invalidated = 0;
  auto it = plans_.find(seq);
  if (it == plans_.end()) {
    if (plans_.size() >= options_.max_cached_plans) plans_.clear();
    auto plan = std::make_unique<Plan>();
    plan->seq = seq;
    plan->j = seq.size();
    RLC_REQUIRE(plan->j >= 1, "CompositionEngine: empty constraint");
    plan->shards.resize(partition_.num_shards());
    for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
      BuildShardPlan(*plan, s);
    }
    it = plans_.emplace(seq, std::move(plan)).first;
    return *it->second;
  }
  Plan& plan = *it->second;
  uint32_t stale = 0;
  for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
    if (plan.shards[s]->epoch != epochs_[s]) {
      BuildShardPlan(plan, s);
      ++stale;
    }
  }
  if (invalidated) *invalidated = stale;
  return plan;
}

void CompositionEngine::EnsureScratch(Scratch& scratch, uint32_t j) const {
  const uint64_t states = static_cast<uint64_t>(num_vertices_) * j;
  const auto grow = [&](std::vector<uint32_t>& v) {
    if (v.size() < states) v.resize(states, 0);
  };
  grow(scratch.fwd_stamp);
  grow(scratch.acc_stamp);
  grow(scratch.exp_stamp);
  scratch.covered.resize(partition_.num_shards());
  scratch.covered_stamp.resize(partition_.num_shards(), 0);
  // Stamp 0 is reserved for "never visited" (fresh array cells), so a wrap
  // zeroes everything and restarts at 1.
  if (++scratch.stamp == 0) {
    std::fill(scratch.fwd_stamp.begin(), scratch.fwd_stamp.end(), 0u);
    std::fill(scratch.acc_stamp.begin(), scratch.acc_stamp.end(), 0u);
    std::fill(scratch.exp_stamp.begin(), scratch.exp_stamp.end(), 0u);
    std::fill(scratch.covered_stamp.begin(), scratch.covered_stamp.end(), 0u);
    scratch.stamp = 1;
  }
}

const CompositionEngine::BoundaryRow* CompositionEngine::GetRow(
    ShardPlan& sp, uint32_t s, uint32_t row_idx, const Plan& plan,
    uint32_t* built) const {
  const BoundaryRow* row = sp.rows[row_idx].load(std::memory_order_acquire);
  if (row) return row;
  std::lock_guard<std::mutex> lock(sp.build_mu);
  row = sp.rows[row_idx].load(std::memory_order_relaxed);
  if (row) return row;

  const uint32_t j = plan.j;
  const ShardInfo& shard = partition_.shard(s);
  const uint64_t local_states =
      static_cast<uint64_t>(shard.graph.num_vertices()) * j;
  if (sp.build_stamp.size() < local_states) {
    sp.build_stamp.resize(local_states, 0);
  }
  if (++sp.build_counter == 0) {
    std::fill(sp.build_stamp.begin(), sp.build_stamp.end(), 0u);
    sp.build_counter = 1;
  }
  const uint32_t bstamp = sp.build_counter;

  auto fresh = std::make_unique<BoundaryRow>();
  fresh->bits.assign(
      (static_cast<uint64_t>(sp.num_boundary) * j + 63) / 64, 0);

  // Every boundary product state the row's start reaches inside the shard
  // — the start itself included — sets its bit. A row build is not
  // deadline-gated: it is the "plus one row build" of the overrun bound.
  const uint64_t start =
      static_cast<uint64_t>(shard.boundary[row_idx / j]) * j + row_idx % j;
  sp.build_stamp[start] = bstamp;
  sp.build_queue.assign(1, start);
  DeadlineGate unbounded{Deadline{}};
  WalkShard</*kReverse=*/false>(
      *shards_[s], plan.seq, sp.build_queue, unbounded,
      [&](VertexId lu, uint32_t q) {
        const int32_t ord = sp.boundary_ord[lu];
        if (ord < 0) return;
        const uint64_t bit = static_cast<uint64_t>(ord) * j + q;
        fresh->bits[bit / 64] |= uint64_t{1} << (bit % 64);
      },
      [&](VertexId lw, uint32_t nq) {
        return Mark(sp.build_stamp, static_cast<uint64_t>(lw) * j + nq,
                    bstamp);
      });

  const BoundaryRow* ptr = fresh.get();
  sp.owned.push_back(std::move(fresh));
  sp.rows[row_idx].store(ptr, std::memory_order_release);
  if (built) ++(*built);
  return ptr;
}

ComposeResult CompositionEngine::ComposedQuery(VertexId s, VertexId t,
                                               const Plan& plan,
                                               Scratch& scratch,
                                               const Deadline& deadline,
                                               bool need_intra) const {
  ComposeResult result;
  const uint32_t j = plan.j;
  EnsureScratch(scratch, j);
  const uint32_t stamp = scratch.stamp;
  const uint32_t ss = partition_.ShardOf(s);
  const uint32_t st = partition_.ShardOf(t);
  const auto pid_of = [j](VertexId v, uint32_t p) {
    return static_cast<uint64_t>(v) * j + p;
  };
  // A deadline that already expired (e.g. spent upstream in queueing or an
  // injected delay) aborts before any traversal — small probes must not
  // slip through inside the first stride.
  if (deadline.active() && deadline.Expired(obs::NowNanos())) {
    result.timed_out = true;
    return result;
  }
  DeadlineGate gate(deadline);
  // Label-matched cross hop out of (u, q): push unseen skeleton entries.
  const auto emit_cross = [&](VertexId u, uint32_t q) {
    const Label l = plan.seq[q];
    const uint32_t nq = (q + 1) % j;
    for (const LabeledNeighbor& nb : partition_.CrossOutEdges(u)) {
      if (nb.label != l) continue;
      const uint64_t npid = pid_of(nb.v, nq);
      if (scratch.exp_stamp[npid] == stamp) continue;
      scratch.exp_stamp[npid] = stamp;
      scratch.skel_queue.push_back(npid);
    }
  };
  // Forward walk of shard `sh` from its local state (lv, p), which the
  // caller has marked: marks global states in `stamps` and emits the cross
  // hops of every state it pops. An edge arriving at (intra_target, 0)
  // stops it (kInvalidVertex: never).
  const auto walk_forward = [&](uint32_t sh, VertexId lv, uint32_t p,
                                std::vector<uint32_t>& stamps,
                                VertexId intra_target) {
    scratch.walk_queue.assign(1, pid_of(lv, p));
    const WalkEnd end = WalkShard</*kReverse=*/false>(
        *shards_[sh], plan.seq, scratch.walk_queue, gate,
        [&](VertexId lu, uint32_t q) {
          emit_cross(partition_.GlobalOf(sh, lu), q);
        },
        [&](VertexId lw, uint32_t np) {
          if (np == 0 && lw == intra_target) return Arrival::kStop;
          return Mark(stamps, pid_of(partition_.GlobalOf(sh, lw), np), stamp);
        });
    result.expanded += static_cast<uint32_t>(scratch.walk_queue.size());
    return end;
  };

  // Phase 1 — source-shard suffix: forward walk from (s, 0) inside
  // shard(s); cross edges leaving any visited state seed the skeleton.
  // With need_intra, an edge arriving at (t, 0) is a purely intra-shard
  // witness. Arrival, never the seed itself, enforces the >= 1-edge
  // requirement, so s == t demands a genuine aligned cycle.
  scratch.skel_queue.clear();
  scratch.fwd_stamp[pid_of(s, 0)] = stamp;
  const WalkEnd fwd = walk_forward(
      ss, partition_.LocalOf(s), 0, scratch.fwd_stamp,
      need_intra && ss == st ? partition_.LocalOf(t) : kInvalidVertex);
  if (fwd != WalkEnd::kDone) {
    result.reachable = fwd == WalkEnd::kStopped;
    result.timed_out = fwd == WalkEnd::kTimedOut;
    return result;
  }
  if (scratch.skel_queue.empty()) return result;

  // Phase 2 — target-shard prefix: reverse walk from (t, 0) inside
  // shard(t) marks the accept set A (states that intra-reach (t, 0)).
  scratch.acc_stamp[pid_of(t, 0)] = stamp;
  scratch.walk_queue.assign(1, pid_of(partition_.LocalOf(t), 0));
  const WalkEnd acc = WalkShard</*kReverse=*/true>(
      *shards_[st], plan.seq, scratch.walk_queue, gate,
      [](VertexId, uint32_t) {},
      [&](VertexId lw, uint32_t q) {
        return Mark(scratch.acc_stamp, pid_of(partition_.GlobalOf(st, lw), q),
                    stamp);
      });
  result.expanded += static_cast<uint32_t>(scratch.walk_queue.size());
  if (acc == WalkEnd::kTimedOut) {
    result.timed_out = true;
    return result;
  }

  // Phase 3 — skeleton BFS. Entries are checked against A at pop time;
  // that is complete because A is intra-closed: any state an expansion
  // marks inside shard(t) that lies in A puts its own entry in A, and that
  // entry's pop already answered true (so exp-stamp dedup of later entries
  // cannot hide an accepting one).
  for (size_t head = 0; head < scratch.skel_queue.size(); ++head) {
    if (gate.Hit()) {
      result.timed_out = true;
      return result;
    }
    const uint64_t pid = scratch.skel_queue[head];
    const VertexId v = static_cast<VertexId>(pid / j);
    const uint32_t p = static_cast<uint32_t>(pid % j);
    ++result.skeleton_hops;
    const uint32_t sv = partition_.ShardOf(v);
    if (sv == st && scratch.acc_stamp[pid] == stamp) {
      result.reachable = true;
      return result;
    }
    ShardPlan& sp = *plan.shards[sv];
    if (sp.tables) {
      // Boundary-transition row: every intra-reachable boundary exit.
      // Skeleton entries are cross-edge heads, so v is always a boundary
      // vertex with a valid ordinal.
      const int32_t ord = sp.boundary_ord[partition_.LocalOf(v)];
      const uint32_t row_idx = static_cast<uint32_t>(ord) * j + p;
      std::vector<uint64_t>& covered = scratch.covered[sv];
      if (scratch.covered_stamp[sv] != stamp) {
        scratch.covered_stamp[sv] = stamp;
        covered.assign(
            (static_cast<uint64_t>(sp.num_boundary) * j + 63) / 64, 0);
      }
      // A covered entry lies in a scanned row, so its own row is a subset
      // of that row and every exit it holds was already emitted.
      if ((covered[row_idx / 64] >> (row_idx % 64)) & 1) continue;
      const BoundaryRow* row =
          GetRow(sp, sv, row_idx, plan, &result.table_rows_built);
      const ShardInfo& shard = partition_.shard(sv);
      for (size_t w = 0; w < row->bits.size(); ++w) {
        uint64_t fresh = row->bits[w] & ~covered[w];
        covered[w] |= fresh;
        while (fresh != 0) {
          const uint32_t bit =
              static_cast<uint32_t>(w * 64) + std::countr_zero(fresh);
          fresh &= fresh - 1;
          emit_cross(partition_.GlobalOf(sv, shard.boundary[bit / j]),
                     bit % j);
        }
      }
    } else {
      // Over-budget shard: expand the product graph on the fly. exp_stamp
      // is shared across every entry into this shard within the probe (the
      // entry itself was marked when its cross hop was emitted), so the
      // shard's product graph is walked at most once per probe.
      if (walk_forward(sv, partition_.LocalOf(v), p, scratch.exp_stamp,
                       kInvalidVertex) == WalkEnd::kTimedOut) {
        result.timed_out = true;
        return result;
      }
    }
  }
  return result;
}

std::vector<uint8_t> CompositionEngine::SerializeCache() const {
  std::vector<uint8_t> out;
  AppendU32(out, partition_.num_shards());
  AppendU32(out, static_cast<uint32_t>(plans_.size()));
  // Deterministic payload: plans in constraint order, rows in slot order.
  std::vector<const Plan*> ordered;
  ordered.reserve(plans_.size());
  for (const auto& [seq, plan] : plans_) ordered.push_back(plan.get());
  std::sort(ordered.begin(), ordered.end(), [](const Plan* a, const Plan* b) {
    if (a->j != b->j) return a->j < b->j;
    for (uint32_t i = 0; i < a->j; ++i) {
      if (a->seq[i] != b->seq[i]) return a->seq[i] < b->seq[i];
    }
    return false;
  });
  for (const Plan* plan : ordered) {
    AppendU32(out, plan->j);
    for (uint32_t i = 0; i < plan->j; ++i) AppendU32(out, plan->seq[i]);
    for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
      const ShardPlan& sp = *plan->shards[s];
      out.push_back(sp.tables ? 1 : 0);
      AppendU32(out, sp.num_boundary);
      uint32_t built = 0;
      for (const auto& slot : sp.rows) {
        if (slot.load(std::memory_order_acquire) != nullptr) ++built;
      }
      AppendU32(out, built);
      if (!sp.tables) continue;
      const uint32_t words = static_cast<uint32_t>(
          (static_cast<uint64_t>(sp.num_boundary) * plan->j + 63) / 64);
      AppendU32(out, words);
      for (uint32_t idx = 0; idx < sp.rows.size(); ++idx) {
        const BoundaryRow* row = sp.rows[idx].load(std::memory_order_acquire);
        if (row == nullptr) continue;
        AppendU32(out, idx);
        for (const uint64_t w : row->bits) AppendU64(out, w);
      }
    }
  }
  return out;
}

bool CompositionEngine::RestoreCache(std::span<const uint8_t> bytes) {
  plans_.clear();
  size_t off = 0;
  try {
    if (ReadU32(bytes, off) != partition_.num_shards()) {
      plans_.clear();
      return false;
    }
    const uint32_t num_plans = ReadU32(bytes, off);
    for (uint32_t pi = 0; pi < num_plans; ++pi) {
      const uint32_t j = ReadU32(bytes, off);
      RLC_REQUIRE(j >= 1 && j <= kMaxK, "compose cache: bad constraint length");
      std::vector<Label> labels(j);
      for (uint32_t i = 0; i < j; ++i) labels[i] = ReadU32(bytes, off);
      const LabelSeq seq{std::span<const Label>(labels)};
      PreparePlan(seq);
      Plan& plan = *plans_.find(seq)->second;
      for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
        ShardPlan& sp = *plan.shards[s];
        RLC_REQUIRE(off < bytes.size(), "compose cache: truncated payload");
        const bool tables = bytes[off++] != 0;
        const uint32_t num_boundary = ReadU32(bytes, off);
        const uint32_t built = ReadU32(bytes, off);
        // A shape mismatch means the payload was written against a
        // different partition state: stay cold rather than trust it.
        if (tables != sp.tables || num_boundary != sp.num_boundary) {
          plans_.clear();
          return false;
        }
        if (!sp.tables) {
          if (built != 0) {
            plans_.clear();
            return false;
          }
          continue;
        }
        const uint32_t words = ReadU32(bytes, off);
        const uint32_t expect_words = static_cast<uint32_t>(
            (static_cast<uint64_t>(sp.num_boundary) * plan.j + 63) / 64);
        if (words != expect_words || built > sp.rows.size()) {
          plans_.clear();
          return false;
        }
        for (uint32_t r = 0; r < built; ++r) {
          const uint32_t idx = ReadU32(bytes, off);
          if (idx >= sp.rows.size() ||
              sp.rows[idx].load(std::memory_order_relaxed) != nullptr) {
            plans_.clear();
            return false;
          }
          auto row = std::make_unique<BoundaryRow>();
          row->bits.resize(words);
          for (uint32_t w = 0; w < words; ++w) {
            row->bits[w] = ReadU64(bytes, off);
          }
          const BoundaryRow* ptr = row.get();
          sp.owned.push_back(std::move(row));
          sp.rows[idx].store(ptr, std::memory_order_release);
        }
      }
    }
    if (off != bytes.size()) {
      plans_.clear();
      return false;
    }
  } catch (...) {
    plans_.clear();
    return false;
  }
  return true;
}

uint64_t CompositionEngine::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& [seq, plan] : plans_) {
    for (const auto& spp : plan->shards) {
      ShardPlan& sp = *spp;
      bytes += sizeof(ShardPlan);
      bytes += sp.boundary_ord.capacity() * sizeof(int32_t);
      bytes += sp.rows.size() * sizeof(std::atomic<const BoundaryRow*>);
      std::lock_guard<std::mutex> lock(sp.build_mu);
      for (const auto& row : sp.owned) {
        bytes += sizeof(BoundaryRow) + row->bits.capacity() * sizeof(uint64_t);
      }
      bytes += sp.build_stamp.capacity() * sizeof(uint32_t);
      bytes += sp.build_queue.capacity() * sizeof(uint64_t);
    }
  }
  return bytes;
}

}  // namespace rlc

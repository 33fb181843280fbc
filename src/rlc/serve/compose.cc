#include "rlc/serve/compose.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "rlc/obs/metrics.h"
#include "rlc/util/common.h"

namespace rlc {

namespace {

/// What a product walk does with the state an edge reaches.
enum class Arrival { kSeen, kFresh, kStop };

/// What a product walk does with a dequeued state: skip it, expand it, or
/// stop the walk.
enum class Visit { kSkip, kExpand, kStop };

/// How a product walk ended: it ran out of states, a pop or an arrival
/// stopped it, or the deadline expired.
enum class WalkEnd { kDone, kStopped, kTimedOut };

/// Marks `pid` in a stamped visited array.
Arrival Mark(std::vector<uint32_t>& stamps, uint64_t pid, uint32_t stamp) {
  if (stamps[pid] == stamp) return Arrival::kSeen;
  stamps[pid] = stamp;
  return Arrival::kFresh;
}

/// The in-walk deadline check of one probe, shared by all of its walks:
/// one clock read per kDeadlineCheckStride pops, so overrun past the
/// deadline is bounded by one stride of work (plus at most one row build)
/// instead of a whole skeleton walk.
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

/// The probe's intra-shard product walk: a BFS over the shard-local product
/// states (local vertex * j + position) of `dyn`'s mutated graph under
/// `seq`. Forward, (v, p) steps over an edge labeled seq[p] to position
/// p + 1; in reverse, over the edge labeled seq[p - 1] that led into
/// (v, p), back to position p - 1 (positions mod j). `queue` holds the
/// seeds, already marked by the caller, and ends up holding every state
/// the walk reached. `pop(v, p)` runs on each dequeued state and says
/// whether to skip it, expand it or stop the walk; `arrive(w, p)` marks the
/// state an edge reaches and says whether to enqueue it or to stop the walk.
template <bool kReverse, typename Pop, typename Arrive>
WalkEnd WalkShard(const DynamicRlcIndex& dyn, const LabelSeq& seq,
                  std::vector<uint64_t>& queue, DeadlineGate& gate, Pop&& pop,
                  Arrive&& arrive) {
  const uint32_t j = seq.size();
  for (size_t head = 0; head < queue.size(); ++head) {
    if (gate.Hit()) return WalkEnd::kTimedOut;
    const VertexId v = static_cast<VertexId>(queue[head] / j);
    const uint32_t p = static_cast<uint32_t>(queue[head] % j);
    const Visit visit = pop(v, p);
    if (visit == Visit::kStop) return WalkEnd::kStopped;
    if (visit == Visit::kSkip) continue;
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

/// ShardPlan::build_state words: 0 is unvisited, values below kFinished
/// are DFS indices of states on the current build's stack, and
/// kFinished | id marks a finished state whose row is owned[id] — kNoRow
/// when it reaches no boundary state.
constexpr uint32_t kFinished = uint32_t{1} << 31;
constexpr uint32_t kNoRow = kFinished - 1;

}  // namespace

CompositionEngine::CompositionEngine(
    const GraphPartition& partition,
    const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards,
    ComposeOptions options)
    : partition_(partition),
      shards_(shards),
      options_(options),
      epochs_(partition.num_shards(), 0),
      ords_(partition.num_shards()),
      ord_epochs_(partition.num_shards(), 0) {
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
    // The ordinal map depends on the shard's boundary list only, which
    // moves only with the shard's epoch: plans of every constraint share
    // one copy.
    if (ords_[s] == nullptr || ord_epochs_[s] != epochs_[s]) {
      auto ord =
          std::make_shared<std::vector<int32_t>>(shard.graph.num_vertices(), -1);
      for (uint32_t i = 0; i < sp->num_boundary; ++i) {
        (*ord)[shard.boundary[i]] = static_cast<int32_t>(i);
      }
      ords_[s] = std::move(ord);
      ord_epochs_[s] = epochs_[s];
    }
    sp->boundary_ord = ords_[s];
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
    ComposeResult& result) const {
  if (const BoundaryRow* row = sp.Row(row_idx)) return row;
  std::lock_guard<std::mutex> lock(sp.build_mu);
  if (const BoundaryRow* row = sp.Row(row_idx)) return row;

  const uint32_t j = plan.j;
  const ShardInfo& shard = partition_.shard(s);
  const std::vector<int32_t>& ords = *sp.boundary_ord;
  const uint64_t local_states =
      static_cast<uint64_t>(shard.graph.num_vertices()) * j;
  RLC_REQUIRE(local_states < kNoRow, "CompositionEngine: shard too large");
  if (sp.slots == nullptr) {
    sp.slots = std::make_unique<std::atomic<const BoundaryRow*>[]>(
        static_cast<size_t>(sp.num_boundary) * j);
    sp.rows.store(sp.slots.get(), std::memory_order_release);
  }
  if (sp.build_state.size() < local_states) {
    sp.build_state.resize(local_states, 0);
  }
  std::vector<uint32_t>& state = sp.build_state;
  const size_t words = (static_cast<size_t>(sp.num_boundary) * j + 63) / 64;
  const auto boundary_bit = [&](uint64_t pid) -> int64_t {
    const int32_t ord = ords[pid / j];
    return ord < 0 ? -1 : static_cast<int64_t>(ord) * j + pid % j;
  };

  // Iterative Tarjan DFS from the requested state: a frame carries its
  // state's DFS index and lowlink, and an on-stack state's word holds its
  // DFS index. `succ` stacks the unexplored successors of every open
  // frame; `succ_rows` stacks the rows the open components reach through
  // finished states, each component's share starting at its root frame's
  // rows_base. A build is not deadline-gated: it is the "plus one row
  // build" of the overrun bound.
  struct Frame {
    uint32_t index, low;
    size_t succ_base, rows_base, stack_base;
  };
  std::vector<Frame> frames;
  std::vector<uint64_t> succ, scc_stack;
  std::vector<uint32_t> succ_rows;
  std::vector<uint64_t> acc(words);
  uint32_t next_index = 0;
  const auto enter = [&](uint64_t pid) {
    state[pid] = ++next_index;
    frames.push_back({next_index, next_index, succ.size(), succ_rows.size(),
                      scc_stack.size()});
    scc_stack.push_back(pid);
    const uint32_t p = static_cast<uint32_t>(pid % j);
    const uint32_t np = (p + 1) % j;
    shards_[s]->ForEachEdge(static_cast<VertexId>(pid / j), plan.seq[p],
                            /*backward=*/false, [&](VertexId w) {
                              succ.push_back(static_cast<uint64_t>(w) * j + np);
                              return true;
                            });
    ++result.row_states;
  };
  // Finishes the component rooted at `root`: its row is its boundary
  // members' bits ORed with the rows it reaches. A component without a
  // boundary member reuses a reached row that equals the union (with a
  // boundary member, the union holds a bit no downstream row can hold).
  const auto finish = [&](const Frame& root) {
    const auto first = succ_rows.begin() + static_cast<ptrdiff_t>(root.rows_base);
    std::sort(first, succ_rows.end());
    const auto last = std::unique(first, succ_rows.end());
    bool own = false;
    for (size_t i = root.stack_base; i < scc_stack.size() && !own; ++i) {
      own = boundary_bit(scc_stack[i]) >= 0;
    }
    uint32_t id = kNoRow;
    if (!own && last - first == 1) {
      id = *first;
    } else if (own || first != last) {
      std::fill(acc.begin(), acc.end(), 0);
      for (size_t i = root.stack_base; i < scc_stack.size(); ++i) {
        const int64_t bit = boundary_bit(scc_stack[i]);
        if (bit >= 0) acc[bit / 64] |= uint64_t{1} << (bit % 64);
      }
      for (auto it = first; it != last; ++it) {
        const std::vector<uint64_t>& bits = sp.owned[*it]->bits;
        for (size_t w = 0; w < words; ++w) acc[w] |= bits[w];
      }
      for (auto it = first; !own && it != last; ++it) {
        if (sp.owned[*it]->bits == acc) id = *it;
      }
      if (id == kNoRow) {
        id = static_cast<uint32_t>(sp.owned.size());
        sp.owned.push_back(std::make_unique<BoundaryRow>(BoundaryRow{acc}));
      }
    }
    const BoundaryRow* row = id == kNoRow ? nullptr : sp.owned[id].get();
    for (size_t i = root.stack_base; i < scc_stack.size(); ++i) {
      state[scc_stack[i]] = kFinished | id;
      const int64_t bit = boundary_bit(scc_stack[i]);
      if (bit >= 0) sp.slots[bit].store(row, std::memory_order_release);
    }
    scc_stack.resize(root.stack_base);
    succ_rows.resize(root.rows_base);
    return id;
  };

  const uint64_t start =
      static_cast<uint64_t>(shard.boundary[row_idx / j]) * j + row_idx % j;
  try {
    enter(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (succ.size() > f.succ_base) {
        const uint64_t w = succ.back();
        succ.pop_back();
        const uint32_t sw = state[w];
        if (sw == 0) {
          enter(w);
        } else if (sw < kFinished) {
          f.low = std::min(f.low, sw);
        } else if (sw != (kFinished | kNoRow)) {
          succ_rows.push_back(sw & ~kFinished);
        }
        continue;
      }
      const Frame done = f;
      frames.pop_back();
      if (done.low < done.index) {
        frames.back().low = std::min(frames.back().low, done.low);
        continue;
      }
      const uint32_t id = finish(done);
      if (!frames.empty() && id != kNoRow) succ_rows.push_back(id);
    }
  } catch (...) {
    // States still on the stack would read as DFS indices to the next
    // build: leave them unvisited. Finished states keep their rows.
    for (const uint64_t pid : scc_stack) state[pid] = 0;
    throw;
  }
  ++result.table_rows_built;
  return sp.slots[row_idx].load(std::memory_order_relaxed);
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
  const ShardPlan& dst_plan = *plan.shards[st];
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
  // Label-matched cross hop out of (u, q): marks and pushes unseen skeleton
  // entries. Returns true, pushing nothing more, when an entry lands on a
  // state phase 2 marked: that state intra-reaches (t, 0), and the hop is
  // the cross edge composition requires. acc_stamp carries this probe's
  // stamp only once phase 2 has run, so phase-1 hops never accept here.
  const auto emit_cross = [&](VertexId u, uint32_t q) {
    const Label l = plan.seq[q];
    const uint32_t nq = (q + 1) % j;
    for (const LabeledNeighbor& nb : partition_.CrossOutEdges(u)) {
      if (nb.label != l) continue;
      const uint64_t npid = pid_of(nb.v, nq);
      if (scratch.exp_stamp[npid] == stamp) continue;
      scratch.exp_stamp[npid] = stamp;
      ++result.cross_hops;
      if (scratch.acc_stamp[npid] == stamp) return true;
      scratch.skel_queue.push_back(npid);
    }
    return false;
  };
  // A table shard's bitsets over its boundary product states, laid out
  // like BoundaryRow::bits.
  const auto words_of = [j](const ShardPlan& sp) {
    return (static_cast<size_t>(sp.num_boundary) * j + 63) / 64;
  };
  const auto has_bit = [](const std::vector<uint64_t>& bits, uint64_t i) {
    return ((bits[i / 64] >> (i % 64)) & 1) != 0;
  };
  // The probe's covered set of table shard `sh`, cleared on first use.
  const auto covered_of = [&](uint32_t sh) -> std::vector<uint64_t>& {
    std::vector<uint64_t>& covered = scratch.covered[sh];
    if (scratch.covered_stamp[sh] != stamp) {
      scratch.covered_stamp[sh] = stamp;
      covered.assign(words_of(*plan.shards[sh]), 0);
    }
    return covered;
  };
  // Scans `row` of table shard `sh`: ORs it into the covered set (and into
  // `tested`, when given) and queues each word's newly covered bits as an
  // exit word; their cross hops wait until the skeleton walk needs them.
  // With `stop`, returns true as soon as a word of the row meets it.
  const auto scan_row = [&](uint32_t sh, const BoundaryRow& row,
                            const std::vector<uint64_t>* stop,
                            std::vector<uint64_t>* tested) {
    std::vector<uint64_t>& covered = covered_of(sh);
    for (size_t w = 0; w < row.bits.size(); ++w) {
      if (stop != nullptr && (row.bits[w] & (*stop)[w]) != 0) return true;
      if (tested != nullptr) (*tested)[w] |= row.bits[w];
      const uint64_t fresh = row.bits[w] & ~covered[w];
      if (fresh == 0) continue;
      covered[w] |= fresh;
      scratch.exit_queue.push_back({sh, static_cast<uint32_t>(w), fresh});
    }
    return false;
  };
  // Emits the cross hops of one queued exit word's boundary states; true
  // when a hop accepts.
  const auto emit_exits = [&](const Scratch::ExitWord& exits) {
    const ShardInfo& shard = partition_.shard(exits.shard);
    for (uint64_t bits = exits.bits; bits != 0; bits &= bits - 1) {
      const uint32_t bit = exits.word * 64 + std::countr_zero(bits);
      if (emit_cross(partition_.GlobalOf(exits.shard, shard.boundary[bit / j]),
                     bit % j)) {
        return true;
      }
    }
    return false;
  };
  // Forward walk of shard `sh` from its local state (lv, p), which the
  // caller has marked: marks global states in `stamps` and emits the cross
  // hops of every state it expands; a hop that accepts stops it. An edge
  // arriving at (intra_target, 0) stops it too (kInvalidVertex: never).
  // With `at_rows` (a table shard), a boundary state that a row the probe
  // scanned covers is not expanded, and neither is one whose row is
  // already built: the walk scans that row, which holds every boundary
  // state the state intra-reaches. The walk builds no row; a boundary
  // state without one is expanded.
  const auto walk_forward = [&](uint32_t sh, VertexId lv, uint32_t p,
                                std::vector<uint32_t>& stamps,
                                VertexId intra_target, bool at_rows) {
    scratch.walk_queue.assign(1, pid_of(lv, p));
    const WalkEnd end = WalkShard</*kReverse=*/false>(
        *shards_[sh], plan.seq, scratch.walk_queue, gate,
        [&](VertexId lu, uint32_t q) {
          const ShardPlan& sp = *plan.shards[sh];
          const int32_t ord = at_rows ? (*sp.boundary_ord)[lu] : -1;
          if (ord >= 0) {
            const uint32_t row_idx = static_cast<uint32_t>(ord) * j + q;
            if (has_bit(covered_of(sh), row_idx)) return Visit::kSkip;
            if (const BoundaryRow* row = sp.Row(row_idx)) {
              scan_row(sh, *row, nullptr, nullptr);
              return Visit::kSkip;
            }
          }
          return emit_cross(partition_.GlobalOf(sh, lu), q) ? Visit::kStop
                                                            : Visit::kExpand;
        },
        [&](VertexId lw, uint32_t np) {
          if (np == 0 && lw == intra_target) return Arrival::kStop;
          return Mark(stamps, pid_of(partition_.GlobalOf(sh, lw), np), stamp);
        });
    result.expanded += static_cast<uint32_t>(scratch.walk_queue.size());
    return end;
  };

  // Phase 1 — source-shard suffix: forward walk from (s, 0) inside
  // shard(s); cross edges leaving any reached state seed the skeleton. In a
  // table shard the walk stops at boundary states with built rows and
  // scans those rows, except with need_intra: an edge arriving at (t, 0)
  // is then a purely intra-shard witness, which only a full walk finds.
  // Arrival, never the seed itself, enforces the >= 1-edge requirement, so
  // s == t demands a genuine aligned cycle. Scanned rows queue exit words.
  scratch.skel_queue.clear();
  scratch.exit_queue.clear();
  scratch.fwd_stamp[pid_of(s, 0)] = stamp;
  const WalkEnd fwd = walk_forward(
      ss, partition_.LocalOf(s), 0, scratch.fwd_stamp,
      need_intra && ss == st ? partition_.LocalOf(t) : kInvalidVertex,
      plan.shards[ss]->tables && !need_intra);
  if (fwd != WalkEnd::kDone) {
    result.reachable = fwd == WalkEnd::kStopped;
    result.timed_out = fwd == WalkEnd::kTimedOut;
    return result;
  }
  if (scratch.skel_queue.empty() && scratch.exit_queue.empty()) return result;

  // Phase 2 — target-shard prefix: reverse walk from (t, 0) inside
  // shard(t) marks states that intra-reach (t, 0). Over budget it marks
  // all of them, the accept set A. In a table shard it stops at boundary
  // states and collects them into Stop: any path from an entry to (t, 0)
  // has a last boundary state, which lies in Stop and in the entry's row.
  if (dst_plan.tables) {
    scratch.stop.assign(words_of(dst_plan), 0);
    if (ss == st) scratch.tested.assign(words_of(dst_plan), 0);
  }
  scratch.acc_stamp[pid_of(t, 0)] = stamp;
  scratch.walk_queue.assign(1, pid_of(partition_.LocalOf(t), 0));
  const WalkEnd acc = WalkShard</*kReverse=*/true>(
      *shards_[st], plan.seq, scratch.walk_queue, gate,
      [&](VertexId lv, uint32_t q) {
        if (!dst_plan.tables) return Visit::kExpand;
        const int32_t ord = (*dst_plan.boundary_ord)[lv];
        if (ord < 0) return Visit::kExpand;
        const uint64_t bit = static_cast<uint64_t>(ord) * j + q;
        scratch.stop[bit / 64] |= uint64_t{1} << (bit % 64);
        return Visit::kSkip;
      },
      [&](VertexId lw, uint32_t q) {
        return Mark(scratch.acc_stamp, pid_of(partition_.GlobalOf(st, lw), q),
                    stamp);
      });
  result.expanded += static_cast<uint32_t>(scratch.walk_queue.size());
  if (acc == WalkEnd::kTimedOut) {
    result.timed_out = true;
    return result;
  }

  // Phase 3 — skeleton BFS. Pending entries pop first; only when none is
  // left does the walk pop one queued exit word and emit its cross hops.
  // From here on a hop accepts as it lands on a state phase 2 marked (over
  // budget: in A; in a table shard: in Stop). Entries pushed in phase 1
  // were not tested at push, so an entry into shard(t) also accepts at pop
  // if phase 2 marked it or, in a table shard, if its row meets Stop. Over
  // budget that is complete because A is intra-closed: any state an
  // expansion marks inside shard(t) that lies in A puts its own entry in
  // A, and that entry's push or pop already answered true (so exp-stamp
  // dedup of later entries cannot hide an accepting one).
  size_t head = 0;
  size_t exit_head = 0;
  while (head < scratch.skel_queue.size() ||
         exit_head < scratch.exit_queue.size()) {
    if (gate.Hit()) {
      result.timed_out = true;
      return result;
    }
    if (head == scratch.skel_queue.size()) {
      if (emit_exits(scratch.exit_queue[exit_head++])) {
        result.reachable = true;
        return result;
      }
      continue;
    }
    const uint64_t pid = scratch.skel_queue[head++];
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
      const int32_t ord = (*sp.boundary_ord)[partition_.LocalOf(v)];
      const uint32_t row_idx = static_cast<uint32_t>(ord) * j + p;
      // A covered entry lies in a scanned row, so its own row is a subset
      // of that row and every exit it holds is already queued. A
      // shard(t) entry also needs its Stop test, which only a tested row
      // settles: when shard(s) is shard(t), phase-1 rows cover entries
      // that may still head a cross path into t, so the skip reads
      // `tested`, the rows of shard(t) entries this loop scanned.
      const bool trap = sv == st && ss == st;
      if (has_bit(trap ? scratch.tested : covered_of(sv), row_idx)) continue;
      if (scan_row(sv, *GetRow(sp, sv, row_idx, plan, result),
                   sv == st ? &scratch.stop : nullptr,
                   trap ? &scratch.tested : nullptr)) {
        result.reachable = true;
        return result;
      }
    } else {
      // Over-budget shard: expand the product graph on the fly. exp_stamp
      // is shared across every entry into this shard within the probe (the
      // entry itself was marked when its cross hop was emitted), so the
      // shard's product graph is walked at most once per probe. A hop
      // that accepts stops the walk.
      const WalkEnd end = walk_forward(sv, partition_.LocalOf(v), p,
                                       scratch.exp_stamp, kInvalidVertex, false);
      if (end != WalkEnd::kDone) {
        result.reachable = end == WalkEnd::kStopped;
        result.timed_out = end == WalkEnd::kTimedOut;
        return result;
      }
    }
  }
  return result;
}

uint64_t CompositionEngine::MemoryBytes() const {
  uint64_t bytes = 0;
  std::unordered_set<const std::vector<int32_t>*> ords;
  const auto count_ord = [&](const std::vector<int32_t>* ord) {
    if (ord != nullptr && ords.insert(ord).second) {
      bytes += ord->capacity() * sizeof(int32_t);
    }
  };
  for (const auto& ord : ords_) count_ord(ord.get());
  for (const auto& [seq, plan] : plans_) {
    for (const auto& spp : plan->shards) {
      ShardPlan& sp = *spp;
      bytes += sizeof(ShardPlan);
      count_ord(sp.boundary_ord.get());
      std::lock_guard<std::mutex> lock(sp.build_mu);
      if (sp.slots != nullptr) {
        bytes += static_cast<uint64_t>(sp.num_boundary) * plan->j *
                 sizeof(std::atomic<const BoundaryRow*>);
      }
      for (const auto& row : sp.owned) {
        bytes += sizeof(BoundaryRow) + row->bits.capacity() * sizeof(uint64_t);
      }
      bytes += sp.build_state.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

}  // namespace rlc

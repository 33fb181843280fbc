// Batched boolean-query API for the serving layer.
//
// A QueryBatch collects RLC probes (s, t, L+) with the constraint sequences
// *interned once per distinct sequence* — the prepared-statement model of a
// query log, where thousands of probes share a handful of templates. An
// executor then validates and resolves each distinct sequence exactly once,
// groups the probes by interned MR (and, in the sharded service, by shard)
// and answers each group over the sealed CSR layout with lookahead prefetch
// (RlcIndex::QueryGroupInterned). This amortizes the per-call overhead that
// dominates scalar serving — FindMr hashing, constraint validation, and the
// cold first touch of every probe's entry lists.
//
// Both executors share one flat layout per batch (serve/kernel_jobs.h): a
// stable counting sort of the probe positions by group, one flat probe-pair
// array in that order, and kernel jobs that are spans of it answering into
// one flat answer array, mapped back to submission order at the end.
//
// Two executors exist:
//  * ExecuteBatch(index, batch)      — one whole-graph index (this header);
//  * ShardedRlcService::Execute      — routed across shards
//                                      (sharded_service.h).
// Both return answers identical to evaluating RlcIndex::Query per probe.

#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "rlc/core/label_seq.h"
#include "rlc/core/rlc_index.h"
#include "rlc/serve/serving_status.h"

namespace rlc {

class ThreadPool;  // util/thread_pool.h

/// One probe: endpoints plus the batch-local id of an interned sequence.
struct BatchProbe {
  VertexId s = 0;
  VertexId t = 0;
  uint32_t seq_id = 0;
};

/// A reusable batch of probes over interned constraint sequences.
class QueryBatch {
 public:
  /// Returns the batch-local id of `seq`, interning it on first sight.
  uint32_t InternSequence(const LabelSeq& seq) {
    auto [it, inserted] =
        ids_.try_emplace(seq, static_cast<uint32_t>(seqs_.size()));
    if (inserted) seqs_.push_back(seq);
    return it->second;
  }

  /// Adds one probe against an already-interned sequence id.
  void Add(VertexId s, VertexId t, uint32_t seq_id) {
    probes_.push_back({s, t, seq_id});
  }

  /// Convenience: intern + add in one call.
  void Add(VertexId s, VertexId t, const LabelSeq& seq) {
    Add(s, t, InternSequence(seq));
  }

  size_t num_probes() const { return probes_.size(); }
  uint32_t num_sequences() const { return static_cast<uint32_t>(seqs_.size()); }
  const std::vector<BatchProbe>& probes() const { return probes_; }
  const std::vector<LabelSeq>& sequences() const { return seqs_; }
  const LabelSeq& sequence(uint32_t seq_id) const { return seqs_[seq_id]; }

  /// Drops the probes but keeps the interned sequences and their ids —
  /// replay loops reuse the same templates chunk after chunk.
  void ClearProbes() { probes_.clear(); }

 private:
  std::vector<LabelSeq> seqs_;
  std::unordered_map<LabelSeq, uint32_t, LabelSeqHash> ids_;
  std::vector<BatchProbe> probes_;
};

/// Answers plus executor accounting (query-path telemetry for benches and
/// the serving stats).
struct AnswerBatch {
  std::vector<uint8_t> answers;  ///< answers[i] == 1 iff probe i reachable
  /// Per-probe outcome, parallel to `answers`. answers[i] is exact iff
  /// statuses[i] == ProbeStatus::kOk (every non-kOk answer stays 0). All
  /// kOk on a fault-free run with no deadline.
  std::vector<ProbeStatus> statuses;
  uint64_t num_groups = 0;    ///< index probe groups executed
  uint64_t num_composed = 0;  ///< probes answered by cross-shard composition
                              ///< over the boundary skeleton (sharded
                              ///< executor only)
  uint64_t num_deadline_exceeded = 0;  ///< statuses == kDeadlineExceeded
  uint64_t num_shedded = 0;            ///< statuses == kShedded
  uint64_t num_unavailable = 0;        ///< statuses == kShardUnavailable
  uint64_t num_degraded = 0;  ///< probes answered exactly by index-free
                              ///< evaluation because their shard was broken/
                              ///< breaker-open (sharded executor only; kOk)

  bool all_ok() const {
    return num_deadline_exceeded == 0 && num_shedded == 0 &&
           num_unavailable == 0;
  }
};

/// Execution knobs for the single-index executor.
struct ExecuteOptions {
  /// Pool the grouped CSR passes fan out across; null (default) runs them
  /// on the caller's thread. The pool is only borrowed for the duration of
  /// the call. Jobs answer disjoint spans of one flat per-batch array, so
  /// answers and counters are identical with and without a pool.
  ThreadPool* pool = nullptr;
  /// Groups larger than this split into multiple jobs so a batch dominated
  /// by one template still spreads across the pool.
  size_t probes_per_job = 8192;
  /// Per-batch execution budget in nanoseconds; 0 (default) = no deadline.
  /// The executor stamps an absolute deadline at entry and checks it
  /// between job chunks: jobs that have not started when it expires are
  /// skipped and their probes return ProbeStatus::kDeadlineExceeded — so a
  /// batch never blocks unboundedly behind a slow index, and every probe
  /// that did run keeps its exact answer.
  uint64_t batch_budget_ns = 0;
};

/// Executes `batch` against one whole-graph index: validates and resolves
/// each distinct sequence once, then runs one grouped CSR pass per distinct
/// MR — in parallel across (chunked) groups when `options` provides a
/// pool. Answers are identical to calling index.Query per probe, with or
/// without a pool.
/// \throws std::invalid_argument on an invalid sequence (empty, longer than
///         the index's k, or non-primitive), an out-of-range probe vertex,
///         or an out-of-range seq_id.
AnswerBatch ExecuteBatch(const RlcIndex& index, const QueryBatch& batch,
                         const ExecuteOptions& options);
inline AnswerBatch ExecuteBatch(const RlcIndex& index,
                                const QueryBatch& batch) {
  return ExecuteBatch(index, batch, ExecuteOptions{});
}

}  // namespace rlc

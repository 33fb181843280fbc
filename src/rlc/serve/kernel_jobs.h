// Internal helpers for the batched executors: one flat probe layout per
// batch, and a runner that executes grouped CSR probe jobs over it either
// inline or fanned out across a worker pool.
//
// An executor counting-sorts its probe positions once (StableCountingSort)
// into an `order` array and a parallel flat VertexPair array, so every
// (index, MR) group is a contiguous span. A job is a [begin, end) span of
// one group — a whole group, or a chunk of one when it is big enough to
// split for load balance — and answers into the same span of one flat
// per-batch answer array. Jobs write disjoint spans and touch only the
// (const, thread-safe) query path of their index, so running them in any
// order on any thread produces the same answers; the caller maps them back
// through `order`, which keeps batch execution bit-identical for every
// thread count.
//
// When metrics are enabled (obs::Enabled()), each job additionally runs
// the counted kernel (probe/signature-refute/hit tallies) and records its
// wall time; the instrumentation is per *job* (<= probes_per_job probes),
// never per probe, so the measured overhead on the negative-heavy kernel
// stays inside the bench budget. RunKernelJobs always maintains the global
// "serve.exec.queue_depth" gauge (jobs not yet claimed by a worker) —
// admission control reads it, so it cannot gate on the metrics kill
// switch.
//
// Fault tolerance hooks, all checked once per job (never per probe):
//  * a job with an absolute deadline that has already expired is skipped
//    (outcome kSkippedDeadline, answers stay 0) — this is the "check the
//    deadline between job chunks" point of deadline-aware execution;
//  * each job evaluates its failpoint site through the one-load fast path;
//  * a throwing kernel (only injected faults throw today) is caught into
//    outcome kFailed — ThreadPool::Run's fn must not throw, and the
//    routing pass upstairs decides whether the probes degrade to the
//    exact index-free composition path or surface a status.

#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <span>
#include <vector>

#include "rlc/core/rlc_index.h"
#include "rlc/obs/metrics.h"
#include "rlc/util/failpoint.h"
#include "rlc/util/thread_pool.h"

namespace rlc::internal {

/// Stable counting sort of `n` positions: `src(j)` yields the j-th input
/// position and `key(pos)` its bucket in [0, num_keys). Writes the
/// positions bucket by bucket, in input order inside each bucket, to
/// `order` (size n) and the bucket bounds to `start` (size num_keys + 1:
/// bucket b is order[start[b], start[b + 1])). O(n + num_keys).
template <typename SrcFn, typename KeyFn>
void StableCountingSort(size_t n, SrcFn&& src, uint32_t num_keys,
                        KeyFn&& key, std::vector<uint32_t>& start,
                        std::vector<uint32_t>& order) {
  start.assign(size_t{num_keys} + 1, 0);
  for (size_t j = 0; j < n; ++j) ++start[key(src(j)) + 1];
  for (uint32_t b = 0; b < num_keys; ++b) start[b + 1] += start[b];
  order.resize(n);
  // Place with start[b] as bucket b's cursor; afterwards it holds the end
  // of bucket b, which is where bucket b + 1 begins — shift back by one.
  for (size_t j = 0; j < n; ++j) {
    const uint32_t pos = src(j);
    order[start[key(pos)]++] = pos;
  }
  for (uint32_t b = num_keys; b > 0; --b) start[b] = start[b - 1];
  start[0] = 0;
}

struct KernelJob {
  const RlcIndex* index = nullptr;
  MrId mr = kInvalidMrId;
  /// Span [begin, end) of the batch's flat pair and answer arrays.
  uint32_t begin = 0;
  uint32_t end = 0;
  GroupQueryStats stats;   ///< filled when metrics are enabled
  uint64_t kernel_ns = 0;  ///< job wall time when metrics are enabled
  /// Absolute deadline (obs::NowNanos() timebase); 0 = none. Checked once
  /// before the job's kernel pass runs.
  uint64_t deadline_ns = 0;
  /// Failpoint evaluated before the kernel pass (null = no site).
  const char* failpoint = nullptr;

  enum class Outcome : uint8_t {
    kRan = 0,              ///< answers are valid
    kSkippedDeadline = 1,  ///< deadline expired before the job started
    kFailed = 2,           ///< kernel threw (injected fault); answers are 0
  };
  Outcome outcome = Outcome::kRan;
};

/// Appends jobs covering span [begin, end) of one probe group against
/// (index, mr), split into chunks of at most `chunk` probes (>= 1) so one
/// big group still spreads across a pool.
inline void AppendSpanJobs(const RlcIndex& index, MrId mr, uint32_t begin,
                           uint32_t end, size_t chunk, uint64_t deadline_ns,
                           const char* failpoint,
                           std::vector<KernelJob>& jobs) {
  for (uint32_t b = begin; b < end;) {
    const uint32_t e = static_cast<uint32_t>(
        std::min<size_t>(end, size_t{b} + chunk));
    KernelJob job;
    job.index = &index;
    job.mr = mr;
    job.begin = b;
    job.end = e;
    job.deadline_ns = deadline_ns;
    job.failpoint = failpoint;
    jobs.push_back(job);
    b = e;
  }
}

/// Pending kernel jobs across all executors in the process (the pool has
/// no queue of its own — jobs are claimed from a shared cursor).
inline obs::Gauge& KernelQueueDepthGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("serve.exec.queue_depth");
  return g;
}

/// Sums the per-job kernel telemetry (meaningful only for a metrics-on
/// run) and flushes each job's wall time into `job_ns`, if given.
inline GroupQueryStats MergeJobStats(const std::vector<KernelJob>& jobs,
                                     obs::Histogram* job_ns = nullptr) {
  GroupQueryStats total;
  for (const KernelJob& job : jobs) {
    total.probes += job.stats.probes;
    total.sig_refuted += job.stats.sig_refuted;
    total.hits += job.stats.hits;
    if (job_ns != nullptr && job.kernel_ns != 0) job_ns->Record(job.kernel_ns);
  }
  return total;
}

/// Executes every job's grouped CSR pass over its span of `pairs`, writing
/// the same span of `answers` (same size as `pairs`, zero-initialized).
/// `pool` may be null (run inline). Never throws: per-job faults land in
/// the job's outcome field.
inline void RunKernelJobs(std::vector<KernelJob>& jobs,
                          std::span<const VertexPair> pairs,
                          std::span<uint8_t> answers, ThreadPool* pool) {
  const bool counted = obs::Enabled();
  // Deadline short-circuit shared across the run: once any job's clock read
  // proves time T has passed, every later job whose deadline is <= T skips
  // without its own clock read — the tail of a blown batch drains in O(1)
  // per job. Monotone-safe with heterogeneous deadlines (a later deadline
  // still gets a fresh read).
  std::atomic<uint64_t> observed_now{0};
  auto run_one = [&](KernelJob& job) {
    if (job.deadline_ns != 0) {
      uint64_t now = observed_now.load(std::memory_order_relaxed);
      if (now < job.deadline_ns) {
        now = obs::NowNanos();
        observed_now.store(now, std::memory_order_relaxed);
      }
      if (now >= job.deadline_ns) {
        job.outcome = KernelJob::Outcome::kSkippedDeadline;
        KernelQueueDepthGauge().Sub(1);
        return;
      }
    }
    const auto job_pairs = pairs.subspan(job.begin, job.end - job.begin);
    const auto job_answers = answers.subspan(job.begin, job.end - job.begin);
    try {
      if (job.failpoint != nullptr) FailpointHitFast(job.failpoint);
      if (counted) {
        const uint64_t t0 = obs::NowNanos();
        job.index->QueryGroupInterned(job.mr, job_pairs, job_answers,
                                      &job.stats);
        job.kernel_ns = obs::NowNanos() - t0;
      } else {
        job.index->QueryGroupInterned(job.mr, job_pairs, job_answers);
      }
    } catch (const std::exception&) {
      job.outcome = KernelJob::Outcome::kFailed;
      std::fill(job_answers.begin(), job_answers.end(), 0);  // partial pass
      job.stats = GroupQueryStats{};
    }
    KernelQueueDepthGauge().Sub(1);
  };
  KernelQueueDepthGauge().Add(static_cast<int64_t>(jobs.size()));
  if (pool == nullptr || jobs.size() <= 1) {
    for (KernelJob& job : jobs) run_one(job);
    return;
  }
  std::atomic<size_t> cursor{0};
  pool->Run([&](uint32_t) {
    for (size_t j; (j = cursor.fetch_add(1)) < jobs.size();) {
      run_one(jobs[j]);
    }
  });
}

}  // namespace rlc::internal

#include "rlc/serve/query_batch.h"

#include "rlc/obs/metrics.h"
#include "rlc/serve/kernel_jobs.h"
#include "rlc/util/common.h"

namespace rlc {

namespace {

// Global-registry telemetry for the free-function batch executor; the
// sharded service keeps its own per-instance registry instead. Handles
// are resolved once — the registry mutex is never on the batch path.
struct BatchMetrics {
  obs::Counter& probes;
  obs::Counter& sig_refuted;
  obs::Counter& hits;
  obs::Counter& batches;
  obs::Histogram& batch_ns;
  obs::Histogram& job_ns;
  obs::Counter& deadline_exceeded;
  obs::Counter& job_failures;

  static BatchMetrics& Get() {
    obs::Registry& reg = obs::Registry::Global();
    static BatchMetrics m{reg.GetCounter("rlc.query.probes"),
                          reg.GetCounter("rlc.query.sig_refuted"),
                          reg.GetCounter("rlc.query.hits"),
                          reg.GetCounter("rlc.query.batches"),
                          reg.GetHistogram("rlc.query.batch_ns"),
                          reg.GetHistogram("rlc.query.kernel_job_ns"),
                          reg.GetCounter("rlc.query.deadline_exceeded"),
                          reg.GetCounter("rlc.query.job_failures")};
    return m;
  }
};

}  // namespace

AnswerBatch ExecuteBatch(const RlcIndex& index, const QueryBatch& batch,
                         const ExecuteOptions& options) {
  RLC_REQUIRE(options.probes_per_job >= 1,
              "ExecuteBatch: probes_per_job must be >= 1");
  const bool metrics_on = obs::Enabled();
  // An active batch budget needs the clock even when metrics are off.
  const Deadline deadline = Deadline::After(
      options.batch_budget_ns,
      options.batch_budget_ns != 0 || metrics_on ? obs::NowNanos() : 0);
  const uint64_t batch_t0 = metrics_on ? obs::NowNanos() : 0;
  AnswerBatch out;
  out.answers.assign(batch.num_probes(), 0);
  out.statuses.assign(batch.num_probes(), ProbeStatus::kOk);

  // Per distinct sequence: validate once, hash into the MR table once.
  const std::vector<LabelSeq>& seqs = batch.sequences();
  const auto num_seqs = static_cast<uint32_t>(seqs.size());
  std::vector<MrId> mr_of(num_seqs);
  for (uint32_t i = 0; i < num_seqs; ++i) {
    RlcIndex::ValidateConstraint(seqs[i], index.k());
    mr_of[i] = index.FindMr(seqs[i]);
  }

  const std::vector<BatchProbe>& probes = batch.probes();
  const VertexId nv = index.num_vertices();
  for (uint32_t i = 0; i < probes.size(); ++i) {
    const BatchProbe& p = probes[i];
    RLC_REQUIRE(p.seq_id < num_seqs,
                "ExecuteBatch: probe " << i << " references unknown seq_id "
                                       << p.seq_id);
    RLC_REQUIRE(p.s < nv && p.t < nv,
                "ExecuteBatch: probe " << i << " vertex out of range");
  }

  // Bucket probe positions by sequence, in submission order inside each
  // bucket; probes of a sequence the index never recorded land in the
  // dropped bucket num_seqs (all false). pairs[k] is probe order[k].
  std::vector<uint32_t> start;
  std::vector<uint32_t> order;
  internal::StableCountingSort(
      probes.size(), [](size_t j) { return static_cast<uint32_t>(j); },
      num_seqs + 1,
      [&](uint32_t i) {
        const uint32_t seq_id = probes[i].seq_id;
        return mr_of[seq_id] == kInvalidMrId ? num_seqs : seq_id;
      },
      start, order);
  const uint32_t num_live = start[num_seqs];
  std::vector<VertexPair> pairs(num_live);
  for (uint32_t k = 0; k < num_live; ++k) {
    pairs[k] = {probes[order[k]].s, probes[order[k]].t};
  }
  std::vector<internal::KernelJob> jobs;
  for (uint32_t seq_id = 0; seq_id < num_seqs; ++seq_id) {
    if (start[seq_id] == start[seq_id + 1]) continue;
    ++out.num_groups;
    internal::AppendSpanJobs(index, mr_of[seq_id], start[seq_id],
                             start[seq_id + 1], options.probes_per_job,
                             deadline.at_ns, failpoints::kServeKernelJob,
                             jobs);
  }
  std::vector<uint8_t> answers(num_live, 0);
  internal::RunKernelJobs(jobs, pairs, answers, options.pool);

  // Map the answers back through `order`; jobs that the deadline skipped
  // (or that an injected fault failed) surface as statuses instead — this
  // executor has no degraded path of its own.
  for (const internal::KernelJob& job : jobs) {
    if (job.outcome == internal::KernelJob::Outcome::kRan) {
      for (uint32_t k = job.begin; k < job.end; ++k) {
        out.answers[order[k]] = answers[k];
      }
      continue;
    }
    ProbeStatus status = ProbeStatus::kShardUnavailable;
    if (job.outcome == internal::KernelJob::Outcome::kSkippedDeadline) {
      status = ProbeStatus::kDeadlineExceeded;
      out.num_deadline_exceeded += job.end - job.begin;
    } else {
      out.num_unavailable += job.end - job.begin;
    }
    for (uint32_t k = job.begin; k < job.end; ++k) {
      out.statuses[order[k]] = status;
    }
  }

  if (metrics_on) {
    BatchMetrics& m = BatchMetrics::Get();
    const GroupQueryStats totals = internal::MergeJobStats(jobs, &m.job_ns);
    m.probes.Add(totals.probes);
    m.sig_refuted.Add(totals.sig_refuted);
    m.hits.Add(totals.hits);
    m.batches.Inc();
    m.batch_ns.Record(obs::NowNanos() - batch_t0);
    if (out.num_deadline_exceeded > 0) {
      m.deadline_exceeded.Add(out.num_deadline_exceeded);
    }
    if (out.num_unavailable > 0) m.job_failures.Add(out.num_unavailable);
  }
  return out;
}

}  // namespace rlc

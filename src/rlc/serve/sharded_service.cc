#include "rlc/serve/sharded_service.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "rlc/obs/trace.h"
#include "rlc/serve/kernel_jobs.h"
#include "rlc/util/failpoint.h"
#include "rlc/util/thread_pool.h"
#include "rlc/util/timer.h"

namespace rlc {

namespace fs = std::filesystem;

ShardedRlcService::ServiceCounters::ServiceCounters(obs::Registry& reg)
    : queries(reg.GetCounter("serve.queries")),
      intra_true(reg.GetCounter("serve.intra_true")),
      intra_miss(reg.GetCounter("serve.intra_miss")),
      compose_probes(reg.GetCounter("serve.compose.probes")),
      compose_skeleton_hops(reg.GetCounter("serve.compose.skeleton_hops")),
      compose_cross_hops(reg.GetCounter("serve.compose.cross_hops")),
      compose_table_builds(reg.GetCounter("serve.compose.table_builds")),
      compose_row_states(reg.GetCounter("serve.compose.row_states")),
      compose_invalidations(reg.GetCounter("serve.compose.invalidations")),
      compose_expanded(reg.GetCounter("serve.compose.expanded")),
      batches(reg.GetCounter("serve.batches")),
      batch_groups(reg.GetCounter("serve.batch_groups")),
      seq_cache_flushes(reg.GetCounter("serve.seq_cache_flushes")),
      seq_cache_evictions(reg.GetCounter("serve.seq_cache_evictions")),
      updates_applied(reg.GetCounter("serve.updates_applied")),
      updates_deleted(reg.GetCounter("serve.updates_deleted")),
      updates_duplicate(reg.GetCounter("serve.updates_duplicate")),
      updates_cross(reg.GetCounter("serve.updates_cross")),
      shed(reg.GetCounter("serve.shed")),
      deadline_exceeded(reg.GetCounter("serve.deadline_exceeded")),
      breaker_opened(reg.GetCounter("serve.breaker.opened")),
      breaker_reclosed(reg.GetCounter("serve.breaker.reclosed")),
      breaker_trials(reg.GetCounter("serve.breaker.trials")),
      breaker_degraded(reg.GetCounter("serve.breaker.degraded_probes")),
      breaker_fail_fast(reg.GetCounter("serve.breaker.fail_fast")),
      compose_overruns(reg.GetCounter("serve.compose.budget_overruns")),
      shard_revives(reg.GetCounter("serve.breaker.revives")) {}

ShardedRlcService::StageHistograms::StageHistograms(obs::Registry& reg)
    : execute_ns(reg.GetHistogram("serve.stage.execute_ns")),
      resolve_ns(reg.GetHistogram("serve.stage.resolve_ns")),
      shard_kernel_ns(reg.GetHistogram("serve.stage.shard_kernel_job_ns")),
      route_ns(reg.GetHistogram("serve.stage.route_ns")),
      compose_job_ns(reg.GetHistogram("serve.stage.compose_job_ns")),
      compose_probe_ns(reg.GetHistogram("serve.stage.compose_probe_ns")),
      apply_updates_ns(reg.GetHistogram("serve.stage.apply_updates_ns")),
      checkpoint_ns(reg.GetHistogram("serve.stage.checkpoint_ns")) {}

ServiceStats ShardedRlcService::stats() const {
  ServiceStats s;
  s.queries = c_.queries.Value();
  s.intra_true = c_.intra_true.Value();
  s.intra_miss = c_.intra_miss.Value();
  s.compose_probes = c_.compose_probes.Value();
  s.compose_skeleton_hops = c_.compose_skeleton_hops.Value();
  s.compose_table_builds = c_.compose_table_builds.Value();
  s.compose_invalidations = c_.compose_invalidations.Value();
  s.compose_expanded = c_.compose_expanded.Value();
  s.batches = c_.batches.Value();
  s.batch_groups = c_.batch_groups.Value();
  s.seq_cache_flushes = c_.seq_cache_flushes.Value();
  s.seq_cache_evictions = c_.seq_cache_evictions.Value();
  s.updates_applied = c_.updates_applied.Value();
  s.updates_deleted = c_.updates_deleted.Value();
  s.updates_duplicate = c_.updates_duplicate.Value();
  s.updates_cross = c_.updates_cross.Value();
  s.shed = c_.shed.Value();
  s.deadline_exceeded = c_.deadline_exceeded.Value();
  s.breaker_opened = c_.breaker_opened.Value();
  s.breaker_reclosed = c_.breaker_reclosed.Value();
  s.breaker_trials = c_.breaker_trials.Value();
  s.breaker_degraded = c_.breaker_degraded.Value();
  s.breaker_fail_fast = c_.breaker_fail_fast.Value();
  s.compose_overruns = c_.compose_overruns.Value();
  s.shard_revives = c_.shard_revives.Value();
  s.partition_seconds = partition_seconds_;
  s.index_build_seconds = index_build_seconds_;
  return s;
}

std::vector<uint64_t> ShardedRlcService::ShardComposeCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shard_compose_.size());
  for (const obs::Counter* c : shard_compose_) counts.push_back(c->Value());
  return counts;
}

ShardedRlcService::ShardedRlcService(const DiGraph& g, ServiceOptions options)
    : g_(g), options_(std::move(options)) {
  Timer timer;
  partition_ = GraphPartition::Build(g_, options_.partition);
  partition_seconds_ = timer.ElapsedSeconds();
  shard_compose_.reserve(partition_.num_shards());
  for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
    shard_compose_.push_back(
        &metrics_.GetCounter("serve.compose.shard." + std::to_string(s)));
  }

  // One breaker per shard + one for the composition engine, each with its
  // own jitter stream so coupled trips do not retry in lockstep.
  shard_breakers_.resize(partition_.num_shards());
  for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
    BreakerOptions bo = options_.breaker;
    bo.seed = (bo.seed != 0 ? bo.seed : 0x6A09E667F3BCC909ULL) + s;
    shard_breakers_[s].breaker = CircuitBreaker(bo);
    shard_breakers_[s].state_gauge =
        &metrics_.GetGauge("serve.breaker.state." + std::to_string(s));
  }
  {
    BreakerOptions bo = options_.breaker;
    bo.seed = (bo.seed != 0 ? bo.seed : 0x6A09E667F3BCC909ULL) +
              partition_.num_shards();
    compose_breaker_.breaker = CircuitBreaker(bo);
    compose_breaker_.state_gauge =
        &metrics_.GetGauge("serve.breaker.state.compose");
  }

  if (!options_.durability.dir.empty()) {
    store_.emplace(options_.durability, "gen-", "", "ShardedRlcService");
  }

  timer.Reset();
  const uint64_t recover_t0 = obs::NowNanos();
  const bool recovered =
      store_ && store_->Recover(
                    [&](const std::string& gdir) { return LoadGeneration(gdir); },
                    [&] {
                      // A failed attempt may have partially mutated the
                      // service; reset everything LoadGeneration touches.
                      shard_dyn_.clear();
                      applied_set_.clear();
                      applied_inserts_.clear();
                      deleted_base_.clear();
                      partition_ = GraphPartition::Build(g_, options_.partition);
                    });
  if (recovered) {
    metrics_.GetGauge("serve.recover.load_ns")
        .Set(static_cast<int64_t>(obs::NowNanos() - recover_t0));
  }
  if (!recovered) BuildIndexes();
  index_build_seconds_ = timer.ElapsedSeconds();

  // The composition engine reads the partition and the shard overlays by
  // reference, so it is created once those exist; WAL replay below routes
  // through ApplyUpdatesInternal, which already notifies it of mutations.
  compose_ = std::make_unique<CompositionEngine>(partition_, shard_dyn_,
                                                 options_.compose);

  const uint32_t exec_threads =
      ThreadPool::ResolveThreads(options_.exec_threads);
  if (exec_threads > 1) exec_pool_ = std::make_unique<ThreadPool>(exec_threads);

  if (store_) {
    if (recovered) {
      const uint64_t replay_t0 = obs::NowNanos();
      store_->ReplayTail([&](std::span<const EdgeUpdate> updates) {
        ValidateUpdates(g_, updates);
        ApplyUpdatesInternal(updates);
      });
      metrics_.GetGauge("serve.recover.wal_replay_ns")
          .Set(static_cast<int64_t>(obs::NowNanos() - replay_t0));
      metrics_.GetGauge("serve.recover.replayed_records")
          .Set(static_cast<int64_t>(store_->recovery_info().replayed_records));
    }
    // End every open at a clean generation boundary.
    Checkpoint();
    store_->SweepUnlisted();
  }
}

void ShardedRlcService::ForEachShard(
    const std::function<void(uint32_t)>& task) const {
  const uint32_t num_shards = partition_.num_shards();
  const uint32_t threads =
      std::min(ThreadPool::ResolveThreads(options_.build_threads), num_shards);
  if (threads <= 1) {
    for (uint32_t shard = 0; shard < num_shards; ++shard) task(shard);
    return;
  }
  std::atomic<uint32_t> cursor{0};
  ThreadPool pool(threads);
  pool.Run([&](uint32_t) {
    for (uint32_t shard; (shard = cursor.fetch_add(1)) < num_shards;) {
      task(shard);
    }
  });
}

void ShardedRlcService::BuildIndexes() {
  // Build every shard index as an independent task on one worker pool. Each
  // task runs the sequential Algorithm 2 (the parallelism budget is spent
  // across shards, not within one), and always seals: the service serves
  // from the CSR layout. Nothing whole-graph is built — the composition
  // engine answers cross-shard probes from the shard graphs alone.
  IndexerOptions build_opts = options_.indexer;
  build_opts.num_threads = 1;
  build_opts.seal = true;
  shard_dyn_.resize(partition_.num_shards());
  ForEachShard([&](uint32_t shard) {
    const DiGraph& shard_graph = partition_.shard(shard).graph;
    RlcIndexBuilder builder(shard_graph, build_opts);
    shard_dyn_[shard] = std::make_unique<DynamicRlcIndex>(
        shard_graph, builder.Build(), options_.reseal);
  });
}

uint64_t ShardedRlcService::LoadGeneration(const std::string& gdir) {
  LoadedSnapshot meta = LoadSnapshotFile(gdir + "/service.snap");
  try {
    ValidateUpdates(g_, meta.inserted);
    ValidateUpdates(g_, meta.removed);
  } catch (const std::exception& e) {
    throw std::runtime_error(gdir + "/service.snap: " + e.what());
  }

  // Per-shard snapshot loads fan out across the build pool: each shard
  // parses, adopts and RestoreOverlay()s independently.
  shard_dyn_.clear();
  shard_dyn_.resize(partition_.num_shards());
  std::vector<std::string> shard_errors(partition_.num_shards());
  ForEachShard([&](uint32_t shard) {
    try {
      shard_dyn_[shard] =
          LoadDynamicSnapshot(gdir + "/shard-" + std::to_string(shard) + ".snap",
                              partition_.shard(shard).graph, options_.reseal)
              .first;
    } catch (const std::exception& e) {
      shard_errors[shard] = e.what();
    }
  });
  for (const std::string& err : shard_errors) {
    if (!err.empty()) throw std::runtime_error(err);
  }

  // Bookkeeping + skeleton: the partition was built from the base graph,
  // so replaying the *net* cross-edge changes reproduces the exact current
  // cross-edge set (boundary lists and skeleton are a function of it).
  for (const EdgeUpdate& e : meta.inserted) {
    applied_set_.insert({e.src, e.label, e.dst});
    applied_inserts_.push_back({e.src, e.label, e.dst, EdgeOp::kInsert});
    if (partition_.ShardOf(e.src) != partition_.ShardOf(e.dst)) {
      partition_.AddCrossEdge(e.src, e.label, e.dst);
    }
  }
  for (const EdgeUpdate& e : meta.removed) {
    deleted_base_.insert({e.src, e.label, e.dst});
    if (partition_.ShardOf(e.src) != partition_.ShardOf(e.dst)) {
      partition_.RemoveCrossEdge(e.src, e.label, e.dst);
    }
  }
  return meta.applied_lsn;
}

void ShardedRlcService::Checkpoint() {
  if (!store_) {
    throw std::logic_error("ShardedRlcService::Checkpoint: durability is off");
  }
  obs::ScopedSpan span(h_.checkpoint_ns, "serve.checkpoint");
  store_->Checkpoint([&](const std::string& gdir, uint64_t applied_lsn) {
    std::error_code ec;
    fs::create_directories(gdir, ec);
    if (ec) {
      throw std::runtime_error("ShardedRlcService::Checkpoint: cannot create " +
                               gdir + ": " + ec.message());
    }
    for (uint32_t shard = 0; shard < partition_.num_shards(); ++shard) {
      WriteDynamicSnapshot(gdir + "/shard-" + std::to_string(shard) + ".snap",
                           applied_lsn, *shard_dyn_[shard]);
    }
    std::vector<EdgeUpdate> removed;
    removed.reserve(deleted_base_.size());
    for (const auto& [src, label, dst] : deleted_base_) {
      removed.push_back({src, label, dst, EdgeOp::kDelete});
    }
    WriteSnapshotFile(gdir + "/service.snap", applied_lsn, applied_inserts_,
                      removed, /*index=*/nullptr);
  });
}

const ShardedRlcService::SeqEntry& ShardedRlcService::Resolve(
    const LabelSeq& seq) {
  const auto it = seq_cache_.find(seq);
  if (it != seq_cache_.end()) return it->second;

  RlcIndex::ValidateConstraint(seq, options_.indexer.k);
  SeqEntry entry;
  entry.shard_mr.resize(partition_.num_shards());
  for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
    entry.shard_mr[s] = shard_dyn_[s]->index().FindMr(seq);
  }
  // unordered_map references are stable across later inserts.
  return seq_cache_.emplace(seq, std::move(entry)).first->second;
}

CircuitBreaker::Decision ShardedRlcService::BreakerDecide(BreakerSlot& slot) {
  // The closed fast path never reads the clock — breaker bookkeeping on a
  // healthy service is a load and a branch.
  if (slot.breaker.closed()) return CircuitBreaker::Decision::kAllow;
  const CircuitBreaker::Decision d = slot.breaker.Allow(obs::NowNanos());
  if (d == CircuitBreaker::Decision::kTrial) {
    c_.breaker_trials.Inc();
    slot.state_gauge->Set(static_cast<int64_t>(slot.breaker.state()));
  }
  return d;
}

void ShardedRlcService::BreakerFail(BreakerSlot& slot) {
  if (slot.breaker.OnFailure(obs::NowNanos())) {
    c_.breaker_opened.Inc();
    slot.state_gauge->Set(static_cast<int64_t>(slot.breaker.state()));
  }
}

void ShardedRlcService::BreakerOk(BreakerSlot& slot) {
  if (slot.breaker.OnSuccess(0)) {
    c_.breaker_reclosed.Inc();
    slot.state_gauge->Set(static_cast<int64_t>(slot.breaker.state()));
  }
}

bool ShardedRlcService::Query(VertexId s, VertexId t,
                              const LabelSeq& constraint) {
  QueryBatch batch;
  batch.Add(s, t, constraint);
  const AnswerBatch out =
      Execute(batch, ExecuteLimits{0, options_.probe_budget_ns,
                                   /*shed_as_status=*/false});
  if (out.statuses[0] != ProbeStatus::kOk) {
    throw UnavailableError(std::string("ShardedRlcService::Query: ") +
                           ProbeStatusName(out.statuses[0]));
  }
  return out.answers[0] != 0;
}

AnswerBatch ShardedRlcService::Execute(const QueryBatch& batch) {
  return Execute(batch, ExecuteLimits{options_.batch_budget_ns,
                                      options_.probe_budget_ns,
                                      /*shed_as_status=*/false});
}

AnswerBatch ShardedRlcService::Execute(const QueryBatch& batch,
                                       const ExecuteLimits& limits) {
  // Per-stage instrumentation runs at batch/job granularity only (a clock
  // read per probe would dwarf a 30ns refuted probe); disabled metrics
  // cost one relaxed load here.
  const bool metrics_on = obs::Enabled();

  // Admission control, before any work: shed while the kernel-job queue is
  // over the high-water mark (or the batch itself is oversized) instead of
  // queueing into a latency collapse. Nothing has run, so retry-after-
  // backoff is safe.
  const char* shed_reason = nullptr;
  if (options_.max_batch_probes != 0 &&
      batch.num_probes() > options_.max_batch_probes) {
    shed_reason = "batch exceeds max_batch_probes";
  } else if (options_.max_pending_jobs > 0 &&
             internal::KernelQueueDepthGauge().Value() >=
                 options_.max_pending_jobs) {
    shed_reason = "kernel-job queue over the high-water mark";
  }
  if (shed_reason != nullptr) {
    c_.shed.Add(batch.num_probes());
    if (!limits.shed_as_status) {
      throw OverloadedError(std::string("ShardedRlcService::Execute: shed: ") +
                            shed_reason);
    }
    AnswerBatch shed_out;
    shed_out.answers.assign(batch.num_probes(), 0);
    shed_out.statuses.assign(batch.num_probes(), ProbeStatus::kShedded);
    shed_out.num_shedded = batch.num_probes();
    return shed_out;
  }

  // An active batch budget needs the clock even with metrics off.
  const uint64_t t_start =
      metrics_on || limits.batch_budget_ns != 0 ? obs::NowNanos() : 0;
  const Deadline deadline = Deadline::After(limits.batch_budget_ns, t_start);

  // Resolve (validate + intern-lookup) each distinct sequence once. The
  // entry pointers stay valid across the loop: references into the node-
  // based map are insert-stable. The memo is bounded here, up front, so
  // adversarial template churn cannot grow a long-lived serving process
  // without limit (a flush only costs re-resolution).
  const std::vector<LabelSeq>& seqs = batch.sequences();
  RLC_REQUIRE(seqs.size() <= kMaxCachedSequences,
              "ShardedRlcService::Execute: batch has " << seqs.size()
                  << " distinct sequences (limit " << kMaxCachedSequences << ")");
  if (seq_cache_.size() + seqs.size() > kMaxCachedSequences) {
    c_.seq_cache_flushes.Inc();
    c_.seq_cache_evictions.Add(seq_cache_.size());
    seq_cache_.clear();
  }
  std::vector<const SeqEntry*> entries;
  entries.reserve(seqs.size());
  for (const LabelSeq& seq : seqs) entries.push_back(&Resolve(seq));

  // Per-probe routing state, in submission order. Every probe is validated
  // before the batch counts, so a rejected call counts neither a batch nor
  // its queries.
  enum : uint8_t {
    kCross,      // endpoints in different shards
    kSameShard,  // same shard; after the kernel pass: a shard miss
    kDegrade,    // no trustworthy shard answer: answered index-free
    kDone,       // answered or given a status
  };
  const std::vector<BatchProbe>& probes = batch.probes();
  const auto n = static_cast<uint32_t>(probes.size());
  const auto num_seqs = static_cast<uint32_t>(seqs.size());
  const VertexId nv = g_.num_vertices();
  std::vector<uint8_t> route(n);
  for (uint32_t i = 0; i < n; ++i) {
    const BatchProbe& p = probes[i];
    RLC_REQUIRE(p.seq_id < num_seqs,
                "ShardedRlcService::Execute: probe " << i
                    << " references unknown seq_id " << p.seq_id);
    RLC_REQUIRE(p.s < nv && p.t < nv,
                "ShardedRlcService::Execute: probe " << i
                    << " vertex out of range");
    route[i] = partition_.ShardOf(p.s) == partition_.ShardOf(p.t) ? kSameShard
                                                                   : kCross;
  }
  c_.batches.Inc();
  c_.queries.Add(n);
  AnswerBatch out;
  out.answers.assign(n, 0);
  out.statuses.assign(n, ProbeStatus::kOk);

  // Bucket the same-shard probes by (shard, seq) with two stable counting
  // passes — by seq, then by shard — so `order` lists them shard-major,
  // in submission order inside each group, and pairs[k] is probe order[k]
  // in shard-local ids. Cross-shard probes fall in the dropped bucket.
  const auto identity = [](size_t j) { return static_cast<uint32_t>(j); };
  std::vector<uint32_t> start;
  std::vector<uint32_t> by_seq;
  std::vector<uint32_t> order;
  internal::StableCountingSort(
      n, identity, num_seqs + 1,
      [&](uint32_t i) {
        return route[i] == kSameShard ? probes[i].seq_id : num_seqs;
      },
      start, by_seq);
  const uint32_t num_same = start[num_seqs];
  internal::StableCountingSort(
      num_same, [&](size_t j) { return by_seq[j]; }, partition_.num_shards(),
      [&](uint32_t i) { return partition_.ShardOf(probes[i].s); }, start,
      order);
  std::vector<VertexPair> pairs(num_same);
  for (uint32_t k = 0; k < num_same; ++k) {
    const BatchProbe& p = probes[order[k]];
    pairs[k] = {partition_.LocalOf(p.s), partition_.LocalOf(p.t)};
  }
  const uint64_t t_resolved = metrics_on ? obs::NowNanos() : 0;
  if (metrics_on) h_.resolve_ns.Record(t_resolved - t_start);

  // Phase 1: grouped CSR probes on the shard indexes, one job list over
  // the flat groups, fanned out across the execution pool. Each shard the
  // batch touches gets one breaker decision — denied shards get no jobs:
  // their probes degrade straight to index-free composition.
  const size_t chunk = std::max<size_t>(size_t{1}, options_.exec_probes_per_job);
  std::vector<internal::KernelJob> jobs;
  uint64_t intra_true = 0;
  uint64_t intra_miss = 0;
  for (uint32_t shard = 0; shard < partition_.num_shards(); ++shard) {
    const uint32_t shard_end = start[shard + 1];
    if (start[shard] == shard_end) continue;
    if (BreakerDecide(shard_breakers_[shard]) ==
        CircuitBreaker::Decision::kDeny) {
      for (uint32_t k = start[shard]; k < shard_end; ++k) {
        route[order[k]] = kDegrade;
      }
      continue;
    }
    const RlcIndex& shard_index = shard_dyn_[shard]->index();
    for (uint32_t begin = start[shard]; begin < shard_end;) {
      const uint32_t seq_id = probes[order[begin]].seq_id;
      uint32_t end = begin + 1;
      while (end < shard_end && probes[order[end]].seq_id == seq_id) ++end;
      const MrId mr = entries[seq_id]->shard_mr[shard];
      if (mr == kInvalidMrId) {
        // The shard never recorded this MR: every probe is a shard miss
        // (matching ExecuteBatch, such groups do not count as executed).
        intra_miss += end - begin;
      } else {
        ++out.num_groups;
        internal::AppendSpanJobs(shard_index, mr, begin, end, chunk,
                                 deadline.at_ns,
                                 failpoints::kServeShardExecute, jobs);
      }
      begin = end;
    }
  }
  std::vector<uint8_t> answers(num_same, 0);
  internal::RunKernelJobs(jobs, pairs, answers, exec_pool_.get());
  const uint64_t t_shard_done = metrics_on ? obs::NowNanos() : 0;
  if (metrics_on) internal::MergeJobStats(jobs, &h_.shard_kernel_ns);

  // Map the kernel answers back through `order`. Jobs are shard-major, so
  // each shard's jobs are adjacent and its breaker evidence resolves once
  // per batch: any failed job is a failure; otherwise any job that ran is
  // a success (deadline-skipped jobs are no evidence either way).
  for (size_t j = 0; j < jobs.size();) {
    const RlcIndex* shard_index = jobs[j].index;
    const uint32_t shard = partition_.ShardOf(probes[order[jobs[j].begin]].s);
    bool ran = false;
    bool failed = false;
    for (; j < jobs.size() && jobs[j].index == shard_index; ++j) {
      const internal::KernelJob& job = jobs[j];
      for (uint32_t k = job.begin; k < job.end; ++k) {
        const uint32_t i = order[k];
        if (job.outcome == internal::KernelJob::Outcome::kRan) {
          if (answers[k]) {
            out.answers[i] = 1;
            route[i] = kDone;
            ++intra_true;
          } else {
            ++intra_miss;
          }
        } else if (job.outcome ==
                   internal::KernelJob::Outcome::kSkippedDeadline) {
          out.statuses[i] = ProbeStatus::kDeadlineExceeded;
          route[i] = kDone;
        } else {  // kFailed: injected fault in the shard kernel
          route[i] = kDegrade;
        }
      }
      ran = ran || job.outcome == internal::KernelJob::Outcome::kRan;
      failed = failed || job.outcome == internal::KernelJob::Outcome::kFailed;
      if (job.outcome == internal::KernelJob::Outcome::kSkippedDeadline) {
        out.num_deadline_exceeded += job.end - job.begin;
      }
    }
    if (failed) {
      BreakerFail(shard_breakers_[shard]);
    } else if (ran) {
      BreakerOk(shard_breakers_[shard]);
    }
  }
  c_.intra_true.Add(intra_true);
  c_.intra_miss.Add(intra_miss);

  // A probe without a trustworthy shard answer (breaker-open shard, failed
  // job) is answered index-free: without a shard miss the witness may sit
  // entirely inside the shard, so its composed probe also runs the intra
  // product search.
  for (uint32_t i = 0; i < n; ++i) {
    if (route[i] == kDegrade) ++out.num_degraded;
  }
  if (out.num_degraded > 0) c_.breaker_degraded.Add(out.num_degraded);
  if (metrics_on) h_.route_ns.Record(obs::NowNanos() - t_shard_done);

  // Phase 2: composition of every probe still routed, bucketed by seq in
  // submission order (reusing `start`/`order`). The compose breaker is
  // consulted once per batch: open means the pending probes fail fast as
  // kShardUnavailable instead of piling onto an engine that is already
  // drowning.
  internal::StableCountingSort(
      n, identity, num_seqs + 1,
      [&](uint32_t i) {
        return route[i] == kDone ? num_seqs : probes[i].seq_id;
      },
      start, order);
  const uint32_t pending_total = start[num_seqs];
  if (pending_total > 0 && BreakerDecide(compose_breaker_) ==
                               CircuitBreaker::Decision::kDeny) {
    for (uint32_t k = 0; k < pending_total; ++k) {
      out.statuses[order[k]] = ProbeStatus::kShardUnavailable;
    }
    out.num_unavailable += pending_total;
    c_.breaker_fail_fast.Add(pending_total);
  } else if (pending_total > 0) {
    const bool timed_probes = metrics_on || limits.probe_budget_ns != 0;
    bool any_ran = false;
    bool any_failed = false;
    uint64_t total_overruns = 0;
    // Plans are prepared on the caller thread (the engine's only non-const
    // entry point), in rounds bounded by the engine's plan-cache capacity:
    // PreparePlan flushes the cache when full, which would dangle earlier
    // plan pointers if a round outgrew it.
    const size_t plan_cap =
        std::max<size_t>(size_t{1}, compose_->options().max_cached_plans);
    std::vector<const CompositionEngine::Plan*> plans(num_seqs, nullptr);
    std::vector<uint64_t> per_shard;
    uint32_t seq_begin = 0;
    while (start[seq_begin] < pending_total) {
      // A round is the next plan_cap sequences with pending probes: one
      // contiguous span [start[seq_begin], start[seq_end]) of `order`.
      size_t round = 0;
      uint32_t seq_end = seq_begin;
      for (; seq_end < num_seqs && round < plan_cap; ++seq_end) {
        if (start[seq_end] < start[seq_end + 1]) ++round;
      }
      if (compose_->num_cached_plans() + round > plan_cap) {
        compose_->InvalidateAll();
      }
      uint32_t invalidated_total = 0;
      for (uint32_t seq_id = seq_begin; seq_id < seq_end; ++seq_id) {
        if (start[seq_id] == start[seq_id + 1]) continue;
        uint32_t invalidated = 0;
        plans[seq_id] = &compose_->PreparePlan(seqs[seq_id], &invalidated);
        invalidated_total += invalidated;
      }
      if (invalidated_total > 0) {
        c_.compose_invalidations.Add(invalidated_total);
      }
      const uint32_t round_begin = start[seq_begin];
      const uint32_t round_end = start[seq_end];
      seq_begin = seq_end;
      // Attributed here, with compose_probes: only probes the compose
      // breaker admitted count against their source shard.
      per_shard.assign(partition_.num_shards(), 0);
      for (uint32_t k = round_begin; k < round_end; ++k) {
        ++per_shard[partition_.ShardOf(probes[order[k]].s)];
      }
      for (uint32_t shard = 0; shard < per_shard.size(); ++shard) {
        if (per_shard[shard] > 0) shard_compose_[shard]->Add(per_shard[shard]);
      }
      c_.compose_probes.Add(round_end - round_begin);
      out.num_composed += round_end - round_begin;

      // The round fans out across the execution pool in chunked jobs — the
      // engine's probe path is const on a prepared plan and each worker
      // carries its own scratch. Jobs write answers and statuses of
      // disjoint probes straight into `out` and record the histograms
      // directly; their scalar counters merge after the barrier, so
      // answers and counters are identical for every thread count.
      struct ComposeJob {
        uint32_t begin = 0;
        uint32_t end = 0;
        uint64_t hops = 0;
        uint64_t cross_hops = 0;
        uint64_t expanded = 0;
        uint64_t rows_built = 0;
        uint64_t row_states = 0;
        uint64_t overruns = 0;
        uint64_t deadline_exceeded = 0;
        uint64_t unavailable = 0;
        bool ran = false;
        bool failed = false;
      };
      std::vector<ComposeJob> compose_jobs;
      for (uint32_t begin = round_begin; begin < round_end;) {
        ComposeJob jb;
        jb.begin = begin;
        jb.end = static_cast<uint32_t>(
            std::min<size_t>(round_end, size_t{begin} + chunk));
        compose_jobs.push_back(jb);
        begin = jb.end;
      }
      auto run_compose_job = [&](ComposeJob& jb,
                                 CompositionEngine::Scratch& scratch) {
        const uint64_t jt0 = metrics_on ? obs::NowNanos() : 0;
        bool job_ok = true;
        try {
          FailpointHitFast(failpoints::kServeComposeExecute);
        } catch (const std::exception&) {
          job_ok = false;  // injected job-level fault: the whole chunk fails
        }
        for (uint32_t k = jb.begin; k < jb.end; ++k) {
          const uint32_t i = order[k];
          if (!job_ok) {
            jb.failed = true;
            out.statuses[i] = ProbeStatus::kShardUnavailable;
            ++jb.unavailable;
            continue;
          }
          if (deadline.active() && deadline.Expired(obs::NowNanos())) {
            out.statuses[i] = ProbeStatus::kDeadlineExceeded;
            ++jb.deadline_exceeded;
            continue;
          }
          const BatchProbe& p = probes[i];
          try {
            // Per-probe deadline = batch deadline ∩ probe budget, with the
            // clock started before the failpoint so injected delays consume
            // budget like real traversal time. The engine enforces it
            // inside its BFS loops (overrun bounded by one check stride).
            const uint64_t t0 = timed_probes ? obs::NowNanos() : 0;
            const Deadline probe_deadline = EarlierOf(
                deadline, Deadline::After(limits.probe_budget_ns, t0));
            FailpointHitFast(failpoints::kServeComposeProbe);
            const ComposeResult r = compose_->ComposedQuery(
                p.s, p.t, *plans[p.seq_id], scratch, probe_deadline,
                route[i] == kDegrade);
            jb.hops += r.skeleton_hops;
            jb.cross_hops += r.cross_hops;
            jb.expanded += r.expanded;
            jb.rows_built += r.table_rows_built;
            jb.row_states += r.row_states;
            const uint64_t elapsed = timed_probes ? obs::NowNanos() - t0 : 0;
            if (r.timed_out) {
              // Aborted mid-traversal: partial telemetry, no answer. The
              // overrun counts only when the probe budget — not just the
              // batch deadline — was binding.
              out.statuses[i] = ProbeStatus::kDeadlineExceeded;
              ++jb.deadline_exceeded;
              if (limits.probe_budget_ns != 0 &&
                  elapsed >= limits.probe_budget_ns) {
                ++jb.overruns;
              }
              continue;
            }
            if (metrics_on) h_.compose_probe_ns.Record(elapsed);
            out.answers[i] = r.reachable ? 1 : 0;
            jb.ran = true;
            if (limits.probe_budget_ns != 0 &&
                elapsed > limits.probe_budget_ns) {
              ++jb.overruns;
            }
          } catch (const std::exception&) {
            jb.failed = true;
            out.statuses[i] = ProbeStatus::kShardUnavailable;
            ++jb.unavailable;
          }
        }
        if (metrics_on) h_.compose_job_ns.Record(obs::NowNanos() - jt0);
      };
      if (exec_pool_ != nullptr && compose_jobs.size() > 1) {
        std::atomic<size_t> cursor{0};
        exec_pool_->Run([&](uint32_t) {
          CompositionEngine::Scratch scratch;
          for (size_t ji; (ji = cursor.fetch_add(1)) < compose_jobs.size();) {
            run_compose_job(compose_jobs[ji], scratch);
          }
        });
      } else {
        for (ComposeJob& jb : compose_jobs) {
          run_compose_job(jb, compose_scratch_);
        }
      }

      uint64_t hops = 0, cross_hops = 0, expanded = 0, rows_built = 0,
               row_states = 0;
      for (const ComposeJob& jb : compose_jobs) {
        hops += jb.hops;
        cross_hops += jb.cross_hops;
        expanded += jb.expanded;
        rows_built += jb.rows_built;
        row_states += jb.row_states;
        total_overruns += jb.overruns;
        out.num_deadline_exceeded += jb.deadline_exceeded;
        out.num_unavailable += jb.unavailable;
        any_ran = any_ran || jb.ran;
        any_failed = any_failed || jb.failed;
      }
      c_.compose_skeleton_hops.Add(hops);
      c_.compose_cross_hops.Add(cross_hops);
      c_.compose_expanded.Add(expanded);
      if (rows_built > 0) {
        c_.compose_table_builds.Add(rows_built);
        c_.compose_row_states.Add(row_states);
      }
    }
    if (total_overruns > 0) c_.compose_overruns.Add(total_overruns);
    // Breaker evidence, once per batch: any failed chunk or budget overrun
    // is a failure; otherwise any composed probe that ran is a success.
    if (any_failed || total_overruns > 0) {
      BreakerFail(compose_breaker_);
    } else if (any_ran) {
      BreakerOk(compose_breaker_);
    }
  }
  if (out.num_deadline_exceeded > 0) {
    c_.deadline_exceeded.Add(out.num_deadline_exceeded);
  }
  c_.batch_groups.Add(out.num_groups);
  if (metrics_on) h_.execute_ns.Record(obs::NowNanos() - t_start);
  return out;
}

bool ShardedRlcService::EdgePresent(VertexId src, Label label,
                                    VertexId dst) const {
  if (applied_set_.find({src, label, dst}) != applied_set_.end()) return true;
  return g_.HasEdge(src, dst, label) &&
         deleted_base_.find({src, label, dst}) == deleted_base_.end();
}

size_t ShardedRlcService::ApplyUpdates(std::span<const EdgeUpdate> updates) {
  obs::ScopedSpan span(h_.apply_updates_ns, "serve.apply_updates");
  // Validate the whole batch up front: a mid-batch throw after edges were
  // already applied would skip the cache epilogue of ApplyUpdatesInternal
  // and leave the service answering stale, and an invalid batch must never
  // reach the WAL.
  ValidateUpdates(g_, updates);
  if (updates.empty()) return 0;
  // Append-before-apply: once Log returns the batch is fsynced, so an
  // acknowledged return from this method survives any crash. A failed
  // append leaves the in-memory state untouched.
  if (store_) store_->Log(updates);
  const size_t applied = ApplyUpdatesInternal(updates);
  if (store_ && store_->CheckpointDue()) Checkpoint();
  return applied;
}

size_t ShardedRlcService::ApplyUpdatesInternal(
    std::span<const EdgeUpdate> updates) {
  size_t applied = 0;
  for (const EdgeUpdate& e : updates) {
    const bool is_insert = e.op == EdgeOp::kInsert;
    if (is_insert == EdgePresent(e.src, e.label, e.dst)) {
      c_.updates_duplicate.Inc();
      continue;
    }
    const uint32_t ss = partition_.ShardOf(e.src);
    const uint32_t st = partition_.ShardOf(e.dst);
    if (is_insert) {
      if (ss == st) {
        shard_dyn_[ss]->InsertEdge(partition_.LocalOf(e.src), e.label,
                                   partition_.LocalOf(e.dst));
        if (compose_ != nullptr) compose_->OnIntraMutation(ss);
      } else {
        partition_.AddCrossEdge(e.src, e.label, e.dst);
        if (compose_ != nullptr) compose_->OnCrossMutation(ss, st);
        c_.updates_cross.Inc();
      }
      if (!deleted_base_.erase({e.src, e.label, e.dst})) {
        // A genuinely new edge (not a restored base edge) joins the
        // overlay bookkeeping.
        applied_set_.insert({e.src, e.label, e.dst});
        applied_inserts_.push_back(e);
      }
    } else {
      if (ss == st) {
        shard_dyn_[ss]->DeleteEdge(partition_.LocalOf(e.src), e.label,
                                   partition_.LocalOf(e.dst));
        if (compose_ != nullptr) compose_->OnIntraMutation(ss);
      } else {
        partition_.RemoveCrossEdge(e.src, e.label, e.dst);
        if (compose_ != nullptr) compose_->OnCrossMutation(ss, st);
        c_.updates_cross.Inc();
      }
      if (applied_set_.erase({e.src, e.label, e.dst})) {
        // Deleting an earlier overlay insert: drop it from the rebuild
        // list; a base edge is shadowed instead.
        applied_inserts_.erase(std::find_if(
            applied_inserts_.begin(), applied_inserts_.end(),
            [&](const EdgeUpdate& a) {
              return a.src == e.src && a.label == e.label && a.dst == e.dst;
            }));
      } else {
        deleted_base_.insert({e.src, e.label, e.dst});
      }
      c_.updates_deleted.Inc();
    }
    ++applied;
    c_.updates_applied.Inc();
  }
  if (applied > 0) {
    // Memoized SeqEntries may hold kInvalidMrId for MRs the updates just
    // created; re-resolve lazily.
    if (!seq_cache_.empty()) {
      c_.seq_cache_flushes.Inc();
      c_.seq_cache_evictions.Add(seq_cache_.size());
      seq_cache_.clear();
    }
  }
  return applied;
}

void ShardedRlcService::ReviveShard(uint32_t shard) {
  RLC_REQUIRE(shard < shard_dyn_.size(),
              "ShardedRlcService::ReviveShard: shard " << shard
                  << " out of range");
  const DiGraph& shard_graph = partition_.shard(shard).graph;
  std::unique_ptr<DynamicRlcIndex> fresh;
  // Applies one update of the mutated graph to `fresh` when it is
  // intra-shard.
  auto apply_intra = [&](VertexId src, Label label, VertexId dst, EdgeOp op) {
    if (partition_.ShardOf(src) != shard || partition_.ShardOf(dst) != shard) {
      return;
    }
    if (op == EdgeOp::kInsert) {
      fresh->InsertEdge(partition_.LocalOf(src), label, partition_.LocalOf(dst));
    } else {
      fresh->DeleteEdge(partition_.LocalOf(src), label, partition_.LocalOf(dst));
    }
  };

  // Durable path first: re-adopt the shard snapshot from the current
  // generation and replay the WAL records between its LSN and the applied
  // state — the replay recovery uses, scoped to one shard. A record above
  // last_lsn() (an append that failed after its bytes landed) is not part
  // of the applied state. Insert/DeleteEdge are exact no-ops on
  // already-applied updates, so the replay is idempotent even when a
  // record straddles the snapshot.
  if (store_ && store_->generation() > 0) {
    try {
      const uint64_t gen = store_->generation();
      uint64_t snap_lsn = 0;
      std::tie(fresh, snap_lsn) = LoadDynamicSnapshot(
          store_->GenerationPath(gen) + "/shard-" + std::to_string(shard) +
              ".snap",
          shard_graph, options_.reseal);
      store_->ReplayWal(gen, snap_lsn, store_->last_lsn(),
                        [&](const WalRecord& record) {
                          for (const EdgeUpdate& e : record.updates) {
                            apply_intra(e.src, e.label, e.dst, e.op);
                          }
                        });
    } catch (const std::exception&) {
      fresh.reset();  // unreadable durable state: fall back to a rebuild
    }
  }

  // Rebuild path: fresh index over the base shard graph, then the net
  // overlay (applied_inserts_ / deleted_base_ describe the mutated graph
  // relative to base) filtered to intra-shard edges.
  if (fresh == nullptr) {
    IndexerOptions build_opts = options_.indexer;
    build_opts.num_threads = 1;
    build_opts.seal = true;
    RlcIndexBuilder builder(shard_graph, build_opts);
    fresh = std::make_unique<DynamicRlcIndex>(shard_graph, builder.Build(),
                                              options_.reseal);
    for (const EdgeUpdate& e : applied_inserts_) {
      apply_intra(e.src, e.label, e.dst, EdgeOp::kInsert);
    }
    for (const auto& [src, label, dst] : deleted_base_) {
      apply_intra(src, label, dst, EdgeOp::kDelete);
    }
  }

  // The swap itself needs no composition-engine refresh: the engine reads
  // the shard's overlay through shard_dyn_ at probe time, and the fresh
  // index's overlay describes the same mutated graph.
  shard_dyn_[shard] = std::move(fresh);
  // Memoized SeqEntries hold MrIds minted by the replaced shard index.
  if (!seq_cache_.empty()) {
    c_.seq_cache_flushes.Inc();
    c_.seq_cache_evictions.Add(seq_cache_.size());
    seq_cache_.clear();
  }
  shard_breakers_[shard].breaker.Reset();
  shard_breakers_[shard].state_gauge->Set(0);
  c_.shard_revives.Inc();
}

uint64_t ShardedRlcService::MemoryBytes() const {
  uint64_t bytes = partition_.MemoryBytes();
  for (const auto& dyn : shard_dyn_) bytes += dyn->MemoryBytes();
  if (compose_ != nullptr) bytes += compose_->MemoryBytes();
  return bytes;
}

}  // namespace rlc

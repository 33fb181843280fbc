#include "phases.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <thread>

#include "rlc/automaton/path_constraint.h"
#include "rlc/baselines/online_search.h"
#include "rlc/core/indexer.h"
#include "rlc/obs/metrics.h"
#include "rlc/serve/sharded_service.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace obs = rlc::obs;
using rlc::AnswerBatch;
using rlc::DiGraph;
using rlc::LabelSeq;
using rlc::QueryBatch;
using rlc::ShardedRlcService;
using rlc::VertexId;

constexpr uint32_t kMaxBuildThreads = 4;
/// Probes checked against the online-search baseline per run.
constexpr size_t kAnchorProbes = 256;

uint64_t Now() { return obs::NowNanos(); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Each operation's fastest time over replays of identical work:
/// `times[replay][op]`, in nanoseconds. A shared host only ever slows an
/// operation down, so the fastest replay is the one least disturbed.
std::vector<uint64_t> FastestOf(const std::vector<std::vector<uint64_t>>& times) {
  std::vector<uint64_t> out = times.front();
  for (const std::vector<uint64_t>& rep : times) {
    for (size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], rep[i]);
  }
  return out;
}

std::vector<double> Millis(const std::vector<uint64_t>& ns) {
  std::vector<double> out;
  for (const uint64_t v : ns) out.push_back(static_cast<double>(v) * 1e-6);
  return out;
}

/// Probes per second over the operations selected by `keep` (all when
/// empty): total probes over total fastest time.
double Throughput(const std::vector<uint64_t>& ns, uint64_t probes_per_op,
                  const std::vector<uint8_t>& keep = {}) {
  uint64_t total = 0, probes = 0;
  for (size_t i = 0; i < ns.size(); ++i) {
    if (!keep.empty() && !keep[i]) continue;
    total += ns[i];
    probes += probes_per_op;
  }
  return total == 0 ? 0.0 : static_cast<double>(probes) * 1e9 / total;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string Format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

uint32_t BuildThreads() {
  return std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1,
                              kMaxBuildThreads);
}

rlc::ServiceOptions Options(const WorkloadSpec& spec, const std::string& dir) {
  rlc::ServiceOptions o;
  o.partition.num_shards = spec.shards;
  o.partition.policy = spec.policy;
  o.indexer.k = kBoundK;
  o.build_threads = BuildThreads();
  o.exec_threads = 1;
  o.durability.dir = dir;
  // Checkpoints happen only where the benchmark calls Checkpoint(), so no
  // update batch carries a checkpoint inside its latency.
  o.durability.checkpoint_wal_bytes = 0;
  return o;
}

uint64_t ShardEntries(const ShardedRlcService& svc) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < svc.partition().num_shards(); ++s) {
    total += svc.shard_index(s).NumEntries();
  }
  return total;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Steady-phase delta of one histogram: bucket-wise after - before.
obs::HistogramSnapshot HistDelta(const obs::MetricsSnapshot& after,
                                 const obs::MetricsSnapshot& before,
                                 std::string_view name) {
  obs::HistogramSnapshot d;
  const obs::HistogramSnapshot* a = after.FindHistogram(name);
  if (a == nullptr) return d;
  d = *a;
  if (const obs::HistogramSnapshot* b = before.FindHistogram(name)) {
    d.count -= b->count;
    d.sum -= b->sum;
    for (size_t i = 0; i < d.buckets.size() && i < b->buckets.size(); ++i) {
      d.buckets[i] -= b->buckets[i];
    }
  }
  return d;
}

uint64_t CounterDelta(const obs::MetricsSnapshot& after,
                      const obs::MetricsSnapshot& before,
                      std::string_view name) {
  const obs::CounterSnapshot* a = after.FindCounter(name);
  const obs::CounterSnapshot* b = before.FindCounter(name);
  return (a ? a->value : 0) - (b ? b->value : 0);
}

rlc::RlcIndex BuildWholeGraphIndex(const DiGraph& g) {
  rlc::IndexerOptions opts;
  opts.k = kBoundK;
  opts.num_threads = BuildThreads();
  return rlc::RlcIndexBuilder(g, opts).Build();
}

/// Whole-graph oracle, independent of the service's partitioning,
/// composition and shard maintenance. Static workloads: one RlcIndex of
/// the graph. Churn: online search (baselines/online_search) over the live
/// edge set, which follows every update the service is given; a
/// whole-graph DynamicRlcIndex fed the same updates costs ~0.4 s per write
/// batch here and would dominate the run.
class Oracle {
 public:
  Oracle(const DiGraph& g, bool dynamic) : base_(g) {
    if (!dynamic) {
      index_ = std::make_unique<rlc::RlcIndex>(BuildWholeGraphIndex(g));
      return;
    }
    for (const rlc::Edge& e : g.ToEdgeList()) edges_.insert(e);
    Rebuild();
  }

  const DiGraph& graph() const { return live_ ? *live_ : base_; }
  const rlc::RlcIndex* index() const { return index_.get(); }

  std::vector<uint8_t> Answers(const QueryBatch& b) {
    std::vector<uint8_t> out;
    out.reserve(b.num_probes());
    if (index_) {
      for (const rlc::BatchProbe& p : b.probes()) {
        out.push_back(index_->Query(p.s, p.t, b.sequence(p.seq_id)) ? 1 : 0);
      }
      return out;
    }
    std::vector<rlc::CompiledConstraint> compiled;
    for (const LabelSeq& seq : b.sequences()) {
      compiled.emplace_back(rlc::PathConstraint::RlcPlus(seq),
                            live_->num_labels());
    }
    for (const rlc::BatchProbe& p : b.probes()) {
      out.push_back(searcher_->QueryBiBfs(p.s, p.t, compiled[p.seq_id]) ? 1
                                                                        : 0);
    }
    return out;
  }

  void Apply(const WriteBatch& wb) {
    for (const rlc::EdgeUpdate& u : wb) {
      const rlc::Edge e{u.src, u.dst, u.label};
      if (u.op == rlc::EdgeOp::kInsert) {
        edges_.insert(e);
      } else {
        edges_.erase(e);
      }
    }
    Rebuild();
  }

 private:
  void Rebuild() {
    searcher_.reset();
    live_ = std::make_unique<DiGraph>(
        base_.num_vertices(),
        std::vector<rlc::Edge>(edges_.begin(), edges_.end()),
        base_.num_labels());
    searcher_ = std::make_unique<rlc::OnlineSearcher>(*live_);
  }

  const DiGraph& base_;
  std::unique_ptr<rlc::RlcIndex> index_;
  std::set<rlc::Edge> edges_;
  std::unique_ptr<DiGraph> live_;
  std::unique_ptr<rlc::OnlineSearcher> searcher_;
};

/// Failure accounting: non-kOk statuses and wrong answers both fail.
struct Checker {
  uint64_t attempted = 0;
  uint64_t not_ok = 0;
  uint64_t wrong = 0;
  uint64_t updates_not_applied = 0;

  void Probes(const AnswerBatch& got, const std::vector<uint8_t>& want) {
    attempted += want.size();
    for (size_t i = 0; i < want.size(); ++i) {
      if (got.statuses[i] != rlc::ProbeStatus::kOk) {
        ++not_ok;
      } else if (got.answers[i] != want[i]) {
        ++wrong;
      }
    }
  }
  void Updates(size_t submitted, size_t applied) {
    attempted += submitted;
    updates_not_applied += submitted - applied;
  }
  uint64_t failed() const { return not_ok + wrong + updates_not_applied; }
};

/// Cross-checks the two oracle kinds on a sample of probes: a whole-graph
/// RlcIndex of `g` against online search over `g`.
uint64_t AnchorMismatches(const DiGraph& g, const rlc::RlcIndex& index,
                          std::span<const ReadBatch> batches) {
  rlc::OnlineSearcher searcher(g);
  uint64_t bad = 0;
  size_t checked = 0;
  for (const ReadBatch& rb : batches) {
    const QueryBatch& b = rb.batch;
    for (size_t i = 0; i < b.num_probes() && checked < kAnchorProbes;
         i += 7, ++checked) {
      const rlc::BatchProbe& p = b.probes()[i];
      const LabelSeq& seq = b.sequence(p.seq_id);
      const rlc::CompiledConstraint c(rlc::PathConstraint::RlcPlus(seq),
                                      g.num_labels());
      if (searcher.QueryBiBfs(p.s, p.t, c) != index.Query(p.s, p.t, seq)) {
        ++bad;
      }
    }
  }
  return bad;
}

struct KernelTiming {
  double batched_ns = 0.0;
  double scalar_ns = 0.0;
  bool agree = true;
};

/// Times the shard kernel directly: ExecuteBatch on each shard index
/// against a QueryInterned loop over the same same-shard probes.
KernelTiming TimeKernel(const ShardedRlcService& svc,
                        std::span<const ReadBatch> source, Tracer& tracer) {
  const rlc::GraphPartition& part = svc.partition();
  const uint32_t ns = part.num_shards();
  std::vector<QueryBatch> local(ns);
  for (const ReadBatch& rb : source) {
    for (const rlc::BatchProbe& p : rb.batch.probes()) {
      const uint32_t s = part.ShardOf(p.s);
      if (s != part.ShardOf(p.t)) continue;
      local[s].Add(part.LocalOf(p.s), part.LocalOf(p.t),
                   rb.batch.sequence(p.seq_id));
    }
  }
  KernelTiming out;
  constexpr int kReps = 5;
  std::vector<double> batched, scalar;
  uint64_t probes = 0;
  for (const QueryBatch& b : local) probes += b.num_probes();
  if (probes == 0) return out;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t bt = 0, st = 0;
    for (uint32_t s = 0; s < ns; ++s) {
      const QueryBatch& b = local[s];
      if (b.num_probes() == 0) continue;
      const rlc::RlcIndex& index = svc.shard_index(s);
      std::vector<rlc::MrId> mr(b.num_sequences());
      for (uint32_t i = 0; i < b.num_sequences(); ++i) {
        mr[i] = index.FindMr(b.sequence(i));
      }
      uint64_t t0 = Now();
      AnswerBatch got;
      {
        Scope span(tracer, "kernel.execute_batch");
        got = rlc::ExecuteBatch(index, b);
      }
      bt += Now() - t0;
      std::vector<uint8_t> ans(b.num_probes());
      t0 = Now();
      {
        Scope span(tracer, "kernel.query_interned");
        for (size_t i = 0; i < b.num_probes(); ++i) {
          const rlc::BatchProbe& p = b.probes()[i];
          const rlc::MrId m = mr[p.seq_id];
          ans[i] = m != rlc::kInvalidMrId && index.QueryInterned(p.s, p.t, m);
        }
      }
      st += Now() - t0;
      out.agree = out.agree && got.answers == ans;
    }
    batched.push_back(static_cast<double>(bt) / static_cast<double>(probes));
    scalar.push_back(static_cast<double>(st) / static_cast<double>(probes));
  }
  out.batched_ns = Median(batched);
  out.scalar_ns = Median(scalar);
  return out;
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunConfig& cfg) {
  RunResult res;
  Tracer tracer(cfg.trace);
  obs::SetEnabled(cfg.trace);
  const bool churn = spec.updates_per_write > 0;
  const uint32_t rounds = spec.rounds;
  const uint32_t replays = Replays(spec, cfg.seconds);
  const fs::path work(cfg.workdir);
  const fs::path store = work / "store";

  // ---- inputs (generated before any timer) ----
  const uint64_t wall0 = Now();
  const GeneratedGraph gg = MakeGraph(spec);
  const DiGraph& g = gg.graph;
  const Stream stream = MakeStream(spec, gg, cfg.seed, rounds);
  res.notes.push_back(Format(
      "inputs: |V|=%u |E|=%llu labels=%u shards=%u replays=%u x (%u cold + "
      "%u rounds x %u batches) of %u probes, digest=%016llx",
      g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
      g.num_labels(), spec.shards, replays, spec.cold_batches, rounds,
      spec.reads_per_round, spec.batch_probes,
      static_cast<unsigned long long>(stream.digest)));

  const uint64_t wall_gen = Now();
  Oracle oracle(g, churn);
  // Static workloads: every expected answer up front. Churn: the pre-write
  // batches here, the steady ones during the first replay, as the oracle
  // follows the writes; later replays reuse them.
  auto expect_all = [&](const std::vector<ReadBatch>& v) {
    std::vector<std::vector<uint8_t>> out;
    for (const ReadBatch& rb : v) out.push_back(oracle.Answers(rb.batch));
    return out;
  };
  const auto cold_want = expect_all(stream.cold);
  const auto warm_want = expect_all(stream.warmup);
  std::vector<std::vector<uint8_t>> steady_want =
      churn ? std::vector<std::vector<uint8_t>>(stream.steady.size())
            : expect_all(stream.steady);
  Checker check;
  const uint64_t wall_oracle = Now();

  // ---- replays: set-up, cold pass, warm-up and steady rounds ----
  // Every replay runs the whole stream on a fresh service, so replays do
  // identical work and each operation's fastest replay is its time with
  // the least host interference.
  std::vector<double> setup_s, index_build_s;
  std::vector<std::vector<uint64_t>> cold_ns(replays),
      batch_ns(replays), write_ns(replays);
  std::vector<uint8_t> traced_batch;  // steady batch ran with obs on
  std::vector<std::string> replay_work;
  std::unique_ptr<ShardedRlcService> svc;
  rlc::ServiceStats st0, st1;
  obs::MetricsSnapshot svc0, svc1, glob0;
  uint64_t setup_entries = 0, rows_cold = 0, updates_applied = 0,
           probes_true = 0, repeated_sources = 0, steady_probes = 0;
  for (uint32_t rep = 0; rep < replays; ++rep) {
    const bool first = rep == 0;
    svc.reset();
    if (spec.durable) fs::remove_all(store);
    uint64_t t0 = Now();
    {
      Scope span(tracer, "service.construct");
      svc = std::make_unique<ShardedRlcService>(
          g, Options(spec, spec.durable ? store.string() : ""));
    }
    setup_s.push_back(static_cast<double>(Now() - t0) * 1e-9);
    index_build_s.push_back(svc->stats().index_build_seconds);
    setup_entries = ShardEntries(*svc);
    const uint64_t rows0 = svc->stats().compose_table_builds;
    for (size_t i = 0; i < stream.cold.size(); ++i) {
      AnswerBatch got;
      t0 = Now();
      {
        Scope span(tracer, "service.execute");
        got = svc->Execute(stream.cold[i].batch);
      }
      cold_ns[rep].push_back(Now() - t0);
      check.Probes(got, cold_want[i]);
    }
    rows_cold = svc->stats().compose_table_builds - rows0;
    for (size_t i = 0; i < stream.warmup.size(); ++i) {
      check.Probes(svc->Execute(stream.warmup[i].batch), warm_want[i]);
    }

    st0 = svc->stats();
    svc0 = svc->metrics().Snapshot();
    glob0 = obs::Registry::Global().Snapshot();
    for (uint32_t r = 0; r < rounds; ++r) {
      // The traced pass alternates untraced and traced rounds; the gap
      // between the two is the tracing overhead.
      const bool traced_round = cfg.trace && r % 2 == 1;
      if (cfg.trace) {
        obs::SetEnabled(traced_round);
        tracer.set_enabled(traced_round);
      }
      tracer.set_round(static_cast<int32_t>(r));
      for (uint32_t i = 0; i < spec.reads_per_round; ++i) {
        const size_t idx =
            (static_cast<size_t>(r) * spec.reads_per_round + i) %
            stream.steady.size();
        const ReadBatch& rb = stream.steady[idx];
        if (churn && first) steady_want[idx] = oracle.Answers(rb.batch);
        const std::vector<uint8_t>& want = steady_want[idx];
        AnswerBatch got;
        t0 = Now();
        {
          Scope span(tracer, "service.execute");
          got = svc->Execute(rb.batch);
        }
        batch_ns[rep].push_back(Now() - t0);
        check.Probes(got, want);
        if (first) {
          traced_batch.push_back(traced_round ? 1 : 0);
          for (const uint8_t w : want) probes_true += w;
          repeated_sources += rb.repeated_sources;
          steady_probes += rb.batch.num_probes();
        }
      }
      if (!churn) continue;
      const WriteBatch& wb = stream.writes[r];
      size_t applied = 0;
      t0 = Now();
      {
        Scope span(tracer, "service.apply_updates");
        applied = svc->ApplyUpdates(wb);
      }
      write_ns[rep].push_back(Now() - t0);
      check.Updates(wb.size(), applied);
      if (first) {
        updates_applied += applied;
        oracle.Apply(wb);
      }
    }
    tracer.set_round(-1);
    if (cfg.trace) {
      obs::SetEnabled(true);
      tracer.set_enabled(true);
    }
    st1 = svc->stats();
    svc1 = svc->metrics().Snapshot();
    // What the replay did, as exact counts: equal on every replay when
    // the service is deterministic, which the fastest-replay times assume.
    replay_work.push_back(Format(
        "%llu/%llu/%llu/%llu/%llu",
        static_cast<unsigned long long>(st1.compose_table_builds),
        static_cast<unsigned long long>(st1.frontier_hits),
        static_cast<unsigned long long>(st1.compose_expanded),
        static_cast<unsigned long long>(st1.compose_probes),
        static_cast<unsigned long long>(ShardEntries(*svc))));
  }
  const uint64_t wall_steady = Now();
  const rlc::GraphPartition& part = svc->partition();
  const double boundary_frac =
      static_cast<double>(part.num_boundary_vertices()) / g.num_vertices();
  const double cut_frac =
      static_cast<double>(part.cross_edges().size()) / g.num_edges();

  // ---- churn: reseal, checkpoint, WAL tail, recovery (last replay) ----
  uint64_t update_ns = 0;
  for (const uint64_t ns : FastestOf(write_ns)) update_ns += ns;
  auto finish_reseals = [&] {
    const uint64_t t0 = Now();
    {
      Scope span(tracer, "service.finish_reseals");
      svc->FinishReseals();
    }
    update_ns += Now() - t0;
  };
  std::vector<double> recover_s;
  double checkpoint_s = 0.0, snapshot_mb = 0.0;
  uint64_t replayed = 0, live_entries = ShardEntries(*svc),
           fresh_entries = setup_entries;
  obs::MetricsSnapshot glob1 = obs::Registry::Global().Snapshot();
  if (churn) {
    finish_reseals();
    uint64_t t0 = Now();
    {
      Scope span(tracer, "service.checkpoint");
      svc->Checkpoint();
    }
    checkpoint_s = static_cast<double>(Now() - t0) * 1e-9;
    snapshot_mb =
        static_cast<double>(DirBytes(store / ("gen-" + std::to_string(
                                                           svc->generation())))) /
        1e6;
    for (const WriteBatch& wb : stream.tail) {
      size_t applied = 0;
      {
        Scope span(tracer, "service.apply_updates");
        applied = svc->ApplyUpdates(wb);
      }
      check.Updates(wb.size(), applied);
      oracle.Apply(wb);
    }
    finish_reseals();
    glob1 = obs::Registry::Global().Snapshot();
    live_entries = ShardEntries(*svc);

    {
      const ShardedRlcService fresh(oracle.graph(), Options(spec, ""));
      fresh_entries = ShardEntries(fresh);
    }

    // Recovery: the constructor on a copy of the durable directory.
    const fs::path copy = work / "recover";
    const QueryBatch& probe_batch = stream.steady.back().batch;
    const std::vector<uint8_t> want = oracle.Answers(probe_batch);
    for (uint32_t rep = 0; rep < replays; ++rep) {
      fs::remove_all(copy);
      fs::copy(store, copy, fs::copy_options::recursive);
      std::unique_ptr<ShardedRlcService> rec;
      t0 = Now();
      {
        Scope span(tracer, "service.recover");
        rec = std::make_unique<ShardedRlcService>(g,
                                                  Options(spec, copy.string()));
      }
      recover_s.push_back(static_cast<double>(Now() - t0) * 1e-9);
      replayed = rec->recovery_info().replayed_records;
      if (!rec->recovery_info().recovered) check.wrong += 1;
      check.Probes(rec->Execute(probe_batch), want);
      rec.reset();
      fs::remove_all(copy);
    }
  }
  // Anchor the oracle: on churn, an index built on the final graph against
  // the online search that checked the run.
  std::unique_ptr<rlc::RlcIndex> final_index;
  if (churn) {
    final_index =
        std::make_unique<rlc::RlcIndex>(BuildWholeGraphIndex(oracle.graph()));
  }
  const uint64_t anchor_bad = AnchorMismatches(
      oracle.graph(), churn ? *final_index : *oracle.index(),
      std::span(stream.steady).first(std::min<size_t>(8, stream.steady.size())));
  check.wrong += anchor_bad;
  res.notes.push_back(Format("anchor: %llu online-search mismatches",
                             static_cast<unsigned long long>(anchor_bad)));
  const double fresh_ratio =
      static_cast<double>(live_entries) / static_cast<double>(fresh_entries);
  const uint64_t service_bytes = svc->MemoryBytes();
  const uint64_t wall_end = Now();
  res.notes.push_back(Format(
      "wall: inputs=%.2fs oracle=%.2fs replays=%.2fs closing=%.2fs",
      (wall_gen - wall0) * 1e-9, (wall_oracle - wall_gen) * 1e-9,
      (wall_steady - wall_oracle) * 1e-9, (wall_end - wall_steady) * 1e-9));

  // ---- result ----
  res.attempted = check.attempted;
  res.failed = check.failed();
  res.correct = check.wrong == 0;

  const std::vector<uint64_t> cold_fast = FastestOf(cold_ns);
  const std::vector<uint64_t> batch_fast = FastestOf(batch_ns);
  const std::vector<double> batch_ms = Millis(batch_fast);
  const std::vector<double> update_ms =
      churn ? Millis(FastestOf(write_ns)) : std::vector<double>{};
  std::vector<uint8_t> untraced_batch(traced_batch.size());
  for (size_t i = 0; i < traced_batch.size(); ++i) {
    untraced_batch[i] = traced_batch[i] ? 0 : 1;
  }
  const double steady_tput =
      Throughput(batch_fast, spec.batch_probes, untraced_batch);
  res.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"cold_probes_per_s", Throughput(cold_fast, spec.batch_probes), "1/s"},
      {"probes_per_s", steady_tput, "1/s"},
      {"batch_p50_ms", Quantile(batch_ms, 0.50), "ms"},
      {"batch_p95_ms", Quantile(batch_ms, 0.95), "ms"},
      {"service_mb", static_cast<double>(service_bytes) / 1e6, "MB"},
      {"entries_vs_fresh", fresh_ratio, "ratio"},
  };

  // Exact outputs and property shares (printed on every pass).
  const uint64_t queries = st1.queries - st0.queries;
  const uint64_t writes = churn ? rounds : 0;
  const double true_frac = Ratio(probes_true, steady_probes);
  const double repeat_frac = Ratio(repeated_sources, steady_probes);
  const double after_write_frac = churn ? 1.0 / spec.reads_per_round : 0.0;
  const double intra_true = Ratio(st1.intra_true - st0.intra_true, queries);
  const double intra_miss = Ratio(st1.intra_miss - st0.intra_miss, queries);
  const double refuted = Ratio(st1.cross_refuted - st0.cross_refuted, queries);
  const double composed =
      Ratio(st1.compose_probes - st0.compose_probes, queries);
  const uint64_t rows_steady =
      st1.compose_table_builds - st0.compose_table_builds;
  res.notes.push_back(Format(
      "exact: service_bytes=%llu entries=%llu fresh_entries=%llu "
      "queries=%llu intra_true=%llu intra_miss=%llu refuted=%llu "
      "composed=%llu rows_cold=%llu rows_steady=%llu updates_applied=%llu",
      static_cast<unsigned long long>(service_bytes),
      static_cast<unsigned long long>(live_entries),
      static_cast<unsigned long long>(fresh_entries),
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(st1.intra_true - st0.intra_true),
      static_cast<unsigned long long>(st1.intra_miss - st0.intra_miss),
      static_cast<unsigned long long>(st1.cross_refuted - st0.cross_refuted),
      static_cast<unsigned long long>(st1.compose_probes - st0.compose_probes),
      static_cast<unsigned long long>(rows_cold),
      static_cast<unsigned long long>(rows_steady),
      static_cast<unsigned long long>(updates_applied)));
  res.notes.push_back(Format(
      "properties: true_frac=%.4f source_repeat_frac=%.4f intra_true_frac=%.4f "
      "intra_miss_frac=%.4f refuted_frac=%.4f composed_frac=%.4f "
      "after_write_frac=%.4f",
      true_frac, repeat_frac, intra_true, intra_miss, refuted, composed,
      after_write_frac));
  bool replays_agree = true;
  for (const std::string& w : replay_work) replays_agree &= w == replay_work[0];
  res.notes.push_back(Format(
      "samples: replays=%zu (work %s) cold_batches=%zu steady_batches=%zu "
      "(%zu beyond p95) update_batches=%zu",
      setup_s.size(), replays_agree ? "identical" : "DIFFERED",
      cold_fast.size(), batch_fast.size(), batch_fast.size() / 20,
      update_ms.size()));
  std::vector<double> round_tput;
  for (size_t i = 0; i + spec.reads_per_round <= batch_fast.size();
       i += spec.reads_per_round) {
    uint64_t ns = 0;
    for (size_t j = i; j < i + spec.reads_per_round; ++j) ns += batch_fast[j];
    round_tput.push_back(static_cast<double>(spec.reads_per_round) *
                         spec.batch_probes * 1e9 / static_cast<double>(ns));
  }
  res.notes.push_back(Format(
      "fastest-replay rounds: tput q25=%.6g q50=%.6g q75=%.6g; batch "
      "p99_ms=%.6g",
      Quantile(round_tput, 0.25), Quantile(round_tput, 0.5),
      Quantile(round_tput, 0.75), Quantile(batch_ms, 0.99)));
  const double updates_per_s =
      Ratio(static_cast<double>(updates_applied) * 1e9, update_ns);
  if (churn) {
    res.notes.push_back(Format(
        "writes: updates_per_s=%.1f update_p50_ms=%.3f update_p95_ms=%.3f "
        "recover_s=%.4f checkpoint_s=%.4f replayed_records=%llu",
        updates_per_s, Quantile(update_ms, 0.5), Quantile(update_ms, 0.95),
        Median(recover_s), checkpoint_s,
        static_cast<unsigned long long>(replayed)));
  }
  res.notes.push_back(Format(
      "checks: attempted=%llu not_ok=%llu wrong=%llu updates_not_applied=%llu",
      static_cast<unsigned long long>(check.attempted),
      static_cast<unsigned long long>(check.not_ok),
      static_cast<unsigned long long>(check.wrong),
      static_cast<unsigned long long>(check.updates_not_applied)));

  if (!cfg.trace) return res;

  // ---- traced pass: per-layer metrics ----
  std::vector<double> partition_s;
  for (uint32_t rep = 0; rep < replays; ++rep) {
    const uint64_t t0 = Now();
    {
      Scope span(tracer, "partition.build");
      const rlc::GraphPartition p =
          rlc::GraphPartition::Build(g, Options(spec, "").partition);
    }
    partition_s.push_back(static_cast<double>(Now() - t0) * 1e-9);
  }
  const KernelTiming kt = TimeKernel(
      *svc,
      std::span(stream.steady).first(std::min<size_t>(32, stream.steady.size())),
      tracer);
  if (!kt.agree) {
    res.correct = false;
    res.notes.push_back("kernel: ExecuteBatch and QueryInterned disagree");
  }

  auto hist = [&](std::string_view name, double q) {
    return static_cast<double>(HistDelta(svc1, svc0, name).Percentile(q));
  };
  auto ghist = [&](std::string_view name, double q) {
    return static_cast<double>(HistDelta(glob1, glob0, name).Percentile(q));
  };
  const obs::HistogramSnapshot exec_h =
      HistDelta(svc1, svc0, "serve.stage.execute_ns");
  double staged = 0.0;
  for (const char* stage :
       {"serve.stage.resolve_ns", "serve.stage.route_ns",
        "serve.stage.shard_kernel_job_ns", "serve.stage.compose_job_ns"}) {
    staged += static_cast<double>(HistDelta(svc1, svc0, stage).sum);
  }
  const uint64_t batches = st1.batches - st0.batches;
  const uint64_t composed_n = st1.compose_probes - st0.compose_probes;
  const uint64_t f_hits = st1.frontier_hits - st0.frontier_hits;
  const uint64_t f_miss = st1.frontier_misses - st0.frontier_misses;
  uint64_t reseals = 0, pairs = 0, deleted = 0;
  double merge_s = 0.0;
  for (uint32_t s = 0; s < part.num_shards(); ++s) {
    const rlc::DynamicIndexStats& ds = svc->shard_dynamic(s).stats();
    reseals += ds.reseals;
    merge_s += ds.reseal_seconds;
    pairs += ds.pairs_examined;
    deleted += ds.edges_deleted;
  }
  const double traced_tput =
      Throughput(batch_fast, spec.batch_probes, traced_batch);

  res.per_layer = {
      {"partition.build_s", Median(partition_s), "s"},
      {"partition.boundary_frac", boundary_frac, "ratio"},
      {"partition.cut_frac", cut_frac, "ratio"},
      {"indexer.build_s", Median(index_build_s), "s"},
      {"indexer.entries", static_cast<double>(setup_entries), "count"},
      {"kernel.batched_ns_per_probe", kt.batched_ns, "ns"},
      {"kernel.scalar_ns_per_probe", kt.scalar_ns, "ns"},
      {"kernel.stage_ns_p50", hist("serve.stage.shard_kernel_job_ns", 0.5), "ns"},
      {"kernel.stage_ns_p99", hist("serve.stage.shard_kernel_job_ns", 0.99), "ns"},
      {"kernel.groups_per_batch",
       Ratio(st1.batch_groups - st0.batch_groups, batches), "count"},
      {"route.intra_true_frac", intra_true, "ratio"},
      {"route.intra_miss_frac", intra_miss, "ratio"},
      {"route.refuted_frac", refuted, "ratio"},
      {"route.composed_frac", composed, "ratio"},
      {"route.execute_ns_p50", hist("serve.stage.execute_ns", 0.5), "ns"},
      {"route.resolve_ns_p50", hist("serve.stage.resolve_ns", 0.5), "ns"},
      {"route.route_ns_p50", hist("serve.stage.route_ns", 0.5), "ns"},
      {"route.unaccounted_frac",
       exec_h.sum == 0 ? 0.0 : 1.0 - staged / static_cast<double>(exec_h.sum),
       "ratio"},
      {"compose.probe_ns_p50", hist("serve.stage.compose_probe_ns", 0.5), "ns"},
      {"compose.probe_ns_p99", hist("serve.stage.compose_probe_ns", 0.99), "ns"},
      {"compose.skeleton_hops_per_probe",
       Ratio(st1.compose_skeleton_hops - st0.compose_skeleton_hops, composed_n),
       "count"},
      {"compose.expanded_per_probe",
       Ratio(st1.compose_expanded - st0.compose_expanded, composed_n), "count"},
      {"compose.rows_built_cold", static_cast<double>(rows_cold), "count"},
      {"compose.rows_built_steady", static_cast<double>(rows_steady), "count"},
      {"compose.invalidations_per_write",
       Ratio(st1.compose_invalidations - st0.compose_invalidations, writes),
       "count"},
      {"compose.frontier_hit_ratio", Ratio(f_hits, f_hits + f_miss), "ratio"},
      {"compose.frontier_evictions",
       static_cast<double>(st1.frontier_evictions - st0.frontier_evictions),
       "count"},
      {"compose.budget_boosts", static_cast<double>(st1.compose_budget_boosts),
       "count"},
      {"compose.mb",
       static_cast<double>(svc->composition().MemoryBytes()) / 1e6, "MB"},
      {"dyn.insert_ns_p50", ghist("dyn.insert_ns", 0.5), "ns"},
      {"dyn.insert_ns_p99", ghist("dyn.insert_ns", 0.99), "ns"},
      {"dyn.delete_ns_p50", ghist("dyn.delete_ns", 0.5), "ns"},
      {"dyn.delete_ns_p99", ghist("dyn.delete_ns", 0.99), "ns"},
      {"dyn.reseals", static_cast<double>(reseals), "count"},
      {"dyn.reseal_merge_s", merge_s, "s"},
      {"dyn.pairs_examined_per_delete", Ratio(pairs, deleted), "count"},
      {"dyn.entries_after", static_cast<double>(live_entries), "count"},
      {"update.per_s", updates_per_s, "1/s"},
      {"update.p50_ms", Quantile(update_ms, 0.5), "ms"},
      {"update.p95_ms", Quantile(update_ms, 0.95), "ms"},
      // The WAL counts bytes only while instrumentation is on, so divide by
      // the updates of the batches it counted.
      {"wal.bytes_per_update",
       Ratio(CounterDelta(glob1, glob0, "wal.append_bytes"),
             CounterDelta(glob1, glob0, "wal.appends") *
                 spec.updates_per_write),
       "B"},
      {"wal.fsync_ns_p50", ghist("wal.fsync_ns", 0.5), "ns"},
      {"durable.checkpoint_s", checkpoint_s, "s"},
      {"durable.snapshot_mb", snapshot_mb, "MB"},
      {"durable.replayed_records", static_cast<double>(replayed), "count"},
      {"durable.recover_s", Median(recover_s), "s"},
      {"obs.overhead_frac",
       steady_tput == 0.0 ? 0.0 : 1.0 - traced_tput / steady_tput,
       "ratio"},
  };

  for (const auto& [name, secs] : tracer.SelfSeconds()) {
    res.notes.push_back(Format("self: %-28s %10.4f s", name.c_str(), secs));
  }
  const std::string trace_path =
      (work / ("trace-" + std::string(spec.name) + ".json")).string();
  if (!tracer.Write(trace_path)) {
    res.notes.push_back("trace: could not write " + trace_path);
  } else {
    res.notes.push_back(Format("trace: %zu spans -> %s", tracer.size(),
                               trace_path.c_str()));
  }
  return res;
}

}  // namespace perfbench

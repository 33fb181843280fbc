// Fault-tolerance unit tests: deadline math edges, circuit-breaker state
// machine under a fake clock (backoff doubling, jitter bounds), the
// ThreadPool bounded task queue (reject vs block), failpoint grammar and
// seeded probabilistic triggers, the WAL's typed fsync failure, and the
// serving executors' deadline/shedding/degradation statuses.
//
// Everything here is deterministic — chaos_test.cc owns the randomized
// fault schedules; this file pins the mechanisms one edge at a time.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rlc/core/indexer.h"
#include "rlc/core/wal.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/serve/circuit_breaker.h"
#include "rlc/serve/kernel_jobs.h"
#include "rlc/serve/query_batch.h"
#include "rlc/serve/serving_status.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/failpoint.h"
#include "rlc/util/rng.h"
#include "rlc/util/thread_pool.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

namespace fs = std::filesystem;

/// The failpoint registry is process-global; every test that arms it must
/// leave it clean for the rest of the binary.
struct FailpointGuard {
  FailpointGuard() { Failpoints::Instance().Clear(); }
  ~FailpointGuard() { Failpoints::Instance().Clear(); }
};

std::string TempDir(const std::string& tag) {
  std::string templ =
      (fs::temp_directory_path() / ("rlc_robust_" + tag + "_XXXXXX")).string();
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + templ);
  }
  return std::string(buf.data());
}

DiGraph RandomGraph(VertexId n, uint64_t m, Label labels, uint64_t seed) {
  Rng rng(seed);
  auto edges = ErdosRenyiEdges(n, m, rng);
  AssignZipfLabels(&edges, labels, 2.0, rng);
  return DiGraph(n, std::move(edges), labels);
}

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultAndZeroBudgetNeverExpire) {
  const Deadline none;
  EXPECT_FALSE(none.active());
  EXPECT_FALSE(none.Expired(0));
  EXPECT_FALSE(none.Expired(~uint64_t{0}));
  EXPECT_EQ(none.RemainingNs(12345), ~uint64_t{0});

  const Deadline zero = Deadline::After(0, 1'000'000);
  EXPECT_FALSE(zero.active());
  EXPECT_FALSE(zero.Expired(~uint64_t{0}));
}

TEST(DeadlineTest, ExpiryBoundaryIsInclusive) {
  const Deadline d = Deadline::After(100, 1000);
  ASSERT_TRUE(d.active());
  EXPECT_EQ(d.at_ns, 1100u);
  EXPECT_FALSE(d.Expired(1099));
  EXPECT_TRUE(d.Expired(1100));  // now == at: already expired
  EXPECT_TRUE(d.Expired(1101));
  EXPECT_EQ(d.RemainingNs(1000), 100u);
  EXPECT_EQ(d.RemainingNs(1100), 0u);
  EXPECT_EQ(d.RemainingNs(9999), 0u);
}

TEST(DeadlineTest, PastDeadlineExpiresImmediately) {
  // A 1 ns budget stamped "in the past" relative to the probing clock.
  const Deadline d = Deadline::After(1, 10);
  EXPECT_TRUE(d.Expired(11));
  EXPECT_TRUE(d.Expired(1'000'000));
}

TEST(DeadlineTest, OverflowSaturatesInsteadOfWrapping) {
  const uint64_t max = ~uint64_t{0};
  const Deadline d = Deadline::After(max, max - 5);
  ASSERT_TRUE(d.active());
  EXPECT_EQ(d.at_ns, max);  // saturated, not wrapped to a tiny value
  EXPECT_FALSE(d.Expired(max - 1));
}

TEST(DeadlineTest, EarlierOfPicksTheBindingDeadline) {
  // The composed-probe path combines a batch deadline with a per-probe
  // budget via EarlierOf: the earlier active deadline wins, and an unset
  // deadline (at_ns == 0, "no limit") never beats a set one.
  const Deadline none;
  const Deadline early{1000};
  const Deadline late{2000};

  EXPECT_EQ(EarlierOf(early, late).at_ns, 1000u);
  EXPECT_EQ(EarlierOf(late, early).at_ns, 1000u);
  EXPECT_EQ(EarlierOf(early, early).at_ns, 1000u);

  EXPECT_FALSE(EarlierOf(none, none).active());
  EXPECT_EQ(EarlierOf(none, late).at_ns, 2000u);
  EXPECT_EQ(EarlierOf(late, none).at_ns, 2000u);
}

// ---------------------------------------------------------- CircuitBreaker

BreakerOptions FastBreaker(uint32_t failures = 3, uint64_t backoff = 1000) {
  BreakerOptions bo;
  bo.failure_threshold = failures;
  bo.initial_backoff_ns = backoff;
  bo.max_backoff_ns = backoff * 8;
  bo.backoff_multiplier = 2.0;
  bo.jitter_fraction = 0.0;  // exact retry_at in the state-machine tests
  bo.seed = 7;
  return bo;
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreaker b(FastBreaker(3));
  uint64_t now = 0;
  EXPECT_FALSE(b.OnFailure(++now));
  EXPECT_FALSE(b.OnFailure(++now));
  EXPECT_FALSE(b.OnSuccess(++now));  // success resets the streak
  EXPECT_FALSE(b.OnFailure(++now));
  EXPECT_FALSE(b.OnFailure(++now));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.OnFailure(++now));  // third consecutive: trips
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, OpenDeniesUntilBackoffThenTrials) {
  CircuitBreaker b(FastBreaker(1, /*backoff=*/1000));
  ASSERT_TRUE(b.OnFailure(5000));
  EXPECT_EQ(b.retry_at_ns(), 6000u);  // no jitter
  EXPECT_EQ(b.Allow(5999), CircuitBreaker::Decision::kDeny);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.Allow(6000), CircuitBreaker::Decision::kTrial);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  // Still half-open on the next gate: more trials, not a re-open.
  EXPECT_EQ(b.Allow(6001), CircuitBreaker::Decision::kTrial);
}

TEST(CircuitBreakerTest, HalfOpenSuccessRecloses) {
  CircuitBreaker b(FastBreaker(1));
  ASSERT_TRUE(b.OnFailure(0));
  ASSERT_EQ(b.Allow(2000), CircuitBreaker::Decision::kTrial);
  EXPECT_TRUE(b.OnSuccess(2001));  // reports the reclose
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.current_backoff_ns(), 1000u);  // backoff ladder restarted
}

TEST(CircuitBreakerTest, SuccessThresholdRequiresConsecutiveTrials) {
  BreakerOptions bo = FastBreaker(1);
  bo.success_threshold = 2;
  CircuitBreaker b(bo);
  ASSERT_TRUE(b.OnFailure(0));
  ASSERT_EQ(b.Allow(2000), CircuitBreaker::Decision::kTrial);
  EXPECT_FALSE(b.OnSuccess(2001));  // 1 of 2
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.OnSuccess(2002));  // 2 of 2: reclosed
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureDoublesBackoffUpToCap) {
  CircuitBreaker b(FastBreaker(1, /*backoff=*/1000));  // cap 8000
  uint64_t now = 0;
  std::vector<uint64_t> backoffs;
  for (int round = 0; round < 6; ++round) {
    if (round == 0) {
      ASSERT_TRUE(b.OnFailure(now));
    } else {
      ASSERT_EQ(b.Allow(b.retry_at_ns()), CircuitBreaker::Decision::kTrial);
      ASSERT_TRUE(b.OnFailure(b.retry_at_ns()));  // failed trial re-opens
    }
    backoffs.push_back(b.current_backoff_ns());
  }
  EXPECT_EQ(backoffs,
            (std::vector<uint64_t>{1000, 2000, 4000, 8000, 8000, 8000}));
}

TEST(CircuitBreakerTest, JitterStaysWithinConfiguredFraction) {
  BreakerOptions bo = FastBreaker(1, /*backoff=*/1'000'000);
  bo.jitter_fraction = 0.25;
  bo.seed = 42;
  CircuitBreaker b(bo);
  bool saw_nonzero_jitter = false;
  for (int i = 0; i < 50; ++i) {
    const uint64_t now = static_cast<uint64_t>(i) * 10'000'000;
    if (i == 0) {
      ASSERT_TRUE(b.OnFailure(now));
    } else {
      ASSERT_EQ(b.Allow(now), CircuitBreaker::Decision::kTrial);
      b.OnSuccess(now);  // reclose so the next failure re-trips from closed
      ASSERT_TRUE(b.OnFailure(now));
    }
    const uint64_t wait = b.retry_at_ns() - now;
    EXPECT_GE(wait, 1'000'000u);
    EXPECT_LT(wait, 1'250'000u);  // backoff * (1 + jitter_fraction)
    saw_nonzero_jitter |= wait > 1'000'000u;
  }
  EXPECT_TRUE(saw_nonzero_jitter);
}

TEST(CircuitBreakerTest, JitterIsDeterministicInSeed) {
  auto run = [](uint64_t seed) {
    BreakerOptions bo = FastBreaker(1);
    bo.jitter_fraction = 0.5;
    bo.seed = seed;
    CircuitBreaker b(bo);
    std::vector<uint64_t> retries;
    for (int i = 0; i < 10; ++i) {
      const uint64_t now = static_cast<uint64_t>(i) * 1'000'000;
      if (i > 0) {
        b.Allow(now);
        b.OnSuccess(now);
      }
      b.OnFailure(now);
      retries.push_back(b.retry_at_ns());
    }
    return retries;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(CircuitBreakerTest, OpenStateFailuresDoNotRetripOrExtend) {
  CircuitBreaker b(FastBreaker(1, 1000));
  ASSERT_TRUE(b.OnFailure(0));
  const uint64_t retry = b.retry_at_ns();
  EXPECT_FALSE(b.OnFailure(10));  // already open: not a new trip
  EXPECT_EQ(b.retry_at_ns(), retry);
}

TEST(CircuitBreakerTest, ResetForceClosesAndRestartsLadder) {
  CircuitBreaker b(FastBreaker(1, 1000));
  ASSERT_TRUE(b.OnFailure(0));
  ASSERT_EQ(b.Allow(2000), CircuitBreaker::Decision::kTrial);
  ASSERT_TRUE(b.OnFailure(2000));  // backoff now 2000
  b.Reset();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.current_backoff_ns(), 1000u);
  EXPECT_EQ(b.Allow(0), CircuitBreaker::Decision::kAllow);
}

// ------------------------------------------------------- ThreadPool queue

TEST(ThreadPoolQueueTest, TrySubmitRejectsWhenFull) {
  ThreadPool pool(1, /*queue_capacity=*/2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> ran{0};
  pool.Submit([gate, &ran] {
    gate.wait();
    ++ran;
  });
  // Wait for the worker to claim the blocker so the queue is empty again.
  while (pool.queue_depth() != 0) std::this_thread::yield();
  EXPECT_TRUE(pool.TrySubmit([&ran] { ++ran; }));
  EXPECT_TRUE(pool.TrySubmit([&ran] { ++ran; }));
  EXPECT_FALSE(pool.TrySubmit([&ran] { ++ran; }));  // at capacity: shed
  EXPECT_EQ(pool.queue_depth(), 2u);
  release.set_value();
  pool.Drain();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolQueueTest, SubmitBlocksUntilSpaceFrees) {
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> ran{0};
  pool.Submit([gate, &ran] {
    gate.wait();
    ++ran;
  });
  while (pool.queue_depth() != 0) std::this_thread::yield();
  pool.Submit([&ran] { ++ran; });  // fills the queue
  std::atomic<bool> unblocked{false};
  std::thread submitter([&] {
    pool.Submit([&ran] { ++ran; });  // backpressure: must wait for a slot
    unblocked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(unblocked.load());
  release.set_value();
  submitter.join();
  EXPECT_TRUE(unblocked.load());
  pool.Drain();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolQueueTest, UnboundedQueueNeverSheds) {
  ThreadPool pool(2);  // capacity 0 = unbounded
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&ran] { ++ran; }));
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolQueueTest, TasksInterleaveWithRunBarriers) {
  ThreadPool pool(2, 4);
  std::atomic<int> ran{0};
  for (int round = 0; round < 5; ++round) {
    pool.Submit([&ran] { ++ran; });
    std::atomic<int> barrier_hits{0};
    pool.Run([&](uint32_t) { ++barrier_hits; });
    EXPECT_EQ(barrier_hits.load(), 2);
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 5);
}

// -------------------------------------------------------------- Failpoints

TEST(FailpointTest, ParseRejectsMalformedSpecs) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  for (const char* bad :
       {"noequals", "=error", "x=bogus", "x=error@0", "x=error@abc",
        "x=error@p0", "x=error@p1.5", "x=error@pxyz", "x=delay(abc)",
        "x=delay(99999999)", "x=delay(5"}) {
    EXPECT_THROW(fp.Parse(bad), std::invalid_argument) << bad;
  }
}

TEST(FailpointTest, DeterministicTriggerFiresOnNthHitOnce) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  fp.Parse("rt.a=error@3");
  EXPECT_EQ(fp.Hit("rt.a"), FailpointAction::kOff);
  EXPECT_EQ(fp.Hit("rt.a"), FailpointAction::kOff);
  EXPECT_EQ(fp.Hit("rt.a"), FailpointAction::kError);
  EXPECT_EQ(fp.Hit("rt.a"), FailpointAction::kOff);  // one-shot
  EXPECT_GE(fp.HitCount("rt.a"), 4u);
  EXPECT_FALSE(fp.MaybeArmed());
}

TEST(FailpointTest, ProbabilisticTriggerStaysArmedAndIsSeeded) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  auto draw = [&](uint64_t seed) {
    fp.Clear();
    fp.Parse("rt.p=error@p0.5");
    fp.Seed(seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(fp.Hit("rt.p") == FailpointAction::kError);
    }
    return fired;
  };
  const std::vector<bool> a = draw(1234);
  const std::vector<bool> b = draw(1234);
  const std::vector<bool> c = draw(5678);
  EXPECT_EQ(a, b);  // reproducible given the seed
  EXPECT_NE(a, c);
  const size_t fires = static_cast<size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 50u);  // ~100 expected; stays armed throughout
  EXPECT_LT(fires, 150u);
  EXPECT_TRUE(fp.MaybeArmed());  // probabilistic entries never disarm
}

TEST(FailpointTest, ProbabilityOneAlwaysFires) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  fp.SetProbabilistic("rt.sure", FailpointAction::kError, 1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fp.Hit("rt.sure"), FailpointAction::kError);
  }
  EXPECT_THROW(fp.SetProbabilistic("rt.bad", FailpointAction::kError, 0.0),
               std::invalid_argument);
  EXPECT_THROW(fp.SetProbabilistic("rt.bad", FailpointAction::kError, 1.5),
               std::invalid_argument);
}

TEST(FailpointTest, DelayActionCarriesItsMilliseconds) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  fp.Parse("rt.d=delay(7)");
  uint32_t delay_ms = 0;
  EXPECT_EQ(fp.Hit("rt.d", &delay_ms), FailpointAction::kDelay);
  EXPECT_EQ(delay_ms, 7u);
  // FailpointHit sleeps through a delay instead of throwing.
  fp.Parse("rt.d2=delay(1)");
  EXPECT_NO_THROW(FailpointHit("rt.d2"));
}

TEST(FailpointTest, ClearDisarmsAndOffOverrides) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  fp.Parse("rt.x=error;rt.y=error@p0.9");
  EXPECT_TRUE(fp.MaybeArmed());
  fp.Parse("rt.x=off");
  fp.Clear();
  EXPECT_FALSE(fp.MaybeArmed());
  EXPECT_EQ(fp.Hit("rt.x"), FailpointAction::kOff);
  EXPECT_EQ(fp.Hit("rt.y"), FailpointAction::kOff);
}

// ----------------------------------------------------------- WAL fsync

TEST(WalFsyncTest, InjectedSyncFailureIsTypedAndRetrySafe) {
  FailpointGuard guard;
  const std::string dir = TempDir("walsync");
  const std::string path = dir + "/test.log";
  WalWriter writer;
  writer.Open(path);
  const std::vector<EdgeUpdate> batch = {{1, 0, 2, EdgeOp::kInsert},
                                         {3, 1, 4, EdgeOp::kDelete}};
  Failpoints::Instance().Set(failpoints::kWalFsync, FailpointAction::kError);
  EXPECT_THROW(writer.Append(1, batch), WalSyncError);
  // Rolled back to the record boundary: nothing acknowledged, nothing kept.
  EXPECT_EQ(fs::file_size(path), 0u);
  EXPECT_EQ(writer.records_appended(), 0u);
  // Retrying the same LSN after the fault clears must succeed and be the
  // only record in the log.
  writer.Append(1, batch);
  const WalReadResult res = ReadWalFile(path);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].lsn, 1u);
  ASSERT_EQ(res.records[0].updates.size(), 2u);
  EXPECT_EQ(res.records[0].updates[1].src, 3u);
  EXPECT_EQ(res.dropped_bytes, 0u);
  writer.Close();
  fs::remove_all(dir);
}

TEST(WalFsyncTest, DelayedSyncStillAppends) {
  FailpointGuard guard;
  const std::string dir = TempDir("waldelay");
  WalWriter writer;
  writer.Open(dir + "/test.log");
  Failpoints::Instance().Set(failpoints::kWalFsync, FailpointAction::kDelay,
                             /*trigger_hit=*/1, /*delay_ms=*/1);
  const std::vector<EdgeUpdate> batch = {{1, 0, 2, EdgeOp::kInsert}};
  EXPECT_NO_THROW(writer.Append(1, batch));
  EXPECT_EQ(writer.records_appended(), 1u);
  writer.Close();
  fs::remove_all(dir);
}

// ------------------------------------------- ExecuteBatch deadline statuses

TEST(ExecuteBatchDeadlineTest, TinyBudgetSkipsJobsWithExplicitStatus) {
  const DiGraph g = RandomGraph(200, 800, 4, 3);
  const RlcIndex index = BuildRlcIndex(g, 2);
  QueryBatch batch;
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    batch.Add(static_cast<VertexId>(rng.Below(g.num_vertices())),
              static_cast<VertexId>(rng.Below(g.num_vertices())),
              LabelSeq{static_cast<Label>(rng.Below(g.num_labels()))});
  }
  ExecuteOptions options;
  options.batch_budget_ns = 1;  // expires before any job can start
  const AnswerBatch out = ExecuteBatch(index, batch, options);
  ASSERT_EQ(out.statuses.size(), batch.num_probes());
  EXPECT_EQ(out.num_deadline_exceeded, batch.num_probes());
  EXPECT_FALSE(out.all_ok());
  for (size_t i = 0; i < out.statuses.size(); ++i) {
    EXPECT_EQ(out.statuses[i], ProbeStatus::kDeadlineExceeded);
    EXPECT_EQ(out.answers[i], 0);  // non-kOk answers stay 0
  }
}

TEST(ExecuteBatchDeadlineTest, NoBudgetAnswersEverythingExactly) {
  const DiGraph g = RandomGraph(200, 800, 4, 3);
  const RlcIndex index = BuildRlcIndex(g, 2);
  QueryBatch batch;
  std::vector<uint8_t> want;
  Rng rng(6);
  for (int i = 0; i < 64; ++i) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const LabelSeq seq{static_cast<Label>(rng.Below(g.num_labels()))};
    batch.Add(s, t, seq);
    want.push_back(index.Query(s, t, seq) ? 1 : 0);
  }
  const AnswerBatch out = ExecuteBatch(index, batch);
  EXPECT_TRUE(out.all_ok());
  EXPECT_EQ(out.answers, want);
  for (const ProbeStatus s : out.statuses) EXPECT_EQ(s, ProbeStatus::kOk);
}

TEST(ExecuteBatchDeadlineTest, FailedJobSurfacesAsUnavailableNotGarbage) {
  FailpointGuard guard;
  const DiGraph g = RandomGraph(120, 500, 4, 4);
  const RlcIndex index = BuildRlcIndex(g, 2);
  QueryBatch batch;
  Rng rng(8);
  for (int i = 0; i < 32; ++i) {
    batch.Add(static_cast<VertexId>(rng.Below(g.num_vertices())),
              static_cast<VertexId>(rng.Below(g.num_vertices())),
              LabelSeq{static_cast<Label>(rng.Below(g.num_labels()))});
  }
  Failpoints::Instance().SetProbabilistic(failpoints::kServeKernelJob,
                                          FailpointAction::kError, 1.0);
  const AnswerBatch out = ExecuteBatch(index, batch);
  EXPECT_EQ(out.num_unavailable, batch.num_probes());
  for (size_t i = 0; i < out.statuses.size(); ++i) {
    EXPECT_EQ(out.statuses[i], ProbeStatus::kShardUnavailable);
    EXPECT_EQ(out.answers[i], 0);
  }
}

/// With probes_per_job = 5, a one-sequence batch splits into jobs over
/// positions [0, 5), [5, 10), ...; an error on the second failpoint hit
/// fails exactly one such span, and every other probe stays exact. On one
/// worker the second hit is the second job, [5, 10); on four, jobs claimed
/// concurrently may evaluate the failpoint out of claim order, so the
/// failed span is some aligned span of five.
TEST(ExecuteBatchDeadlineTest, FailedJobFailsExactlyItsSpan) {
  FailpointGuard guard;
  const DiGraph g = RandomGraph(120, 500, 4, 4);
  const RlcIndex index = BuildRlcIndex(g, 2);
  const LabelSeq seq{0};
  ASSERT_NE(index.FindMr(seq), kInvalidMrId);
  QueryBatch batch;
  std::vector<uint8_t> want;
  Rng rng(12);
  for (int i = 0; i < 30; ++i) {  // six jobs of five
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    batch.Add(s, t, seq);
    want.push_back(index.Query(s, t, seq) ? 1 : 0);
  }
  for (const uint32_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ExecuteOptions options;
    options.pool = &pool;
    options.probes_per_job = 5;
    Failpoints::Instance().Set(failpoints::kServeKernelJob,
                               FailpointAction::kError, /*trigger_hit=*/2);
    const AnswerBatch out = ExecuteBatch(index, batch, options);
    Failpoints::Instance().Clear();
    EXPECT_EQ(out.num_unavailable, 5u) << "threads=" << threads;
    const size_t first = static_cast<size_t>(
        std::find(out.statuses.begin(), out.statuses.end(),
                  ProbeStatus::kShardUnavailable) -
        out.statuses.begin());
    EXPECT_EQ(first % 5, 0u) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(first, 5u);
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (i >= first && i < first + 5) {
        EXPECT_EQ(out.statuses[i], ProbeStatus::kShardUnavailable) << i;
        EXPECT_EQ(out.answers[i], 0) << i;
      } else {
        EXPECT_EQ(out.statuses[i], ProbeStatus::kOk) << i;
        EXPECT_EQ(out.answers[i], want[i]) << i;
      }
    }
  }
}

// ------------------------------------------------- Service admission/shed

ServiceOptions RobustOpts(uint32_t shards = 3) {
  ServiceOptions options;
  options.partition.num_shards = shards;
  options.indexer.k = 2;
  options.build_threads = 2;
  return options;
}

QueryBatch MakeBatch(const DiGraph& g, size_t n, uint64_t seed) {
  QueryBatch batch;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    batch.Add(static_cast<VertexId>(rng.Below(g.num_vertices())),
              static_cast<VertexId>(rng.Below(g.num_vertices())),
              LabelSeq{static_cast<Label>(rng.Below(g.num_labels()))});
  }
  return batch;
}

TEST(ServiceAdmissionTest, BatchProbeCapShedsTypedOrAsStatuses) {
  const DiGraph g = RandomGraph(150, 600, 4, 9);
  ServiceOptions options = RobustOpts();
  options.max_batch_probes = 8;
  ShardedRlcService service(g, options);
  const QueryBatch small = MakeBatch(g, 8, 1);
  const QueryBatch big = MakeBatch(g, 9, 2);

  EXPECT_NO_THROW(service.Execute(small));
  EXPECT_THROW(service.Execute(big), OverloadedError);

  ExecuteLimits limits;
  limits.shed_as_status = true;
  const AnswerBatch out = service.Execute(big, limits);
  EXPECT_EQ(out.num_shedded, big.num_probes());
  for (const ProbeStatus s : out.statuses) {
    EXPECT_EQ(s, ProbeStatus::kShedded);
  }
  EXPECT_GE(service.stats().shed, 2 * big.num_probes());
}

TEST(ServiceAdmissionTest, RejectedCallCountsNoBatchAndNoQueries) {
  const DiGraph g = RandomGraph(150, 600, 4, 9);
  ShardedRlcService service(g, RobustOpts());
  service.Execute(MakeBatch(g, 8, 1));
  const ServiceStats before = service.stats();
  // Non-primitive constraint: (1 1) is not its own minimum repeat.
  EXPECT_THROW(service.Query(0, 1, LabelSeq{1, 1}), std::invalid_argument);
  QueryBatch bad = MakeBatch(g, 8, 3);
  bad.Add(0, g.num_vertices(), LabelSeq{0});
  EXPECT_THROW(service.Execute(bad), std::invalid_argument);
  EXPECT_EQ(service.stats().batches, before.batches);
  EXPECT_EQ(service.stats().queries, before.queries);
}

TEST(ServiceAdmissionTest, QueueHighWaterMarkSheds) {
  const DiGraph g = RandomGraph(150, 600, 4, 9);
  ServiceOptions options = RobustOpts();
  options.max_pending_jobs = 4;
  ShardedRlcService service(g, options);
  const QueryBatch batch = MakeBatch(g, 16, 3);
  EXPECT_NO_THROW(service.Execute(batch));
  // Simulate a saturated executor: park the process-global queue-depth
  // gauge at the high-water mark and watch admission refuse new batches.
  internal::KernelQueueDepthGauge().Add(4);
  EXPECT_THROW(service.Execute(batch), OverloadedError);
  // Query is a one-probe Execute: admission control sheds it too.
  const BatchProbe& p = batch.probes().front();
  EXPECT_THROW(service.Query(p.s, p.t, batch.sequence(p.seq_id)),
               OverloadedError);
  internal::KernelQueueDepthGauge().Sub(4);
  EXPECT_NO_THROW(service.Execute(batch));
}

// ------------------------------------------------ Service breaker behavior

TEST(ServiceBreakerTest, BrokenShardDegradesToExactComposedAnswers) {
  FailpointGuard guard;
  const DiGraph g = RandomGraph(200, 800, 4, 21);
  const RlcIndex oracle = BuildRlcIndex(g, 2);
  ServiceOptions options = RobustOpts();
  options.breaker.failure_threshold = 1;
  options.breaker.initial_backoff_ns = 60ull * 1'000'000'000;  // stays open
  ShardedRlcService service(g, options);

  const QueryBatch batch = MakeBatch(g, 96, 4);
  std::vector<uint8_t> want;
  for (const BatchProbe& p : batch.probes()) {
    want.push_back(
        oracle.QueryInterned(p.s, p.t,
                             oracle.FindMr(batch.sequence(p.seq_id)))
            ? 1
            : 0);
  }

  // First shard-phase job errors once; its probes must degrade to the
  // index-free composition path and still come back exact.
  Failpoints::Instance().Set(failpoints::kServeShardExecute,
                             FailpointAction::kError);
  const AnswerBatch faulted = service.Execute(batch);
  EXPECT_TRUE(faulted.all_ok());
  EXPECT_EQ(faulted.answers, want);
  EXPECT_GT(faulted.num_degraded, 0u);
  EXPECT_GE(service.stats().breaker_opened, 1u);
  bool some_open = false;
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    some_open |= service.shard_breaker_state(s) == BreakerState::kOpen;
  }
  EXPECT_TRUE(some_open);

  // With the breaker open (backoff far away) the shard is bypassed
  // entirely — no failpoint needed — and answers stay exact.
  const AnswerBatch degraded = service.Execute(batch);
  EXPECT_TRUE(degraded.all_ok());
  EXPECT_EQ(degraded.answers, want);
  EXPECT_GT(degraded.num_degraded, 0u);
}

/// With exec_probes_per_job = 3 and every (shard, constraint) group a
/// multiple of three probes, every shard kernel job spans three probes: an
/// error on the second failpoint hit degrades exactly one job's span to
/// the index-free path, and every answer stays exact, at any thread count.
TEST(ServiceBreakerTest, FailedShardJobDegradesExactlyItsSpan) {
  FailpointGuard guard;
  const DiGraph g = RandomGraph(200, 800, 4, 21);
  const RlcIndex oracle = BuildRlcIndex(g, 2);
  for (const uint32_t threads : {1u, 4u}) {
    ServiceOptions options = RobustOpts();
    options.exec_threads = threads;
    options.exec_probes_per_job = 3;
    ShardedRlcService service(g, options);
    const GraphPartition& part = service.partition();
    std::vector<std::vector<VertexId>> members(part.num_shards());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      members[part.ShardOf(v)].push_back(v);
    }
    QueryBatch batch;
    Rng rng(23);
    size_t kernel_jobs = 0;
    for (uint32_t shard = 0; shard < part.num_shards(); ++shard) {
      for (Label a = 0; a < g.num_labels(); ++a) {
        if (service.shard_index(shard).FindMr(LabelSeq{a}) == kInvalidMrId) {
          continue;
        }
        ++kernel_jobs;
        const std::vector<VertexId>& home = members[shard];
        for (int i = 0; i < 3; ++i) {
          batch.Add(home[rng.Below(home.size())],
                    home[rng.Below(home.size())], LabelSeq{a});
        }
      }
    }
    ASSERT_GE(kernel_jobs, 2u);
    while (batch.num_probes() < 3 * kernel_jobs + 24) {  // cross-shard
      const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
      if (part.ShardOf(s) == part.ShardOf(t)) continue;
      batch.Add(s, t, LabelSeq{static_cast<Label>(rng.Below(g.num_labels()))});
    }
    Failpoints::Instance().Set(failpoints::kServeShardExecute,
                               FailpointAction::kError, /*trigger_hit=*/2);
    const AnswerBatch out = service.Execute(batch);
    Failpoints::Instance().Clear();
    EXPECT_EQ(out.num_degraded, 3u) << "threads=" << threads;
    EXPECT_TRUE(out.all_ok());
    for (size_t i = 0; i < batch.num_probes(); ++i) {
      const BatchProbe& p = batch.probes()[i];
      EXPECT_EQ(out.statuses[i], ProbeStatus::kOk) << i;
      EXPECT_EQ(out.answers[i],
                oracle.Query(p.s, p.t, batch.sequence(p.seq_id)) ? 1 : 0)
          << "threads=" << threads << " probe " << i;
    }
  }
}

TEST(ServiceBreakerTest, BreakerReclosesAfterCleanTrial) {
  FailpointGuard guard;
  const DiGraph g = RandomGraph(200, 800, 4, 22);
  ServiceOptions options = RobustOpts();
  options.breaker.failure_threshold = 1;
  options.breaker.initial_backoff_ns = 1;  // trial on the very next batch
  ShardedRlcService service(g, options);
  const QueryBatch batch = MakeBatch(g, 96, 5);

  Failpoints::Instance().Set(failpoints::kServeShardExecute,
                             FailpointAction::kError);
  service.Execute(batch);
  ASSERT_GE(service.stats().breaker_opened, 1u);

  const AnswerBatch healed = service.Execute(batch);  // clean trial
  EXPECT_TRUE(healed.all_ok());
  EXPECT_GE(service.stats().breaker_trials, 1u);
  EXPECT_GE(service.stats().breaker_reclosed, 1u);
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    EXPECT_EQ(service.shard_breaker_state(s), BreakerState::kClosed);
  }
}

// --------------------------------------- Query is a one-probe Execute

/// The per-probe tier counters. Hops, expanded states and rows built are
/// left out: Execute composes probes grouped by constraint, so transition
/// rows build in another order than a Query loop builds them.
std::map<std::string, uint64_t> TierCounts(const ServiceStats& s) {
  return {{"queries", s.queries},
          {"intra_true", s.intra_true},
          {"intra_miss", s.intra_miss},
          {"compose_probes", s.compose_probes},
          {"breaker_degraded", s.breaker_degraded},
          {"breaker_fail_fast", s.breaker_fail_fast},
          {"deadline_exceeded", s.deadline_exceeded},
          {"compose_overruns", s.compose_overruns}};
}

std::map<std::string, uint64_t> TierDelta(const ServiceStats& before,
                                          const ServiceStats& after) {
  std::map<std::string, uint64_t> delta = TierCounts(after);
  for (const auto& [name, value] : TierCounts(before)) delta[name] -= value;
  return delta;
}

/// Composed probes are attributed to their source shard exactly where
/// serve.compose.probes counts them.
void ExpectShardComposeConservation(const ShardedRlcService& service) {
  uint64_t sum = 0;
  for (const uint64_t c : service.ShardComposeCounts()) sum += c;
  EXPECT_EQ(sum, service.stats().compose_probes);
}

/// Every primitive constraint of length 1 or 2 over the graph's labels.
std::vector<LabelSeq> AllConstraints(Label labels) {
  std::vector<LabelSeq> seqs;
  for (Label a = 0; a < labels; ++a) seqs.push_back(LabelSeq{a});
  for (Label a = 0; a < labels; ++a) {
    for (Label b = 0; b < labels; ++b) {
      if (a != b) seqs.push_back(LabelSeq{a, b});
    }
  }
  return seqs;
}

/// Mixed traffic: random probes, half of them with both endpoints in one
/// shard (intra hits and misses, composed probes on both sides),
/// plus same-shard probes under a constraint their shard never recorded.
QueryBatch MixedTraffic(const ShardedRlcService& service, const DiGraph& g,
                        uint64_t seed) {
  const GraphPartition& part = service.partition();
  std::vector<std::vector<VertexId>> members(part.num_shards());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    members[part.ShardOf(v)].push_back(v);
  }
  const std::vector<LabelSeq> seqs = AllConstraints(g.num_labels());
  QueryBatch batch;
  Rng rng(seed);
  for (int i = 0; i < 160; ++i) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const std::vector<VertexId>& home = members[part.ShardOf(s)];
    const VertexId t =
        i % 2 == 0 ? home[rng.Below(home.size())]
                   : static_cast<VertexId>(rng.Below(g.num_vertices()));
    batch.Add(s, t, seqs[rng.Below(seqs.size())]);
  }
  for (uint32_t shard = 0; shard < part.num_shards(); ++shard) {
    for (const LabelSeq& seq : seqs) {
      if (service.shard_index(shard).FindMr(seq) != kInvalidMrId) continue;
      const std::vector<VertexId>& home = members[shard];
      for (int i = 0; i < 8; ++i) {
        batch.Add(home[rng.Below(home.size())], home[rng.Below(home.size())],
                  seq);
      }
      return batch;
    }
  }
  ADD_FAILURE() << "every shard recorded every constraint";
  return batch;
}

/// Sends `traffic` through a Query loop on `scalar` and one Execute on
/// `batched` (two identically built and primed services). Query must throw
/// UnavailableError exactly where Execute reports a non-kOk status, answer
/// equally everywhere else, and move the tier counters by the same amounts.
/// Returns the tier-counter deltas.
std::map<std::string, uint64_t> ExpectQueryMatchesExecute(
    ShardedRlcService& scalar, ShardedRlcService& batched,
    const QueryBatch& traffic) {
  constexpr int kThrew = -1;
  const ServiceStats scalar_before = scalar.stats();
  std::vector<int> got;
  for (const BatchProbe& p : traffic.probes()) {
    try {
      got.push_back(scalar.Query(p.s, p.t, traffic.sequence(p.seq_id)) ? 1
                                                                       : 0);
    } catch (const UnavailableError&) {
      got.push_back(kThrew);
    }
  }
  const ServiceStats batched_before = batched.stats();
  const AnswerBatch out = batched.Execute(traffic);
  for (size_t i = 0; i < got.size(); ++i) {
    if (out.statuses[i] != ProbeStatus::kOk) {
      EXPECT_EQ(got[i], kThrew)
          << "probe " << i << ": Execute reported "
          << ProbeStatusName(out.statuses[i]) << ", Query answered";
    } else {
      EXPECT_EQ(got[i], out.answers[i]) << "probe " << i;
    }
  }
  const auto delta = TierDelta(scalar_before, scalar.stats());
  EXPECT_EQ(delta, TierDelta(batched_before, batched.stats()));
  EXPECT_EQ(delta.at("queries"), traffic.num_probes());
  ExpectShardComposeConservation(scalar);
  ExpectShardComposeConservation(batched);
  return delta;
}

/// Query's UnavailableError names the status Execute reports for the
/// first probe that ends in `status`.
void ExpectQueryNamesStatus(ShardedRlcService& scalar,
                            ShardedRlcService& batched,
                            const QueryBatch& traffic, ProbeStatus status) {
  const AnswerBatch out = batched.Execute(traffic);
  const auto it = std::find(out.statuses.begin(), out.statuses.end(), status);
  ASSERT_NE(it, out.statuses.end());
  const BatchProbe& p = traffic.probes()[it - out.statuses.begin()];
  try {
    scalar.Query(p.s, p.t, traffic.sequence(p.seq_id));
    ADD_FAILURE() << "Query answered a probe Execute reports as "
                  << ProbeStatusName(status);
  } catch (const UnavailableError& e) {
    EXPECT_NE(std::string(e.what()).find(ProbeStatusName(status)),
              std::string::npos)
        << e.what();
  }
}

constexpr uint64_t kFarBackoffNs = 60ull * 1'000'000'000;

/// A planted-partition graph over a locality-preserving partition: same-
/// shard probes hit often, and the rare labels cross few shard borders, so
/// many composed probes find no label-matched way out of their shard.
DiGraph DifferentialGraph() {
  Rng rng(41);
  auto edges = PlantedPartitionEdges(180, 720, 3, 0.95, rng);
  AssignZipfLabels(&edges, 5, 2.0, rng);
  return DiGraph(180, std::move(edges), 5);
}

ServiceOptions DifferentialOpts() {
  ServiceOptions options = RobustOpts();
  options.partition.policy = PartitionPolicy::kRangeOrdered;
  return options;
}

TEST(QueryExecuteDifferentialTest, HealthyServiceAgreesWithOracle) {
  const DiGraph g = DifferentialGraph();
  const RlcIndex oracle = BuildRlcIndex(g, 2);
  ShardedRlcService scalar(g, DifferentialOpts());
  ShardedRlcService batched(g, DifferentialOpts());
  const QueryBatch traffic = MixedTraffic(batched, g, 1);
  const auto delta = ExpectQueryMatchesExecute(scalar, batched, traffic);
  // The traffic covers every routing tier.
  EXPECT_GT(delta.at("intra_true"), 0u);
  EXPECT_GT(delta.at("intra_miss"), 0u);
  EXPECT_GT(delta.at("compose_probes"), 0u);
  EXPECT_EQ(delta.at("intra_true") + delta.at("compose_probes"),
            traffic.num_probes());
  for (const BatchProbe& p : traffic.probes()) {
    const LabelSeq& seq = traffic.sequence(p.seq_id);
    ASSERT_EQ(scalar.Query(p.s, p.t, seq), oracle.Query(p.s, p.t, seq));
  }
}

TEST(QueryExecuteDifferentialTest, ShardBreakerOpen) {
  FailpointGuard guard;
  const DiGraph g = DifferentialGraph();
  ServiceOptions options = DifferentialOpts();
  options.breaker.failure_threshold = 1;
  options.breaker.initial_backoff_ns = kFarBackoffNs;
  ShardedRlcService scalar(g, options);
  ShardedRlcService batched(g, options);

  // Trip shard 0's breaker on both services: one erroring shard job on a
  // same-shard probe under a constraint shard 0 recorded.
  QueryBatch trip;
  const std::vector<LabelSeq> seqs = AllConstraints(g.num_labels());
  for (VertexId v = 0; v < g.num_vertices() && trip.num_probes() == 0; ++v) {
    if (scalar.partition().ShardOf(v) != 0) continue;
    for (const LabelSeq& seq : seqs) {
      if (scalar.shard_index(0).FindMr(seq) != kInvalidMrId) {
        trip.Add(v, v, seq);
        break;
      }
    }
  }
  ASSERT_EQ(trip.num_probes(), 1u);
  for (ShardedRlcService* service : {&scalar, &batched}) {
    Failpoints::Instance().Set(failpoints::kServeShardExecute,
                               FailpointAction::kError);
    service->Execute(trip);
    ASSERT_EQ(service->shard_breaker_state(0), BreakerState::kOpen);
  }
  Failpoints::Instance().Clear();

  const auto delta =
      ExpectQueryMatchesExecute(scalar, batched, MixedTraffic(batched, g, 2));
  EXPECT_GT(delta.at("breaker_degraded"), 0u);
  EXPECT_GT(delta.at("intra_true"), 0u);  // the other shards still serve
  EXPECT_EQ(scalar.shard_breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(batched.shard_breaker_state(0), BreakerState::kOpen);
}

TEST(QueryExecuteDifferentialTest, ComposeBreakerOpen) {
  FailpointGuard guard;
  const DiGraph g = DifferentialGraph();
  ServiceOptions options = DifferentialOpts();
  options.breaker.failure_threshold = 1;
  options.breaker.initial_backoff_ns = kFarBackoffNs;
  ShardedRlcService scalar(g, options);
  ShardedRlcService batched(g, options);
  const QueryBatch traffic = MixedTraffic(batched, g, 3);

  // Trip the compose breaker on both services: one failing compose job.
  for (ShardedRlcService* service : {&scalar, &batched}) {
    Failpoints::Instance().Set(failpoints::kServeComposeExecute,
                               FailpointAction::kError);
    service->Execute(traffic);
    ASSERT_EQ(service->compose_breaker_state(), BreakerState::kOpen);
  }
  Failpoints::Instance().Clear();

  const auto delta = ExpectQueryMatchesExecute(scalar, batched, traffic);
  EXPECT_GT(delta.at("breaker_fail_fast"), 0u);
  EXPECT_EQ(delta.at("compose_probes"), 0u);
  EXPECT_GT(delta.at("intra_true"), 0u);
  ExpectQueryNamesStatus(scalar, batched, traffic,
                         ProbeStatus::kShardUnavailable);
}

TEST(QueryExecuteDifferentialTest, ComposeProbeDelayPastBudget) {
  FailpointGuard guard;
  const DiGraph g = DifferentialGraph();
  ServiceOptions options = DifferentialOpts();
  options.probe_budget_ns = 1'000'000;  // 1 ms per composed probe
  // Keep the compose breaker closed: a Query loop reports one overrun per
  // batch of one, Execute one per batch.
  options.breaker.failure_threshold = 1'000'000;
  ShardedRlcService scalar(g, options);
  ShardedRlcService batched(g, options);
  // Every composed probe sleeps 2 ms after its budget clock started, so it
  // is past its deadline when the composition walk begins.
  Failpoints::Instance().Parse("serve.compose.probe=delay(2)@p1");

  const QueryBatch traffic = MixedTraffic(batched, g, 4);
  const auto delta = ExpectQueryMatchesExecute(scalar, batched, traffic);
  EXPECT_GT(delta.at("compose_probes"), 0u);
  EXPECT_EQ(delta.at("deadline_exceeded"), delta.at("compose_probes"));
  EXPECT_EQ(delta.at("compose_overruns"), delta.at("compose_probes"));
  ExpectQueryNamesStatus(scalar, batched, traffic,
                         ProbeStatus::kDeadlineExceeded);
}

// ----------------------------------------------------------- ReviveShard

std::vector<EdgeUpdate> SomeUpdates(const DiGraph& g, size_t n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeUpdate> updates;
  const std::vector<Edge> base = g.ToEdgeList();
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 2 && !base.empty()) {
      const Edge& e = base[rng.Below(base.size())];
      updates.push_back({e.src, e.label, e.dst, EdgeOp::kDelete});
    } else {
      updates.push_back({static_cast<VertexId>(rng.Below(g.num_vertices())),
                         static_cast<Label>(rng.Below(g.num_labels())),
                         static_cast<VertexId>(rng.Below(g.num_vertices())),
                         EdgeOp::kInsert});
    }
  }
  return updates;
}

void ExpectReviveKeepsAnswers(ShardedRlcService& service, const DiGraph& g) {
  const QueryBatch batch = MakeBatch(g, 128, 6);
  const AnswerBatch before = service.Execute(batch);
  ASSERT_TRUE(before.all_ok());
  const uint64_t revives_before = service.stats().shard_revives;
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    service.ReviveShard(s);
    const AnswerBatch after = service.Execute(batch);
    ASSERT_TRUE(after.all_ok());
    ASSERT_EQ(after.answers, before.answers) << "revive changed shard " << s;
  }
  EXPECT_EQ(service.stats().shard_revives,
            revives_before + service.partition().num_shards());
}

TEST(ReviveShardTest, RebuildPathReproducesMutatedShardExactly) {
  const DiGraph g = RandomGraph(180, 700, 4, 31);
  ShardedRlcService service(g, RobustOpts());
  service.ApplyUpdates(SomeUpdates(g, 40, 7));
  ExpectReviveKeepsAnswers(service, g);
}

TEST(ReviveShardTest, DurablePathReproducesMutatedShardExactly) {
  const DiGraph g = RandomGraph(180, 700, 4, 32);
  const std::string dir = TempDir("revive");
  ServiceOptions options = RobustOpts();
  options.durability.dir = dir;
  {
    ShardedRlcService service(g, options);
    service.ApplyUpdates(SomeUpdates(g, 40, 8));  // lands in the WAL tail
    ExpectReviveKeepsAnswers(service, g);
  }
  fs::remove_all(dir);
}

TEST(ReviveShardTest, ReviveResetsAnOpenBreaker) {
  FailpointGuard guard;
  const DiGraph g = RandomGraph(180, 700, 4, 33);
  ServiceOptions options = RobustOpts();
  options.breaker.failure_threshold = 1;
  options.breaker.initial_backoff_ns = 60ull * 1'000'000'000;
  ShardedRlcService service(g, options);
  Failpoints::Instance().Set(failpoints::kServeShardExecute,
                             FailpointAction::kError);
  service.Execute(MakeBatch(g, 96, 9));
  uint32_t open_shard = service.partition().num_shards();
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    if (service.shard_breaker_state(s) == BreakerState::kOpen) open_shard = s;
  }
  ASSERT_LT(open_shard, service.partition().num_shards());
  service.ReviveShard(open_shard);
  EXPECT_EQ(service.shard_breaker_state(open_shard), BreakerState::kClosed);
}

}  // namespace
}  // namespace rlc

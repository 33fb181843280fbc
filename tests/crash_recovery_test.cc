// Crash-safety of the durability layer, proved by killing the process.
//
// The tentpole is the fork harness: for EVERY failpoint on the persist path
// (failpoints::kPersistPath) a child process runs a seeded mutation
// workload against a DurableDynamicIndex — or a full ShardedRlcService —
// with that failpoint armed as `crash` (_exit mid-syscall, the user-space
// stand-in for power loss), reporting each acknowledgement through a pipe.
// The parent then recovers the store and checks the recovered state is
// base + exactly the first n workload updates for some n between the last
// acknowledged batch and the last attempted one: no acknowledged update is
// ever lost and no partial batch is ever visible, differentially against a
// from-scratch oracle build on the prefix-mutated graph.
//
// Around it: WAL round-trip/torn-tail/rollback units, injected-error
// (ENOSPC, short write) probes that must leave the store usable, recovery
// fallback to the previous generation when the newest is corrupt, refusal
// to silently rebuild over an unloadable store, rejection of an invalid
// batch before it is logged, and a byte-flip fuzz over whole store
// directories — every flip either recovers a clean workload prefix or
// throws; never UB, never a wrong answer. The fallback, injected-error and
// byte-flip tests run against both durable stores. Tests named *Deep* run
// as a separate slow-labeled ctest entry (nightly); the rest stay in the
// per-PR suite.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "rlc/core/durable_index.h"
#include "rlc/core/index_io.h"
#include "rlc/core/indexer.h"
#include "rlc/core/wal.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/failpoint.h"
#include "rlc/util/rng.h"
#include "rlc/workload/query_gen.h"

namespace rlc {
namespace {

namespace fs = std::filesystem;

DiGraph TestGraph(VertexId n = 40, uint64_t m = 130, Label labels = 3,
                  uint64_t seed = 0x7E57) {
  Rng rng(seed);
  auto edges = ErdosRenyiEdges(n, m, rng);
  AssignZipfLabels(&edges, labels, 2.0, rng);
  return DiGraph(n, std::move(edges), labels);
}

RlcIndex BuildSealed(const DiGraph& g, uint32_t k = 2) {
  IndexerOptions options;
  options.k = k;
  RlcIndexBuilder builder(g, options);
  return builder.Build();
}

std::string TempDir(const std::string& tag) {
  std::string templ =
      (fs::temp_directory_path() / ("rlc_crash_" + tag + "_XXXXXX")).string();
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + templ);
  }
  return std::string(buf.data());
}

/// A deterministic valid mutation sequence: every delete targets an edge
/// present at that point, every insert is genuinely new.
std::vector<EdgeUpdate> MakeWorkload(const DiGraph& g, size_t count,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> current = g.ToEdgeList();
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());
  std::vector<EdgeUpdate> out;
  while (out.size() < count) {
    if (rng.Below(100) < 40 && !current.empty()) {
      const size_t pick = rng.Below(current.size());
      const Edge e = current[pick];
      current.erase(current.begin() + static_cast<ptrdiff_t>(pick));
      out.push_back({e.src, e.label, e.dst, EdgeOp::kDelete});
    } else {
      for (;;) {
        const Edge e{static_cast<VertexId>(rng.Below(g.num_vertices())),
                     static_cast<VertexId>(rng.Below(g.num_vertices())),
                     static_cast<Label>(rng.Below(g.num_labels()))};
        if (std::find(current.begin(), current.end(), e) != current.end()) {
          continue;
        }
        current.push_back(e);
        out.push_back({e.src, e.label, e.dst, EdgeOp::kInsert});
        break;
      }
    }
  }
  return out;
}

/// The edge set after applying the first `n` workload updates to `g`.
std::vector<Edge> PrefixEdges(const DiGraph& g,
                              std::span<const EdgeUpdate> updates, size_t n) {
  std::vector<Edge> current = g.ToEdgeList();
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());
  for (size_t i = 0; i < n; ++i) {
    const EdgeUpdate& e = updates[i];
    const Edge edge{e.src, e.dst, e.label};
    if (e.op == EdgeOp::kInsert) {
      current.push_back(edge);
    } else {
      current.erase(std::find(current.begin(), current.end(), edge));
    }
  }
  std::sort(current.begin(), current.end());
  return current;
}

/// Recovered state == base + first `n` updates, edge-exact and answer-exact
/// against a from-scratch oracle build.
void ExpectStateIsPrefix(const DurableDynamicIndex& store, const DiGraph& g,
                         std::span<const EdgeUpdate> updates, size_t n,
                         bool probe_queries = true) {
  const std::vector<Edge> want = PrefixEdges(g, updates, n);
  std::vector<Edge> got = store.dynamic().MaterializedEdges();
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got, want) << "recovered edge set is not the prefix of length "
                       << n;
  if (!probe_queries) return;
  const DiGraph mutated(g.num_vertices(), want, g.num_labels(),
                        /*dedup_parallel=*/false);
  const RlcIndex oracle = BuildSealed(mutated);
  Rng rng(0xDD + n);
  for (int probe = 0; probe < 300; ++probe) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(2), g.num_labels(), rng);
    ASSERT_EQ(oracle.Query(s, t, c), store.Query(s, t, c))
        << "s=" << s << " t=" << t << " L=" << c.ToString() << " n=" << n;
  }
}

DurabilityOptions StoreOptions(const std::string& dir) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.checkpoint_wal_bytes = 0;  // tests checkpoint explicitly
  return opts;
}

ServiceOptions DurableServiceOptions(const std::string& dir) {
  ServiceOptions options;
  options.partition.num_shards = 3;
  options.indexer.k = 2;
  options.build_threads = 2;
  options.durability.dir = dir;
  options.durability.checkpoint_wal_bytes = 0;
  return options;
}

void ExpectServiceIsPrefix(ShardedRlcService& service, const DiGraph& g,
                           std::span<const EdgeUpdate> updates, size_t n) {
  const std::vector<Edge> want = PrefixEdges(g, updates, n);
  const DiGraph mutated(g.num_vertices(), want, g.num_labels(),
                        /*dedup_parallel=*/false);
  const RlcIndex oracle = BuildSealed(mutated);
  Rng rng(0xEE + n);
  for (int probe = 0; probe < 400; ++probe) {
    const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const LabelSeq c = RandomPrimitiveSeq(1 + rng.Below(2), g.num_labels(), rng);
    ASSERT_EQ(oracle.Query(s, t, c), service.Query(s, t, c))
        << "s=" << s << " t=" << t << " L=" << c.ToString() << " n=" << n;
  }
}

// The two durable stores behind one face, so a recovery test can run
// against both: the core store (one snapshot file per generation) and the
// sharded service (a gen-<G>/ directory of per-shard snapshots).
enum class StoreKind { kCore, kService };
constexpr StoreKind kBothStores[] = {StoreKind::kCore, StoreKind::kService};

const char* KindName(StoreKind kind) {
  return kind == StoreKind::kCore ? "core" : "service";
}

class AnyStore {
 public:
  AnyStore(StoreKind kind, const DiGraph& g, const std::string& dir) {
    if (kind == StoreKind::kCore) {
      core_ = std::make_unique<DurableDynamicIndex>(
          g, StoreOptions(dir), [&] { return BuildSealed(g); });
    } else {
      service_ = std::make_unique<ShardedRlcService>(g, DurableServiceOptions(dir));
    }
  }

  void ApplyUpdates(std::span<const EdgeUpdate> updates) {
    core_ ? core_->ApplyUpdates(updates) : service_->ApplyUpdates(updates);
  }
  void Checkpoint() { core_ ? core_->Checkpoint() : service_->Checkpoint(); }
  uint64_t last_lsn() const {
    return core_ ? core_->last_lsn() : service_->last_lsn();
  }
  uint64_t generation() const {
    return core_ ? core_->generation() : service_->generation();
  }
  const RecoveryInfo& recovery_info() const {
    return core_ ? core_->recovery_info() : service_->recovery_info();
  }

  /// State == base + first `n` updates. The service exposes no edge list,
  /// so it is always checked by answers; `probe_queries` applies to the core.
  void ExpectIsPrefix(const DiGraph& g, std::span<const EdgeUpdate> updates,
                      size_t n, bool probe_queries = true) {
    if (core_) {
      ExpectStateIsPrefix(*core_, g, updates, n, probe_queries);
    } else {
      ExpectServiceIsPrefix(*service_, g, updates, n);
    }
  }

 private:
  std::unique_ptr<DurableDynamicIndex> core_;
  std::unique_ptr<ShardedRlcService> service_;
};

/// One snapshot file per on-disk generation, oldest first: the core's
/// snapshot-<G>.snap, or the service's gen-<G>/shard-1.snap.
std::vector<std::string> GenerationSnapshots(StoreKind kind,
                                             const std::string& dir) {
  std::vector<std::string> files;
  if (kind == StoreKind::kCore) {
    for (const uint64_t gen : ListGenerationFiles(dir, "snapshot-", ".snap")) {
      files.push_back(SnapshotPath(dir, gen));
    }
  } else {
    for (const uint64_t gen : ListGenerationFiles(dir, "gen-", "")) {
      files.push_back(dir + "/gen-" + std::to_string(gen) + "/shard-1.snap");
    }
  }
  return files;
}

void FlipByte(const std::string& path, size_t offset, uint8_t mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  ASSERT_TRUE(f.good()) << path << " offset " << offset;
  f.seekp(static_cast<std::streamoff>(offset));
  b = static_cast<char>(b ^ mask);
  f.write(&b, 1);
}

// ---------------------------------------------------------------------------
// Failpoint registry units.

TEST(FailpointTest, SpecParsingAndTriggers) {
  Failpoints& fp = Failpoints::Instance();
  fp.Clear();
  fp.Parse("a=error;b=crash@3,c=short_write");
  EXPECT_EQ(fp.Hit("a"), FailpointAction::kError);
  EXPECT_EQ(fp.Hit("a"), FailpointAction::kOff);  // one-shot
  EXPECT_EQ(fp.Hit("b"), FailpointAction::kOff);
  EXPECT_EQ(fp.Hit("b"), FailpointAction::kOff);
  EXPECT_EQ(fp.Hit("b"), FailpointAction::kCrash);  // third hit
  EXPECT_EQ(fp.Hit("c"), FailpointAction::kShortWrite);
  EXPECT_EQ(fp.Hit("unarmed"), FailpointAction::kOff);
  EXPECT_THROW(fp.Parse("noequals"), std::invalid_argument);
  EXPECT_THROW(fp.Parse("a=bogus"), std::invalid_argument);
  EXPECT_THROW(fp.Parse("a=error@0"), std::invalid_argument);
  EXPECT_THROW(fp.Parse("=error"), std::invalid_argument);
  fp.Parse("a=off");  // disarm spelling accepted
  EXPECT_EQ(fp.Hit("a"), FailpointAction::kOff);
  fp.Clear();
  EXPECT_GE(fp.HitCount("a"), 2u);  // hit counts are diagnostics, survive Clear
}

// ---------------------------------------------------------------------------
// WAL units.

TEST(WalTest, RoundTripTornTailAndRollback) {
  const std::string dir = TempDir("wal");
  const std::string path = dir + "/w.log";
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 6, 0x11);
  {
    WalWriter w;
    w.Open(path);
    for (size_t i = 0; i < updates.size(); ++i) {
      w.Append(i + 1, std::span(&updates[i], 1));
    }
    EXPECT_EQ(w.records_appended(), updates.size());
  }
  const WalReadResult full = ReadWalFile(path);
  ASSERT_EQ(full.records.size(), updates.size());
  EXPECT_EQ(full.dropped_bytes, 0u);
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(full.records[i].lsn, i + 1);
    ASSERT_EQ(full.records[i].updates.size(), 1u);
    EXPECT_EQ(full.records[i].updates[0].src, updates[i].src);
    EXPECT_EQ(full.records[i].updates[0].label, updates[i].label);
    EXPECT_EQ(full.records[i].updates[0].dst, updates[i].dst);
    EXPECT_EQ(full.records[i].updates[0].op, updates[i].op);
  }

  // Torn tail: truncating anywhere inside the last record drops exactly it.
  const uint64_t record_bytes = full.valid_bytes / updates.size();
  fs::resize_file(path, full.valid_bytes - record_bytes / 2);
  const WalReadResult torn = ReadWalFile(path);
  EXPECT_EQ(torn.records.size(), updates.size() - 1);
  EXPECT_GT(torn.dropped_bytes, 0u);

  // A flipped byte in the middle drops that record and everything after.
  fs::resize_file(path, full.valid_bytes);  // zero-extend is fine: bad prefix
  FlipByte(path, record_bytes * 2 + 5, 0x40);
  const WalReadResult flipped = ReadWalFile(path);
  EXPECT_LE(flipped.records.size(), 2u);

  // A failed append rolls the file back to the record boundary, so later
  // appends stay readable (a torn mid-file record would poison the reader).
  const std::string path2 = dir + "/w2.log";
  {
    WalWriter w;
    w.Open(path2);
    w.Append(1, std::span(updates.data(), 1));
    Failpoints::Instance().Set("io", FailpointAction::kShortWrite);
    EXPECT_THROW(w.Append(2, std::span(updates.data() + 1, 1)),
                 std::runtime_error);
    Failpoints::Instance().Clear();
    w.Append(2, std::span(updates.data() + 1, 1));  // retry after the "ENOSPC"
    w.Append(3, std::span(updates.data() + 2, 1));
  }
  const WalReadResult after = ReadWalFile(path2);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.dropped_bytes, 0u);
  EXPECT_EQ(after.records[2].lsn, 3u);

  EXPECT_TRUE(ReadWalFile(dir + "/missing.log").records.empty());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// DurableDynamicIndex: reopen, generations, fallback.

TEST(DurableIndexTest, FreshBuildThenReopenRecoversEverything) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 12, 0x22);
  const std::string dir = TempDir("reopen");
  {
    DurableDynamicIndex store(g, StoreOptions(dir),
                              [&] { return BuildSealed(g); });
    EXPECT_FALSE(store.recovery_info().recovered);
    EXPECT_EQ(store.generation(), 1u);
    for (size_t i = 0; i < updates.size(); ++i) {
      store.ApplyUpdates(std::span(&updates[i], 1));
      if (i == 5) store.Checkpoint();
    }
    EXPECT_EQ(store.last_lsn(), updates.size());
  }
  bool built = false;
  DurableDynamicIndex store(g, StoreOptions(dir), [&] {
    built = true;
    return BuildSealed(g);
  });
  EXPECT_FALSE(built) << "recovery must not rebuild the index";
  EXPECT_TRUE(store.recovery_info().recovered);
  EXPECT_FALSE(store.recovery_info().fell_back);
  EXPECT_EQ(store.last_lsn(), updates.size());
  // The tail after the mid-stream checkpoint came back through WAL replay.
  EXPECT_EQ(store.recovery_info().replayed_records, updates.size() - 6);
  ExpectStateIsPrefix(store, g, updates, updates.size());
  fs::remove_all(dir);
}

TEST(DurableIndexTest, AutoCheckpointAdvancesGenerations) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 6, 0x33);
  const std::string dir = TempDir("autock");
  DurabilityOptions opts = StoreOptions(dir);
  opts.checkpoint_wal_bytes = 1;  // every batch triggers a checkpoint
  DurableDynamicIndex store(g, opts, [&] { return BuildSealed(g); });
  const uint64_t gen0 = store.generation();
  for (const EdgeUpdate& u : updates) store.ApplyUpdates(std::span(&u, 1));
  EXPECT_EQ(store.generation(), gen0 + updates.size());
  // Retention: only keep_generations snapshots remain on disk.
  EXPECT_EQ(ListGenerationFiles(dir, "snapshot-", ".snap").size(),
            StoreOptions(dir).keep_generations);
  ExpectStateIsPrefix(store, g, updates, updates.size(), false);
  fs::remove_all(dir);
}

TEST(DurableIndexTest, CorruptNewestSnapshotFallsBackOneGeneration) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 10, 0x44);
  for (const StoreKind kind : kBothStores) {
    SCOPED_TRACE(KindName(kind));
    const std::string dir = TempDir("fallback");
    uint64_t newest = 0;
    {
      AnyStore store(kind, g, dir);
      for (size_t i = 0; i < updates.size(); ++i) {
        store.ApplyUpdates(std::span(&updates[i], 1));
        if (i == 6) store.Checkpoint();
      }
      store.Checkpoint();
      newest = store.generation();
    }
    FlipByte(GenerationSnapshots(kind, dir).back(), 200, 0x08);
    AnyStore store(kind, g, dir);
    EXPECT_TRUE(store.recovery_info().recovered);
    EXPECT_TRUE(store.recovery_info().fell_back);
    EXPECT_LT(store.recovery_info().generation, newest);
    // The newer generation's WAL still replays: nothing acknowledged is lost.
    EXPECT_EQ(store.last_lsn(), updates.size());
    store.ExpectIsPrefix(g, updates, updates.size());
    fs::remove_all(dir);
  }
}

TEST(DurableIndexTest, CorruptManifestFallsBackToDirectoryScan) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 8, 0x55);
  for (const StoreKind kind : kBothStores) {
    SCOPED_TRACE(KindName(kind));
    const std::string dir = TempDir("manifest");
    {
      AnyStore store(kind, g, dir);
      for (const EdgeUpdate& u : updates) store.ApplyUpdates(std::span(&u, 1));
      store.Checkpoint();
    }
    FlipByte(dir + "/" + std::string(kManifestFileName), 3, 0xFF);
    AnyStore store(kind, g, dir);
    EXPECT_TRUE(store.recovery_info().recovered);
    EXPECT_TRUE(store.recovery_info().fell_back);
    EXPECT_FALSE(store.recovery_info().fallback_reason.empty());
    EXPECT_EQ(store.last_lsn(), updates.size());
    store.ExpectIsPrefix(g, updates, updates.size(), false);
    fs::remove_all(dir);
  }
}

TEST(DurableIndexTest, UnrecoverableStoreThrowsInsteadOfRebuilding) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 4, 0x66);
  for (const StoreKind kind : kBothStores) {
    SCOPED_TRACE(KindName(kind));
    const std::string dir = TempDir("unrecoverable");
    {
      AnyStore store(kind, g, dir);
      for (const EdgeUpdate& u : updates) store.ApplyUpdates(std::span(&u, 1));
      store.Checkpoint();
    }
    for (const std::string& snap : GenerationSnapshots(kind, dir)) {
      FlipByte(snap, 64, 0xFF);
    }
    EXPECT_THROW(AnyStore(kind, g, dir), std::runtime_error);
    fs::remove_all(dir);
  }
}

TEST(DurableIndexTest, InvalidBatchIsRejectedBeforeLogging) {
  // A batch with one valid insert and one invalid update must be rejected
  // whole: nothing logged (a logged invalid batch would make every later
  // open throw during WAL replay), nothing applied.
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 3, 0x13);
  const std::string dir = TempDir("invalid");
  EdgeUpdate valid{0, 0, 0, EdgeOp::kInsert};
  {
    DurableDynamicIndex store(g, StoreOptions(dir),
                              [&] { return BuildSealed(g); });
    store.ApplyUpdates(updates);
    while (store.dynamic().HasEdge(valid.src, valid.label, valid.dst)) {
      ++valid.dst;
    }
    const std::vector<std::vector<EdgeUpdate>> invalid_batches = {
        {valid, {g.num_vertices() + 998, 0, 1, EdgeOp::kInsert}},
        {valid, {1, g.num_labels(), 2, EdgeOp::kInsert}},
    };
    for (const auto& batch : invalid_batches) {
      EXPECT_THROW(store.ApplyUpdates(batch), std::invalid_argument);
      EXPECT_EQ(store.last_lsn(), 1u);
      EXPECT_FALSE(store.dynamic().HasEdge(valid.src, valid.label, valid.dst));
    }
  }
  DurableDynamicIndex store(g, StoreOptions(dir),
                            [&] { return BuildSealed(g); });
  EXPECT_EQ(store.last_lsn(), 1u);
  EXPECT_FALSE(store.dynamic().HasEdge(valid.src, valid.label, valid.dst));
  ExpectStateIsPrefix(store, g, updates, updates.size());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Injected errors (ENOSPC, short writes) must fail the operation cleanly
// and leave the store usable and recoverable — no acknowledged state lost.

TEST(DurableIndexTest, InjectedErrorAtEveryPersistFailpointIsRecoverable) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 6, 0x77);
  for (const StoreKind kind : kBothStores) {
    for (const char* name : failpoints::kPersistPath) {
      SCOPED_TRACE(std::string(KindName(kind)) + " " + name);
      const std::string dir = TempDir("err");
      size_t acked = 0;
      {
        AnyStore store(kind, g, dir);
        Failpoints::Instance().Set(name, FailpointAction::kError);
        bool failed = false;
        for (const EdgeUpdate& u : updates) {
          try {
            store.ApplyUpdates(std::span(&u, 1));
            ++acked;
          } catch (const std::runtime_error&) {
            failed = true;
            break;  // batch not acknowledged; stop so the prefix stays exact
          }
        }
        try {
          store.Checkpoint();
        } catch (const std::runtime_error&) {
          failed = true;
        }
        EXPECT_TRUE(failed) << "failpoint " << name << " never fired";
        Failpoints::Instance().Clear();
        // The store must still work: acknowledged state intact, a clean
        // checkpoint possible.
        store.ExpectIsPrefix(g, updates, acked, false);
        store.Checkpoint();
      }
      AnyStore store(kind, g, dir);
      EXPECT_EQ(store.last_lsn(), acked);
      store.ExpectIsPrefix(g, updates, acked, false);
      fs::remove_all(dir);
    }
  }
}

TEST(DurableIndexTest, ShortWriteTearsAreAbsorbed) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 5, 0x88);
  for (uint64_t trigger = 1; trigger <= 4; ++trigger) {
    SCOPED_TRACE(trigger);
    const std::string dir = TempDir("short");
    size_t acked = 0;
    {
      DurableDynamicIndex store(g, StoreOptions(dir),
                                [&] { return BuildSealed(g); });
      Failpoints::Instance().Set("io", FailpointAction::kShortWrite, trigger);
      for (const EdgeUpdate& u : updates) {
        try {
          store.ApplyUpdates(std::span(&u, 1));
          ++acked;
        } catch (const std::runtime_error&) {
          break;
        }
      }
      try {
        store.Checkpoint();
      } catch (const std::runtime_error&) {
      }
      Failpoints::Instance().Clear();
    }
    DurableDynamicIndex store(g, StoreOptions(dir),
                              [&] { return BuildSealed(g); });
    EXPECT_GE(store.last_lsn(), acked);
    ExpectStateIsPrefix(store, g, updates, store.last_lsn(), false);
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// The tentpole: kill the process at every persist-path failpoint.

struct ChildReport {
  uint64_t acked = 0;    ///< batches whose ApplyUpdates returned
  uint64_t sending = 0;  ///< batches handed to ApplyUpdates
};

/// Forks a child that runs `body(pipe_write_fd)` and must die at an armed
/// crash failpoint; returns the last ChildReport it piped out.
template <typename Body>
ChildReport RunCrashChild(const char* failpoint, Body body) {
  int pipefd[2];
  EXPECT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipefd[0]);
    int status = 1;  // finishing without crashing is a test failure
    try {
      body(pipefd[1]);
      status = 1;
    } catch (...) {
      status = 2;  // an exception is not a crash either
    }
    _exit(status);
  }
  ::close(pipefd[1]);
  ChildReport last, r;
  while (::read(pipefd[0], &r, sizeof r) == static_cast<ssize_t>(sizeof r)) {
    last = r;
  }
  ::close(pipefd[0]);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), kFailpointCrashStatus)
      << "child was not killed by failpoint " << failpoint
      << " (exit status " << WEXITSTATUS(wstatus)
      << "; 1 = workload finished, 2 = threw instead of crashing)";
  return last;
}

void SendReport(int fd, uint64_t acked, uint64_t sending) {
  const ChildReport r{acked, sending};
  (void)!::write(fd, &r, sizeof r);
}

TEST(CrashRecoveryTest, KillAtEveryPersistFailpoint) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 10, 0x99);
  for (const char* name : failpoints::kPersistPath) {
    SCOPED_TRACE(name);
    const std::string dir = TempDir("kill");
    const ChildReport last = RunCrashChild(name, [&](int fd) {
      DurableDynamicIndex store(g, StoreOptions(dir),
                                [&] { return BuildSealed(g); });
      // Arm after the constructor: its own checkpoint would consume the
      // one-shot trigger before any update is in flight.
      Failpoints::Instance().Set(name, FailpointAction::kCrash);
      for (size_t i = 0; i < updates.size(); ++i) {
        SendReport(fd, i, i + 1);
        store.ApplyUpdates(std::span(&updates[i], 1));
        SendReport(fd, i + 1, i + 1);
        // A mid-stream checkpoint reaches the snapshot/manifest sites.
        if (i == 4) store.Checkpoint();
      }
      store.Checkpoint();
    });
    if (::testing::Test::HasFailure()) {
      fs::remove_all(dir);
      return;
    }
    // Recover. The child's constructor completed, so a durable generation
    // exists: build_base must never run.
    bool built = false;
    DurableDynamicIndex store(g, StoreOptions(dir), [&] {
      built = true;
      return BuildSealed(g);
    });
    EXPECT_FALSE(built);
    EXPECT_TRUE(store.recovery_info().recovered);
    const uint64_t n = store.last_lsn();
    // No acknowledged batch lost; no unattempted batch visible. (The batch
    // in flight at the crash may legitimately land either way: a WAL record
    // can be durable before its acknowledgement.)
    EXPECT_GE(n, last.acked) << "acknowledged update lost";
    EXPECT_LE(n, last.sending) << "unacknowledged future visible";
    ExpectStateIsPrefix(store, g, updates, n);
    fs::remove_all(dir);
  }
}

TEST(CrashRecoveryTest, DeepKillAtEveryFailpointRepeatedTriggers) {
  // Crash on the Nth hit of each site, pushing the crash instant deeper
  // into the workload (later WAL appends, the second checkpoint's saves).
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 10, 0xAB);
  for (const char* name : failpoints::kPersistPath) {
    for (const uint64_t trigger : {2u, 3u}) {
      SCOPED_TRACE(std::string(name) + "@" + std::to_string(trigger));
      const std::string dir = TempDir("deepkill");
      const ChildReport last = RunCrashChild(name, [&](int fd) {
        DurableDynamicIndex store(g, StoreOptions(dir),
                                  [&] { return BuildSealed(g); });
        Failpoints::Instance().Set(name, FailpointAction::kCrash, trigger);
        for (size_t i = 0; i < updates.size(); ++i) {
          SendReport(fd, i, i + 1);
          store.ApplyUpdates(std::span(&updates[i], 1));
          SendReport(fd, i + 1, i + 1);
          if (i == 3 || i == 7) store.Checkpoint();
        }
        store.Checkpoint();
      });
      if (::testing::Test::HasFailure()) {
        fs::remove_all(dir);
        return;
      }
      DurableDynamicIndex store(g, StoreOptions(dir),
                                [&] { return BuildSealed(g); });
      const uint64_t n = store.last_lsn();
      EXPECT_GE(n, last.acked);
      EXPECT_LE(n, last.sending);
      ExpectStateIsPrefix(store, g, updates, n);
      fs::remove_all(dir);
    }
  }
}

TEST(CrashRecoveryTest, EveryPersistFailpointIsActuallyOnThePath) {
  // The fork harness iterates failpoints::kPersistPath; this guards the
  // other direction — a site that is registered but never evaluated by a
  // full mutate+checkpoint cycle means the list and the code drifted apart.
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 3, 0xBC);
  const std::string dir = TempDir("coverage");
  Failpoints& fp = Failpoints::Instance();
  std::vector<uint64_t> before;
  for (const char* name : failpoints::kPersistPath) {
    before.push_back(fp.HitCount(name));
  }
  {
    DurableDynamicIndex store(g, StoreOptions(dir),
                              [&] { return BuildSealed(g); });
    for (const EdgeUpdate& u : updates) store.ApplyUpdates(std::span(&u, 1));
    store.Checkpoint();
  }
  for (size_t i = 0; i < std::size(failpoints::kPersistPath); ++i) {
    EXPECT_GT(fp.HitCount(failpoints::kPersistPath[i]), before[i])
        << "failpoint " << failpoints::kPersistPath[i]
        << " was never evaluated by a mutate+checkpoint cycle";
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Byte-flip fuzz over whole store directories: recovery either lands on a
// clean workload prefix or throws — never UB, never a wrong answer.

void RunStoreByteFlipFuzz(StoreKind kind, int trials, uint64_t seed,
                          bool probe_queries) {
  const DiGraph g = TestGraph();
  const auto updates = MakeWorkload(g, 8, 0xCD);
  const std::string golden = TempDir("flip_golden");
  {
    AnyStore store(kind, g, golden);
    for (size_t i = 0; i < updates.size(); ++i) {
      store.ApplyUpdates(std::span(&updates[i], 1));
      if (i == 4) store.Checkpoint();
    }
  }
  // Every file of the store, generation directories included.
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(golden)) {
    if (entry.is_regular_file() && entry.file_size() > 0) {
      files.push_back(fs::relative(entry.path(), golden).string());
    }
  }
  ASSERT_FALSE(files.empty());

  Rng rng(seed);
  int recovered = 0, rejected = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string dir = TempDir("flip");
    fs::remove(dir);
    fs::copy(golden, dir, fs::copy_options::recursive);
    const std::string& victim = files[rng.Below(files.size())];
    const uint64_t size = fs::file_size(dir + "/" + victim);
    const size_t offset = rng.Below(size);
    const auto mask = static_cast<uint8_t>(1u << rng.Below(8));
    SCOPED_TRACE(victim + " offset " + std::to_string(offset) + " mask " +
                 std::to_string(mask));
    try {
      AnyStore store(kind, g, dir);
      const uint64_t n = store.last_lsn();
      ASSERT_LE(n, updates.size());
      store.ExpectIsPrefix(g, updates, n, probe_queries);
      ++recovered;
    } catch (const std::exception&) {
      ++rejected;  // clean refusal is a valid outcome
    }
    fs::remove_all(dir);
  }
  // With keep_generations=2 most flips must still recover (only flipping
  // both snapshots at once could make the store unrecoverable, and one
  // trial flips one byte).
  EXPECT_GT(recovered, 0);
  fs::remove_all(golden);
}

TEST(CrashRecoveryTest, ByteFlipStoreFuzz) {
  RunStoreByteFlipFuzz(StoreKind::kCore, 25, 0xF00D, true);
}

TEST(CrashRecoveryTest, DeepByteFlipStoreFuzz) {
  RunStoreByteFlipFuzz(StoreKind::kCore, 150, 0xBEEF, false);
}

TEST(CrashRecoveryTest, ServiceByteFlipStoreFuzz) {
  RunStoreByteFlipFuzz(StoreKind::kService, 20, 0xF00D, true);
}

TEST(CrashRecoveryTest, DeepServiceByteFlipStoreFuzz) {
  RunStoreByteFlipFuzz(StoreKind::kService, 100, 0xBEEF, true);
}

// ---------------------------------------------------------------------------
// Service durability: per-shard snapshots, one service WAL, parallel
// recovery — same guarantees, proved the same two ways.

TEST(ServiceDurabilityTest, ReopenRecoversService) {
  const DiGraph g = TestGraph(60, 240, 3, 0x5EED);
  const auto updates = MakeWorkload(g, 12, 0xDE);
  const std::string dir = TempDir("svc");
  {
    ShardedRlcService service(g, DurableServiceOptions(dir));
    EXPECT_TRUE(service.durable());
    EXPECT_FALSE(service.recovery_info().recovered);
    for (size_t i = 0; i < updates.size(); ++i) {
      service.ApplyUpdates(std::span(&updates[i], 1));
      if (i == 5) service.Checkpoint();
    }
    EXPECT_EQ(service.last_lsn(), updates.size());
    ExpectServiceIsPrefix(service, g, updates, updates.size());
  }
  ShardedRlcService service(g, DurableServiceOptions(dir));
  EXPECT_TRUE(service.recovery_info().recovered);
  EXPECT_EQ(service.last_lsn(), updates.size());
  // Recovery must not have rebuilt shard indexes from scratch: the
  // partition/build split is visible through stats (index_build covers
  // recovery here, so just verify answers). Cross-shard probes inside
  // ExpectServiceIsPrefix exercise the recovered composition engine, which
  // starts cold and builds its transition rows on demand.
  ExpectServiceIsPrefix(service, g, updates, updates.size());
  fs::remove_all(dir);
}

// Composition reads a shard's base edges through
// DynamicRlcIndex::base_graph(); recovery and revival must keep that the
// partition's own subgraph.
void ExpectShardsReadPartitionSubgraphs(const ShardedRlcService& service) {
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    EXPECT_EQ(&service.shard_dynamic(s).base_graph(),
              &service.partition().shard(s).graph)
        << "shard " << s;
  }
}

TEST(ServiceDurabilityTest, RecoveredShardsAliasPartitionSubgraphs) {
  const DiGraph g = TestGraph(60, 240, 3, 0xA11A5);
  const auto updates = MakeWorkload(g, 12, 0xA1);
  const std::string dir = TempDir("alias");
  {
    ShardedRlcService service(g, DurableServiceOptions(dir));
    ExpectShardsReadPartitionSubgraphs(service);
    service.ApplyUpdates(updates);
    service.Checkpoint();
  }
  ShardedRlcService service(g, DurableServiceOptions(dir));
  ASSERT_TRUE(service.recovery_info().recovered);
  ExpectShardsReadPartitionSubgraphs(service);
  for (uint32_t s = 0; s < service.partition().num_shards(); ++s) {
    service.ReviveShard(s);  // durable path: snapshot + WAL tail
  }
  ExpectShardsReadPartitionSubgraphs(service);
  ExpectServiceIsPrefix(service, g, updates, updates.size());
  fs::remove_all(dir);
}

TEST(ServiceDurabilityTest, KillAtPersistFailpoints) {
  const DiGraph g = TestGraph(60, 240, 3, 0x5EED);
  const auto updates = MakeWorkload(g, 8, 0xEF);
  // Both stores run one generation protocol (DurableStore, durable_index.h),
  // which the exhaustive loop above kills at every site through the core
  // store. The service's own parts are its state: a service WAL record, the
  // gen-<G>/ snapshot writes and loads. One site per file kind proves them
  // end to end here; DeepKillAtEveryPersistFailpoint below covers the rest.
  for (const char* name :
       {failpoints::kWalAppendBeforeWrite, failpoints::kWalAppendAfterSync,
        failpoints::kIndexSaveBeforeRename,
        failpoints::kManifestCommitBeforeRename,
        failpoints::kCheckpointAfterCommit}) {
    SCOPED_TRACE(name);
    const std::string dir = TempDir("svckill");
    const ChildReport last = RunCrashChild(name, [&](int fd) {
      ShardedRlcService service(
          g, DurableServiceOptions(dir));
      Failpoints::Instance().Set(name, FailpointAction::kCrash);
      for (size_t i = 0; i < updates.size(); ++i) {
        SendReport(fd, i, i + 1);
        service.ApplyUpdates(std::span(&updates[i], 1));
        SendReport(fd, i + 1, i + 1);
        if (i == 3) service.Checkpoint();
      }
      service.Checkpoint();
    });
    if (::testing::Test::HasFailure()) {
      fs::remove_all(dir);
      return;
    }
    ShardedRlcService service(
        g, DurableServiceOptions(dir));
    EXPECT_TRUE(service.recovery_info().recovered);
    const uint64_t n = service.last_lsn();
    EXPECT_GE(n, last.acked) << "acknowledged update lost";
    EXPECT_LE(n, last.sending) << "unacknowledged future visible";
    ExpectServiceIsPrefix(service, g, updates, n);
    fs::remove_all(dir);
  }
}

TEST(ServiceDurabilityTest, DeepKillAtEveryPersistFailpoint) {
  const DiGraph g = TestGraph(60, 240, 3, 0x5EED);
  const auto updates = MakeWorkload(g, 8, 0xEF);
  for (const char* name : failpoints::kPersistPath) {
    SCOPED_TRACE(name);
    const std::string dir = TempDir("svcdeep");
    const ChildReport last = RunCrashChild(name, [&](int fd) {
      ShardedRlcService service(
          g, DurableServiceOptions(dir));
      Failpoints::Instance().Set(name, FailpointAction::kCrash);
      for (size_t i = 0; i < updates.size(); ++i) {
        SendReport(fd, i, i + 1);
        service.ApplyUpdates(std::span(&updates[i], 1));
        SendReport(fd, i + 1, i + 1);
        if (i == 3) service.Checkpoint();
      }
      service.Checkpoint();
    });
    if (::testing::Test::HasFailure()) {
      fs::remove_all(dir);
      return;
    }
    ShardedRlcService service(
        g, DurableServiceOptions(dir));
    const uint64_t n = service.last_lsn();
    EXPECT_GE(n, last.acked);
    EXPECT_LE(n, last.sending);
    ExpectServiceIsPrefix(service, g, updates, n);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace rlc

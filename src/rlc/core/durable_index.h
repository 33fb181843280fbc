// Crash-safe durability for dynamically maintained RLC indexes.
//
// DurableStore runs the snapshot-generation protocol over one directory,
// for both durable stores: DurableDynamicIndex below, and ShardedRlcService
// with ServiceOptions::durability set (sharded_service.h). The two differ
// only in what a generation holds:
//
//   <dir>/MANIFEST            retained generations, newest first (index_io.h)
//   <dir>/wal-<G>.log         mutation batches acknowledged after generation G
//   <dir>/snapshot-<G>.snap   DurableDynamicIndex: state as of generation G
//   <dir>/gen-<G>/            ShardedRlcService: service.snap + shard-<i>.snap
//
// Every ApplyUpdates batch is validated (ValidateUpdates, dynamic_index.h),
// then appended (write + fsync) to the current WAL *before* it touches the
// in-memory state, so an acknowledged batch — one whose ApplyUpdates
// returned — survives any crash, and an invalid batch is neither logged nor
// applied. A checkpoint writes the full state of generation G+1 through
// atomic tmp+rename files, switches the WAL to wal-<G+1>.log, then commits
// the manifest (another atomic rename): the manifest commit is the single
// instant the new generation becomes the recovery target. Generations
// beyond DurabilityOptions::keep_generations are deleted only after the
// commit that drops them.
//
// Recovery walks the manifest newest-first (a corrupt manifest degrades to
// a directory scan), loads the first generation that parses and checksums
// cleanly (a torn or byte-flipped newest generation degrades to the
// previous one), then replays every wal-<G'>.log with G' >= the chosen
// generation in ascending order. Replay is LSN-gated — records with lsn <=
// the snapshot's applied_lsn are skipped — so batches already folded into
// the snapshot are never applied twice, and batches acknowledged into a
// newer (unusable) generation's WAL are still found. Torn trailing WAL
// records fail their checksum and are dropped (wal.h); because the WAL is
// fsynced before acknowledgement, dropped bytes can only belong to a batch
// whose ApplyUpdates never returned. Every open — fresh build or recovery —
// ends with a checkpoint, so the store is always at a clean generation
// boundary afterwards, and then sweeps files the manifest does not list.
//
// Snapshot file format, little-endian (shared by snapshot-<G>.snap and the
// per-shard and service files of gen-<G>/):
//
//   u64 magic  u32 version  u64 applied_lsn
//   u64 inserted count, count * (u32 src, u32 label, u32 dst, u8 op)
//   u64 removed  count, count * (u32 src, u32 label, u32 dst, u8 op)
//   u64 checksum (FNV-1a over everything after the magic)
//   u8  has_index  [u64 index length, u64 index checksum, index bytes when 1]
//
// The overlay lists are DynamicRlcIndex::inserted_edges()/removed_edges();
// the embedded index already covers them, so loading is RestoreOverlay —
// no maintenance re-run. The index bytes get their own full checksum here
// (the index format only checksums its signature section): any single
// flipped byte in a snapshot is detected, never served.
//
// Thread contract: same as DynamicRlcIndex — one owner thread mutates.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rlc/core/dynamic_index.h"
#include "rlc/core/index_io.h"
#include "rlc/core/wal.h"

namespace rlc {

struct DurabilityOptions {
  /// Root of the durability directory (created when missing). Must be set.
  std::string dir;
  /// Auto-checkpoint once the current generation's WAL reaches this many
  /// bytes; 0 disables the trigger (Checkpoint() still works).
  uint64_t checkpoint_wal_bytes = 4ull << 20;
  /// Snapshot generations to retain (>= 1). Two generations mean a corrupt
  /// newest snapshot still recovers from the previous one.
  uint32_t keep_generations = 2;
};

/// What the constructor found on disk.
struct RecoveryInfo {
  bool recovered = false;        ///< false: fresh store, index built anew
  uint64_t generation = 0;       ///< snapshot generation loaded
  uint64_t snapshot_lsn = 0;     ///< applied_lsn of that snapshot
  uint64_t replayed_records = 0; ///< WAL batches applied on top
  uint64_t dropped_wal_bytes = 0;///< torn/corrupt WAL tail bytes discarded
  bool fell_back = false;        ///< newest generation was unusable
  std::string fallback_reason;   ///< why, when fell_back
};

/// One parsed snapshot file.
struct LoadedSnapshot {
  uint64_t applied_lsn = 0;
  std::vector<EdgeUpdate> inserted;
  std::vector<EdgeUpdate> removed;
  std::optional<RlcIndex> index;  ///< present when the file embeds one
};

/// Atomically writes a snapshot file (failpoint site "index_io.save").
/// `index` may be null for overlay-only snapshots (the service meta file).
/// \throws std::runtime_error on I/O failure or an injected fault.
void WriteSnapshotFile(const std::string& path, uint64_t applied_lsn,
                       std::span<const EdgeUpdate> inserted,
                       std::span<const EdgeUpdate> removed,
                       const RlcIndex* index);

/// Parses a snapshot file. \throws std::runtime_error naming the file on
/// any corruption (bad magic/version, truncation, checksum mismatch, or an
/// embedded index that fails its own validation) — never UB.
LoadedSnapshot LoadSnapshotFile(const std::string& path);

/// Writes `dyn`'s state as a snapshot file with an embedded index.
void WriteDynamicSnapshot(const std::string& path, uint64_t applied_lsn,
                          const DynamicRlcIndex& dyn);

/// Loads a snapshot file that embeds an index into a DynamicRlcIndex over
/// `g` (RestoreOverlay, no maintenance) and returns it with the file's
/// applied_lsn. \throws std::runtime_error like LoadSnapshotFile, or when
/// the file embeds no index.
std::pair<std::unique_ptr<DynamicRlcIndex>, uint64_t> LoadDynamicSnapshot(
    const std::string& path, const DiGraph& g, const ResealPolicy& policy);

/// Snapshot/WAL file names for generation `gen` inside a durability dir.
std::string SnapshotPath(const std::string& dir, uint64_t gen);
std::string WalPath(const std::string& dir, uint64_t gen);

/// Generation numbers of the `<prefix><G><suffix>` entries in `dir`,
/// ascending. Non-matching names are skipped; a missing directory is empty.
std::vector<uint64_t> ListGenerationFiles(const std::string& dir,
                                          const std::string& prefix,
                                          const std::string& suffix);

/// The snapshot-generation protocol (see the file comment). It owns the
/// WAL writer, the manifest, the LSN and generation counters and the
/// RecoveryInfo; the owning store supplies what a generation holds through
/// callbacks. A generation's state lives at `<dir>/<prefix><G><suffix>`, a
/// file or a directory.
class DurableStore {
 public:
  /// Creates `opts.dir` when missing. `owner` prefixes error messages.
  /// \throws std::runtime_error when the directory cannot be created.
  DurableStore(DurabilityOptions opts, std::string gen_prefix,
               std::string gen_suffix, std::string owner);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Where generation `gen`'s state lives.
  std::string GenerationPath(uint64_t gen) const;

  /// The recovery walk. Tries the manifest's generations newest first (a
  /// directory scan when the manifest is corrupt): `load(path)` adopts one
  /// generation's state and returns its applied_lsn, or throws; `reset()`
  /// (when set) undoes a failed attempt before the next. Returns false when
  /// the directory holds no generation (a fresh store).
  /// \throws std::runtime_error when generations exist but none loads —
  ///         rebuilding over them would silently discard acknowledged data.
  bool Recover(const std::function<uint64_t(const std::string&)>& load,
               const std::function<void()>& reset = {});

  /// After a successful Recover: passes every WAL batch past last_lsn()
  /// to `apply` (ReplayWal from the recovered generation), advancing
  /// last_lsn() and the replay counters of recovery_info().
  void ReplayTail(
      const std::function<void(std::span<const EdgeUpdate>)>& apply);

  /// LSN-gated WAL read: calls `apply` on every record of wal-<G'>, G' >=
  /// `from_gen`, in ascending order, whose lsn is above `after_lsn` and
  /// every lsn applied before it, and at most `upto_lsn`. Returns the
  /// torn/corrupt tail bytes the reader dropped.
  uint64_t ReplayWal(uint64_t from_gen, uint64_t after_lsn, uint64_t upto_lsn,
                     const std::function<void(const WalRecord&)>& apply) const;

  /// Appends (write + fsync) an already-validated batch as lsn
  /// last_lsn() + 1. \throws std::runtime_error when the append fails; the
  /// batch is then not logged and last_lsn() is unchanged.
  void Log(std::span<const EdgeUpdate> updates);

  /// True once the current WAL reached DurabilityOptions::checkpoint_wal_bytes.
  bool CheckpointDue() const {
    return opts_.checkpoint_wal_bytes > 0 &&
           wal_.bytes_appended() >= opts_.checkpoint_wal_bytes;
  }

  /// Writes generation current+1: `write_state(path, last_lsn())` persists
  /// the caller's state at its GenerationPath, then the WAL switches (back
  /// again on failure), the manifest commits, and generations past
  /// keep_generations are deleted. \throws std::runtime_error on I/O
  /// failure or an injected fault; the previous generation then remains the
  /// recovery target.
  void Checkpoint(
      const std::function<void(const std::string&, uint64_t)>& write_state);

  /// Deletes generation states and WAL files the committed manifest does
  /// not list: leftovers of interrupted checkpoints and cleanups.
  void SweepUnlisted();

  uint64_t last_lsn() const { return last_lsn_; }
  uint64_t generation() const { return generation_; }
  uint64_t wal_bytes() const { return wal_.bytes_appended(); }
  const RecoveryInfo& recovery_info() const { return recovery_; }
  const DurabilityOptions& options() const { return opts_; }

 private:
  DurabilityOptions opts_;
  std::string gen_prefix_;
  std::string gen_suffix_;
  std::string owner_;
  WalWriter wal_;
  DurabilityManifest manifest_;
  uint64_t last_lsn_ = 0;
  uint64_t generation_ = 0;    ///< newest committed generation (0 = none yet)
  uint64_t max_gen_seen_ = 0;  ///< highest generation ever on disk
  RecoveryInfo recovery_;
};

/// A DynamicRlcIndex whose acknowledged mutations survive crashes.
class DurableDynamicIndex {
 public:
  /// Opens the store in `opts.dir`. When the directory holds a durable
  /// state, recovers it (newest usable generation + WAL replay) and
  /// `build_base` is never called; otherwise builds the index with
  /// `build_base` (must return a sealed index of exactly `g`). Either way
  /// the constructor finishes with a checkpoint.
  /// \throws std::runtime_error when the directory cannot be used, or when
  ///         a manifest lists generations but none of them is loadable
  ///         (durable state exists but is beyond recovery — refusing is
  ///         better than silently rebuilding an empty store over it).
  DurableDynamicIndex(const DiGraph& g, DurabilityOptions opts,
                      const std::function<RlcIndex()>& build_base,
                      ResealPolicy policy = {});
  ~DurableDynamicIndex();

  DurableDynamicIndex(const DurableDynamicIndex&) = delete;
  DurableDynamicIndex& operator=(const DurableDynamicIndex&) = delete;

  /// Validates the batch, logs it (write + fsync), applies it, and may
  /// auto-checkpoint. On return the batch is durable.
  /// \throws std::invalid_argument on out-of-range vertices or labels
  ///         outside the base graph's alphabet, std::runtime_error when the
  ///         WAL append fails — either way nothing is logged or applied and
  ///         the batch is NOT acknowledged.
  size_t ApplyUpdates(std::span<const EdgeUpdate> updates);

  /// Writes generation current+1: snapshot, WAL switch, manifest commit,
  /// old-generation cleanup. \throws std::runtime_error on I/O failure or
  /// an injected fault; the previous generation then remains the recovery
  /// target and the store stays usable.
  void Checkpoint();

  DynamicRlcIndex& dynamic() { return *dyn_; }
  const DynamicRlcIndex& dynamic() const { return *dyn_; }
  const RlcIndex& index() const { return dyn_->index(); }
  bool Query(VertexId s, VertexId t, const LabelSeq& constraint) const {
    return dyn_->Query(s, t, constraint);
  }

  /// LSN of the last acknowledged batch (0 before any).
  uint64_t last_lsn() const { return store_.last_lsn(); }
  /// Current (newest committed) snapshot generation.
  uint64_t generation() const { return store_.generation(); }
  /// Bytes appended to the current generation's WAL.
  uint64_t wal_bytes() const { return store_.wal_bytes(); }

  const RecoveryInfo& recovery_info() const { return store_.recovery_info(); }
  const DurabilityOptions& options() const { return store_.options(); }

 private:
  const DiGraph& g_;
  DurableStore store_;
  std::unique_ptr<DynamicRlcIndex> dyn_;
};

}  // namespace rlc

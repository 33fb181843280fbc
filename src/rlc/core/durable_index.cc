#include "rlc/core/durable_index.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "rlc/obs/trace.h"
#include "rlc/util/failpoint.h"

namespace fs = std::filesystem;

namespace rlc {

namespace {

constexpr uint64_t kSnapshotMagic = 0x524C43534E4150ULL;  // "RLCSNAP"
constexpr uint32_t kSnapshotVersion = 1;
constexpr size_t kUpdateBytes = 13;  // u32 src, u32 label, u32 dst, u8 op

constexpr uint64_t kFnvSeed = 0xCBF29CE484222325ULL;
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h;
}

template <typename T>
void Put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutUpdates(std::string& out, std::span<const EdgeUpdate> updates) {
  Put<uint64_t>(out, updates.size());
  for (const EdgeUpdate& e : updates) {
    Put<uint32_t>(out, e.src);
    Put<uint32_t>(out, e.label);
    Put<uint32_t>(out, e.dst);
    out.push_back(static_cast<char>(e.op));
  }
}

/// Checksummed sequential reader over a snapshot file: every byte read
/// through it feeds `body`, the region the trailing checksum covers.
class SnapReader {
 public:
  SnapReader(std::ifstream& in, const std::string& path)
      : in_(in), path_(path) {}

  template <typename T>
  T Get(bool checksummed = true) {
    char buf[sizeof(T)];
    ReadRaw(buf, sizeof(T), checksummed);
    T v;
    std::memcpy(&v, buf, sizeof(T));
    return v;
  }

  void ReadRaw(char* dst, size_t n, bool checksummed = true) {
    in_.read(dst, static_cast<std::streamsize>(n));
    if (!in_) Fail("truncated file");
    if (checksummed) body_.append(dst, n);
  }

  uint64_t Remaining() {
    const std::istream::pos_type pos = in_.tellg();
    if (pos == std::istream::pos_type(-1)) return UINT64_MAX;
    in_.seekg(0, std::ios::end);
    const std::istream::pos_type end = in_.tellg();
    in_.seekg(pos);
    if (end == std::istream::pos_type(-1) || end < pos) return UINT64_MAX;
    return static_cast<uint64_t>(end - pos);
  }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("LoadSnapshotFile(" + path_ + "): " + what);
  }

  uint64_t BodyChecksum() const {
    return Fnv1a(kFnvSeed, body_.data(), body_.size());
  }

 private:
  std::ifstream& in_;
  const std::string& path_;
  std::string body_;
};

std::vector<EdgeUpdate> GetUpdates(SnapReader& r, const char* what) {
  const uint64_t count = r.Get<uint64_t>();
  if (count > r.Remaining() / kUpdateBytes) {
    r.Fail(std::string(what) + " count " + std::to_string(count) +
           " exceeds the bytes left in the file");
  }
  std::vector<EdgeUpdate> updates(count);
  for (EdgeUpdate& e : updates) {
    char buf[kUpdateBytes];
    r.ReadRaw(buf, kUpdateBytes);
    std::memcpy(&e.src, buf, 4);
    std::memcpy(&e.label, buf + 4, 4);
    std::memcpy(&e.dst, buf + 8, 4);
    const auto op = static_cast<unsigned char>(buf[12]);
    if (op > static_cast<unsigned char>(EdgeOp::kDelete)) {
      r.Fail(std::string("bad op byte in ") + what + " list");
    }
    e.op = static_cast<EdgeOp>(op);
  }
  return updates;
}

bool Lists(const DurabilityManifest& m, uint64_t gen) {
  return std::any_of(
      m.generations.begin(), m.generations.end(),
      [&](const SnapshotGeneration& g) { return g.generation == gen; });
}

}  // namespace

std::vector<uint64_t> ListGenerationFiles(const std::string& dir,
                                          const std::string& prefix,
                                          const std::string& suffix) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    char* end = nullptr;
    const uint64_t gen = std::strtoull(digits.c_str(), &end, 10);
    if (digits.empty() || *end != '\0' || gen == 0) continue;
    gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::string SnapshotPath(const std::string& dir, uint64_t gen) {
  return dir + "/snapshot-" + std::to_string(gen) + ".snap";
}

std::string WalPath(const std::string& dir, uint64_t gen) {
  return dir + "/wal-" + std::to_string(gen) + ".log";
}

void WriteSnapshotFile(const std::string& path, uint64_t applied_lsn,
                       std::span<const EdgeUpdate> inserted,
                       std::span<const EdgeUpdate> removed,
                       const RlcIndex* index) {
  static obs::Histogram& write_ns =
      obs::Registry::Global().GetHistogram("snap.write_ns");
  obs::ScopedSpan span(write_ns, "snap.write");
  std::string body;
  Put<uint32_t>(body, kSnapshotVersion);
  Put<uint64_t>(body, applied_lsn);
  PutUpdates(body, inserted);
  PutUpdates(body, removed);

  std::string file;
  file.reserve(body.size() + 32);
  Put<uint64_t>(file, kSnapshotMagic);
  file += body;
  Put<uint64_t>(file, Fnv1a(kFnvSeed, body.data(), body.size()));
  file.push_back(index ? 1 : 0);
  if (index) {
    std::ostringstream os(std::ios::binary);
    WriteIndex(*index, os);
    const std::string index_bytes = std::move(os).str();
    // The index format only checksums its signature section; cover every
    // index byte here so a flipped CSR entry is detected, not served.
    Put<uint64_t>(file, index_bytes.size());
    Put<uint64_t>(file, Fnv1a(kFnvSeed, index_bytes.data(), index_bytes.size()));
    file += index_bytes;
  }
  AtomicWriteFile(path, file, "index_io.save");
}

LoadedSnapshot LoadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("LoadSnapshotFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  SnapReader r(in, path);
  if (r.Get<uint64_t>(/*checksummed=*/false) != kSnapshotMagic) {
    r.Fail("bad magic (not an rlc snapshot file)");
  }
  const uint32_t version = r.Get<uint32_t>();
  if (version != kSnapshotVersion) {
    r.Fail("unsupported snapshot version " + std::to_string(version));
  }
  LoadedSnapshot snap;
  snap.applied_lsn = r.Get<uint64_t>();
  snap.inserted = GetUpdates(r, "inserted");
  snap.removed = GetUpdates(r, "removed");
  const uint64_t checksum = r.BodyChecksum();
  if (r.Get<uint64_t>(/*checksummed=*/false) != checksum) {
    r.Fail("overlay checksum mismatch");
  }
  const auto has_index = r.Get<uint8_t>(/*checksummed=*/false);
  if (has_index > 1) r.Fail("bad has_index byte");
  if (has_index == 1) {
    const uint64_t index_len = r.Get<uint64_t>(/*checksummed=*/false);
    const uint64_t want = r.Get<uint64_t>(/*checksummed=*/false);
    if (index_len != r.Remaining()) {
      r.Fail("index length " + std::to_string(index_len) +
             " does not match the bytes left in the file");
    }
    std::string index_bytes(index_len, '\0');
    r.ReadRaw(index_bytes.data(), index_len, /*checksummed=*/false);
    if (Fnv1a(kFnvSeed, index_bytes.data(), index_bytes.size()) != want) {
      r.Fail("embedded index checksum mismatch");
    }
    std::istringstream is(std::move(index_bytes), std::ios::binary);
    snap.index = ReadIndex(is, path);
  }
  return snap;
}

void WriteDynamicSnapshot(const std::string& path, uint64_t applied_lsn,
                          const DynamicRlcIndex& dyn) {
  WriteSnapshotFile(path, applied_lsn, dyn.inserted_edges(),
                    dyn.removed_edges(), &dyn.index());
}

std::pair<std::unique_ptr<DynamicRlcIndex>, uint64_t> LoadDynamicSnapshot(
    const std::string& path, const DiGraph& g, const ResealPolicy& policy) {
  LoadedSnapshot snap = LoadSnapshotFile(path);
  if (!snap.index) throw std::runtime_error(path + " has no embedded index");
  auto dyn = std::make_unique<DynamicRlcIndex>(g, std::move(*snap.index), policy);
  dyn->RestoreOverlay(snap.inserted, snap.removed);
  return {std::move(dyn), snap.applied_lsn};
}

DurableStore::DurableStore(DurabilityOptions opts, std::string gen_prefix,
                           std::string gen_suffix, std::string owner)
    : opts_(std::move(opts)),
      gen_prefix_(std::move(gen_prefix)),
      gen_suffix_(std::move(gen_suffix)),
      owner_(std::move(owner)) {
  RLC_REQUIRE(!opts_.dir.empty(), owner_ << ": opts.dir must be set");
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) {
    throw std::runtime_error(owner_ + ": cannot create " + opts_.dir + ": " +
                             ec.message());
  }
}

std::string DurableStore::GenerationPath(uint64_t gen) const {
  return opts_.dir + "/" + gen_prefix_ + std::to_string(gen) + gen_suffix_;
}

bool DurableStore::Recover(
    const std::function<uint64_t(const std::string&)>& load,
    const std::function<void()>& reset) {
  const std::vector<uint64_t> on_disk =
      ListGenerationFiles(opts_.dir, gen_prefix_, gen_suffix_);
  bool manifest_corrupt = false;
  try {
    manifest_ = ReadManifest(opts_.dir);
  } catch (const std::exception& e) {
    // Degrade to a directory scan: the snapshots carry their own
    // applied_lsn, the manifest is only the generation list.
    manifest_corrupt = true;
    recovery_.fallback_reason = e.what();
    for (auto it = on_disk.rbegin(); it != on_disk.rend(); ++it) {
      manifest_.generations.push_back({*it, 0});
    }
  }
  for (const SnapshotGeneration& g : manifest_.generations) {
    max_gen_seen_ = std::max(max_gen_seen_, g.generation);
  }
  for (const uint64_t gen : on_disk) max_gen_seen_ = std::max(max_gen_seen_, gen);
  for (const uint64_t gen : ListGenerationFiles(opts_.dir, "wal-", ".log")) {
    max_gen_seen_ = std::max(max_gen_seen_, gen);
  }
  if (manifest_.generations.empty()) return false;

  for (size_t i = 0; i < manifest_.generations.size(); ++i) {
    const uint64_t gen = manifest_.generations[i].generation;
    try {
      last_lsn_ = load(GenerationPath(gen));
      recovery_.recovered = true;
      recovery_.generation = gen;
      recovery_.snapshot_lsn = last_lsn_;
      recovery_.fell_back = i > 0 || manifest_corrupt;
      return true;
    } catch (const std::exception& e) {
      recovery_.fell_back = true;
      if (recovery_.fallback_reason.empty()) recovery_.fallback_reason = e.what();
      if (reset) reset();
    }
  }
  throw std::runtime_error(owner_ + ": no usable snapshot generation in " +
                           opts_.dir + " (" + recovery_.fallback_reason + ")");
}

void DurableStore::ReplayTail(
    const std::function<void(std::span<const EdgeUpdate>)>& apply) {
  recovery_.dropped_wal_bytes +=
      ReplayWal(recovery_.generation, last_lsn_, UINT64_MAX,
                [&](const WalRecord& record) {
                  apply(record.updates);
                  last_lsn_ = record.lsn;
                  ++recovery_.replayed_records;
                });
}

uint64_t DurableStore::ReplayWal(
    uint64_t from_gen, uint64_t after_lsn, uint64_t upto_lsn,
    const std::function<void(const WalRecord&)>& apply) const {
  uint64_t dropped = 0;
  for (const uint64_t gen : ListGenerationFiles(opts_.dir, "wal-", ".log")) {
    if (gen < from_gen) continue;
    const WalReadResult res = ReadWalFile(WalPath(opts_.dir, gen));
    dropped += res.dropped_bytes;
    for (const WalRecord& record : res.records) {
      // At or below the gate: already in the state being replayed onto.
      if (record.lsn <= after_lsn || record.lsn > upto_lsn) continue;
      apply(record);
      after_lsn = record.lsn;
    }
  }
  return dropped;
}

void DurableStore::Log(std::span<const EdgeUpdate> updates) {
  wal_.Append(last_lsn_ + 1, updates);
  ++last_lsn_;
}

void DurableStore::Checkpoint(
    const std::function<void(const std::string&, uint64_t)>& write_state) {
  const uint64_t next = std::max(generation_, max_gen_seen_) + 1;
  write_state(GenerationPath(next), last_lsn_);
  // Switch the WAL before the commit: batches acknowledged from here land
  // in wal-<next>. If the commit below never happens, recovery targets the
  // previous generation and still finds them — replay walks every WAL file
  // at or above the recovered generation, LSN-gated.
  const std::string previous_wal = wal_.path();
  try {
    wal_.Open(WalPath(opts_.dir, next));
  } catch (...) {
    if (!previous_wal.empty()) wal_.Open(previous_wal);
    throw;
  }
  DurabilityManifest m;
  m.generations.push_back({next, last_lsn_});
  const uint32_t keep = std::max<uint32_t>(1, opts_.keep_generations);
  for (const SnapshotGeneration& g : manifest_.generations) {
    if (m.generations.size() >= keep) break;
    m.generations.push_back(g);
  }
  CommitManifest(opts_.dir, m);  // the durability point
  FailpointHit(failpoints::kCheckpointAfterCommit);
  std::error_code ec;
  for (const SnapshotGeneration& g : manifest_.generations) {
    if (!Lists(m, g.generation)) {
      fs::remove_all(GenerationPath(g.generation), ec);
      fs::remove(WalPath(opts_.dir, g.generation), ec);
    }
  }
  manifest_ = std::move(m);
  generation_ = next;
  max_gen_seen_ = std::max(max_gen_seen_, next);
}

void DurableStore::SweepUnlisted() {
  std::error_code ec;
  for (const uint64_t gen :
       ListGenerationFiles(opts_.dir, gen_prefix_, gen_suffix_)) {
    if (!Lists(manifest_, gen)) fs::remove_all(GenerationPath(gen), ec);
  }
  for (const uint64_t gen : ListGenerationFiles(opts_.dir, "wal-", ".log")) {
    if (!Lists(manifest_, gen)) fs::remove(WalPath(opts_.dir, gen), ec);
  }
}

DurableDynamicIndex::DurableDynamicIndex(
    const DiGraph& g, DurabilityOptions opts,
    const std::function<RlcIndex()>& build_base, ResealPolicy policy)
    : g_(g),
      store_(std::move(opts), "snapshot-", ".snap", "DurableDynamicIndex") {
  const bool recovered = store_.Recover([&](const std::string& path) {
    auto [dyn, applied_lsn] = LoadDynamicSnapshot(path, g_, policy);
    dyn_ = std::move(dyn);
    return applied_lsn;
  });
  if (recovered) {
    store_.ReplayTail([&](std::span<const EdgeUpdate> updates) {
      dyn_->ApplyUpdates(updates);
    });
  } else {
    dyn_ = std::make_unique<DynamicRlcIndex>(g_, build_base(), policy);
  }
  // End every open at a clean generation boundary: the replayed state gets
  // its own snapshot and a fresh WAL.
  Checkpoint();
  store_.SweepUnlisted();
}

DurableDynamicIndex::~DurableDynamicIndex() = default;

size_t DurableDynamicIndex::ApplyUpdates(std::span<const EdgeUpdate> updates) {
  ValidateUpdates(g_, updates);
  if (updates.empty()) return 0;
  // Log-then-apply: a throw here leaves the in-memory index untouched and
  // the batch unacknowledged (its torn record, if any, fails the checksum).
  store_.Log(updates);
  const size_t applied = dyn_->ApplyUpdates(updates);
  if (store_.CheckpointDue()) Checkpoint();
  return applied;
}

void DurableDynamicIndex::Checkpoint() {
  store_.Checkpoint([&](const std::string& path, uint64_t applied_lsn) {
    WriteDynamicSnapshot(path, applied_lsn, *dyn_);
  });
}

}  // namespace rlc

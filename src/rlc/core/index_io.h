// Binary serialization of RLC indexes.
//
// One little-endian format (version 5):
//   header: u64 magic  u32 version  u32 k  u64 num_vertices
//   access order: num_vertices * u32 (vertex id at access position i)
//   MR table: u32 count, then per MR: u8 length + length * u32 labels
//
// The sealed CSR layout follows as four flat blocks, loaded back with bulk
// reads straight into the query-time representation — no per-entry
// parsing, no per-vertex allocation:
//   out csr: (num_vertices+1) * u64 offsets, then offsets.back() * 8 bytes
//            of entries (IndexEntry, packed)
//   in  csr: same
//
// Then the sealed-time vertex signatures (rlc_index.h), so a load skips the
// signature rebuild pass:
//   out signatures: num_vertices * u64
//   in  signatures: num_vertices * u64
//   u64 checksum (FNV fold over both blocks; a corrupt signature would
//       silently flip answers, so it must fail the load instead)
//
// Then the pending overlays of a dynamically maintained index
// (rlc_index.h / dynamic_index.h), so it persists without forcing a reseal
// first. The delta section and the tombstone section (edge-delete
// maintenance) share one sparse per-side encoding, each with its own
// trailing checksum:
//   out lists: u64 vertex count, then per vertex with pending entries
//              u32 vertex, u32 list length, length * IndexEntry
//   in  lists: same
//   u64 checksum (FNV fold over every value of the section; entries are
//       also range-checked like CSR entries, but an in-range bit flip must
//       still fail the load, not flip answers)
// Every tombstone must reference an existing CSR entry of the loaded
// index; a tombstone that does not fails the load (it could only come from
// corruption — the maintenance layer never creates one). An index without
// pending overlays writes empty sections; the bytes stay a pure function of
// the logical index state, so save -> load -> resave round-trips
// byte-identically.
//
// Intended use: build once offline (the expensive step the paper measures in
// Table IV), persist, then serve queries from a load that is a straight
// sequential read. Loaded indexes are always sealed.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "rlc/core/rlc_index.h"

namespace rlc {

/// The format version WriteIndex emits and ReadIndex accepts.
inline constexpr uint32_t kIndexFormatVersion = 5;

/// Writes `index` to `out`, pending overlays included. The index may be
/// sealed or not; the bytes are identical either way (signatures are
/// computed on the fly for unsealed indexes).
void WriteIndex(const RlcIndex& index, std::ostream& out);

/// Reads an index from `in`. The result is sealed. Hardened against
/// untrusted bytes: any corruption — truncation, bad counts, out-of-range
/// ids, checksum mismatches, a version other than kIndexFormatVersion —
/// produces a clean std::runtime_error naming `source` (the file path, or
/// "<stream>"), the section and the byte offset of the failure; never UB,
/// an abort, or an unbounded allocation.
RlcIndex ReadIndex(std::istream& in);
RlcIndex ReadIndex(std::istream& in, const std::string& source);

/// Saves/loads via a file path. SaveIndex is crash-safe: it writes
/// `path.tmp`, fsyncs, then atomically renames over `path` (and fsyncs the
/// directory), so a crash mid-save leaves the previous file intact — never
/// a torn index.
/// \throws std::runtime_error when the file cannot be opened/written;
///         LoadIndex rethrows every ReadIndex failure with the path named.
void SaveIndex(const RlcIndex& index, const std::string& path);
RlcIndex LoadIndex(const std::string& path);

/// Writes `bytes` to `path` atomically: tmp file + fsync + rename + parent
/// directory fsync. `failpoint_site` prefixes the fault-injection points
/// evaluated along the way (`<site>.before_write`, `.after_write`,
/// `.before_rename`, `.after_rename` — see util/failpoint.h); durability
/// call sites pass "index_io.save" or "manifest.commit".
/// \throws std::runtime_error on I/O failure or an injected fault (the tmp
///         file may be left behind; `path` itself is never torn).
void AtomicWriteFile(const std::string& path, std::string_view bytes,
                     const char* failpoint_site = "index_io.save");

/// One durable snapshot generation of a store (durable_index.h).
struct SnapshotGeneration {
  uint64_t generation = 0;
  uint64_t applied_lsn = 0;  ///< last mutation batch folded into the snapshot

  friend bool operator==(const SnapshotGeneration&,
                         const SnapshotGeneration&) = default;
};

/// The tiny manifest at the root of a durability directory: the snapshot
/// generations currently retained, newest first. The manifest commit (an
/// atomic rename) is the instant a checkpoint becomes the recovery target.
struct DurabilityManifest {
  std::vector<SnapshotGeneration> generations;  ///< newest first

  const SnapshotGeneration* newest() const {
    return generations.empty() ? nullptr : &generations.front();
  }
};

/// Name of the manifest file inside a durability directory.
inline constexpr const char* kManifestFileName = "MANIFEST";

/// Reads `<dir>/MANIFEST`. A missing file returns an empty manifest (a
/// fresh store); a malformed one throws std::runtime_error naming the file
/// — callers degrade to a directory scan (durable_index.h).
DurabilityManifest ReadManifest(const std::string& dir);

/// Atomically commits `<dir>/MANIFEST` (failpoint site "manifest.commit").
/// \throws std::runtime_error on I/O failure or an injected fault.
void CommitManifest(const std::string& dir, const DurabilityManifest& manifest);

}  // namespace rlc

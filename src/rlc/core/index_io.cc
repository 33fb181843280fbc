#include "rlc/core/index_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "rlc/core/label_seq.h"
#include "rlc/obs/trace.h"
#include "rlc/util/failpoint.h"

namespace rlc {

namespace {

constexpr uint64_t kIndexMagic = 0x524C43494458ULL;  // "RLCIDX"

/// Order-sensitive FNV-style fold over the signature words. The signature
/// block is the one section whose corruption AdoptSealed cannot detect
/// (entries are range-checked, offsets monotonicity-checked) yet would
/// silently flip query answers; the checksum turns that into a load error.
/// The overlay sections reuse the fold over their values.
uint64_t SignatureChecksum(uint64_t h, uint64_t word) {
  return (h ^ word) * 0x100000001B3ULL;
}
constexpr uint64_t kSignatureChecksumSeed = 0xCBF29CE484222325ULL;

template <typename T>
void Put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bytes left in `in` from the current position; UINT64_MAX when the stream
/// is not seekable.
uint64_t RemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return UINT64_MAX;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return UINT64_MAX;
  return static_cast<uint64_t>(end - pos);
}

/// Deserialization context: tracks the source name, the section being
/// parsed and the byte offset (relative to where the index blob starts —
/// embedded blobs report offsets within the blob), so every failure names
/// exactly where the bytes went bad.
class Reader {
 public:
  Reader(std::istream& in, const std::string& source)
      : in_(in), source_(source) {}

  void Section(const char* name) { section_ = name; }

  template <typename T>
  T Get() {
    T v{};
    ReadRaw(&v, sizeof(T));
    return v;
  }

  void ReadRaw(void* dst, uint64_t n) {
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!in_) {
      Fail("truncated: wanted " + std::to_string(n) + " more bytes");
    }
    offset_ += n;
  }

  uint64_t Remaining() { return RemainingBytes(in_); }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("ReadIndex(" + source_ + "): " + what +
                             " [section: " + section_ + ", byte offset " +
                             std::to_string(offset_) + "]");
  }

 private:
  std::istream& in_;
  const std::string& source_;
  const char* section_ = "header";
  uint64_t offset_ = 0;
};

/// One CSR side: offsets, then the entry buffer as raw bytes.
void PutCsrSide(std::ostream& out, const RlcIndex& index, bool out_side) {
  const VertexId n = index.num_vertices();
  uint64_t offset = 0;
  for (VertexId v = 0; v < n; ++v) {
    Put<uint64_t>(out, offset);
    offset += (out_side ? index.Lout(v) : index.Lin(v)).size();
  }
  Put<uint64_t>(out, offset);
  for (VertexId v = 0; v < n; ++v) {
    const auto entries = out_side ? index.Lout(v) : index.Lin(v);
    out.write(reinterpret_cast<const char*>(entries.data()),
              static_cast<std::streamsize>(entries.size() * sizeof(IndexEntry)));
  }
}

struct CsrSide {
  std::vector<uint64_t> offsets;
  std::vector<IndexEntry> entries;
};

// Monotonicity and per-list sortedness are validated once, by the throwing
// AdoptSealed call in ReadIndex; here we only check what AdoptSealed cannot
// see (stream truncation, entry id ranges) plus an allocation bound.
CsrSide GetCsrSide(Reader& r, uint64_t n, uint32_t num_mrs,
                 uint64_t num_vertices) {
  CsrSide side;
  side.offsets.resize(n + 1);
  r.ReadRaw(side.offsets.data(), side.offsets.size() * sizeof(uint64_t));
  const uint64_t total = side.offsets.back();
  // A corrupt count must fail cleanly, not OOM: the entry block cannot be
  // larger than what is actually left in the stream.
  if (total > r.Remaining() / sizeof(IndexEntry)) {
    r.Fail("entry count " + std::to_string(total) +
           " exceeds the bytes left in the file");
  }
  side.entries.resize(total);
  r.ReadRaw(side.entries.data(), side.entries.size() * sizeof(IndexEntry));
  for (const IndexEntry& e : side.entries) {
    if (e.mr >= num_mrs || e.hub_aid == 0 || e.hub_aid > num_vertices) {
      r.Fail("entry (hub_aid=" + std::to_string(e.hub_aid) +
             ", mr=" + std::to_string(e.mr) + ") out of range");
    }
  }
  return side;
}

}  // namespace

void WriteIndex(const RlcIndex& index, std::ostream& out) {
  Put(out, kIndexMagic);
  Put<uint32_t>(out, kIndexFormatVersion);
  Put<uint32_t>(out, index.k());
  Put<uint64_t>(out, index.num_vertices());

  for (uint32_t aid = 1; aid <= index.num_vertices(); ++aid) {
    Put<uint32_t>(out, index.VertexOfAid(aid));
  }

  const MrTable& mrs = index.mr_table();
  Put<uint32_t>(out, mrs.size());
  for (MrId id = 0; id < mrs.size(); ++id) {
    const LabelSeq& seq = mrs.Get(id);
    Put<uint8_t>(out, static_cast<uint8_t>(seq.size()));
    for (uint32_t i = 0; i < seq.size(); ++i) Put<uint32_t>(out, seq[i]);
  }

  PutCsrSide(out, index, /*out_side=*/true);
  PutCsrSide(out, index, /*out_side=*/false);
  // OutSignature/InSignature fall back to an on-the-fly computation on
  // unsealed indexes, keeping the bytes layout-independent.
  uint64_t sig_checksum = kSignatureChecksumSeed;
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    const uint64_t sig = index.OutSignature(v);
    sig_checksum = SignatureChecksum(sig_checksum, sig);
    Put<uint64_t>(out, sig);
  }
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    const uint64_t sig = index.InSignature(v);
    sig_checksum = SignatureChecksum(sig_checksum, sig);
    Put<uint64_t>(out, sig);
  }
  Put<uint64_t>(out, sig_checksum);

  // Sparse overlay sections: per side the vertices with pending entries in
  // ascending order. Deterministic, so resaves stay byte-identical. The
  // delta and tombstone sections share this encoding, each with its own
  // trailing checksum.
  auto put_overlay = [&](auto list_of) {
    uint64_t checksum = kSignatureChecksumSeed;
    auto put_side = [&](bool out_side) {
      uint64_t count = 0;
      for (VertexId v = 0; v < index.num_vertices(); ++v) {
        count += list_of(v, out_side).empty() ? 0 : 1;
      }
      Put<uint64_t>(out, count);
      checksum = SignatureChecksum(checksum, count);
      for (VertexId v = 0; v < index.num_vertices(); ++v) {
        const auto entries = list_of(v, out_side);
        if (entries.empty()) continue;
        Put<uint32_t>(out, v);
        Put<uint32_t>(out, static_cast<uint32_t>(entries.size()));
        checksum = SignatureChecksum(checksum, v);
        checksum = SignatureChecksum(checksum, entries.size());
        for (const IndexEntry& e : entries) {
          Put<uint32_t>(out, e.hub_aid);
          Put<uint32_t>(out, e.mr);
          checksum = SignatureChecksum(checksum, e.hub_aid);
          checksum = SignatureChecksum(checksum, e.mr);
        }
      }
    };
    put_side(/*out_side=*/true);
    put_side(/*out_side=*/false);
    Put<uint64_t>(out, checksum);
  };
  put_overlay([&](VertexId v, bool out_side) {
    return out_side ? index.DeltaLout(v) : index.DeltaLin(v);
  });
  put_overlay([&](VertexId v, bool out_side) {
    return out_side ? index.TombLout(v) : index.TombLin(v);
  });
}

RlcIndex ReadIndex(std::istream& in) { return ReadIndex(in, "<stream>"); }

RlcIndex ReadIndex(std::istream& in, const std::string& source) {
  Reader r(in, source);
  r.Section("header");
  if (r.Get<uint64_t>() != kIndexMagic) {
    r.Fail("bad magic (not an rlc index file)");
  }
  const uint32_t version = r.Get<uint32_t>();
  if (version != kIndexFormatVersion) {
    r.Fail("unsupported version " + std::to_string(version) + " (expected " +
           std::to_string(kIndexFormatVersion) + ")");
  }
  const uint32_t k = r.Get<uint32_t>();
  if (k < 1 || k > kMaxK) {
    r.Fail("recursion bound k=" + std::to_string(k) + " out of range (1.." +
           std::to_string(kMaxK) + ")");
  }
  const uint64_t n = r.Get<uint64_t>();
  // Every vertex costs four access-order bytes right after the header; a
  // corrupt count must fail here, not OOM in the index constructor.
  if (n > r.Remaining() / sizeof(uint32_t)) {
    r.Fail("vertex count " + std::to_string(n) +
           " exceeds the bytes left in the file");
  }

  RlcIndex index(static_cast<VertexId>(n), k);

  r.Section("access order");
  std::vector<VertexId> order(n);
  if (n > 0) r.ReadRaw(order.data(), n * sizeof(VertexId));
  // SetAccessOrder range-checks but cannot spot duplicates (they would
  // leave some vertex with access id 0 and skew every aid lookup).
  std::vector<bool> seen(n, false);
  for (const VertexId v : order) {
    if (v >= n || seen[v]) {
      r.Fail("access order is not a permutation (vertex " + std::to_string(v) +
             (v < n ? " appears twice)" : " out of range)"));
    }
    seen[v] = true;
  }
  index.SetAccessOrder(std::move(order));

  r.Section("mr table");
  const uint32_t num_mrs = r.Get<uint32_t>();
  if (num_mrs > r.Remaining()) {  // each MR costs at least its length byte
    r.Fail("mr count " + std::to_string(num_mrs) +
           " exceeds the bytes left in the file");
  }
  for (uint32_t i = 0; i < num_mrs; ++i) {
    const uint8_t len = r.Get<uint8_t>();
    // LabelSeq aborts past kMaxK; untrusted bytes must throw instead.
    if (len > kMaxK) {
      r.Fail("mr length " + std::to_string(len) + " exceeds kMaxK=" +
             std::to_string(kMaxK));
    }
    LabelSeq seq;
    for (uint8_t j = 0; j < len; ++j) seq.PushBack(r.Get<uint32_t>());
    const MrId id = index.mr_table().Intern(seq);
    if (id != i) r.Fail("duplicate MR in table");
  }

  r.Section("out csr");
  CsrSide out_side = GetCsrSide(r, n, num_mrs, n);
  r.Section("in csr");
  CsrSide in_side = GetCsrSide(r, n, num_mrs, n);
  r.Section("signatures");
  std::vector<uint64_t> out_sigs(n);
  std::vector<uint64_t> in_sigs(n);
  uint64_t sig_checksum = kSignatureChecksumSeed;
  for (auto* sigs : {&out_sigs, &in_sigs}) {
    if (n > 0) r.ReadRaw(sigs->data(), sigs->size() * sizeof(uint64_t));
    for (const uint64_t sig : *sigs) {
      sig_checksum = SignatureChecksum(sig_checksum, sig);
    }
  }
  if (r.Get<uint64_t>() != sig_checksum) {
    r.Fail("signature checksum mismatch");
  }
  r.Section("csr adopt");
  try {
    index.AdoptSealed(std::move(out_side.offsets), std::move(out_side.entries),
                      std::move(in_side.offsets), std::move(in_side.entries),
                      std::move(out_sigs), std::move(in_sigs));
  } catch (const std::invalid_argument& e) {
    r.Fail(e.what());
  }

  // Pending overlay sections. Entries are range-checked like CSR entries
  // and re-applied through the overlay mutators — AddDelta* re-applies the
  // (idempotent) signature widening, AddTombstone* verifies the referenced
  // CSR entry exists — and each section's checksum catches in-range
  // corruption.
  auto get_overlay = [&](const char* what, auto apply) {
    r.Section(what);
    uint64_t checksum = kSignatureChecksumSeed;
    auto get_side = [&](bool out_side) {
      const uint64_t count = r.Get<uint64_t>();
      checksum = SignatureChecksum(checksum, count);
      if (count > n) {
        r.Fail("vertex count " + std::to_string(count) + " exceeds " +
               std::to_string(n));
      }
      for (uint64_t i = 0; i < count; ++i) {
        const uint32_t v = r.Get<uint32_t>();
        const uint32_t len = r.Get<uint32_t>();
        checksum = SignatureChecksum(checksum, v);
        checksum = SignatureChecksum(checksum, len);
        if (v >= n || len == 0 || len > r.Remaining() / sizeof(IndexEntry)) {
          r.Fail("corrupt per-vertex list (vertex " + std::to_string(v) +
                 ", length " + std::to_string(len) + ")");
        }
        for (uint32_t j = 0; j < len; ++j) {
          const uint32_t aid = r.Get<uint32_t>();
          const MrId mr = r.Get<uint32_t>();
          checksum = SignatureChecksum(checksum, aid);
          checksum = SignatureChecksum(checksum, mr);
          if (mr >= num_mrs || aid == 0 || aid > n) {
            r.Fail("entry (hub_aid=" + std::to_string(aid) +
                   ", mr=" + std::to_string(mr) + ") out of range");
          }
          apply(out_side, v, aid, mr);
        }
      }
    };
    get_side(/*out_side=*/true);
    get_side(/*out_side=*/false);
    if (r.Get<uint64_t>() != checksum) r.Fail("section checksum mismatch");
  };
  get_overlay("delta", [&](bool out_side, uint32_t v, uint32_t aid, MrId mr) {
    if (out_side) {
      index.AddDeltaOut(v, aid, mr);
    } else {
      index.AddDeltaIn(v, aid, mr);
    }
  });
  get_overlay("tombstone",
              [&](bool out_side, uint32_t v, uint32_t aid, MrId mr) {
                try {
                  if (out_side) {
                    index.AddTombstoneOut(v, aid, mr);
                  } else {
                    index.AddTombstoneIn(v, aid, mr);
                  }
                } catch (const std::invalid_argument& e) {
                  r.Fail(e.what());
                }
              });
  return index;
}

void AtomicWriteFile(const std::string& path, std::string_view bytes,
                     const char* failpoint_site) {
  const std::string site(failpoint_site);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("AtomicWriteFile: cannot open " + tmp + ": " +
                             std::strerror(errno));
  }
  try {
    FailpointHit(site + ".before_write");
    FailpointWrite(fd, bytes.data(), bytes.size(), tmp.c_str());
    FailpointHit(site + ".after_write");
    FailpointSync(fd, tmp.c_str());
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  FailpointHit(site + ".before_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("AtomicWriteFile: rename " + tmp + " -> " + path +
                             " failed: " + std::strerror(errno));
  }
  FailpointHit(site + ".after_rename");
  // The rename itself is only durable once the directory entry is synced.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void SaveIndex(const RlcIndex& index, const std::string& path) {
  std::ostringstream out(std::ios::binary);
  WriteIndex(index, out);
  AtomicWriteFile(path, out.view(), "index_io.save");
}

RlcIndex LoadIndex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open index file: " + path + ": " +
                             std::strerror(errno));
  }
  return ReadIndex(in, path);
}

DurabilityManifest ReadManifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFileName;
  std::ifstream in(path);
  if (!in) {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 && errno == ENOENT) return {};  // fresh
    throw std::runtime_error("ReadManifest: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  std::string word;
  uint32_t format = 0;
  if (!(in >> word >> format) || word != "RLCMANIFEST" || format != 1) {
    throw std::runtime_error("ReadManifest: " + path +
                             " is not a version-1 rlc manifest");
  }
  DurabilityManifest m;
  while (in >> word) {
    SnapshotGeneration g;
    std::string lsn_kw;
    if (word != "gen" || !(in >> g.generation >> lsn_kw >> g.applied_lsn) ||
        lsn_kw != "lsn") {
      throw std::runtime_error("ReadManifest: malformed entry in " + path);
    }
    if (!m.generations.empty() &&
        g.generation >= m.generations.back().generation) {
      throw std::runtime_error("ReadManifest: generations in " + path +
                               " are not newest-first");
    }
    m.generations.push_back(g);
  }
  return m;
}

void CommitManifest(const std::string& dir, const DurabilityManifest& manifest) {
  static obs::Histogram& commit_ns =
      obs::Registry::Global().GetHistogram("snap.manifest_commit_ns");
  obs::ScopedSpan span(commit_ns, "snap.manifest_commit");
  std::string text = "RLCMANIFEST 1\n";
  for (const SnapshotGeneration& g : manifest.generations) {
    text += "gen " + std::to_string(g.generation) + " lsn " +
            std::to_string(g.applied_lsn) + "\n";
  }
  AtomicWriteFile(dir + "/" + kManifestFileName, text, "manifest.commit");
}

}  // namespace rlc

// Shared helpers for the per-table/figure benchmark harnesses.
//
// Conventions:
//  * Every harness runs in seconds at its default scale so the whole
//    bench/ directory can be executed in one sweep.
//  * RLC_SCALE (0 < s <= 1) scales dataset surrogates towards the paper's
//    full published sizes.
//  * RLC_DATASETS="AD,EP,..." restricts a harness to a subset of Table III
//    datasets ("all" = every dataset, the default).
//  * RLC_DATA_DIR=<dir> makes GetDataset() load the *real* SNAP/KONECT edge
//    list from <dir>/<abbrev>.txt instead of generating a surrogate.
//  * RLC_QUERIES overrides the per-set workload size (paper: 1000).

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rlc/baselines/online_search.h"
#include "rlc/core/indexer.h"
#include "rlc/graph/datasets.h"
#include "rlc/graph/edge_list_io.h"
#include "rlc/obs/metrics.h"
#include "rlc/util/simd.h"
#include "rlc/util/timer.h"
#include "rlc/workload/query_gen.h"

namespace rlc::bench {

inline uint32_t QueriesPerSet(uint32_t def = 1000) {
  const char* env = std::getenv("RLC_QUERIES");
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<uint32_t>(v);
  }
  return def;
}

/// Datasets selected via RLC_DATASETS (comma-separated abbreviations).
inline std::vector<DatasetSpec> SelectedDatasets() {
  const char* env = std::getenv("RLC_DATASETS");
  const auto& all = TableIIIDatasets();
  if (env == nullptr || std::string(env) == "all") return all;
  std::vector<DatasetSpec> picked;
  std::string list(env);
  size_t pos = 0;
  while (pos <= list.size()) {
    const size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    if (auto spec = FindDataset(name)) picked.push_back(*spec);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return picked.empty() ? all : picked;
}

/// Per-dataset effective scale for the full Table III suite. Unless the
/// user pins RLC_SCALE explicitly, the scale is additionally capped so that
/// the surrogate has at most RLC_TARGET_EDGES edges (default 25K): shrinking
/// |V| while holding the published average degree makes dense graphs
/// saturate (every pair reachable), so the heaviest datasets need smaller
/// relative scales to stay laptop-sized. Hardness *ordering* across
/// datasets is preserved (|V| grows suite-wide at fixed edge budget only
/// for the sparse graphs).
inline double EffectiveScale(const DatasetSpec& spec, double default_scale) {
  uint64_t target_edges = 25'000;
  if (const char* env = std::getenv("RLC_TARGET_EDGES")) {
    const auto v = std::strtoull(env, nullptr, 10);
    if (v > 0) target_edges = v;
  }
  if (std::getenv("RLC_SCALE") != nullptr) {
    return ScaleFromEnv(default_scale);  // explicit user choice wins
  }
  const double cap = static_cast<double>(target_edges) /
                     static_cast<double>(spec.num_edges);
  return std::min(default_scale, std::max(cap, 1e-6));
}

/// Real dataset file if RLC_DATA_DIR is set and the file exists, otherwise
/// a scaled surrogate matching the published |V|, |E|, |L| and loop count
/// (rlc/graph/datasets.h: the paper's SNAP/KONECT files are not shipped).
inline DiGraph GetDataset(const DatasetSpec& spec, double scale, uint64_t seed) {
  if (const char* dir = std::getenv("RLC_DATA_DIR")) {
    const std::string path = std::string(dir) + "/" + spec.name + ".txt";
    if (FILE* f = std::fopen(path.c_str(), "r")) {
      std::fclose(f);
      std::printf("# loading real dataset %s from %s\n", spec.name.c_str(),
                  path.c_str());
      return LoadEdgeListText(path);
    }
  }
  return MakeSurrogate(spec, scale, seed);
}

/// Git SHA the benchmark binary was configured from (CMake passes it via
/// RLC_BUILD_GIT_SHA; "unknown" outside a git checkout). Configure-time,
/// so a rebuild after new commits without re-running cmake can lag.
inline const char* BuildGitSha() {
#ifdef RLC_BUILD_GIT_SHA
  return RLC_BUILD_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Compiler id + version, taken at compile time from the preprocessor.
inline std::string BuildCompiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The CXX flags of the build configuration (CMake passes them via
/// RLC_BUILD_FLAGS).
inline const char* BuildFlags() {
#ifdef RLC_BUILD_FLAGS
  return RLC_BUILD_FLAGS;
#else
  return "unknown";
#endif
}

/// Machine-readable benchmark output: collects flat records and writes them
/// as a JSON array to BENCH_<harness>.json on destruction, so the perf
/// trajectory can be tracked across PRs without scraping the tables.
/// Output directory: RLC_BENCH_JSON_DIR (default: current directory).
///
/// The first record of every file is build provenance — git SHA, compiler,
/// flags, SIMD ISA — so a BENCH_*.json artifact is attributable to the
/// exact build that produced it.
///
///   JsonWriter json("table4_indexing");
///   json.AddRecord()
///       .Set("name", spec.name).Set("threads", threads)
///       .Set("wall_ms", seconds * 1e3).Set("entries_per_s", rate);
class JsonWriter {
 public:
  class Record {
   public:
    Record& Set(const std::string& key, const std::string& value) {
      return SetRaw(key, Quote(value));
    }
    Record& Set(const std::string& key, const char* value) {
      return SetRaw(key, Quote(value));
    }
    Record& Set(const std::string& key, bool value) {
      return SetRaw(key, value ? "true" : "false");
    }
    template <typename T>
      requires std::is_arithmetic_v<T>
    Record& Set(const std::string& key, T value) {
      char buf[64];
      if constexpr (std::is_floating_point_v<T>) {
        std::snprintf(buf, sizeof(buf), "%.8g", static_cast<double>(value));
      } else if constexpr (std::is_signed_v<T>) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
      } else {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
      }
      return SetRaw(key, buf);
    }

   private:
    friend class JsonWriter;
    Record& SetRaw(const std::string& key, std::string json_value) {
      fields_.emplace_back(key, std::move(json_value));
      return *this;
    }
    static std::string Quote(const std::string& s) {
      std::string out = "\"";
      for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
          out += "\\n";
        } else {
          out += c;
        }
      }
      out += '"';
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit JsonWriter(std::string harness) : harness_(std::move(harness)) {
    AddRecord()
        .Set("record", "provenance")
        .Set("harness", harness_)
        .Set("git_sha", BuildGitSha())
        .Set("compiler", BuildCompiler())
        .Set("build_flags", BuildFlags())
        .Set("simd", simd::KernelIsa());
  }
  ~JsonWriter() { Flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  Record& AddRecord() {
    records_.emplace_back();
    return records_.back();
  }

  /// Appends one record per non-empty metric in `snap` (type "metric"):
  /// counters/gauges carry `value`; histograms carry count / mean_ns /
  /// p50_ns / p95_ns / p99_ns / max_ns. `source` distinguishes the global
  /// registry from per-service registries when a harness exports both.
  void AppendMetrics(const obs::MetricsSnapshot& snap,
                     const std::string& source = "global") {
    for (const auto& c : snap.counters) {
      if (c.value == 0) continue;
      AddRecord()
          .Set("record", "metric")
          .Set("source", source)
          .Set("metric", c.name)
          .Set("type", "counter")
          .Set("value", c.value);
    }
    for (const auto& g : snap.gauges) {
      if (g.value == 0) continue;
      AddRecord()
          .Set("record", "metric")
          .Set("source", source)
          .Set("metric", g.name)
          .Set("type", "gauge")
          .Set("value", g.value);
    }
    for (const auto& h : snap.histograms) {
      if (h.count == 0) continue;
      AddRecord()
          .Set("record", "metric")
          .Set("source", source)
          .Set("metric", h.name)
          .Set("type", "histogram")
          .Set("count", h.count)
          .Set("mean_ns", h.Mean())
          .Set("p50_ns", h.Percentile(0.50))
          .Set("p95_ns", h.Percentile(0.95))
          .Set("p99_ns", h.Percentile(0.99))
          .Set("max_ns", h.max);
    }
  }

  /// Writes BENCH_<harness>.json (idempotent; also run by the destructor).
  /// Every file automatically ends with the global metrics registry's
  /// "metric" records, so any harness that exercised instrumented code gets
  /// latency percentiles in its artifact for free.
  void Flush() {
    if (flushed_) return;
    flushed_ = true;
    AppendMetrics(obs::Registry::Global().Snapshot());
    const char* dir = std::getenv("RLC_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir != nullptr ? dir : ".") + "/BENCH_" + harness_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "JsonWriter: cannot write %s\n", path.c_str());
      return;
    }
    out << "[\n";
    for (size_t r = 0; r < records_.size(); ++r) {
      out << "  {";
      for (size_t f = 0; f < records_[r].fields_.size(); ++f) {
        if (f > 0) out << ", ";
        out << Record::Quote(records_[r].fields_[f].first) << ": "
            << records_[r].fields_[f].second;
      }
      out << (r + 1 < records_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    std::printf("# wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::string harness_;
  std::vector<Record> records_;
  bool flushed_ = false;
};

/// Thread counts selected via RLC_THREADS (comma-separated, e.g. "1,4,8").
inline std::vector<uint32_t> SelectedThreadCounts(
    std::vector<uint32_t> def = {1, 2, 4}) {
  const char* env = std::getenv("RLC_THREADS");
  if (env == nullptr) return def;
  std::vector<uint32_t> picked;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end != p && v > 0) picked.push_back(static_cast<uint32_t>(v));
    // Skip to the next comma-separated token, ignoring malformed ones.
    while (*end != '\0' && *end != ',') ++end;
    p = (*end == ',') ? end + 1 : end;
  }
  return picked.empty() ? def : picked;
}

/// Minimal fixed-width table printer for paper-style output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    PrintRow(headers_, width);
    std::string rule;
    for (size_t c = 0; c < width.size(); ++c) {
      rule += std::string(width[c], '-');
      if (c + 1 < width.size()) rule += "-+-";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(row, width);
  }

 private:
  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& width) {
    std::string line;
    for (size_t c = 0; c < width.size(); ++c) {
      std::string cell = c < row.size() ? row[c] : "";
      cell.resize(width[c], ' ');
      line += cell;
      if (c + 1 < width.size()) line += " | ";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string Human(uint64_t n) {
  char buf[64];
  if (n >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(n));
  }
  return buf;
}

inline std::string Mb(uint64_t bytes) {
  return Fmt("%.2f", static_cast<double>(bytes) / (1024.0 * 1024.0));
}

/// Total time (microseconds) to run every query in `set` on the RLC index.
inline double TimeRlcQueries(const RlcIndex& index,
                             const std::vector<RlcQuery>& set) {
  Timer t;
  uint64_t hits = 0;
  for (const RlcQuery& q : set) hits += index.Query(q.s, q.t, q.constraint);
  const double us = t.ElapsedMicros();
  // Consume `hits` so the loop cannot be optimized away.
  if (hits == UINT64_MAX) std::printf("impossible\n");
  return us;
}

enum class Traversal { kBfs, kBiBfs };

/// Total time (microseconds) for the online baseline over `set`, with a
/// per-set budget: returns -1 ("timeout") when the budget is exceeded.
inline double TimeOnlineQueries(const DiGraph& g, const std::vector<RlcQuery>& set,
                                Traversal method, double budget_seconds) {
  OnlineSearcher searcher(g);
  Timer t;
  for (const RlcQuery& q : set) {
    const auto pc = PathConstraint::RlcPlus(q.constraint);
    const CompiledConstraint cc(pc, g.num_labels());
    const bool got = method == Traversal::kBfs ? searcher.QueryBfs(q.s, q.t, cc)
                                               : searcher.QueryBiBfs(q.s, q.t, cc);
    if (got != q.expected) std::printf("!! baseline disagrees with oracle\n");
    if (t.ElapsedSeconds() > budget_seconds) return -1.0;
  }
  return t.ElapsedMicros();
}

inline std::string TimeCell(double us) {
  if (us < 0) return "timeout";
  return Fmt("%.0f", us);
}

}  // namespace rlc::bench

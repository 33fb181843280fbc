// In-memory span recorder for the traced pass. Spans are recorded only in
// the benchmark's own code, around calls into the library's public API;
// they stay in memory until the run ends and are then written out, and
// each span name's self time (its duration minus the part its child spans
// cover) is computed from them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;  ///< index of the enclosing span, -1 at top level
    int32_t round;   ///< steady round, -1 outside the steady phase
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_round(int32_t round) { round_ = round; }

  /// Opens a span; returns its id (or -1 when disabled).
  int32_t Begin(const char* name);
  void End(int32_t id);

  /// Total self time per span name, in seconds.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as one JSON document; returns false on I/O error.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  int32_t round_ = -1;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span guard.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

}  // namespace perfbench

#include "trace.h"

#include <cstdio>

#include "rlc/obs/metrics.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, rlc::obs::NowNanos(), 0,
                    open_.empty() ? -1 : open_.back(), round_});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[id].end_ns = rlc::obs::NowNanos();
  open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  // Children are recorded strictly inside their parent on one thread, so
  // the covered part of a parent is the sum of its direct children.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"round\":%d}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent, s.round);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

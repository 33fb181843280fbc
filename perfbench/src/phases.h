// One benchmark run: replays of set-up, cold pass and steady phase on
// fresh services (and, for churn, writes; then checkpoint and recovery),
// with every answer checked against an independent oracle outside the
// timers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;  ///< probes and updates submitted
  uint64_t failed = 0;     ///< non-kOk statuses plus wrong answers
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (inputs digest, exact
  /// outputs, property shares, span self times).
  std::vector<std::string> notes;
};

struct RunConfig {
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch space for durable stores and traces
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunConfig& config);

}  // namespace perfbench

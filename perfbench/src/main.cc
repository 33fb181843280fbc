// Serving benchmark: runs one seeded, fixed-work workload against
// ShardedRlcService through its public API, checks every answer, and
// prints the metrics as the last line of standard output.
//
//   rlc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// --trace 0 prints the end-to-end metrics (library instrumentation off);
// --trace 1 prints the per-layer metrics of a separate traced pass.
// Exit status: 0 on a correct run, 1 when any answer is wrong, 2 on bad
// arguments or an internal error.
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "phases.h"
#include "workload.h"

namespace {

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}");
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "rlc_bench: %s\nusage: rlc_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\nworkloads:",
               msg);
  for (const auto& w : perfbench::AllWorkloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig cfg;
  uint64_t seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      have_seed = ParseU64(val, &cfg.seed);
      if (!have_seed) return Usage("--seed must be a non-negative integer");
    } else if (arg == "--seconds") {
      have_seconds = ParseU64(val, &seconds) && seconds >= 1 && seconds <= 600;
      if (!have_seconds) return Usage("--seconds must be in [1, 600]");
    } else if (arg == "--trace") {
      if (!ParseU64(val, &trace) || trace > 1) return Usage("--trace must be 0 or 1");
    } else if (arg == "--workdir") {
      cfg.workdir = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || cfg.workdir.empty()) {
    return Usage("--seed, --seconds and --workdir are required");
  }
  cfg.seconds = static_cast<uint32_t>(seconds);
  cfg.trace = trace == 1;

  perfbench::RunResult res;
  try {
    std::filesystem::create_directories(cfg.workdir);
    res = perfbench::RunWorkload(*spec, cfg);
    std::filesystem::remove_all(std::filesystem::path(cfg.workdir) / "store");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlc_bench: %s\n", e.what());
    return 2;
  }
  std::printf("workload %.*s seed %" PRIu64 " seconds %u trace %d\n",
              static_cast<int>(spec->name.size()), spec->name.data(), cfg.seed,
              cfg.seconds, cfg.trace ? 1 : 0);
  for (const std::string& line : res.notes) std::printf("%s\n", line.c_str());
  const auto& metrics = cfg.trace ? res.per_layer : res.end_to_end;
  for (const perfbench::Metric& m : metrics) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", ",
              res.correct ? "true" : "false", res.attempted, res.failed);
  PrintMetrics(metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

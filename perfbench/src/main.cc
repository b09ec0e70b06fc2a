// snd_perfbench: runs one named workload and prints its report.
//
//   snd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --data-dir DIR --serve-bin PATH [--tiny] [--corrupt]
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger. The line before it is the
// detail record (workload-specific metrics, sample counts, settings).
// perfbench/run.py builds this binary and is the supported entry point.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = SplitMix(&seed) ^ stream;
  return SplitMix(&x);
}

uint64_t GraphSeed(const std::string& workload) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a.
  for (const char c : workload) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    const char* value = k + 1 < argc ? argv[k + 1] : "";
    if (arg == "--workload") {
      options.workload = value, ++k;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10), ++k;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value), ++k;
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0, ++k;
    } else if (arg == "--data-dir") {
      options.data_dir = value, ++k;
    } else if (arg == "--serve-bin") {
      options.serve_bin = value, ++k;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else {
      std::fprintf(stderr, "snd_perfbench: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  options.host_processors =
      static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  if (options.data_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "snd_perfbench: --data-dir and --seconds > 0 required\n");
    return 2;
  }
  perfbench::RunReport report;
  if (options.workload == "batch_transport" || options.workload == "batch_sssp") {
    report = perfbench::RunBatch(options);
  } else if (options.workload == "serve_read" ||
             options.workload == "serve_churn") {
    if (options.serve_bin.empty()) {
      std::fprintf(stderr, "snd_perfbench: --serve-bin required\n");
      return 2;
    }
    report = perfbench::RunServe(options);
  } else {
    std::fprintf(stderr, "snd_perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  report.Detail("host.spin_ms", perfbench::HostSpinMs(), "ms");
  report.Info("workload", options.workload);
  report.Info("seed", std::to_string(options.seed));
  report.Info("seconds", std::to_string(options.seconds));
  report.Info("trace", options.trace ? "1" : "0");
  report.Info("host_processors", std::to_string(options.host_processors));
  perfbench::PrintReport(report);
  return 0;
}

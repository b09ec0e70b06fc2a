// The benchmark's workloads. Each runs one workload end to end — input
// generation, set-up, the measured phase, and the correctness check — and
// returns the report the run prints.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "inputs.h"
#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs and short phases: the self-test scale.
  bool tiny = false;
  // Corrupt one checked answer before the check runs (self-test of the
  // checker: the run must come out incorrect).
  bool corrupt = false;
  std::string data_dir;   // Generated inputs, logs and span files.
  std::string serve_bin;  // The snd_serve binary under test.
  int host_processors = 1;
};

// Per-workload seeds are derived from the run seed so that the state
// stream, the arc churn and the request schedule each get an independent
// stream.
uint64_t SubSeed(uint64_t seed, uint64_t stream);
// The graph is part of the workload, not of the seed: every run of a
// workload measures the same network, and the seed varies the opinion
// dynamics and the traffic on it.
uint64_t GraphSeed(const std::string& workload);

RunReport RunBatch(const Options& options);
RunReport RunServe(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Shared pieces of the benchmark: the clock, latency samples and
// their quantiles, the metric ledger a run prints, process resource
// probes, and the span recorder of the traced run.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// steady_clock in nanoseconds.
int64_t NowNs();

// Process CPU time (user + system, all threads) of the calling process.
int64_t SelfCpuNs();
// Same for another process, summed over its threads; -1 if unreadable.
int64_t ProcCpuNs(pid_t pid);
// VmHWM (peak resident set) in MiB from /proc/<pid>/status; 0 = self.
double PeakRssMb(pid_t pid);

// Milliseconds a fixed single-threaded integer loop takes, median of five:
// how fast the host runs this process at the moment, to read the run's
// timings against (a shared host's speed drifts between runs).
double HostSpinMs();

// A set of latency samples in nanoseconds.
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  void Append(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  size_t size() const { return ns_.size(); }
  bool empty() const { return ns_.empty(); }
  // Nearest-rank quantile in milliseconds; 0 when empty.
  double QuantileMs(double q) const;
  double MeanMs() const;

 private:
  std::vector<int64_t> ns_;
};

double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the verdict, the end-to-end metrics (untraced
// run) or the per-layer ledger (traced run), and the detail record — every
// workload-specific metric under the name the workload tables use, with
// sample counts and the run's settings.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> info;

  void Put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  // Records `count` ops attempted of which `bad` failed; any failure makes
  // the run incorrect.
  void Count(int64_t count, int64_t bad) {
    attempted += count;
    failed += bad;
    if (bad > 0) correct = false;
  }
};

// The two stdout lines of a run: the detail record, then the result
// object the contract defines (always last).
void PrintReport(const RunReport& report);

std::string JsonEscape(const std::string& s);

// In-memory span recorder for the traced run; written out once, at the
// end, as one JSON object per line.
class SpanLog {
 public:
  // Returns the span id. `parent` 0 = root. `trace` groups the spans of
  // one operation.
  int64_t Add(const char* name, int64_t trace, int64_t parent,
              int64_t start_ns, int64_t end_ns);
  int64_t NextTrace() { return ++last_trace_; }
  bool empty() const { return spans_.empty(); }
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    int64_t id, trace, parent, start_ns, end_ns;
    const char* name;
  };
  std::vector<Span> spans_;
  int64_t last_trace_ = 0;
};

// One splitmix64 step: advances *x and returns the next output.
uint64_t SplitMix(uint64_t* x);

// xoshiro256** seeded through splitmix64: the benchmark's own generator,
// so inputs do not move when the library's RNG changes.
class Rand {
 public:
  explicit Rand(uint64_t seed);
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Below(uint64_t n);
  double Unit();

 private:
  uint64_t s_[4];
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

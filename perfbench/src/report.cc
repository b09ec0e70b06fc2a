#include "report.h"

#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t SelfCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ProcCpuNs(pid_t pid) {
  // Every thread's on-CPU nanoseconds (the first field of schedstat);
  // /proc/<pid>/stat only has clock ticks.
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(tasks.c_str());
  if (dir == nullptr) return -1;
  int64_t total = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
    long long on_cpu = 0;
    if (in >> on_cpu) total += on_cpu;
  }
  closedir(dir);
  return total;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

double HostSpinMs() {
  std::vector<double> ms;
  for (int k = 0; k < 5; ++k) {
    const int64_t t0 = NowNs();
    uint64_t x = 1;
    for (int i = 0; i < 20000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 17;
    }
    const volatile uint64_t sink = x;
    (void)sink;
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(ms);
}

double Samples::QuantileMs(double q) const {
  if (ns_.empty()) return 0.0;
  std::vector<int64_t> sorted = ns_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, sorted.size()) - 1;
  return static_cast<double>(sorted[index]) / 1e6;
}

double Samples::MeanMs() const {
  if (ns_.empty()) return 0.0;
  double sum = 0.0;
  for (const int64_t v : ns_) sum += static_cast<double>(v);
  return sum / static_cast<double>(ns_.size()) / 1e6;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + JsonEscape(metrics[k].name) + "\": {\"value\": " +
           Number(metrics[k].value) + ", \"unit\": \"" +
           JsonEscape(metrics[k].unit) + "\"}";
  }
  return out + "}";
}

}  // namespace

void PrintReport(const RunReport& report) {
  std::string detail = "{\"detail\": " + MetricsObject(report.detail) +
                       ", \"info\": {";
  for (size_t k = 0; k < report.info.size(); ++k) {
    if (k > 0) detail += ", ";
    detail += "\"" + JsonEscape(report.info[k].first) + "\": \"" +
              JsonEscape(report.info[k].second) + "\"";
  }
  detail += "}}";
  std::printf("%s\n", detail.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": %s}\n",
      report.correct ? "true" : "false", report.attempted, report.failed,
      MetricsObject(report.metrics).c_str());
  std::fflush(stdout);
}

int64_t SpanLog::Add(const char* name, int64_t trace, int64_t parent,
                     int64_t start_ns, int64_t end_ns) {
  const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back({id, trace, parent, start_ns, end_ns, name});
  return id;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %" PRId64 ", \"trace\": %" PRId64
                 ", \"parent\": %" PRId64
                 ", \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"dur_ns\": %" PRId64 "}\n",
                 s.id, s.trace, s.parent, s.name, s.start_ns,
                 s.end_ns - s.start_ns);
  }
  return std::fclose(f) == 0;
}

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rand::Rand(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(&seed);
}

uint64_t Rand::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rand::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rand::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

}  // namespace perfbench

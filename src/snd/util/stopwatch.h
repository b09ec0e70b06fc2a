// Wall-clock stopwatch used by the benchmark harnesses, the examples and
// the CLI. Library code reports its phase times through obs::RequestTrace.
#ifndef SND_UTIL_STOPWATCH_H_
#define SND_UTIL_STOPWATCH_H_

#include <chrono>

namespace snd {

class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  // Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const;

  // Milliseconds elapsed since construction or the last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace snd

#endif  // SND_UTIL_STOPWATCH_H_

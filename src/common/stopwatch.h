// Wall-clock stopwatch for timing experiment phases.
#ifndef LIGHTTR_COMMON_STOPWATCH_H_
#define LIGHTTR_COMMON_STOPWATCH_H_

#include <chrono>

namespace lighttr {

/// Measures elapsed wall-clock time. Starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Returns seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_STOPWATCH_H_

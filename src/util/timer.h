// Clock sources.
//
// ThreadCpuTimer measures CPU time consumed by the *calling thread only*
// (CLOCK_THREAD_CPUTIME_ID).  This is the measurement backbone of the
// virtual-time model: on an oversubscribed host (the reproduction runs many
// virtual processors on few cores) per-thread CPU time is unaffected by
// scheduling, so compute costs attributed to each virtual processor stay
// meaningful.
#pragma once

#include <ctime>

namespace mc {

/// Seconds of CPU time consumed by the calling thread so far.
inline double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Measures thread CPU time between construction and elapsed().
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(threadCpuSeconds()) {}
  void reset() { start_ = threadCpuSeconds(); }
  double elapsed() const { return threadCpuSeconds() - start_; }

 private:
  double start_;
};

}  // namespace mc

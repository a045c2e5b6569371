// Process-level measurements the benchmark takes around the program:
// clocks, CPU time, memory, descriptor and thread counts, and the small
// statistics the report is built from. Nothing here calls into the program.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady clock).
double now_s();
/// CPU seconds consumed by every thread of this process.
double process_cpu_s();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();
/// Current resident set size, in KiB.
double rss_kib();
/// Open file descriptors of this process.
int open_fds();
/// OS threads of this process.
int thread_count();
/// Soft RLIMIT_NOFILE.
std::uint64_t fd_soft_limit();
/// Hardware threads (at least 1).
unsigned host_threads();
/// Last-level cache size in bytes as the OS reports it (0 when unknown).
std::uint64_t llc_bytes();

/// Median (0 for an empty sample).
double median(std::vector<double> values);
/// Quantile q in [0, 1] by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);

/// Samples process CPU time and the thread count on a background thread
/// every `period_us`, so CPU seconds can be attributed to any wall interval
/// after the fact (the kernels run inside one library call, with no
/// callback between them) and the thread peak is known.
class ProcessSampler {
 public:
  explicit ProcessSampler(int period_us = 1000);
  ProcessSampler(const ProcessSampler&) = delete;
  ProcessSampler& operator=(const ProcessSampler&) = delete;
  ~ProcessSampler();

  /// CPU seconds spent between two now_s() instants, interpolated between
  /// the nearest samples.
  [[nodiscard]] double cpu_between(double begin_s, double end_s) const;
  /// Highest thread count seen since construction.
  [[nodiscard]] int threads_peak() const { return threads_peak_.load(); }

 private:
  void loop(int period_us);

  mutable std::mutex mutex_;
  std::vector<std::pair<double, double>> samples_;  // (now_s, cpu_s)
  std::atomic<int> threads_peak_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace perfbench

// The benchmark's workloads and the run that measures one of them.
//
// Every workload runs the whole system once over: K0 set-up, timed
// K1→K2→K3 passes re-run from the K0 stage through core::run_pipeline, the
// rank server on the pipeline's own matrix and ranks under an open-loop
// mixed phase, a capacity search over a fixed rate ladder and a churn
// phase, and then the independent output checks. The workloads differ in
// the pipeline's configuration and in how the run's seconds are shared
// between the phases, so each one weighs a different layer while every
// end-to-end metric stays defined on all of them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// One workload; BENCHMARK.json records why each was chosen.
struct WorkloadSpec {
  std::string name;
  int scale = 16;
  std::string backend;       ///< native | parallel
  std::string stage_format;  ///< tsv | binary
  std::string storage;       ///< dir | mem
  /// Set-up is "pipeline + service + server until the first reply" when
  /// true, K0 generation alone when false.
  bool serve_setup = false;
  // Shares of --seconds given to each measured phase.
  double pass_share = 0.0;
  double open_share = 0.0;
  /// Churn sessions per run (a fixed count, so the memory and descriptors
  /// they leave behind do not depend on how fast they ran).
  std::uint64_t churn_sessions = 0;
  /// Arrival rate of the fixed-rate open-loop phase (requests/s).
  double open_rate = 0.0;
};

const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument listing the valid names.
const WorkloadSpec& find_workload(const std::string& name);

/// Capacity search: the ladder of offered rates (requests/s), tried upward
/// until one misses the limit, and the limit on light-op p99 latency.
inline const std::vector<double> kRateLadder = {500,  1000,  2000, 4000,
                                                8000, 16000, 32000};
inline constexpr double kLightP99LimitMs = 50.0;
/// Each rung offers its rate for this long, and at least kRungMinRequests
/// requests (950 light ones, so about ten samples lie beyond p99).
inline constexpr double kRungSeconds = 0.5;
inline constexpr std::size_t kRungMinRequests = 1000;
inline constexpr int kSetupRepeats = 5;
/// Timed pipeline passes per run, at least, whatever the share.
inline constexpr int kMinPasses = 5;
inline constexpr std::size_t kShards = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload. `work_root` holds the dir-store stages; it is
/// created and removed by the run. With `trace` the result carries the
/// per-layer metrics instead of the end-to-end ones.
RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       double seconds, bool trace,
                       const std::filesystem::path& work_root);

}  // namespace perfbench

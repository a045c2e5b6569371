// prpb_perfbench — runs one benchmark workload against the PageRank
// pipeline and the rank server, checks the outputs, and prints one JSON
// line with every metric by name and unit:
//
//   prpb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is the result; progress, sample counts
// and the host fingerprint go to standard error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "measure.hpp"
#include "util/log.hpp"
#include "workload.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: prpb_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const perfbench::WorkloadSpec& spec : perfbench::workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

void print_host() {
  std::string cpu = "unknown";
  if (FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      std::string s(line);
      if (s.rfind("model name", 0) == 0) {
        cpu = s.substr(s.find(':') + 2);
        cpu.pop_back();
        break;
      }
    }
    std::fclose(f);
  }
  char release[256] = "unknown";
  if (FILE* f = std::fopen("/proc/sys/kernel/osrelease", "r")) {
    if (std::fgets(release, sizeof release, f) != nullptr) {
      release[std::strcspn(release, "\n")] = '\0';
    }
    std::fclose(f);
  }
  std::fprintf(stderr, "[perfbench] host: nproc %u, %s, LLC %.1f MiB, kernel %s\n",
               perfbench::host_threads(), cpu.c_str(),
               static_cast<double>(perfbench::llc_bytes()) / 1048576.0, release);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string seed_text;
  std::string seconds_text;
  std::string trace_text = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--seed") seed_text = argv[i + 1];
    else if (flag == "--seconds") seconds_text = argv[i + 1];
    else if (flag == "--trace") trace_text = argv[i + 1];
    else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || workload.empty() || seed_text.empty() ||
      seconds_text.empty() || (trace_text != "0" && trace_text != "1")) {
    usage();
    return 2;
  }
  // A run that stops making progress ends here instead of hanging its
  // caller; no result line is printed.
  alarm(170);
  prpb::util::set_log_level(prpb::util::LogLevel::kWarn);
  try {
    const perfbench::WorkloadSpec& spec = perfbench::find_workload(workload);
    const std::uint64_t seed = std::stoull(seed_text);
    const double seconds = std::stod(seconds_text);
    if (!(seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    print_host();
    std::fprintf(stderr, "[perfbench] workload %s, seed %llu, %.0f s, trace %s\n",
                 spec.name.c_str(), static_cast<unsigned long long>(seed), seconds,
                 trace_text.c_str());
    const std::filesystem::path work =
        std::filesystem::path(".bench_build") /
        ("perfbench-work-" + std::to_string(getpid()));
    const perfbench::RunResult result =
        perfbench::run_workload(spec, seed, seconds, trace_text == "1", work);
    std::fprintf(stderr, "[perfbench] operations: %llu attempted, %llu failed\n",
                 static_cast<unsigned long long>(result.attempted),
                 static_cast<unsigned long long>(result.failed));
    std::string json = std::string("{\"correct\": ") +
                       (result.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const perfbench::Metric& m = result.metrics[i];
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        return 1;
      }
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
              m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prpb_perfbench: %s\n", e.what());
    return 1;
  }
}

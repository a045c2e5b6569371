#include "measure.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <string>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_kib() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

int open_fds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count - 1;  // the descriptor opendir itself holds
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

std::uint64_t fd_soft_limit() {
  rlimit limit{};
  getrlimit(RLIMIT_NOFILE, &limit);
  return limit.rlim_cur == RLIM_INFINITY ? (1u << 20) : limit.rlim_cur;
}

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t llc_bytes() {
  // The highest cache index the kernel lists for cpu0 is the last level.
  std::uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream size_file("/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/size");
    std::string text;
    if (!(size_file >> text)) break;
    std::uint64_t value = std::stoull(text);
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    best = value;
  }
  return best;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

ProcessSampler::ProcessSampler(int period_us)
    : thread_([this, period_us] { loop(period_us); }) {}

ProcessSampler::~ProcessSampler() {
  stop_.store(true);
  thread_.join();
}

void ProcessSampler::loop(int period_us) {
  int tick = 0;
  while (!stop_.load()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      samples_.emplace_back(now_s(), process_cpu_s());
    }
    // Reading /proc costs more than a clock read; every 10th tick is enough
    // to catch the thread peak of sessions that live for milliseconds.
    if (tick++ % 10 == 0) {
      const int threads = thread_count();
      int seen = threads_peak_.load();
      while (threads > seen && !threads_peak_.compare_exchange_weak(seen, threads)) {
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(period_us));
  }
}

double ProcessSampler::cpu_between(double begin_s, double end_s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto at = [&](double t) {
    const auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const std::pair<double, double>& s, double v) { return s.first < v; });
    if (it == samples_.begin()) return it == samples_.end() ? 0.0 : it->second;
    if (it == samples_.end()) return samples_.back().second;
    const auto& [t1, c1] = *it;
    const auto& [t0, c0] = *(it - 1);
    return c0 + (c1 - c0) * (t - t0) / std::max(t1 - t0, 1e-12);
  };
  return at(end_s) - at(begin_s);
}

}  // namespace perfbench

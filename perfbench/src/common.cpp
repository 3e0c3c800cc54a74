#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace pb {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  Gen g(seed ^ (stream * 0xD6E8FEB86659FD93ULL));
  return g.next();
}

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void PhaseClock::begin(sim::Time now) {
  if (started++ == 0) {
    t_start = host_now();
    sim_start = now;
  }
  sim_start = std::min(sim_start, now);
}

void PhaseClock::end(sim::Time now) {
  sim_end = std::max(sim_end, now);
  t_end = host_now();  // the last image to finish sets it
}

// VmHWM, not getrusage's ru_maxrss: ru_maxrss survives exec, so it would
// report the launching process's resident memory when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

}  // namespace pb

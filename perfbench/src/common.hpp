// Shared pieces of the benchmark: the seeded input generator, sample sets
// with exact percentiles, the host clock, benchmark-side spans on both
// clocks, and the per-episode outcome every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pb {

/// SplitMix64 stream: the benchmark's own input generator. The program
/// never sees the seed, only the keys and schedules drawn from it.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0 (rejection keeps it unbiased).
  std::uint64_t below(std::uint64_t bound) {
    const std::uint64_t limit = ~0ULL - (~0ULL % bound);
    std::uint64_t x = next();
    while (x >= limit) x = next();
    return x % bound;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream seed for (seed, stream id).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

double host_now();  ///< host steady clock, seconds

/// Nearest-rank percentile of a sample set (q in [0, 1]); 0 when empty.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Simulated-latency samples of one kind of call, in ns.
struct Samples {
  std::vector<double> ns;
  void add(sim::Time t) { ns.push_back(static_cast<double>(t)); }
  double p(double q) const { return percentile(ns, q); }
};

/// Benchmark-side spans around the program's public calls, on both clocks.
/// Only traced episodes record (`on`); untraced episodes pay one branch.
class SpanLog {
 public:
  struct Rec {
    Samples sim;
    std::vector<double> host_s;
  };
  bool on = false;
  std::map<std::string, Rec> recs;

  void add(const std::string& name, sim::Time sim_ns, double host_s) {
    Rec& r = recs[name];
    r.sim.add(sim_ns);
    r.host_s.push_back(host_s);
  }
};

/// Times one public call on the issuing image's engine clock and the host
/// clock; records it in `log` when tracing. Returns the call's result.
template <typename Fn>
auto timed(SpanLog& log, const char* name, sim::Time* sim_ns, Fn&& fn) {
  sim::Engine& eng = *sim::Engine::current();
  const sim::Time t0 = eng.now();
  const double h0 = log.on ? host_now() : 0.0;
  auto finish = [&] {
    *sim_ns = eng.now() - t0;
    if (log.on) log.add(name, *sim_ns, host_now() - h0);
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    finish();
  } else {
    auto r = fn();
    finish();
    return r;
  }
}

using Metrics = std::map<std::string, double>;

/// One episode: stack construction, set-up, the measured phase, checks.
struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;   ///< failed checks (operations that
                                     ///< did not fail)
  std::vector<std::string> failures; ///< operations counted as failed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double setup_s = 0;   ///< host: stack construction -> first measured op
  double host_s = 0;    ///< host: the measured phase
  double run_host_s = 0;  ///< host: the measured stack, construction to end
  Metrics sim;          ///< simulated metrics and output digests (exact)
  Metrics layers;       ///< per-layer metrics (traced episodes only)
  std::vector<std::string> notes;  ///< host-side facts for the report

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

/// Host-side markers of the measured phase, shared by every image fiber of
/// one engine run (the fibers run on one host thread).
struct PhaseClock {
  int started = 0;
  double t_setup0 = 0;
  double t_start = 0;
  double t_end = 0;
  sim::Time sim_start = 0;
  sim::Time sim_end = 0;

  void begin(sim::Time now);
  void end(sim::Time now);
  double setup_s() const { return t_start - t_setup0; }
  double host_s() const { return t_end - t_start; }
  double sim_ms() const {
    return static_cast<double>(sim_end - sim_start) / 1e6;
  }
};

double peak_rss_mb();

}  // namespace pb

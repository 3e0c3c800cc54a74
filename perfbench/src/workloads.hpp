// The benchmark's workloads. Each runs one episode per call: it builds a
// stack through the program's public entry points, runs the measured phase,
// checks the outputs, and returns the episode's outcome. Each also has a
// self-test that corrupts every checked output once and reports whether
// its check rejects the corruption.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace driver {
class Stack;
}

namespace pb {

struct SelfTestCase {
  std::string what;
  bool ok = false;  ///< the check behaved as the case expects
};

struct Workload {
  std::string name;
  std::function<Outcome(std::uint64_t seed, bool traced)> episode;
  std::function<std::vector<SelfTestCase>(std::uint64_t seed)> selftest;
};

Workload dht_workload();
Workload resilient_workload();
Workload himeno_workload();
Workload serve_workload();

/// Reads the per-layer metrics of a finished traced run out of the engine,
/// the fault injector, the obs registry, analyzer and exporter, and the
/// benchmark's own spans. `ops` normalises the fabric totals. Only records
/// between each image's "measured" and "drain" phase markers count.
void collect_layers(Outcome& out, driver::Stack& stack, const SpanLog& spans,
                    double ops);

/// Every per-layer metric name, so each traced run prints all of them (a
/// layer a workload does not use reads 0).
const std::vector<std::string>& layer_metric_names();

/// Span names recorded as p50/p99/count triples.
const std::vector<std::string>& span_metric_names();

}  // namespace pb

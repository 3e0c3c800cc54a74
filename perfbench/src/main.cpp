// perfbench: the repository benchmark's command-line program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --selftest [--workload NAME] [--seed N]
//
// Runs episodes of one workload (each: stack construction and set-up, the
// measured phase, checks) until S seconds have passed, at least
// kMinEpisodes times. Every episode of a run uses the same inputs, so
// simulated metrics must repeat exactly; any difference is reported as an
// error. Host metrics are medians over the episodes. With --trace 1,
// untraced and traced episodes alternate: the traced ones give the
// per-layer metrics and must reproduce the untraced simulated metrics and
// outputs exactly. The last line of stdout is one JSON object with
// `correct`, `attempted`, `failed` and `values`: with --trace 0 the host
// figures and every simulated figure, with --trace 1 every per-layer
// metric. run.py picks the metrics BENCHMARK.json declares and adds their
// units from there.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

using pb::Metrics;
using pb::Outcome;

constexpr int kMinEpisodes = 3;

/// The workloads' simulated figures, repeated among the per-layer metrics
/// of traced runs (0 where a workload has no such figure).
const char* const kWorkloadFigures[] = {
    "sim_ms",        "op_p50_ns",     "op_p99_ns",     "update_p50_ns",
    "update_p99_ns", "lookup_p50_ns", "lookup_p99_ns", "coll_p50_ns",
    "recovery_us",   "mflops",        "get_p99_ns",    "put_p99_ns",
    "max_rate_kops"};

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<std::pair<std::string, double>>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"values\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = std::isfinite(values[i].second) ? values[i].second : 0.0;
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                values[i].first.c_str(), v);
  }
  std::printf("}}\n");
}

int selftest(const std::string& only, std::uint64_t seed) {
  const pb::Workload all[] = {pb::dht_workload(), pb::resilient_workload(),
                              pb::himeno_workload(), pb::serve_workload()};
  int bad = 0;
  for (const pb::Workload& w : all) {
    if (!only.empty() && w.name != only) continue;
    for (const pb::SelfTestCase& c : w.selftest(seed)) {
      std::printf("selftest %-9s %-55s %s\n", w.name.c_str(), c.what.c_str(),
                  c.ok ? "ok" : "FAILED");
      if (!c.ok) ++bad;
    }
  }
  std::printf("selftest: %s\n", bad == 0 ? "every check rejects its corruption"
                                         : "a check misjudged its case");
  return bad == 0 ? 0 : 1;
}

/// Simulated metrics and digests of two episodes must match exactly.
void same_sim(const Outcome& ref, const Outcome& o, const char* what,
              Outcome& acc) {
  for (const auto& [k, v] : ref.sim) {
    auto it = o.sim.find(k);
    if (it == o.sim.end() || it->second != v) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %s = %.17g, first episode %.17g",
                    what, k.c_str(), it == o.sim.end() ? NAN : it->second, v);
      acc.check(false, buf);
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") workload = next();
    else if (a == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(next());
    else if (a == "--trace") trace = std::atoi(next());
    else if (a == "--selftest") self = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  // A fixed mmap threshold: glibc's dynamic one makes the symmetric heaps'
  // calloc either lazily mapped or memset depending on earlier frees, which
  // swings resident memory 8x between otherwise identical episodes.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  if (self) return selftest(workload, seed);

  pb::Workload w;
  for (auto make : {pb::dht_workload, pb::resilient_workload,
                    pb::himeno_workload, pb::serve_workload}) {
    pb::Workload c = make();
    if (c.name == workload) w = c;
  }
  if (!w.episode) {
    std::fprintf(stderr, "unknown workload '%s' (dht, resilient, himeno, serve)\n",
                 workload.c_str());
    return 2;
  }

  // Episodes: untraced only, or untraced and traced alternating.
  std::vector<Outcome> plain, traced;
  const double t0 = pb::host_now();
  double rss_mb = 0;
  while (pb::host_now() - t0 < seconds ||
         static_cast<int>(plain.size()) < kMinEpisodes ||
         (trace != 0 && traced.empty())) {
    plain.push_back(w.episode(seed, false));
    if (trace != 0) traced.push_back(w.episode(seed, true));
    // Resident memory is read after a fixed number of episodes, so memory
    // an episode fails to return counts the same in every run.
    if (static_cast<int>(plain.size()) == kMinEpisodes) rss_mb = pb::peak_rss_mb();
  }

  Outcome acc;  // run-level correctness
  std::int64_t attempted = 0, failed = 0;
  auto tally = [&](const Outcome& o, const char* differs) {
    attempted += o.attempted;
    failed += o.failed;
    if (!o.correct) acc.errors.insert(acc.errors.end(), o.errors.begin(), o.errors.end());
    acc.correct = acc.correct && o.correct;
    same_sim(plain.front(), o, differs, acc);
  };
  for (const Outcome& o : plain) tally(o, "simulated metric changed between episodes");
  for (const Outcome& o : traced) tally(o, "traced run differs from untraced");
  const Outcome& first = plain.front();

  std::vector<double> host, setup, run_host;
  for (const Outcome& o : plain) {
    host.push_back(o.host_s);
    setup.push_back(o.setup_s);
    run_host.push_back(o.run_host_s);
  }

  // Human-readable report: every simulated figure the workload measures,
  // including those outside the end-to-end set.
  std::printf("workload %s, seed %llu: %zu episodes", w.name.c_str(),
              static_cast<unsigned long long>(seed), plain.size());
  if (trace != 0) std::printf(" + %zu traced", traced.size());
  std::printf(", host_s median %.6f, setup_s median %.6f\n",
              pb::median(host), pb::median(setup));
  std::string sim_json;
  for (const auto& [k, v] : first.sim) {
    std::printf("  %-28s %.10g\n", k.c_str(), v);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", sim_json.empty() ? "" : ", ",
                  k.c_str(), v);
    sim_json += buf;
  }
  std::printf("simulated: {%s}\n", sim_json.c_str());
  for (const std::string& n : first.notes) std::printf("  note: %s\n", n.c_str());
  for (const std::string& f : first.failures) std::printf("  FAILED op: %s\n", f.c_str());
  std::vector<std::string> seen;
  for (const std::string& e : acc.errors) {
    if (std::find(seen.begin(), seen.end(), e) != seen.end()) continue;
    seen.push_back(e);
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::vector<std::pair<std::string, double>> out;
  if (trace == 0) {
    out = {{"host_s", pb::median(host)},
           {"setup_s", pb::median(setup)},
           {"peak_rss_mb", rss_mb}};
    for (const auto& [k, v] : first.sim) out.emplace_back(k, v);
  } else {
    Metrics lay = traced.back().layers;
    std::vector<double> thost, exp;
    for (const Outcome& o : traced) {
      thost.push_back(o.run_host_s);
      exp.push_back(o.layers.count("obs.export_s") ? o.layers.at("obs.export_s") : 0);
    }
    lay["sim.events_per_host_s"] = lay["sim.events"] / pb::median(run_host);
    lay["obs.export_s"] = pb::median(exp);
    lay["obs.overhead"] = pb::median(thost) / pb::median(run_host);
    for (const char* f : kWorkloadFigures) {
      lay[std::string("wl.") + f] = first.sim.count(f) ? first.sim.at(f) : 0.0;
    }
    std::vector<std::string> names = pb::layer_metric_names();
    for (const char* f : kWorkloadFigures) names.push_back(std::string("wl.") + f);
    for (const std::string& n : names) {
      out.emplace_back(n, lay.count(n) ? lay.at(n) : 0.0);
    }
  }
  std::fflush(stdout);
  print_json(acc.correct, attempted, failed, out);
  return 0;
}

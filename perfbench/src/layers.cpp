// Per-layer metrics of a traced run. Sources are the surfaces the program
// keeps: Engine::stats, the FaultInjector counters, the obs registry, its
// rings, analyzer and exporter, plus the benchmark's own spans around
// public calls. Layers a workload does not use read 0.
#include <algorithm>
#include <limits>
#include <string>

#include "apps/driver.hpp"
#include "obs/analyzer.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace pb {

const std::vector<std::string>& span_metric_names() {
  static const std::vector<std::string> names = {
      // benchmark spans around the program's public calls
      "caf.lock_ns", "caf.unlock_ns", "caf.get_ns", "caf.put_ns",
      "caf.co_sum_team_ns", "caf.form_team_ns", "repl.put_inc_ns",
      "repl.get_count_ns",
      // calls made inside apps::himeno::Solver::run, from the program's
      // own spans and phase markers
      "caf.put_section_ns", "caf.co_sum_ns", "caf.sync_all_ns"};
  return names;
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "sim.events", "sim.switches", "sim.events_per_host_s",
        "sim.slab_allocs", "sim.stack_mb_peak",
        "net.drops", "net.partition_drops", "fd.detect_us", "fd.suspects",
        "fd.false_positives",
        "fabric.msgs_per_op", "fabric.bytes_per_op",
        "rma.quiet_calls", "rma.quiet_elided", "rma.tracked_puts",
        "coll.tree_push", "coll.tree_fallback",
        "serve.lateness_p99_ns", "repl.write_retries", "repl.read_fallbacks",
        "repl.promotions", "repl.ae_pulls",
        "crit.compute_ms", "crit.wire_ms", "crit.quiet_stall_ms",
        "crit.lock_wait_ms", "crit.sync_stall_ms", "crit.coll_stall_ms",
        "himeno.sweep_ms", "himeno.halo_ms", "himeno.residual_ms",
        "himeno.barrier_ms", "himeno.flops", "himeno.bytes_computed",
        "obs.export_s", "obs.trace_mb", "obs.overhead"};
    for (const std::string& s : span_metric_names()) {
      n.push_back(s + ".p50");
      n.push_back(s + ".p99");
      n.push_back(s + ".count");
    }
    return n;
  }();
  return names;
}

namespace {

void put_samples(Metrics& m, const std::string& name, const Samples& s) {
  m[name + ".p50"] = s.p(0.50);
  m[name + ".p99"] = s.p(0.99);
  m[name + ".count"] = static_cast<double>(s.ns.size());
}

double registry_sum(const char* name, int pes) {
  double s = 0;
  for (int pe = 0; pe < pes; ++pe) {
    s += static_cast<double>(obs::registry().value(pe, name));
  }
  return s;
}

}  // namespace

void collect_layers(Outcome& out, driver::Stack& stack, const SpanLog& spans,
                    double ops) {
  Metrics& m = out.layers;
  const int pes = stack.rt().num_images();
  auto& sess = obs::detail::session();

  // Each image's measured phase runs from its "measured" phase marker to
  // its "drain" marker (an image killed mid-phase has none).
  std::uint64_t measured_id = ~0ULL, drain_id = ~0ULL, halo_id = ~0ULL;
  for (std::size_t i = 0; i < sess.phase_names.size(); ++i) {
    if (sess.phase_names[i] == "measured") measured_id = i;
    if (sess.phase_names[i] == "drain") drain_id = i;
    if (sess.phase_names[i] == "halo") halo_id = i;
  }
  std::vector<std::pair<sim::Time, sim::Time>> window(
      sess.rings.size(), {0, std::numeric_limits<sim::Time>::max()});
  for (std::size_t pe = 0; pe < sess.rings.size(); ++pe) {
    sess.rings[pe].for_each([&](const obs::Event& e) {
      if (static_cast<obs::Cat>(e.cat) != obs::Cat::kPhase) return;
      if (e.a == measured_id) window[pe].first = e.t0;
      if (e.a == drain_id) window[pe].second = e.t0;
    });
  }
  auto measured = [&](std::size_t pe, const obs::Event& e) {
    return pe < window.size() && e.t0 >= window[pe].first &&
           e.t0 < window[pe].second;
  };

  const sim::EngineStats es = stack.engine().stats();
  m["sim.events"] = static_cast<double>(es.events);
  m["sim.switches"] = static_cast<double>(es.switches);
  m["sim.slab_allocs"] = static_cast<double>(es.event_slab_allocs);
  m["sim.stack_mb_peak"] = static_cast<double>(es.stack_bytes_peak) / 1e6;

  if (const net::FaultInjector* inj = stack.injector()) {
    m["net.drops"] = static_cast<double>(inj->counters().dropped);
    m["net.partition_drops"] = static_cast<double>(inj->counters().partition_drops);
  }
  const auto& reg = obs::registry();
  const double detects = static_cast<double>(reg.value(0, "fd.detect_count"));
  m["fd.detect_us"] =
      detects > 0
          ? static_cast<double>(reg.value(0, "fd.detect_latency_ns_total")) /
                detects / 1e3
          : 0.0;
  m["fd.suspects"] = static_cast<double>(reg.value(0, "fd.suspects"));
  m["fd.false_positives"] = static_cast<double>(reg.value(0, "fd.false_positives"));

  // Wire records sent during the measured phase, per benchmark operation.
  double msgs = 0, bytes = 0;
  for (std::size_t pe = 0; pe < sess.wire_rings.size(); ++pe) {
    sess.wire_rings[pe].for_each([&](const obs::Event& e) {
      if (!measured(pe, e)) return;
      msgs += 1;
      bytes += static_cast<double>(e.a);
    });
  }
  m["fabric.msgs_per_op"] = ops > 0 ? msgs / ops : 0.0;
  m["fabric.bytes_per_op"] = ops > 0 ? bytes / ops : 0.0;

  for (const char* c : {"rma.quiet_calls", "rma.quiet_elided", "rma.tracked_puts",
                        "coll.tree_push", "coll.tree_fallback",
                        "repl.write_retries", "repl.read_fallbacks",
                        "repl.ae_pulls"}) {
    m[c] = registry_sum(c, pes);
  }
  // Every image's replica map replays the same promotions; report one.
  m["repl.promotions"] = static_cast<double>(reg.value(0, "repl.promotions"));

  for (const std::string& name : span_metric_names()) {
    auto it = spans.recs.find(name);
    put_samples(m, name, it == spans.recs.end() ? Samples{} : it->second.sim);
  }

  // Calls inside the Himeno solver: top-level reduce and barrier spans, and
  // the halo phase (the image's put_section calls) between phase markers.
  Samples reduce, barrier, halo;
  for (std::size_t pe = 0; pe < sess.rings.size(); ++pe) {
    std::vector<obs::Event> marks;
    sess.rings[pe].for_each([&](const obs::Event& e) {
      if (!measured(pe, e)) return;
      const auto cat = static_cast<obs::Cat>(e.cat);
      if (cat == obs::Cat::kPhase) {
        marks.push_back(e);
      } else if (e.depth == 0 && cat == obs::Cat::kReduce) {
        reduce.add(e.t1 - e.t0);
      } else if (e.depth == 0 && cat == obs::Cat::kBarrier) {
        barrier.add(e.t1 - e.t0);
      }
    });
    std::sort(marks.begin(), marks.end(),
              [](const obs::Event& a, const obs::Event& b) { return a.t0 < b.t0; });
    for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
      if (marks[i].a == halo_id) halo.add(marks[i + 1].t0 - marks[i].t0);
    }
  }
  put_samples(m, "caf.co_sum_ns", reduce);
  put_samples(m, "caf.sync_all_ns", barrier);
  put_samples(m, "caf.put_section_ns", halo);

  // Critical path: the analyzer's groups over the measured phase, mean ms
  // per image. Time before the benchmark's "measured" marker is set-up and
  // time after its "drain" marker is the checks.
  const obs::Attribution att = obs::analyze();
  std::array<double, static_cast<std::size_t>(obs::Group::kCount)> g{};
  for (const obs::AttributionRow& row : att.phases) {
    if (row.phase == "(run)" || row.phase == "drain") continue;
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += row.by_group[i];
    for (const char* ph : {"sweep", "halo", "residual", "barrier"}) {
      if (row.phase == ph) {
        m[std::string("himeno.") + ph + "_ms"] = row.wall_ns / pes / 1e6;
      }
    }
  }
  const char* crit[] = {"crit.compute_ms", "crit.wire_ms",
                        "crit.quiet_stall_ms", "crit.lock_wait_ms",
                        "crit.sync_stall_ms", "crit.coll_stall_ms"};
  for (std::size_t i = 0; i < g.size(); ++i) m[crit[i]] = g[i] / pes / 1e6;

  // Export cost of the session's trace.
  const double t0 = host_now();
  const std::string trace = obs::chrome_trace_json();
  m["obs.export_s"] = host_now() - t0;
  m["obs.trace_mb"] = static_cast<double>(trace.size()) / 1e6;
}

}  // namespace pb

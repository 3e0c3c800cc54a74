// Workload `serve`: dht_serve's traffic on XC30 over UHCAF–Cray SHMEM. 26
// images serve a 2-way replicated table (apps::dhtr) to open-loop clients,
// one per surviving image, with Zipf(1.0) keys and 35% puts. The hot shard's primary
// is killed a third of the way into the schedule. Latency is timed from each
// request's due time, so a stall delays every request queued behind it. A
// put that is not acknowledged is retried by its client until it is.
//
// One run goes at the base rate; a fixed failover segment follows, then a
// ladder of higher offered rates, and the highest rate that keeps put p99
// within kPutP99LimitNs without a growing backlog is the workload's capacity.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "apps/dht_replicated.hpp"
#include "apps/driver.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kImages = 26;             // one XC30 node (24) + 2
constexpr int kVictim0 = 3;             // image 4: shard 3's first primary
// The victim serves its shards but runs no client: a client killed while
// blocked in a get gets the reply written into memory its unwound frames
// already freed (fabric::Domain::get), which corrupts the host heap.
constexpr int kClients = kImages - 1;
// In the seeded runs, requests due in the first 200 us after the kill are
// all reads: a put issued while the hot primary is being declared and
// replaced can be acknowledged and then lost, and does so on some seeds
// only (2 of 41). The failover segment keeps those puts instead, on a fixed
// schedule (seed kFailoverSeed's, without the pause) that loses one
// acknowledged put every time; each lost put counts as a failed operation.
constexpr sim::Time kWritePauseNs = 200'000;
constexpr std::uint64_t kFailoverSeed = 104;
// Requests per client. A failover costs host time that varies with the seed
// (each put attempt that fails on the dead primary), so the seeded runs are
// long enough for it to be a small share of their host time.
constexpr int kOpsPerClient = 640;
constexpr int kSaturationOps = 1920;     // per client, at the top rate
constexpr int kFailoverOps = 160;        // the failover segment's
constexpr sim::Time kPeriodNs = 80'000;  // base inter-arrival + U[0, period/2)
constexpr int kPutPercent = 35;
constexpr int kMaxPutAttempts = 10000;
constexpr sim::Time kPutP99LimitNs = 200'000;
/// Offered-rate multipliers of the ladder after the base run.
constexpr double kLadder[] = {1.5, 2, 3, 4, 6, 8};

apps::dhtr::Config table_config() {
  apps::dhtr::Config c;
  c.buckets_per_image = 16;
  c.replication = 2;
  c.locks_per_image = 8;
  c.compute_ns = 200;
  return c;
}

constexpr std::int64_t kKeys = 16 * kImages;

struct Request {
  sim::Time due = 0;
  std::int64_t key = 0;
  bool put = false;
};

struct Schedule {
  sim::Time period = 0;
  sim::Time kill_at = 0;
  double offered_kops = 0;
  std::vector<std::vector<Request>> reqs;  // [image0] in due order
};

/// Per-client open-loop schedules: a random phase, then inter-arrivals of
/// period + U[0, period/2); keys by Zipf(1.0) rank, rank 0 on the victim's
/// shard so the hottest keys lose their primary.
Schedule make_schedule(std::uint64_t seed, double rate_factor,
                       int ops = kOpsPerClient,
                       sim::Time write_pause = kWritePauseNs) {
  Schedule s;
  s.period = static_cast<sim::Time>(std::llround(kPeriodNs / rate_factor));
  const sim::Time jitter = s.period / 2;
  s.kill_at = static_cast<sim::Time>(ops) * (s.period + jitter / 2) / 3;
  s.offered_kops = kClients * 1e6 / static_cast<double>(s.period + jitter / 2);
  std::vector<double> cdf(kKeys);
  double mass = 0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    mass += 1.0 / static_cast<double>(r + 1);
    cdf[r] = mass;
  }
  for (double& c : cdf) c /= mass;
  s.reqs.assign(kImages, {});
  for (int i = 0; i < kImages; ++i) {
    Gen g(mix(seed, 100 + static_cast<std::uint64_t>(i)));
    sim::Time due = static_cast<sim::Time>(g.below(static_cast<std::uint64_t>(s.period)));
    for (int k = 0; k < ops; ++k) {
      due += s.period + static_cast<sim::Time>(g.below(static_cast<std::uint64_t>(jitter)));
      const bool put = g.below(100) < kPutPercent &&
                       (due < s.kill_at || due >= s.kill_at + write_pause);
      auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), g.uniform()) - cdf.begin());
      rank = std::min(rank, cdf.size() - 1);
      const std::int64_t key =
          (kVictim0 * 16 + static_cast<std::int64_t>(rank)) % kKeys;
      s.reqs[i].push_back({due, key, put});
    }
  }
  return s;
}

net::FaultPlan fault_plan(sim::Time kill_at) {
  net::FaultPlan plan;
  plan.retry.max_retransmits = 5;
  plan.retry.rto_min = 2'000;
  plan.retry.rto_max = 20'000;
  plan.fd.heartbeat_period = 10'000;
  plan.fd.miss_threshold = 3;
  plan.fd.suspicion_grace = 50'000;
  plan.kill_pe(kVictim0, kill_at);
  return plan;
}

/// What the checks look at.
struct Out {
  std::vector<std::int64_t> acked;      // acknowledged puts per key
  std::vector<std::int64_t> attempts;   // put_inc calls per key
  std::vector<std::int64_t> count;      // final count per key (-1 unread)
  int under_replicated = 0;             // survivors' re-replication debt
  bool victim_declared = false;
};

/// Checks one run's outputs. With `lost_puts`, acknowledged puts missing
/// from the table are counted there as failed operations (the failover
/// segment) instead of failing the check.
void check(const Out& o, Outcome& out, std::int64_t* lost_puts = nullptr) {
  std::int64_t lost = 0, phantom = 0, unread = 0;
  for (std::int64_t k = 0; k < kKeys; ++k) {
    if (o.attempts[k] == 0) continue;
    if (o.count[k] < 0) {
      ++unread;
    } else if (o.count[k] < o.acked[k]) {
      if (lost_puts != nullptr) {
        *lost_puts += o.acked[k] - o.count[k];
        out.failures.push_back(
            "failover segment: key " + std::to_string(k) + " holds " +
            std::to_string(o.count[k]) + " updates against " +
            std::to_string(o.acked[k]) +
            " acknowledged puts (acknowledged write lost in failover)");
      } else {
        ++lost;
      }
    } else if (o.count[k] > o.attempts[k]) {
      ++phantom;
    }
  }
  out.check(unread == 0, "serve: " + std::to_string(unread) +
                             " written keys unreadable after failover");
  out.check(lost == 0, "serve: " + std::to_string(lost) +
                           " keys hold fewer updates than were acknowledged");
  out.check(phantom == 0, "serve: " + std::to_string(phantom) +
                              " keys hold more updates than were attempted");
  out.check(o.under_replicated == 0,
            "serve: replication factor not restored (" +
                std::to_string(o.under_replicated) + " shards short)");
  out.check(o.victim_declared, "serve: the killed primary was never declared");
}

struct Sample {
  sim::Time due;
  sim::Time lat;  // from due time
  bool put;
};

struct RunResult {
  Out out;
  std::vector<Sample> samples;
  PhaseClock clk;
  std::int64_t attempted = 0;
  std::int64_t unacked = 0;  // puts given up after kMaxPutAttempts
  double run_host_s = 0;     // stack construction to the end of the run
  std::uint64_t events = 0;  // engine events of the run
};

RunResult serve_once(const Schedule& sch, bool traced, Outcome& oc) {
  RunResult res;
  res.out.acked.assign(kKeys, 0);
  res.out.attempts.assign(kKeys, 0);
  res.out.count.assign(kKeys, -1);
  SpanLog spans;
  spans.on = traced;
  if (traced) obs::enable({"", std::size_t{1} << 22});
  res.clk.t_setup0 = host_now();
  driver::Stack stack(driver::StackKind::kShmemCray, kImages,
                      net::Machine::kXC30, 8 << 20, {},
                      fault_plan(sch.kill_at));
  try {
    stack.run([&](caf::Runtime& rt) {
      sim::Engine& eng = *sim::Engine::current();
      const int me = rt.this_image();
      apps::dhtr::ReplicatedTable table(rt, table_config());
      if (me - 1 == kVictim0) {
        eng.advance(sch.kill_at + 1 - eng.now());  // killed here, idle
        return;
      }
      res.clk.begin(eng.now());
      obs::phase("measured");
      sim::Time dt = 0;
      for (const Request& q : sch.reqs[static_cast<std::size_t>(me - 1)]) {
        if (eng.now() < q.due) eng.advance(q.due - eng.now());
        if (spans.on) spans.add("serve.lateness_ns", eng.now() - q.due, 0.0);
        ++res.attempted;
        if (q.put) {
          bool acked = false;
          for (int a = 0; a < kMaxPutAttempts && !acked; ++a) {
            ++res.out.attempts[q.key];
            acked = timed(spans, "repl.put_inc_ns", &dt,
                          [&] { return table.put_inc(q.key); });
            // The ledger lands with the ack, so a client killed after it
            // still counts.
            if (acked) ++res.out.acked[q.key];
          }
          if (!acked) ++res.unacked;
        } else {
          std::int64_t v = 0;
          (void)timed(spans, "repl.get_count_ns", &dt,
                      [&] { return table.get_count(q.key, &v); });
        }
        res.samples.push_back({q.due, eng.now() - q.due, q.put});
      }
      res.clk.end(eng.now());
      obs::phase("drain");
      // Quiesce: let the declaration land, drain re-replication, audit.
      (void)rt.sync_all_stat();
      for (int i = 0; i < 800 && !eng.pe_declared(kVictim0); ++i) {
        eng.advance(10'000);
      }
      for (int round = 0; round < 64; ++round) {
        table.store().anti_entropy();
        if (table.store().under_replicated_local() == 0) break;
        eng.advance(20'000);
      }
      res.out.under_replicated += table.store().under_replicated_local();
      (void)rt.sync_all_stat();
      if (me == 1) {
        for (std::int64_t k = 0; k < kKeys; ++k) {
          std::int64_t c = 0;
          if (table.get_count(k, &c)) res.out.count[k] = c;
        }
      }
    });
  } catch (const std::exception& e) {
    oc.check(false, std::string("serve engine run aborted: ") + e.what());
  }
  res.run_host_s = host_now() - res.clk.t_setup0;
  res.events = stack.engine().stats().events;
  res.out.victim_declared = stack.engine().pe_declared(kVictim0);
  if (traced) {
    collect_layers(oc, stack, spans, static_cast<double>(res.attempted));
    const auto it = spans.recs.find("serve.lateness_ns");
    oc.layers["serve.lateness_p99_ns"] =
        it == spans.recs.end() ? 0.0 : it->second.sim.p(0.99);
    obs::disable();
  }
  return res;
}

double p99_of(const std::vector<Sample>& s, bool put) {
  std::vector<double> v;
  for (const Sample& x : s) {
    if (x.put == put) v.push_back(static_cast<double>(x.lat));
  }
  return percentile(v, 0.99);
}

/// A rate is sustained when put p99 stays within the limit and the last
/// third of the schedule's p99 is no higher than the first third's times
/// kBacklogFactor (a growing backlog raises it without bound; the failover
/// alone moves the hot shard to a remote primary and raises it less).
constexpr double kBacklogFactor = 2.0;

bool sustained(const RunResult& r, double* put_p99) {
  sim::Time last_due = 0;
  for (const Sample& x : r.samples) last_due = std::max(last_due, x.due);
  std::vector<double> first, last;
  for (const Sample& x : r.samples) {
    if (x.due < last_due / 3) first.push_back(static_cast<double>(x.lat));
    if (x.due >= last_due - last_due / 3) last.push_back(static_cast<double>(x.lat));
  }
  *put_p99 = p99_of(r.samples, true);
  return r.unacked == 0 && *put_p99 <= static_cast<double>(kPutP99LimitNs) &&
         percentile(last, 0.99) <= kBacklogFactor * percentile(first, 0.99);
}

struct Episode {
  Outcome outcome;
  Out out;
};

Episode run(std::uint64_t seed, bool traced) {
  Episode ep;
  Outcome& oc = ep.outcome;
  const Schedule base = make_schedule(seed, 1.0);
  RunResult r = serve_once(base, traced, oc);
  oc.run_host_s = r.run_host_s;
  // host_s sums every run's measured phase; setup_s is their median set-up.
  oc.host_s = r.clk.host_s();
  std::vector<double> setups = {r.clk.setup_s()};
  ep.out = r.out;
  check(r.out, oc);
  oc.attempted = r.attempted;
  oc.failed = r.unacked;
  std::int64_t unacked = r.unacked;  // puts given up after retries
  Metrics& x = oc.sim;

  // The failover segment: the same scenario on a fixed schedule with puts
  // due all through the failover.
  {
    RunResult fr = serve_once(make_schedule(kFailoverSeed, 1.0, kFailoverOps, 0),
                              false, oc);
    oc.host_s += fr.clk.host_s();
    setups.push_back(fr.clk.setup_s());
    std::int64_t lost = 0;
    Outcome audit;
    check(fr.out, audit, &lost);
    for (const std::string& e : audit.errors) oc.check(false, "failover segment: " + e);
    oc.failures.insert(oc.failures.end(), audit.failures.begin(), audit.failures.end());
    oc.attempted += fr.attempted;
    oc.failed += fr.unacked + lost;
    unacked += fr.unacked;
    x["failover.put_p99_ns"] = p99_of(fr.samples, true);
    x["failover.lost_puts"] = static_cast<double>(lost);
  }

  // The highest ladder rate reached with every rate up to it sustained
  // (base rate included), and the throughput the top rate draws out: there
  // the clients queue behind the hot shard, so operations completed per
  // simulated second measure its capacity (a longer schedule steadies it).
  double base_put_p99 = 0;
  bool climbing = sustained(r, &base_put_p99);
  double max_rate = climbing ? base.offered_kops : 0;
  for (double f : kLadder) {
    const bool top = f == kLadder[std::size(kLadder) - 1];
    const Schedule s = make_schedule(seed, f, top ? kSaturationOps : kOpsPerClient);
    RunResult lr = serve_once(s, false, oc);
    oc.host_s += lr.clk.host_s();
    setups.push_back(lr.clk.setup_s());
    oc.attempted += lr.attempted;
    oc.failed += lr.unacked;
    unacked += lr.unacked;
    Outcome audit;
    check(lr.out, audit);
    for (const std::string& e : audit.errors) {
      oc.check(false, "ladder x" + std::to_string(f) + ": " + e);
    }
    double p = 0;
    climbing = sustained(lr, &p) && climbing;
    if (climbing) max_rate = s.offered_kops;
    if (top) {
      x["rate_kops"] = static_cast<double>(lr.samples.size()) / lr.clk.sim_ms();
    }
    char key[48];
    std::snprintf(key, sizeof key, "ladder.x%g.put_p99_ns", f);
    x[key] = p;
  }
  oc.setup_s = median(setups);
  if (unacked > 0) {
    oc.failures.push_back(std::to_string(unacked) +
                          " puts never acknowledged after retries");
  }

  std::vector<double> all;
  for (const Sample& s : r.samples) all.push_back(static_cast<double>(s.lat));
  x["sim_ms"] = r.clk.sim_ms();
  x["engine.events"] = static_cast<double>(r.events);
  x["op_p50_ns"] = percentile(all, 0.50);
  x["op_p99_ns"] = percentile(all, 0.99);
  x["get_p99_ns"] = p99_of(r.samples, false);
  x["put_p99_ns"] = base_put_p99;
  x["max_rate_kops"] = max_rate;
  double digest = 0;
  for (std::int64_t k = 0; k < kKeys; ++k) {
    digest += static_cast<double>(r.out.count[k]) * static_cast<double>(k + 1);
  }
  x["out.table_digest"] = digest;
  return ep;
}

std::vector<SelfTestCase> selftest(std::uint64_t seed) {
  Episode ep = run(seed, false);
  std::vector<SelfTestCase> cases;
  cases.push_back({"unmodified outputs pass", ep.outcome.correct});
  auto expect_reject = [&](const std::string& what, auto&& corrupt) {
    Out o = ep.out;
    corrupt(o);
    Outcome t;
    check(o, t);
    cases.push_back({what, !t.correct});  // must be rejected
  };
  auto hot = [](const Out& o) {
    return static_cast<std::size_t>(
        std::max_element(o.acked.begin(), o.acked.end()) - o.acked.begin());
  };
  expect_reject("an acknowledged put lost", [&](Out& o) {
    const auto k = hot(o);
    o.count[k] = o.acked[k] - 1;
  });
  expect_reject("a count above the puts attempted", [&](Out& o) {
    const auto k = hot(o);
    o.count[k] = o.attempts[k] + 1;
  });
  expect_reject("a shard left under-replicated",
                [](Out& o) { o.under_replicated = 1; });
  {
    Out o = ep.out;
    const auto k = hot(o);
    o.count[k] = o.acked[k] - 1;
    Outcome t;
    std::int64_t lost = 0;
    check(o, t, &lost);
    cases.push_back({"a lost put in the failover segment counts as failed",
                     t.correct && lost == 1 && t.failures.size() == 1});
  }
  return cases;
}

}  // namespace

Workload serve_workload() {
  return {"serve",
          [](std::uint64_t seed, bool traced) { return run(seed, traced).outcome; },
          [](std::uint64_t seed) { return selftest(seed); }};
}

}  // namespace pb

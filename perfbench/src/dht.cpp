// Workloads `dht` and `resilient`: Fig 9's lock-based hash-table traffic on
// XC30 over UHCAF–Cray SHMEM with 128 images, without and with faults.
//
// Each image runs rounds of two operations drawn by the benchmark: a locked
// update (lock -> get -> put -> unlock at the key's owner) and an unlocked
// lookup (one get). 40% of keys fall on Fig 9's 4 hot entries. Each round
// ends with a co_sum_team of the round's applied count. `resilient` runs
// the same traffic under the determinism test's fault plan through the
// *_stat calls: operations redirect to the next live owner and retry until
// applied, and a reduction that reports STAT_FAILED_IMAGE is repeated on a
// team re-formed with form_team.
#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "apps/dht.hpp"
#include "apps/driver.hpp"
#include "caf/caf.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kImages = 128;
constexpr std::int64_t kBuckets = 64;  // entries per image
constexpr std::int64_t kKeys = kBuckets * kImages;
constexpr int kLocks = 8;              // entries share locks round-robin
constexpr int kHotPercent = 40;
constexpr std::int64_t kHotKeys = 4;   // Fig 9's 4 hot entries, on one image
constexpr sim::Time kComputeNs = 300;  // hash/compare work per update
constexpr int kRounds = 24;
constexpr int kMaxAttempts = 64;       // per operation, before it counts failed
// The first rounds' keys come from a fixed stream, so the traffic in flight
// when the partition and the kill land is the same for every seed.
constexpr int kFixedRounds = 4;
constexpr std::uint64_t kPrefixSeed = 2;

// Every image starts the measured phase at kStart, so set-up (which takes
// 1.3 ms of simulated time in fault mode) never overlaps the fault plan.
constexpr sim::Time kStart = 2'000'000;

// The determinism test's fault plan at 128 images, its times counted from
// kStart: image 38 (pe 37, node 1) is killed mid-round at 1.2 ms, node 1 is
// cut off from 0.3 to 0.7 ms and healed before the kill, and pe 93
// straggles at 1.7x.
constexpr int kVictim = 38;
constexpr sim::Time kKillAt = kStart + 1'200'000;
// The hot entries live on the victim's slice, so the kill takes the owner
// of the traffic's hottest keys (in `dht` it is just another image).
constexpr std::int64_t kHotBase = (kVictim - 1) * kBuckets;

net::FaultPlan fault_plan() {
  net::FaultPlan plan;
  plan.with_seed(0xD5);
  plan.kill_pe(kVictim - 1, kKillAt);
  plan.partition_nodes({1}, kStart + 300'000, kStart + 700'000);
  plan.straggle_pe(93, 1.7);
  return plan;
}

struct Inputs {
  std::vector<std::vector<std::int64_t>> upd;   // [image0][round]
  std::vector<std::vector<std::int64_t>> look;  // [image0][round]
  std::vector<std::int64_t> sent;               // updates sent per key
};

std::int64_t draw_key(Gen& g) {
  if (g.below(100) < kHotPercent) {
    return kHotBase + static_cast<std::int64_t>(g.below(kHotKeys));
  }
  return static_cast<std::int64_t>(g.below(kKeys));
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.upd.assign(kImages, {});
  in.look.assign(kImages, {});
  in.sent.assign(kKeys, 0);
  for (int i = 0; i < kImages; ++i) {
    Gen fixed(mix(kPrefixSeed, static_cast<std::uint64_t>(i)));
    Gen g(mix(seed, static_cast<std::uint64_t>(i)));
    for (int r = 0; r < kRounds; ++r) {
      Gen& src = r < kFixedRounds ? fixed : g;
      const std::int64_t u = draw_key(src);
      in.upd[i].push_back(u);
      ++in.sent[u];
      in.look[i].push_back(draw_key(src));
    }
  }
  return in;
}

/// One co_sum_team call that returned STAT_OK.
struct Reduction {
  int image = 0;
  int round = 0;
  std::int64_t value = 0;     // what the call returned
  std::int64_t expected = 0;  // sum of the members' recorded contributions
  bool has_victim = false;    // the team still listed the victim
  std::uint64_t team_key = 0; // identifies the member list
};

struct Lookup {
  std::int64_t pos = 0;  // global entry position read: (image-1)*B + bucket
  std::int64_t count = 0;
};

/// Everything the checks look at.
struct Out {
  bool faults = false;
  std::vector<std::int64_t> counts;   // final count per position; -1 = dead
  std::vector<std::int64_t> keys;     // final key field per position
  std::vector<std::int64_t> sent;     // updates the key stream sent per key
  std::vector<std::int64_t> applied;  // survivors' applied updates per position
  std::vector<Lookup> lookups;
  std::vector<Reduction> reductions;
  std::vector<sim::PeFailure> declared;
};

void check(const Out& o, Outcome& out) {
  const std::string tag = o.faults ? "resilient: " : "dht: ";
  if (!o.faults) {
    // Fault-free: every entry holds exactly the updates sent to its key.
    std::int64_t bad = 0;
    for (std::int64_t k = 0; k < kKeys; ++k) {
      if (o.counts[k] != o.sent[k] || (o.sent[k] > 0 && o.keys[k] != k)) ++bad;
    }
    out.check(bad == 0, tag + std::to_string(bad) +
                            " entries differ from the key stream's updates");
    for (const Lookup& l : o.lookups) {
      if (l.count < 0 || l.count > o.counts[l.pos]) {
        out.check(false, tag + "a lookup read a count above the final one");
        break;
      }
    }
  } else {
    // Survivors' applied updates bound each surviving entry from below
    // (a retried update may land twice; none may be lost).
    std::int64_t bad = 0;
    for (std::int64_t p = 0; p < kKeys; ++p) {
      if (o.counts[p] >= 0 && o.applied[p] > o.counts[p]) ++bad;
    }
    out.check(bad == 0, tag + std::to_string(bad) +
                            " entries hold fewer updates than were applied");
    int victim_decl = 0;
    for (const sim::PeFailure& f : o.declared) {
      if (f.pe == kVictim - 1 && f.at >= kKillAt) {
        ++victim_decl;
      } else {
        out.check(false, tag + "image " + std::to_string(f.pe + 1) +
                             " declared failed but was not killed (or "
                             "declared before its kill)");
      }
    }
    out.check(victim_decl == 1, tag + "victim declared " +
                                    std::to_string(victim_decl) + " times");
  }
  // Every STAT_OK reduction is the sum of its members' contributions, and
  // all members of one round's team agree on it.
  for (const Reduction& r : o.reductions) {
    if (r.value != r.expected) {
      out.check(false, tag + "round " + std::to_string(r.round) + " image " +
                           std::to_string(r.image) + " reduced to " +
                           std::to_string(r.value) + ", members sent " +
                           std::to_string(r.expected));
      break;
    }
  }
  std::map<std::pair<int, std::uint64_t>, std::int64_t> agreed;
  for (const Reduction& r : o.reductions) {
    const auto [it, fresh] = agreed.emplace(std::make_pair(r.round, r.team_key), r.value);
    if (!fresh && it->second != r.value) {
      out.check(false, tag + "members disagree on round " +
                           std::to_string(r.round) + "'s reduction");
      break;
    }
  }
  if (!o.faults) {
    const auto want = static_cast<std::size_t>(kRounds) * kImages;
    out.check(o.reductions.size() == want,
              tag + "only " + std::to_string(o.reductions.size()) +
                  " reductions returned STAT_OK");
  }
}

struct Shared {
  const Inputs* in = nullptr;
  bool faults = false;
  PhaseClock clk;
  SpanLog spans;
  Samples update_lat, lookup_lat, coll_lat;
  std::vector<std::vector<std::int64_t>> contrib;  // [image0][round]
  std::vector<Reduction> reductions;
  std::vector<Lookup> lookups;
  std::vector<std::int64_t> applied;
  std::vector<std::int64_t> counts, keys;
  std::vector<sim::Time> first_ok_after_kill;  // per image0; 0 = none
  std::int64_t ops_done = 0;
  std::int64_t attempted = 0;
  std::int64_t unapplied = 0;
  std::int64_t reduction_retries = 0;
  std::int64_t unreduced = 0;  // rounds whose reduction never returned OK
  bool setup_overrun = false;
};

void image_body(caf::Runtime& rt, Shared& sh) {
  using apps::dht::Entry;
  sim::Engine& eng = *sim::Engine::current();
  const int me = rt.this_image();
  const int n = rt.num_images();
  const std::uint64_t data_off =
      rt.allocate_coarray_bytes(static_cast<std::size_t>(kBuckets) * sizeof(Entry));
  std::memset(rt.local_addr(data_off), 0,
              static_cast<std::size_t>(kBuckets) * sizeof(Entry));
  std::vector<caf::CoLock> locks;
  for (int i = 0; i < kLocks; ++i) locks.push_back(rt.make_lock());
  caf::Team team = rt.form_team();
  rt.sync_all();

  const auto& upd = sh.in->upd[static_cast<std::size_t>(me - 1)];
  const auto& look = sh.in->look[static_cast<std::size_t>(me - 1)];
  auto& contrib = sh.contrib[static_cast<std::size_t>(me - 1)];
  auto live_from = [&](int owner) {
    for (int d = 0; d < n; ++d) {
      const int cand = (owner - 1 + d) % n + 1;
      if (rt.image_status(cand) == caf::kStatOk) return cand;
    }
    return 0;
  };
  auto entry_off = [&](std::int64_t bucket) {
    return data_off + static_cast<std::uint64_t>(bucket) * sizeof(Entry);
  };
  SpanLog& sp = sh.spans;
  sim::Time dt = 0;

  // Fault-free update: lock -> get -> put -> unlock at the owner.
  auto update = [&](std::int64_t key) -> int {
    const int owner = static_cast<int>(key / kBuckets) + 1;
    const std::int64_t bucket = key % kBuckets;
    const caf::CoLock lck = locks[static_cast<std::size_t>(bucket % kLocks)];
    timed(sp, "caf.lock_ns", &dt, [&] { rt.lock(lck, owner); });
    Entry e{};
    timed(sp, "caf.get_ns", &dt,
          [&] { rt.get_bytes(&e, owner, entry_off(bucket), sizeof e); });
    eng.advance(kComputeNs);
    e.key = key;
    e.count += 1;
    timed(sp, "caf.put_ns", &dt,
          [&] { rt.put_bytes(owner, entry_off(bucket), &e, sizeof e); });
    timed(sp, "caf.unlock_ns", &dt, [&] { rt.unlock(lck, owner); });
    return owner;
  };
  // Fault-mode update: redirect to the next live owner, retry until applied.
  auto update_stat = [&](std::int64_t key) -> int {
    const int owner = static_cast<int>(key / kBuckets) + 1;
    const std::int64_t bucket = key % kBuckets;
    const caf::CoLock lck = locks[static_cast<std::size_t>(bucket % kLocks)];
    for (int a = 0; a < kMaxAttempts; ++a) {
      const int target = live_from(owner);
      if (target == 0) return 0;
      const int lst =
          timed(sp, "caf.lock_ns", &dt, [&] { return rt.lock_stat(lck, target); });
      if (lst == caf::kStatFailedImage &&
          rt.image_status(target) != caf::kStatOk) {
        (void)rt.unlock_stat(lck, target);
        continue;  // the target died under us
      }
      if (lst != caf::kStatOk && lst != caf::kStatFailedImage) continue;
      Entry e{};
      bool ok = timed(sp, "caf.get_ns", &dt, [&] {
                  return rt.get_bytes_stat(&e, target, entry_off(bucket), sizeof e);
                }) == caf::kStatOk;
      if (ok) {
        eng.advance(kComputeNs);
        e.key = key;
        e.count += 1;
        ok = timed(sp, "caf.put_ns", &dt, [&] {
               return rt.put_bytes_stat(target, entry_off(bucket), &e, sizeof e);
             }) == caf::kStatOk;
      }
      timed(sp, "caf.unlock_ns", &dt, [&] { return rt.unlock_stat(lck, target); });
      if (ok) return target;
    }
    return 0;
  };
  auto lookup = [&](std::int64_t key, std::int64_t* pos) -> bool {
    const int owner = static_cast<int>(key / kBuckets) + 1;
    const std::int64_t bucket = key % kBuckets;
    Entry e{};
    for (int a = 0; a < kMaxAttempts; ++a) {
      const int target = sh.faults ? live_from(owner) : owner;
      if (target == 0) return false;
      int st = caf::kStatOk;
      timed(sp, "caf.get_ns", &dt, [&] {
        if (sh.faults) {
          st = rt.get_bytes_stat(&e, target, entry_off(bucket), sizeof e);
        } else {
          rt.get_bytes(&e, target, entry_off(bucket), sizeof e);
        }
      });
      if (st == caf::kStatOk) {
        *pos = (target - 1) * kBuckets + bucket;
        sh.lookups.push_back({*pos, e.count});
        return true;
      }
    }
    return false;
  };

  if (eng.now() > kStart) {
    sh.setup_overrun = true;
    return;
  }
  eng.advance_to(kStart);
  sh.clk.begin(eng.now());
  obs::phase("measured");
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t key = upd[static_cast<std::size_t>(r)];
    const sim::Time u0 = eng.now();
    ++sh.attempted;
    const int target = sh.faults ? update_stat(key) : update(key);
    std::int64_t applied = 0;
    if (target != 0) {
      sh.update_lat.add(eng.now() - u0);
      ++sh.applied[static_cast<std::size_t>((target - 1) * kBuckets + key % kBuckets)];
      ++sh.ops_done;
      applied = 1;
    } else {
      ++sh.unapplied;
    }
    const sim::Time l0 = eng.now();
    ++sh.attempted;
    std::int64_t pos = 0;
    if (lookup(look[static_cast<std::size_t>(r)], &pos)) {
      sh.lookup_lat.add(eng.now() - l0);
      ++sh.ops_done;
    } else {
      ++sh.unapplied;
    }
    contrib[static_cast<std::size_t>(r)] = applied;
    bool reduced = false;
    for (int a = 0; a < kMaxAttempts && !reduced; ++a) {
      std::int64_t v = applied;
      const sim::Time c0 = eng.now();
      const int st = timed(sp, "caf.co_sum_team_ns", &dt,
                           [&] { return rt.co_sum_team(team, &v, 1); });
      sh.coll_lat.add(eng.now() - c0);
      if (st == caf::kStatOk) {
        Reduction red;
        red.image = me;
        red.round = r;
        red.value = v;
        for (int m : team.members) {
          red.expected += sh.contrib[static_cast<std::size_t>(m - 1)]
                                    [static_cast<std::size_t>(r)];
        }
        red.has_victim = team.contains(kVictim);
        for (int m : team.members) {
          red.team_key = red.team_key * 1'000'003ULL + static_cast<std::uint64_t>(m);
        }
        sh.reductions.push_back(red);
        if (sh.faults && !red.has_victim && eng.now() > kKillAt &&
            sh.first_ok_after_kill[static_cast<std::size_t>(me - 1)] == 0) {
          sh.first_ok_after_kill[static_cast<std::size_t>(me - 1)] = eng.now();
        }
        reduced = true;
        continue;
      }
      ++sh.reduction_retries;
      team = timed(sp, "caf.form_team_ns", &dt, [&] { return rt.form_team(); });
    }
    if (!reduced) ++sh.unreduced;
  }
  sh.clk.end(eng.now());
  obs::phase("drain");

  // Quiesce, then read back this image's slice for the checks.
  if (sh.faults) {
    (void)rt.sync_all_stat();
  } else {
    rt.sync_all();
  }
  const auto* entries = reinterpret_cast<const Entry*>(rt.local_addr(data_off));
  for (std::int64_t b = 0; b < kBuckets; ++b) {
    const auto p = static_cast<std::size_t>((me - 1) * kBuckets + b);
    sh.counts[p] = entries[b].count;
    sh.keys[p] = entries[b].key;
  }
}

struct Episode {
  Outcome outcome;
  Out out;
};

Episode run(std::uint64_t seed, bool traced, bool faults) {
  const Inputs in = make_inputs(seed);
  Shared sh;
  sh.in = &in;
  sh.faults = faults;
  sh.spans.on = traced;
  sh.contrib.assign(kImages, std::vector<std::int64_t>(kRounds, 0));
  sh.applied.assign(kKeys, 0);
  sh.counts.assign(kKeys, -1);
  sh.keys.assign(kKeys, -1);
  sh.first_ok_after_kill.assign(kImages, 0);

  Episode ep;
  Outcome& oc = ep.outcome;
  if (traced) obs::enable({"", std::size_t{1} << 22});
  sh.clk.t_setup0 = host_now();
  driver::Stack stack(driver::StackKind::kShmemCray, kImages,
                      net::Machine::kXC30, 2 << 20, {},
                      faults ? fault_plan() : net::FaultPlan{});
  try {
    stack.run([&](caf::Runtime& rt) { image_body(rt, sh); });
  } catch (const std::exception& e) {
    oc.check(false, std::string("engine run aborted: ") + e.what());
  }
  oc.run_host_s = host_now() - sh.clk.t_setup0;
  oc.check(!sh.setup_overrun, "set-up ran past the fixed start of the measured phase");
  oc.check(sh.unreduced == 0, std::to_string(sh.unreduced) +
                                  " round reductions never returned STAT_OK");
  oc.setup_s = sh.clk.setup_s();
  oc.host_s = sh.clk.host_s();

  Out& o = ep.out;
  o.faults = faults;
  o.counts = sh.counts;
  o.keys = sh.keys;
  o.sent = in.sent;
  o.applied = sh.applied;
  o.lookups = sh.lookups;
  o.reductions = sh.reductions;
  o.declared = stack.engine().declared_failures();
  check(o, oc);

  // Operations issued (the victim issues none after its kill); an operation
  // fails only when it could not be applied after kMaxAttempts tries.
  oc.attempted = sh.attempted;
  oc.failed = sh.unapplied;
  if (sh.unapplied > 0) {
    oc.failures.push_back(std::to_string(sh.unapplied) +
                          " operations not applied after retries");
  }

  const double ops = static_cast<double>(sh.ops_done);
  std::vector<double> all_ops = sh.update_lat.ns;
  all_ops.insert(all_ops.end(), sh.lookup_lat.ns.begin(), sh.lookup_lat.ns.end());
  Metrics& m = oc.sim;
  m["sim_ms"] = sh.clk.sim_ms();
  m["op_p50_ns"] = percentile(all_ops, 0.50);
  m["op_p99_ns"] = percentile(all_ops, 0.99);
  m["rate_kops"] = ops / sh.clk.sim_ms();  // ops per simulated ms = kops/s
  m["update_p50_ns"] = sh.update_lat.p(0.50);
  m["update_p99_ns"] = sh.update_lat.p(0.99);
  m["lookup_p50_ns"] = sh.lookup_lat.p(0.50);
  m["lookup_p99_ns"] = sh.lookup_lat.p(0.99);
  m["coll_p50_ns"] = sh.coll_lat.p(0.50);
  if (faults) {
    sim::Time last = 0;
    int missing = 0;
    for (int i = 0; i < kImages; ++i) {
      if (i == kVictim - 1) continue;
      const sim::Time t = sh.first_ok_after_kill[static_cast<std::size_t>(i)];
      if (t == 0) ++missing;
      last = std::max(last, t);
    }
    oc.check(missing == 0, "resilient: " + std::to_string(missing) +
                               " survivors never reduced on a team without "
                               "the victim");
    m["recovery_us"] = static_cast<double>(last - kKillAt) / 1e3;
    m["reduction_retries"] = static_cast<double>(sh.reduction_retries);
  }
  // Output digest: traced and untraced runs must agree on it exactly.
  double digest = 0;
  for (std::int64_t p = 0; p < kKeys; ++p) {
    digest += static_cast<double>(o.counts[p]) * static_cast<double>(p % 977 + 1);
  }
  m["out.table_digest"] = digest;
  m["out.ok_reductions"] = static_cast<double>(o.reductions.size());
  m["engine.events"] = static_cast<double>(stack.engine().stats().events);

  if (traced) {
    collect_layers(oc, stack, sh.spans, ops);
    obs::disable();
  }
  return ep;
}

std::vector<SelfTestCase> selftest(std::uint64_t seed, bool faults) {
  Episode ep = run(seed, false, faults);
  std::vector<SelfTestCase> cases;
  auto expect_reject = [&](const std::string& what, auto&& corrupt) {
    Out o = ep.out;
    corrupt(o);
    Outcome t;
    check(o, t);
    cases.push_back({what, !t.correct});  // must be rejected
  };
  cases.push_back({"unmodified outputs pass", ep.outcome.correct});
  if (!faults) {
    expect_reject("one entry's final count off by one",
                  [](Out& o) { o.counts[kHotKeys + 7] += 1; });
    expect_reject("a lookup that saw a count no update wrote",
                  [](Out& o) { o.lookups.front().count = o.counts[o.lookups.front().pos] + 1; });
  } else {
    expect_reject("a surviving entry lost an applied update", [](Out& o) {
      for (std::int64_t p = 0; p < kKeys; ++p) {
        if (o.counts[p] >= 0 && o.applied[p] > 0) {
          o.counts[p] = o.applied[p] - 1;
          return;
        }
      }
    });
    expect_reject("a live image declared failed",
                  [](Out& o) { o.declared.push_back({5, kKillAt + 1}); });
    expect_reject("the victim declared before its kill",
                  [](Out& o) { o.declared.front().at = kKillAt - 1; });
    expect_reject("one member disagrees on a post-kill reduction",
                  [](Out& o) {
                    for (Reduction& r : o.reductions) {
                      if (!r.has_victim) {
                        r.value -= 1;
                        r.expected -= 1;
                        return;
                      }
                    }
                  });
  }
  expect_reject("a reduction returned the caller's own value unreduced",
                [](Out& o) { o.reductions.back().value = 1; });
  return cases;
}

}  // namespace

Workload dht_workload() {
  return {"dht",
          [](std::uint64_t seed, bool traced) {
            return run(seed, traced, false).outcome;
          },
          [](std::uint64_t seed) { return selftest(seed, false); }};
}

Workload resilient_workload() {
  return {"resilient",
          [](std::uint64_t seed, bool traced) {
            return run(seed, traced, true).outcome;
          },
          [](std::uint64_t seed) { return selftest(seed, true); }};
}

}  // namespace pb

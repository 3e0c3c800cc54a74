// Workload `himeno`: Fig 10's solver on Stampede over UHCAF–MVAPICH2-X
// SHMEM with naive strided halos. The measured solve is Fig 10's
// 128x64x64 grid, 3 iterations, at 1024 images (32x32). After it the
// 2048-image Fig 10 point is solved and checked in a child process, so it
// feeds no metric, the process's peak resident memory included.
//
// Himeno has no random input: the grid, coefficients and initial field are
// fixed by its definition, so this workload ignores the seed. Its images
// also start the solve together: a start offset of a few microseconds is
// enough to trigger the halo race at 1024 images as well.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "apps/driver.hpp"
#include "apps/himeno.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kImages = 1024;
constexpr int kRaceImages = 2048;
constexpr int kFlopsPerCell = 34;   // Himeno's count per cell update
constexpr int kBytesPerCell = 80;   // 7 stencil loads + 3 work-array moves
constexpr double kRelTol = 1e-9;    // covers reduction order only

apps::himeno::Config fig10_grid() {
  apps::himeno::Config c;
  c.gx = 128;
  c.gy = 64;
  c.gz = 64;
  c.iters = 3;
  return c;
}

/// Plain single-threaded Jacobi of the same grid: the reference residual.
struct Serial {
  double gosa = 0;
  double host_s = 0;
};

Serial serial_reference() {
  static const Serial cached = [] {
    const apps::himeno::Config c = fig10_grid();
    const double t0 = host_now();
    const int nx = c.gx, ny = c.gy, nz = c.gz;
    auto at = [&](int i, int j, int k) {  // 1-based
      return static_cast<std::size_t>(i - 1) +
             static_cast<std::size_t>(nx) *
                 (static_cast<std::size_t>(j - 1) +
                  static_cast<std::size_t>(ny) * static_cast<std::size_t>(k - 1));
    };
    std::vector<double> p(static_cast<std::size_t>(nx) * ny * nz), w(p.size());
    for (int k = 1; k <= nz; ++k) {
      const double kk = static_cast<double>(k - 1) / (nz - 1);
      for (int j = 1; j <= ny; ++j) {
        for (int i = 1; i <= nx; ++i) p[at(i, j, k)] = kk * kk;
      }
    }
    double gosa = 0;
    for (int it = 0; it < c.iters; ++it) {
      gosa = 0;
      for (int k = 2; k < nz; ++k) {
        for (int j = 2; j < ny; ++j) {
          for (int i = 2; i < nx; ++i) {
            const double s0 = p[at(i + 1, j, k)] + p[at(i, j + 1, k)] +
                              p[at(i, j, k + 1)] + p[at(i - 1, j, k)] +
                              p[at(i, j - 1, k)] + p[at(i, j, k - 1)];
            const double ss = s0 / 6.0 - p[at(i, j, k)];
            gosa += ss * ss;
            w[at(i, j, k)] = p[at(i, j, k)] + 0.8 * ss;
          }
        }
      }
      for (int k = 2; k < nz; ++k) {
        for (int j = 2; j < ny; ++j) {
          for (int i = 2; i < nx; ++i) p[at(i, j, k)] = w[at(i, j, k)];
        }
      }
    }
    return Serial{gosa, host_now() - t0};
  }();
  return cached;
}

/// What the check looks at: every image's residual from the measured solve.
struct Out {
  double reference = 0;
  std::vector<double> gosa;  // per image
};

bool residual_ok(const std::vector<double>& g, double ref) {
  if (g.empty()) return false;
  for (double v : g) {
    if (v != g.front()) return false;  // images disagree
  }
  return std::abs(g.front() - ref) <= kRelTol * std::abs(ref);
}

void check(const Out& o, Outcome& out) {
  out.check(residual_ok(o.gosa, o.reference),
            "himeno: 1024-image residual differs from the serial Jacobi");
}

struct Solve {
  std::vector<double> gosa;
  std::vector<sim::Time> latency;  // per image: call to return
  apps::himeno::Result result;     // image 1's
  PhaseClock clk;
  std::uint64_t events = 0;        // engine events of the whole run
  double run_host_s = 0;           // stack construction to the end of the run
};

/// One solve on its own stack.
Solve solve(int images, bool traced, Outcome& oc) {
  const apps::himeno::Config cfg =
      apps::himeno::decompose(fig10_grid(), images);
  caf::Options opts;
  opts.strided = caf::StridedAlgo::kNaive;  // §V-D's best choice
  opts.nonsym_slab_bytes = 64 << 10;
  const std::size_t p_bytes = static_cast<std::size_t>(cfg.gx) *
                              (cfg.gy / cfg.py + 2) * (cfg.gz / cfg.pz + 2) *
                              sizeof(double);
  Solve s;
  s.gosa.assign(static_cast<std::size_t>(images), 0.0);
  s.latency.assign(static_cast<std::size_t>(images), 0);
  SpanLog spans;
  spans.on = traced;
  if (traced) obs::enable({"", std::size_t{1} << 22});
  s.clk.t_setup0 = host_now();
  driver::Stack stack(driver::StackKind::kShmemMvapich, images,
                      net::Machine::kStampede, p_bytes + (1 << 20), opts);
  try {
    stack.run([&](caf::Runtime& rt) {
      sim::Engine& eng = *sim::Engine::current();
      const auto me0 = static_cast<std::size_t>(rt.this_image() - 1);
      apps::himeno::Solver solver(rt, cfg);  // ends with a sync_all
      s.clk.begin(eng.now());
      obs::phase("measured");
      sim::Time dt = 0;
      const apps::himeno::Result r =
          timed(spans, "himeno.run_ns", &dt, [&] { return solver.run(); });
      s.latency[me0] = dt;
      s.clk.end(eng.now());
      obs::phase("drain");
      s.gosa[me0] = r.gosa;
      if (me0 == 0) s.result = r;
    });
  } catch (const std::exception& e) {
    oc.check(false, std::string("himeno engine run aborted: ") + e.what());
  }
  s.run_host_s = host_now() - s.clk.t_setup0;
  s.events = stack.engine().stats().events;
  if (traced) {
    collect_layers(oc, stack, spans, static_cast<double>(images));
    obs::disable();
  }
  return s;
}

/// What the 2048-image solve's child process reports back.
struct RaceReport {
  bool finished = false;  // the child's engine run completed
  bool ok = false;        // residual_ok against the serial reference
  double gosa = 0;        // image 1's residual
};

/// Solves the 2048-image point in a forked child and waits for it. The
/// child's memory never counts in this process's peak resident set.
RaceReport race_solve(double reference) {
  RaceReport rep;
  int fd[2];
  if (pipe(fd) != 0) return rep;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return rep;
  }
  if (pid == 0) {
    close(fd[0]);
    Outcome oc;
    const Solve s = solve(kRaceImages, false, oc);
    const RaceReport r{oc.correct, residual_ok(s.gosa, reference), s.gosa.front()};
    const ssize_t n = write(fd[1], &r, sizeof r);
    _exit(n == static_cast<ssize_t>(sizeof r) ? 0 : 1);
  }
  close(fd[1]);
  RaceReport got;
  std::size_t have = 0;
  auto* dst = reinterpret_cast<char*>(&got);
  while (have < sizeof got) {
    const ssize_t n = read(fd[0], dst + have, sizeof got - have);
    if (n <= 0) break;
    have += static_cast<std::size_t>(n);
  }
  close(fd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  if (have == sizeof got && WIFEXITED(status) && WEXITSTATUS(status) == 0) rep = got;
  return rep;
}

struct Episode {
  Outcome outcome;
  Out out;
};

Episode run(bool traced) {
  Episode ep;
  Outcome& oc = ep.outcome;
  const Serial ref = serial_reference();
  Solve m = solve(kImages, traced, oc);
  oc.run_host_s = m.run_host_s;
  oc.setup_s = m.clk.setup_s();
  oc.host_s = m.clk.host_s();

  // The 2048-image Fig 10 point: its halo exchange races (Solver::run puts
  // ghosts into a neighbour that has not swept yet when an image has no
  // interior cells on its side), so it counts as one failed operation for
  // as long as its residual is wrong.
  const RaceReport race = race_solve(ref.gosa);
  oc.check(race.finished, "himeno: the 2048-image solve did not finish");

  ep.out.reference = ref.gosa;
  ep.out.gosa = m.gosa;
  check(ep.out, oc);
  oc.attempted = 2;
  if (race.finished && !race.ok) {
    oc.failed = 1;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "2048-image solve: residual %.11g, serial %.11g (halo race "
                  "in apps::himeno::Solver::run)",
                  race.gosa, ref.gosa);
    oc.failures.push_back(buf);
  }

  std::vector<double> lat;
  for (sim::Time t : m.latency) lat.push_back(static_cast<double>(t));
  Metrics& x = oc.sim;
  x["sim_ms"] = m.clk.sim_ms();
  x["op_p50_ns"] = percentile(lat, 0.50);
  x["op_p99_ns"] = percentile(lat, 0.99);
  x["rate_kops"] = m.result.mflops * 1e3 / kFlopsPerCell;  // cell updates
  x["mflops"] = m.result.mflops;
  x["coll_p50_ns"] = static_cast<double>(m.result.coll_per_iter);
  x["out.gosa"] = m.gosa.front();
  x["out.race_gosa"] = race.gosa;
  x["engine.events"] = static_cast<double>(m.events);
  oc.notes.push_back("serial Jacobi reference: " + std::to_string(ref.host_s) +
                     " s host");
  if (traced) {
    const apps::himeno::Config c = fig10_grid();
    const double cells = static_cast<double>(c.iters) * (c.gx - 2) *
                         (c.gy - 2) * (c.gz - 2);
    oc.layers["himeno.flops"] = cells * kFlopsPerCell;
    oc.layers["himeno.bytes_computed"] = cells * kBytesPerCell;
  }
  return ep;
}

std::vector<SelfTestCase> selftest() {
  Episode ep = run(false);
  std::vector<SelfTestCase> cases;
  cases.push_back({"unmodified outputs pass", ep.outcome.correct});
  auto expect_reject = [&](const std::string& what, auto&& corrupt) {
    Out o = ep.out;
    corrupt(o);
    Outcome t;
    check(o, t);
    cases.push_back({what, !t.correct});  // must be rejected
  };
  expect_reject("residual off by one part in a million", [](Out& o) {
    for (double& g : o.gosa) g *= 1.0 + 1e-6;
  });
  expect_reject("one image returned another residual",
                [](Out& o) { o.gosa[17] = o.gosa[17] * 0.5; });
  return cases;
}

}  // namespace

Workload himeno_workload() {
  return {"himeno",
          [](std::uint64_t, bool traced) { return run(traced).outcome; },
          [](std::uint64_t) { return selftest(); }};
}

}  // namespace pb

// Randomized cross-path equivalence suite: the production driver runs
// dense or sharded, on the inproc or proc transport, at any batch width
// and worker count, and every combination must match the per-fragment
// reference driver — a combinatorial surface no hand-picked
// configuration list covers. A seeded generator draws (division,
// batch_width, n_shards, transport, workers) tuples and asserts that a
// full solve() reproduces the dense phased per-fragment single-worker
// reference bit for bit — density, effective potential, convergence
// history, charge-patch error and total energy. Deterministic: the
// suite seed is fixed (override with LS3DF_EQUIV_SEED, scale with
// LS3DF_EQUIV_DRAWS), and every failure message carries the seed + draw
// index for replay.
#include <gtest/gtest.h>

#include <atomic>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atoms/builders.h"
#include "common/rng.h"
#include "fragment/ls3df.h"
#include "obs/trace.h"
#include "service/solver_service.h"
#include "transport/thread_transport.h"

namespace ls3df {
namespace {

constexpr std::uint64_t kSuiteSeed = 20260726;

Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

// Cheap-but-real solver settings shared by every draw; only the
// execution knobs below may vary, so every configuration must reproduce
// the same bits.
Ls3dfOptions base_options(int ncells) {
  Ls3dfOptions lo;
  lo.division = {ncells, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;  // fixed iteration count: compare full trajectories
  return lo;
}

struct Draw {
  int ncells;       // division {ncells, 1, 1} on an ncells-cell chain
  int batch_width;  // 0 = the reference driver (dense only)
  int n_shards;     // 0 = dense grid
  TransportKind transport;
  int workers;

  std::string describe(std::uint64_t seed, int index) const {
    std::ostringstream os;
    os << "replay: LS3DF_EQUIV_SEED=" << seed << " draw #" << index
       << " {division=" << ncells << "x1x1 batch_width=" << batch_width
       << " n_shards=" << n_shards << " transport="
       << transport_name(transport) << " workers=" << workers << "}";
    return os.str();
  }
};

Draw random_draw(Rng& rng) {
  Draw d;
  d.ncells = rng.uniform() < 0.75 ? 3 : 4;
  const int widths[] = {0, 1, 2, 4};
  d.batch_width = widths[rng.uniform_int(4)];
  const int shards[] = {0, 0, 1, 2, 3};
  d.n_shards = shards[rng.uniform_int(5)];
  // The reference driver is dense: width 0 is drawn only unsharded.
  if (d.batch_width == 0) d.n_shards = 0;
  // The proc transport forks one worker process per shard; keep it a
  // minority draw so the suite stays fast.
  d.transport = (d.n_shards > 0 && rng.uniform() < 0.3)
                    ? TransportKind::kProc
                    : TransportKind::kInProc;
  const int workers[] = {1, 2, 4};
  d.workers = workers[rng.uniform_int(3)];
  return d;
}

TEST(CrossPathEquivalence, RandomizedDrawsMatchDenseReferenceBitwise) {
  std::uint64_t seed = kSuiteSeed;
  int n_draws = 20;
  if (const char* env = std::getenv("LS3DF_EQUIV_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  if (const char* env = std::getenv("LS3DF_EQUIV_DRAWS"))
    n_draws = std::atoi(env);

  // One reference-driver single-worker solve per division, built lazily.
  std::map<int, Ls3dfResult> refs;
  const auto reference = [&](int ncells) -> const Ls3dfResult& {
    auto it = refs.find(ncells);
    if (it == refs.end()) {
      Structure s = h2_chain(ncells);
      Ls3dfOptions lo = base_options(ncells);
      lo.batch_width = 0;
      lo.n_workers = 1;
      Ls3dfSolver solver(s, lo);
      it = refs.emplace(ncells, solver.solve()).first;
    }
    return it->second;
  };

  Rng rng(seed);
  // The first draws are pinned to the corners a random sweep can miss:
  // the dense path at one and four workers, in-proc and proc sharding,
  // width 1 on the widest-contended shape (many chains, few lanes:
  // retirement actually widens the surviving lanes), and the
  // per-fragment reference itself at two workers.
  std::vector<Draw> draws = {
      {3, 4, 0, TransportKind::kInProc, 1},
      {3, 4, 0, TransportKind::kInProc, 4},
      {3, 2, 3, TransportKind::kInProc, 2},
      {3, 4, 2, TransportKind::kProc, 2},
      {4, 1, 0, TransportKind::kInProc, 4},
      {3, 0, 0, TransportKind::kInProc, 2},
  };
  while (static_cast<int>(draws.size()) < n_draws)
    draws.push_back(random_draw(rng));

  for (int i = 0; i < static_cast<int>(draws.size()); ++i) {
    const Draw& d = draws[i];
    SCOPED_TRACE(d.describe(seed, i));
    const Ls3dfResult& ref = reference(d.ncells);

    Structure s = h2_chain(d.ncells);
    Ls3dfOptions lo = base_options(d.ncells);
    lo.batch_width = d.batch_width;
    lo.n_shards = d.n_shards;
    lo.transport = d.transport;
    lo.n_workers = d.workers;
    Ls3dfSolver solver(s, lo);
    Ls3dfResult r = solver.solve();

    ASSERT_EQ(r.iterations, ref.iterations);
    ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
    for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
      ASSERT_EQ(r.conv_history[k], ref.conv_history[k])
          << "L1 metric differs at iteration " << k;
    ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
    ASSERT_EQ(r.rho.size(), ref.rho.size());
    for (std::size_t k = 0; k < ref.rho.size(); ++k)
      ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
    ASSERT_EQ(r.v_eff.size(), ref.v_eff.size());
    for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
      ASSERT_EQ(r.v_eff[k], ref.v_eff[k])
          << "potential differs at point " << k;
    ASSERT_EQ(r.energy.total, ref.energy.total);
  }
}

// The kill-and-resume dimension: a solve crashed mid-iteration and
// resumed from its latest snapshot must land on the uninterrupted run's
// bits — across the dense path and the sharded path for shard counts
// {2, 4} on both non-SPMD transports. Each configuration is its own
// reference (solver-level equivalence to the dense baseline is the
// suite above); what this dimension pins is that interruption is
// invisible.
TEST(CrossPathEquivalence, KillAndResumeMatchesUninterruptedBitwise) {
  struct Config {
    int n_shards;
    TransportKind transport;
  };
  const Config configs[] = {
      {0, TransportKind::kInProc},
      {2, TransportKind::kInProc},
      {4, TransportKind::kInProc},
      {2, TransportKind::kProc},
      {4, TransportKind::kProc},
  };
  const std::string path = "/tmp/ls3df_test_equiv_resume.snap";

  for (const Config& c : configs) {
    SCOPED_TRACE(std::string("n_shards=") + std::to_string(c.n_shards) +
                 " transport=" + transport_name(c.transport));
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    Structure s = h2_chain(3);
    Ls3dfOptions lo = base_options(3);
    lo.n_shards = c.n_shards;
    lo.transport = c.transport;
    lo.n_workers = 2;
    const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

    // Crash in iteration 2's first batch solve; the iteration-1
    // snapshot (cadence 1) is already committed.
    Ls3dfOptions crash = lo;
    crash.checkpoint.path = path;
    Ls3dfSolver probe(s, crash);
    const int per_iter = static_cast<int>(probe.batches().size());
    std::atomic<int> counter{0};  // bumped from several lanes
    crash.on_batch_solve = [&counter, per_iter](int) {
      if (counter++ == per_iter)
        throw std::runtime_error("injected crash");
    };
    Ls3dfSolver victim(s, crash);
    EXPECT_THROW(victim.solve(), std::runtime_error);

    // A fresh solver (fresh process, in spirit) resumes and must be
    // indistinguishable from never having crashed.
    Ls3dfSolver resumer(s, lo);
    const Ls3dfResult r = resumer.resume(path);
    ASSERT_EQ(r.iterations, ref.iterations);
    ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
    for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
      ASSERT_EQ(r.conv_history[k], ref.conv_history[k])
          << "L1 metric differs at iteration " << k;
    ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
    for (std::size_t k = 0; k < ref.rho.size(); ++k)
      ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
    for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
      ASSERT_EQ(r.v_eff[k], ref.v_eff[k])
          << "potential differs at point " << k;
    ASSERT_EQ(r.energy.total, ref.energy.total);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }
}

void expect_bitwise_equal(const Ls3dfResult& r, const Ls3dfResult& ref) {
  ASSERT_EQ(r.iterations, ref.iterations);
  ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
  for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
    ASSERT_EQ(r.conv_history[k], ref.conv_history[k])
        << "L1 metric differs at iteration " << k;
  ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
  ASSERT_EQ(r.rho.size(), ref.rho.size());
  for (std::size_t k = 0; k < ref.rho.size(); ++k)
    ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
  ASSERT_EQ(r.v_eff.size(), ref.v_eff.size());
  for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
    ASSERT_EQ(r.v_eff[k], ref.v_eff[k])
        << "potential differs at point " << k;
  ASSERT_EQ(r.energy.total, ref.energy.total);
}

// The observability dimension: a trace recorder, the metrics registry
// and the per-iteration progress callback are execution knobs — a solve
// with all of them live must reproduce the untraced bits exactly, on
// the reference driver, the dense and sharded production paths and a
// thread-SPMD group.
TEST(CrossPathEquivalence, TracingAndMetricsAreBitwiseInvisible) {
  const Structure s = h2_chain(3);
  const Ls3dfOptions base = base_options(3);

  struct Config {
    int batch_width;
    int n_shards;
    const char* label;
  };
  for (const Config& c : {Config{0, 0, "reference"},
                          Config{base.batch_width, 0, "dense"},
                          Config{base.batch_width, 2, "sharded"}}) {
    SCOPED_TRACE(c.label);
    Ls3dfOptions lo = base;
    lo.batch_width = c.batch_width;
    lo.n_shards = c.n_shards;
    lo.n_workers = 2;
    Ls3dfResult ref;
    {
      Ls3dfSolver solver(s, lo);
      ref = solver.solve();
    }

    TraceRecorder rec;
    std::vector<double> residuals;
    lo.trace = &rec;
    lo.progress = [&residuals](const Ls3dfProgress& p) {
      EXPECT_EQ(p.iteration, static_cast<int>(residuals.size()) + 1);
      EXPECT_GE(p.wall_s, 0.0);
      residuals.push_back(p.residual);
    };
    Ls3dfSolver solver(s, lo);
    const Ls3dfResult r = solver.solve();
    expect_bitwise_equal(r, ref);

    // The observability layer actually observed the solve...
    EXPECT_GT(rec.total_events(), 0u);
    ASSERT_EQ(residuals.size(), r.conv_history.size());
    for (std::size_t k = 0; k < residuals.size(); ++k)
      EXPECT_EQ(residuals[k], r.conv_history[k]);
    ASSERT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metrics.counters.at("solver.iterations"),
              static_cast<double>(r.iterations));
  }

  // Thread-SPMD: every rank carries its own recorder and registry; the
  // solve must still land on the dense untraced reference's bits.
  Ls3dfResult ref;
  {
    Ls3dfOptions lo = base;
    Ls3dfSolver solver(s, lo);
    ref = solver.solve();
  }
  const int shards = 2;
  auto group = make_thread_spmd_group(shards);
  std::vector<TraceRecorder> recs(shards);
  std::vector<Ls3dfResult> res(shards);
  std::vector<std::thread> threads;
  for (int rk = 0; rk < shards; ++rk)
    threads.emplace_back([&, rk]() {
      Ls3dfOptions o = base;
      o.n_shards = shards;
      o.n_workers = 1;
      o.transport = TransportKind::kThreads;
      o.transport_factory = [&group, rk](int, int, std::size_t) {
        return std::move(group[rk]);
      };
      o.trace = &recs[rk];
      Ls3dfSolver solver(s, o);
      res[rk] = solver.solve();
    });
  for (auto& t : threads) t.join();
  for (int rk = 0; rk < shards; ++rk) {
    SCOPED_TRACE("spmd rank " + std::to_string(rk));
    expect_bitwise_equal(res[rk], ref);
    EXPECT_GT(recs[rk].total_events(), 0u);
    EXPECT_FALSE(res[rk].metrics.empty());
  }
}

// The service dimension: heterogeneous draws submitted to one
// SolverService — concurrent jobs on a shared lane budget, with live
// cross-job donation as finishers leave — must land on the same dense
// single-worker reference bits as their standalone solves. Multi-
// tenancy is an execution knob like worker count: arithmetically
// invisible.
TEST(CrossPathEquivalence, ServiceJobsMatchDenseReferenceBitwise) {
  const std::vector<Draw> draws = {
      {3, 4, 0, TransportKind::kInProc, 4},
      {3, 0, 0, TransportKind::kInProc, 2},
      {4, 1, 0, TransportKind::kInProc, 4},
      {3, 4, 2, TransportKind::kProc, 2},
  };

  std::map<int, Ls3dfResult> refs;
  for (const Draw& d : draws) {
    if (refs.count(d.ncells)) continue;
    Structure s = h2_chain(d.ncells);
    Ls3dfOptions lo = base_options(d.ncells);
    lo.batch_width = 0;
    lo.n_workers = 1;
    refs.emplace(d.ncells, Ls3dfSolver(s, lo).solve());
  }

  SolverServiceOptions so;
  so.total_lanes = 4;
  so.max_concurrent = static_cast<int>(draws.size());
  SolverService service(so);
  std::vector<SolverService::JobId> ids;
  for (const Draw& d : draws) {
    JobSpec spec;
    Ls3dfOptions lo = base_options(d.ncells);
    lo.batch_width = d.batch_width;
    lo.n_shards = d.n_shards;
    lo.transport = d.transport;
    lo.n_workers = d.workers;
    spec.options = lo;
    ids.push_back(service.submit(h2_chain(d.ncells), std::move(spec)));
  }
  service.drain();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(draws[i].describe(0, static_cast<int>(i)));
    const JobStatus st = service.status(ids[i]);
    ASSERT_EQ(st.state, JobState::kDone) << st.error;
    expect_bitwise_equal(service.result(ids[i]), refs.at(draws[i].ncells));
  }
}

}  // namespace
}  // namespace ls3df

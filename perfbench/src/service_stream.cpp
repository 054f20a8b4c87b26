// The service stream probe: an open loop of seeded Poisson arrivals into
// one SolverService, run inside every traced run. It measures
// the service and checkpoint layers; as a workload of its own its
// latencies swung by more than the benchmark's largest bound from run to
// run on a shared host (see perfbench/README.md).
//
// The seed fixes the arrival schedule and the job sequence. Jobs are
// small converged H2-chain solves from a fixed catalogue (3-5 cells,
// three bond lengths, one 2-shard class, one high-priority class). Two
// jobs in five resubmit a configuration first sent at least
// kRepeatDelay seconds earlier, so they warm-start from its converged
// snapshot; the rest are fresh configurations (a fresh solver seed gives
// each its own state fingerprint). Each job's latency runs from its
// scheduled send time, so a late generator or a stall counts against the
// jobs behind it; how late the generator ran is reported too.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "fragment/ls3df.h"
#include "service/solver_service.h"
#include "solve_case.h"

namespace perfbench {

using namespace ls3df;

namespace {

struct JobClass {
  int cells;
  int shards;
  int priority;
};
// Catalogue classes; kBlock fixes their share among fresh jobs (each
// block of ten fresh jobs is a seeded shuffle of this list).
constexpr JobClass kClasses[] = {
    {3, 0, 0}, {4, 0, 0}, {5, 0, 0}, {4, 2, 0}, {3, 0, 2}};
constexpr int kBlock[10] = {0, 0, 0, 1, 1, 2, 2, 3, 3, 4};
constexpr double kBonds[3] = {1.35, 1.40, 1.45};
// Patched total energy (Ha) per (cells - 3, bond index): regression
// values of this code, shared by the dense and 2-shard classes.
constexpr double kEnergyRef[3][3] = {{-2.19281, -2.25470, -2.31062},
                                     {-2.92375, -3.00627, -3.08082},
                                     {-3.65468, -3.75783, -3.85103}};
constexpr double kEnergyTol = 2e-3;
constexpr double kChargeBound = 0.05;

// Offered load. At 5 jobs/s about 3 cold jobs/s arrive. 300 jobs sent at
// once drained at about 17 cold jobs/s on a 4-core 2.1 GHz Xeon, so the
// service runs at about a fifth of its capacity. At twice this rate a
// slow stretch of the host tipped runs into queueing and their p90
// latency tripled.
constexpr double kRate = 5.0;           // arrivals per second
constexpr double kRepeatDelay = 2.0;    // s between a config and its repeat

struct Config {
  int cls;
  int bond;
  std::uint64_t solver_seed;
};

struct Planned {
  double t;     // scheduled send time (s from stream start)
  int config;   // index into the config table
};

// Catalogue chains use 5 Bohr cells.
constexpr double kCell = 5.0;

Ls3dfOptions job_options(const Config& c) {
  const JobClass& k = kClasses[c.cls];
  Ls3dfOptions o;
  o.division = {k.cells, 1, 1};
  o.points_per_cell = 6;
  o.ecut = 0.8;
  o.buffer_points = 3;
  o.extra_bands = 3;
  o.eig.max_iterations = 4;
  o.l1_tol = 1e-2;
  o.max_iterations = 40;
  o.n_shards = k.shards;
  o.n_workers = 4;  // the service's lane allowance clamps it downward
  o.seed = c.solver_seed;
  return o;
}

struct Stream {
  std::vector<Config> configs;
  std::vector<Planned> plan;
};

// round(kRate * seconds) arrivals with exponential gaps: a Poisson stream
// conditioned on its count, so the p90 latency always has enough samples
// beyond it.
Stream make_stream(std::uint64_t seed, double seconds) {
  const int n_jobs = static_cast<int>(std::lround(kRate * seconds));
  Rng rng(seed);
  Stream st;
  std::vector<double> first_sent;
  std::vector<int> block;
  int fresh = 0;
  double t = 0;
  for (int i = 0; i < n_jobs; ++i) {
    t += -std::log(1.0 - rng.uniform()) / kRate;
    std::vector<int> eligible;
    if (i % 5 == 1 || i % 5 == 3)
      for (std::size_t c = 0; c < st.configs.size(); ++c)
        if (first_sent[c] <= t - kRepeatDelay)
          eligible.push_back(static_cast<int>(c));
    if (!eligible.empty()) {
      st.plan.push_back({t, eligible[rng.next_u64() % eligible.size()]});
      continue;
    }
    if (fresh % 10 == 0) {
      block.assign(kBlock, kBlock + 10);
      for (std::size_t j = block.size() - 1; j > 0; --j)
        std::swap(block[j], block[rng.next_u64() % (j + 1)]);
    }
    Config c;
    c.cls = block[fresh % 10];
    c.bond = static_cast<int>(rng.next_u64() % 3);
    c.solver_seed = seed * 1000003ull + static_cast<std::uint64_t>(fresh);
    ++fresh;
    st.configs.push_back(c);
    first_sent.push_back(t);
    st.plan.push_back({t, static_cast<int>(st.configs.size()) - 1});
  }
  return st;
}

SolverServiceOptions service_options(const std::string& ck_dir) {
  SolverServiceOptions so;
  so.total_lanes = 4;
  so.max_concurrent = 2;
  so.checkpoint_dir = ck_dir;
  so.checkpoint_every = 1;
  so.trace_capacity = 0;  // the library's own job tracing stays off
  return so;
}

struct JobOutcome {
  JobStatus status;
  double send_lag = 0;  // actual send - scheduled send
  double latency = 0;   // terminal - scheduled send
  bool ok = false;
};

struct StreamResult {
  std::vector<JobOutcome> jobs;
  std::vector<double> backlog;  // queue depth at each send
  double backlog_end = 0;       // queued + running when the window closed
  double lag_max = 0;
  long lane_donations = 0;
  long retries = 0;
  double ck_writes = NAN, ck_bytes = NAN;
  std::vector<SolverService::JobId> ids;
};

void run_stream(SolverService& svc, const Stream& st, double seconds,
                Tracer& tr, Report& rep, StreamResult& out) {
  std::vector<double> sent;
  Span root(&tr, "service.stream");
  const auto t0 = std::chrono::steady_clock::now();
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(s));
  };
  auto since = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  for (std::size_t i = 0; i < st.plan.size(); ++i) {
    const Planned& p = st.plan[i];
    std::this_thread::sleep_until(at(p.t));
    const Config& c = st.configs[p.config];
    const JobClass& k = kClasses[c.cls];
    JobSpec spec;
    spec.options = job_options(c);
    spec.priority = k.priority;
    const Structure chain = h2_chain(k.cells, kBonds[c.bond], kCell);
    out.backlog.push_back(svc.queue_depth());
    const double s = since();
    {
      Span sp(&tr, "service.submit");
      out.ids.push_back(svc.submit(chain, spec));
    }
    sent.push_back(s);
  }
  std::this_thread::sleep_until(at(seconds));
  out.backlog_end = svc.queue_depth() + svc.running();
  {
    Span sp(&tr, "service.drain");
    svc.drain();
  }
  for (std::size_t i = 0; i < out.ids.size(); ++i) {
    const Planned& p = st.plan[i];
    const Config& c = st.configs[p.config];
    const JobClass& k = kClasses[c.cls];
    JobOutcome o;
    o.status = svc.status(out.ids[i]);
    o.send_lag = sent[i] - p.t;
    o.latency = o.send_lag + o.status.latency_s;
    out.lag_max = std::max(out.lag_max, o.send_lag);
    out.retries += o.status.retries;
    ++rep.attempted;
    if (o.status.state != JobState::kDone) {
      rep.check(false, "job " + std::to_string(i) + " failed: " +
                           o.status.error);
    } else {
      const Ls3dfResult& r = svc.result(out.ids[i]);
      const double ref = kEnergyRef[k.cells - 3][c.bond];
      const bool conv = r.converged;
      const bool charge = r.charge_patch_error <= kChargeBound;
      const bool energy = std::abs(r.energy.total - ref) <= kEnergyTol;
      rep.check(conv, "job " + std::to_string(i) + " did not converge");
      rep.check(charge, "job " + std::to_string(i) + " charge-patch error");
      rep.check(energy, "job " + std::to_string(i) + " energy " +
                            std::to_string(r.energy.total) + " vs " +
                            std::to_string(ref));
      o.ok = conv && charge && energy;
    }
    if (!o.ok) ++rep.failed;
    out.jobs.push_back(o);
  }
  out.lane_donations = svc.lane_donation_events();
  const MetricsSnapshot m = svc.metrics();
  const auto& n = m.counters;
  if (auto it = n.find("jobs.checkpoint.writes"); it != n.end())
    out.ck_writes = it->second;
  if (auto it = n.find("jobs.checkpoint.bytes"); it != n.end())
    out.ck_bytes = it->second;
}

std::vector<double> pick(const StreamResult& s,
                         bool (*pred)(const JobOutcome&),
                         double (*field)(const JobOutcome&)) {
  std::vector<double> v;
  for (const JobOutcome& o : s.jobs)
    if (pred(o)) v.push_back(field(o));
  return v;
}

}  // namespace

void run_service_probe(const Args& a, Tracer& tr, Report& rep) {
  const Stream st = make_stream(a.seed, a.seconds);
  const std::string ck_dir =
      a.workdir + "/service_ck_" + std::to_string(::getpid());
  std::filesystem::remove_all(ck_dir);
  std::filesystem::create_directories(ck_dir);

  for (int i = 0; i < 21; ++i) {
    std::unique_ptr<SolverService> svc;
    Span sp(&tr, "service.setup");
    svc = std::make_unique<SolverService>(service_options(ck_dir));
  }
  StreamResult res;
  {
    SolverService svc(service_options(ck_dir));
    run_stream(svc, st, a.seconds, tr, rep, res);
  }

  auto all = [](const JobOutcome&) { return true; };
  auto cold = [](const JobOutcome& o) { return !o.status.warm_started; };
  auto warm = [](const JobOutcome& o) { return o.status.warm_started; };
  auto latency = [](const JobOutcome& o) { return o.latency; };
  auto run_s = [](const JobOutcome& o) { return o.status.run_s; };
  auto queued = [](const JobOutcome& o) { return o.status.queued_s; };
  auto done = [](const JobOutcome& o) {
    return o.status.state == JobState::kDone;
  };
  const std::vector<double> lat = pick(res, +all, +latency);
  const std::vector<double> qw = pick(res, +all, +queued);
  const double n_jobs = static_cast<double>(res.jobs.size());
  const double n_warm = static_cast<double>(pick(res, +warm, +run_s).size());
  const double n_done = static_cast<double>(pick(res, +done, +run_s).size());
  std::printf("service stream: %zu jobs (%g warm), generator lag max %.4f s, "
              "backlog at window end %g\n",
              res.jobs.size(), n_warm, res.lag_max, res.backlog_end);

  rep.add("service.setup_s", median(tr.durations("service.setup")), "s");
  rep.add("service.job_latency_p50_s", quantile(lat, 0.5), "s");
  rep.add("service.job_latency_p90_s", quantile(lat, 0.9), "s");
  rep.add("service.queue_wait_p50_s", quantile(qw, 0.5), "s");
  rep.add("service.queue_wait_p90_s", quantile(qw, 0.9), "s");
  rep.add("service.run_cold_p50_s", quantile(pick(res, +cold, +run_s), 0.5),
          "s");
  if (n_warm > 0)
    rep.add("service.run_warm_p50_s", quantile(pick(res, +warm, +run_s), 0.5),
            "s");
  rep.add("service.warm_start_ratio", n_warm / n_jobs, "ratio");
  rep.add("service.retries", static_cast<double>(res.retries), "count");
  rep.add("service.lane_donation_events",
          static_cast<double>(res.lane_donations), "count");
  rep.add("service.backlog_max",
          *std::max_element(res.backlog.begin(), res.backlog.end()), "jobs");
  rep.add("service.backlog_end", res.backlog_end, "jobs");
  rep.add("service.generator_lag_max_s", res.lag_max, "s");
  rep.add("service.jobs", n_jobs, "count");
  if (std::isfinite(res.ck_writes))
    rep.add("checkpoint.writes_per_job", res.ck_writes / n_done, "writes/job");
  if (std::isfinite(res.ck_bytes))
    rep.add("checkpoint.bytes_per_job", res.ck_bytes / n_done, "bytes/job");

  // Timed resume of one converged catalogue snapshot: the first cold job
  // that completed.
  for (std::size_t i = 0; i < res.jobs.size(); ++i) {
    const JobOutcome& o = res.jobs[i];
    if (o.status.warm_started || !done(o)) continue;
    const std::string snap =
        ck_dir + "/job" + std::to_string(res.ids[i]) + ".snap";
    if (!std::filesystem::exists(snap)) continue;
    const Config& c = st.configs[st.plan[i].config];
    const JobClass& k = kClasses[c.cls];
    const Structure s = h2_chain(k.cells, kBonds[c.bond], kCell);
    for (int r = 0; r < 5; ++r) {
      Ls3dfSolver solver(s, job_options(c));
      Span sp(&tr, "checkpoint.resume");
      solver.resume(snap);
    }
    rep.add("checkpoint.resume_s", median(tr.durations("checkpoint.resume")),
            "s");
    break;
  }
  std::filesystem::remove_all(ck_dir);
}

}  // namespace perfbench

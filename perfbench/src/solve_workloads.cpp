// The two solve workloads, alloy_scf and chain_sharded.
//
// Untraced runs (--trace 0) repeat {construct Ls3dfSolver; solve()} until
// the run's seconds are spent and report medians of setup_s, solve_s,
// iter_s and scf_iterations, plus peak_rss_mb and ok_ratio.
//
// Traced runs (--trace 1) measure the layers from outside:
//   1. one untraced reference solve() (iterations, energy, iter_s, and
//      the exact per-iteration transport byte counts read from the
//      solver's metrics at each progress callback; a dense workload
//      reads them from a short four-shard solve of the same input);
//   2. the paper's Fig. 2 loop driven through the public phase hooks
//      (gen_vf -> petot_f -> gen_dens -> genpot -> PotentialMixer::mix)
//      under spans, to the same tolerance; it must take the same number
//      of iterations and reach the same energy as step 1;
//   3. kernel probes at the workload's own shapes (kernels.cpp);
//   4. PEtot_F at one worker against the configured four;
//   5. the service stream probe (service_stream.cpp), which does not
//      depend on the workload; every traced run reports every per-layer
//      metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "atoms/builders.h"
#include "common/rng.h"
#include "dft/mixing.h"
#include "grid/sharded_field.h"
#include "poisson/ewald.h"
#include "poisson/poisson.h"
#include "pseudo/pseudopotential.h"
#include "solve_case.h"
#include "xc/lda.h"

namespace perfbench {

using namespace ls3df;

namespace {

// The Fig. 6 ZnTeO model alloy (cells 3x1x1, one O atom) with the Fig. 6
// options.
SolveCase alloy_case(const Structure& s) {
  SolveCase c;
  c.name = "alloy_scf";
  c.structure = s;
  Ls3dfOptions& o = c.options;
  o.division = {3, 1, 1};
  o.points_per_cell = 8;
  o.buffer_points = 4;
  o.ecut = 0.9;
  o.extra_bands = 4;
  o.fragment_smearing = 0.01;
  o.wall_height = 0.0;
  o.atom_margin = 0.0;
  o.eig.max_iterations = 5;
  o.l1_tol = 5e-3;
  o.max_iterations = 40;
  o.n_workers = 4;
  // Regression value of this code on this model, shared by the three O
  // placements (they agree to 1e-5 Ha). Not the direct-LDA oracle: with
  // wall_height 0 LS3DF lies 0.14 Ha below direct LDA here, and the
  // patched charge misses N_e by 0.835 e before the rescale (see
  // perfbench/README.md).
  c.energy_ref = -32.4792;
  c.energy_tol = 2e-3;
  c.charge_bound = 0.9;
  return c;
}

// The three placements of the alloy's O atom over its Te sites, starting
// with the one build_model_znteo picks for the seed. They are
// translations of one another, yet their SCF trajectories take 23 to 29
// iterations, so every untraced run solves all three and seeds compare
// like with like.
std::vector<SolveCase> alloy_placements(std::uint64_t seed) {
  Structure s = build_model_znteo({3, 1, 1}, 1, seed);
  std::vector<Atom*> anions;  // Te sites in atom order, O included
  int first = 0;
  for (Atom& at : s.atoms()) {
    if (at.species == Species::kO) first = static_cast<int>(anions.size());
    if (at.species == Species::kO || at.species == Species::kTe)
      anions.push_back(&at);
  }
  std::vector<SolveCase> out;
  for (std::size_t k = 0; k < anions.size(); ++k) {
    for (Atom* at : anions) at->species = Species::kTe;
    anions[(first + k) % anions.size()]->species = Species::kO;
    out.push_back(alloy_case(s));
  }
  return out;
}

// H2 chain of 16 cells (bond 1.4 Bohr, cell 6 Bohr), sharded four ways
// on the in-process transport. The seed permutes the atom order of the
// input; the physical system is the same for every seed.
SolveCase chain_case(std::uint64_t seed) {
  SolveCase c;
  c.name = "chain_sharded";
  const int cells = 16;
  c.structure = h2_chain(cells, 1.4, 6.0);
  std::vector<Atom>& atoms = c.structure.atoms();
  Rng rng(seed);
  for (std::size_t i = atoms.size() - 1; i > 0; --i)
    std::swap(atoms[i], atoms[rng.next_u64() % (i + 1)]);
  Ls3dfOptions& o = c.options;
  o.division = {cells, 1, 1};
  o.points_per_cell = 8;
  o.ecut = 1.0;
  o.buffer_points = 4;
  o.extra_bands = 3;
  o.eig.max_iterations = 8;
  o.l1_tol = 1e-3;
  o.n_shards = 4;
  o.n_workers = 4;
  // Regression values of this code on this chain.
  c.energy_ref = -11.9503;
  c.energy_tol = 2e-3;
  c.charge_bound = 0.15;
  return c;
}

// Patched total energy of a phase-hook loop, from the same public terms
// Ls3dfSolver::solve() sums.
double patched_energy(const Ls3dfSolver& s, const FieldR& rho) {
  const Lattice& lat = s.structure().lattice();
  const FieldR& vion = s.ionic_potential();
  const double pv = lat.volume() / static_cast<double>(vion.size());
  double eloc = 0;
  for (std::size_t i = 0; i < rho.size(); ++i) eloc += vion[i] * rho[i];
  return s.patched_kinetic_energy() + s.patched_nonlocal_energy() +
         eloc * pv + solve_poisson(rho, lat).energy +
         lda_xc_field(rho, pv).energy + ewald_energy(s.structure());
}

// Constructions timed per solve. Spreading the set-up samples over the
// whole run, instead of taking them back to back, keeps one stretch of
// host load from deciding setup_s.
constexpr int kSetupsPerSolve = 4;

// Repeats rounds over `cases` (one construct + solve() each) until the
// run's seconds are spent; only whole rounds are measured.
Report run_untraced(const std::vector<SolveCase>& cases, const Args& a) {
  Report rep;
  std::vector<double> setup, solve, iter, iters;
  const double t_end = now_s() + a.seconds;
  do {
    for (const SolveCase& c : cases) {
      std::unique_ptr<Ls3dfSolver> solver;
      for (int k = 0; k < kSetupsPerSolve; ++k) {
        solver.reset();
        const double t0 = now_s();
        solver = std::make_unique<Ls3dfSolver>(c.structure, c.options);
        setup.push_back(now_s() - t0);
      }
      const double t0 = now_s();
      const Ls3dfResult res = solver->solve();
      const double s = now_s() - t0;
      ++rep.attempted;
      if (!check_solve(c, res.converged, res.charge_patch_error,
                       res.energy.total, rep))
        ++rep.failed;
      std::fprintf(stderr, "%s: solve %.3f s, %d iterations, E = %.6f Ha\n",
                   c.name.c_str(), s, res.iterations, res.energy.total);
      solve.push_back(s);
      iter.push_back(s / std::max(1, res.iterations));
      iters.push_back(res.iterations);
    }
  } while (now_s() < t_end);
  rep.add("setup_s", median(setup), "s");
  rep.add("solve_s", median(solve), "s");
  rep.add("iter_s", median(iter), "s");
  rep.add("scf_iterations", median(iters), "count");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.add("ok_ratio",
          static_cast<double>(rep.attempted - rep.failed) / rep.attempted,
          "ratio");
  return rep;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Median per-iteration increment of a solver counter sampled at every
// progress callback; NaN when the counter never appeared.
double per_iteration(const std::vector<double>& cumulative) {
  std::vector<double> d;
  for (std::size_t i = 1; i < cumulative.size(); ++i)
    d.push_back(cumulative[i] - cumulative[i - 1]);
  return median(d);
}

// Solves once, sampling the solver's cumulative transport byte counters
// at every progress callback (NaN while a counter is absent).
Ls3dfResult solve_counting_bytes(const Structure& st, const Ls3dfOptions& o,
                                 std::vector<double>& a2a,
                                 std::vector<double>& ag) {
  Ls3dfSolver solver(st, o);
  const Ls3dfSolver* sp = &solver;
  solver.set_progress([&](const Ls3dfProgress&) {
    const MetricsSnapshot m = sp->metrics();
    auto get = [&](const char* k) {
      auto it = m.counters.find(k);
      return it == m.counters.end() ? NAN : it->second;
    };
    a2a.push_back(get("transport.alltoallv_bytes"));
    ag.push_back(get("transport.allgather_bytes"));
  });
  return solver.solve();
}

// Outer iterations of the four-shard transport probe of a dense workload;
// the byte counts are the same in every iteration.
constexpr int kTransportProbeIterations = 3;

// `extra` runs last, under the same tracer (the service stream probe).
Report run_traced(const SolveCase& c, const Args& a,
                  void (*extra)(const Args&, Tracer&, Report&) = nullptr) {
  Report rep;
  Tracer tr(a.seed);

  // 1. Untraced reference solve.
  std::vector<double> a2a, ag;
  const double ref_t0 = now_s();
  const Ls3dfResult ref = solve_counting_bytes(c.structure, c.options, a2a, ag);
  const double ref_iter_s = (now_s() - ref_t0) / std::max(1, ref.iterations);
  ++rep.attempted;
  if (!check_solve(c, ref.converged, ref.charge_patch_error, ref.energy.total,
                   rep))
    ++rep.failed;
  // A dense workload never touches the transport; its transport figures
  // come from a short four-shard solve of the same input.
  if (c.options.n_shards == 0) {
    Ls3dfOptions o = c.options;
    o.n_shards = 4;
    o.max_iterations = kTransportProbeIterations;
    a2a.clear();
    ag.clear();
    solve_counting_bytes(c.structure, o, a2a, ag);
  }

  // 2. The Fig. 2 loop through the phase hooks, under spans.
  std::unique_ptr<Ls3dfSolver> solver;
  {
    Span s(&tr, "fragment.setup");
    solver = std::make_unique<Ls3dfSolver>(c.structure, c.options);
  }
  const Lattice& lat = c.structure.lattice();
  const Vec3i grid = solver->global_grid();
  const double pv =
      lat.volume() / static_cast<double>(solver->ionic_potential().size());
  const double n_el = c.structure.num_electrons();
  FieldR v_in = solver->genpot(build_initial_density(c.structure, grid));
  PotentialMixer mixer(c.options.mixer, c.options.mix_alpha, lat, grid);
  FieldR rho;
  double charge_error = 0;
  bool converged = false;
  int iterations = 0;
  const double loop_t0 = now_s();
  {
    Span run(&tr, "fragment.solve_loop");
    for (int it = 0; it < c.options.max_iterations && !converged; ++it) {
      Span is(&tr, "fragment.iteration");
      iterations = it + 1;
      {
        Span s(&tr, "fragment.gen_vf");
        solver->gen_vf(v_in);
      }
      {
        Span s(&tr, "fragment.petot_f");
        solver->petot_f();
      }
      {
        Span s(&tr, "fragment.gen_dens");
        rho = solver->gen_dens();
        const double total = plane_sum(rho) * pv;
        charge_error = std::abs(total - n_el);
        if (total > 0) rho *= n_el / total;
      }
      FieldR v_out;
      {
        Span s(&tr, "fragment.genpot");
        v_out = solver->genpot(rho);
      }
      const double l1 = plane_l1(v_out, v_in) * pv;
      if (l1 < c.options.l1_tol) {
        converged = true;
      } else {
        Span s(&tr, "dft.mix");
        v_in = mixer.mix(v_in, v_out);
      }
    }
  }
  const double loop_s = now_s() - loop_t0;
  const double energy = patched_energy(*solver, rho);
  ++rep.attempted;
  const bool ok = check_solve(c, converged, charge_error, energy, rep);
  const bool same_work = iterations == ref.iterations &&
                         std::abs(energy - ref.energy.total) <= c.energy_tol;
  rep.check(same_work, "traced loop: " + std::to_string(iterations) +
                           " iterations, E = " + std::to_string(energy) +
                           " Ha; untraced solve: " +
                           std::to_string(ref.iterations) + ", " +
                           std::to_string(ref.energy.total) + " Ha");
  if (!ok || !same_work) ++rep.failed;

  rep.add("fragment.gen_vf_s", median(tr.durations("fragment.gen_vf")), "s");
  rep.add("fragment.petot_f_s", median(tr.durations("fragment.petot_f")),
          "s");
  rep.add("fragment.gen_dens_s", median(tr.durations("fragment.gen_dens")),
          "s");
  rep.add("fragment.genpot_s", median(tr.durations("fragment.genpot")), "s");
  rep.add("dft.mix_s", median(tr.durations("dft.mix")), "s");
  rep.add("fragment.petot_f_share",
          sum(tr.durations("fragment.petot_f")) /
              sum(tr.durations("fragment.iteration")),
          "ratio");
  rep.add("bench.trace_overhead",
          (loop_s / std::max(1, iterations)) / ref_iter_s - 1.0, "ratio");

  // Program-made counters, reported only where the program measures them.
  rep.add("parallel.overlap_fraction", ref.overlap_fraction, "ratio");
  {
    auto it = ref.metrics.gauges.find("solver.donated_lane_events");
    if (it != ref.metrics.gauges.end())
      rep.add("parallel.donated_lane_events", it->second, "count");
  }
  if (const double b = per_iteration(a2a); std::isfinite(b))
    rep.add("transport.alltoallv_bytes_per_iter", b, "bytes/iter");
  if (const double b = per_iteration(ag); std::isfinite(b))
    rep.add("transport.allgather_bytes_per_iter", b, "bytes/iter");

  // 3. Kernels at this workload's shapes.
  run_kernel_probes(c, *solver, tr, rep);

  // 4. PEtot_F at one worker over the same call at the configured width.
  // Both instances start from the same potential and warm up with one
  // call, so call k does identical arithmetic on both.
  {
    Ls3dfOptions o1 = c.options;
    o1.n_workers = 1;
    Ls3dfSolver w1(c.structure, o1), wn(c.structure, c.options);
    const FieldR v0 = w1.genpot(build_initial_density(c.structure, grid));
    w1.gen_vf(v0);
    wn.gen_vf(v0);
    w1.petot_f();
    wn.petot_f();
    for (int k = 0; k < 3; ++k) {
      {
        Span s(&tr, "parallel.petot_f_w1");
        w1.petot_f();
      }
      {
        Span s(&tr, "parallel.petot_f_wn");
        wn.petot_f();
      }
    }
    const double t1 = median(tr.durations("parallel.petot_f_w1"));
    const double speedup = t1 / median(tr.durations("parallel.petot_f_wn"));
    rep.add("parallel.petot_f_w1_s", t1, "s");
    rep.add("parallel.petot_f_speedup", speedup, "ratio");
    rep.add("parallel.petot_f_efficiency", speedup / c.options.n_workers,
            "ratio");
  }

  if (extra) extra(a, tr, rep);
  tr.write(a.workdir + "/trace_" + c.name + "_seed" + std::to_string(a.seed) +
           ".json");
  return rep;
}

}  // namespace

Structure h2_chain(int cells, double bond, double cell) {
  Structure s(Lattice({cell * cells, cell, cell}));
  for (int i = 0; i < cells; ++i) {
    const double mid = cell * i + 0.5 * cell;
    s.add_atom(Species::kH, {mid - 0.5 * bond, 0.5 * cell, 0.5 * cell});
    s.add_atom(Species::kH, {mid + 0.5 * bond, 0.5 * cell, 0.5 * cell});
  }
  return s;
}

bool check_solve(const SolveCase& c, bool converged, double charge_error,
                 double energy, Report& r) {
  const bool conv_ok = converged;
  const bool charge_ok = charge_error <= c.charge_bound;
  const bool energy_ok = std::abs(energy - c.energy_ref) <= c.energy_tol;
  r.check(conv_ok, c.name + ": SCF did not converge");
  r.check(charge_ok, c.name + ": charge-patch error " +
                         std::to_string(charge_error) + " e above bound");
  r.check(energy_ok, c.name + ": energy " + std::to_string(energy) +
                         " Ha outside reference " +
                         std::to_string(c.energy_ref) + " +- " +
                         std::to_string(c.energy_tol));
  return conv_ok && charge_ok && energy_ok;
}

Report run_alloy_scf(const Args& a) {
  if (a.trace)
    return run_traced(alloy_case(build_model_znteo({3, 1, 1}, 1, a.seed)), a,
                      run_service_probe);
  return run_untraced(alloy_placements(a.seed), a);
}

Report run_chain_sharded(const Args& a) {
  const SolveCase c = chain_case(a.seed);
  return a.trace ? run_traced(c, a, run_service_probe) : run_untraced({c}, a);
}

}  // namespace perfbench

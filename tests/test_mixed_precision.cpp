// Mixed-precision fast path tests. The fp32 batched Davidson stack is the
// one execution path exempt from the bit-identity contract; its guard is
// trajectory equivalence instead: fp32 eigenvalues must approximate the
// fp64 ones to single-precision accuracy, and a kMixed LS3DF solve must
// reach the same converged answer as the all-fp64 reference within a
// couple of extra outer iterations (the paper's Fig. 6 convergence
// picture must survive the cheap early iterations). kDouble stays the
// default, and with the default options nothing fp32 ever runs.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "atoms/builders.h"
#include "dft/eigensolver.h"
#include "dft/hamiltonian.h"
#include "fragment/ls3df.h"

namespace ls3df {
namespace {

Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

Ls3dfOptions chain_options(int ncells) {
  Ls3dfOptions lo;
  lo.division = {ncells, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 8;
  lo.batch_width = 2;
  lo.max_iterations = 30;
  lo.l1_tol = 1e-3;
  return lo;
}

TEST(MixedPrecision, Fp32BatchedSolveApproximatesFp64Eigenvalues) {
  // Same batch through both drivers: the fp32 stack must land on the
  // fp64 spectrum to single-precision accuracy. Residuals floor at the
  // fp32 tolerance, so compare eigenvalues, not bits.
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<MatC> psis64, psis32;
  const int nb = 5;
  for (int t = 0; t < 3; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0 + 0.6 * t, 2.0, 2.0});
    s.add_atom(Species::kTe, {2.0 + 0.6 * t, 2.0, 4.5});
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    psis64.push_back(random_wavefunctions(gv, nb, 500 + t));
    psis32.push_back(psis64.back());
  }

  const EigensolverOptions opt{25, 1e-7, true};
  for (int workers : {1, 4}) {
    std::vector<MatC> p64 = psis64, p32 = psis32;
    std::vector<FragmentSolve> f64, f32;
    for (int t = 0; t < 3; ++t) {
      f64.push_back({hams[t].get(), &p64[t]});
      f32.push_back({hams[t].get(), &p32[t]});
    }
    BatchWorkspace ws64, ws32;
    std::vector<EigensolverResult> r64 =
        solve_all_band_batched(f64, opt, ws64, workers);
    std::vector<EigensolverResult> r32 =
        solve_all_band_batched<float>(f32, opt, ws32, workers);
    ASSERT_EQ(r32.size(), r64.size());
    for (int t = 0; t < 3; ++t) {
      ASSERT_EQ(r32[t].eigenvalues.size(), r64[t].eigenvalues.size());
      for (std::size_t j = 0; j < r64[t].eigenvalues.size(); ++j)
        EXPECT_NEAR(r32[t].eigenvalues[j], r64[t].eigenvalues[j], 5e-4)
            << "member " << t << " band " << j << " workers=" << workers;
      // The rounded-back wavefunctions live on the double grid and feed
      // the (double) density phase: they must be orthonormal in double.
      MatC S = overlap(p32[t], p32[t]);
      for (int i = 0; i < nb; ++i)
        for (int j = 0; j < nb; ++j)
          EXPECT_LT(std::abs(S(i, j) -
                             std::complex<double>(i == j ? 1 : 0, 0)),
                    1e-4)
              << "member " << t;
    }
  }
}

TEST(MixedPrecision, Fp32BatchedBitIdenticalAcrossWorkersAndWidths) {
  // The fp32 driver is exempt from matching fp64, not from the
  // scheduling contract: a 3-member fp32 batch must reproduce three solo
  // fp32 solves bit for bit at any worker count and under a live-lane
  // schedule that changes width between sweeps.
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<MatC> guesses;
  for (int t = 0; t < 3; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0 + 0.6 * t, 2.0, 2.0});
    s.add_atom(Species::kTe, {2.0 + 0.6 * t, 2.0, 4.5});
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    guesses.push_back(random_wavefunctions(gv, 5, 500 + t));
  }
  const EigensolverOptions opt{25, 1e-7, true};

  std::vector<MatC> solo_psi = guesses;
  std::vector<EigensolverResult> solo;
  for (int t = 0; t < 3; ++t) {
    BatchWorkspace ws;
    std::vector<FragmentSolve> one{{hams[t].get(), &solo_psi[t]}};
    solo.push_back(solve_all_band_batched<float>(one, opt, ws)[0]);
  }

  int reads = 0;
  const std::function<int()> cycling = [&reads]() { return 1 + reads++ % 4; };
  for (int schedule = 0; schedule < 3; ++schedule) {
    const int workers = schedule == 1 ? 4 : 1;
    std::vector<MatC> psi = guesses;
    std::vector<FragmentSolve> frags;
    for (int t = 0; t < 3; ++t) frags.push_back({hams[t].get(), &psi[t]});
    BatchWorkspace ws;
    const std::vector<EigensolverResult> r = solve_all_band_batched<float>(
        frags, opt, ws, workers, schedule == 2 ? cycling : nullptr);
    for (int t = 0; t < 3; ++t) {
      ASSERT_EQ(r[t].iterations, solo[t].iterations) << "schedule " << schedule;
      ASSERT_EQ(r[t].eigenvalues, solo[t].eigenvalues)
          << "member " << t << " schedule " << schedule;
      ASSERT_EQ(r[t].max_residual, solo[t].max_residual);
      for (std::size_t i = 0; i < psi[t].size(); ++i)
        ASSERT_EQ(psi[t].data()[i], solo_psi[t].data()[i])
            << "member " << t << " schedule " << schedule << " i=" << i;
    }
  }
  EXPECT_GT(reads, 4);
}

TEST(MixedPrecision, Fp32SteadyStateAllocatesNothing) {
  // The fp32 arenas obey the same grow-only discipline as the double
  // ones: repeated solves of one batch composition allocate only once.
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  Structure s(lat);
  s.add_atom(Species::kZn, {2.0, 2.0, 2.0});
  s.add_atom(Species::kTe, {2.0, 2.0, 4.5});
  GVectors gv(lat, grid, 1.2);
  Hamiltonian h(s, gv);
  BatchWorkspace ws;
  const EigensolverOptions opt{6, 1e-9, true};
  long after_first = -1;
  for (int rep = 0; rep < 3; ++rep) {
    MatC psi = random_wavefunctions(gv, 4, 9 + rep);
    std::vector<FragmentSolve> frags{{&h, &psi}};
    solve_all_band_batched<float>(frags, opt, ws);
    if (rep == 0) {
      after_first = ws.allocations();
      EXPECT_GT(after_first, 0);
    } else {
      EXPECT_EQ(ws.allocations(), after_first) << "rep " << rep;
    }
  }
}

TEST(MixedPrecision, MixedSolveConvergesLikeFp64) {
  // The acceptance contract: kMixed reaches the same converged answer,
  // within tolerance, spending at most two extra outer iterations — the
  // fp32 iterations advance the SCF like real iterations, they are just
  // cheaper. The promotion threshold hands the tail back to fp64, so the *final*
  // iterations (and the converged potential) are full precision.
  Structure s = h2_chain(3);
  Ls3dfOptions ref_opts = chain_options(3);
  Ls3dfSolver ref_solver(s, ref_opts);
  Ls3dfResult ref = ref_solver.solve();
  ASSERT_TRUE(ref.converged);

  Ls3dfOptions mixed_opts = chain_options(3);
  mixed_opts.precision = Precision::kMixed;
  Ls3dfSolver mixed_solver(h2_chain(3), mixed_opts);
  Ls3dfResult mixed = mixed_solver.solve();
  EXPECT_TRUE(mixed.converged);
  EXPECT_LE(mixed.iterations, ref.iterations + 2);
  EXPECT_NEAR(mixed.energy.total, ref.energy.total,
              1e-4 * std::max(1.0, std::abs(ref.energy.total)));
  // fp32 iterations actually ran: their measured-cost EMA is populated
  // (the scheduler learned a separate fp32 cost model) ...
  bool fp32_ran = false;
  for (double m : mixed_solver.measured_fragment_seconds_f32())
    fp32_ran = fp32_ran || m >= 0.0;
  EXPECT_TRUE(fp32_ran);
  // ... and the run finished back in fp64 (promotion happened).
  EXPECT_FALSE(mixed_solver.fp32_iteration_active());
}

TEST(MixedPrecision, DoubleIsDefaultAndMixedOptInChangesNothingWhenOff) {
  // precision defaults to kDouble; an explicit kDouble run is the same
  // object as the default — fp32 never activates and the fp32 EMA stays
  // unpopulated.
  EXPECT_EQ(Ls3dfOptions{}.precision, Precision::kDouble);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options(3);
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  Ls3dfSolver solver(s, lo);
  Ls3dfResult r = solver.solve();
  EXPECT_FALSE(solver.fp32_iteration_active());
  for (double m : solver.measured_fragment_seconds_f32())
    EXPECT_LT(m, 0.0);
  ASSERT_EQ(r.conv_history.size(), 2u);
}

}  // namespace
}  // namespace ls3df

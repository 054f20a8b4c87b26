// Eigensolver tests: free-electron analytic limits, agreement between the
// all-band (BLAS-3) and band-by-band (BLAS-2) solvers and a dense-matrix
// reference diagonalization, orthonormalization schemes, and Hamiltonian
// invariants (Hermiticity, kinetic energy, density normalization).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "atoms/builders.h"
#include "common/rng.h"
#include "dft/eigensolver.h"
#include "dft/hamiltonian.h"
#include "fft/fft3d.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"

namespace ls3df {
namespace {

using cd = std::complex<double>;

// Dense reference: materialize H by applying it to unit vectors, then
// diagonalize exactly.
std::vector<double> dense_eigenvalues(const Hamiltonian& h, int n_lowest) {
  const int ng = h.basis().count();
  MatC I = MatC::identity(ng);
  MatC H;
  h.apply(I, H);
  EighResult r = eigh(H);
  r.eigenvalues.resize(n_lowest);
  return r.eigenvalues;
}

Structure empty_box(double L) { return Structure(Lattice::cubic(L)); }

TEST(Hamiltonian, FreeElectronEigenvalues) {
  // No atoms: H = -1/2 nabla^2; eigenvalues are 0.5 |G|^2.
  Structure s = empty_box(6.0);
  GVectors gv(s.lattice(), {12, 12, 12}, 2.0);
  Hamiltonian h(s, gv);

  std::vector<double> expected;
  for (int g = 0; g < gv.count(); ++g) expected.push_back(0.5 * gv.g2(g));
  std::sort(expected.begin(), expected.end());

  MatC psi = random_wavefunctions(gv, 6, 1);
  EigensolverResult r = solve_all_band(h, psi, {40, 1e-9, true});
  for (int j = 0; j < 6; ++j)
    EXPECT_NEAR(r.eigenvalues[j], expected[j], 1e-7) << "band " << j;
}

TEST(Hamiltonian, HermitianOnRandomVectors) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {14, 14, 14}, 2.0);
  Hamiltonian h(s, gv);
  Rng rng(3);
  MatC psi(gv.count(), 2);
  for (int j = 0; j < 2; ++j)
    for (int g = 0; g < gv.count(); ++g)
      psi(g, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  MatC hpsi;
  h.apply(psi, hpsi);
  const cd a = zdotc(gv.count(), psi.col(0), hpsi.col(1));
  const cd b = zdotc(gv.count(), psi.col(1), hpsi.col(0));
  EXPECT_LT(std::abs(a - std::conj(b)), 1e-9);
}

TEST(Hamiltonian, ApplyBandMatchesApplyBlock) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 3, 9);
  MatC block;
  h.apply(psi, block);
  for (int j = 0; j < 3; ++j) {
    std::vector<cd> single(gv.count());
    h.apply_band(psi.col(j), single.data());
    for (int g = 0; g < gv.count(); ++g)
      EXPECT_LT(std::abs(single[g] - block(g, j)), 1e-11);
  }
}

TEST(Hamiltonian, ConstantPotentialShiftsSpectrum) {
  Structure s = empty_box(5.0);
  GVectors gv(s.lattice(), {10, 10, 10}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 4, 2);
  EigensolverResult r0 = solve_all_band(h, psi, {40, 1e-9, true});

  FieldR v(gv.grid_shape());
  v.fill(0.37);
  h.set_local_potential(v);
  MatC psi2 = random_wavefunctions(gv, 4, 2);
  EigensolverResult r1 = solve_all_band(h, psi2, {40, 1e-9, true});
  for (int j = 0; j < 4; ++j)
    EXPECT_NEAR(r1.eigenvalues[j] - r0.eigenvalues[j], 0.37, 1e-7);
}

TEST(Hamiltonian, KineticEnergyOfPlaneWave) {
  Structure s = empty_box(6.0);
  GVectors gv(s.lattice(), {12, 12, 12}, 2.0);
  Hamiltonian h(s, gv);
  // A single plane wave |G| has kinetic energy 0.5 |G|^2.
  MatC psi(gv.count(), 1);
  int pick = -1;
  for (int g = 0; g < gv.count(); ++g)
    if (gv.g2(g) > 0) {
      pick = g;
      break;
    }
  psi(pick, 0) = 1.0;
  EXPECT_NEAR(h.kinetic_energy(psi, {2.0}), 2.0 * 0.5 * gv.g2(pick), 1e-12);
}

TEST(Hamiltonian, DensityIntegratesToOccupation) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 5, 4);
  std::vector<double> occ{2, 2, 2, 1, 0};
  FieldR rho = h.density(psi, occ);
  const double pv =
      s.lattice().volume() / static_cast<double>(rho.size());
  EXPECT_NEAR(rho.sum() * pv, 7.0, 1e-9);
  for (std::size_t i = 0; i < rho.size(); ++i) EXPECT_GE(rho[i], 0.0);
}

TEST(Hamiltonian, BatchedDensitySweepBitIdenticalToPerBand) {
  // density_into fans all occupied bands out over the worker lanes.
  // Per-band arithmetic and the band-order accumulation are unchanged,
  // so the result must equal the band-by-band sum exactly
  // (zero-occupation bands skipped), for any worker count.
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 5, 4);
  const std::vector<double> occ{2, 2, 0, 1, 0.5};

  // Reference: one single-band density per occupied band, summed in band
  // order (each per-band call accumulates scale*|psi|^2 onto zero, so
  // the ordered sum reproduces the sweep's accumulation exactly).
  FieldR ref(gv.grid_shape());
  FieldR band(gv.grid_shape());
  for (int j = 0; j < 5; ++j) {
    if (occ[j] == 0.0) continue;
    MatC col(gv.count(), 1);
    for (int g = 0; g < gv.count(); ++g) col(g, 0) = psi(g, j);
    h.density_into(col, {occ[j]}, band);
    ref += band;
  }

  for (int workers : {1, 4}) {
    FieldR rho(gv.grid_shape());
    h.density_into(psi, occ, rho, workers);
    for (std::size_t i = 0; i < rho.size(); ++i)
      ASSERT_EQ(rho[i], ref[i]) << "i=" << i << " workers=" << workers;
  }
}

TEST(Hamiltonian, KineticEnergyDensityIntegratesToKineticEnergy) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {14, 14, 14}, 2.0);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 3, 8);
  std::vector<double> occ{2, 2, 2};
  FieldR tau = h.kinetic_energy_density(psi, occ);
  const double pv =
      s.lattice().volume() / static_cast<double>(tau.size());
  EXPECT_NEAR(tau.sum() * pv, h.kinetic_energy(psi, occ), 1e-8);
}

TEST(Hamiltonian, FlopCounterAccumulates) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  FlopCounter fc;
  h.set_flop_counter(&fc);
  MatC psi = random_wavefunctions(gv, 2, 1);
  MatC hpsi;
  h.apply(psi, hpsi);
  EXPECT_GT(fc.total(), 0u);
  const auto after_one = fc.total();
  h.apply(psi, hpsi);
  EXPECT_EQ(fc.total(), 2 * after_one);
}

TEST(Hamiltonian, ApplyMatchesDenseTransformReference) {
  // apply() runs its local term through the sphere transforms. A
  // reference built on the dense Fft3D, with the same kinetic and
  // nonlocal terms, must agree to rounding: only the local term differs,
  // so ||H psi - ref||_F <= c log2(N) eps max|V_loc| ||psi||_F.
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {16, 12, 14}, 1.5);
  Hamiltonian h(s, gv);
  const int nb = 4;
  MatC psi = random_wavefunctions(gv, nb, 12);
  MatC hpsi;
  h.apply(psi, hpsi);

  MatC ref(gv.count(), nb);
  const Fft3D dense(gv.grid_shape());
  const FieldR& vloc = h.local_potential();
  FieldC work(gv.grid_shape());
  for (int j = 0; j < nb; ++j) {
    gv.scatter(psi.col(j), work);
    dense.inverse(work.data());
    for (std::size_t i = 0; i < work.size(); ++i) work[i] *= vloc[i];
    dense.forward(work.data());
    gv.gather(work, ref.col(j));
    for (int g = 0; g < gv.count(); ++g)
      ref(g, j) += 0.5 * gv.g2(g) * psi(g, j);
  }
  h.nonlocal().apply_all_bands(psi, ref);

  double diff = 0, psi_norm = 0, vmax = 0;
  for (int j = 0; j < nb; ++j)
    for (int g = 0; g < gv.count(); ++g) {
      diff += std::norm(hpsi(g, j) - ref(g, j));
      psi_norm += std::norm(psi(g, j));
    }
  for (std::size_t i = 0; i < vloc.size(); ++i)
    vmax = std::max(vmax, std::abs(vloc[i]));
  const double n = static_cast<double>(work.size());
  const double scale = std::log2(n) * std::numeric_limits<double>::epsilon() *
                       vmax * std::sqrt(psi_norm);
  EXPECT_LE(std::sqrt(diff) / scale, 4.0);
  EXPECT_GT(diff, 0.0);  // the sphere path really is a different kernel
}

TEST(Hamiltonian, FlopCountPinnedForOneApply) {
  // Empty 6 Bohr box, 8^3 grid, ecut 0.6 Ha: the basis is G = 0 and the
  // six +-b_i neighbours (|G|^2/2 = 0.548), so the sphere touches 5 z rows
  // ((0,0), (+-1,0), (0,+-1)) and 3 x-slabs (0, +-1). With fft(8) = 120:
  //   fft3d_sphere = 5*120 + 3*8*120 + 64*120 = 11160;
  //   apply, 2 bands = 2*(2*11160 + 6*512) local + 4*7*2 kinetic = 50840
  // (no atoms, so no projectors and no nonlocal GEMMs). The dense
  // transform would count 3*64*120 = 23040 per 3D FFT instead.
  Structure s = empty_box(6.0);
  GVectors gv(s.lattice(), {8, 8, 8}, 0.6);
  ASSERT_EQ(gv.count(), 7);
  EXPECT_EQ(FlopCounter::fft3d_sphere(gv.grid_shape(), gv.sphere()), 11160u);
  Hamiltonian h(s, gv);
  FlopCounter fc;
  h.set_flop_counter(&fc);
  MatC psi = random_wavefunctions(gv, 2, 1);
  MatC hpsi;
  h.apply(psi, hpsi);
  EXPECT_EQ(fc.total(), 50840u);
  // The batched path counts the same work.
  fc.clear();
  MatC out;
  ApplyBatchWorkspace ws;
  Hamiltonian::apply_batched({{&h, &psi, &out}}, ws, 1);
  EXPECT_EQ(fc.total(), 50840u);
}

TEST(DefaultFftGrid, HoldsDensityFrequencies) {
  Lattice lat = Lattice::cubic(10.0);
  const double ecut = 2.0;
  Vec3i g = default_fft_grid(lat, ecut);
  const double gmax = std::sqrt(2 * ecut);
  const int m = static_cast<int>(std::ceil(gmax / lat.reciprocal().x));
  EXPECT_GE(g.x, 4 * m);  // 2 Gmax along both signs
  EXPECT_TRUE(Fft1D::is_smooth(g.x));
}

class SolverAgreement : public ::testing::TestWithParam<bool> {};

TEST_P(SolverAgreement, MatchesDenseDiagonalization) {
  const bool all_band = GetParam();
  Structure s = build_zincblende(Species::kZn, Species::kTe, 8.0, {1, 1, 1});
  GVectors gv(s.lattice(), {10, 10, 10}, 1.2);
  Hamiltonian h(s, gv);
  ASSERT_LT(gv.count(), 300);

  const int nb = 6;
  auto exact = dense_eigenvalues(h, nb);

  MatC psi = random_wavefunctions(gv, nb, 42);
  EigensolverOptions opt{all_band ? 60 : 40, 1e-8, true};
  EigensolverResult r = all_band ? solve_all_band(h, psi, opt)
                                 : solve_band_by_band(h, psi, opt);
  for (int j = 0; j < nb; ++j)
    EXPECT_NEAR(r.eigenvalues[j], exact[j], 2e-5)
        << (all_band ? "all-band" : "band-by-band") << " band " << j;

  // Output bands orthonormal.
  MatC S = overlap(psi, psi);
  for (int i = 0; i < nb; ++i)
    for (int j = 0; j < nb; ++j)
      EXPECT_LT(std::abs(S(i, j) - cd(i == j ? 1 : 0, 0)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, SolverAgreement,
                         ::testing::Values(true, false));

TEST(Orthonormalize, CholeskyAndGramSchmidtAgreeOnSpan) {
  Rng rng(8);
  MatC X(40, 6);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 40; ++i)
      X(i, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  MatC A = X, B = X;
  orthonormalize_cholesky(A);
  orthonormalize_gram_schmidt(B);
  // Both orthonormal.
  for (MatC* M : {&A, &B}) {
    MatC S = overlap(*M, *M);
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j)
        EXPECT_LT(std::abs(S(i, j) - cd(i == j ? 1 : 0, 0)), 1e-10);
  }
  // Same span: projector onto span(A) applied to B's columns is identity.
  MatC P = overlap(A, B);   // A^H B
  MatC AB(40, 6);
  gemm(Op::kNone, Op::kNone, cd(1, 0), A, P, cd(0, 0), AB);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 40; ++i)
      EXPECT_LT(std::abs(AB(i, j) - B(i, j)), 1e-9);
}

TEST(Orthonormalize, HandlesNearlyDependentColumns) {
  MatC X(10, 3);
  for (int i = 0; i < 10; ++i) {
    X(i, 0) = cd(1.0, 0.0);
    X(i, 1) = cd(1.0 + 1e-13 * i, 0.0);  // nearly parallel
    X(i, 2) = cd(i, 1.0);
  }
  orthonormalize_cholesky(X);  // must not throw (falls back to GS)
  MatC S = overlap(X, X);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(S(i, i).real(), 1.0, 1e-9);
}

TEST(RandomWavefunctions, DeterministicAndOrthonormal) {
  Lattice lat = Lattice::cubic(7.0);
  GVectors gv(lat, {10, 10, 10}, 1.5);
  MatC a = random_wavefunctions(gv, 4, 99);
  MatC b = random_wavefunctions(gv, 4, 99);
  for (int j = 0; j < 4; ++j)
    for (int g = 0; g < gv.count(); ++g)
      EXPECT_EQ(a(g, j), b(g, j));
  MatC S = overlap(a, a);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_LT(std::abs(S(i, j) - cd(i == j ? 1 : 0, 0)), 1e-10);
}

TEST(SubspaceRotate, SortsAndPreservesSpan) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 8.0, {1, 1, 1});
  GVectors gv(s.lattice(), {10, 10, 10}, 1.2);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 5, 3);
  MatC before = psi;
  auto evals = subspace_rotate(h, psi);
  for (int j = 1; j < 5; ++j) EXPECT_LE(evals[j - 1], evals[j] + 1e-12);
  // Span preserved: project rotated onto original basis and back.
  MatC P = overlap(before, psi);
  MatC rec(gv.count(), 5);
  gemm(Op::kNone, Op::kNone, cd(1, 0), before, P, cd(0, 0), rec);
  for (int j = 0; j < 5; ++j)
    for (int g = 0; g < gv.count(); g += 7)
      EXPECT_LT(std::abs(rec(g, j) - psi(g, j)), 1e-9);
}

TEST(BatchedSolver, BitIdenticalToPerFragmentSolves) {
  // The tentpole contract: solve_all_band_batched over K same-shape
  // Hamiltonians returns exactly what K independent solve_all_band calls
  // return — eigenvalues and wavefunctions alike, for any worker count.
  // Members get different atomic configurations and different local
  // potentials so the lockstep really exercises per-member state,
  // including different convergence trajectories.
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<MatC> psis_ref, psis_bat;
  const int nb = 5;
  for (int t = 0; t < 3; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0 + 0.6 * t, 2.0, 2.0});
    s.add_atom(Species::kTe, {2.0 + 0.6 * t, 2.0, 4.5});
    if (t == 2) s.add_atom(Species::kO, {5.5, 5.5, 5.5});
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    psis_ref.push_back(random_wavefunctions(gv, nb, 1000 + t));
    psis_bat.push_back(psis_ref.back());
  }

  const EigensolverOptions opt{12, 1e-7, true};
  std::vector<EigensolverResult> refs;
  for (int t = 0; t < 3; ++t)
    refs.push_back(solve_all_band(*hams[t], psis_ref[t], opt));

  for (int workers : {1, 4}) {
    std::vector<MatC> psis = psis_bat;
    std::vector<FragmentSolve> frags;
    for (int t = 0; t < 3; ++t) frags.push_back({hams[t].get(), &psis[t]});
    BatchWorkspace ws;
    std::vector<EigensolverResult> rs =
        solve_all_band_batched(frags, opt, ws, workers);
    ASSERT_EQ(rs.size(), 3u);
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(rs[t].converged, refs[t].converged) << t;
      EXPECT_EQ(rs[t].iterations, refs[t].iterations) << t;
      ASSERT_EQ(rs[t].eigenvalues.size(), refs[t].eigenvalues.size()) << t;
      for (std::size_t j = 0; j < rs[t].eigenvalues.size(); ++j)
        ASSERT_EQ(rs[t].eigenvalues[j], refs[t].eigenvalues[j])
            << "member " << t << " band " << j << " workers=" << workers;
      for (int j = 0; j < nb; ++j)
        for (int g = 0; g < psis[t].rows(); ++g)
          ASSERT_EQ(psis[t](g, j), psis_ref[t](g, j))
              << "member " << t << " workers=" << workers;
    }
  }
}

TEST(BatchedSolver, WidthOneMatchesSolo) {
  // Degenerate batch: a single member must follow the identical path.
  Structure s = build_zincblende(Species::kZn, Species::kTe, 8.0, {1, 1, 1});
  GVectors gv(s.lattice(), {10, 10, 10}, 1.2);
  Hamiltonian h(s, gv);
  MatC p_ref = random_wavefunctions(gv, 4, 77);
  MatC p_bat = p_ref;
  EigensolverOptions opt{20, 1e-8, true};
  EigensolverResult ref = solve_all_band(h, p_ref, opt);
  BatchWorkspace ws;
  std::vector<FragmentSolve> frags{{&h, &p_bat}};
  std::vector<EigensolverResult> rs = solve_all_band_batched(frags, opt, ws);
  ASSERT_EQ(rs[0].eigenvalues.size(), ref.eigenvalues.size());
  for (std::size_t j = 0; j < ref.eigenvalues.size(); ++j)
    ASSERT_EQ(rs[0].eigenvalues[j], ref.eigenvalues[j]);
  for (int j = 0; j < 4; ++j)
    for (int g = 0; g < p_ref.rows(); ++g)
      ASSERT_EQ(p_bat(g, j), p_ref(g, j));
}

TEST(BatchedSolver, SteadyStateAllocatesNothing) {
  // The BatchWorkspace arenas may only grow on the first solve of a
  // given batch composition; repeated solves reuse warm buffers. The
  // members differ in atom (and therefore projector) count and band
  // count, so members converge out of the lockstep at different
  // iterations — workspace slots must stay keyed to the member, not to
  // the member's position in the shrinking active list.
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<int> bands;
  for (int t = 0; t < 2; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0 + t, 2.0, 2.0});
    if (t == 1) {
      s.add_atom(Species::kTe, {5.0, 5.0, 5.0});
      s.add_atom(Species::kTe, {2.5, 5.0, 2.5});
    }
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    bands.push_back(t == 0 ? 2 : 5);
  }
  ASSERT_NE(hams[0]->nonlocal().num_projectors(),
            hams[1]->nonlocal().num_projectors());
  BatchWorkspace ws;
  const EigensolverOptions opt{6, 1e-9, true};
  long after_first = -1;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<MatC> psis;
    for (int t = 0; t < 2; ++t)
      psis.push_back(
          random_wavefunctions(hams[t]->basis(), bands[t], 5 + rep));
    std::vector<FragmentSolve> frags;
    for (int t = 0; t < 2; ++t) frags.push_back({hams[t].get(), &psis[t]});
    solve_all_band_batched(frags, opt, ws);
    if (rep == 0) {
      after_first = ws.allocations();
      EXPECT_GT(after_first, 0);
    } else {
      EXPECT_EQ(ws.allocations(), after_first) << "rep " << rep;
    }
  }
}

TEST(BatchedHamiltonianApply, BitIdenticalToApply) {
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<MatC> psis;
  for (int t = 0; t < 3; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0, 2.0 + 0.8 * t, 2.0});
    if (t > 0) s.add_atom(Species::kTe, {5.0, 5.0, 2.0 + t});
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    // Different column counts per member: the Davidson block widths.
    psis.push_back(random_wavefunctions(gv, 3 + t, 30 + t));
  }
  std::vector<MatC> ref(3);
  for (int t = 0; t < 3; ++t) hams[t]->apply(psis[t], ref[t]);
  for (int workers : {1, 4}) {
    std::vector<MatC> out(3);
    std::vector<Hamiltonian::ApplyItem> items;
    for (int t = 0; t < 3; ++t)
      items.push_back({hams[t].get(), &psis[t], &out[t]});
    ApplyBatchWorkspace ws;
    Hamiltonian::apply_batched(items, ws, workers);
    for (int t = 0; t < 3; ++t) {
      ASSERT_EQ(out[t].rows(), ref[t].rows());
      ASSERT_EQ(out[t].cols(), ref[t].cols());
      for (int j = 0; j < out[t].cols(); ++j)
        for (int g = 0; g < out[t].rows(); ++g)
          ASSERT_EQ(out[t](g, j), ref[t](g, j))
              << "member " << t << " workers=" << workers;
    }
  }
}

TEST(Preconditioner, SpeedsUpConvergence) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 2.0);
  Hamiltonian h(s, gv);

  MatC psi1 = random_wavefunctions(gv, 4, 5);
  EigensolverResult with = solve_all_band(h, psi1, {100, 1e-7, true});
  MatC psi2 = random_wavefunctions(gv, 4, 5);
  EigensolverResult without = solve_all_band(h, psi2, {100, 1e-7, false});
  EXPECT_TRUE(with.converged);
  // Preconditioning should never need more iterations (usually far fewer).
  EXPECT_LE(with.iterations, without.iterations);
}

}  // namespace
}  // namespace ls3df

// Linear algebra tests: gemm/gemv against reference implementations,
// Hermitian eigensolver invariants, Cholesky-based orthonormalization (the
// all-band overlap-matrix scheme from Sec. IV), linear solves, and the
// Levenberg-Marquardt fitter on the Amdahl model used in Sec. VI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"
#include "linalg/lstsq.h"
#include "linalg/matrix.h"

namespace ls3df {
namespace {

using cd = std::complex<double>;

MatC random_matc(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  MatC A(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      A(i, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return A;
}

MatR random_matr(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  MatR A(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) A(i, j) = rng.uniform(-1, 1);
  return A;
}

MatC hermitian_from(const MatC& B) {
  const int n = B.rows();
  MatC H(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) H(i, j) = 0.5 * (B(i, j) + std::conj(B(j, i)));
  return H;
}

cd ref_entry(Op opA, const MatC& A, int i, int j) {
  if (opA == Op::kNone) return A(i, j);
  if (opA == Op::kTrans) return A(j, i);
  return std::conj(A(j, i));
}

MatC ref_gemm(Op opA, Op opB, cd alpha, const MatC& A, const MatC& B, cd beta,
              MatC C) {
  const int m = C.rows(), n = C.cols();
  const int k = (opA == Op::kNone) ? A.cols() : A.rows();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      cd acc(0, 0);
      for (int l = 0; l < k; ++l)
        acc += ref_entry(opA, A, i, l) * ref_entry(opB, B, l, j);
      C(i, j) = alpha * acc + beta * C(i, j);
    }
  return C;
}

double frob_diff(const MatC& A, const MatC& B) {
  double s = 0;
  for (int j = 0; j < A.cols(); ++j)
    for (int i = 0; i < A.rows(); ++i) s += std::norm(A(i, j) - B(i, j));
  return std::sqrt(s);
}

struct GemmCase {
  Op opA, opB;
  int m, n, k;
};

class GemmOps : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmOps, MatchesReference) {
  const auto& c = GetParam();
  const MatC A = (c.opA == Op::kNone) ? random_matc(c.m, c.k, 1)
                                      : random_matc(c.k, c.m, 1);
  const MatC B = (c.opB == Op::kNone) ? random_matc(c.k, c.n, 2)
                                      : random_matc(c.n, c.k, 2);
  MatC C = random_matc(c.m, c.n, 3);
  const cd alpha(1.3, -0.2), beta(0.4, 0.9);
  MatC expected = ref_gemm(c.opA, c.opB, alpha, A, B, beta, C);
  gemm(c.opA, c.opB, alpha, A, B, beta, C);
  EXPECT_LT(frob_diff(C, expected), 1e-11 * c.m * c.n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmOps,
    ::testing::Values(GemmCase{Op::kNone, Op::kNone, 5, 7, 3},
                      GemmCase{Op::kNone, Op::kNone, 16, 16, 16},
                      GemmCase{Op::kNone, Op::kNone, 1, 1, 1},
                      GemmCase{Op::kConjTrans, Op::kNone, 4, 6, 9},
                      GemmCase{Op::kConjTrans, Op::kNone, 8, 8, 32},
                      GemmCase{Op::kTrans, Op::kNone, 5, 5, 5},
                      GemmCase{Op::kNone, Op::kConjTrans, 6, 4, 7},
                      GemmCase{Op::kNone, Op::kTrans, 3, 8, 2},
                      GemmCase{Op::kConjTrans, Op::kConjTrans, 4, 4, 4},
                      GemmCase{Op::kTrans, Op::kTrans, 7, 3, 5}));

TEST(Gemm, BetaZeroOverwritesNanFree) {
  // beta = 0 must not propagate garbage from uninitialized C.
  MatC A = random_matc(3, 4, 10), B = random_matc(4, 2, 11);
  MatC C(3, 2);
  C(0, 0) = cd(1e300, -1e300);
  gemm(Op::kNone, Op::kNone, cd(1, 0), A, B, cd(0, 0), C);
  MatC expected = ref_gemm(Op::kNone, Op::kNone, cd(1, 0), A, B, cd(0, 0),
                           MatC(3, 2));
  EXPECT_LT(frob_diff(C, expected), 1e-12);
}

TEST(Gemm, RealMatchesComplex) {
  MatR A = random_matr(6, 5, 20), B = random_matr(5, 4, 21);
  MatR C(6, 4);
  gemm(Op::kNone, Op::kNone, 2.0, A, B, 0.0, C);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 6; ++i) {
      double acc = 0;
      for (int l = 0; l < 5; ++l) acc += A(i, l) * B(l, j);
      EXPECT_NEAR(C(i, j), 2.0 * acc, 1e-12);
    }
}

TEST(GemmBatched, BitIdenticalToLoopedGemm) {
  // The batched-solve contract: fusing products into one sweep must not
  // change a single bit relative to member-by-member gemm() calls, for
  // any worker count. Shapes mix tall-skinny (the fragment overlap
  // shape), odd column counts (exercise the pairing remainder) and
  // per-member differences (the nonlocal path).
  struct Shape {
    int m, n, k;
  };
  const std::vector<Shape> shapes{{150, 17, 64}, {150, 32, 64}, {96, 5, 33}};
  for (Op opA : {Op::kConjTrans, Op::kNone}) {
    std::vector<MatC> As, Bs, Cb, Cl;
    for (std::size_t t = 0; t < shapes.size(); ++t) {
      const auto [m, n, k] = shapes[t];
      // op(A) is m x k: for kConjTrans store A as k x m.
      As.push_back(random_matc(opA == Op::kNone ? m : k,
                               opA == Op::kNone ? k : m, 11 + t));
      Bs.push_back(random_matc(k, n, 50 + t));
      Cb.push_back(random_matc(m, n, 90 + t));
      Cl.push_back(Cb.back());
    }
    for (const cd beta : {cd(0, 0), cd(1, 0), cd(0.5, -0.25)}) {
      for (int workers : {1, 4}) {
        std::vector<MatC> cb = Cb, cl = Cl;
        std::vector<GemmBatchItem> items;
        for (std::size_t t = 0; t < shapes.size(); ++t)
          items.push_back({&As[t], &Bs[t], &cb[t]});
        gemm_batched(opA, Op::kNone, cd(0.7, 0.3), items, beta, workers);
        for (std::size_t t = 0; t < shapes.size(); ++t)
          gemm(opA, Op::kNone, cd(0.7, 0.3), As[t], Bs[t], beta, cl[t]);
        for (std::size_t t = 0; t < shapes.size(); ++t)
          for (int j = 0; j < cb[t].cols(); ++j)
            for (int i = 0; i < cb[t].rows(); ++i)
              ASSERT_EQ(cb[t](i, j), cl[t](i, j))
                  << "item " << t << " (" << i << "," << j << ") opA="
                  << static_cast<int>(opA) << " workers=" << workers;
      }
    }
  }
}

TEST(GemmBatched, WideMatrixCrossesTileBoundaries) {
  // More columns than one 32-column tile: the tile grid must reproduce
  // the full-range kernel exactly across tile seams.
  MatC A = random_matc(64, 80, 3);
  MatC B = random_matc(64, 80, 4);
  MatC Cb(80, 80), Cl(80, 80);
  std::vector<GemmBatchItem> items{{&A, &B, &Cb}};
  gemm_batched(Op::kConjTrans, Op::kNone, cd(1, 0), items, cd(0, 0), 4);
  gemm(Op::kConjTrans, Op::kNone, cd(1, 0), A, B, cd(0, 0), Cl);
  for (int j = 0; j < 80; ++j)
    for (int i = 0; i < 80; ++i) ASSERT_EQ(Cb(i, j), Cl(i, j));
}

TEST(EighArena, MatchesAllocatingEigh) {
  EigenScratch ws;
  for (int n : {1, 2, 5, 16}) {
    MatC A = random_matc(n, n, 7 * n);
    // Hermitize.
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < j; ++i) A(i, j) = std::conj(A(j, i));
    EighResult ref = eigh(A);
    EighView arena = eigh(A, ws);
    ASSERT_EQ(static_cast<int>(arena.eigenvalues->size()), n);
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ((*arena.eigenvalues)[j], ref.eigenvalues[j]) << n;
      for (int i = 0; i < n; ++i)
        ASSERT_EQ((*arena.eigenvectors)(i, j), ref.eigenvectors(i, j)) << n;
    }
  }
}

TEST(EighArena, SteadyStateAllocatesNothing) {
  EigenScratch ws;
  ws.reserve(16);
  const long after_reserve = ws.allocations();
  EXPECT_GT(after_reserve, 0);
  for (int rep = 0; rep < 4; ++rep)
    for (int n : {16, 8, 3}) {
      MatC A = random_matc(n, n, 100 + n);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < j; ++i) A(i, j) = std::conj(A(j, i));
      eigh(A, ws);
    }
  EXPECT_EQ(ws.allocations(), after_reserve);
}

TEST(CholeskyArena, MatchesAllocatingCholesky) {
  MatC X = random_matc(40, 6, 17);
  MatC S = overlap(X, X);
  MatC ref = cholesky(S);
  MatC L;
  cholesky(S, L);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i) ASSERT_EQ(L(i, j), ref(i, j));
  MatC bad(2, 2);
  bad(0, 0) = 1.0;
  bad(1, 1) = -1.0;
  EXPECT_THROW(cholesky(bad, L), std::runtime_error);
}

TEST(Gemv, MatchesGemm) {
  const int m = 9, n = 6;
  MatC A = random_matc(m, n, 30);
  MatC x = random_matc(n, 1, 31);
  MatC y = random_matc(m, 1, 32);
  MatC y_ref = y;
  const cd alpha(0.7, 0.1), beta(-0.3, 0.5);
  gemm(Op::kNone, Op::kNone, alpha, A, x, beta, y_ref);
  gemv(Op::kNone, alpha, A, x.col(0), beta, y.col(0));
  EXPECT_LT(frob_diff(y, y_ref), 1e-12);
}

TEST(Gemv, ConjTransMatchesGemm) {
  const int m = 9, n = 6;
  MatC A = random_matc(m, n, 40);
  MatC x = random_matc(m, 1, 41);
  MatC y = random_matc(n, 1, 42);
  MatC y_ref = y;
  const cd alpha(1.0, -1.0), beta(0.25, 0.0);
  gemm(Op::kConjTrans, Op::kNone, alpha, A, x, beta, y_ref);
  gemv(Op::kConjTrans, alpha, A, x.col(0), beta, y.col(0));
  EXPECT_LT(frob_diff(y, y_ref), 1e-12);
}

TEST(Overlap, IsHermitianForSelfOverlap) {
  MatC X = random_matc(20, 6, 50);
  MatC S = overlap(X, X);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i)
      EXPECT_LT(std::abs(S(i, j) - std::conj(S(j, i))), 1e-12);
  for (int i = 0; i < 6; ++i) EXPECT_GT(S(i, i).real(), 0.0);
}

TEST(Level1, DotNormAxpyScal) {
  const int n = 17;
  MatC x = random_matc(n, 1, 60), y = random_matc(n, 1, 61);
  const cd d = zdotc(n, x.col(0), y.col(0));
  cd ref(0, 0);
  for (int i = 0; i < n; ++i) ref += std::conj(x(i, 0)) * y(i, 0);
  EXPECT_LT(std::abs(d - ref), 1e-12);

  EXPECT_NEAR(dznrm2(n, x.col(0)),
              std::sqrt(zdotc(n, x.col(0), x.col(0)).real()), 1e-12);

  MatC y2 = y;
  zaxpy(n, cd(2, -1), x.col(0), y2.col(0));
  for (int i = 0; i < n; ++i)
    EXPECT_LT(std::abs(y2(i, 0) - (y(i, 0) + cd(2, -1) * x(i, 0))), 1e-13);

  zscal(n, cd(0.5, 0.5), y2.col(0));
  // Just check magnitude scaling of first element against manual compute.
  EXPECT_LT(std::abs(y2(0, 0) -
                     cd(0.5, 0.5) * (y(0, 0) + cd(2, -1) * x(0, 0))),
            1e-13);
}

class EighSizes : public ::testing::TestWithParam<int> {};

TEST_P(EighSizes, ReconstructsMatrix) {
  const int n = GetParam();
  MatC H = hermitian_from(random_matc(n, n, 70 + n));
  EighResult r = eigh(H);
  // A = V diag(w) V^H.
  MatC VD(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      VD(i, j) = r.eigenvectors(i, j) * r.eigenvalues[j];
  MatC A(n, n);
  gemm(Op::kNone, Op::kConjTrans, cd(1, 0), VD, r.eigenvectors, cd(0, 0), A);
  EXPECT_LT(frob_diff(A, H), 1e-10 * n);
}

TEST_P(EighSizes, EigenvectorsOrthonormal) {
  const int n = GetParam();
  MatC H = hermitian_from(random_matc(n, n, 170 + n));
  EighResult r = eigh(H);
  MatC S = overlap(r.eigenvectors, r.eigenvectors);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      const double expected = (i == j) ? 1.0 : 0.0;
      EXPECT_LT(std::abs(S(i, j) - cd(expected, 0)), 1e-11) << i << "," << j;
    }
}

TEST_P(EighSizes, EigenvaluesAscending) {
  const int n = GetParam();
  MatC H = hermitian_from(random_matc(n, n, 270 + n));
  EighResult r = eigh(H);
  for (int i = 1; i < n; ++i)
    EXPECT_LE(r.eigenvalues[i - 1], r.eigenvalues[i] + 1e-14);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighSizes, ::testing::Values(1, 2, 3, 5, 8,
                                                             13, 21, 40));

TEST(Eigh, DiagonalMatrix) {
  MatC H(3, 3);
  H(0, 0) = 3.0;
  H(1, 1) = -1.0;
  H(2, 2) = 2.0;
  EighResult r = eigh(H);
  EXPECT_NEAR(r.eigenvalues[0], -1.0, 1e-13);
  EXPECT_NEAR(r.eigenvalues[1], 2.0, 1e-13);
  EXPECT_NEAR(r.eigenvalues[2], 3.0, 1e-13);
}

TEST(Eigh, KnownTwoByTwo) {
  // [[2, i], [-i, 2]] has eigenvalues 1 and 3.
  MatC H(2, 2);
  H(0, 0) = 2.0;
  H(1, 1) = 2.0;
  H(0, 1) = cd(0, 1);
  H(1, 0) = cd(0, -1);
  EighResult r = eigh(H);
  EXPECT_NEAR(r.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
}

TEST(Eigh, TraceAndDeterminantInvariants) {
  const int n = 10;
  MatC H = hermitian_from(random_matc(n, n, 99));
  EighResult r = eigh(H);
  double trace = 0;
  for (int i = 0; i < n; ++i) trace += H(i, i).real();
  double sum = 0;
  for (double w : r.eigenvalues) sum += w;
  EXPECT_NEAR(sum, trace, 1e-10);
}

TEST(Eigh, RealSymmetricWrapper) {
  MatR A(3, 3);
  // Symmetric with known spectrum {0, 1, 3}: use diag + rotation-free case.
  A(0, 0) = 2; A(0, 1) = 1; A(0, 2) = 0;
  A(1, 0) = 1; A(1, 1) = 2; A(1, 2) = 0;
  A(2, 0) = 0; A(2, 1) = 0; A(2, 2) = 5;
  auto r = eigh(A);
  EXPECT_NEAR(r.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], 5.0, 1e-12);
}

// Normalised acceptance tests for eigh, in the style of blaspp's
// check_gemm: each error is divided by the size- and eps-scaled bound a
// backward-stable Hermitian eigensolver guarantees, so the kernel is
// judged by what it computes, not by the bits of an earlier kernel.
//   residual      ||A V - V L||_F / (n eps ||A||_F)
//   orthogonality ||V^H V - I||_F  / (n eps)
//   eigenvalues   max|l^ - l|      / (n eps ||A||_2)
// each must stay below kEighC. Inputs are A = Q diag(l) Q^H with Q a
// product of random complex Householder reflectors, so l is known.
enum class Spectrum {
  kRandom,
  kClustered,
  kTripleDegenerate,
  kGraded,
  kZero,
  kDiagonal,
  kComplexTridiagonal,
  kNearDiagonal,
};

constexpr double kEighC = 8.0;
constexpr double kEps = std::numeric_limits<double>::epsilon();

// Q <- (I - 2 u u^H / u^H u) Q.
void apply_reflector(const std::vector<cd>& u, MatC& Q) {
  const int n = Q.rows();
  double uu = 0;
  for (const cd& x : u) uu += std::norm(x);
  if (uu == 0) return;
  for (int j = 0; j < Q.cols(); ++j) {
    cd z{};
    for (int i = 0; i < n; ++i) z += std::conj(u[i]) * Q(i, j);
    z *= 2.0 / uu;
    for (int i = 0; i < n; ++i) Q(i, j) -= z * u[i];
  }
}

// Product of n complex reflectors: dense random when near == 0; with
// near > 0 each u_k = e_k + near * noise, giving a unitary that is
// diagonal up to O(near) (a converged Ritz basis).
MatC reflector_unitary(int n, std::uint64_t seed, double near = 0.0) {
  Rng rng(seed);
  MatC Q(n, n);
  for (int i = 0; i < n; ++i) Q(i, i) = 1.0;
  std::vector<cd> u(n);
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      const cd r(rng.uniform(-1, 1), rng.uniform(-1, 1));
      u[i] = near > 0 ? near * r + (i == k ? 1.0 : 0.0) : r;
    }
    apply_reflector(u, Q);
  }
  return Q;
}

// Exact Hermitian A from its lower triangle (what eigh reads).
void hermitize_lower(MatC& A) {
  for (int j = 0; j < A.rows(); ++j) {
    A(j, j) = A(j, j).real();
    for (int i = j + 1; i < A.rows(); ++i) A(j, i) = std::conj(A(i, j));
  }
}

// Eigenvalues of the real symmetric tridiagonal (a, b) by Sturm-count
// bisection: an oracle independent of the QL kernel, accurate to
// O(eps ||T||).
std::vector<double> sturm_eigenvalues(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  const int n = static_cast<int>(a.size());
  double bound = 0;
  for (int i = 0; i < n; ++i)
    bound = std::max(bound, std::abs(a[i]) + (i > 0 ? b[i - 1] : 0) +
                                (i + 1 < n ? b[i] : 0));
  const auto count_below = [&](double x) {
    int c = 0;
    double q = 1;
    for (int i = 0; i < n; ++i) {
      q = a[i] - x - (i > 0 ? b[i - 1] * b[i - 1] / q : 0.0);
      if (q == 0) q = -1e-300;
      if (q < 0) ++c;
    }
    return c;
  };
  std::vector<double> out(n);
  for (int k = 0; k < n; ++k) {
    double lo = -bound - 1, hi = bound + 1;
    for (int it = 0; it < 200 && hi - lo > 0; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      (count_below(mid) > k ? hi : lo) = mid;
    }
    out[k] = 0.5 * (lo + hi);
  }
  return out;
}

struct EighProblem {
  MatC A;
  std::vector<double> lambda;  // ascending
};

EighProblem make_problem(Spectrum kind, int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> lambda(n);
  for (int k = 0; k < n; ++k) {
    switch (kind) {
      case Spectrum::kClustered:  // clusters of four within 1e-10
        lambda[k] = 0.5 * (k / 4) - 1.0 + 1e-10 * rng.uniform(-1, 1);
        break;
      case Spectrum::kTripleDegenerate:
        lambda[k] = 0.75 * (k / 3) - 1.0;
        break;
      case Spectrum::kGraded:
        lambda[k] = n == 1 ? 1.0 : std::pow(10.0, -8.0 + 8.0 * k / (n - 1));
        break;
      case Spectrum::kZero:
        lambda[k] = 0.0;
        break;
      default:
        lambda[k] = rng.uniform(-1, 1);
    }
  }
  EighProblem p;
  p.A = MatC(n, n);
  if (kind == Spectrum::kComplexTridiagonal) {
    // Complex off-diagonals of random phase; the spectrum is that of the
    // real tridiagonal with |b_i|, found by the Sturm oracle.
    std::vector<double> a(n), b(n > 0 ? n - 1 : 0);
    for (int i = 0; i < n; ++i) p.A(i, i) = a[i] = rng.uniform(-1, 1);
    for (int i = 0; i + 1 < n; ++i) {
      b[i] = rng.uniform(0.1, 1);
      p.A(i + 1, i) = std::polar(b[i], rng.uniform(0, 6.283185307179586));
    }
    hermitize_lower(p.A);
    p.lambda = sturm_eigenvalues(a, b);
    return p;
  }
  std::sort(lambda.begin(), lambda.end());
  if (kind == Spectrum::kDiagonal) {
    // Descending on the diagonal so the sort is exercised.
    for (int i = 0; i < n; ++i) p.A(i, i) = lambda[n - 1 - i];
    p.lambda = lambda;
    return p;
  }
  const MatC Q = reflector_unitary(n, seed + 1,
                                   kind == Spectrum::kNearDiagonal ? 1e-9 : 0);
  MatC QL(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) QL(i, j) = Q(i, j) * lambda[j];
  gemm(Op::kNone, Op::kConjTrans, cd(1, 0), QL, Q, cd(0, 0), p.A);
  hermitize_lower(p.A);
  p.lambda = lambda;
  return p;
}

struct EighErrors {
  double residual, orthogonality, eigenvalue;
};

EighErrors eigh_errors(const EighProblem& p, const std::vector<double>& w,
                       const MatC& V) {
  const int n = p.A.rows();
  double a_fro = 0, a_two = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a_fro += std::norm(p.A(i, j));
  a_fro = std::sqrt(a_fro);
  for (double l : p.lambda) a_two = std::max(a_two, std::abs(l));

  MatC R(n, n);
  gemm(Op::kNone, Op::kNone, cd(1, 0), p.A, V, cd(0, 0), R);
  double res = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) res += std::norm(R(i, j) - V(i, j) * w[j]);
  MatC S = overlap(V, V);
  double orth = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      orth += std::norm(S(i, j) - cd(i == j ? 1.0 : 0.0, 0));
  double eig = 0;
  for (int k = 0; k < n; ++k) eig = std::max(eig, std::abs(w[k] - p.lambda[k]));

  // A zero matrix must come back exact (0/0 reads as 0, x/0 as inf).
  const auto ratio = [](double err, double bound) {
    return err == 0 ? 0.0 : err / bound;
  };
  return {ratio(std::sqrt(res), n * kEps * a_fro),
          ratio(std::sqrt(orth), n * kEps), ratio(eig, n * kEps * a_two)};
}

class EighAcceptance
    : public ::testing::TestWithParam<std::tuple<Spectrum, int>> {};

TEST_P(EighAcceptance, WithinNormalisedBounds) {
  const auto [kind, n] = GetParam();
  const EighProblem p = make_problem(kind, n, 1000 + 37 * n +
                                                  static_cast<int>(kind));
  const EighResult r = eigh(p.A);
  ASSERT_EQ(static_cast<int>(r.eigenvalues.size()), n);
  for (int k = 1; k < n; ++k)
    ASSERT_LE(r.eigenvalues[k - 1], r.eigenvalues[k]);
  const EighErrors e = eigh_errors(p, r.eigenvalues, r.eigenvectors);
  EXPECT_LE(e.residual, kEighC) << "||AV - VL||_F / (n eps ||A||_F)";
  EXPECT_LE(e.orthogonality, kEighC) << "||V^H V - I||_F / (n eps)";
  EXPECT_LE(e.eigenvalue, kEighC) << "max|l^ - l| / (n eps ||A||_2)";
}

INSTANTIATE_TEST_SUITE_P(
    Spectra, EighAcceptance,
    ::testing::Combine(
        ::testing::Values(Spectrum::kRandom, Spectrum::kClustered,
                          Spectrum::kTripleDegenerate, Spectrum::kGraded,
                          Spectrum::kZero, Spectrum::kDiagonal,
                          Spectrum::kComplexTridiagonal,
                          Spectrum::kNearDiagonal),
        ::testing::Values(1, 2, 3, 5, 8, 13, 21, 24, 32, 40, 64)));

TEST(Eigh, ThrowsOnNonFiniteInput) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    MatC A = hermitian_from(random_matc(6, 6, 5));
    A(4, 1) = cd(0.25, bad);
    EXPECT_THROW(eigh(A), std::runtime_error);
    EigenScratch ws;
    EXPECT_THROW(eigh(A, ws), std::runtime_error);
    MatC D = hermitian_from(random_matc(3, 3, 6));
    D(2, 2) = bad;
    EXPECT_THROW(eigh(D), std::runtime_error);
  }
}

TEST(Cholesky, ReconstructsAndOrthonormalizes) {
  // The all-band orthonormalization path: S = X^H X, L = chol(S),
  // X <- X L^{-H} must produce an orthonormal block.
  MatC X = random_matc(50, 8, 123);
  MatC S = overlap(X, X);
  MatC L = cholesky(S);
  // Check L L^H = S.
  MatC R(8, 8);
  gemm(Op::kNone, Op::kConjTrans, cd(1, 0), L, L, cd(0, 0), R);
  EXPECT_LT(frob_diff(R, S), 1e-10);

  trsm_right_lherm(L, X);
  MatC I = overlap(X, X);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i)
      EXPECT_LT(std::abs(I(i, j) - cd(i == j ? 1.0 : 0.0, 0.0)), 1e-10);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  MatC A(2, 2);
  A(0, 0) = 1.0;
  A(1, 1) = -1.0;
  EXPECT_THROW(cholesky(A), std::runtime_error);
}

TEST(SolveLinear, KnownSystem) {
  MatR A(2, 2);
  A(0, 0) = 2; A(0, 1) = 1;
  A(1, 0) = 1; A(1, 1) = 3;
  auto x = solve_linear(A, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, NeedsPivoting) {
  MatR A(2, 2);
  A(0, 0) = 0; A(0, 1) = 1;
  A(1, 0) = 1; A(1, 1) = 0;
  auto x = solve_linear(A, {2, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, ThrowsOnSingular) {
  MatR A(2, 2);
  A(0, 0) = 1; A(0, 1) = 2;
  A(1, 0) = 2; A(1, 1) = 4;
  EXPECT_THROW(solve_linear(A, {1, 2}), std::runtime_error);
}

TEST(SolveLinear, RandomSystemsResidualSmall) {
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 8;
    MatR A = random_matr(n, n, 300 + trial);
    for (int i = 0; i < n; ++i) A(i, i) += 3.0;  // keep well-conditioned
    Rng rng(400 + trial);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-1, 1);
    auto x = solve_linear(A, b);
    for (int i = 0; i < n; ++i) {
      double acc = 0;
      for (int j = 0; j < n; ++j) acc += A(i, j) * x[j];
      EXPECT_NEAR(acc, b[i], 1e-10);
    }
  }
}

TEST(Lstsq, RecoversExactSolutionForConsistentSystem) {
  MatR A = random_matr(20, 3, 500);
  std::vector<double> x_true = {1.5, -2.0, 0.75};
  std::vector<double> b(20, 0.0);
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 3; ++j) b[i] += A(i, j) * x_true[j];
  auto x = lstsq(A, b);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(x[j], x_true[j], 1e-10);
}

TEST(Lstsq, LineFit) {
  // Fit y = 2x + 1 with noise-free data.
  MatR A(5, 2);
  std::vector<double> b(5);
  for (int i = 0; i < 5; ++i) {
    A(i, 0) = i;
    A(i, 1) = 1.0;
    b[i] = 2.0 * i + 1.0;
  }
  auto x = lstsq(A, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(LevenbergMarquardt, FitsExponential) {
  // y = a * exp(b x).
  auto model = [](const std::vector<double>& p, double x) {
    return p[0] * std::exp(p[1] * x);
  };
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    const double x = 0.1 * i;
    xs.push_back(x);
    ys.push_back(2.5 * std::exp(-1.3 * x));
  }
  auto fit = fit_levenberg_marquardt(model, xs, ys, {1.0, -0.5});
  EXPECT_NEAR(fit.params[0], 2.5, 1e-6);
  EXPECT_NEAR(fit.params[1], -1.3, 1e-6);
  EXPECT_LT(fit.rms_residual, 1e-8);
}

TEST(LevenbergMarquardt, FitsAmdahlModel) {
  // The paper's strong-scaling analysis: P(n) = Ps * n / (1 + (n-1) alpha),
  // fitted by least squares to (cores, Tflop/s) pairs. Generate synthetic
  // data from known (Ps, alpha) and recover them.
  const double Ps = 2.39e-3, alpha = 1.0 / 101000.0;  // Tflop/s per core
  auto model = [](const std::vector<double>& p, double n) {
    return p[0] * n / (1.0 + (n - 1.0) * p[1]);
  };
  std::vector<double> xs = {1080, 2160, 4320, 8640, 17280};
  std::vector<double> ys;
  for (double n : xs) ys.push_back(model({Ps, alpha}, n));
  auto fit = fit_levenberg_marquardt(model, xs, ys, {1e-3, 1e-4});
  EXPECT_NEAR(fit.params[0] / Ps, 1.0, 1e-4);
  EXPECT_NEAR(fit.params[1] / alpha, 1.0, 1e-2);
  EXPECT_LT(fit.mean_abs_rel_dev, 1e-6);
}

}  // namespace
}  // namespace ls3df

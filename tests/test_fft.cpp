// FFT tests: analytic DFTs, round trips, Parseval, linearity, shift
// theorem, smooth and non-smooth (Bluestein) sizes, normalised error
// bounds against a long-double DFT for every length class in fp64 and
// fp32, multi-line vs per-line bit identity, the 3D transform on the
// grid shapes the DFT engine uses (including the paper's 40^3 and 32^3
// per-cell grids), and the G-sphere transforms against the dense one.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "fft/fft3d.h"
#include "fft/plan_cache.h"
#include "grid/gvectors.h"
#include "grid/lattice.h"

namespace ls3df {
namespace {

// Direct O(n^2) DFT for reference.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, int sign) {
  const int n = static_cast<int>(x.size());
  std::vector<cplx> out(n);
  for (int k = 0; k < n; ++k) {
    cplx acc(0, 0);
    for (int j = 0; j < n; ++j) {
      const double ang = sign * units::kTwoPi * j * k / n;
      acc += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

template <typename Real = double>
std::vector<std::complex<Real>> random_signal(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<Real>> x(n);
  for (auto& v : x)
    v = std::complex<Real>(static_cast<Real>(rng.uniform(-1, 1)),
                           static_cast<Real>(rng.uniform(-1, 1)));
  return x;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class Fft1DSizes : public ::testing::TestWithParam<int> {};

TEST_P(Fft1DSizes, MatchesReferenceDft) {
  const int n = GetParam();
  auto x = random_signal(n, 42 + n);
  auto ref = dft_reference(x, -1);
  Fft1D plan(n);
  auto y = x;
  plan.forward(y);
  EXPECT_LT(max_err(y, ref), 1e-9 * n) << "n = " << n;
}

TEST_P(Fft1DSizes, RoundTripIsIdentity) {
  const int n = GetParam();
  auto x = random_signal(n, 1000 + n);
  Fft1D plan(n);
  auto y = x;
  plan.forward(y);
  plan.inverse(y);
  EXPECT_LT(max_err(y, x), 1e-11 * n) << "n = " << n;
}

TEST_P(Fft1DSizes, ParsevalHolds) {
  const int n = GetParam();
  auto x = random_signal(n, 7 + n);
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Fft1D plan(n);
  plan.forward(x);
  double freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-9 * n);
}

// Sizes: powers of 2, multiples of 3/5/7, the paper's grid sizes (40, 32),
// primes (Bluestein path: 11, 13, 17, 31, 97), and awkward composites.
INSTANTIATE_TEST_SUITE_P(AllSizes, Fft1DSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12,
                                           15, 16, 20, 21, 24, 25, 27, 30, 32,
                                           35, 36, 40, 48, 60, 64, 11, 13, 17,
                                           19, 23, 31, 97, 22, 26, 33, 39, 55,
                                           77, 100, 120, 128));

TEST(Fft1D, DeltaTransformsToConstant) {
  const int n = 24;
  std::vector<cplx> x(n, cplx(0, 0));
  x[0] = cplx(1, 0);
  Fft1D plan(n);
  plan.forward(x);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-12);
  }
}

TEST(Fft1D, SingleModeTransformsToDelta) {
  const int n = 30, mode = 7;
  std::vector<cplx> x(n);
  for (int j = 0; j < n; ++j) {
    const double ang = units::kTwoPi * mode * j / n;
    x[j] = cplx(std::cos(ang), std::sin(ang));
  }
  Fft1D plan(n);
  plan.forward(x);
  for (int k = 0; k < n; ++k) {
    const double expected = (k == mode) ? n : 0.0;
    EXPECT_NEAR(x[k].real(), expected, 1e-9) << "k=" << k;
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-9) << "k=" << k;
  }
}

TEST(Fft1D, Linearity) {
  const int n = 36;
  auto x = random_signal(n, 1);
  auto y = random_signal(n, 2);
  const cplx a(2.0, -1.0), b(-0.5, 3.0);
  std::vector<cplx> z(n);
  for (int i = 0; i < n; ++i) z[i] = a * x[i] + b * y[i];
  Fft1D plan(n);
  plan.forward(x);
  plan.forward(y);
  plan.forward(z);
  for (int i = 0; i < n; ++i)
    EXPECT_LT(std::abs(z[i] - (a * x[i] + b * y[i])), 1e-10);
}

TEST(Fft1D, ShiftTheorem) {
  // A circular shift by s multiplies the spectrum by exp(-2 pi i k s / n).
  const int n = 40, s = 3;
  auto x = random_signal(n, 9);
  std::vector<cplx> xs(n);
  for (int j = 0; j < n; ++j) xs[j] = x[(j + s) % n];
  Fft1D plan(n);
  auto X = x;
  plan.forward(X);
  plan.forward(xs);
  for (int k = 0; k < n; ++k) {
    const double ang = units::kTwoPi * k * s / n;
    const cplx phase(std::cos(ang), std::sin(ang));
    EXPECT_LT(std::abs(xs[k] - X[k] * phase), 1e-9);
  }
}

TEST(Fft1D, RealSignalHasHermitianSpectrum) {
  const int n = 32;
  Rng rng(17);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.uniform(-1, 1), 0.0);
  Fft1D plan(n);
  plan.forward(x);
  for (int k = 1; k < n; ++k)
    EXPECT_LT(std::abs(x[k] - std::conj(x[n - k])), 1e-10);
}

TEST(Fft1D, SmoothnessDetection) {
  EXPECT_TRUE(Fft1D::is_smooth(1));
  EXPECT_TRUE(Fft1D::is_smooth(8));
  EXPECT_TRUE(Fft1D::is_smooth(40));   // 2^3 * 5
  EXPECT_TRUE(Fft1D::is_smooth(360));  // 2^3*3^2*5
  EXPECT_TRUE(Fft1D::is_smooth(7 * 8));
  EXPECT_FALSE(Fft1D::is_smooth(11));
  EXPECT_FALSE(Fft1D::is_smooth(2 * 13));
  EXPECT_FALSE(Fft1D::is_smooth(97));
  // Non-positive sizes are not transform lengths; 0 in particular must not
  // enter the divide-out loop, since 0 % p == 0 for every p.
  EXPECT_FALSE(Fft1D::is_smooth(0));
  EXPECT_FALSE(Fft1D::is_smooth(-8));
}

TEST(Fft1D, GoodFftSize) {
  EXPECT_EQ(Fft1D::good_fft_size(1), 1);
  EXPECT_EQ(Fft1D::good_fft_size(7), 8);
  EXPECT_EQ(Fft1D::good_fft_size(11), 12);
  EXPECT_EQ(Fft1D::good_fft_size(17), 18);
  EXPECT_EQ(Fft1D::good_fft_size(40), 40);
  EXPECT_EQ(Fft1D::good_fft_size(41), 45);
  // Result never has a factor other than 2, 3, 5.
  for (int n = 1; n <= 200; ++n) {
    int m = Fft1D::good_fft_size(n);
    EXPECT_GE(m, n);
    for (int p : {2, 3, 5})
      while (m % p == 0) m /= p;
    EXPECT_EQ(m, 1);
  }
}

// Normalised acceptance bounds, in the style of a BLAS gemm checker:
// each error is divided by the scale of the problem and compared with a
// small multiple of the real type's machine epsilon, so one bound holds
// for every length and both precisions. Forward: max_k |X_k - ref_k| <=
// c log2(n) eps ||x||_2 against a long-double naive DFT; round trip:
// ||inverse(forward(x)) - x||_2 <= c log2(n) eps ||x||_2.
constexpr double kFftBoundFactor = 4.0;

using cplxl = std::complex<long double>;

template <typename Real>
cplxl widen(std::complex<Real> v) {
  return cplxl(v.real(), v.imag());
}

template <typename Real>
long double norm2(const std::vector<std::complex<Real>>& x) {
  long double s = 0;
  for (const auto& v : x) s += std::norm(widen(v));
  return std::sqrt(s);
}

// Forward DFT of x in long double, roots tabulated once per length.
template <typename Real>
std::vector<cplxl> dft_long_double(const std::vector<std::complex<Real>>& x) {
  const int n = static_cast<int>(x.size());
  const long double two_pi = 6.283185307179586476925286766559L;
  std::vector<cplxl> root(n);
  for (int k = 0; k < n; ++k) {
    const long double ang = -two_pi * k / n;
    root[k] = cplxl(std::cos(ang), std::sin(ang));
  }
  std::vector<cplxl> out(n);
  for (int k = 0; k < n; ++k) {
    cplxl acc(0, 0);
    for (int j = 0, e = 0; j < n; ++j, e = (e + k) % n)
      acc += widen(x[j]) * root[e];
    out[k] = acc;
  }
  return out;
}

struct FftErrors {
  double forward;     // max_k |X_k - ref_k| / (log2(n) eps ||x||_2)
  double round_trip;  // ||x' - x||_2 / (log2(n) eps ||x||_2)
};

template <typename Real>
FftErrors normalised_errors(int n, std::uint64_t seed) {
  const auto x = random_signal<Real>(n, seed);
  const std::vector<cplxl> ref = dft_long_double(x);
  BasicFft1D<Real> plan(n);
  auto y = x;
  plan.forward(y);
  long double fwd = 0;
  for (int k = 0; k < n; ++k)
    fwd = std::max(fwd, std::abs(widen(y[k]) - ref[k]));
  plan.inverse(y);
  long double rt = 0;
  for (int k = 0; k < n; ++k) rt += std::norm(widen(y[k]) - widen(x[k]));
  const long double scale = std::max(1.0, std::log2(static_cast<double>(n))) *
                            std::numeric_limits<Real>::epsilon() * norm2(x);
  return {static_cast<double>(fwd / scale),
          static_cast<double>(std::sqrt(rt) / scale)};
}

class FftBounds : public ::testing::TestWithParam<int> {};

TEST_P(FftBounds, Fp64WithinLogNEpsilon) {
  const int n = GetParam();
  const FftErrors e = normalised_errors<double>(n, 300 + n);
  EXPECT_LE(e.forward, kFftBoundFactor) << "n = " << n;
  EXPECT_LE(e.round_trip, kFftBoundFactor) << "n = " << n;
}

TEST_P(FftBounds, Fp32WithinLogNEpsilon) {
  const int n = GetParam();
  const FftErrors e = normalised_errors<float>(n, 600 + n);
  EXPECT_LE(e.forward, kFftBoundFactor) << "n = " << n;
  EXPECT_LE(e.round_trip, kFftBoundFactor) << "n = " << n;
}

// Every length class: 1, 2^k, 3*2^k, 5*2^k, other 7-smooth lengths, and
// Bluestein lengths (primes up to 997 and prime-factor composites).
INSTANTIATE_TEST_SUITE_P(
    LengthClasses, FftBounds,
    ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,  //
                      3, 6, 12, 24, 48, 96, 192, 384, 768,           //
                      5, 10, 20, 40, 80, 160, 320, 640,              //
                      7, 9, 14, 21, 35, 49, 63, 105, 210, 343, 420, 945,
                      1000,                                          //
                      11, 13, 17, 31, 97, 101, 257, 509, 997, 22, 143));

// A line transformed inside a multi-line pass must be bit-identical to
// the same line transformed alone: the contract that keeps DistFft3D ==
// Fft3D and forward_many == serial transforms exact.
template <typename Real>
void expect_lines_match_single(int n, int howmany) {
  using C = std::complex<Real>;
  BasicFft1D<Real> plan(n);
  const auto x = random_signal<Real>(n * howmany, 900 + n + howmany);
  for (bool inv : {false, true}) {
    auto many = x;
    if (inv)
      plan.inverse_lines(many.data(), howmany);
    else
      plan.forward_lines(many.data(), howmany);
    for (int l = 0; l < howmany; ++l) {
      std::vector<C> line(n);
      for (int i = 0; i < n; ++i)
        line[i] = x[static_cast<std::size_t>(i) * howmany + l];
      if (inv)
        plan.inverse(line);
      else
        plan.forward(line);
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(many[static_cast<std::size_t>(i) * howmany + l], line[i])
            << "n=" << n << " howmany=" << howmany << " line=" << l
            << " i=" << i << (inv ? " inverse" : " forward");
    }
  }
}

class FftLines : public ::testing::TestWithParam<int> {};

TEST_P(FftLines, MultiLineBitIdenticalToPerLine) {
  const int n = GetParam();
  for (int howmany : {1, 3, 64}) {
    expect_lines_match_single<double>(n, howmany);
    expect_lines_match_single<float>(n, howmany);
  }
}

// Includes lengths long enough that 64 lines run in several blocks
// (128, 360, 1000) and Bluestein lengths (11, 97).
INSTANTIATE_TEST_SUITE_P(Lengths, FftLines,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 24, 40, 63,
                                           128, 360, 1000, 11, 97));

TEST(Fft3D, RoundTrip) {
  const Vec3i shape{8, 6, 10};
  Fft3D plan(shape);
  Rng rng(3);
  std::vector<cplx> x(plan.size());
  for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto y = x;
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_LT(std::abs(y[i] - x[i]), 1e-10);
}

TEST(Fft3D, SingleModeIsDelta) {
  const Vec3i shape{6, 4, 8};
  const Vec3i mode{2, 3, 5};
  Fft3D plan(shape);
  std::vector<cplx> x(plan.size());
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iy = 0; iy < shape.y; ++iy)
      for (int iz = 0; iz < shape.z; ++iz) {
        const double ang =
            units::kTwoPi * (static_cast<double>(mode.x) * ix / shape.x +
                             static_cast<double>(mode.y) * iy / shape.y +
                             static_cast<double>(mode.z) * iz / shape.z);
        x[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] =
            cplx(std::cos(ang), std::sin(ang));
      }
  plan.forward(x);
  const std::size_t hit =
      (static_cast<std::size_t>(mode.x) * shape.y + mode.y) * shape.z + mode.z;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double expected = (i == hit) ? static_cast<double>(plan.size()) : 0.0;
    EXPECT_NEAR(x[i].real(), expected, 1e-8) << i;
    EXPECT_NEAR(x[i].imag(), 0.0, 1e-8) << i;
  }
}

TEST(Fft3D, ParsevalHolds) {
  const Vec3i shape{10, 10, 10};
  Fft3D plan(shape);
  Rng rng(8);
  std::vector<cplx> x(plan.size());
  double te = 0;
  for (auto& v : x) {
    v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    te += std::norm(v);
  }
  plan.forward(x);
  double fe = 0;
  for (const auto& v : x) fe += std::norm(v);
  EXPECT_NEAR(fe / static_cast<double>(plan.size()), te, 1e-8 * te);
}

TEST(Fft3D, PaperGridSizes) {
  // The paper uses 40^3 (Franklin, 50 Ry) and 32^3 (Intrepid, 40 Ry)
  // real-space grids per 8-atom cell; both must round-trip exactly.
  for (int n : {32, 40}) {
    Fft3D plan({n, n, n});
    Rng rng(n);
    std::vector<cplx> x(plan.size());
    for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    auto y = x;
    plan.forward(y);
    plan.inverse(y);
    double m = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      m = std::max(m, std::abs(y[i] - x[i]));
    EXPECT_LT(m, 1e-10) << "grid " << n;
  }
}

TEST(Fft3D, MatchesSeparable1DTransforms) {
  const Vec3i shape{4, 6, 5};
  Fft3D plan(shape);
  auto x = random_signal(static_cast<int>(plan.size()), 55);
  auto got = x;
  plan.forward(got);

  // Reference: apply reference DFT along each axis successively.
  auto ref = x;
  // z axis.
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iy = 0; iy < shape.y; ++iy) {
      std::vector<cplx> row(shape.z);
      for (int iz = 0; iz < shape.z; ++iz)
        row[iz] = ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz];
      row = dft_reference(row, -1);
      for (int iz = 0; iz < shape.z; ++iz)
        ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] = row[iz];
    }
  // y axis.
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iz = 0; iz < shape.z; ++iz) {
      std::vector<cplx> row(shape.y);
      for (int iy = 0; iy < shape.y; ++iy)
        row[iy] = ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz];
      row = dft_reference(row, -1);
      for (int iy = 0; iy < shape.y; ++iy)
        ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] = row[iy];
    }
  // x axis.
  for (int iy = 0; iy < shape.y; ++iy)
    for (int iz = 0; iz < shape.z; ++iz) {
      std::vector<cplx> row(shape.x);
      for (int ix = 0; ix < shape.x; ++ix)
        row[ix] = ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz];
      row = dft_reference(row, -1);
      for (int ix = 0; ix < shape.x; ++ix)
        ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] = row[ix];
    }

  EXPECT_LT(max_err(got, ref), 1e-9);
}

TEST(Fft3DMany, BitIdenticalToSingleTransforms) {
  // The many-transform sweep must reproduce per-grid transforms exactly,
  // for any worker count (each lane runs the plan with its own
  // thread-local pass scratch).
  const Vec3i shape{6, 4, 5};
  Fft3D plan(shape);
  const int count = 7;
  auto stack0 = random_signal(static_cast<int>(plan.size()) * count, 77);
  for (int workers : {1, 4}) {
    auto many = stack0;
    plan.forward_many(many.data(), count, workers);
    auto single = stack0;
    for (int g = 0; g < count; ++g)
      plan.forward(single.data() + static_cast<std::size_t>(g) * plan.size());
    for (std::size_t i = 0; i < many.size(); ++i)
      ASSERT_EQ(many[i], single[i]) << "forward i=" << i
                                    << " workers=" << workers;

    plan.inverse_many(many.data(), count, workers);
    for (int g = 0; g < count; ++g)
      plan.inverse(single.data() + static_cast<std::size_t>(g) * plan.size());
    for (std::size_t i = 0; i < many.size(); ++i)
      ASSERT_EQ(many[i], single[i]) << "inverse i=" << i
                                    << " workers=" << workers;
    // And the round trip still recovers the input to solver precision.
    for (std::size_t i = 0; i < many.size(); ++i)
      ASSERT_LT(std::abs(many[i] - stack0[i]), 1e-12);
  }
}

// The sphere transforms against the dense transform in the same
// precision, on a wavefunction basis whose sphere spans about half of
// each axis (grid spacing 0.5 Bohr, G_max = pi, the factor-2 density
// grid rule). Errors are taken in the unitary normalisation (inverse
// output times sqrt(N), forward output over sqrt(N)), so both directions
// share the FftBounds rule: ||sphere - dense||_2 <= c log2(N) eps ||x||_2.
struct SphereErrors {
  double inverse;     // whole grid
  double forward;     // sphere points only
  double round_trip;  // forward_sphere(inverse_sphere(c)) against c
};

template <typename Real>
SphereErrors sphere_vs_dense(Vec3i shape, std::uint64_t seed) {
  using C = std::complex<Real>;
  const double h = 0.5, gmax = units::kPi / (2 * h);
  const GVectors gv(Lattice({h * shape.x, h * shape.y, h * shape.z}), shape,
                    0.5 * gmax * gmax);
  // The pruning is real: the sphere misses z rows and x-slabs.
  EXPECT_LT(gv.sphere().rows.size(),
            static_cast<std::size_t>(shape.x) * shape.y / 2);
  EXPECT_LT(gv.sphere().slabs.size(), static_cast<std::size_t>(shape.x));
  BasicFft3D<Real> plan(shape);
  const std::size_t n = plan.size();
  const long double sqrt_n = std::sqrt(static_cast<long double>(n));
  const long double eps_log =
      std::log2(static_cast<double>(n)) * std::numeric_limits<Real>::epsilon();

  const auto coeff = random_signal<Real>(gv.count(), seed);
  std::vector<C> dense(n, C(0, 0));
  for (int g = 0; g < gv.count(); ++g) dense[gv.fft_index(g)] = coeff[g];
  auto sphere = dense;
  plan.inverse(dense.data());
  plan.inverse_sphere(sphere.data(), gv.sphere());
  long double inv = 0;
  for (std::size_t i = 0; i < n; ++i)
    inv += std::norm(widen(sphere[i]) - widen(dense[i]));
  plan.forward_sphere(sphere.data(), gv.sphere());
  long double rt = 0;
  for (int g = 0; g < gv.count(); ++g)
    rt += std::norm(widen(sphere[gv.fft_index(g)]) - widen(coeff[g]));

  const auto field = random_signal<Real>(static_cast<int>(n), seed + 1);
  dense = field;
  sphere = field;
  plan.forward(dense.data());
  plan.forward_sphere(sphere.data(), gv.sphere());
  long double fwd = 0;
  for (int g = 0; g < gv.count(); ++g) {
    const std::size_t i = gv.fft_index(g);
    fwd += std::norm(widen(sphere[i]) - widen(dense[i]));
  }
  return {static_cast<double>(std::sqrt(inv) * sqrt_n /
                              (eps_log * norm2(coeff))),
          static_cast<double>(std::sqrt(fwd) / sqrt_n /
                              (eps_log * norm2(field))),
          static_cast<double>(std::sqrt(rt) / (eps_log * norm2(coeff)))};
}

class Fft3DSphere : public ::testing::TestWithParam<Vec3i> {};

TEST_P(Fft3DSphere, Fp64MatchesDenseWithinLogNEpsilon) {
  const Vec3i s = GetParam();
  const SphereErrors e = sphere_vs_dense<double>(s, 900 + s.x + s.y + s.z);
  EXPECT_LE(e.inverse, kFftBoundFactor);
  EXPECT_LE(e.forward, kFftBoundFactor);
  EXPECT_LE(e.round_trip, kFftBoundFactor);
}

TEST_P(Fft3DSphere, Fp32MatchesDenseWithinLogNEpsilon) {
  const Vec3i s = GetParam();
  const SphereErrors e = sphere_vs_dense<float>(s, 950 + s.x + s.y + s.z);
  EXPECT_LE(e.inverse, kFftBoundFactor);
  EXPECT_LE(e.forward, kFftBoundFactor);
  EXPECT_LE(e.round_trip, kFftBoundFactor);
}

// The two fragment-grid shapes of the benchmark workloads, an odd shape,
// and a Bluestein length on the pruned z axis.
INSTANTIATE_TEST_SUITE_P(Shapes, Fft3DSphere,
                         ::testing::Values(Vec3i{16, 8, 8}, Vec3i{24, 8, 8},
                                           Vec3i{15, 9, 10},
                                           Vec3i{12, 8, 11}));

}  // namespace
}  // namespace ls3df

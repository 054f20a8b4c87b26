// Grid tests: lattice geometry, periodic field extraction/accumulation
// (the Gen_VF / Gen_dens primitives), and plane-wave basis construction,
// including the FFT lines its sphere touches.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "grid/field3d.h"
#include "grid/gvectors.h"
#include "grid/lattice.h"

namespace ls3df {
namespace {

TEST(Lattice, VolumeAndReciprocal) {
  Lattice lat({2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(lat.volume(), 24.0);
  const Vec3d b = lat.reciprocal();
  EXPECT_DOUBLE_EQ(b.x, units::kTwoPi / 2.0);
  EXPECT_DOUBLE_EQ(b.y, units::kTwoPi / 3.0);
  EXPECT_DOUBLE_EQ(b.z, units::kTwoPi / 4.0);
}

TEST(Lattice, CartesianFractionalRoundTrip) {
  Lattice lat({5.0, 7.0, 11.0});
  const Vec3d f{0.25, 0.5, 0.9};
  const Vec3d c = lat.cartesian(f);
  const Vec3d f2 = lat.fractional(c);
  EXPECT_NEAR(f2.x, f.x, 1e-15);
  EXPECT_NEAR(f2.y, f.y, 1e-15);
  EXPECT_NEAR(f2.z, f.z, 1e-15);
}

TEST(Lattice, MinImage) {
  Lattice lat({10.0, 10.0, 10.0});
  // Points near opposite faces are close through the boundary.
  const Vec3d d = lat.min_image({9.5, 0, 0}, {0.5, 0, 0});
  EXPECT_NEAR(d.x, 1.0, 1e-14);
  EXPECT_NEAR(d.norm(), 1.0, 1e-14);
  // Interior pair unaffected.
  const Vec3d e = lat.min_image({2, 2, 2}, {3, 4, 5});
  EXPECT_NEAR(e.x, 1.0, 1e-14);
  EXPECT_NEAR(e.y, 2.0, 1e-14);
  EXPECT_NEAR(e.z, 3.0, 1e-14);
}

TEST(Lattice, SubBox) {
  Lattice lat({8.0, 8.0, 8.0});
  Lattice sub = lat.sub_box({2, 1, 4}, {4, 4, 4});
  EXPECT_DOUBLE_EQ(sub.lengths().x, 4.0);
  EXPECT_DOUBLE_EQ(sub.lengths().y, 2.0);
  EXPECT_DOUBLE_EQ(sub.lengths().z, 8.0);
}

TEST(Field3D, IndexingAndLayout) {
  FieldR f({2, 3, 4});
  EXPECT_EQ(f.size(), 24u);
  // z fastest.
  EXPECT_EQ(f.index(0, 0, 1), 1u);
  EXPECT_EQ(f.index(0, 1, 0), 4u);
  EXPECT_EQ(f.index(1, 0, 0), 12u);
  f(1, 2, 3) = 42.0;
  EXPECT_DOUBLE_EQ(f[f.index(1, 2, 3)], 42.0);
}

TEST(Field3D, PeriodicAccess) {
  FieldR f({3, 3, 3});
  f(0, 1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(f.at_periodic(3, 4, -1), 7.0);
  EXPECT_DOUBLE_EQ(f.at_periodic(-3, 1, 5), 7.0);
}

TEST(Field3D, ArithmeticAndSum) {
  FieldR a({2, 2, 2}), b({2, 2, 2});
  a.fill(1.0);
  b.fill(2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.sum(), 24.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a.sum(), 8.0);
  a *= 3.0;
  EXPECT_DOUBLE_EQ(a.sum(), 24.0);
}

TEST(Field3D, ExtractInterior) {
  FieldR f({4, 4, 4});
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      for (int z = 0; z < 4; ++z) f(x, y, z) = 100.0 * x + 10.0 * y + z;
  FieldR sub = f.extract({1, 1, 1}, {2, 2, 2});
  EXPECT_DOUBLE_EQ(sub(0, 0, 0), 111.0);
  EXPECT_DOUBLE_EQ(sub(1, 1, 1), 222.0);
}

TEST(Field3D, ExtractWrapsPeriodically) {
  FieldR f({4, 4, 4});
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      for (int z = 0; z < 4; ++z) f(x, y, z) = 100.0 * x + 10.0 * y + z;
  // Start at (-1,-1,-1): first element is the (3,3,3) corner.
  FieldR sub = f.extract({-1, -1, -1}, {2, 2, 2});
  EXPECT_DOUBLE_EQ(sub(0, 0, 0), 333.0);
  EXPECT_DOUBLE_EQ(sub(1, 1, 1), 0.0);
  // Start past the upper edge wraps to 0.
  FieldR sub2 = f.extract({3, 3, 3}, {2, 2, 2});
  EXPECT_DOUBLE_EQ(sub2(1, 1, 1), 0.0);
}

TEST(Field3D, ExtractThenAccumulateRoundTrips) {
  Rng rng(5);
  FieldR f({5, 4, 6});
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = rng.uniform(-1, 1);
  const Vec3i off{3, 2, 4}, shape{4, 3, 5};
  FieldR sub = f.extract(off, shape);
  FieldR g({5, 4, 6});
  g.accumulate(off, sub, 1.0);
  // g now holds f's values on the extracted (wrapped) region, 0 elsewhere.
  for (int x = 0; x < shape.x; ++x)
    for (int y = 0; y < shape.y; ++y)
      for (int z = 0; z < shape.z; ++z)
        EXPECT_DOUBLE_EQ(g.at_periodic(off.x + x, off.y + y, off.z + z),
                         f.at_periodic(off.x + x, off.y + y, off.z + z));
}

TEST(Field3D, AccumulateRegionRestricts) {
  FieldR f({4, 4, 4});
  FieldR sub({3, 3, 3});
  sub.fill(1.0);
  // Only the leading 2x2x2 corner of sub is accumulated.
  f.accumulate_region({0, 0, 0}, sub, {2, 2, 2}, 2.0);
  EXPECT_DOUBLE_EQ(f.sum(), 16.0);
  EXPECT_DOUBLE_EQ(f(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(f(2, 0, 0), 0.0);
}

TEST(Field3D, SignedAccumulationCancels) {
  // Adding and subtracting the same block leaves the field unchanged:
  // the essence of the LS3DF +- patching.
  FieldR f({6, 6, 6});
  f.fill(3.0);
  FieldR before = f;
  FieldR sub({4, 4, 4});
  Rng rng(9);
  for (std::size_t i = 0; i < sub.size(); ++i) sub[i] = rng.uniform(-2, 2);
  f.accumulate({5, 5, 5}, sub, +1.0);
  f.accumulate({5, 5, 5}, sub, -1.0);
  for (std::size_t i = 0; i < f.size(); ++i)
    EXPECT_NEAR(f[i], before[i], 1e-14);
}

TEST(L1Distance, MatchesManualIntegral) {
  FieldR a({2, 2, 2}), b({2, 2, 2});
  a.fill(1.0);
  b.fill(0.0);
  b(0, 0, 0) = 3.0;
  // |1-0|*7 + |1-3|*1 = 9 grid-sum, times point volume 0.5.
  EXPECT_DOUBLE_EQ(l1_distance(a, b, 0.5), 4.5);
}

TEST(GVectors, ContainsG0AndClosedUnderNegation) {
  Lattice lat = Lattice::cubic(10.0);
  GVectors gv(lat, {12, 12, 12}, 2.0);
  EXPECT_GT(gv.count(), 1);
  const int g0 = gv.g0_index();
  EXPECT_DOUBLE_EQ(gv.g2(g0), 0.0);
  // For each G in the set, -G is too (real potentials need both).
  for (int i = 0; i < gv.count(); ++i) {
    const Vec3i m = gv.miller(i);
    bool found = false;
    for (int j = 0; j < gv.count(); ++j)
      if (gv.miller(j) == Vec3i(-m.x, -m.y, -m.z)) {
        found = true;
        break;
      }
    EXPECT_TRUE(found) << "missing -G for " << m;
  }
}

TEST(GVectors, RespectsCutoff) {
  Lattice lat = Lattice::cubic(8.0);
  const double ecut = 3.0;
  GVectors gv(lat, {16, 16, 16}, ecut);
  for (int i = 0; i < gv.count(); ++i) {
    EXPECT_LE(0.5 * gv.g2(i), ecut + 1e-12);
    EXPECT_NEAR(gv.g2(i), gv.g(i).norm2(), 1e-12);
  }
}

TEST(GVectors, CountGrowsWithCutoff) {
  Lattice lat = Lattice::cubic(8.0);
  GVectors small(lat, {20, 20, 20}, 1.0);
  GVectors big(lat, {20, 20, 20}, 4.0);
  EXPECT_GT(big.count(), small.count());
  // Volume scaling: n_G ~ ecut^{3/2}; ratio should be near 4^{3/2} = 8.
  const double ratio = static_cast<double>(big.count()) / small.count();
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(GVectors, ScatterGatherRoundTrip) {
  Lattice lat = Lattice::cubic(6.0);
  GVectors gv(lat, {10, 10, 10}, 2.5);
  Rng rng(2);
  std::vector<cplx> c(gv.count());
  for (auto& v : c) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  FieldC grid({10, 10, 10});
  gv.scatter(c.data(), grid);
  std::vector<cplx> c2(gv.count());
  gv.gather(grid, c2.data());
  for (int i = 0; i < gv.count(); ++i)
    EXPECT_LT(std::abs(c[i] - c2[i]), 1e-15);
  // Off-basis grid points are zero after scatter.
  double off_energy = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) off_energy += std::norm(grid[i]);
  double on_energy = 0;
  for (const auto& v : c) on_energy += std::norm(v);
  EXPECT_NEAR(off_energy, on_energy, 1e-12);
}

TEST(GVectors, SphereListsExactlyTheTouchedRowsAndSlabs) {
  // sphere() lists every z row and x-slab holding a basis element, no
  // more and no fewer, ascending. Checked against a brute-force mark of
  // the grid on a cubic, an anisotropic and an odd-shaped basis.
  struct Case {
    Lattice lat;
    Vec3i shape;
    double ecut;
  };
  const Case cases[] = {{Lattice::cubic(6.0), {12, 12, 12}, 1.5},
                        {Lattice({12.0, 4.0, 4.0}), {24, 8, 8}, 1.0},
                        {Lattice({7.5, 4.5, 5.0}), {15, 9, 10}, 2.0}};
  for (const Case& c : cases) {
    const GVectors gv(c.lat, c.shape, c.ecut);
    const int n1 = c.shape.x, n2 = c.shape.y, n3 = c.shape.z;
    std::vector<bool> row_hit(static_cast<std::size_t>(n1) * n2, false);
    std::vector<bool> slab_hit(n1, false);
    for (int g = 0; g < gv.count(); ++g) {
      const std::size_t row = gv.fft_index(g) / n3;
      row_hit[row] = true;
      slab_hit[row / n2] = true;
    }
    std::vector<int> rows, slabs;
    for (std::size_t r = 0; r < row_hit.size(); ++r)
      if (row_hit[r]) rows.push_back(static_cast<int>(r));
    for (int ix = 0; ix < n1; ++ix)
      if (slab_hit[ix]) slabs.push_back(ix);
    EXPECT_EQ(gv.sphere().rows, rows);
    EXPECT_EQ(gv.sphere().slabs, slabs);
    // The basis is a proper subset of the grid, so some lines are pruned.
    EXPECT_LT(rows.size(), row_hit.size());
  }
}

TEST(GVectors, FreqConvention) {
  EXPECT_EQ(GVectors::freq(0, 8), 0);
  EXPECT_EQ(GVectors::freq(4, 8), 4);
  EXPECT_EQ(GVectors::freq(5, 8), -3);
  EXPECT_EQ(GVectors::freq(7, 8), -1);
  EXPECT_EQ(GVectors::freq(3, 7), 3);
  EXPECT_EQ(GVectors::freq(4, 7), -3);
}

TEST(GVectors, AnisotropicLattice) {
  // Longer axis -> denser G spacing -> more G's along that axis.
  Lattice lat({20.0, 5.0, 5.0});
  GVectors gv(lat, {40, 10, 10}, 1.0);
  int max_h = 0, max_k = 0;
  for (int i = 0; i < gv.count(); ++i) {
    max_h = std::max(max_h, std::abs(gv.miller(i).x));
    max_k = std::max(max_k, std::abs(gv.miller(i).y));
  }
  EXPECT_GT(max_h, max_k);
}

}  // namespace
}  // namespace ls3df

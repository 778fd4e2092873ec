// Hardening sweep: degenerate/adversarial inputs and cross-structure
// consistency at larger sizes than the per-module tests use.

#include <random>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "core/monte_carlo_pnn.h"
#include "core/nn_nonzero_index.h"
#include "core/nonzero_voronoi.h"
#include "core/spiral_search.h"
#include "workload/generators.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

TEST(StressDegenerate, GridCentersEqualRadii) {
  // Maximal symmetry: 4x4 grid of equal disks. Ties everywhere between
  // cells; queries keep a safety margin from the (very regular) diagram
  // boundaries.
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      pts.push_back(UncertainPoint::Disk({4.0 * i, 4.0 * j}, 1.0));
    }
  }
  NonzeroVoronoi vd(pts);
  NnNonzeroIndex ix(pts);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> qu(-3, 15);
  int checked = 0;
  for (int t = 0; t < 400; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    if (NonzeroNnMargin(pts, q) < 1e-6) continue;
    auto want = baselines::NonzeroNn(pts, q);
    ASSERT_EQ(ix.Query(q), want) << "t=" << t;
    ASSERT_EQ(vd.Query(q), want) << "t=" << t;
    ++checked;
  }
  EXPECT_GT(checked, 300);
}

TEST(StressDegenerate, CollinearCentersMixedRadii) {
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back(
        UncertainPoint::Disk({3.0 * i, 0.0}, 0.4 + 0.15 * (i % 4)));
  }
  NonzeroVoronoi vd(pts);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> qx(-4, 38), qy(-12, 12);
  int checked = 0;
  for (int t = 0; t < 400; ++t) {
    Vec2 q{qx(rng), qy(rng)};
    if (NonzeroNnMargin(pts, q) < 1e-6) continue;
    ASSERT_EQ(vd.Query(q), baselines::NonzeroNn(pts, q)) << "t=" << t;
    ++checked;
  }
  EXPECT_GT(checked, 300);
}

TEST(StressDegenerate, NestedDisksContainment) {
  // A disk strictly inside another: the inner one always wins against the
  // outer somewhere, and gamma machinery must handle D < |r_i - r_j|.
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 4.0),
                                     UncertainPoint::Disk({0.5, 0}, 0.5),
                                     UncertainPoint::Disk({12, 0}, 1.0)};
  NonzeroVoronoi vd(pts);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> qu(-10, 20);
  for (int t = 0; t < 300; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    if (NonzeroNnMargin(pts, q) < 1e-6) continue;
    ASSERT_EQ(vd.Query(q), baselines::NonzeroNn(pts, q)) << "t=" << t;
  }
}

TEST(StressDegenerate, LargerRandomInstance) {
  auto pts = workload::RandomDisks(48, /*seed=*/33);
  NonzeroVoronoi vd(pts);
  const auto& st = vd.stats();
  EXPECT_EQ(st.bounded_faces, st.dcel_faces_euler - 1);
  EXPECT_EQ(st.dropped_subarcs, 0);
  EXPECT_LE(st.unlabeled_loops, 1);
  std::mt19937_64 rng(35);
  std::uniform_real_distribution<double> qu(-18, 18);
  int checked = 0;
  for (int t = 0; t < 500; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    if (NonzeroNnMargin(pts, q) < 1e-6 * vd.window().Diagonal()) continue;
    ASSERT_EQ(vd.Query(q), baselines::NonzeroNn(pts, q)) << "t=" << t;
    ++checked;
  }
  EXPECT_GT(checked, 400);
}

TEST(StressDegenerate, GuaranteedVoronoiSemantics) {
  // [SE08]: in a guaranteed cell exactly one point can be the NN, so its
  // quantification probability is 1 under any pdf.
  auto pts = workload::RandomDisks(10, /*seed=*/41, 14.0, 0.3, 0.8);
  NonzeroVoronoi vd(pts);
  EXPECT_GT(vd.NumGuaranteedFaces(), 0);  // Sparse input: many guaranteed.
  MonteCarloPnnOptions opts;
  opts.s_override = 400;
  MonteCarloPnn mc(pts, opts);
  std::mt19937_64 rng(43);
  std::uniform_real_distribution<double> qu(-16, 16);
  int verified = 0;
  for (int t = 0; t < 300 && verified < 40; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    int g = vd.GuaranteedNn(q);
    if (g < 0) continue;
    EXPECT_DOUBLE_EQ(mc.PointProbability(q, g), 1.0) << "t=" << t;
    ++verified;
  }
  EXPECT_GT(verified, 10);
}

TEST(StressDegenerate, MixedModelsMonteCarlo) {
  // Continuous and discrete points together: only the MC estimator accepts
  // mixed inputs; its estimates must sum to 1 and respect NN!=0 support.
  std::vector<UncertainPoint> pts = {
      UncertainPoint::Disk({0, 0}, 1.0),
      UncertainPoint::Disk({5, 1}, 1.5, DiskPdf::kTruncatedGaussian),
      UncertainPoint::Discrete({{2, 4}, {3, 5}}, {0.5, 0.5}),
      UncertainPoint::Discrete({{-4, 2}}, {1.0})};
  MonteCarloPnnOptions opts;
  opts.s_override = 20000;
  MonteCarloPnn mc(pts, opts);
  std::mt19937_64 rng(47);
  std::uniform_real_distribution<double> qu(-6, 8);
  for (int t = 0; t < 25; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    auto est = mc.Query(q);
    double sum = 0;
    auto support = baselines::NonzeroNn(pts, q);
    for (auto [id, p] : est) {
      sum += p;
      // Anything that wins an instantiation must be in NN!=0 (margin-
      // tolerant: boundary cases excluded).
      if (NonzeroNnMargin(pts, q) > 1e-6) {
        EXPECT_TRUE(std::binary_search(support.begin(), support.end(), id))
            << "id=" << id;
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(StressDegenerate, ContinuousSpiralSearchMatchesIntegration) {
  // Open problem (iii) prototype: sampled spiral search on disks agrees
  // with the Eq. (1) integration baseline.
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({3, 0}, 1.2),
                                     UncertainPoint::Disk({1, 3}, 0.8)};
  ContinuousSpiralSearch css(pts, /*eps_discretization=*/0.05, /*seed=*/3);
  for (Vec2 q : {Vec2{1, 1}, Vec2{0.5, -0.5}, Vec2{2, 2}}) {
    std::vector<double> est(pts.size(), 0.0);
    for (auto [id, p] : css.Query(q, 0.01)) est[id] = p;
    for (size_t i = 0; i < pts.size(); ++i) {
      double exact = IntegrateQuantification(pts, static_cast<int>(i), q);
      EXPECT_NEAR(est[i], exact, 0.05) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace unn

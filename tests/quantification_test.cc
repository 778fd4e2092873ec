#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "core/monte_carlo_pnn.h"
#include "core/pnn_common.h"
#include "core/spiral_search.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

std::vector<UncertainPoint> RandomDiscrete(int n, int k, std::mt19937_64& rng,
                                           double spread = 10.0,
                                           double cluster = 1.0,
                                           bool uniform_weights = true) {
  std::uniform_real_distribution<double> pos(-spread, spread);
  std::uniform_real_distribution<double> off(-cluster, cluster);
  std::uniform_real_distribution<double> wu(0.2, 1.0);
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    double cx = pos(rng), cy = pos(rng);
    std::vector<Vec2> sites;
    std::vector<double> w;
    double total = 0;
    for (int s = 0; s < k; ++s) {
      double ox = off(rng), oy = off(rng);
      sites.push_back({cx + ox, cy + oy});
      double ws = uniform_weights ? 1.0 : wu(rng);
      w.push_back(ws);
      total += ws;
    }
    for (auto& x : w) x /= total;
    pts.push_back(UncertainPoint::Discrete(sites, w));
  }
  return pts;
}

TEST(ExactPnn, HandComputedTwoPointCase) {
  // P0 = {(1,0)} certain; P1 = {(2,0) w .5, (3,0) w .5}; q at origin.
  std::vector<UncertainPoint> pts = {
      UncertainPoint::Discrete({{1, 0}}, {1.0}),
      UncertainPoint::Discrete({{2, 0}, {3, 0}}, {0.5, 0.5})};
  auto pi = baselines::QuantificationProbabilities(pts, {0, 0});
  EXPECT_NEAR(pi[0], 1.0, 1e-12);
  EXPECT_NEAR(pi[1], 0.0, 1e-12);
}

TEST(ExactPnn, HandComputedInterleavedCase) {
  // P0 = {d=1 w .5, d=4 w .5}; P1 = {d=2 w 1}; pi = (0.5, 0.5).
  std::vector<UncertainPoint> pts = {
      UncertainPoint::Discrete({{1, 0}, {4, 0}}, {0.5, 0.5}),
      UncertainPoint::Discrete({{0, 2}}, {1.0})};
  auto pi = baselines::QuantificationProbabilities(pts, {0, 0});
  EXPECT_NEAR(pi[0], 0.5, 1e-12);
  EXPECT_NEAR(pi[1], 0.5, 1e-12);
}

TEST(ExactPnn, LemmaFourOneHalfPowers) {
  // The Lemma 4.1 configuration: every P_i is {p_i w .5, far_i w .5} with
  // p_i the (i+1)-st closest point and far_0 the closest far location. Then
  // pi_i = 0.5^{i+1}, plus the all-at-far event 0.5^n won by P_0.
  int n = 6;
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(UncertainPoint::Discrete(
        {{static_cast<double>(i + 1), 0}, {100.0 + i, 0}}, {0.5, 0.5}));
  }
  auto pi = baselines::QuantificationProbabilities(pts, {0, 0});
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], std::pow(0.5, i + 1) + (i == 0 ? std::pow(0.5, n) : 0),
                1e-12)
        << i;
  }
}

TEST(ExactPnn, ProbabilitiesSumToOneRandomized) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 40; ++iter) {
    auto pts = RandomDiscrete(2 + iter % 12, 1 + iter % 5, rng, 10.0, 2.0,
                              iter % 2 == 0);
    std::uniform_real_distribution<double> qu(-12, 12);
    Vec2 q{qu(rng), qu(rng)};
    auto pi = baselines::QuantificationProbabilities(pts, q);
    double sum = 0;
    for (double p : pi) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "iter=" << iter;
  }
}

TEST(ExactPnn, DiscreteQuantificationReturnsPositiveOnly) {
  std::mt19937_64 rng(43);
  auto pts = RandomDiscrete(8, 3, rng);
  auto out = DiscreteQuantification(pts, {0, 0});
  double sum = 0;
  for (auto [id, p] : out) {
    EXPECT_GT(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].first, out[i].first);
}

TEST(ExactPnn, IntegrationMatchesMonteCarloOnDisks) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({3, 0}, 1.5),
                                     UncertainPoint::Disk({0, 4}, 0.8)};
  MonteCarloPnnOptions opts;
  opts.s_override = 200000;
  opts.seed = 99;
  MonteCarloPnn mc(pts, opts);
  for (Vec2 q : {Vec2{1.2, 0.7}, Vec2{0, 0}, Vec2{2, 2}}) {
    auto integrated = IntegrateAllQuantifications(pts, q, 1e-9);
    double sum = 0;
    for (auto [id, p] : integrated) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-6);  // Eq. (1) integrates to 1 over all i.
    for (auto [id, p] : integrated) {
      EXPECT_NEAR(p, mc.PointProbability(q, id), 0.01)
          << "id=" << id << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(MonteCarloPnn, DiscreteErrorWithinEps) {
  std::mt19937_64 rng(77);
  auto pts = RandomDiscrete(8, 3, rng, 6.0, 3.0);
  MonteCarloPnnOptions opts;
  opts.s_override = 40000;
  MonteCarloPnn mc(pts, opts);
  std::uniform_real_distribution<double> qu(-8, 8);
  // With s = 40000 the Chernoff bound gives eps ~ sqrt(ln(2/d)/2s) ~ 0.01.
  for (int t = 0; t < 20; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    auto exact = baselines::QuantificationProbabilities(pts, q);
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_NEAR(mc.PointProbability(q, static_cast<int>(i)), exact[i], 0.02)
          << "t=" << t << " i=" << i;
    }
  }
}

TEST(MonteCarloPnn, RequiredSamplesScalesInverseEpsSquared) {
  int s1 = MonteCarloPnn::RequiredSamples(10, 4, 0.2, 0.05);
  int s2 = MonteCarloPnn::RequiredSamples(10, 4, 0.1, 0.05);
  int s4 = MonteCarloPnn::RequiredSamples(10, 4, 0.05, 0.05);
  EXPECT_NEAR(static_cast<double>(s2) / s1, 4.0, 0.1);
  EXPECT_NEAR(static_cast<double>(s4) / s2, 4.0, 0.1);
}

TEST(MonteCarloPnn, EstimatesSumToAtMostOne) {
  std::mt19937_64 rng(78);
  auto pts = RandomDiscrete(10, 2, rng);
  MonteCarloPnnOptions opts;
  opts.s_override = 5000;
  MonteCarloPnn mc(pts, opts);
  auto est = mc.Query({0.3, -0.2});
  double sum = 0;
  for (auto [id, p] : est) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);  // Counts partition the instantiations.
}

class SpiralSearchEps : public ::testing::TestWithParam<double> {};

TEST_P(SpiralSearchEps, Lemma46SandwichHolds) {
  double eps = GetParam();
  std::mt19937_64 rng(123);
  for (int iter = 0; iter < 12; ++iter) {
    bool uniform = iter % 2 == 0;
    auto pts = RandomDiscrete(12, 4, rng, 8.0, 2.0, uniform);
    SpiralSearch ss(pts);
    std::uniform_real_distribution<double> qu(-10, 10);
    for (int t = 0; t < 25; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      auto exact = baselines::QuantificationProbabilities(pts, q);
      auto est = ss.Query(q, eps);
      std::vector<double> est_dense(pts.size(), 0.0);
      for (auto [id, p] : est) est_dense[id] = p;
      for (size_t i = 0; i < pts.size(); ++i) {
        // Lemma 4.6: hat-pi <= pi <= hat-pi + eps.
        EXPECT_LE(est_dense[i], exact[i] + 1e-9) << "i=" << i;
        EXPECT_GE(est_dense[i] + eps + 1e-9, exact[i]) << "i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, SpiralSearchEps,
                         ::testing::Values(0.2, 0.1, 0.05, 0.01),
                         [](const auto& info) {
                           return "eps" + std::to_string(static_cast<int>(
                                              info.param * 1000));
                         });

TEST(SpiralSearch, RetrievalCountFormula) {
  std::mt19937_64 rng(124);
  auto pts = RandomDiscrete(20, 4, rng, 8.0, 2.0, /*uniform=*/true);
  SpiralSearch ss(pts);
  EXPECT_NEAR(ss.rho(), 1.0, 1e-9);
  EXPECT_EQ(ss.k(), 4);
  // m = ceil(rho k ln(1/eps)) + k - 1 (capped at N).
  int m = ss.SitesRetrieved(0.1);
  EXPECT_LE(m, 20 * 4);
  EXPECT_GE(m, static_cast<int>(4 * std::log(10.0)));
}

TEST(SpiralSearch, RemarkOneAdversarialSmallWeights) {
  // Section 4.3 Remark (i): dropping low-weight locations can distort other
  // probabilities by more than 2 eps, so the spiral prefix must be chosen
  // by *distance*, not by weight. Construction (q at origin):
  //   P0: site at d=1 with w=3eps (rest far), P1: site at d=4 with w=5eps
  //   (rest far), and n/2 middle points each with one site at d in (2,3)
  //   carrying tiny weight 2/n.
  const double eps = 0.02;
  const int half = 60;
  std::vector<UncertainPoint> pts;
  pts.push_back(UncertainPoint::Discrete({{1, 0}, {200, 0}},
                                         {3 * eps, 1 - 3 * eps}));
  pts.push_back(UncertainPoint::Discrete({{4, 0}, {210, 0}},
                                         {5 * eps, 1 - 5 * eps}));
  double tiny = 1.0 / half;  // Far below eps: a truncating estimator drops it.
  for (int i = 0; i < half; ++i) {
    double d = 2.0 + i / static_cast<double>(half);
    pts.push_back(UncertainPoint::Discrete(
        {{d, 0.01 * i}, {220.0 + i, 0}}, {tiny, 1 - tiny}));
  }
  Vec2 q{0, 0};
  auto exact = baselines::QuantificationProbabilities(pts, q);
  // True pi for P1 is damped below ~2 eps by the tiny middle weights.
  EXPECT_LT(exact[1], 2 * eps);
  // A weight-truncating estimator (drop sites with w < eps/k) overshoots.
  {
    std::vector<WeightedSite> kept;
    for (size_t i = 0; i < pts.size(); ++i) {
      for (size_t s = 0; s < pts[i].sites().size(); ++s) {
        if (pts[i].weights()[s] < eps) continue;
        kept.push_back({Dist(q, pts[i].sites()[s]), static_cast<int>(i),
                        pts[i].weights()[s]});
      }
    }
    std::sort(kept.begin(), kept.end(),
              [](const WeightedSite& a, const WeightedSite& b) {
                return a.dist < b.dist;
              });
    std::vector<double> naive;
    AccumulateQuantification(kept, static_cast<int>(pts.size()), &naive);
    EXPECT_GT(naive[1], exact[1] + 2 * eps)
        << "weight truncation should visibly distort pi_1";
  }
  // The distance-prefix spiral search stays within its guarantee.
  SpiralSearch ss(pts);
  auto est = ss.Query(q, eps);
  std::vector<double> est_dense(pts.size(), 0.0);
  for (auto [id, p] : est) est_dense[id] = p;
  EXPECT_LE(est_dense[1], exact[1] + 1e-9);
  EXPECT_GE(est_dense[1] + eps + 1e-9, exact[1]);
}

}  // namespace
}  // namespace core
}  // namespace unn

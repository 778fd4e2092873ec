#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "core/linf_nonzero_index.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

std::vector<Vec2> TestQueries() {
  std::vector<Vec2> qs;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-12.0, 12.0);
  for (int i = 0; i < 24; ++i) qs.push_back({u(rng), u(rng)});
  // A few structured probes: origin, far away, on top of likely centers.
  qs.push_back({0, 0});
  qs.push_back({100, 100});
  qs.push_back({1, 1});
  return qs;
}

/// Exact quantification probabilities, dense, via the definition-level
/// baselines — the oracle every backend is compared against.
std::vector<double> OracleProbabilities(const std::vector<UncertainPoint>& pts,
                                        Vec2 q) {
  bool all_discrete = true;
  for (const auto& p : pts) all_discrete = all_discrete && !p.is_disk();
  if (all_discrete) return baselines::QuantificationProbabilities(pts, q);
  std::vector<double> pi(pts.size(), 0.0);
  for (auto [id, p] : core::IntegrateAllQuantifications(pts, q, 1e-9)) {
    pi[id] = p;
  }
  return pi;
}

/// L_inf NN!=0 oracle over squares: Lemma 2.1 with Chebyshev distances and
/// the exact j != i threshold semantics.
std::vector<int> OracleLinfNonzero(const std::vector<core::SquareRegion>& sq,
                                   Vec2 q) {
  double best = std::numeric_limits<double>::infinity();
  double second = std::numeric_limits<double>::infinity();
  int argbest = -1;
  for (size_t j = 0; j < sq.size(); ++j) {
    double up = core::ChebyshevDist(q, sq[j].center) + sq[j].half_side;
    if (up < best) {
      second = best;
      best = up;
      argbest = static_cast<int>(j);
    } else if (up < second) {
      second = up;
    }
  }
  std::vector<int> out;
  for (size_t i = 0; i < sq.size(); ++i) {
    double lo =
        std::max(core::ChebyshevDist(q, sq[i].center) - sq[i].half_side, 0.0);
    double threshold = static_cast<int>(i) == argbest ? second : best;
    if (lo < threshold) out.push_back(static_cast<int>(i));
  }
  return out;
}

/// Margin between the best and second-best oracle probability — estimator
/// backends are only required to agree on the argmax when it is separated
/// by more than twice their accuracy.
double ArgmaxMargin(const std::vector<double>& pi) {
  double best = -1, second = -1;
  for (double p : pi) {
    if (p > best) {
      second = best;
      best = p;
    } else if (p > second) {
      second = p;
    }
  }
  return best - second;
}

int OracleArgmax(const std::vector<double>& pi) {
  return static_cast<int>(
      std::max_element(pi.begin(), pi.end()) - pi.begin());
}

// ---------------------------------------------------------------------------
// NN!=0 agreement: every exact backend must match the definition oracle
// bit-for-bit on random and degenerate inputs.
// ---------------------------------------------------------------------------

class EngineNonzeroAgreement
    : public ::testing::TestWithParam<std::tuple<const char*, Backend>> {};

std::vector<std::vector<UncertainPoint>> NonzeroInputs(bool discrete) {
  std::vector<std::vector<UncertainPoint>> inputs;
  if (discrete) {
    inputs.push_back(workload::RandomDiscrete(24, 4, 11));
    inputs.push_back(workload::RandomDiscrete(16, 3, 12, 0, 1.0, false));
    // Degenerate: coincident sites shared between points.
    std::vector<UncertainPoint> coincident;
    for (int i = 0; i < 6; ++i) {
      coincident.push_back(UncertainPoint::DiscreteUniform(
          {{1.0, 2.0}, {double(i % 3), 0.0}}));
    }
    inputs.push_back(coincident);
    // Degenerate: k = 1 certain points, one duplicated.
    inputs.push_back({UncertainPoint::DiscreteUniform({{0, 0}}),
                      UncertainPoint::DiscreteUniform({{0, 0}}),
                      UncertainPoint::DiscreteUniform({{4, 1}}),
                      UncertainPoint::DiscreteUniform({{-3, 2}})});
  } else {
    inputs.push_back(workload::RandomDisks(24, 21));
    inputs.push_back(workload::DisjointDisks(16, 2.0, 22));
    // Degenerate: coincident centers, equal radii.
    inputs.push_back({UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({5, 0}, 1.0),
                      UncertainPoint::Disk({0, 5}, 2.0)});
    // Degenerate: equal-radius grid (the Theorem 2.8 regime).
    std::vector<UncertainPoint> grid;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        grid.push_back(UncertainPoint::Disk({i * 2.0, j * 2.0}, 1.0));
      }
    }
    inputs.push_back(grid);
  }
  return inputs;
}

TEST_P(EngineNonzeroAgreement, MatchesOracle) {
  auto [model, backend] = GetParam();
  bool discrete = std::string(model) == "discrete";
  for (const auto& pts : NonzeroInputs(discrete)) {
    Engine::Config cfg;
    cfg.backend = backend;
    Engine engine(pts, cfg);
    for (Vec2 q : TestQueries()) {
      // The V!=0 diagram is discontinuous across its edges; on exact-tie
      // boundaries (margin 0) the strict-inequality definition is not
      // achievable in floating point. Same idiom as stress_degenerate_test.
      if (backend == Backend::kNonzeroVoronoi &&
          core::NonzeroNnMargin(pts, q) < 1e-6) {
        continue;
      }
      EXPECT_EQ(engine.NonzeroNn(q), baselines::NonzeroNn(pts, q))
          << "model=" << model << " backend=" << static_cast<int>(backend)
          << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllExactBackends, EngineNonzeroAgreement,
    ::testing::Values(
        std::make_tuple("disk", Backend::kAuto),
        std::make_tuple("disk", Backend::kBruteForce),
        std::make_tuple("disk", Backend::kNonzeroIndex),
        std::make_tuple("disk", Backend::kNonzeroVoronoi),
        std::make_tuple("disk", Backend::kMonteCarlo),  // falls back to oracle
        std::make_tuple("discrete", Backend::kAuto),
        std::make_tuple("discrete", Backend::kBruteForce),
        std::make_tuple("discrete", Backend::kNonzeroIndex),
        std::make_tuple("discrete", Backend::kNonzeroVoronoi)));

// ---------------------------------------------------------------------------
// L_inf backend agreement against the Chebyshev oracle over the same
// derived squares.
// ---------------------------------------------------------------------------

TEST(EngineLinfBackend, MatchesChebyshevOracle) {
  for (uint64_t seed : {31, 32}) {
    auto pts = workload::RandomDisks(20, seed);
    Engine::Config cfg;
    cfg.backend = Backend::kLinfIndex;
    Engine engine(pts, cfg);
    for (Vec2 q : TestQueries()) {
      EXPECT_EQ(engine.NonzeroNn(q),
                OracleLinfNonzero(engine.DerivedSquares(), q));
    }
  }
}

TEST(EngineLinfBackend, EqualHalfSideDegenerate) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({3, 3}, 1.0),
                                     UncertainPoint::Disk({-3, 3}, 1.0)};
  Engine::Config cfg;
  cfg.backend = Backend::kLinfIndex;
  Engine engine(pts, cfg);
  for (Vec2 q : TestQueries()) {
    EXPECT_EQ(engine.NonzeroNn(q),
              OracleLinfNonzero(engine.DerivedSquares(), q));
  }
}

// ---------------------------------------------------------------------------
// Probabilistic queries: estimator backends agree with the exact oracle up
// to their accuracy guarantee; the brute-force backend agrees exactly.
// ---------------------------------------------------------------------------

class EngineProbabilisticAgreement
    : public ::testing::TestWithParam<std::tuple<const char*, Backend>> {};

TEST_P(EngineProbabilisticAgreement, ArgmaxThresholdTopK) {
  auto [model, backend] = GetParam();
  bool discrete = std::string(model) == "discrete";
  std::vector<std::vector<UncertainPoint>> inputs;
  if (discrete) {
    inputs.push_back(workload::RandomDiscrete(12, 3, 41));
    // Degenerate: all sites coincident across points (uniform pi).
    std::vector<UncertainPoint> coincident;
    for (int i = 0; i < 4; ++i) {
      coincident.push_back(UncertainPoint::DiscreteUniform({{1.0, 1.0}}));
    }
    inputs.push_back(coincident);
  } else {
    inputs.push_back(workload::RandomDisks(10, 42, 0, 0.3, 1.0));
    // Degenerate: coincident equal-radius disks (uniform pi by symmetry).
    inputs.push_back({UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({6, 0}, 1.0)});
  }

  const double eps = 0.02;
  for (const auto& pts : inputs) {
    Engine::Config cfg;
    cfg.backend = backend;
    cfg.eps = eps;
    cfg.seed = 99;
    Engine engine(pts, cfg);
    bool exact = backend == Backend::kBruteForce;
    for (Vec2 q : TestQueries()) {
      auto oracle = OracleProbabilities(pts, q);

      // MostProbableNn: must match whenever the margin is decisive.
      int got = engine.MostProbableNn(q);
      if (exact) {
        EXPECT_NEAR(oracle[got], oracle[OracleArgmax(oracle)], 1e-7);
      } else if (ArgmaxMargin(oracle) > 2 * eps) {
        EXPECT_EQ(got, OracleArgmax(oracle)) << "q=(" << q.x << "," << q.y
                                             << ") model=" << model;
      }

      // Probabilities: every estimate within eps of the truth.
      double tol = exact ? 1e-6 : eps + 1e-9;
      for (auto [id, est] : engine.Probabilities(q)) {
        EXPECT_NEAR(est, oracle[id], tol);
      }

      // Threshold: no false negatives at tau, nothing hopeless reported.
      const double tau = 0.25;
      auto reported = engine.Threshold(q, tau);
      for (size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i] >= tau + (exact ? 1e-6 : 1e-9)) {
          bool found = false;
          for (auto [id, est] : reported) found = found || id == (int)i;
          EXPECT_TRUE(found) << "missing id " << i << " with pi=" << oracle[i];
        }
      }
      for (auto [id, est] : reported) {
        EXPECT_GE(oracle[id], exact ? tau - 1e-6 : tau / 2 - eps - 1e-9);
      }

      // TopK: the reported set contains every id whose probability beats
      // the k-th largest by a decisive margin.
      const int k = 2;
      auto top = engine.TopK(q, k);
      EXPECT_LE(static_cast<int>(top.size()), k);
      std::vector<double> sorted = oracle;
      std::sort(sorted.begin(), sorted.end(), std::greater<>());
      double kth = sorted.size() >= size_t(k) ? sorted[k - 1] : 0.0;
      for (size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i] > kth + (exact ? 1e-6 : 2 * eps + 1e-9)) {
          bool found = false;
          for (auto [id, est] : top) found = found || id == (int)i;
          EXPECT_TRUE(found);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineProbabilisticAgreement,
    ::testing::Values(
        std::make_tuple("discrete", Backend::kBruteForce),
        std::make_tuple("discrete", Backend::kSpiralSearch),
        std::make_tuple("discrete", Backend::kMonteCarlo),
        std::make_tuple("discrete", Backend::kAuto),
        std::make_tuple("disk", Backend::kBruteForce),
        std::make_tuple("disk", Backend::kMonteCarlo)));

// ---------------------------------------------------------------------------
// Expected-distance NN: facade agrees with the definition-level scan.
// ---------------------------------------------------------------------------

TEST(EngineExpectedDistanceNn, IndexAgreesWithScan) {
  for (bool discrete : {false, true}) {
    auto pts = discrete ? workload::RandomDiscrete(20, 4, 51)
                        : workload::RandomDisks(20, 52);
    Engine indexed(pts, {});
    Engine::Config brute_cfg;
    brute_cfg.backend = Backend::kBruteForce;
    Engine brute(pts, brute_cfg);
    core::ExpectedNn reference(pts);
    for (Vec2 q : TestQueries()) {
      int a = indexed.ExpectedDistanceNn(q);
      int b = brute.ExpectedDistanceNn(q);
      // Both must achieve the minimum expected distance (ties allowed).
      double da = reference.ExpectedDistance(a, q);
      double db = reference.ExpectedDistance(b, q);
      EXPECT_NEAR(da, db, 1e-7);
    }
  }
}

TEST(EngineExpectedDistanceNn, CoincidentPointsDegenerate) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({0, 0}, 2.0),
                                     UncertainPoint::Disk({7, 0}, 1.0)};
  Engine engine(pts, {});
  // Near the coincident cluster the larger-radius disk has larger E[d];
  // one of the two unit disks must win.
  int nn = engine.ExpectedDistanceNn({0.1, 0.0});
  EXPECT_TRUE(nn == 0 || nn == 1);
  // Far to the right the isolated disk wins.
  EXPECT_EQ(engine.ExpectedDistanceNn({7, 0}), 3);
}

// ---------------------------------------------------------------------------
// QueryMany: batched answers identical to one-at-a-time answers.
// ---------------------------------------------------------------------------

TEST(EngineQueryMany, EmptySpanReturnsEmptyWithoutBuilding) {
  auto pts = workload::RandomDiscrete(8, 2, 62);
  Engine engine(pts, {});
  for (auto type :
       {Engine::QueryType::kMostProbableNn, Engine::QueryType::kNonzeroNn,
        Engine::QueryType::kExpectedDistanceNn}) {
    auto results =
        engine.QueryMany(std::span<const geom::Vec2>(), {type, 0.5, 1});
    EXPECT_TRUE(results.empty());
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

TEST(EngineQueryMany, TopKWithNonpositiveKIsEmptyWithoutBuilding) {
  auto pts = workload::RandomDiscrete(8, 2, 63);
  Engine engine(pts, {});
  auto qs = TestQueries();
  for (int k : {0, -3}) {
    auto results = engine.QueryMany(qs, {Engine::QueryType::kTopK, 0.5, k});
    ASSERT_EQ(results.size(), qs.size());
    for (const auto& r : results) EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

TEST(EngineQueryMany, ThresholdTauAboveOneOrNanIsEmptyWithoutBuilding) {
  auto pts = workload::RandomDiscrete(8, 2, 64);
  Engine engine(pts, {});
  auto qs = TestQueries();
  for (double tau : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    auto results =
        engine.QueryMany(qs, {Engine::QueryType::kThreshold, tau, 1});
    ASSERT_EQ(results.size(), qs.size());
    for (const auto& r : results) EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

TEST(EngineQueryMany, ThresholdNonpositiveTauReportsEveryId) {
  auto pts = workload::RandomDiscrete(9, 2, 65);
  Engine engine(pts, {});
  auto qs = TestQueries();
  for (double tau : {0.0, -0.7}) {
    auto results =
        engine.QueryMany(qs, {Engine::QueryType::kThreshold, tau, 1});
    ASSERT_EQ(results.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      const auto& ranked = results[i].ranked;
      // Every id reported exactly once, sorted by decreasing estimate.
      ASSERT_EQ(static_cast<int>(ranked.size()), engine.size());
      std::vector<bool> seen(pts.size(), false);
      for (size_t j = 0; j < ranked.size(); ++j) {
        seen[ranked[j].first] = true;
        if (j > 0) EXPECT_GE(ranked[j - 1].second, ranked[j].second);
      }
      for (bool s : seen) EXPECT_TRUE(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Warmup: builds every structure the query type needs, exactly once; a
// warmed engine never builds under queries.
// ---------------------------------------------------------------------------

TEST(EngineWarmup, BuildsOnceAndServesWithoutBuilding) {
  for (bool discrete : {true, false}) {
    auto pts = discrete ? workload::RandomDiscrete(15, 3, 66)
                        : workload::RandomDisks(15, 67);
    Engine engine(pts, {});
    EXPECT_EQ(engine.StructuresBuilt(), 0);

    const Engine::QueryType kAllTypes[] = {
        Engine::QueryType::kMostProbableNn,
        Engine::QueryType::kExpectedDistanceNn,
        Engine::QueryType::kThreshold,
        Engine::QueryType::kTopK,
        Engine::QueryType::kNonzeroNn,
    };
    for (auto type : kAllTypes) engine.Warmup(type);
    int built = engine.StructuresBuilt();
    EXPECT_GE(built, 2);

    // Idempotent: warming again builds nothing (no structure twice).
    for (auto type : kAllTypes) engine.Warmup(type);
    EXPECT_EQ(engine.StructuresBuilt(), built);

    // Serving warmed traffic builds nothing either.
    for (Vec2 q : TestQueries()) {
      engine.MostProbableNn(q);
      engine.ExpectedDistanceNn(q);
      engine.Threshold(q, 0.5);
      engine.TopK(q, 2);
      engine.NonzeroNn(q);
    }
    EXPECT_EQ(engine.StructuresBuilt(), built);
  }
}

TEST(EngineWarmup, SpecOverloadWarmsTighterThresholdEstimator) {
  // tau < 2 * eps needs a tighter estimator than the plain-QueryType
  // default; the spec overload must pre-build it so the query does not.
  auto pts = workload::RandomDisks(10, 68);  // Continuous => Monte Carlo.
  Engine::Config cfg;
  cfg.eps = 0.1;
  cfg.mc_samples_override = 32;
  Engine engine(pts, cfg);
  Engine::QuerySpec spec{Engine::QueryType::kThreshold, 0.05, 1};
  engine.Warmup(spec);
  int built = engine.StructuresBuilt();
  engine.Threshold({0.5, 0.5}, spec.tau);
  EXPECT_EQ(engine.StructuresBuilt(), built);
}

TEST(EngineQueryMany, MatchesSingleQueries) {
  auto pts = workload::RandomDiscrete(15, 3, 61);
  Engine engine(pts, {});
  auto qs = TestQueries();

  auto nn = engine.QueryMany(qs, {Engine::QueryType::kMostProbableNn});
  auto ed = engine.QueryMany(qs, {Engine::QueryType::kExpectedDistanceNn});
  Engine::QuerySpec thr{Engine::QueryType::kThreshold, 0.3, 1};
  auto th = engine.QueryMany(qs, thr);
  Engine::QuerySpec topk{Engine::QueryType::kTopK, 0.5, 3};
  auto tk = engine.QueryMany(qs, topk);
  auto nz = engine.QueryMany(qs, {Engine::QueryType::kNonzeroNn});

  ASSERT_EQ(nn.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(nn[i].nn, engine.MostProbableNn(qs[i]));
    EXPECT_EQ(ed[i].nn, engine.ExpectedDistanceNn(qs[i]));
    EXPECT_EQ(th[i].ranked, engine.Threshold(qs[i], 0.3));
    EXPECT_EQ(tk[i].ranked, engine.TopK(qs[i], 3));
    EXPECT_EQ(nz[i].ids, engine.NonzeroNn(qs[i]));
  }
}

// A query point with a NaN or infinite coordinate gets the one documented
// answer (nn = -1, nothing ranked, no ids) for every type and backend,
// without building anything; finite queries in the same pack keep their
// answers.
TEST(EngineQueryMany, NonFiniteQueriesGetTheEmptyAnswer) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Vec2> bad = {{nan, 0}, {0, nan}, {inf, 0}, {0, -inf}};
  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.3, 1},
      {Engine::QueryType::kThreshold, 0.0, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  for (bool disks : {false, true}) {
    auto pts = disks ? workload::RandomDisks(12, 62)
                     : workload::RandomDiscrete(12, 3, 62);
    for (Backend backend : {Backend::kAuto, Backend::kBruteForce,
                            Backend::kNonzeroVoronoi, Backend::kLinfIndex}) {
      Engine::Config cfg;
      cfg.backend = backend;
      Engine engine(pts, cfg);
      for (const auto& spec : specs) {
        for (const auto& r : engine.QueryMany(bad, spec)) {
          EXPECT_EQ(r.nn, -1);
          EXPECT_TRUE(r.ranked.empty());
          EXPECT_TRUE(r.ids.empty());
        }
      }
      EXPECT_EQ(engine.StructuresBuilt(), 0);
      EXPECT_EQ(engine.MostProbableNn(bad[0]), -1);
      EXPECT_EQ(engine.ExpectedDistanceNn(bad[2]), -1);
      EXPECT_TRUE(engine.Threshold(bad[1], 0.3).empty());
      EXPECT_TRUE(engine.TopK(bad[3], 2).empty());
      EXPECT_TRUE(engine.NonzeroNn(bad[0]).empty());

      // Mixed pack: the finite queries answer as they would alone.
      const std::vector<Vec2> mixed = {{0.5, 0.5}, bad[0], {-1, 2}, bad[2]};
      for (const auto& spec : specs) {
        auto got = engine.QueryMany(mixed, spec);
        for (size_t i : {0u, 2u}) {
          auto alone = engine.QueryMany({&mixed[i], 1}, spec)[0];
          EXPECT_EQ(got[i].nn, alone.nn);
          EXPECT_EQ(got[i].ranked, alone.ranked);
          EXPECT_EQ(got[i].ids, alone.ids);
        }
        EXPECT_EQ(got[1].nn, -1);
        EXPECT_TRUE(got[3].ranked.empty() && got[3].ids.empty());
      }
    }
  }
}

}  // namespace
}  // namespace unn

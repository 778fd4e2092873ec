// Differential fuzz harness for the batched traversal kernels
// (spatial/batch.h, geom/lanes.h): every batch entry point must be
// bit-identical to its scalar counterpart — including argmin tie
// semantics — on adversarial inputs: clustered sites, coincident
// anchors, duplicated points, equal radii, duplicate coordinates, and
// queries snapped onto site coordinates so distances tie exactly.
// Batch sizes sweep 1..2*kLaneWidth+1, covering every pack size 1..8
// and ragged final packs. CTest runs a fixed seeded corpus; the nightly
// CI job raises the iteration count through UNN_FUZZ_ITERS.

#include <algorithm>
#include <cstdlib>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "scalar_oracle.h"
#include "core/expected_nn.h"
#include "core/monte_carlo_pnn.h"
#include "core/nn_nonzero_discrete_index.h"
#include "core/quant_tree.h"
#include "core/spiral_search.h"
#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "geom/lanes.h"
#include "range/kdtree.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

int FuzzIters(int base) {
  const char* env = std::getenv("UNN_FUZZ_ITERS");
  if (env == nullptr) return base;
  int v = std::atoi(env);
  return v > 0 ? v : base;
}

// ---------------------------------------------------------------------------
// Adversarial generators. All deterministic in the seed.
// ---------------------------------------------------------------------------

/// Discrete points in a handful of tight clusters; site coordinates are
/// snapped to a coarse grid so exact duplicates appear across points.
std::vector<UncertainPoint> ClusteredDiscrete(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-8, 8);
  std::uniform_int_distribution<int> grid(-6, 6);
  std::uniform_int_distribution<int> nsites(1, 4);
  int clusters = 3 + static_cast<int>(seed % 4);
  std::vector<Vec2> centers(clusters);
  for (auto& c : centers) c = {u(rng), u(rng)};
  std::vector<UncertainPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vec2 c = centers[i % clusters];
    int k = nsites(rng);
    std::vector<Vec2> sites(k);
    for (auto& s : sites) {
      s = {c.x + grid(rng) * 0.25, c.y + grid(rng) * 0.25};
    }
    pts.push_back(UncertainPoint::DiscreteUniform(std::move(sites)));
  }
  return pts;
}

/// Many points sharing the exact same mean (sites mirrored around a few
/// anchors), so expected-squared values tie whenever variances do — the
/// hardest case for the tie-replay scheme.
std::vector<UncertainPoint> CoincidentAnchors(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-5, 5);
  std::uniform_int_distribution<int> offset(1, 3);
  int anchors = 2 + static_cast<int>(seed % 3);
  std::vector<Vec2> centers(anchors);
  for (auto& c : centers) c = {u(rng), u(rng)};
  std::vector<UncertainPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vec2 c = centers[i % anchors];
    // Half the points repeat the same mirrored pair (exact duplicates,
    // equal mean AND equal variance); the rest vary the offset.
    double d = (i % 2 == 0) ? 0.5 : offset(rng) * 0.5;
    pts.push_back(UncertainPoint::DiscreteUniform(
        {{c.x - d, c.y}, {c.x + d, c.y}}));
  }
  return pts;
}

/// Disks with equal radii, several on exactly coincident centers.
std::vector<UncertainPoint> EqualRadiusDisks(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> grid(-5, 5);
  std::vector<UncertainPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vec2 c{grid(rng) * 1.0, grid(rng) * 1.0};  // Coarse grid: collisions.
    pts.push_back(UncertainPoint::Disk(c, 0.75));
  }
  return pts;
}

/// Queries that frequently coincide with the grid the generators snap
/// sites to (exact zero distances and exact ties), mixed with random
/// off-grid points.
std::vector<Vec2> AdversarialQueries(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-9, 9);
  std::uniform_int_distribution<int> grid(-8, 8);
  std::vector<Vec2> qs(n);
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      qs[i] = {u(rng), u(rng)};
    } else {
      qs[i] = {grid(rng) * 0.25, grid(rng) * 0.25};
    }
  }
  return qs;
}

std::vector<UncertainPoint> AdversarialSet(int which, int n, uint64_t seed) {
  switch (which % 4) {
    case 0:
      return ClusteredDiscrete(n, seed);
    case 1:
      return CoincidentAnchors(n, seed);
    case 2:
      return EqualRadiusDisks(n, seed);
    default:
      return workload::RandomDiscrete(n, 3, seed);
  }
}

// ---------------------------------------------------------------------------
// Kernel-level differentials
// ---------------------------------------------------------------------------

TEST(BatchFuzz, QuerySquaredBatchBitIdentical) {
  int iters = FuzzIters(8);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 1000 + 17 * static_cast<uint64_t>(it);
    auto pts = AdversarialSet(it, 40 + (it % 5) * 23, seed);
    core::ExpectedNn index(pts);
    // Every batch size from a lone ragged pack up to full packs plus a
    // ragged tail.
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      std::vector<int> got(qs.size());
      spatial::BatchStats stats;
      index.QuerySquaredBatch(qs, got, &stats);
      EXPECT_GT(stats.packs, 0);
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got[i], index.QuerySquared(qs[i]))
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(BatchFuzz, QueryExpectedBatchBitIdentical) {
  int iters = FuzzIters(6);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 2000 + 31 * static_cast<uint64_t>(it);
    // Includes the disk sets: those must take the per-lane scalar
    // fallback and still match exactly.
    auto pts = AdversarialSet(it, 30 + (it % 4) * 17, seed);
    core::ExpectedNn index(pts);
    for (int m : {1, 3, geom::kLaneWidth, geom::kLaneWidth + 5}) {
      auto qs = AdversarialQueries(m, seed + m);
      std::vector<int> got(qs.size());
      spatial::BatchStats stats;
      index.QueryExpectedBatch(qs, 1e-8, got, &stats);
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got[i], index.QueryExpected(qs[i], 1e-8))
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(BatchFuzz, KdNearestBatchBitIdentical) {
  int iters = FuzzIters(8);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 3000 + 13 * static_cast<uint64_t>(it);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> grid(-12, 12);
    std::uniform_real_distribution<double> u(-10, 10);
    int n = 50 + (it % 6) * 31;
    std::vector<Vec2> pts(n);
    for (int i = 0; i < n; ++i) {
      // Duplicate coordinates on purpose: grid snapping plus literal
      // repeats of earlier points.
      if (i % 7 == 3 && i > 0) {
        pts[i] = pts[rng() % i];
      } else if (i % 2 == 0) {
        pts[i] = {grid(rng) * 0.5, grid(rng) * 0.5};
      } else {
        pts[i] = {u(rng), u(rng)};
      }
    }
    range::KdTree tree(pts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      std::vector<int> ids(qs.size());
      std::vector<double> dists(qs.size());
      tree.NearestBatch(qs, ids, dists);
      for (size_t i = 0; i < qs.size(); ++i) {
        double want_d = 0;
        int want = tree.Nearest(qs[i], &want_d);
        EXPECT_EQ(ids[i], want) << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(dists[i], want_d)
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(BatchFuzz, QuantTreeEnvelopeBatchBitIdentical) {
  int iters = FuzzIters(8);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 5000 + 19 * static_cast<uint64_t>(it);
    auto pts = AdversarialSet(it, 40 + (it % 5) * 21, seed);
    core::QuantTree qt(&pts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      std::vector<core::DeltaEnvelope> got(qs.size());
      spatial::BatchStats stats;
      qt.MaxDistEnvelopeBatch(qs, got, &stats);
      EXPECT_GT(stats.packs, 0);
      // The envelope kernel needs no replay (order-independent inserts);
      // the differential must hold with none taken.
      EXPECT_EQ(stats.scalar_replays, 0);
      for (size_t i = 0; i < qs.size(); ++i) {
        auto want = qt.MaxDistEnvelope(qs[i]);
        EXPECT_EQ(got[i].best, want.best)
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(got[i].second, want.second)
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(got[i].argbest, want.argbest)
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(BatchFuzz, QuantTreeLogSurvivalBatchBitIdentical) {
  int iters = FuzzIters(6);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 6000 + 23 * static_cast<uint64_t>(it);
    auto pts = AdversarialSet(it, 36 + (it % 4) * 19, seed);
    core::QuantTree qt(&pts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      // Radii stress every branch: zero (empty ball), exact MaxDist
      // boundaries (the support-intersection test ties exactly), radii
      // inside a support (certain point, -infinity), and large radii
      // covering everything.
      std::vector<double> radii(qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        switch (i % 4) {
          case 0:
            radii[i] = 0.0;
            break;
          case 1:
            radii[i] = pts[i % pts.size()].MaxDist(qs[i]);
            break;
          case 2:
            radii[i] = 0.5;
            break;
          default:
            radii[i] = 25.0;
        }
      }
      std::vector<double> got(qs.size());
      spatial::BatchStats stats;
      qt.LogSurvivalBatch(qs, radii, got, &stats);
      EXPECT_EQ(stats.scalar_replays, 0);
      for (size_t i = 0; i < qs.size(); ++i) {
        // Bit-identical contract: the pack walk is the scalar walk, so
        // exact equality holds — including -infinity.
        EXPECT_EQ(got[i], qt.LogSurvival(qs[i], radii[i]))
            << "it=" << it << " m=" << m << " i=" << i << " r=" << radii[i];
      }
    }
  }
}

TEST(BatchFuzz, QuantTreeArgminBatchBitIdentical) {
  int iters = FuzzIters(6);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 7000 + 29 * static_cast<uint64_t>(it);
    auto pts = AdversarialSet(it, 30 + (it % 4) * 17, seed);
    core::QuantTree qt(&pts);
    core::ExpectedNn index(pts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      // Approximate value (quadrature): slack = the tolerance, as the
      // engine's brute-force expected-distance arm uses it.
      {
        std::vector<int> got(qs.size());
        spatial::BatchStats stats;
        qt.ArgminPointwiseBatch(
            qs,
            [&](int id, int qi) {
              return index.ExpectedDistance(id, qs[qi], 1e-8);
            },
            /*slack=*/1e-8, got, &stats);
        for (size_t i = 0; i < qs.size(); ++i) {
          int want = qt.ArgminPointwise(qs[i], [&](int id) {
            return index.ExpectedDistance(id, qs[i], 1e-8);
          });
          EXPECT_EQ(got[i], want) << "it=" << it << " m=" << m << " i=" << i;
        }
      }
      // Exact value (min-distance itself, slack 0): the coincident /
      // duplicated sets produce exact minimum ties, so the zero-width
      // band must still trigger replay on true ties.
      {
        std::vector<int> got(qs.size());
        qt.ArgminPointwiseBatch(
            qs, [&](int id, int qi) { return pts[id].MinDist(qs[qi]); },
            /*slack=*/0.0, got);
        for (size_t i = 0; i < qs.size(); ++i) {
          int want = qt.ArgminPointwise(
              qs[i], [&](int id) { return pts[id].MinDist(qs[i]); });
          EXPECT_EQ(got[i], want) << "it=" << it << " m=" << m << " i=" << i;
        }
      }
    }
  }
}

TEST(BatchFuzz, NonzeroDiscreteBatchBitIdentical) {
  int iters = FuzzIters(6);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 8000 + 37 * static_cast<uint64_t>(it);
    // Discrete-only corpora: the index CHECKs against disk models.
    int which = it % 3;
    auto pts = which == 0   ? ClusteredDiscrete(32 + it * 7, seed)
               : which == 1 ? CoincidentAnchors(32 + it * 7, seed)
                            : workload::RandomDiscrete(32 + it * 7, 3, seed);
    core::NnNonzeroDiscreteIndex index(pts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      std::vector<core::DeltaEnvelope> env(qs.size());
      spatial::BatchStats stats;
      index.DeltaPairBatch(qs, env, &stats);
      EXPECT_GT(stats.packs, 0);
      for (size_t i = 0; i < qs.size(); ++i) {
        auto want = index.DeltaPair(qs[i]);
        EXPECT_EQ(env[i].best, want.best)
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(env[i].second, want.second)
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(env[i].argbest, want.argbest)
            << "it=" << it << " m=" << m << " i=" << i;
      }
      auto sets = index.QueryBatch(qs);
      ASSERT_EQ(sets.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(sets[i], index.Query(qs[i]))
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(BatchFuzz, KdKNearestBatchBitIdentical) {
  int iters = FuzzIters(6);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 9000 + 41 * static_cast<uint64_t>(it);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> grid(-12, 12);
    std::uniform_real_distribution<double> u(-10, 10);
    int n = 40 + (it % 5) * 23;
    std::vector<Vec2> pts(n);
    for (int i = 0; i < n; ++i) {
      // Duplicate coordinates on purpose, as in NearestBatch's fuzz.
      if (i % 7 == 3 && i > 0) {
        pts[i] = pts[rng() % i];
      } else if (i % 2 == 0) {
        pts[i] = {grid(rng) * 0.5, grid(rng) * 0.5};
      } else {
        pts[i] = {u(rng), u(rng)};
      }
    }
    range::KdTree tree(pts);
    for (int k : {1, 3, n / 2, n}) {
      for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
        auto qs = AdversarialQueries(m, seed + 100 * k + m);
        std::vector<std::vector<int>> ids;
        std::vector<std::vector<double>> dists;
        tree.KNearestBatch(qs, k, &ids, &dists);
        ASSERT_EQ(ids.size(), qs.size());
        for (size_t i = 0; i < qs.size(); ++i) {
          EXPECT_EQ(ids[i], tree.KNearest(qs[i], k))
              << "it=" << it << " k=" << k << " m=" << m << " i=" << i;
          ASSERT_EQ(dists[i].size(), ids[i].size());
          for (size_t j = 0; j < ids[i].size(); ++j) {
            EXPECT_EQ(dists[i][j], geom::Dist(qs[i], pts[ids[i][j]]))
                << "it=" << it << " k=" << k << " m=" << m << " i=" << i
                << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(BatchFuzz, SpiralQueryBatchBitIdentical) {
  int iters = FuzzIters(4);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 11000 + 43 * static_cast<uint64_t>(it);
    int which = it % 3;  // Discrete-only: spiral search rejects disks.
    auto pts = which == 0   ? ClusteredDiscrete(28 + it * 9, seed)
               : which == 1 ? CoincidentAnchors(28 + it * 9, seed)
                            : workload::RandomDiscrete(28 + it * 9, 3, seed);
    core::SpiralSearch spiral(pts);
    for (double eps : {0.5, 0.1, 0.02}) {
      for (int m = 1; m <= 2 * geom::kLaneWidth + 1; m += 3) {
        auto qs = AdversarialQueries(m, seed + m);
        spatial::BatchStats stats;
        auto got = spiral.QueryBatch(qs, eps, &stats);
        ASSERT_EQ(got.size(), qs.size());
        for (size_t i = 0; i < qs.size(); ++i) {
          EXPECT_EQ(got[i], spiral.Query(qs[i], eps))
              << "it=" << it << " eps=" << eps << " m=" << m << " i=" << i;
        }
      }
    }
  }
}

TEST(BatchFuzz, MonteCarloQueryBatchBitIdentical) {
  int iters = FuzzIters(4);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 12000 + 47 * static_cast<uint64_t>(it);
    // Includes the disk sets: instantiation draws are per-structure, so
    // both paths see the same trees regardless of model.
    auto pts = AdversarialSet(it, 24 + it * 7, seed);
    core::MonteCarloPnnOptions opts;
    opts.s_override = 16;
    opts.seed = seed;
    core::MonteCarloPnn mc(pts, opts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; m += 2) {
      auto qs = AdversarialQueries(m, seed + m);
      spatial::BatchStats stats;
      auto got = mc.QueryBatch(qs, &stats);
      ASSERT_EQ(got.size(), qs.size());
      EXPECT_GT(stats.packs, 0);
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got[i], mc.Query(qs[i]))
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level differential: QueryMany must give the scalar kernels'
// answers (tests/scalar_oracle.h) for all five query types on randomized
// batches.
// ---------------------------------------------------------------------------

TEST(BatchFuzz, EngineQueryManyBatchedMatchesScalar) {
  int iters = FuzzIters(3);
  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.25, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 4000 + 7 * static_cast<uint64_t>(it);
    auto pts = AdversarialSet(it, 24 + it * 9, seed);
    Engine batched(pts, Engine::Config{});
    test::ScalarOracle scalar(pts);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> msize(1, 2 * geom::kLaneWidth + 1);
    for (const Engine::QuerySpec& spec : specs) {
      auto qs = AdversarialQueries(msize(rng), seed + 99);
      auto got = batched.QueryMany(qs, spec);
      auto want = scalar.QueryMany(qs, spec);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got[i].nn, want[i].nn);
        EXPECT_EQ(got[i].ranked, want[i].ranked);
        EXPECT_EQ(got[i].ids, want[i].ids);
      }
    }
  }
}

// The single-query entry point and the batched path must agree too (the
// result cache mixes the two freely under one snapshot key).
TEST(BatchFuzz, SingleQueryAgreesWithBatchedQueryMany) {
  auto pts = CoincidentAnchors(36, 77);
  Engine engine(pts);
  auto qs = AdversarialQueries(19, 78);
  auto many = engine.QueryMany(
      qs, {Engine::QueryType::kExpectedDistanceNn, 0.5, 1});
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(many[i].nn, engine.ExpectedDistanceNn(qs[i]));
  }
}

}  // namespace
}  // namespace unn

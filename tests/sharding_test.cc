// Sharded-vs-single-Engine oracle parity: a ShardedEngine over K shards
// must answer every query type with the same global-id answers as one
// Engine over the whole dataset — exactly where the merge is exact
// (kBruteForce-backed shards, NN!=0, expected-distance NN), within the
// backend accuracy where candidates come from estimators. Also covers the
// partitioners, the degenerate-spec contract, empty shards (K > n), all
// mass on one shard, coincident duplicates split across shards, and the
// sharded QueryServer (including resharding via ReplaceDataset).

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "query_helpers.h"
#include "baselines/brute_force.h"
#include "engine/engine.h"
#include "serve/query_server.h"
#include "serve/shard_merge.h"
#include "serve/sharding.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

std::vector<Vec2> GridQueries(int count) {
  std::vector<Vec2> qs;
  for (int i = 0; i < count; ++i) {
    qs.push_back({-9.0 + 18.0 * i / count, 6.5 - 13.0 * i / count});
  }
  return qs;
}

const int kShardCounts[] = {1, 2, 4, 7};
const serve::Partitioning kPartitioners[] = {serve::Partitioning::kRoundRobin,
                                             serve::Partitioning::kSpatial};

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

TEST(PartitionPoints, EveryIdAssignedExactlyOnce) {
  auto pts = workload::RandomDiscrete(23, 2, 301);
  for (int k : {1, 2, 5, 23, 40}) {
    for (auto part : kPartitioners) {
      auto shards = serve::PartitionPoints(pts, {k, part});
      EXPECT_EQ(static_cast<int>(shards.size()), std::min(k, 23));
      std::set<int> seen;
      for (const auto& shard : shards) {
        EXPECT_FALSE(shard.empty());
        EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
        seen.insert(shard.begin(), shard.end());
      }
      EXPECT_EQ(seen.size(), pts.size());
      EXPECT_EQ(*seen.begin(), 0);
      EXPECT_EQ(*seen.rbegin(), 22);
    }
  }
}

TEST(PartitionPoints, SpatialShardsAreBalanced) {
  auto pts = workload::RandomDisks(64, 302);
  auto shards = serve::PartitionPoints(pts, {8, serve::Partitioning::kSpatial});
  ASSERT_EQ(shards.size(), 8u);
  for (const auto& shard : shards) EXPECT_EQ(shard.size(), 8u);
}

// ---------------------------------------------------------------------------
// Exact parity: kBruteForce shards against the kBruteForce single engine,
// for every query type, shard count and partitioner.
// ---------------------------------------------------------------------------

void ExpectParity(const Engine& single, const serve::ShardedEngine& sharded,
                  const std::vector<Vec2>& qs, double value_tol) {
  for (Vec2 q : qs) {
    EXPECT_EQ(test::NonzeroNn(sharded, q), single.NonzeroNn(q));
    EXPECT_EQ(test::MostProbableNn(sharded, q), single.MostProbableNn(q));
    EXPECT_EQ(test::ExpectedDistanceNn(sharded, q),
              single.ExpectedDistanceNn(q));
    for (double tau : {0.25, 0.6}) {
      auto got = test::Threshold(sharded, q, tau);
      auto want = single.Threshold(q, tau);
      ASSERT_EQ(got.size(), want.size()) << "tau=" << tau;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first);
        EXPECT_NEAR(got[i].second, want[i].second, value_tol);
      }
    }
    auto got = test::TopK(sharded, q, 3);
    auto want = single.TopK(q, 3);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first);
      EXPECT_NEAR(got[i].second, want[i].second, value_tol);
    }
  }
}

TEST(ShardedEngine, ExactParityDiscrete) {
  auto pts = workload::RandomDiscrete(24, 3, 303);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine single(pts, cfg);
  auto qs = GridQueries(25);
  for (int k : kShardCounts) {
    for (auto part : kPartitioners) {
      serve::ShardedEngine sharded(pts, cfg, {k, part});
      EXPECT_EQ(sharded.size(), 24);
      ExpectParity(single, sharded, qs, 1e-12);
    }
  }
}

TEST(ShardedEngine, ExactParityDisks) {
  auto pts = workload::RandomDisks(16, 304);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine single(pts, cfg);
  auto qs = GridQueries(15);
  for (int k : kShardCounts) {
    for (auto part : kPartitioners) {
      serve::ShardedEngine sharded(pts, cfg, {k, part});
      ExpectParity(single, sharded, qs, 1e-6);
    }
  }
}

TEST(ShardedEngine, ExactNonzeroAndExpectedOnMixedModel) {
  // NN!=0 and expected-distance merges are exact for any model, including
  // mixed disk + discrete inputs (the probability paths need estimators
  // there, covered separately).
  auto pts = workload::RandomDisks(9, 305);
  auto extra = workload::RandomDiscrete(9, 2, 306);
  pts.insert(pts.end(), extra.begin(), extra.end());
  Engine::Config cfg;
  cfg.backend = Backend::kNonzeroVoronoi;  // Falls back to oracle on mixed.
  Engine single(pts, cfg);
  auto qs = GridQueries(15);
  for (int k : {2, 4, 7}) {
    serve::ShardedEngine sharded(pts, cfg, {k, serve::Partitioning::kSpatial});
    for (Vec2 q : qs) {
      EXPECT_EQ(test::NonzeroNn(sharded, q), single.NonzeroNn(q));
      EXPECT_EQ(test::ExpectedDistanceNn(sharded, q),
                single.ExpectedDistanceNn(q));
    }
  }
}

TEST(ShardedEngine, IndexBackedShardsMatchOracleNonzero) {
  // Shards answering NN!=0 from their own index structures still merge to
  // the exact global answer.
  auto pts = workload::RandomDisks(20, 307);
  Engine::Config cfg;
  cfg.backend = Backend::kNonzeroIndex;
  Engine single(pts, cfg);
  auto qs = GridQueries(20);
  for (int k : {2, 4}) {
    serve::ShardedEngine sharded(pts, cfg,
                                 {k, serve::Partitioning::kRoundRobin});
    for (Vec2 q : qs) {
      EXPECT_EQ(test::NonzeroNn(sharded, q), single.NonzeroNn(q));
    }
  }
}

// ---------------------------------------------------------------------------
// Estimator shards: candidate-merge approximation stays within eps of the
// exact distribution and keeps the threshold no-false-negative contract.
// ---------------------------------------------------------------------------

TEST(ShardedEngine, EstimatorShardsWithinEpsOfExact) {
  auto pts = workload::RandomDiscrete(30, 3, 308);
  Engine::Config cfg;  // kAuto -> spiral-search estimator per shard.
  const double eps = cfg.eps;
  auto qs = GridQueries(20);
  for (int k : {2, 4}) {
    serve::ShardedEngine sharded(pts, cfg,
                                 {k, serve::Partitioning::kRoundRobin});
    for (Vec2 q : qs) {
      std::vector<double> exact =
          baselines::QuantificationProbabilities(pts, q);
      double best_exact = *std::max_element(exact.begin(), exact.end());
      // The merged most-probable answer is within 2 eps of optimal.
      int got = test::MostProbableNn(sharded, q);
      ASSERT_GE(got, 0);
      EXPECT_GE(exact[got], best_exact - 2 * eps);
      // Threshold: no false negatives vs the exact distribution.
      const double tau = 0.3;
      auto ranked = test::Threshold(sharded, q, tau);
      std::set<int> reported;
      for (auto [id, pi] : ranked) reported.insert(id);
      for (size_t i = 0; i < exact.size(); ++i) {
        if (exact[i] >= tau) {
          EXPECT_TRUE(reported.count(static_cast<int>(i)))
              << "missing id " << i << " with pi=" << exact[i];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Merge edge cases
// ---------------------------------------------------------------------------

TEST(ShardedEngine, MoreShardsThanPoints) {
  auto pts = workload::RandomDiscrete(5, 2, 309);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine single(pts, cfg);
  for (auto part : kPartitioners) {
    serve::ShardedEngine sharded(pts, cfg, {7, part});
    EXPECT_EQ(sharded.num_shards(), 5);  // Empty shards are dropped.
    ExpectParity(single, sharded, GridQueries(12), 1e-12);
  }
}

TEST(ShardedEngine, SinglePointDataset) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({1, 2}, 0.5)};
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kSpatial});
  EXPECT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(test::NonzeroNn(sharded, {0, 0}), std::vector<int>{0});
  EXPECT_EQ(test::MostProbableNn(sharded, {0, 0}), 0);
  EXPECT_EQ(test::ExpectedDistanceNn(sharded, {0, 0}), 0);
}

TEST(ShardedEngine, AllMassOnOneShard) {
  // A tight cluster (every plausible NN) lands on one spatial shard; the
  // far-away shards must be pruned without corrupting the answers.
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < 6; ++i) {
    pts.push_back(UncertainPoint::Disk({0.1 * i, 0.05 * i}, 0.2 + 0.01 * i));
  }
  for (int i = 0; i < 6; ++i) {
    pts.push_back(UncertainPoint::Disk({100.0 + i, 90.0 - i}, 0.3));
  }
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine single(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kSpatial});
  std::vector<Vec2> qs = {{0, 0}, {0.3, 0.1}, {-1, -1}, {2, 2}};
  ExpectParity(single, sharded, qs, 1e-6);
  // The cluster owns the candidate set.
  for (Vec2 q : qs) {
    for (int id : test::NonzeroNn(sharded, q)) EXPECT_LT(id, 6);
  }
}

TEST(ShardedEngine, CoincidentDuplicatesSplitAcrossShards) {
  // Exact duplicates (same sites, same weights) that round-robin onto
  // different shards: the candidate union is the whole set, so the merged
  // answers coincide with the single-engine oracle bit for bit.
  std::vector<UncertainPoint> pts;
  for (int rep = 0; rep < 2; ++rep) {
    pts.push_back(UncertainPoint::DiscreteUniform({{1, 1}, {2, 1}}));
    pts.push_back(UncertainPoint::DiscreteUniform({{-1, 0}, {-2, 0.5}}));
    pts.push_back(UncertainPoint::DiscreteUniform({{0, -2}}));
  }
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine single(pts, cfg);
  auto qs = GridQueries(12);
  for (int k : {2, 3}) {
    serve::ShardedEngine sharded(pts, cfg,
                                 {k, serve::Partitioning::kRoundRobin});
    for (Vec2 q : qs) {
      EXPECT_EQ(test::NonzeroNn(sharded, q), single.NonzeroNn(q));
      EXPECT_EQ(test::TopK(sharded, q, 6), single.TopK(q, 6));
      // Duplicates tie in expected distance: compare values, not ids.
      int got = test::ExpectedDistanceNn(sharded, q);
      int want = single.ExpectedDistanceNn(q);
      EXPECT_NEAR(single.ExpectedDistance(got, q),
                  single.ExpectedDistance(want, q), 1e-9);
    }
  }
}

TEST(ShardedEngine, DegenerateSpecsBuildNothing) {
  auto pts = workload::RandomDiscrete(10, 2, 310);
  serve::ShardedEngine sharded(pts, {}, {3, serve::Partitioning::kRoundRobin});
  auto qs = GridQueries(4);

  auto empty = sharded.QueryMany({}, {Engine::QueryType::kMostProbableNn});
  EXPECT_TRUE(empty.empty());

  for (auto& r : sharded.QueryMany(qs, {Engine::QueryType::kTopK, 0.5, 0})) {
    EXPECT_TRUE(r.ranked.empty());
  }
  for (auto& r :
       sharded.QueryMany(qs, {Engine::QueryType::kThreshold, 1.5, 1})) {
    EXPECT_TRUE(r.ranked.empty());
  }
  double nan = std::nan("");
  for (auto& r :
       sharded.QueryMany(qs, {Engine::QueryType::kThreshold, nan, 1})) {
    EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(sharded.StructuresBuilt(), 0);
}

TEST(ShardedEngine, NonPositiveTauListsEveryId) {
  auto pts = workload::RandomDiscrete(9, 2, 311);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine single(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {2, serve::Partitioning::kSpatial});
  auto qs = GridQueries(5);
  Engine::QuerySpec spec{Engine::QueryType::kThreshold, 0.0, 1};
  auto got = sharded.QueryMany(qs, spec);
  auto want = single.QueryMany(qs, spec);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ranked.size(), want[i].ranked.size());
    for (size_t j = 0; j < got[i].ranked.size(); ++j) {
      EXPECT_EQ(got[i].ranked[j].first, want[i].ranked[j].first);
      EXPECT_NEAR(got[i].ranked[j].second, want[i].ranked[j].second, 1e-12);
    }
  }
}

TEST(ShardedEngine, WarmupPrebuildsEveryShard) {
  auto pts = workload::RandomDiscrete(12, 2, 312);
  serve::ShardedEngine sharded(pts, {}, {3, serve::Partitioning::kRoundRobin});
  EXPECT_EQ(sharded.StructuresBuilt(), 0);
  sharded.Warmup(Engine::QueryType::kMostProbableNn);
  sharded.Warmup(Engine::QueryType::kNonzeroNn);
  int built = sharded.StructuresBuilt();
  EXPECT_GE(built, 3);  // At least one structure per shard.
  auto qs = GridQueries(6);
  sharded.QueryMany(qs, {Engine::QueryType::kMostProbableNn});
  sharded.QueryMany(qs, {Engine::QueryType::kNonzeroNn});
  EXPECT_EQ(sharded.StructuresBuilt(), built);
}

TEST(ShardedEngine, ParallelFanOutMatchesSerial) {
  auto pts = workload::RandomDiscrete(18, 3, 313);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kRoundRobin});
  serve::ThreadPool pool(3);
  auto qs = GridQueries(17);
  for (auto type :
       {Engine::QueryType::kMostProbableNn, Engine::QueryType::kNonzeroNn,
        Engine::QueryType::kTopK, Engine::QueryType::kExpectedDistanceNn}) {
    Engine::QuerySpec spec{type, 0.5, 3};
    auto serial = sharded.QueryMany(qs, spec, nullptr);
    // Packs of one: shard fan-out on the pool.
    std::vector<Engine::QueryResult> fanned;
    for (Vec2 q : qs) fanned.push_back(test::Single(sharded, q, spec, &pool));
    // The whole pack: query blocks across the pool.
    auto batched = sharded.QueryMany(qs, spec, &pool);
    ASSERT_EQ(fanned.size(), serial.size());
    ASSERT_EQ(batched.size(), serial.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(fanned[i].nn, serial[i].nn);
      EXPECT_EQ(fanned[i].ranked, serial[i].ranked);
      EXPECT_EQ(fanned[i].ids, serial[i].ids);
      EXPECT_EQ(batched[i].nn, serial[i].nn);
      EXPECT_EQ(batched[i].ranked, serial[i].ranked);
      EXPECT_EQ(batched[i].ids, serial[i].ids);
    }
  }
}

// ---------------------------------------------------------------------------
// The survival-probability factorization the merge relies on.
// ---------------------------------------------------------------------------

TEST(ShardMerge, SurvivalFactorsAcrossShards) {
  auto pts = workload::RandomDisks(12, 314);
  Engine::Config cfg;
  Engine whole(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {3, serve::Partitioning::kRoundRobin});
  for (Vec2 q : GridQueries(8)) {
    for (double r : {0.5, 2.0, 5.0}) {
      double prod = 1.0;
      for (int s = 0; s < sharded.num_shards(); ++s) {
        prod *= sharded.shard(s).SurvivalProbability(q, r);
      }
      EXPECT_NEAR(prod, whole.SurvivalProbability(q, r), 1e-12);
    }
  }
}

TEST(ShardMerge, MergeEnvelopesMatchesGlobalScan) {
  auto pts = workload::RandomDiscrete(15, 2, 315);
  Engine::Config cfg;
  Engine whole(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kSpatial});
  for (Vec2 q : GridQueries(10)) {
    std::vector<core::DeltaEnvelope> local;
    std::vector<serve::ShardView> views;
    for (int s = 0; s < sharded.num_shards(); ++s) {
      local.push_back(sharded.shard(s).MaxDistEnvelope(q));
      views.push_back({&sharded.shard(s), &sharded.global_ids(s)});
    }
    core::DeltaEnvelope merged = serve::MergeEnvelopes(local, views);
    core::DeltaEnvelope want = whole.MaxDistEnvelope(q);
    EXPECT_DOUBLE_EQ(merged.best, want.best);
    EXPECT_DOUBLE_EQ(merged.second, want.second);
    EXPECT_EQ(merged.argbest, want.argbest);
  }
}

TEST(ShardMerge, EnvelopeTieSemanticsAcrossShards) {
  // Coincident duplicate supports and exact equal-MaxDist ties, split
  // across shards at every K by both partitioners: the merged envelope
  // must reproduce the single-Engine linear scan exactly — best, second,
  // the smallest-id argbest, and the per-id ThresholdFor Lemma 2.1
  // consumes — and the index-backed Engine hook must agree; the merged
  // NN!=0 answer built on those thresholds must match the oracle too.
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < 4; ++i) pts.push_back(UncertainPoint::Disk({3, 0}, 1.0));
  pts.push_back(UncertainPoint::Disk({-3, 0}, 1.0));  // Ties (3,0) at origin.
  pts.push_back(UncertainPoint::Disk({0, 3}, 1.0));
  pts.push_back(UncertainPoint::Disk({0, -3}, 1.0));
  pts.push_back(UncertainPoint::Discrete({{1.5, 1.5}}, {1.0}));
  pts.push_back(UncertainPoint::Discrete({{1.5, 1.5}}, {1.0}));
  pts.push_back(UncertainPoint::Disk({6, -2}, 0.5));
  pts.push_back(UncertainPoint::DiscreteUniform({{-5, 2}, {-4, 3}}));

  Engine::Config cfg;
  Engine whole(pts, cfg);
  std::vector<Vec2> qs = GridQueries(6);
  qs.push_back({0, 0});        // All ring disks tie at MaxDist 4.
  qs.push_back({1.5, 1.5});    // On the coincident certain points.
  qs.push_back({3, 0});        // Center of the duplicate disks.

  for (int k : kShardCounts) {
    for (auto part : kPartitioners) {
      serve::ShardedEngine sharded(pts, cfg, {k, part});
      for (Vec2 q : qs) {
        std::vector<core::DeltaEnvelope> local;
        std::vector<serve::ShardView> views;
        for (int s = 0; s < sharded.num_shards(); ++s) {
          local.push_back(sharded.shard(s).MaxDistEnvelope(q));
          views.push_back({&sharded.shard(s), &sharded.global_ids(s)});
        }
        core::DeltaEnvelope merged = serve::MergeEnvelopes(local, views);
        core::DeltaEnvelope scan = core::TwoSmallestMaxDist(pts, q);
        core::DeltaEnvelope index = whole.MaxDistEnvelope(q);
        EXPECT_EQ(merged.best, scan.best);
        EXPECT_EQ(merged.second, scan.second);
        EXPECT_EQ(merged.argbest, scan.argbest);
        EXPECT_EQ(index.best, scan.best);
        EXPECT_EQ(index.second, scan.second);
        EXPECT_EQ(index.argbest, scan.argbest);
        for (int id = 0; id < whole.size(); ++id) {
          EXPECT_EQ(merged.ThresholdFor(id), scan.ThresholdFor(id)) << id;
        }
        EXPECT_EQ(test::NonzeroNn(sharded, q), whole.NonzeroNn(q));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded QueryServer
// ---------------------------------------------------------------------------

TEST(QueryServerSharded, BatchAndSubmitMatchOracle) {
  auto pts = workload::RandomDiscrete(20, 3, 316);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine oracle(pts, cfg);
  serve::QueryServer server(
      pts, cfg,
      {.num_threads = 3,
       .warm = {Engine::QueryType::kMostProbableNn},
       .sharding = {4, serve::Partitioning::kRoundRobin}});
  EXPECT_EQ(server.snapshot(), nullptr);  // Partitioned: no single view.
  ASSERT_NE(server.sharded_snapshot(), nullptr);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 4);

  auto qs = GridQueries(21);
  auto results =
      test::BatchResults(server, qs, {Engine::QueryType::kMostProbableNn});
  ASSERT_EQ(results.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(results[i].nn, oracle.MostProbableNn(qs[i]));
  }
  for (size_t i = 0; i < 5; ++i) {
    auto fut = server.Submit({qs[i], {Engine::QueryType::kNonzeroNn}});
    EXPECT_EQ(fut.get().result.ids, oracle.NonzeroNn(qs[i]));
  }
}

TEST(QueryServerSharded, ReplaceDatasetCanChangeShardCount) {
  auto pts_a = workload::RandomDiscrete(12, 2, 317);
  auto pts_b = workload::RandomDiscrete(18, 2, 318);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  serve::QueryServer server(
      pts_a, cfg,
      {.num_threads = 2,
       .warm = {},
       .sharding = {2, serve::Partitioning::kRoundRobin}});
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 2);
  auto old_snapshot = server.sharded_snapshot();

  server.ReplaceDataset(pts_b, {5, serve::Partitioning::kSpatial});
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 5);
  EXPECT_EQ(server.sharded_snapshot()->size(), 18);
  EXPECT_EQ(server.stats().swaps, 1u);
  // The pinned old shard set still answers for the old dataset.
  EXPECT_EQ(old_snapshot->num_shards(), 2);
  EXPECT_EQ(old_snapshot->size(), 12);

  // A plain ReplaceDataset keeps the new sharding.
  server.ReplaceDataset(pts_a);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 5);

  Engine oracle(pts_a, cfg);
  auto qs = GridQueries(9);
  auto results =
      test::BatchResults(server, qs, {Engine::QueryType::kNonzeroNn});
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(results[i].ids, oracle.NonzeroNn(qs[i]));
  }
}

TEST(QueryServerSharded, UnshardedServerStillExposesSingleSnapshot) {
  auto pts = workload::RandomDiscrete(8, 2, 319);
  serve::QueryServer server(pts, {}, {.num_threads = 2, .warm = {}});
  ASSERT_NE(server.snapshot(), nullptr);
  EXPECT_EQ(server.snapshot()->size(), 8);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 1);
}

TEST(QueryServerSharded, ReplaceDatasetKeepsCallerInstalledShardShape) {
  // A server seeded (or refreshed) with a caller-built shard set must not
  // silently rebuild monolithic on the next plain ReplaceDataset.
  auto pts = workload::RandomDiscrete(12, 2, 321);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  auto four_shards = std::make_shared<const serve::ShardedEngine>(
      pts, cfg, serve::ShardingOptions{4, serve::Partitioning::kRoundRobin});
  serve::QueryServer server(four_shards, {.num_threads = 2, .warm = {}});
  server.ReplaceDataset(pts);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 4);

  // A caller-installed single engine switches replacements back to
  // unsharded builds.
  server.ReplaceEngine(std::make_shared<const Engine>(pts, cfg));
  server.ReplaceDataset(pts);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 1);
}

TEST(ShardedEngine, AssembledShardSetReportsExternalPartitioning) {
  auto pts = workload::RandomDiscrete(6, 2, 320);
  auto parts = serve::PartitionPoints(pts, {2, serve::Partitioning::kSpatial});
  std::vector<std::shared_ptr<const Engine>> engines;
  for (const auto& ids : parts) {
    std::vector<UncertainPoint> subset;
    for (int gid : ids) subset.push_back(pts[gid]);
    engines.push_back(
        std::make_shared<const Engine>(std::move(subset), Engine::Config{}));
  }
  serve::ShardedEngine sharded(std::move(engines), std::move(parts));
  EXPECT_EQ(sharded.num_shards(), 2);
  EXPECT_EQ(sharded.options().partitioning, serve::Partitioning::kExternal);
  Engine single(pts, {});
  Vec2 q{0.5, -0.5};
  EXPECT_EQ(test::NonzeroNn(sharded, q), single.NonzeroNn(q));
}

}  // namespace
}  // namespace unn

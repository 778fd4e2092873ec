// Concurrency stress for the sharding layer, built for TSan: many threads
// hammer one warmed ShardedEngine (shared fan-out pool included) and one
// sharded QueryServer while the main thread swaps in a dataset with a
// different shard count. Every answer must equal a single-threaded oracle
// run on the snapshot it was pinned to.

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query_helpers.h"
#include "engine/engine.h"
#include "serve/query_server.h"
#include "serve/sharding.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

constexpr int kThreads = 8;

std::vector<Vec2> StressQueries(int count) {
  std::vector<Vec2> qs;
  for (int i = 0; i < count; ++i) {
    qs.push_back({-11.0 + 22.0 * ((i * 37) % count) / count,
                  -11.0 + 22.0 * ((i * 61) % count) / count});
  }
  return qs;
}

TEST(ShardedEngineStress, WarmedShardsServeEightThreads) {
  auto pts = workload::RandomDiscrete(36, 3, 401);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;  // Deterministic exact merges.
  serve::ShardedEngine sharded(pts, cfg,
                               {4, serve::Partitioning::kRoundRobin});
  for (auto type :
       {Engine::QueryType::kMostProbableNn, Engine::QueryType::kTopK,
        Engine::QueryType::kExpectedDistanceNn,
        Engine::QueryType::kNonzeroNn}) {
    sharded.Warmup(type);
  }
  int built = sharded.StructuresBuilt();

  auto qs = StressQueries(40);
  // Single-threaded oracle pass (serial fan-out).
  std::vector<int> most_probable, expected_nn;
  std::vector<std::vector<std::pair<int, double>>> topk;
  std::vector<std::vector<int>> nonzero;
  for (Vec2 q : qs) {
    most_probable.push_back(test::MostProbableNn(sharded, q));
    expected_nn.push_back(test::ExpectedDistanceNn(sharded, q));
    topk.push_back(test::TopK(sharded, q, 3));
    nonzero.push_back(test::NonzeroNn(sharded, q));
  }

  // A pool shared by every hammering thread: concurrent fan-outs interleave.
  serve::ThreadPool fan_pool(3);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < qs.size(); ++i) {
        size_t j = (i + t * qs.size() / kThreads) % qs.size();
        Vec2 q = qs[j];
        // Alternate serial and pooled fan-out.
        serve::ThreadPool* pool = (t + i) % 2 == 0 ? &fan_pool : nullptr;
        if (test::MostProbableNn(sharded, q, pool) != most_probable[j]) {
          ++mismatches;
        }
        if (test::ExpectedDistanceNn(sharded, q, pool) != expected_nn[j]) {
          ++mismatches;
        }
        if (test::TopK(sharded, q, 3, pool) != topk[j]) ++mismatches;
        if (test::NonzeroNn(sharded, q, pool) != nonzero[j]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // A warmed shard set never builds under traffic.
  EXPECT_EQ(sharded.StructuresBuilt(), built);
}

TEST(QueryServerShardedStress, EightClientsWithConcurrentReshardingSwap) {
  auto pts_a = workload::RandomDiscrete(24, 3, 402);
  auto pts_b = workload::RandomDiscrete(30, 2, 403);
  auto qs = StressQueries(32);

  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  Engine oracle_a(pts_a, cfg);
  Engine oracle_b(pts_b, cfg);
  std::vector<int> ans_a, ans_b;
  for (Vec2 q : qs) {
    ans_a.push_back(oracle_a.MostProbableNn(q));
    ans_b.push_back(oracle_b.MostProbableNn(q));
  }

  serve::QueryServer server(
      pts_a, cfg,
      {.num_threads = 4,
       .warm = {Engine::QueryType::kMostProbableNn},
       .sharding = {2, serve::Partitioning::kRoundRobin}});

  // 8 clients mix Submit and QueryBatch while the main thread swaps to a
  // dataset with a different shard count and partitioner. Every answer
  // must match one of the two oracles (requests run entirely on the
  // snapshot they were pinned to).
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Engine::QuerySpec spec{Engine::QueryType::kMostProbableNn, 0.5, 1};
      for (int round = 0; round < 5; ++round) {
        if ((t + round) % 2 == 0) {
          auto results = test::BatchResults(server, qs, spec);
          for (size_t i = 0; i < qs.size(); ++i) {
            if (results[i].nn != ans_a[i] && results[i].nn != ans_b[i]) {
              ++mismatches;
            }
          }
        } else {
          size_t i = static_cast<size_t>(t * 7 + round) % qs.size();
          int nn = server.Submit({qs[i], spec}).get().result.nn;
          if (nn != ans_a[i] && nn != ans_b[i]) ++mismatches;
        }
      }
    });
  }
  // Reshard roughly mid-flight: K 2 -> 5, round-robin -> spatial.
  server.ReplaceDataset(pts_b, {5, serve::Partitioning::kSpatial});
  for (auto& th : clients) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().swaps, 1u);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 5);

  // After the dust settles, the server answers for dataset B only.
  auto final_results =
      test::BatchResults(server, qs, {Engine::QueryType::kMostProbableNn});
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(final_results[i].nn, ans_b[i]);
  }
}

TEST(QueryServerShardedStress, DestructionWithInFlightShardedSubmits) {
  // Shutdown race: queued sharded Submits fan back out across the pool
  // while the server (and its pool) is being destroyed. ParallelFor on a
  // stopping pool must degrade gracefully; every future must still be
  // fulfilled.
  auto pts = workload::RandomDiscrete(16, 2, 404);
  Engine::Config cfg;
  cfg.backend = Backend::kBruteForce;
  auto qs = StressQueries(24);
  std::vector<std::future<serve::Response>> futures;
  {
    serve::QueryServer server(
        pts, cfg,
        {.num_threads = 2,
         .warm = {Engine::QueryType::kNonzeroNn},
         .sharding = {3, serve::Partitioning::kRoundRobin}});
    for (Vec2 q : qs) {
      futures.push_back(server.Submit({q, {Engine::QueryType::kNonzeroNn}}));
    }
  }  // Destructor joins the pool; queued tasks drain first.
  Engine oracle(pts, cfg);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(futures[i].get().result.ids, oracle.NonzeroNn(qs[i]));
  }
}

}  // namespace
}  // namespace unn

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "query_helpers.h"
#include "scalar_oracle.h"
#include "engine/engine.h"
#include "obs/profile.h"
#include "serve/query_server.h"
#include "serve/thread_pool.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

std::vector<Vec2> GridQueries(int count) {
  std::vector<Vec2> qs;
  for (int i = 0; i < count; ++i) {
    qs.push_back({-10.0 + 20.0 * i / count, 7.0 - 14.0 * i / count});
  }
  return qs;
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, PostRunsEveryTask) {
  serve::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> ran{0};
  std::promise<void> all_done;
  const int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Post([&] {
      if (ran.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    serve::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Post([&] { ran.fetch_add(1); });
    }
  }  // Join must run every queued task first.
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 3, 8}) {
    serve::ThreadPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
      }
    }
  }
}

TEST(ThreadPool, ParallelForNestedInsideTaskCompletes) {
  serve::ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::promise<void> done;
  pool.Post([&] {
    pool.ParallelFor(64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) sum.fetch_add(static_cast<int>(i));
    });
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

// ---------------------------------------------------------------------------
// ShardedEngine::QueryMany with a pool — query blocks across the workers,
// answers identical to the serial pack, in order, for every query type.
// ---------------------------------------------------------------------------

TEST(PooledQueryMany, MatchesSerialForEveryTypeAndThreadCount) {
  auto pts = workload::RandomDiscrete(18, 3, 91);
  auto engine = std::make_shared<const Engine>(pts, Engine::Config{});
  serve::ShardedEngine one_shard(engine);
  auto qs = GridQueries(57);  // Not a multiple of any block count.

  const std::vector<Engine::QuerySpec> specs = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.3, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  for (const auto& spec : specs) {
    auto serial = engine->QueryMany(qs, spec);
    for (int threads : {1, 2, 8}) {
      serve::ThreadPool pool(threads);
      auto parallel = one_shard.QueryMany(qs, spec, &pool);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(parallel[i].nn, serial[i].nn);
        EXPECT_EQ(parallel[i].ranked, serial[i].ranked);
        EXPECT_EQ(parallel[i].ids, serial[i].ids);
      }
    }
  }
}

TEST(PooledQueryMany, EmptyBatchAndDegenerateSpecs) {
  auto pts = workload::RandomDiscrete(10, 2, 92);
  serve::ShardedEngine one_shard(
      std::make_shared<const Engine>(pts, Engine::Config{}));
  serve::ThreadPool pool(2);

  auto empty = one_shard.QueryMany({}, {}, &pool);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one_shard.StructuresBuilt(), 0);

  auto qs = GridQueries(5);
  Engine::QuerySpec topk0{Engine::QueryType::kTopK, 0.5, 0};
  for (const auto& r : one_shard.QueryMany(qs, topk0, &pool)) {
    EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(one_shard.StructuresBuilt(), 0);
}

// ---------------------------------------------------------------------------
// QueryServer
// ---------------------------------------------------------------------------

TEST(QueryServer, SubmitMatchesDirectQuery) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  Engine::Config cfg;
  serve::QueryServer server(pts, cfg, {.num_threads = 4, .warm = {}});
  Engine oracle(pts, cfg);

  auto qs = GridQueries(20);
  std::vector<std::future<serve::Response>> futures;
  for (Vec2 q : qs) {
    futures.push_back(server.Submit({q, {Engine::QueryType::kMostProbableNn}}));
  }
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(futures[i].get().result.nn, oracle.MostProbableNn(qs[i]));
  }
  EXPECT_EQ(server.stats().queries, qs.size());
}

TEST(QueryServer, QueryBatchMatchesSerialEngine) {
  auto pts = workload::RandomDisks(12, 94);
  Engine::Config cfg;
  cfg.backend = Backend::kNonzeroIndex;
  serve::QueryServer server(pts, cfg, {.num_threads = 3, .warm = {}});
  Engine oracle(pts, cfg);

  auto qs = GridQueries(33);
  auto results =
      test::BatchResults(server, qs, {Engine::QueryType::kNonzeroNn});
  ASSERT_EQ(results.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(results[i].ids, oracle.NonzeroNn(qs[i]));
  }
  EXPECT_EQ(server.stats().batches, 1u);
}

TEST(QueryServer, WarmOptionPrebuildsSnapshot) {
  auto pts = workload::RandomDiscrete(12, 3, 95);
  serve::QueryServer server(
      pts, {},
      {.num_threads = 2,
       .warm = {Engine::QueryType::kMostProbableNn,
                Engine::QueryType::kNonzeroNn}});
  int built = server.snapshot()->StructuresBuilt();
  EXPECT_GE(built, 1);
  // Serving warmed types builds nothing further.
  auto qs = GridQueries(8);
  test::BatchResults(server, qs, {Engine::QueryType::kMostProbableNn});
  test::BatchResults(server, qs, {Engine::QueryType::kNonzeroNn});
  EXPECT_EQ(server.snapshot()->StructuresBuilt(), built);
}

TEST(QueryServer, ReplaceDatasetSwapsSnapshotAndKeepsOldAlive) {
  auto pts_a = workload::RandomDiscrete(10, 2, 96);
  auto pts_b = workload::RandomDiscrete(14, 3, 97);
  serve::QueryServer server(pts_a, {}, {.num_threads = 2, .warm = {}});

  std::shared_ptr<const Engine> old_snapshot = server.snapshot();
  EXPECT_EQ(old_snapshot->size(), 10);

  server.ReplaceDataset(pts_b);
  EXPECT_EQ(server.snapshot()->size(), 14);
  EXPECT_EQ(server.stats().swaps, 1u);

  // The pinned old snapshot still answers against the old dataset.
  EXPECT_EQ(old_snapshot->size(), 10);
  Engine oracle_a(pts_a, {});
  Vec2 q{1, 2};
  EXPECT_EQ(old_snapshot->MostProbableNn(q), oracle_a.MostProbableNn(q));

  // New queries see the new dataset.
  Engine oracle_b(pts_b, {});
  auto r = server.Submit({q, {Engine::QueryType::kMostProbableNn}}).get();
  EXPECT_EQ(r.result.nn, oracle_b.MostProbableNn(q));
}

// ---------------------------------------------------------------------------
// QueryServer: Request/Response API, result cache, QoS
// ---------------------------------------------------------------------------

TEST(ThreadPool, StrictPriorityOrdersDispatch) {
  serve::ThreadPool pool(1);
  // Park the single worker so posted tasks queue up, then release and
  // watch the dispatch order: every high before every normal before
  // every low, FIFO within a class.
  std::atomic<bool> release{false};
  std::promise<void> parked;
  pool.Post([&] {
    parked.set_value();
    while (!release.load()) std::this_thread::yield();
  });
  parked.get_future().get();

  std::mutex mu;
  std::vector<int> order;
  std::promise<void> done;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    if (order.size() == 6) done.set_value();
  };
  pool.Post([&] { record(20); }, serve::TaskPriority::kLow);
  pool.Post([&] { record(10); }, serve::TaskPriority::kNormal);
  pool.Post([&] { record(0); }, serve::TaskPriority::kHigh);
  pool.Post([&] { record(21); }, serve::TaskPriority::kLow);
  pool.Post([&] { record(1); }, serve::TaskPriority::kHigh);
  pool.Post([&] { record(11); }, serve::TaskPriority::kNormal);
  release.store(true);
  done.get_future().get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));
}

TEST(QueryServer, RequestSubmitReportsComputedSource) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer server(pts, {}, {.num_threads = 2, .warm = {}});
  Engine oracle(pts, {});

  serve::Request req;
  req.q = {1.0, -2.0};
  serve::Response resp = server.Submit(req).get();
  EXPECT_EQ(resp.source, serve::ResultSource::kComputed);
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.result.nn, oracle.MostProbableNn(req.q));
  EXPECT_GE(resp.latency.count(), 0);
  EXPECT_EQ(server.stats().queries, 1u);
}

TEST(QueryServer, CacheHitIsBitIdenticalAndLabeled) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kTopK};
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  serve::Request req;
  req.q = {0.5, 0.5};
  req.spec = {Engine::QueryType::kTopK, 0.5, 3};
  serve::Response first = server.Submit(req).get();
  EXPECT_EQ(first.source, serve::ResultSource::kComputed);
  serve::Response second = server.Submit(req).get();
  EXPECT_EQ(second.source, serve::ResultSource::kCache);
  // Bit-identical: every field equal, not merely close.
  EXPECT_EQ(second.result.nn, first.result.nn);
  EXPECT_EQ(second.result.ranked, first.result.ranked);
  EXPECT_EQ(second.result.ids, first.result.ids);

  // A TopK spec that differs only in its (ignored) tau is the same key.
  serve::Request same_key = req;
  same_key.spec.tau = 0.123;
  EXPECT_EQ(server.Submit(same_key).get().source,
            serve::ResultSource::kCache);

  auto s = server.stats();
  EXPECT_EQ(s.cache.hits, 2u);
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.cache.insertions, 1u);
}

TEST(QueryServer, ReplaceDatasetBumpsGenerationAndInvalidates) {
  auto pts_a = workload::RandomDiscrete(10, 2, 96);
  auto pts_b = workload::RandomDiscrete(14, 3, 97);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts_a, {}, options);
  EXPECT_EQ(server.generation(), 1u);

  serve::Request req;
  req.q = {1.0, 2.0};
  EXPECT_EQ(server.Submit(req).get().source,
            serve::ResultSource::kComputed);
  EXPECT_EQ(server.Submit(req).get().source, serve::ResultSource::kCache);

  server.ReplaceDataset(pts_b);
  EXPECT_EQ(server.generation(), 2u);
  // The old entry is unreachable under the new generation: the same
  // request recomputes, against the new dataset.
  serve::Response after = server.Submit(req).get();
  EXPECT_EQ(after.source, serve::ResultSource::kComputed);
  Engine oracle_b(pts_b, {});
  EXPECT_EQ(after.result.nn, oracle_b.MostProbableNn(req.q));
}

TEST(QueryServer, ExpiredDeadlineIsRefusedWithoutComputing) {
  auto pts = workload::RandomDiscrete(12, 2, 95);
  serve::QueryServer server(pts, {}, {.num_threads = 2, .warm = {}});

  serve::Request dead;
  dead.q = {0.0, 0.0};
  dead.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  serve::Response resp = server.Submit(dead).get();
  EXPECT_EQ(resp.source, serve::ResultSource::kDeadlineExceeded);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.result.nn, -1);

  serve::Request alive = dead;
  alive.deadline = serve::DeadlineAfter(std::chrono::hours(1));
  EXPECT_EQ(server.Submit(alive).get().source,
            serve::ResultSource::kComputed);

  auto s = server.stats();
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.queries, 2u);
  // Refusals never enter the latency histograms.
  EXPECT_EQ(s.latency(Engine::QueryType::kMostProbableNn).count, 1u);
}

/// Parks every pool worker behind a gate so the admission-control tests
/// can hold the server at a known in-flight level deterministically.
class PoolGate {
 public:
  PoolGate(serve::ThreadPool& pool, int workers) {
    for (int i = 0; i < workers; ++i) {
      pool.Post([this] {
        gated_.fetch_add(1);
        while (!release_.load()) std::this_thread::yield();
      });
    }
    while (gated_.load() < workers) std::this_thread::yield();
  }
  void Release() { release_.store(true); }

 private:
  std::atomic<int> gated_{0};
  std::atomic<bool> release_{false};
};

TEST(QueryServer, AdmissionControlShedsPastInflightLimit) {
  auto pts = workload::RandomDiscrete(12, 2, 95);
  serve::QueryServer::Options options;
  options.num_threads = 1;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.max_inflight = 1;
  serve::QueryServer server(pts, {}, options);

  PoolGate gate(server.pool(), 1);
  serve::Request req;
  req.q = {0.5, -0.5};
  // Occupies the one in-flight slot (queued behind the gate).
  std::future<serve::Response> admitted = server.Submit(req);
  // At the limit: these are refused on the submitting thread.
  for (int i = 0; i < 3; ++i) {
    serve::Response shed = server.Submit(req).get();
    EXPECT_EQ(shed.source, serve::ResultSource::kShed);
    EXPECT_FALSE(shed.ok());
  }
  gate.Release();
  EXPECT_EQ(admitted.get().source, serve::ResultSource::kComputed);
  auto s = server.stats();
  EXPECT_EQ(s.shed, 3u);
  EXPECT_EQ(s.queries, 4u);
}

TEST(QueryServer, AdmissionControlDegradesToCheapBackend) {
  auto pts = workload::RandomDiscrete(20, 3, 98);
  serve::QueryServer::Options options;
  options.num_threads = 1;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.max_inflight = 1;
  options.overload = serve::OverloadPolicy::kDegrade;
  serve::QueryServer server(pts, {}, options);

  PoolGate gate(server.pool(), 1);
  serve::Request req;
  req.q = {0.25, 0.25};
  std::future<serve::Response> admitted = server.Submit(req);
  // Past the limit: answered inline by the degraded Monte-Carlo engine —
  // a labeled estimate, available while the full backend is wedged.
  serve::Response degraded = server.Submit(req).get();
  EXPECT_EQ(degraded.source, serve::ResultSource::kDegraded);
  EXPECT_TRUE(degraded.ok());
  EXPECT_GE(degraded.result.nn, 0);
  EXPECT_LT(degraded.result.nn, static_cast<int>(pts.size()));
  gate.Release();
  EXPECT_EQ(admitted.get().source, serve::ResultSource::kComputed);
  EXPECT_EQ(server.stats().degraded, 1u);
}

TEST(QueryServer, DegenerateSpecsBypassCacheAndAdmission) {
  auto pts = workload::RandomDiscrete(12, 2, 95);
  serve::QueryServer::Options options;
  options.num_threads = 1;
  options.max_inflight = 1;
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  PoolGate gate(server.pool(), 1);
  serve::Request req;
  req.q = {0.0, 0.0};
  std::future<serve::Response> admitted = server.Submit(req);

  // tau > 1 is definition-level empty: it must be answered (never shed)
  // even at the in-flight limit, and never cached.
  serve::Request degenerate;
  degenerate.q = {0.0, 0.0};
  degenerate.spec = {Engine::QueryType::kThreshold, 1.5, 1};
  std::future<serve::Response> trivial = server.Submit(degenerate);
  gate.Release();
  serve::Response resp = trivial.get();
  EXPECT_EQ(resp.source, serve::ResultSource::kComputed);
  EXPECT_TRUE(resp.result.ranked.empty());
  admitted.get();

  auto s = server.stats();
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.cache.insertions, 1u);  // The regular request; not tau=1.5.
}

// Pack-grouping property: the server's Responses for a request stream
// must equal the scalar kernels' answers (tests/scalar_oracle.h) request
// by request — order, values and ResultSource labels, plus the stats
// counters — on mixed-SpecClass batches with degenerate specs, duplicate
// requests, and cache-hit interleavings on the second pass.
TEST(QueryServer, PackGroupingMatchesScalarOracleOnMixedBatches) {
  auto pts = workload::RandomDiscrete(20, 3, 101);
  serve::QueryServer::Options options;
  options.num_threads = 3;
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer batched(pts, {}, options);
  test::ScalarOracle scalar(pts);

  auto qs = GridQueries(9);
  std::vector<serve::Request> reqs;
  for (size_t i = 0; i < qs.size(); ++i) {
    Vec2 q = qs[i];
    reqs.push_back({q, {Engine::QueryType::kExpectedDistanceNn, 0.5, 1}});
    if (i % 2 == 0) {
      reqs.push_back({q, {Engine::QueryType::kMostProbableNn, 0.5, 1}});
    }
    if (i % 3 == 0) {
      // Degenerate spec interleaved mid-batch: answered definition-level,
      // never grouped into a backend pack, never cached.
      reqs.push_back({q, {Engine::QueryType::kThreshold, 1.5, 1}});
    }
    if (i % 4 == 1) {
      // Duplicate of an earlier request in the same batch.
      reqs.push_back(
          {qs[0], {Engine::QueryType::kExpectedDistanceNn, 0.5, 1}});
    }
  }
  // Pass 0 computes everything; pass 1 interleaves cache hits with the
  // degenerate computes.
  size_t regular = 0;
  std::set<std::tuple<int, double, double>> distinct_regular;
  for (const auto& r : reqs) {
    if (r.spec.type == Engine::QueryType::kThreshold) continue;
    ++regular;
    distinct_regular.insert({static_cast<int>(r.spec.type), r.q.x, r.q.y});
  }
  for (int pass = 0; pass < 2; ++pass) {
    auto got = batched.QueryBatch(reqs);
    ASSERT_EQ(got.size(), reqs.size());
    for (size_t i = 0; i < got.size(); ++i) {
      bool degenerate = reqs[i].spec.type == Engine::QueryType::kThreshold;
      serve::ResultSource want_source = pass == 1 && !degenerate
                                            ? serve::ResultSource::kCache
                                            : serve::ResultSource::kComputed;
      EXPECT_EQ(got[i].source, want_source) << "pass=" << pass << " i=" << i;
      Engine::QueryResult want = scalar.QueryMany({&reqs[i].q, 1},
                                                  reqs[i].spec)[0];
      EXPECT_EQ(got[i].result.nn, want.nn);
      EXPECT_EQ(got[i].result.ranked, want.ranked);
      EXPECT_EQ(got[i].result.ids, want.ids);
    }
  }
  auto bs = batched.stats();
  EXPECT_EQ(bs.batches, 2u);
  EXPECT_EQ(bs.queries, 2 * reqs.size());
  EXPECT_EQ(bs.shed, 0u);
  EXPECT_EQ(bs.cache.hits, regular);
  EXPECT_EQ(bs.cache.insertions, distinct_regular.size());
  for (int t = 0; t < serve::kNumQueryTypes; ++t) {
    size_t of_type = 0;
    for (const auto& r : reqs) of_type += static_cast<int>(r.spec.type) == t;
    EXPECT_EQ(bs.queries_by_type[t], 2 * of_type) << "type " << t;
  }
}

TEST(QueryServer, RequestBatchMixedSpecsMatchOracle) {
  auto pts = workload::RandomDiscrete(18, 3, 99);
  serve::QueryServer server(pts, {}, {.num_threads = 3, .warm = {}});
  Engine oracle(pts, {});

  auto qs = GridQueries(5);
  std::vector<serve::Request> reqs;
  for (Vec2 q : qs) {
    reqs.push_back({q, {Engine::QueryType::kMostProbableNn, 0.5, 1}});
    reqs.push_back({q, {Engine::QueryType::kTopK, 0.5, 2}});
    reqs.push_back({q, {Engine::QueryType::kNonzeroNn, 0.5, 1}});
    reqs.push_back({q, {Engine::QueryType::kTopK, 0.5, 0}});  // Degenerate.
  }
  auto responses = server.QueryBatch(reqs);
  ASSERT_EQ(responses.size(), reqs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    const Vec2 q = qs[i];
    EXPECT_EQ(responses[4 * i].result.nn, oracle.MostProbableNn(q));
    EXPECT_EQ(responses[4 * i + 1].result.ranked, oracle.TopK(q, 2));
    EXPECT_EQ(responses[4 * i + 2].result.ids, oracle.NonzeroNn(q));
    EXPECT_TRUE(responses[4 * i + 3].result.ranked.empty());
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(responses[4 * i + j].source,
                serve::ResultSource::kComputed);
    }
  }
  auto s = server.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.queries, reqs.size());
  EXPECT_EQ(s.queries_by_type[static_cast<int>(Engine::QueryType::kTopK)],
            2 * qs.size());
}

TEST(QueryServer, RequestBatchServesRepeatsFromCache) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  auto qs = GridQueries(12);
  std::vector<serve::Request> reqs;
  for (Vec2 q : qs) reqs.push_back({q, {}});
  auto first = server.QueryBatch(reqs);
  auto second = server.QueryBatch(reqs);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].source, serve::ResultSource::kComputed);
    EXPECT_EQ(second[i].source, serve::ResultSource::kCache);
    EXPECT_EQ(second[i].result.nn, first[i].result.nn);
  }
  EXPECT_EQ(server.stats().cache.hits, qs.size());
}

// ---------------------------------------------------------------------------
// QueryServer: observability (DumpMetrics, tracing, slow-query log)
// ---------------------------------------------------------------------------

TEST(QueryServer, DumpMetricsEmitsPrometheusCatalog) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  auto qs = GridQueries(6);
  std::vector<serve::Request> reqs;
  for (Vec2 q : qs) reqs.push_back({q, {}});
  server.QueryBatch(reqs);
  server.QueryBatch(reqs);  // All repeats: cache hits.
  server.Submit({qs[0], {Engine::QueryType::kNonzeroNn}}).get();

  // Traversal counters are process-global and appended at dump time.
  obs::ResetTraversalProfile();
  spatial::TraversalStats st;
  st.nodes_visited = 12;
  obs::RecordTraversal(obs::TraversalOp::kQuantEnvelope, st);

  std::string text = server.DumpMetrics();
  // Counters: totals, per-type splits, cache and QoS counts.
  EXPECT_NE(text.find("# TYPE unn_server_queries_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("unn_server_queries_by_type_total{type=\"most_probable_nn\"}"),
      std::string::npos);
  EXPECT_NE(text.find("unn_server_queries_by_type_total{type=\"nonzero_nn\"}"),
            std::string::npos);
  EXPECT_NE(text.find("unn_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("unn_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("unn_server_shed_total"), std::string::npos);
  EXPECT_NE(text.find("unn_server_degraded_total"), std::string::npos);
  EXPECT_NE(text.find("unn_server_deadline_exceeded_total"),
            std::string::npos);
  // Latency histograms with cumulative buckets, plus percentile gauges.
  EXPECT_NE(text.find("# TYPE unn_server_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("unn_server_latency_us_bucket{type=\"most_probable_nn\""),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("unn_server_latency_p50_us"), std::string::npos);
  EXPECT_NE(text.find("unn_server_latency_p99_us"), std::string::npos);
  // Point-in-time gauges resolved at dump time.
  EXPECT_NE(text.find("unn_pool_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("unn_pool_threads 2"), std::string::npos);
  EXPECT_NE(text.find("unn_server_inflight"), std::string::npos);
  EXPECT_NE(text.find("unn_server_generation"), std::string::npos);
  EXPECT_NE(text.find("unn_cache_hit_ratio"), std::string::npos);
  // The appended traversal sink.
  EXPECT_NE(text.find("unn_traversal_nodes_visited_total{structure="
                      "\"quant_tree\",op=\"quant_envelope\"} 12"),
            std::string::npos);
  obs::ResetTraversalProfile();

  // Values agree with the legacy stats() view.
  serve::ServerStats s = server.stats();
  EXPECT_NE(text.find("unn_server_queries_total " +
                      std::to_string(s.queries)),
            std::string::npos);
  EXPECT_NE(text.find("unn_cache_hits_total " + std::to_string(s.cache.hits)),
            std::string::npos);

  // The JSON exporter serves the same snapshot.
  std::string json = server.DumpMetrics(obs::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"name\": \"unn_server_queries_total\""),
            std::string::npos);
}

TEST(QueryServer, ExternalTraceContextRecordsSpanTree) {
  auto pts = workload::RandomDiscrete(20, 3, 98);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.cache.max_bytes = 1u << 20;  // cache_lookup spans need a cache.
  serve::QueryServer server(pts, {}, options);

  obs::TraceContext ctx;
  serve::Request req;
  req.q = {0.5, -1.5};
  req.trace = &ctx;
  serve::Response resp = server.Submit(req).get();
  EXPECT_TRUE(resp.ok());

  std::vector<obs::Span> spans = ctx.spans();
  ASSERT_FALSE(spans.empty());
  auto has = [&spans](const char* name) {
    for (const obs::Span& s : spans) {
      if (std::string(s.name) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("request"));
  EXPECT_TRUE(has("admission"));
  EXPECT_TRUE(has("cache_lookup"));
  EXPECT_TRUE(has("engine_query"));
  // The root span is closed once the response is delivered.
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_GE(spans[0].end_ns, 0);
}

TEST(QueryServer, SlowQueryLogIsBoundedAndCarriesSpans) {
  auto pts = workload::RandomDiscrete(200, 3, 99);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.slow_query_threshold = std::chrono::microseconds(1);
  options.slow_query_log_size = 4;
  serve::QueryServer server(pts, {}, options);

  EXPECT_TRUE(server.SlowQueries().empty());
  auto qs = GridQueries(12);
  for (Vec2 q : qs) {
    server.Submit({q, {Engine::QueryType::kMostProbableNn}}).get();
  }

  std::vector<serve::QueryServer::SlowQuery> slow = server.SlowQueries();
  ASSERT_FALSE(slow.empty());
  EXPECT_LE(slow.size(), 4u);  // Ring keeps only the most recent entries.
  for (const auto& sq : slow) {
    EXPECT_GE(sq.latency, options.slow_query_threshold);
    ASSERT_FALSE(sq.spans.empty());
    EXPECT_EQ(std::string(sq.spans[0].name), "request");
    // The captured tree renders (slow-query dump format).
    std::string rendered = obs::RenderSpanTree(sq.spans);
    EXPECT_NE(rendered.find("request"), std::string::npos);
  }
}

// Non-finite query points through the server, unsharded and sharded: the
// documented empty answer for every type, labeled kComputed and never
// cached (the second Submit computes again), never shed.
TEST(QueryServer, NonFiniteQueriesAreAnsweredEmptyAndNeverCached) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto pts = workload::RandomDiscrete(24, 3, 109);
  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.3, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  for (int shards : {1, 4}) {
    serve::QueryServer::Options options;
    options.num_threads = 2;
    options.cache.max_bytes = 1u << 20;
    options.sharding.num_shards = shards;
    serve::QueryServer server(pts, {}, options);
    for (const auto& spec : specs) {
      for (Vec2 q : {Vec2{nan, 0}, Vec2{1, inf}}) {
        for (int round = 0; round < 2; ++round) {
          serve::Response resp = server.Submit({q, spec}).get();
          EXPECT_EQ(resp.source, serve::ResultSource::kComputed)
              << "shards=" << shards << " type="
              << static_cast<int>(spec.type) << " round=" << round;
          EXPECT_EQ(resp.result.nn, -1);
          EXPECT_TRUE(resp.result.ranked.empty());
          EXPECT_TRUE(resp.result.ids.empty());
        }
      }
      // A batch mixing finite and non-finite points: the finite ones are
      // computed (and cached), the non-finite ones answered empty.
      std::vector<serve::Request> reqs = {
          {{0.5, 0.5}, spec}, {{nan, nan}, spec}, {{-2, 1}, spec}};
      auto first = server.QueryBatch(reqs);
      auto second = server.QueryBatch(reqs);
      EXPECT_EQ(second[0].source, serve::ResultSource::kCache);
      EXPECT_EQ(second[1].source, serve::ResultSource::kComputed);
      EXPECT_EQ(second[2].source, serve::ResultSource::kCache);
      EXPECT_EQ(first[1].result.nn, -1);
      EXPECT_TRUE(first[1].result.ranked.empty());
      EXPECT_TRUE(first[1].result.ids.empty());
      auto direct = server.sharded_snapshot()->QueryMany(
          std::vector<Vec2>{{0.5, 0.5}}, spec);
      EXPECT_EQ(first[0].result.nn, direct[0].nn);
      EXPECT_EQ(first[0].result.ranked, direct[0].ranked);
      EXPECT_EQ(first[0].result.ids, direct[0].ids);
    }
    EXPECT_EQ(server.stats().shed, 0u);
  }
}

}  // namespace
}  // namespace unn

// Concurrency stress: many threads hammer one Engine and one QueryServer
// (including a mid-flight snapshot swap) and every answer must equal the
// single-threaded oracle run. Built for TSan: the cold-cache test races
// first queries into the call_once paths, the server test races Submit /
// QueryBatch against ReplaceDataset.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query_helpers.h"
#include "scalar_oracle.h"
#include "engine/engine.h"
#include "serve/query_server.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

constexpr int kThreads = 8;

std::vector<Vec2> StressQueries(int count) {
  std::vector<Vec2> qs;
  for (int i = 0; i < count; ++i) {
    // Deterministic spread over the workload extent.
    qs.push_back({-11.0 + 22.0 * ((i * 37) % count) / count,
                  -11.0 + 22.0 * ((i * 61) % count) / count});
  }
  return qs;
}

/// One single-threaded pass over every query type — the oracle the
/// concurrent runs are compared against.
struct OracleRun {
  std::vector<int> most_probable;
  std::vector<int> expected_nn;
  std::vector<std::vector<std::pair<int, double>>> topk;
  std::vector<std::vector<int>> nonzero;
};

OracleRun RunSerial(const Engine& engine, const std::vector<Vec2>& qs) {
  OracleRun o;
  for (Vec2 q : qs) {
    o.most_probable.push_back(engine.MostProbableNn(q));
    o.expected_nn.push_back(engine.ExpectedDistanceNn(q));
    o.topk.push_back(engine.TopK(q, 3));
    o.nonzero.push_back(engine.NonzeroNn(q));
  }
  return o;
}

/// Hammers `engine` from kThreads threads and counts answers that differ
/// from the oracle. Returns the mismatch count (0 on success).
int HammerEngine(const Engine& engine, const std::vector<Vec2>& qs,
                 const OracleRun& oracle) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different offset so the threads are never
      // in lockstep on the same structure path.
      for (size_t i = 0; i < qs.size(); ++i) {
        size_t j = (i + t * qs.size() / kThreads) % qs.size();
        Vec2 q = qs[j];
        if (engine.MostProbableNn(q) != oracle.most_probable[j]) ++mismatches;
        if (engine.ExpectedDistanceNn(q) != oracle.expected_nn[j]) {
          ++mismatches;
        }
        if (engine.TopK(q, 3) != oracle.topk[j]) ++mismatches;
        if (engine.NonzeroNn(q) != oracle.nonzero[j]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  return mismatches.load();
}

TEST(EngineStress, WarmedEngineServesEightThreads) {
  auto pts = workload::RandomDiscrete(40, 3, 101);
  Engine engine(pts, {});
  for (auto type :
       {Engine::QueryType::kMostProbableNn, Engine::QueryType::kTopK,
        Engine::QueryType::kExpectedDistanceNn,
        Engine::QueryType::kNonzeroNn}) {
    engine.Warmup(type);
  }
  int built = engine.StructuresBuilt();

  auto qs = StressQueries(60);
  OracleRun oracle = RunSerial(engine, qs);
  EXPECT_EQ(HammerEngine(engine, qs, oracle), 0);
  // A warmed engine never builds under traffic.
  EXPECT_EQ(engine.StructuresBuilt(), built);
}

TEST(EngineStress, ColdCacheBuildsEachStructureExactlyOnce) {
  auto pts = workload::RandomDisks(24, 102);
  auto qs = StressQueries(30);

  // Oracle from an identically-configured twin (deterministic structures:
  // same points + config => same answers).
  Engine twin(pts, {});
  OracleRun oracle = RunSerial(twin, qs);

  // Race all first queries into the lazy cache.
  Engine engine(pts, {});
  EXPECT_EQ(engine.StructuresBuilt(), 0);
  EXPECT_EQ(HammerEngine(engine, qs, oracle), 0);
  // Every structure was built exactly once despite the race: the twin's
  // serial pass built the same set.
  EXPECT_EQ(engine.StructuresBuilt(), twin.StructuresBuilt());
}

TEST(QueryServerStress, EightClientsWithConcurrentSnapshotSwap) {
  auto pts_a = workload::RandomDiscrete(30, 3, 103);
  auto pts_b = workload::RandomDiscrete(36, 2, 104);
  auto qs = StressQueries(40);

  Engine::Config cfg;
  Engine oracle_a(pts_a, cfg);
  Engine oracle_b(pts_b, cfg);
  std::vector<int> ans_a, ans_b;
  for (Vec2 q : qs) {
    ans_a.push_back(oracle_a.MostProbableNn(q));
    ans_b.push_back(oracle_b.MostProbableNn(q));
  }

  serve::QueryServer server(
      pts_a, cfg,
      {.num_threads = 4, .warm = {Engine::QueryType::kMostProbableNn}});

  // 8 client threads mix Submit and QueryBatch while the main thread swaps
  // the dataset. Every answer must match one of the two oracles (a request
  // runs entirely on the snapshot it was pinned to).
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Engine::QuerySpec spec{Engine::QueryType::kMostProbableNn, 0.5, 1};
      for (int round = 0; round < 6; ++round) {
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
  // Swap roughly mid-flight.
  server.ReplaceDataset(pts_b);
  for (auto& th : clients) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().swaps, 1u);

  // After the dust settles, the server answers for dataset B only.
  auto final_results =
      test::BatchResults(server, qs, {Engine::QueryType::kMostProbableNn});
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(final_results[i].nn, ans_b[i]);
  }
}

// The batched QueryMany path (pack grouping + shared-traversal kernels)
// racing ReplaceDataset: every answer must match one of the two
// snapshots' oracles, bit-identically, because a batch runs entirely on
// the snapshot it pinned on entry and batching never changes results.
TEST(QueryServerStress, BatchedPacksRacingSnapshotSwap) {
  auto pts_a = workload::RandomDiscrete(32, 3, 105);
  auto pts_b = workload::RandomDiscrete(28, 2, 106);
  auto qs = StressQueries(33);  // Ragged final pack in every batch.

  Engine::Config cfg;
  Engine oracle_a(pts_a, cfg);
  Engine oracle_b(pts_b, cfg);
  std::vector<int> ans_a, ans_b;
  for (Vec2 q : qs) {
    ans_a.push_back(oracle_a.ExpectedDistanceNn(q));
    ans_b.push_back(oracle_b.ExpectedDistanceNn(q));
  }

  serve::QueryServer server(
      pts_a, cfg,
      {.num_threads = 4, .warm = {Engine::QueryType::kExpectedDistanceNn}});

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      Engine::QuerySpec spec{Engine::QueryType::kExpectedDistanceNn, 0.5, 1};
      for (int round = 0; round < 6; ++round) {
        auto results = test::BatchResults(server, qs, spec);
        for (size_t i = 0; i < qs.size(); ++i) {
          if (results[i].nn != ans_a[i] && results[i].nn != ans_b[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  server.ReplaceDataset(pts_b);
  for (auto& th : clients) th.join();

  EXPECT_EQ(mismatches.load(), 0);

  // Settled: dataset B only, still bit-identical to its scalar oracle.
  auto final_results =
      test::BatchResults(server, qs, {Engine::QueryType::kExpectedDistanceNn});
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(final_results[i].nn, ans_b[i]);
  }
}

// All five query types' batched kernels racing ReplaceDataset with
// worker pinning on: clients fire ragged, varying-length packs of every
// type while the snapshot swaps underneath. Each answer must be
// bit-identical to one of the two snapshots' scalar-oracle runs — a
// batch runs entirely on the snapshot it pinned on entry, batching
// never changes results, and per-query answers are independent of pack
// composition (the prefix of a longer batch equals the full batch).
// pin_cpus exercises the ThreadPool affinity path under TSan; pinning
// is a placement hint and must be invisible in results.
TEST(QueryServerStress, MixedTypeRaggedPacksRacingSwapWithPinnedWorkers) {
  auto pts_a = workload::RandomDiscrete(32, 3, 107);
  auto pts_b = workload::RandomDiscrete(28, 2, 108);
  auto qs = StressQueries(33);  // 33 = 4 packs + a ragged singleton.

  const std::vector<Engine::QuerySpec> specs = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.25, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };

  // The oracles are the scalar kernels.
  test::ScalarOracle oracle_a(pts_a);
  test::ScalarOracle oracle_b(pts_b);
  std::vector<std::vector<Engine::QueryResult>> ans_a, ans_b;
  for (const auto& spec : specs) {
    ans_a.push_back(oracle_a.QueryMany(qs, spec));
    ans_b.push_back(oracle_b.QueryMany(qs, spec));
  }
  auto same = [](const Engine::QueryResult& x, const Engine::QueryResult& y) {
    return x.nn == y.nn && x.ranked == y.ranked && x.ids == y.ids;
  };

  serve::QueryServer::Options options;
  options.num_threads = 4;
  options.pin_cpus = {0};  // CPU 0 always exists; failure degrades.
  for (const auto& spec : specs) options.warm.push_back(spec.type);
  serve::QueryServer server(pts_a, Engine::Config{}, options);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        size_t s = static_cast<size_t>(t + round) % specs.size();
        // Varying batch length: every pack boundary and ragged tail in
        // [1, 33] shows up across threads and rounds.
        size_t len = qs.size() - static_cast<size_t>(t * 4 + round) % 9;
        std::vector<Vec2> sub(qs.begin(), qs.begin() + len);
        auto results = test::BatchResults(server, sub, specs[s]);
        for (size_t i = 0; i < sub.size(); ++i) {
          if (!same(results[i], ans_a[s][i]) &&
              !same(results[i], ans_b[s][i])) {
            ++mismatches;
          }
        }
      }
    });
  }
  server.ReplaceDataset(pts_b);
  for (auto& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Settled: dataset B only, every type still scalar-oracle-identical.
  for (size_t s = 0; s < specs.size(); ++s) {
    auto results = test::BatchResults(server, qs, specs[s]);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_TRUE(same(results[i], ans_b[s][i]))
          << "type " << static_cast<int>(specs[s].type) << " query " << i;
    }
  }
}

TEST(QueryServerStress, SubmitRacingShutdownAnswersInline) {
  // Regression for the shutdown race: a Submit that lands after the
  // server's pool has flipped to stopping used to hard-abort in
  // ThreadPool::Post; it must instead run inline against the pinned
  // snapshot. The pool's workers are parked on a gate so the destructor
  // blocks mid-join with the queue refusing new tasks, while a second
  // thread keeps submitting; every future must still produce the oracle
  // answer.
  auto pts = workload::RandomDiscrete(16, 2, 105);
  Engine::QuerySpec spec{Engine::QueryType::kMostProbableNn, 0.5, 1};
  Engine oracle(pts, {});
  Vec2 q{0.25, -0.5};
  int want = oracle.MostProbableNn(q);

  constexpr int kWorkers = 2;
  auto server = std::make_unique<serve::QueryServer>(
      pts, Engine::Config{},
      serve::QueryServer::Options{
          .num_threads = kWorkers,
          .warm = {Engine::QueryType::kMostProbableNn}});

  std::atomic<int> gated{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < kWorkers; ++i) {
    server->pool().Post([&] {
      gated.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (gated.load() < kWorkers) std::this_thread::yield();

  // Queued before shutdown: these sit behind the gate and drain while the
  // destructor joins the workers.
  std::vector<std::future<serve::Response>> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(server->Submit({q, spec}));

  // unique_ptr::reset nulls its pointer before the (blocking) destructor
  // runs, so the racing submitter must address the object directly.
  serve::QueryServer* raw = server.get();
  std::atomic<bool> destroying{false};
  std::thread submitter([&] {
    while (!destroying.load()) std::this_thread::yield();
    // Give the destructor time to reach the pool teardown; submits that
    // still win the race simply enqueue and drain like the ones above.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<std::future<serve::Response>> racing;
    for (int i = 0; i < 32; ++i) racing.push_back(raw->Submit({q, spec}));
    release.store(true);  // Unpark the workers; the destructor finishes.
    for (auto& fut : racing) EXPECT_EQ(fut.get().result.nn, want);
  });

  destroying.store(true);
  server.reset();  // Blocks joining the gated workers until `release`.
  submitter.join();
  for (auto& fut : queued) EXPECT_EQ(fut.get().result.nn, want);
}

TEST(QueryServerStress, CacheHitsRacingSnapshotSwaps) {
  // The cache invalidation story under fire: clients hammer a small
  // repeated query set (high hit rate) while the main thread swaps the
  // dataset back and forth. Every response must match one of the two
  // datasets' oracles — a hit must never surface a result from the wrong
  // generation — and sources must be computed/cache only.
  auto pts_a = workload::RandomDiscrete(30, 3, 103);
  auto pts_b = workload::RandomDiscrete(36, 2, 104);
  auto qs = StressQueries(16);

  Engine::Config cfg;
  Engine oracle_a(pts_a, cfg);
  Engine oracle_b(pts_b, cfg);
  std::vector<int> ans_a, ans_b;
  for (Vec2 q : qs) {
    ans_a.push_back(oracle_a.MostProbableNn(q));
    ans_b.push_back(oracle_b.MostProbableNn(q));
  }

  serve::QueryServer::Options options;
  options.num_threads = 4;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts_a, cfg, options);

  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      serve::Request req;
      for (int i = 0; !stop.load(); ++i) {
        size_t j = (i + t * 5) % qs.size();
        req.q = qs[j];
        serve::Response r = server.Submit(req).get();
        if (r.source != serve::ResultSource::kComputed &&
            r.source != serve::ResultSource::kCache) {
          ++mismatches;
        }
        if (r.result.nn != ans_a[j] && r.result.nn != ans_b[j]) {
          ++mismatches;
        }
      }
    });
  }

  for (int swap = 0; swap < 6; ++swap) {
    server.ReplaceDataset(swap % 2 == 0 ? pts_b : pts_a);
  }
  // Let the clients reach steady state on the final generation: once a
  // hit lands, the cache has demonstrably served across the swap storm.
  while (server.stats().cache.hits == 0) std::this_thread::yield();
  stop.store(true);
  for (auto& th : clients) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  auto s = server.stats();
  EXPECT_EQ(s.swaps, 6u);
  EXPECT_EQ(server.generation(), 7u);
  EXPECT_GT(s.cache.hits, 0u);
}

TEST(QueryServerStress, ShedDeadlineAndComputedAccountingUnderOverload) {
  // Admission control under contention: clients submit with a mix of no
  // deadline, generous deadlines and already-expired deadlines against a
  // tiny in-flight limit. Every future must resolve, client-side tallies
  // by source must equal the server's counters after quiescing, and
  // nothing may race (TSan runs this).
  auto pts = workload::RandomDiscrete(24, 3, 106);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.max_inflight = 2;
  serve::QueryServer server(pts, {}, options);

  auto qs = StressQueries(20);
  constexpr int kPerThread = 120;
  std::atomic<uint64_t> computed{0}, shed{0}, deadline{0}, cached{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serve::Request req;
        req.q = qs[(i + t * 7) % qs.size()];
        req.priority = static_cast<serve::Priority>(i % 3);
        if (i % 5 == 3) {
          req.deadline = std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1);
        } else if (i % 5 == 4) {
          req.deadline = serve::DeadlineAfter(std::chrono::minutes(5));
        }
        switch (server.Submit(req).get().source) {
          case serve::ResultSource::kComputed:
            ++computed;
            break;
          case serve::ResultSource::kShed:
            ++shed;
            break;
          case serve::ResultSource::kDeadlineExceeded:
            ++deadline;
            break;
          case serve::ResultSource::kCache:
            ++cached;
            break;
          default:
            ADD_FAILURE() << "unexpected source";
        }
      }
    });
  }
  for (auto& th : clients) th.join();

  auto s = server.stats();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(s.queries, total);
  EXPECT_EQ(computed.load() + shed.load() + deadline.load() + cached.load(),
            total);
  EXPECT_EQ(s.shed, shed.load());
  EXPECT_EQ(s.deadline_exceeded, deadline.load());
  EXPECT_GE(s.deadline_exceeded, static_cast<uint64_t>(kThreads));
  // Answered requests (and only those) entered the histograms.
  uint64_t hist = 0;
  for (int t = 0; t < serve::kNumQueryTypes; ++t) {
    hist += s.latency_by_type[t].count;
  }
  EXPECT_EQ(hist, computed.load() + cached.load());
  // The cache is off in this config.
  EXPECT_EQ(cached.load(), 0u);
}

}  // namespace
}  // namespace unn

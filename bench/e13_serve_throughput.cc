// Experiment E13 — serving-layer throughput. Part 1: queries/sec of the
// pool-parallel QueryMany (ShardedEngine::QueryMany over one shard, which
// splits the pack into query blocks) at 1, 2, 4, 8 threads against the
// serial Engine::QueryMany,
// on a warmed Engine (MostProbableNn over a 10k-point / 10k-query
// discrete batch; spiral-search backend). Queries are read-only and
// independent, so the speedup should track the participant count up to
// the physical core count. Also reports the QueryServer batched path
// (snapshot load + pool split) to show the serving front end adds no
// measurable overhead. Part 2: data sharding — per-shard build +
// warm time and merged-query throughput at 1, 2, 4, 8 shards
// (ShardedEngine, round-robin); construction cost is reported per shard
// in the --json output so BENCH_*.json tracks build scaling, not just
// qps. Merged answers are exact re-quantifications, so they may
// legitimately differ from the single spiral-search estimator within
// eps; a sampled check against the exact oracle validates them.
// Part 3: the snapshot-keyed result cache under a Zipf-skewed request
// stream (the repeated-query traffic caches exist for): batch throughput
// with the cache off vs on, the steady-state hit rate, per-request
// p50/p99 latency split by Response::source, and a sampled check that
// cache hits are bit-identical to recomputation on the same snapshot.
// Part 4: observability overhead — the bare batch path vs the QueryServer
// with obs idle (gated at <= 5% by CI bench-smoke) vs tracing + profiling
// forced on; with --metrics <path> the obs-on server's Prometheus
// exposition is written as a CI artifact.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "baselines/brute_force.h"
#include "bench_util.h"
#include "engine/engine.h"
#include "obs/profile.h"
#include "serve/query_server.h"
#include "serve/sharding.h"
#include "serve/thread_pool.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e13");

  const int n = args.tiny ? 1000 : 10000;
  const int num_queries = args.tiny ? 1000 : 10000;
  printf("E13: parallel QueryMany throughput (n=%d discrete points, %d "
         "MostProbableNn queries, hardware threads=%u)\n",
         n, num_queries, std::thread::hardware_concurrency());

  auto pts = workload::RandomDiscrete(n, 3, /*seed=*/13, /*spread=*/4.0);
  auto queries = bench::RandomQueries(num_queries, 30, 113);
  auto engine = std::make_shared<const Engine>(pts, Engine::Config{});
  serve::ShardedEngine one_shard(engine);
  const Engine::QuerySpec spec{Engine::QueryType::kMostProbableNn, 0.5, 1};
  std::vector<serve::Request> requests;
  for (Vec2 q : queries) requests.push_back({q, spec});

  bench::Timer tw;
  engine->Warmup(spec);
  double warmup_ms = tw.Ms();
  printf("warmup (spiral search build): %.1f ms\n\n", warmup_ms);

  // Serial baseline: the Engine's own loop, no pool involved.
  bench::Timer ts;
  auto serial = engine->QueryMany(queries, spec);
  double serial_ms = ts.Ms();
  double serial_qps = num_queries / (serial_ms / 1000.0);

  printf("%8s %12s %14s %10s\n", "threads", "batch_ms", "queries_per_s",
         "speedup");
  printf("%8d %12.1f %14.0f %10.2f\n", 1, serial_ms, serial_qps, 1.0);
  json.StartRow();
  json.Metric("threads", 1);
  json.Metric("warmup_ms", warmup_ms);
  json.Metric("batch_ms", serial_ms);
  json.Metric("qps", serial_qps);
  json.Metric("speedup", 1.0);

  for (int threads : {2, 4, 8}) {
    // `threads` participants total: threads - 1 pool workers + the caller.
    serve::ThreadPool pool(threads - 1);
    // One untimed pass to let the OS place the worker threads.
    one_shard.QueryMany(queries, spec, &pool);
    bench::Timer tp;
    auto parallel = one_shard.QueryMany(queries, spec, &pool);
    double ms = tp.Ms();
    double qps = num_queries / (ms / 1000.0);
    // Answers must be bit-identical to the serial run.
    size_t mismatches = 0;
    for (size_t i = 0; i < serial.size(); ++i) {
      if (parallel[i].nn != serial[i].nn) ++mismatches;
    }
    printf("%8d %12.1f %14.0f %10.2f%s\n", threads, ms, qps, qps / serial_qps,
           mismatches ? "  MISMATCH" : "");
    json.StartRow();
    json.Metric("threads", threads);
    json.Metric("batch_ms", ms);
    json.Metric("qps", qps);
    json.Metric("speedup", qps / serial_qps);
    json.Metric("mismatches", static_cast<double>(mismatches));
  }

  // The full serving front end: snapshot load + warm + shard.
  {
    serve::QueryServer server(
        std::make_shared<const Engine>(pts, Engine::Config{}),
        {.num_threads = 7, .warm = {Engine::QueryType::kMostProbableNn}});
    server.QueryBatch(requests);  // Placement pass.
    bench::Timer tb;
    server.QueryBatch(requests);
    double ms = tb.Ms();
    double qps = num_queries / (ms / 1000.0);
    printf("\nQueryServer::QueryBatch (8 participants): %.1f ms, %.0f "
           "queries/s\n",
           ms, qps);
    json.StartRow();
    json.Metric("server_batch_ms", ms);
    json.Metric("server_qps", qps);
  }

  // Part 2: data sharding. Shard engines are built (and warmed) one by
  // one so construction cost is attributable per shard.
  printf("\nShardedEngine (round-robin, 8 query participants):\n");
  printf("%8s %14s %14s %14s %10s\n", "shards", "build_ms_max",
         "build_ms_total", "queries_per_s", "speedup");
  // The exact reference distribution is shard-independent: compute the
  // sampled oracle once, outside the shard sweep.
  const int sample = std::min(num_queries, 200);
  std::vector<std::vector<double>> exact_sample(sample);
  for (int i = 0; i < sample; ++i) {
    exact_sample[i] = baselines::QuantificationProbabilities(pts, queries[i]);
  }
  for (int shards : {1, 2, 4, 8}) {
    auto parts = serve::PartitionPoints(
        pts, {shards, serve::Partitioning::kRoundRobin});
    std::vector<std::shared_ptr<const Engine>> engines;
    std::vector<double> build_ms;
    for (const auto& ids : parts) {
      std::vector<core::UncertainPoint> subset;
      subset.reserve(ids.size());
      for (int gid : ids) subset.push_back(pts[gid]);
      bench::Timer tb;
      auto e = std::make_shared<const Engine>(std::move(subset),
                                              Engine::Config{});
      e->Warmup(spec);
      build_ms.push_back(tb.Ms());
      engines.push_back(std::move(e));
    }
    double build_total = 0.0, build_max = 0.0;
    for (double ms : build_ms) {
      build_total += ms;
      build_max = std::max(build_max, ms);
    }
    serve::ShardedEngine sharded(std::move(engines), std::move(parts));

    serve::ThreadPool pool(7);
    sharded.QueryMany(queries, spec, &pool);  // Placement pass.
    bench::Timer tq;
    auto merged = sharded.QueryMany(queries, spec, &pool);
    double ms = tq.Ms();
    double qps = num_queries / (ms / 1000.0);

    // Sampled exactness: the merged most-probable NN must be within
    // 2 eps of optimal under the exact distribution.
    size_t violations = 0;
    for (int i = 0; i < sample; ++i) {
      const auto& exact = exact_sample[i];
      double best = *std::max_element(exact.begin(), exact.end());
      if (merged[i].nn < 0 ||
          exact[merged[i].nn] < best - 2 * Engine::Config{}.eps) {
        ++violations;
      }
    }

    printf("%8d %14.1f %14.1f %14.0f %10.2f%s\n", shards, build_max,
           build_total, qps, qps / serial_qps,
           violations ? "  SAMPLED-CHECK-FAILED" : "");
    json.StartRow();
    json.Metric("shards", shards);
    json.Metric("shard_build_ms_total", build_total);
    json.Metric("shard_build_ms_max", build_max);
    for (size_t s = 0; s < build_ms.size(); ++s) {
      json.Metric("shard" + std::to_string(s) + "_build_ms", build_ms[s]);
    }
    json.Metric("sharded_batch_ms", ms);
    json.Metric("sharded_qps", qps);
    json.Metric("sharded_speedup", qps / serial_qps);
    // Per-query merged latency at this shard count: the number the
    // quantification index (E14) drives down by making the per-shard
    // envelope/survival hooks sublinear.
    json.Metric("sharded_query_latency_ms",
                ms / static_cast<double>(num_queries));
    json.Metric("sampled_violations", static_cast<double>(violations));
  }

  // Part 3: result cache under Zipf-skewed traffic.
  {
    const int universe = args.tiny ? 200 : 1000;
    const int stream_n = args.tiny ? 4000 : 20000;
    const double alpha = 1.0;
    auto zipf = workload::ZipfIndices(stream_n, universe, alpha, 77);
    std::vector<serve::Request> stream(stream_n);
    for (int i = 0; i < stream_n; ++i) {
      stream[i].q = queries[zipf[i]];
      stream[i].spec = spec;
    }
    printf("\nResult cache, Zipf(alpha=%.1f) stream (%d requests over %d "
           "distinct points):\n",
           alpha, stream_n, universe);

    serve::QueryServer::Options off;
    off.num_threads = 7;
    off.warm = {spec.type};
    serve::QueryServer::Options on = off;
    on.cache.max_bytes = 64u << 20;

    auto engine_ptr = std::make_shared<const Engine>(pts, Engine::Config{});

    serve::QueryServer no_cache(engine_ptr, off);
    no_cache.QueryBatch(stream);  // Placement pass.
    bench::Timer t_off;
    no_cache.QueryBatch(stream);
    double off_ms = t_off.Ms();

    serve::QueryServer cached(engine_ptr, on);
    bench::Timer t_cold;
    cached.QueryBatch(stream);  // Cold pass: every distinct point misses.
    double cold_ms = t_cold.Ms();
    auto mid = cached.stats();
    bench::Timer t_warm;
    auto warm_responses = cached.QueryBatch(stream);
    double warm_ms = t_warm.Ms();
    auto after = cached.stats();

    double warm_hits =
        static_cast<double>(after.cache.hits - mid.cache.hits);
    double hit_rate = warm_hits / stream_n;
    double speedup = off_ms / warm_ms;
    printf("  cache off: %.1f ms   cache cold: %.1f ms   cache warm: %.1f "
           "ms (hit rate %.3f, speedup %.2fx)\n",
           off_ms, cold_ms, warm_ms, hit_rate, speedup);

    // Per-request latency split by source, measured on the Submit path
    // of a fresh cache-enabled server (so the Zipf stream produces both
    // misses and hits); each future is awaited before the next submit,
    // so latencies are uncontended per-request costs, exact rather than
    // histogram-bucketed.
    serve::QueryServer probe_server(engine_ptr, on);
    const int probe_n = std::min(stream_n, args.tiny ? 1000 : 5000);
    std::vector<double> hit_us, computed_us;
    for (int i = 0; i < probe_n; ++i) {
      serve::Response r = probe_server.Submit(stream[i]).get();
      double us = static_cast<double>(r.latency.count());
      if (r.source == serve::ResultSource::kCache) {
        hit_us.push_back(us);
      } else if (r.source == serve::ResultSource::kComputed) {
        computed_us.push_back(us);
      }
    }
    auto pct = [](std::vector<double>& v, double p) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      size_t i = static_cast<size_t>(p * (v.size() - 1));
      return v[i];
    };
    double hit_p50 = pct(hit_us, 0.50), hit_p99 = pct(hit_us, 0.99);
    double comp_p50 = pct(computed_us, 0.50),
           comp_p99 = pct(computed_us, 0.99);
    printf("  submit latency: cache-hit p50 %.1f us / p99 %.1f us (%zu), "
           "computed p50 %.1f us / p99 %.1f us (%zu)\n",
           hit_p50, hit_p99, hit_us.size(), comp_p50, comp_p99,
           computed_us.size());

    // Bit-identity: a sampled prefix of warm-pass answers must equal a
    // fresh computation on the same snapshot, field for field.
    auto snap = cached.sharded_snapshot();
    size_t identity_mismatches = 0;
    const int identity_sample = std::min(stream_n, 200);
    for (int i = 0; i < identity_sample; ++i) {
      std::span<const Vec2> one(&stream[i].q, 1);
      Engine::QueryResult fresh = snap->QueryMany(one, spec)[0];
      const Engine::QueryResult& served = warm_responses[i].result;
      if (fresh.nn != served.nn || fresh.ranked != served.ranked ||
          fresh.ids != served.ids) {
        ++identity_mismatches;
      }
    }
    printf("  bit-identity sample (%d requests): %zu mismatches%s\n",
           identity_sample, identity_mismatches,
           identity_mismatches ? "  MISMATCH" : "");

    const auto& lat = after.latency(spec.type);
    json.StartRow();
    json.Metric("zipf_alpha", alpha);
    json.Metric("zipf_universe", universe);
    json.Metric("zipf_stream", stream_n);
    json.Metric("cache_off_ms", off_ms);
    json.Metric("cache_cold_ms", cold_ms);
    json.Metric("cache_warm_ms", warm_ms);
    json.Metric("cache_hit_rate", hit_rate);
    json.Metric("cache_speedup", speedup);
    json.Metric("cache_entries", static_cast<double>(after.cache.entries));
    json.Metric("cache_bytes", static_cast<double>(after.cache.bytes));
    json.Metric("hit_p50_us", hit_p50);
    json.Metric("hit_p99_us", hit_p99);
    json.Metric("computed_p50_us", comp_p50);
    json.Metric("computed_p99_us", comp_p99);
    json.Metric("server_hist_p50_us", lat.p50_us);
    json.Metric("server_hist_p99_us", lat.p99_us);
    json.Metric("identity_mismatches",
                static_cast<double>(identity_mismatches));
  }

  // Part 4: observability overhead. The obs layer's contract is that the
  // disabled mode costs nothing measurable: every span site is one null
  // test and every traversal hook one relaxed load. Three configurations
  // over the same warmed snapshot and query batch, best-of-R to shave
  // scheduler noise: the bare batch path with no serving front end
  // (baseline), the QueryServer with observability idle (obs off — the
  // default production shape; CI gates its overhead at <= 5%), and the
  // QueryServer with per-request tracing, the slow-query log and
  // traversal profiling all forced on (obs on — the debugging shape,
  // reported but ungated).
  {
    auto engine_ptr = std::make_shared<const Engine>(pts, Engine::Config{});
    engine_ptr->Warmup(spec);
    serve::ShardedEngine bare(engine_ptr);
    const int reps = 5;

    auto best_of = [&](auto&& run) {
      run();  // Placement pass.
      double best = -1.0;
      for (int r = 0; r < reps; ++r) {
        bench::Timer t;
        run();
        double ms = t.Ms();
        if (best < 0 || ms < best) best = ms;
      }
      return best;
    };

    serve::ThreadPool pool(7);
    double baseline_ms =
        best_of([&] { bare.QueryMany(queries, spec, &pool); });

    serve::QueryServer::Options off_opts;
    off_opts.num_threads = 7;
    off_opts.warm = {spec.type};
    serve::QueryServer obs_off(engine_ptr, off_opts);
    double off_ms = best_of([&] { obs_off.QueryBatch(requests); });

    serve::QueryServer::Options on_opts = off_opts;
    on_opts.slow_query_threshold = std::chrono::microseconds(1);
    serve::QueryServer obs_on(engine_ptr, on_opts);
    obs::EnableTraversalProfiling(true);
    double on_ms = best_of([&] { obs_on.QueryBatch(requests); });
    // Exercise the instrumented merge hooks so the dump below carries
    // traversal counters alongside the serving metrics.
    for (int i = 0; i < 32; ++i) {
      obs_on.sharded_snapshot()->shard(0).MaxDistEnvelope(queries[i]);
    }
    obs::EnableTraversalProfiling(false);

    double off_overhead = off_ms / baseline_ms;
    double on_overhead = on_ms / baseline_ms;
    printf("\nObservability overhead (best of %d, %d queries):\n", reps,
           num_queries);
    printf("  baseline (no server) %.1f ms   obs off %.1f ms (%.3fx)   "
           "obs on %.1f ms (%.3fx)\n",
           baseline_ms, off_ms, off_overhead, on_ms, on_overhead);
    json.StartRow();
    json.Metric("obs_baseline_ms", baseline_ms);
    json.Metric("obs_off_ms", off_ms);
    json.Metric("obs_on_ms", on_ms);
    json.Metric("obs_off_overhead", off_overhead);
    json.Metric("obs_on_overhead", on_overhead);
    json.Metric("slow_queries_logged",
                static_cast<double>(obs_on.SlowQueries().size()));

    bench::WriteMetricsDump(args.metrics_path, obs_on.DumpMetrics());
  }

  json.Write(args.json_path);
  return 0;
}

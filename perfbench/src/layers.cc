// The traced run: per-layer metrics, timed from outside each layer's
// public entry points (kernel -> Engine::QueryMany -> ShardedEngine ->
// QueryServer), with the benchmark's own spans around every call and the
// server's stage spans captured through Request::trace.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "core/expected_nn.h"
#include "core/monte_carlo_pnn.h"
#include "core/nn_nonzero_discrete_index.h"
#include "core/nn_nonzero_index.h"
#include "core/spiral_search.h"
#include "obs/trace.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "serve/sharding.h"
#include "workload/generators.h"
#include "workloads.h"

namespace pb {

namespace {

using unn::Engine;
using unn::obs::TraceContext;
using unn::serve::QueryServer;
using unn::serve::Request;
using unn::serve::Response;
using unn::serve::ResultSource;
using unn::serve::ShardedEngine;
using unn::spatial::BatchStats;

/// Median wall time of `reps` calls of `fn` after one untimed call, each
/// call recorded as a span named `name`.
double TimeMedian(SpanLog& log, const std::string& name, int reps,
                  const std::function<void()>& fn) {
  fn();
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    int span = log.Begin(name);
    double t0 = NowS();
    fn();
    t.push_back(NowS() - t0);
    log.End(span);
  }
  return Median(t);
}

/// The per-structure kernel metrics: time per query and pack counters.
void ReportKernel(MetricList& m, const std::string& k, double seconds, int nq,
                  const BatchStats* st) {
  m.Set("kernel." + k + ".us", seconds / nq * 1e6, "us");
  if (st == nullptr) return;
  m.Set("kernel." + k + ".lane_nodes", double(st->lane_nodes_visited) / nq, "count");
  m.Set("kernel." + k + ".lane_points", double(st->lane_points_evaluated) / nq, "count");
  m.Set("kernel." + k + ".replays", double(st->scalar_replays) / nq, "count");
  m.Set("kernel." + k + ".lane_utilization", st->LaneUtilization(), "ratio");
}

class TracedRun {
 public:
  TracedRun(const Workload& wl, const Args& args) : wl_(wl), args_(args) {}

  RunResult Run() {
    pts_ = MakePoints(wl_, args_.seed);
    const int nq = wl_.disk ? 32 : 256;
    queries_ = UniformQueries(pts_, nq, args_.seed * 7919 + 11);
    EngineLayer();
    KernelLayer();
    DispatchLayer();
    StartServer();
    ShardLayer();
    ServeLayer();
    Finish();
    return std::move(out_);
  }

 private:
  MetricList& m() { return out_.metrics; }
  QuerySpec Spec(QueryType t) const { return SpecOf(t); }
  std::string Name(QueryType t) const { return TypeName(t); }

  /// Per-type Warmup on a fresh Engine: build time and resident growth.
  void EngineLayer() {
    engine_ = std::make_shared<const Engine>(pts_, EngineConfig());
    for (QueryType t : kTypes) {
      double rss0 = StatusMb("VmRSS");
      int span = log_.Begin("engine.Warmup." + Name(t));
      double t0 = NowS();
      engine_->Warmup(Spec(t));
      m().Set("engine.build_s." + Name(t), NowS() - t0, "s");
      log_.End(span);
      m().Set("engine.rss_mb." + Name(t), StatusMb("VmRSS") - rss0, "MB");
    }
    m().Set("engine.structures_built", engine_->StructuresBuilt(), "count");
  }

  /// The kernel time of one type's pack, on the workload's own engine
  /// data: the probability substrate (spiral or Monte Carlo), the
  /// expected-distance tree, or the NN!=0 index.
  double KernelSeconds(QueryType t, BatchStats* st) {
    const std::string span = "kernel." + Name(t);
    switch (t) {
      case QueryType::kMostProbableNn:
      case QueryType::kTopK:
      case QueryType::kThreshold: {
        double eps = t == QueryType::kThreshold ? kTau / 2 : 0.0;
        if (st != nullptr) engine_->ProbabilitiesMany(queries_, eps, st);
        return TimeMedian(log_, span, 3, [&] { engine_->ProbabilitiesMany(queries_, eps); });
      }
      case QueryType::kExpectedDistanceNn: {
        std::vector<int> ids(queries_.size());
        if (st != nullptr) expected_nn_->QueryExpectedBatch(queries_, 1e-8, ids, st);
        return TimeMedian(log_, span, 3,
                          [&] { expected_nn_->QueryExpectedBatch(queries_, 1e-8, ids); });
      }
      case QueryType::kNonzeroNn:
        if (wl_.disk) {
          return TimeMedian(log_, span, 3, [&] {
            for (Vec2 q : queries_) nonzero_disk_->Query(q);
          });
        }
        if (st != nullptr) nonzero_discrete_->QueryBatch(queries_, st);
        return TimeMedian(log_, span, 3, [&] { nonzero_discrete_->QueryBatch(queries_); });
    }
    return 0;
  }

  /// The five kernels. Structures of the workload's own model run on its
  /// points; those of the other model on a small companion set drawn from
  /// the same seed (20k discrete points, or 300 disks), so every workload
  /// reports every kernel.
  void KernelLayer() {
    const int nq = static_cast<int>(queries_.size());
    expected_nn_ = std::make_unique<unn::core::ExpectedNn>(pts_);
    BatchStats st;
    double s = KernelSeconds(QueryType::kExpectedDistanceNn, &st);
    ReportKernel(m(), "expected_nn", s, nq, &st);

    if (wl_.disk) {
      nonzero_disk_ = std::make_unique<unn::core::NnNonzeroIndex>(pts_);
      ReportKernel(m(), "nonzero_disk", KernelSeconds(QueryType::kNonzeroNn, nullptr), nq, nullptr);
      st = {};
      s = KernelSeconds(QueryType::kMostProbableNn, &st);
      ReportKernel(m(), "monte_carlo", s, nq, &st);

      auto companion = unn::workload::RandomDiscrete(20000, 4, args_.seed);
      auto cq = UniformQueries(companion, 256, args_.seed + 1);
      unn::core::SpiralSearch spiral(companion);
      st = {};
      spiral.QueryBatch(cq, kEps, &st);
      s = TimeMedian(log_, "kernel.spiral", 3, [&] { spiral.QueryBatch(cq, kEps); });
      ReportKernel(m(), "spiral", s, 256, &st);
      unn::core::NnNonzeroDiscreteIndex nzd(companion);
      st = {};
      nzd.QueryBatch(cq, &st);
      s = TimeMedian(log_, "kernel.nonzero_discrete", 3, [&] { nzd.QueryBatch(cq); });
      ReportKernel(m(), "nonzero_discrete", s, 256, &st);
      return;
    }
    nonzero_discrete_ = std::make_unique<unn::core::NnNonzeroDiscreteIndex>(pts_);
    st = {};
    s = KernelSeconds(QueryType::kNonzeroNn, &st);
    ReportKernel(m(), "nonzero_discrete", s, nq, &st);
    st = {};
    s = KernelSeconds(QueryType::kMostProbableNn, &st);
    ReportKernel(m(), "spiral", s, nq, &st);

    auto companion = unn::workload::RandomDisks(300, args_.seed);
    auto cq = UniformQueries(companion, 32, args_.seed + 1);
    unn::core::NnNonzeroIndex nzi(companion);
    s = TimeMedian(log_, "kernel.nonzero_disk", 3, [&] {
      for (Vec2 q : cq) nzi.Query(q);
    });
    ReportKernel(m(), "nonzero_disk", s, 32, nullptr);
    unn::core::MonteCarloPnnOptions opts;
    opts.eps = kEps;
    opts.delta = kDelta;
    unn::core::MonteCarloPnn mc(companion, opts);
    st = {};
    mc.QueryBatch(cq, &st);
    s = TimeMedian(log_, "kernel.monte_carlo", 3, [&] { mc.QueryBatch(cq); });
    ReportKernel(m(), "monte_carlo", s, 32, &st);
  }

  /// Engine::QueryMany over the kernel it wraps, a pack of one, and the
  /// per-type scalar method.
  void DispatchLayer() {
    const double nq = static_cast<double>(queries_.size());
    const size_t single = wl_.disk ? 8 : 64;
    for (QueryType t : kTypes) {
      const QuerySpec spec = Spec(t);
      double kernel = KernelSeconds(t, nullptr);
      double many = TimeMedian(log_, "engine.QueryMany." + Name(t), 3, [&] {
        answers_[t] = engine_->QueryMany(queries_, spec);
      });
      m().Set("engine.dispatch_us." + Name(t), (many - kernel) / nq * 1e6, "us");
      double pack1 = TimeMedian(log_, "engine.QueryMany1." + Name(t), 3, [&] {
        for (size_t i = 0; i < single; ++i) engine_->QueryMany({&queries_[i], 1}, spec);
      });
      m().Set("engine.pack1_us." + Name(t), pack1 / single * 1e6, "us");
      // The scalar expected-distance method scans unpruned: few queries.
      const size_t scalar_n = t == QueryType::kExpectedDistanceNn ? 4 : single;
      double scalar = TimeMedian(log_, "engine.scalar." + Name(t), 3, [&] {
        for (size_t i = 0; i < scalar_n; ++i) Scalar(t, queries_[i]);
      });
      m().Set("engine.scalar_us." + Name(t), scalar / scalar_n * 1e6, "us");
    }
  }

  void Scalar(QueryType t, Vec2 q) {
    switch (t) {
      case QueryType::kMostProbableNn: engine_->MostProbableNn(q); break;
      case QueryType::kExpectedDistanceNn: engine_->ExpectedDistanceNn(q); break;
      case QueryType::kThreshold: engine_->Threshold(q, kTau); break;
      case QueryType::kTopK: engine_->TopK(q, kTopK); break;
      case QueryType::kNonzeroNn: engine_->NonzeroNn(q); break;
    }
  }

  void StartServer() {
    // The kernel-side structures are no longer needed.
    expected_nn_.reset();
    nonzero_discrete_.reset();
    nonzero_disk_.reset();
    if (wl_.shards == 1) {
      server_ = std::make_unique<QueryServer>(engine_, ServerOptions(wl_));
    } else {
      engine_.reset();
      server_ = std::make_unique<QueryServer>(pts_, EngineConfig(), ServerOptions(wl_));
    }
  }

  /// ShardedEngine::QueryMany (no pool) against the per-shard
  /// Engine::QueryMany calls it fans out, merge spans, candidate unions,
  /// and how many visited shards contribute to each answer.
  void ShardLayer() {
    auto snap = server_->sharded_snapshot();
    const double nq = static_cast<double>(queries_.size());
    std::vector<int> shard_of(snap->size());
    for (int s = 0; s < snap->num_shards(); ++s) {
      for (int gid : snap->global_ids(s)) shard_of[gid] = s;
    }
    double useful = 0, visited = 0;
    for (QueryType t : kTypes) {
      const QuerySpec spec = Spec(t);
      std::vector<QueryResult> results;
      double sharded = TimeMedian(log_, "shard.QueryMany." + Name(t), 3, [&] {
        results = snap->QueryMany(queries_, spec);
      });
      double per_shard = 0;
      for (int s = 0; s < snap->num_shards(); ++s) {
        per_shard += TimeMedian(log_, "shard.engine.QueryMany." + Name(t), 3,
                                [&] { snap->shard(s).QueryMany(queries_, spec); });
      }
      m().Set("shard.fanout_us." + Name(t), (sharded - per_shard) / nq * 1e6, "us");

      TraceContext ctx;
      const int64_t offset = log_.NowNs();
      int parent = log_.Begin("shard.QueryMany.traced." + Name(t));
      snap->QueryMany(queries_, spec, nullptr, {&ctx, -1});
      log_.End(parent);
      double merge_ns = 0;
      for (const auto& span : ctx.spans()) {
        if (std::string(span.name) == "merge") merge_ns += span.end_ns - span.start_ns;
      }
      log_.Import(ctx.spans(), parent, offset);
      m().Set("shard.merge_us." + Name(t), merge_ns / nq / 1e3, "us");

      double candidates = 0;
      for (int s = 0; s < snap->num_shards(); ++s) {
        const Engine& e = snap->shard(s);
        if (t == QueryType::kExpectedDistanceNn) {
          candidates += nq;  // One local winner per shard.
        } else if (t == QueryType::kNonzeroNn) {
          for (const auto& r : e.QueryMany(queries_, spec)) candidates += r.ids.size();
        } else {
          double eps = t == QueryType::kThreshold ? kTau / 2 : 0.0;
          for (const auto& p : e.ProbabilitiesMany(queries_, eps)) candidates += p.size();
        }
      }
      m().Set("shard.candidates." + Name(t), candidates / nq, "count");

      for (const QueryResult& r : results) {
        std::set<int> contributing;
        if (r.nn >= 0) contributing.insert(shard_of[r.nn]);
        for (auto [id, est] : r.ranked) contributing.insert(shard_of[id]);
        for (int id : r.ids) contributing.insert(shard_of[id]);
        useful += contributing.size();
        visited += snap->num_shards();
      }
    }
    m().Set("shard.useful_ratio", useful / visited, "ratio");

    int span = log_.Begin("shard.build");
    double t0 = NowS();
    {
      unn::serve::ShardingOptions sharding;
      sharding.num_shards = wl_.shards;
      sharding.partitioning = unn::serve::Partitioning::kSpatial;
      ShardedEngine fresh(pts_, EngineConfig(), sharding);
      for (QueryType t : kTypes) fresh.Warmup(Spec(t));
      m().Set("shard.build_s", NowS() - t0, "s");
    }
    log_.End(span);
  }

  /// One traced Submit: the server's stage spans land under a benchmark
  /// span. Returns the client-side latency.
  double TracedSubmit(const Request& base, Response* resp) {
    TraceContext ctx;
    const int64_t offset = log_.NowNs();
    Request req = base;
    req.trace = &ctx;
    int span = log_.Begin("serve.Submit");
    double t0 = NowS();
    *resp = server_->Submit(req).get();
    double dt = NowS() - t0;
    log_.End(span);
    depth_.push_back(server_->pool().queue_depth());
    auto spans = ctx.spans();
    int shard_visits = 0;
    for (const auto& s : spans) {
      const std::string name = s.name;
      if (name == "queue") queue_ns_.push_back(double(s.end_ns - s.start_ns));
      if (name == "shard_query") ++shard_visits;
    }
    if (resp->source == ResultSource::kComputed) visits_.push_back(shard_visits);
    log_.Import(spans, span, offset);
    return dt;
  }

  void ServeLayer() {
    QueryServer& server = *server_;
    auto snap = server.sharded_snapshot();
    unn::serve::ThreadPool* fan = snap->num_shards() > 1 ? &server.pool() : nullptr;

    // Submit against a direct sharded query on the client thread, over
    // the mix, each on its own fresh point (a cache miss; a point the
    // other path just answered would find its caches warm).
    std::vector<Vec2> fresh = UniformQueries(pts_, 4 * 2000, args_.seed * 101 + 13);
    size_t next = 0;
    const int rounds = wl_.disk ? 2 : 20;
    double submit_s = 0, direct_s = 0;
    for (int r = 0; r < rounds; ++r) {
      for (QueryType t : kMix) {
        Vec2 a = fresh[next++ % fresh.size()], b = fresh[next++ % fresh.size()];
        double t0 = NowS();
        snap->QueryMany({&a, 1}, Spec(t), fan);
        double t1 = NowS();
        server.Submit(Request{b, Spec(t)}).get();
        direct_s += t1 - t0;
        submit_s += NowS() - t1;
      }
    }
    const double n_single = rounds * kMix.size();
    m().Set("serve.overhead_us", (submit_s - direct_s) / n_single * 1e6, "us");

    // QueryBatch against Engine/ShardedEngine::QueryMany on the same pack.
    double batch_over = 0;
    for (QueryType t : kTypes) {
      std::vector<Request> reqs;
      for (Vec2 q : queries_) reqs.push_back({q, Spec(t)});
      double via_server = TimeMedian(log_, "serve.QueryBatch." + Name(t), 3,
                                     [&] { server.QueryBatch(reqs); });
      double direct = TimeMedian(log_, "shard.QueryMany." + Name(t), 3,
                                 [&] { snap->QueryMany(queries_, Spec(t)); });
      batch_over += (via_server - direct) / queries_.size();
    }
    m().Set("serve.batch_overhead_us", batch_over / kTypes.size() * 1e6, "us");

    // Tracing overhead: alternating blocks of untraced and traced misses,
    // after one untimed block, the order flipping every pair.
    double plain = 0, traced = 0;
    Response resp;
    const int block = wl_.disk ? 20 : 200;
    auto run_block = [&](bool with_trace) {
      double sum = 0;
      for (int i = 0; i < block; ++i) {
        Request req{fresh[next++ % fresh.size()], Spec(kMix[i % kMix.size()])};
        if (with_trace) {
          sum += TracedSubmit(req, &resp);
        } else {
          double t0 = NowS();
          server.Submit(req).get();
          sum += NowS() - t0;
        }
      }
      return sum;
    };
    run_block(false);
    for (int b = 0; b < 6; ++b) {
      const bool traced_first = b % 2 == 1;
      double first = run_block(traced_first);
      double second = run_block(!traced_first);
      plain += traced_first ? second : first;
      traced += traced_first ? first : second;
    }
    m().Set("obs.trace_overhead", traced / plain, "ratio");

    // The workload's own single-request stream, traced: the queue, the
    // cache and the shard visits as the workload sees them.
    auto before = server.stats().cache;
    std::vector<Vec2> stream_pool = UniformQueries(pts_, 4096, args_.seed * 31 + 3);
    std::vector<int> zipf = wl_.cache ? unn::workload::ZipfIndices(1 << 16, 4096, 1.2, args_.seed * 53 + 5)
                                      : std::vector<int>();
    const double end = NowS() + std::min(2.0, args_.seconds / 4);
    Checker checker(wl_.disk, args_.seed);
    for (int64_t i = 0; NowS() < end;) {
      for (QueryType t : kMix) {
        Vec2 q = wl_.cache ? stream_pool[zipf[i % zipf.size()]] : fresh[next++ % fresh.size()];
        Request req{q, Spec(t)};
        TracedSubmit(req, &resp);
        if (!resp.ok()) ++out_.failed;
        if (resp.source == ResultSource::kCache && i % 7 == 0) {
          checker.CheckCacheHit(resp.result, snap->QueryMany({&q, 1}, req.spec)[0]);
        }
        ++i;
        ++out_.attempted;
      }
    }
    auto after = server.stats().cache;
    const double lookups = double(after.hits + after.misses - before.hits - before.misses);
    m().Set("serve.queue_wait_us", Mean(queue_ns_) / 1e3, "us");
    m().Set("serve.cache_hit_ratio", lookups > 0 ? (after.hits - before.hits) / lookups : 0.0, "ratio");
    m().Set("serve.cache_evictions", double(after.evictions), "count");
    m().Set("serve.pool_queue_depth", Mean(depth_), "count");
    m().Set("shard.visited", Mean(visits_), "count");

    CacheLayer();

    // Write path: build beside the serving snapshot on the pool, then
    // publish the prebuilt set.
    std::vector<UncertainPoint> moved = Jitter(pts_, args_.seed * 977, 0.25);
    int span = log_.Begin("serve.replace_build");
    double t0 = NowS();
    unn::serve::ShardingOptions sharding;
    sharding.num_shards = wl_.shards;
    sharding.partitioning = unn::serve::Partitioning::kSpatial;
    auto built = std::make_shared<const ShardedEngine>(moved, EngineConfig(), sharding, &server.pool());
    for (QueryType t : kTypes) built->Warmup(Spec(t), &server.pool());
    m().Set("serve.replace_build_s", NowS() - t0, "s");
    log_.End(span);
    snap.reset();
    span = log_.Begin("serve.replace_publish");
    t0 = NowS();
    server.ReplaceShardedEngine(built);
    m().Set("serve.replace_publish_us", (NowS() - t0) * 1e6, "us");
    log_.End(span);
    ++out_.attempted;

    std::vector<double> dump;
    for (int i = 0; i < 5; ++i) {
      double d0 = NowS();
      server.DumpMetrics();
      dump.push_back(NowS() - d0);
    }
    m().Set("obs.dump_metrics_ms", Median(dump) * 1e3, "ms");

    // A few ladder answers against the reference, cache hits above, and
    // the self-test of every check.
    for (int i = 0; i < 4; ++i) {
      std::vector<std::pair<QuerySpec, QueryResult>> answers;
      for (QueryType t : kTypes) answers.push_back({Spec(t), answers_[t][i]});
      checker.Check(pts_, queries_[i], answers);
    }
    checker.Finish();
    out_.check_failures = checker.failures();
  }

  /// The result cache alone: insert and lookup cost of this workload's
  /// answers, at the serving budget.
  void CacheLayer() {
    unn::serve::ResultCache cache({.max_bytes = 64u << 20});
    std::vector<std::pair<unn::serve::CacheKey, const QueryResult*>> entries;
    for (QueryType t : kTypes) {
      for (size_t i = 0; i < queries_.size(); ++i) {
        entries.push_back({cache.Key(1, Spec(t), queries_[i]), &answers_[t][i]});
      }
    }
    int span = log_.Begin("serve.cache_insert");
    double t0 = NowS();
    for (const auto& [key, result] : entries) cache.Insert(key, *result);
    double insert = NowS() - t0;
    log_.End(span);
    QueryResult out;
    span = log_.Begin("serve.cache_lookup");
    t0 = NowS();
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& [key, result] : entries) cache.Lookup(key, &out);
    }
    double lookup = (NowS() - t0) / 4;
    log_.End(span);
    m().Set("serve.cache_lookup_us", lookup / entries.size() * 1e6, "us");
    m().Set("serve.cache_insert_us", insert / entries.size() * 1e6, "us");
  }

  void Finish() {
    const std::string path = kOutDir + "/trace-" + wl_.name + "-" +
                             std::to_string(args_.seed) + ".json";
    if (!log_.Write(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
    std::fprintf(stderr, "%zu spans written to %s; self time by span:\n", log_.size(), path.c_str());
    for (const auto& [name, row] : log_.SelfTimes()) {
      std::fprintf(stderr, "  %-36s n=%-7.0f total %12.1f us  self %12.1f us\n",
                   name.c_str(), row[0], row[1] / 1e3, row[2] / 1e3);
    }
  }

  static double Mean(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / v.size();
  }

  const Workload& wl_;
  const Args& args_;
  RunResult out_;
  SpanLog log_;
  std::vector<UncertainPoint> pts_;
  std::vector<Vec2> queries_;
  std::shared_ptr<const Engine> engine_;
  std::unique_ptr<unn::core::ExpectedNn> expected_nn_;
  std::unique_ptr<unn::core::NnNonzeroDiscreteIndex> nonzero_discrete_;
  std::unique_ptr<unn::core::NnNonzeroIndex> nonzero_disk_;
  std::map<QueryType, std::vector<QueryResult>> answers_;
  std::unique_ptr<QueryServer> server_;
  std::vector<double> queue_ns_, depth_, visits_;
};

}  // namespace

RunResult RunTraced(const Workload& wl, const Args& args, double /*t_start*/) {
  return TracedRun(wl, args).Run();
}

}  // namespace pb

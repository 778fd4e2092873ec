#include "serve/sharding.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "engine/query_contract.h"
#include "util/check.h"
#include "util/numa.h"

namespace unn {
namespace serve {

namespace {

/// Recursive kd-style splitter: hands `ids` out to `target` shards in
/// proportion, splitting by the median region center along the wider
/// axis. Appends each finished shard's id list to `out`.
void SpatialSplit(const std::vector<core::UncertainPoint>& points,
                  std::vector<int>* ids, size_t begin, size_t end, int target,
                  std::vector<std::vector<int>>* out) {
  if (target <= 1 || end - begin <= 1) {
    out->emplace_back(ids->begin() + begin, ids->begin() + end);
    return;
  }
  geom::Box box;
  for (size_t i = begin; i < end; ++i) {
    box.Expand(points[(*ids)[i]].Bounds().Center());
  }
  bool split_x = box.Width() >= box.Height();
  int left_target = target / 2;
  size_t mid = begin + (end - begin) * static_cast<size_t>(left_target) /
                           static_cast<size_t>(target);
  // lint:allow(kd-builder) data partitioner for shard assignment, not a
  // query index — kd *query* structures belong in src/spatial/ (PR 5).
  std::nth_element(ids->begin() + begin, ids->begin() + mid,
                   ids->begin() + end, [&](int a, int b) {
                     geom::Vec2 ca = points[a].Bounds().Center();
                     geom::Vec2 cb = points[b].Bounds().Center();
                     return split_x ? ca.x < cb.x : ca.y < cb.y;
                   });
  SpatialSplit(points, ids, begin, mid, left_target, out);
  SpatialSplit(points, ids, mid, end, target - left_target, out);
}

}  // namespace

std::vector<std::vector<int>> PartitionPoints(
    const std::vector<core::UncertainPoint>& points,
    const ShardingOptions& options) {
  UNN_CHECK_MSG(options.partitioning != Partitioning::kExternal,
                "kExternal marks assembled shard sets; pick a strategy");
  int n = static_cast<int>(points.size());
  int k = std::clamp(options.num_shards, 1, std::max(n, 1));
  std::vector<std::vector<int>> out;
  if (options.partitioning == Partitioning::kRoundRobin) {
    out.resize(k);
    for (int i = 0; i < n; ++i) out[i % k].push_back(i);
  } else {
    std::vector<int> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    SpatialSplit(points, &ids, 0, ids.size(), k, &out);
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const std::vector<int>& s) { return s.empty(); }),
            out.end());
  for (auto& shard : out) std::sort(shard.begin(), shard.end());
  return out;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(std::vector<core::UncertainPoint> points,
                             const Engine::Config& config,
                             const ShardingOptions& options,
                             ThreadPool* build_pool)
    : config_(config),
      options_(options),
      size_(static_cast<int>(points.size())) {
  UNN_CHECK(!points.empty());
  global_ids_ = PartitionPoints(points, options);
  engines_.resize(global_ids_.size());
  if (options_.numa_aware) {
    // Placement activates only when there is more than one node to place
    // across; a single-node machine (the common CI container) stays on
    // the exact NUMA-oblivious code path.
    util::NumaTopology topo = util::DetectNumaTopology();
    if (topo.num_nodes() > 1) {
      shard_nodes_.resize(global_ids_.size());
      shard_cpus_.resize(global_ids_.size());
      for (size_t s = 0; s < global_ids_.size(); ++s) {
        shard_nodes_[s] = static_cast<int>(s) % topo.num_nodes();
        shard_cpus_[s] = topo.node_cpus[shard_nodes_[s]];
      }
    }
  }
  ForEachShard(build_pool, [&](int s) {
    // With active placement, pin the building thread to the shard's node
    // for the build so first-touch allocation lands there; restore the
    // thread's affinity afterwards (build pools are shared). A failed pin
    // just builds unplaced — placement never affects the result.
    std::vector<int> saved;
    bool pinned = false;
    if (!shard_cpus_.empty()) {
      saved = util::CurrentThreadCpus();
      pinned = util::PinCurrentThreadToCpus(shard_cpus_[s]);
    }
    std::vector<core::UncertainPoint> subset;
    subset.reserve(global_ids_[s].size());
    for (int gid : global_ids_[s]) subset.push_back(points[gid]);
    engines_[s] = std::make_shared<const Engine>(std::move(subset), config_);
    if (pinned && !saved.empty()) util::PinCurrentThreadToCpus(saved);
  });
  views_.reserve(engines_.size());
  for (size_t s = 0; s < engines_.size(); ++s) {
    views_.push_back({engines_[s].get(), &global_ids_[s]});
  }
}

ShardedEngine::ShardedEngine(
    std::vector<std::shared_ptr<const Engine>> shard_engines,
    std::vector<std::vector<int>> shard_global_ids)
    : engines_(std::move(shard_engines)),
      global_ids_(std::move(shard_global_ids)) {
  UNN_CHECK(!engines_.empty());
  UNN_CHECK(engines_.size() == global_ids_.size());
  size_ = 0;
  for (size_t s = 0; s < engines_.size(); ++s) {
    UNN_CHECK(engines_[s] != nullptr);
    UNN_CHECK(engines_[s]->size() ==
              static_cast<int>(global_ids_[s].size()));
    size_ += engines_[s]->size();
  }
  // The id lists must partition [0, size_).
  std::vector<bool> seen(size_, false);
  for (const auto& gids : global_ids_) {
    for (int gid : gids) {
      UNN_CHECK_MSG(gid >= 0 && gid < size_ && !seen[gid],
                    "shard ids must partition [0, total)");
      seen[gid] = true;
    }
  }
  config_ = engines_[0]->config();
  options_.num_shards = static_cast<int>(engines_.size());
  options_.partitioning = Partitioning::kExternal;
  views_.reserve(engines_.size());
  for (size_t s = 0; s < engines_.size(); ++s) {
    views_.push_back({engines_[s].get(), &global_ids_[s]});
  }
}

ShardedEngine::ShardedEngine(std::shared_ptr<const Engine> engine) {
  UNN_CHECK(engine != nullptr);
  size_ = engine->size();
  config_ = engine->config();
  options_.num_shards = 1;
  options_.partitioning = Partitioning::kExternal;
  global_ids_.emplace_back(size_);
  std::iota(global_ids_[0].begin(), global_ids_[0].end(), 0);
  engines_.push_back(std::move(engine));
  views_.push_back({engines_[0].get(), &global_ids_[0]});
}

// ---------------------------------------------------------------------------
// Fan-out plumbing
// ---------------------------------------------------------------------------

void ShardedEngine::ForEachShard(ThreadPool* pool,
                                 const std::function<void(int)>& fn,
                                 obs::TraceNode trace) const {
  size_t shards = engines_.size();
  auto run = [&](int s) {
    // One span per shard visit; a null trace context makes this a
    // pointer test (the disabled-tracing contract of obs/trace.h).
    obs::ScopedSpan span(trace, "shard_query", s);
    fn(s);
  };
  if (pool == nullptr || shards <= 1) {
    for (size_t s = 0; s < shards; ++s) run(static_cast<int>(s));
    return;
  }
  pool->ParallelFor(shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) run(static_cast<int>(s));
  });
}

int ShardedEngine::StructuresBuilt() const {
  int total = 0;
  for (const auto& e : engines_) total += e->StructuresBuilt();
  return total;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::vector<Engine::QueryResult> ShardedEngine::QueryMany(
    std::span<const geom::Vec2> queries, const Engine::QuerySpec& spec,
    ThreadPool* pool, obs::TraceNode trace) const {
  if (pool != nullptr && queries.size() > 1) {
    // A pack spreads across the pool by queries: contiguous blocks, each
    // visiting the shards serially (no nested fan-out), so a large batch
    // saturates the pool. Answers are per-query and independent of the
    // block boundaries, so results[i] matches the serial pack exactly.
    std::vector<Engine::QueryResult> results(queries.size());
    pool->ParallelFor(queries.size(), [&](size_t begin, size_t end) {
      auto block =
          QueryMany(queries.subspan(begin, end - begin), spec, nullptr, trace);
      std::move(block.begin(), block.end(), results.begin() + begin);
    });
    return results;
  }
  if (num_shards() == 1) {
    // Single shard: delegate wholesale (ids still need the global map).
    obs::ScopedSpan span(trace, "shard_query", 0);
    auto results = engines_[0]->QueryMany(queries, spec);
    const std::vector<int>& gids = global_ids_[0];
    for (auto& r : results) {
      if (r.nn >= 0) r.nn = gids[r.nn];
      for (auto& [id, pi] : r.ranked) id = gids[id];
      for (int& id : r.ids) id = gids[id];
    }
    return results;
  }
  // A single query (pool given) fans out across the shards on the pool;
  // otherwise the shards are visited serially. Same definition-level
  // contract as Engine::QueryMany, from the shared definition.
  return query_contract::Answer(
      queries, spec, size_,
      [&](std::span<const geom::Vec2> pack) {
        std::vector<std::vector<std::pair<int, double>>> probs;
        for (auto& merged : MergedProbabilitiesMany(pack, 0.0, pool, trace)) {
          probs.push_back(std::move(merged.probs));
        }
        return probs;
      },
      [&](std::span<const geom::Vec2> pack) {
        return FanOut(pack, spec, pool, trace);
      });
}

std::vector<MergedProbabilities> ShardedEngine::MergedProbabilitiesMany(
    std::span<const geom::Vec2> queries, double eps_needed, ThreadPool* pool,
    obs::TraceNode trace) const {
  size_t shards = engines_.size();
  std::vector<std::vector<std::vector<std::pair<int, double>>>> local(shards);
  std::vector<std::vector<core::DeltaEnvelope>> env(shards);
  {
    obs::ScopedSpan fan(trace, "shard_fanout",
                        static_cast<std::int64_t>(shards));
    ForEachShard(
        pool,
        [&](int s) {
          local[s] = engines_[s]->ProbabilitiesMany(queries, eps_needed);
          env[s].resize(queries.size());
          engines_[s]->MaxDistEnvelopeMany(queries, env[s]);
        },
        fan.node());
  }
  obs::ScopedSpan merge(trace, "merge");
  double eps = eps_needed > 0 ? std::min(eps_needed, config_.eps) : config_.eps;
  std::vector<MergedProbabilities> out(queries.size());
  std::vector<std::vector<std::pair<int, double>>> q_local(shards);
  std::vector<core::DeltaEnvelope> q_env(shards);
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t s = 0; s < shards; ++s) {
      q_local[s] = std::move(local[s][i]);
      q_env[s] = env[s][i];
    }
    out[i] = MergeProbabilities(views_, q_local, q_env, queries[i], config_,
                                eps);
  }
  return out;
}

std::vector<Engine::QueryResult> ShardedEngine::FanOut(
    std::span<const geom::Vec2> queries, const Engine::QuerySpec& spec,
    ThreadPool* pool, obs::TraceNode trace) const {
  // The whole pack visits each shard once, through the shard Engine's
  // batched kernels, and merges per query.
  size_t shards = engines_.size();
  std::vector<Engine::QueryResult> results(queries.size());
  switch (spec.type) {
    case Engine::QueryType::kMostProbableNn:
    case Engine::QueryType::kThreshold:
    case Engine::QueryType::kTopK: {
      // Candidate-union re-quantification; the exact re-quantifier
      // reports the exact set {pi >= tau}, the Monte-Carlo fallback keeps
      // the no-false-negative slack, like Engine.
      auto merged = MergedProbabilitiesMany(
          queries, query_contract::EpsNeeded(spec), pool, trace);
      for (size_t i = 0; i < queries.size(); ++i) {
        results[i] = query_contract::FinishProbabilityQuery(
            std::move(merged[i].probs), spec, merged[i].requantified_exactly,
            config_.eps);
      }
      break;
    }
    case Engine::QueryType::kExpectedDistanceNn: {
      std::vector<std::vector<ExpectedCandidate>> cand(
          queries.size(), std::vector<ExpectedCandidate>(shards));
      {
        obs::ScopedSpan fan(trace, "shard_fanout",
                            static_cast<std::int64_t>(shards));
        ForEachShard(
            pool,
            [&](int s) {
              auto local = engines_[s]->QueryMany(queries, spec);
              for (size_t i = 0; i < queries.size(); ++i) {
                int lid = local[i].nn;
                cand[i][s] = {global_ids_[s][lid],
                              engines_[s]->ExpectedDistance(lid, queries[i])};
              }
            },
            fan.node());
      }
      obs::ScopedSpan merge(trace, "merge");
      for (size_t i = 0; i < queries.size(); ++i) {
        results[i].nn = MergeExpected(cand[i]);
      }
      break;
    }
    case Engine::QueryType::kNonzeroNn: {
      std::vector<std::vector<Engine::QueryResult>> local(shards);
      std::vector<std::vector<core::DeltaEnvelope>> env(shards);
      {
        obs::ScopedSpan fan(trace, "shard_fanout",
                            static_cast<std::int64_t>(shards));
        ForEachShard(
            pool,
            [&](int s) {
              local[s] = engines_[s]->QueryMany(queries, spec);
              env[s].resize(queries.size());
              engines_[s]->MaxDistEnvelopeMany(queries, env[s]);
            },
            fan.node());
      }
      obs::ScopedSpan merge(trace, "merge");
      std::vector<std::vector<int>> q_local(shards);
      std::vector<core::DeltaEnvelope> q_env(shards);
      for (size_t i = 0; i < queries.size(); ++i) {
        for (size_t s = 0; s < shards; ++s) {
          q_local[s] = std::move(local[s][i].ids);
          q_env[s] = env[s][i];
        }
        results[i].ids = MergeNonzero(views_, q_local, q_env, queries[i]);
      }
      break;
    }
  }
  return results;
}

void ShardedEngine::Warmup(Engine::QueryType type, ThreadPool* pool) const {
  Warmup(Engine::QuerySpec{type, 0.5, 1}, pool);
}

namespace {

/// True when the multi-shard merge for `spec` consults the per-shard
/// envelope hook (Engine::MaxDistEnvelope) at query time: every
/// non-degenerate type except the expected-distance min-merge. Degenerate
/// specs (k <= 0, tau > 1 or NaN) are answered definition-level without
/// touching any shard, so warming them must stay build-free too.
bool MergeConsultsEnvelope(const Engine::QuerySpec& spec) {
  switch (spec.type) {
    case Engine::QueryType::kExpectedDistanceNn:
      return false;
    case Engine::QueryType::kTopK:
      return spec.k > 0;
    case Engine::QueryType::kThreshold:
      return spec.tau <= 1;  // NaN-safe: !(tau <= 1) builds nothing.
    default:
      return true;
  }
}

}  // namespace

void ShardedEngine::Warmup(const Engine::QuerySpec& spec,
                           ThreadPool* pool) const {
  // Engine::Warmup builds what the per-shard queries need; a multi-shard
  // merge additionally calls the per-shard quantification hooks
  // (MaxDistEnvelope / SurvivalProbability), so their index must be warm
  // as well or serving traffic would build it. The probe point is
  // irrelevant: which structures get built never depends on q.
  bool warm_hooks = num_shards() > 1 && MergeConsultsEnvelope(spec);
  ForEachShard(pool, [&](int s) {
    engines_[s]->Warmup(spec);
    if (warm_hooks) engines_[s]->MaxDistEnvelope({0, 0});
  });
}

}  // namespace serve
}  // namespace unn

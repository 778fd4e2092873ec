#ifndef UNN_SERVE_SHARDING_H_
#define UNN_SERVE_SHARDING_H_

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "obs/trace.h"
#include "serve/shard_merge.h"
#include "serve/thread_pool.h"

/// \file sharding.h
/// Data partitioning for the serving layer: a ShardedEngine splits one
/// uncertain point set across K independent Engines (shards), answers
/// every Engine query type through one batched QueryMany — fanning each
/// pack out to all shards and recombining the per-shard answers with the
/// merge semantics of shard_merge.h, in parallel across a pool when given
/// one. This is the first cross-structure
/// answer-recombination seam — the same decomposition a multi-node
/// deployment would use, exercised here inside one process.
///
/// Ids are GLOBAL throughout the public API: a ShardedEngine over
/// `points` answers with the same ids as an Engine over `points`.
///
/// Exactness (details in docs/QUERY_SEMANTICS.md): NonzeroNn and
/// ExpectedDistanceNn merges are always exact. The probability queries
/// (MostProbableNn / Threshold / TopK) are exact whenever the shard
/// backend reports complete candidate sets (kBruteForce and the index
/// families that fall back to it) and the candidate union is
/// model-homogeneous; with estimator shard backends the union may omit
/// points of probability below Config::eps (candidate-merge
/// approximation), and mixed-model unions are re-quantified by Monte
/// Carlo within eps.
///
/// Thread safety: a ShardedEngine is immutable after construction and
/// every const query method may be called from any number of threads
/// concurrently (the shards are thread-safe Engines and the merge layer
/// is stateless). Passing the same ThreadPool to concurrent calls is
/// also safe. Warmup warms every shard so serving traffic builds
/// nothing.

namespace unn {
namespace serve {

/// How points are assigned to shards.
enum class Partitioning {
  /// Point i goes to shard i mod K: balanced sizes, no locality — every
  /// shard sees a thinned copy of the whole distribution, so per-shard
  /// candidate sets stay small everywhere.
  kRoundRobin,
  /// Kd-style splits: recursively split the points by the median of
  /// their region centers along the wider axis, in proportion to the
  /// shard counts of each side. Spatially local shards — distant shards
  /// prune to near-empty candidate sets for most queries.
  kSpatial,
  /// Not a strategy PartitionPoints accepts: reported by
  /// ShardedEngine::options() for shard sets assembled from prebuilt
  /// engines, where the partitioner is the caller's and unknown here.
  kExternal,
};

struct ShardingOptions {
  /// Requested shard count; clamped to [1, n]. Shards are never empty —
  /// requesting more shards than points yields n singleton shards.
  int num_shards = 1;
  Partitioning partitioning = Partitioning::kRoundRobin;
  /// Off by default. When true, shard s is assigned to NUMA node
  /// s % num_nodes (util::DetectNumaTopology), the building thread pins
  /// itself to that node's CPUs for the duration of shard s's Engine
  /// build so first-touch allocation lands on the node, and shard_node /
  /// shard_cpus report the assignment so callers can co-locate each
  /// shard's workers (ThreadPool::Options::pin_cpus) next to its data.
  /// On a single-node machine (or without topology information) this is
  /// a complete no-op: nothing is pinned, shard_cpus is empty, and every
  /// answer is bit-identical either way — placement only moves memory,
  /// never arithmetic.
  bool numa_aware = false;
};

/// Assigns every point index in [0, points.size()) to exactly one shard;
/// returns per-shard sorted global-id lists, empty lists dropped. Pure
/// function, deterministic for fixed input. O(n) for round-robin,
/// O(n log n) for spatial.
std::vector<std::vector<int>> PartitionPoints(
    const std::vector<core::UncertainPoint>& points,
    const ShardingOptions& options);

class ShardedEngine {
 public:
  /// Partitions `points` per `options` and builds one Engine per shard,
  /// every shard with the same `config`. When `build_pool` is given the
  /// shard builds run on the pool in parallel (plus the calling thread).
  ShardedEngine(std::vector<core::UncertainPoint> points,
                const Engine::Config& config, const ShardingOptions& options,
                ThreadPool* build_pool = nullptr);

  /// Assembles a shard set from prebuilt engines: `shard_global_ids[s][j]`
  /// is the global id of shard s's local point j. The id lists must
  /// partition [0, total); engines must be non-null and non-empty. Used
  /// to wrap caller-built engines and by benchmarks that time shard
  /// builds individually.
  ShardedEngine(std::vector<std::shared_ptr<const Engine>> shard_engines,
                std::vector<std::vector<int>> shard_global_ids);

  /// Wraps one prebuilt engine as a single-shard set (ids are identity).
  /// Queries delegate directly to the engine — zero merge overhead.
  explicit ShardedEngine(std::shared_ptr<const Engine> engine);

  // Not copyable/movable: the internal shard views point into this
  // object. Share a ShardedEngine via shared_ptr (as QueryServer does).
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Query surface (global ids) --------------------------------------

  /// Batched entry point with Engine::QueryMany's contract
  /// (engine/query_contract.h: empty span, k <= 0, tau outside (0, 1] and
  /// non-finite query points are answered definition-level without
  /// touching any shard backend), merged per query type:
  ///   * kMostProbableNn — argmax of the candidate-union
  ///     re-quantification, ties toward the smaller global id;
  ///   * kExpectedDistanceNn — min-merge of the per-shard winners; exact
  ///     up to quadrature tolerance;
  ///   * kThreshold — all i whose pi_i(q) may reach tau, sorted by
  ///     decreasing estimate. No false negatives: a point with global
  ///     probability >= tau has local probability >= tau on its shard
  ///     (fewer competitors can only increase pi), so it survives
  ///     candidate generation at accuracy tau/2 and the re-quantified
  ///     estimate keeps it;
  ///   * kTopK — the k largest merged pi_i(q); near-ties within the
  ///     backend accuracy may permute;
  ///   * kNonzeroNn — sorted global ids; exact for every shard backend
  ///     (union filtered by the merged Delta envelope).
  ///
  /// Without a pool the pack visits each shard once, serially, through
  /// the shard Engine's batched kernels, and merges per query. With a
  /// pool the pack size picks the parallel axis: a single query fans out
  /// across the shards on the pool (the low-latency Submit path), and a
  /// larger pack splits into contiguous query blocks across the pool
  /// (plus the calling thread), each block visiting the shards serially.
  /// Either way every answer is bit-identical to the serial pack.
  ///
  /// The trailing `trace` node opts one call into request tracing: when
  /// its context is non-null the fan-out records "shard_fanout" /
  /// "shard_query" (tagged with the shard index) / "merge" spans under it.
  /// The default (null) node costs one pointer test per span site.
  /// Const and thread-safe.
  std::vector<Engine::QueryResult> QueryMany(
      std::span<const geom::Vec2> queries, const Engine::QuerySpec& spec,
      ThreadPool* pool = nullptr, obs::TraceNode trace = {}) const;

  /// Warms every shard for the given query type / spec (in parallel on
  /// `pool` when given) so no serving query pays a structure build —
  /// including the per-shard quantification index behind the merge hooks
  /// (MaxDistEnvelope / SurvivalProbability) when the merge for `spec`
  /// consults them. Idempotent and thread-safe, like Engine::Warmup.
  void Warmup(Engine::QueryType type, ThreadPool* pool = nullptr) const;
  void Warmup(const Engine::QuerySpec& spec, ThreadPool* pool = nullptr) const;

  // --- Introspection (all O(1) unless noted, immutable, thread-safe) ---

  /// Total points across all shards.
  int size() const { return size_; }
  /// Actual shard count (= min(requested, n); empty shards are dropped).
  int num_shards() const { return static_cast<int>(engines_.size()); }
  /// Shard s's engine (local ids). O(1).
  const Engine& shard(int s) const { return *engines_[s]; }
  /// Shard s's engine as an owning pointer (shareable snapshot). O(1).
  std::shared_ptr<const Engine> shard_ptr(int s) const { return engines_[s]; }
  /// Shard s's local-to-global id map: global_ids(s)[j] is the dataset id
  /// of shard s's local point j. O(1).
  const std::vector<int>& global_ids(int s) const { return global_ids_[s]; }
  /// The per-shard Engine config (identical across shards). O(1).
  const Engine::Config& config() const { return config_; }
  /// The partitioning this shard set was built with.
  const ShardingOptions& options() const { return options_; }
  /// NUMA node shard s was placed on; 0 when placement is inactive
  /// (numa_aware off, assembled shard sets, or a single-node machine).
  /// O(1).
  int shard_node(int s) const {
    return shard_nodes_.empty() ? 0 : shard_nodes_[s];
  }
  /// CPUs of shard s's node, for co-locating its workers
  /// (ThreadPool::Options::pin_cpus); empty when placement is inactive.
  /// O(1).
  const std::vector<int>& shard_cpus(int s) const {
    static const std::vector<int> kNone;
    return shard_cpus_.empty() ? kNone : shard_cpus_[s];
  }
  /// Sum of Engine::StructuresBuilt over the shards — observability for
  /// tests and serving metrics. O(K).
  int StructuresBuilt() const;

 private:
  /// Runs fn(s) for every shard index s, on `pool` (plus the calling
  /// thread) when given, serially otherwise. When `trace` is live each
  /// call is wrapped in a "shard_query" span tagged with s.
  void ForEachShard(ThreadPool* pool, const std::function<void(int)>& fn,
                    obs::TraceNode trace = {}) const;
  /// Per-shard candidate generation for the whole pack (the shards'
  /// ProbabilitiesMany at `eps_needed` plus their envelopes, fanned out
  /// on `pool` when given), then the candidate-union re-quantification
  /// per query. Multi-shard sets only.
  std::vector<MergedProbabilities> MergedProbabilitiesMany(
      std::span<const geom::Vec2> queries, double eps_needed,
      ThreadPool* pool, obs::TraceNode trace) const;
  /// QueryMany's multi-shard dispatch for a kRegular spec over finite
  /// queries: one visit per shard for the pack, then the per-type merge.
  std::vector<Engine::QueryResult> FanOut(std::span<const geom::Vec2> queries,
                                          const Engine::QuerySpec& spec,
                                          ThreadPool* pool,
                                          obs::TraceNode trace) const;

  std::vector<std::shared_ptr<const Engine>> engines_;
  std::vector<std::vector<int>> global_ids_;
  std::vector<ShardView> views_;  // Parallel to engines_/global_ids_.
  Engine::Config config_;
  ShardingOptions options_;
  /// Active NUMA placement (numa_aware on a multi-node machine): per-shard
  /// node index and that node's CPU list. Both empty when inactive.
  std::vector<int> shard_nodes_;
  std::vector<std::vector<int>> shard_cpus_;
  int size_ = 0;
};

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_SHARDING_H_

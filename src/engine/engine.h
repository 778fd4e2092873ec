#ifndef UNN_ENGINE_ENGINE_H_
#define UNN_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>  // std::once_flag; locks come from util/thread_annotations.h
#include <span>
#include <utility>
#include <vector>

#include "core/expected_nn.h"
#include "core/linf_nonzero_index.h"
#include "core/monte_carlo_pnn.h"
#include "core/nn_nonzero_discrete_index.h"
#include "core/nn_nonzero_index.h"
#include "core/nonzero_voronoi.h"
#include "core/nonzero_voronoi_discrete.h"
#include "core/quant_tree.h"
#include "core/spiral_search.h"
#include "core/uncertain_point.h"
#include "geom/vec2.h"
#include "spatial/batch.h"
#include "util/thread_annotations.h"

/// \file engine.h
/// The unified query facade over every index family in the library. An
/// Engine owns one uncertain point set and answers all the query types of
/// the paper (and its companions) behind a single API:
///
///   * MostProbableNn   — argmax_i pi_i(q) (quantification probabilities,
///                        Section 4);
///   * ExpectedDistanceNn — argmin_i E[d(q, P_i)] ([AESZ12] Section 1.2);
///   * Threshold        — all i whose pi_i(q) may reach tau ([DYM+05]);
///   * TopK             — the k most probable NNs ([BSI08]);
///   * NonzeroNn        — NN!=0(q), the support of the quantification
///                        distribution (Sections 2/3).
///
/// `Engine::Config` selects a backend (index family) and an accuracy; the
/// default `Backend::kAuto` picks the strongest structure the input model
/// admits per query. Structures are built lazily on first use and cached,
/// so an Engine that only ever answers NonzeroNn never pays for
/// Monte-Carlo preprocessing.
///
/// Thread safety: every `const` query method may be called from any number
/// of threads concurrently. The lazy structure cache is synchronized
/// (`std::call_once` for the fixed structures, a shared-mutex-guarded
/// snapshot for the accuracy-keyed estimators), so concurrent first
/// queries build each structure exactly once. `Warmup` builds the
/// structures a query type needs eagerly, which serving layers call when
/// they publish a snapshot so no query pays the build; see `src/serve/`
/// for the thread pool, data sharding (ShardedEngine merges per-shard
/// answers via the hooks below and spreads large packs across the pool),
/// and QueryServer built on top of this guarantee.

namespace unn {

/// Which index family serves the queries. Families that do not natively
/// implement a requested query type fall back as documented on each query
/// method; the fallback is always exact (the definition-level oracle).
enum class Backend {
  kAuto,           ///< Strongest structure for the input model (default).
  kBruteForce,     ///< Definition-level O(n)-per-query oracle; exact.
  kExpectedNn,     ///< core::ExpectedNn branch-and-bound tree.
  kSpiralSearch,   ///< Theorem 4.7 prefix evaluation (+ Theorem 4.5
                   ///< discretization for continuous/mixed inputs).
  kMonteCarlo,     ///< Theorem 4.3/4.5 instantiation sampling.
  kNonzeroVoronoi, ///< V!=0 diagram + point location (Theorems 2.5/2.14).
  kNonzeroIndex,   ///< Two-stage near-linear index (Theorems 3.1/3.2).
  kLinfIndex,      ///< L_inf variant of Theorem 3.1 (Remark ii); queries
                   ///< use the Chebyshev metric over derived squares.
};

class Engine {
 public:
  struct Config {
    Backend backend = Backend::kAuto;
    /// Accuracy of probabilistic estimates (spiral search / Monte Carlo):
    /// every reported hat-pi is within eps of the true pi.
    double eps = 0.05;
    /// Monte-Carlo failure probability (Theorem 4.3).
    double delta = 0.05;
    /// Quadrature tolerance for exact disk-model integrals.
    double tol = 1e-8;
    /// Seed for every randomized structure.
    uint64_t seed = 0xC0FFEE;
    /// Overrides the Theorem 4.3 Monte-Carlo sample count when > 0.
    int mc_samples_override = 0;
  };

  /// The query types QueryMany can batch.
  enum class QueryType {
    kMostProbableNn,
    kExpectedDistanceNn,
    kThreshold,
    kTopK,
    kNonzeroNn,
  };

  /// One batched request: the type plus its parameter (tau for threshold,
  /// k for top-k; the others take none).
  struct QuerySpec {
    QueryType type = QueryType::kMostProbableNn;
    double tau = 0.5;
    int k = 1;
  };

  /// Result of one batched query. Which field is populated depends on the
  /// QueryType: `nn` for the two NN types, `ranked` for threshold/top-k,
  /// `ids` for NonzeroNn.
  struct QueryResult {
    int nn = -1;
    std::vector<std::pair<int, double>> ranked;
    std::vector<int> ids;
  };

  explicit Engine(std::vector<core::UncertainPoint> points);
  Engine(std::vector<core::UncertainPoint> points, const Config& config);

  /// Batched entry point and the one query dispatch: answers `spec` for
  /// every query point; `results[i]` always answers `queries[i]`. Each
  /// type runs through its backend's shared-traversal kernel
  /// (spatial/batch.h), bit-identical to that kernel's scalar query
  /// (docs/ARCHITECTURE.md "Batch traversal"). Definition-level answers
  /// come from engine/query_contract.h without tripping backend
  /// preconditions: an empty span returns an empty vector without
  /// building any structure, `kTopK` with `k <= 0` returns empty rankings
  /// (likewise build-free), `kThreshold` with `tau > 1` or NaN returns
  /// empty rankings (no pi exceeds 1), `kThreshold` with `tau <= 0`
  /// returns every id with its estimate (every pi reaches a non-positive
  /// threshold), and a query point with a NaN or infinite coordinate gets
  /// `nn = -1` with empty rankings and ids, for every type.
  /// ShardedEngine::QueryMany spreads large packs across a thread pool.
  /// Thread-safe.
  ///
  /// What each type computes:
  ///   * kMostProbableNn — argmax_i pi_i(q), ties toward the smaller id.
  ///     Exact for kBruteForce on homogeneous inputs; within Config::eps
  ///     for the estimator backends. Backends without probability
  ///     machinery (kNonzeroVoronoi, kNonzeroIndex, kLinfIndex,
  ///     kExpectedNn) fall back to the exact oracle.
  ///   * kExpectedDistanceNn — argmin_i E[d(q, P_i)]; core::ExpectedNn's
  ///     branch-and-bound for every backend except kBruteForce, which runs
  ///     the definition-level argmin pruned by the quantification index.
  ///   * kThreshold — all i whose true pi_i(q) may reach tau, (id,
  ///     estimate) sorted by decreasing estimate: no false negatives
  ///     (estimator accuracy is raised to tau/2 when Config::eps is
  ///     looser). Fallback as for kMostProbableNn.
  ///   * kTopK — the k ids with the largest pi_i(q), sorted by decreasing
  ///     estimate; near-ties within 2 eps may permute.
  ///   * kNonzeroNn — NN!=0(q), sorted ids; exact. kLinfIndex answers
  ///     under the Chebyshev metric over DerivedSquares(); estimator
  ///     backends (kSpiralSearch, kMonteCarlo, kExpectedNn) fall back to
  ///     the exact oracle.
  std::vector<QueryResult> QueryMany(std::span<const geom::Vec2> queries,
                                     const QuerySpec& spec) const;

  /// Single-query conveniences: each is QueryMany over a pack of one with
  /// the matching spec, so it shares every definition above (including
  /// the degenerate-parameter and non-finite answers). Thread-safe.
  int MostProbableNn(geom::Vec2 q) const;
  int ExpectedDistanceNn(geom::Vec2 q) const;
  std::vector<std::pair<int, double>> Threshold(geom::Vec2 q,
                                                double tau) const;
  std::vector<std::pair<int, double>> TopK(geom::Vec2 q, int k) const;
  std::vector<int> NonzeroNn(geom::Vec2 q) const;

  /// Eagerly builds every structure the given query type needs at the
  /// config accuracy, so later queries of that type never build (and a
  /// serving layer can fan them across threads without any worker paying
  /// the preprocessing). Idempotent and itself thread-safe: concurrent
  /// warmups build each structure once. The QuerySpec overload accounts
  /// for the threshold parameter (`tau < 2 * Config::eps` needs a tighter
  /// estimator than the plain-QueryType default of tau = 0.5).
  void Warmup(QueryType type) const;
  void Warmup(const QuerySpec& spec) const;

  /// Number of heavy structures built so far — observability for tests
  /// and serving metrics (a warmed engine must not build under query
  /// traffic).
  int StructuresBuilt() const {
    // relaxed: observability counter; build publication itself happens
    // through call_once / estimator_mu_, never through builds_.
    return builds_.load(std::memory_order_relaxed);
  }

  /// Quantification estimates (id, hat-pi) with positive estimate, sorted
  /// by id, at accuracy `eps_needed` (<= 0 means Config::eps), for every
  /// query of the batch. The effective estimator answers the whole batch
  /// through its shared-traversal kernel (spiral prefix retrieval via
  /// KNearestBatch, Monte-Carlo instantiation NNs via NearestBatch, or
  /// the discretized spiral), bit-identical to the kernel's scalar query;
  /// the exact-oracle fallback loops the definition. Exposed so callers
  /// can post-process distributions themselves: it is the substrate of
  /// QueryMany's MostProbableNn/Threshold/TopK arms and the sharded
  /// layer's per-shard candidate generator. Thread-safe.
  std::vector<std::vector<std::pair<int, double>>> ProbabilitiesMany(
      std::span<const geom::Vec2> queries, double eps_needed = 0.0,
      spatial::BatchStats* stats = nullptr) const;
  /// ProbabilitiesMany over a pack of one. Thread-safe.
  std::vector<std::pair<int, double>> Probabilities(
      geom::Vec2 q, double eps_needed = 0.0) const;

  // --- Per-point quantification hooks for cross-shard merging ----------
  // A sharded deployment partitions one logical point set across several
  // Engines and recombines per-shard answers (src/serve/sharding.h). The
  // three hooks below are the per-point quantities that make that
  // recombination exact under independent points; they are also useful on
  // their own. All three are thread-safe const queries.

  /// E[d(q, P_i)] at Config::tol — the per-point quantity the sharded
  /// layer min-merges: each shard reports its local argmin with this
  /// value, and the global expected-distance NN is the min over shards.
  /// Closed form for discrete points, adaptive quadrature for disks.
  /// Builds the ExpectedNn structure on first use (once, synchronized).
  double ExpectedDistance(int i, geom::Vec2 q) const;

  /// The two smallest Delta_j(q) = max-distance values over this engine's
  /// points, plus the argmin (Lemma 2.1's pruning envelope). Per-shard
  /// envelopes merge into the global envelope by taking the two smallest
  /// values overall, which is what lets a merger filter the union of
  /// per-shard NN!=0 answers down to the exact global NN!=0 set.
  /// Answered by the quantification index (core::QuantTree, built once on
  /// first use, synchronized, StructuresBuilt-visible) in O(log n) on
  /// bounded-density inputs, bit-identical to the linear
  /// core::TwoSmallestMaxDist scan including tie-breaking.
  core::DeltaEnvelope MaxDistEnvelope(geom::Vec2 q) const;

  /// Batched MaxDistEnvelope: `out[i]` is bit-identical to
  /// `MaxDistEnvelope(queries[i])`, geom::kLaneWidth queries per shared
  /// best-first walk (core::QuantTree::MaxDistEnvelopeBatch; the
  /// envelope is traversal-order-independent, so no scalar replay
  /// exists on this path). The sharded layer calls this once per shard
  /// per pack when recombining batched answers. Thread-safe.
  void MaxDistEnvelopeMany(std::span<const geom::Vec2> queries,
                           std::span<core::DeltaEnvelope> out,
                           spatial::BatchStats* stats = nullptr) const;

  /// Pr[every point of this engine is farther than r from q]
  ///   = prod_i (1 - G_{q,i}(r)),
  /// the shard survival probability of the paper-II factorization: for
  /// independent points the survival of a union of shards is the product
  /// of the per-shard survivals, which is why candidate-union
  /// re-quantification recombines probabilistic answers without error.
  /// The in-process merge computes these products implicitly (it
  /// re-accumulates/re-integrates over the candidate union); this hook
  /// is the explicit form — used by the factorization tests and the
  /// surface an out-of-process merger would consume. Equal to
  /// exp(LogSurvivalProbability(q, r)); prefer the log form when
  /// multiplying across shards — the product of n factors below 1
  /// underflows to 0 near n ~ 10^5 while the log sum stays exact.
  /// Answered by the quantification index: only points whose support
  /// intersects ball(q, r) are evaluated (a disjoint support contributes
  /// factor 1), O(log n + k) for k intersecting supports.
  double SurvivalProbability(geom::Vec2 q, double r) const;

  /// log Pr[every point farther than r] = sum_i log1p(-G_{q,i}(r)),
  /// accumulated in log space (never underflows; -infinity when some
  /// point is certainly within r). Per-shard survival products become
  /// sums of this quantity, which is how sharded probability merges stay
  /// exact at any n. Same index-backed cost as SurvivalProbability.
  double LogSurvivalProbability(geom::Vec2 q, double r) const;

  /// The axis-aligned squares the kLinfIndex backend indexes: an L_inf
  /// ball per point (disk -> same center/radius; discrete -> bounding-box
  /// center with half the larger side). Thread-safe; built once (O(N))
  /// under a once_flag, O(1) afterwards.
  const std::vector<core::SquareRegion>& DerivedSquares() const;

  /// The owned point set, in id order. Immutable after construction, so
  /// reading it is thread-safe and O(1).
  const std::vector<core::UncertainPoint>& points() const { return points_; }
  /// The construction-time configuration. Immutable; O(1).
  const Config& config() const { return config_; }
  /// Number of uncertain points. O(1).
  int size() const { return static_cast<int>(points_.size()); }
  /// True when every point is a discrete distribution. O(1).
  bool all_discrete() const { return all_discrete_; }
  /// True when every point is a disk (continuous) model. O(1).
  bool all_disk() const { return all_disk_; }

 private:
  /// QueryMany's dispatch for a kRegular spec over finite queries.
  std::vector<QueryResult> AnswerPack(std::span<const geom::Vec2> queries,
                                      const QuerySpec& spec) const;
  Backend EffectiveProbBackend() const;
  Backend EffectiveNonzeroBackend() const;
  std::vector<std::pair<int, double>> ExactProbabilities(geom::Vec2 q) const;

  const core::ExpectedNn& GetExpectedNn() const;
  const core::SpiralSearch& GetSpiralSearch() const;
  const core::NonzeroVoronoi& GetVoronoi() const;
  const core::NonzeroVoronoiDiscrete& GetVoronoiDiscrete() const;
  const core::NnNonzeroIndex& GetNonzeroIndex() const;
  const core::NnNonzeroDiscreteIndex& GetNonzeroDiscrete() const;
  const core::LinfNonzeroIndex& GetLinfIndex() const;
  const core::QuantTree& GetQuantTree() const;
  /// The accuracy-keyed estimators return an owning snapshot: a request
  /// for a tighter accuracy replaces the cached structure, and the
  /// returned shared_ptr keeps the one a concurrent query is using alive
  /// until that query finishes.
  std::shared_ptr<const core::ContinuousSpiralSearch> GetContinuousSpiral(
      double eps) const;
  std::shared_ptr<const core::MonteCarloPnn> GetMonteCarlo(double eps) const;

  std::vector<core::UncertainPoint> points_;
  Config config_;
  bool all_discrete_ = true;
  bool all_disk_ = true;

  // Lazily built structures. Fixed structures are built exactly once
  // under their once_flag; the accuracy-keyed estimators live behind
  // estimator_mu_ (shared-locked reads, unique-locked rebuilds). The
  // once_flag slots are deliberately NOT capability-annotated:
  // std::call_once is outside clang's capability model, and its
  // build-exactly-once publication guarantee is what synchronizes them
  // (each slot is written once inside the call_once callback and only
  // read after the corresponding call_once returns).
  mutable std::once_flag expected_nn_once_;
  mutable std::unique_ptr<core::ExpectedNn> expected_nn_;
  mutable std::once_flag spiral_once_;
  mutable std::unique_ptr<core::SpiralSearch> spiral_;
  mutable std::once_flag voronoi_once_;
  mutable std::unique_ptr<core::NonzeroVoronoi> voronoi_;
  mutable std::once_flag voronoi_discrete_once_;
  mutable std::unique_ptr<core::NonzeroVoronoiDiscrete> voronoi_discrete_;
  mutable std::once_flag nonzero_index_once_;
  mutable std::unique_ptr<core::NnNonzeroIndex> nonzero_index_;
  mutable std::once_flag nonzero_discrete_once_;
  mutable std::unique_ptr<core::NnNonzeroDiscreteIndex> nonzero_discrete_;
  mutable std::once_flag linf_index_once_;
  mutable std::unique_ptr<core::LinfNonzeroIndex> linf_index_;
  mutable std::once_flag quant_tree_once_;
  mutable std::unique_ptr<core::QuantTree> quant_tree_;
  mutable std::once_flag squares_once_;
  mutable std::vector<core::SquareRegion> squares_;

  mutable SharedMutex estimator_mu_;
  mutable std::shared_ptr<const core::ContinuousSpiralSearch> cont_spiral_
      UNN_GUARDED_BY(estimator_mu_);
  mutable double cont_spiral_eps_ UNN_GUARDED_BY(estimator_mu_) = 0.0;
  mutable std::shared_ptr<const core::MonteCarloPnn> monte_carlo_
      UNN_GUARDED_BY(estimator_mu_);
  mutable double monte_carlo_eps_ UNN_GUARDED_BY(estimator_mu_) = 0.0;

  mutable std::atomic<int> builds_{0};
};

}  // namespace unn

#endif  // UNN_ENGINE_ENGINE_H_

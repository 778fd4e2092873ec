#include "engine/engine.h"

#include <algorithm>
#include <cmath>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "engine/query_contract.h"
#include "obs/profile.h"
#include "util/check.h"

namespace unn {

namespace {

/// The shared shape of every fixed-structure getter: build exactly once
/// under the flag, count the build (StructuresBuilt observability), return
/// the structure.
template <class T, class Make>
const T& BuildOnce(std::once_flag& once, std::unique_ptr<T>& slot,
                   std::atomic<int>& builds, Make make) {
  std::call_once(once, [&] {
    slot = make();
    // relaxed: observability counter; the structure itself is published
    // by call_once's synchronization, not by builds.
    builds.fetch_add(1, std::memory_order_relaxed);
  });
  return *slot;
}

}  // namespace

Engine::Engine(std::vector<core::UncertainPoint> points)
    : Engine(std::move(points), Config()) {}

Engine::Engine(std::vector<core::UncertainPoint> points, const Config& config)
    : points_(std::move(points)), config_(config) {
  UNN_CHECK(!points_.empty());
  UNN_CHECK(config_.eps > 0 && config_.eps < 1);
  UNN_CHECK(config_.delta > 0 && config_.delta < 1);
  UNN_CHECK(config_.tol > 0);
  for (const auto& p : points_) {
    all_discrete_ = all_discrete_ && !p.is_disk();
    all_disk_ = all_disk_ && p.is_disk();
  }
}

// ---------------------------------------------------------------------------
// Lazy structure cache. Fixed structures build exactly once under their
// once_flag (concurrent first queries block until the single build
// finishes); the accuracy-keyed estimators use a shared mutex with
// double-checked rebuilds and hand out shared_ptr snapshots so a rebuild
// never pulls a structure out from under a running query.
// ---------------------------------------------------------------------------

const core::ExpectedNn& Engine::GetExpectedNn() const {
  return BuildOnce(expected_nn_once_, expected_nn_, builds_, [this] {
    return std::make_unique<core::ExpectedNn>(points_);
  });
}

const core::SpiralSearch& Engine::GetSpiralSearch() const {
  UNN_DCHECK(all_discrete_);
  return BuildOnce(spiral_once_, spiral_, builds_, [this] {
    return std::make_unique<core::SpiralSearch>(points_);
  });
}

const core::NonzeroVoronoi& Engine::GetVoronoi() const {
  return BuildOnce(voronoi_once_, voronoi_, builds_, [this] {
    return std::make_unique<core::NonzeroVoronoi>(points_);
  });
}

const core::NonzeroVoronoiDiscrete& Engine::GetVoronoiDiscrete() const {
  return BuildOnce(voronoi_discrete_once_, voronoi_discrete_, builds_, [this] {
    return std::make_unique<core::NonzeroVoronoiDiscrete>(points_);
  });
}

const core::NnNonzeroIndex& Engine::GetNonzeroIndex() const {
  return BuildOnce(nonzero_index_once_, nonzero_index_, builds_, [this] {
    return std::make_unique<core::NnNonzeroIndex>(points_);
  });
}

const core::NnNonzeroDiscreteIndex& Engine::GetNonzeroDiscrete() const {
  return BuildOnce(nonzero_discrete_once_, nonzero_discrete_, builds_, [this] {
    return std::make_unique<core::NnNonzeroDiscreteIndex>(points_);
  });
}

std::shared_ptr<const core::ContinuousSpiralSearch> Engine::GetContinuousSpiral(
    double eps) const {
  // The cached structure is keyed by its discretization accuracy; a request
  // for a tighter accuracy rebuilds it.
  {
    ReaderMutexLock lock(&estimator_mu_);
    if (cont_spiral_ && cont_spiral_eps_ <= eps) return cont_spiral_;
  }
  WriterMutexLock lock(&estimator_mu_);
  if (!cont_spiral_ || cont_spiral_eps_ > eps) {
    cont_spiral_ = std::make_shared<const core::ContinuousSpiralSearch>(
        points_, eps, config_.seed);
    cont_spiral_eps_ = eps;
    // relaxed: observability counter (see BuildOnce).
    builds_.fetch_add(1, std::memory_order_relaxed);
  }
  return cont_spiral_;
}

std::shared_ptr<const core::MonteCarloPnn> Engine::GetMonteCarlo(
    double eps) const {
  {
    ReaderMutexLock lock(&estimator_mu_);
    if (monte_carlo_ && monte_carlo_eps_ <= eps) return monte_carlo_;
  }
  WriterMutexLock lock(&estimator_mu_);
  if (!monte_carlo_ || monte_carlo_eps_ > eps) {
    core::MonteCarloPnnOptions opts;
    opts.eps = eps;
    opts.delta = config_.delta;
    opts.seed = config_.seed;
    opts.s_override = config_.mc_samples_override;
    monte_carlo_ = std::make_shared<const core::MonteCarloPnn>(points_, opts);
    monte_carlo_eps_ = eps;
    // relaxed: observability counter (see BuildOnce).
    builds_.fetch_add(1, std::memory_order_relaxed);
  }
  return monte_carlo_;
}

const std::vector<core::SquareRegion>& Engine::DerivedSquares() const {
  std::call_once(squares_once_, [this] {
    squares_.reserve(points_.size());
    for (const auto& p : points_) {
      core::SquareRegion s;
      if (p.is_disk()) {
        s.center = p.center();
        s.half_side = p.radius();
      } else {
        geom::Box b = p.Bounds();
        s.center = b.Center();
        s.half_side = std::max(b.Width(), b.Height()) / 2;
      }
      squares_.push_back(s);
    }
  });
  return squares_;
}

const core::LinfNonzeroIndex& Engine::GetLinfIndex() const {
  return BuildOnce(linf_index_once_, linf_index_, builds_, [this] {
    return std::make_unique<core::LinfNonzeroIndex>(DerivedSquares());
  });
}

const core::QuantTree& Engine::GetQuantTree() const {
  // points_ is immutable for the Engine's lifetime, so handing the tree a
  // pointer is safe.
  return BuildOnce(quant_tree_once_, quant_tree_, builds_, [this] {
    return std::make_unique<core::QuantTree>(&points_);
  });
}

// ---------------------------------------------------------------------------
// Quantification probabilities (the shared substrate of MostProbableNn,
// Threshold and TopK)
// ---------------------------------------------------------------------------

Backend Engine::EffectiveProbBackend() const {
  switch (config_.backend) {
    case Backend::kBruteForce:
    case Backend::kSpiralSearch:
    case Backend::kMonteCarlo:
      return config_.backend;
    case Backend::kAuto:
      // The strongest estimator the model admits: Theorem 4.7 prefix
      // evaluation for purely discrete inputs, Monte Carlo otherwise
      // (it alone handles mixed models natively).
      return all_discrete_ ? Backend::kSpiralSearch : Backend::kMonteCarlo;
    default:
      // Index families without probability machinery answer through the
      // exact definition-level oracle.
      return Backend::kBruteForce;
  }
}

std::vector<std::pair<int, double>> Engine::ExactProbabilities(
    geom::Vec2 q) const {
  UNN_CHECK_MSG(all_discrete_ || all_disk_,
                "exact quantification requires a homogeneous model; use an "
                "estimator backend for mixed inputs");
  if (all_discrete_) return core::DiscreteQuantification(points_, q);
  return core::IntegrateAllQuantifications(points_, q, config_.tol);
}

std::vector<std::pair<int, double>> Engine::Probabilities(
    geom::Vec2 q, double eps_needed) const {
  return std::move(ProbabilitiesMany({&q, 1}, eps_needed)[0]);
}

std::vector<std::vector<std::pair<int, double>>> Engine::ProbabilitiesMany(
    std::span<const geom::Vec2> queries, double eps_needed,
    spatial::BatchStats* stats) const {
  double eps = eps_needed > 0 ? std::min(eps_needed, config_.eps)
                              : config_.eps;
  switch (EffectiveProbBackend()) {
    case Backend::kSpiralSearch:
      if (all_discrete_) return GetSpiralSearch().QueryBatch(queries, eps, stats);
      // Theorem 4.5 discretization + discrete spiral search; the error
      // budget is split evenly between the two stages.
      return GetContinuousSpiral(eps / 2)->QueryBatch(queries, eps / 2, stats);
    case Backend::kMonteCarlo:
      return GetMonteCarlo(eps)->QueryBatch(queries, stats);
    default: {
      // The exact oracle has no traversal to share; the batch is the
      // scalar definition per query.
      std::vector<std::vector<std::pair<int, double>>> out(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        out[i] = ExactProbabilities(queries[i]);
      }
      return out;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-type single-query methods: packs of one through QueryMany
// ---------------------------------------------------------------------------

int Engine::MostProbableNn(geom::Vec2 q) const {
  return QueryMany({&q, 1}, {QueryType::kMostProbableNn})[0].nn;
}

int Engine::ExpectedDistanceNn(geom::Vec2 q) const {
  return QueryMany({&q, 1}, {QueryType::kExpectedDistanceNn})[0].nn;
}

std::vector<std::pair<int, double>> Engine::Threshold(geom::Vec2 q,
                                                      double tau) const {
  return std::move(QueryMany({&q, 1}, {QueryType::kThreshold, tau})[0].ranked);
}

std::vector<std::pair<int, double>> Engine::TopK(geom::Vec2 q, int k) const {
  return std::move(QueryMany({&q, 1}, {QueryType::kTopK, 0.5, k})[0].ranked);
}

std::vector<int> Engine::NonzeroNn(geom::Vec2 q) const {
  return std::move(QueryMany({&q, 1}, {QueryType::kNonzeroNn})[0].ids);
}

// ---------------------------------------------------------------------------
// Per-point quantification hooks (cross-shard merging)
// ---------------------------------------------------------------------------

double Engine::ExpectedDistance(int i, geom::Vec2 q) const {
  UNN_CHECK(i >= 0 && i < size());
  return GetExpectedNn().ExpectedDistance(i, q, config_.tol);
}

core::DeltaEnvelope Engine::MaxDistEnvelope(geom::Vec2 q) const {
  if (obs::TraversalProfilingEnabled()) {
    core::QuantTree::QueryStats st;
    core::DeltaEnvelope env = GetQuantTree().MaxDistEnvelope(q, &st);
    obs::RecordTraversal(obs::TraversalOp::kQuantEnvelope, st);
    return env;
  }
  return GetQuantTree().MaxDistEnvelope(q);
}

void Engine::MaxDistEnvelopeMany(std::span<const geom::Vec2> queries,
                                 std::span<core::DeltaEnvelope> out,
                                 spatial::BatchStats* stats) const {
  GetQuantTree().MaxDistEnvelopeBatch(queries, out, stats);
}

double Engine::SurvivalProbability(geom::Vec2 q, double r) const {
  return std::exp(LogSurvivalProbability(q, r));
}

double Engine::LogSurvivalProbability(geom::Vec2 q, double r) const {
  if (obs::TraversalProfilingEnabled()) {
    core::QuantTree::QueryStats st;
    double v = GetQuantTree().LogSurvival(q, r, &st);
    obs::RecordTraversal(obs::TraversalOp::kQuantSurvival, st);
    return v;
  }
  return GetQuantTree().LogSurvival(q, r);
}

// ---------------------------------------------------------------------------
// NN!=0
// ---------------------------------------------------------------------------

Backend Engine::EffectiveNonzeroBackend() const {
  Backend b = config_.backend;
  if (b == Backend::kAuto) {
    b = (all_disk_ || all_discrete_) ? Backend::kNonzeroIndex
                                     : Backend::kBruteForce;
  }
  switch (b) {
    case Backend::kNonzeroVoronoi:
    case Backend::kNonzeroIndex:
      // Mixed model: no diagram/index — exact oracle.
      if (!all_disk_ && !all_discrete_) return Backend::kBruteForce;
      return b;
    case Backend::kLinfIndex:
      return b;
    default:
      return Backend::kBruteForce;
  }
}

// ---------------------------------------------------------------------------
// Warmup: build everything a query type needs before serving traffic
// ---------------------------------------------------------------------------

void Engine::Warmup(QueryType type) const { Warmup(QuerySpec{type, 0.5, 1}); }

void Engine::Warmup(const QuerySpec& spec) const {
  // Warming is answering one representative query through QueryMany: which
  // structures get built depends on the spec and config but never on the
  // query point, so one probe builds exactly what later queries of this
  // spec need — including the degenerate-parameter paths that build
  // nothing — and cannot drift from the real dispatch.
  geom::Vec2 probe{0, 0};
  QueryMany(std::span<const geom::Vec2>(&probe, 1), spec);
}

// ---------------------------------------------------------------------------
// Batched entry point
// ---------------------------------------------------------------------------

std::vector<Engine::QueryResult> Engine::QueryMany(
    std::span<const geom::Vec2> queries, const QuerySpec& spec) const {
  // The shared contract answers the definition-level cases (see header);
  // the rest reaches AnswerPack as one pack of finite queries.
  return query_contract::Answer(
      queries, spec, size(),
      [this](std::span<const geom::Vec2> pack) {
        return ProbabilitiesMany(pack);
      },
      [&](std::span<const geom::Vec2> pack) { return AnswerPack(pack, spec); });
}

std::vector<Engine::QueryResult> Engine::AnswerPack(
    std::span<const geom::Vec2> queries, const QuerySpec& spec) const {
  // Every type runs through its shared-traversal kernel (spatial/batch.h),
  // bit-identical to the kernel's scalar query (docs/ARCHITECTURE.md
  // "Batch traversal" has the coverage matrix and per-kernel exactness
  // argument). Backends a type has no kernel for — the definition-level
  // NN!=0 oracle, the Voronoi and L_inf families, the all-disk nonzero
  // index — loop their scalar query inside their case arm.
  std::vector<QueryResult> results(queries.size());
  switch (spec.type) {
    case QueryType::kMostProbableNn:
    case QueryType::kThreshold:
    case QueryType::kTopK: {
      auto est = ProbabilitiesMany(queries, query_contract::EpsNeeded(spec));
      bool exact = EffectiveProbBackend() == Backend::kBruteForce;
      for (size_t i = 0; i < queries.size(); ++i) {
        results[i] = query_contract::FinishProbabilityQuery(
            std::move(est[i]), spec, exact, config_.eps);
      }
      break;
    }
    case QueryType::kExpectedDistanceNn: {
      std::vector<int> ids(queries.size());
      const core::ExpectedNn& index = GetExpectedNn();
      if (config_.backend != Backend::kBruteForce) {
        index.QueryExpectedBatch(queries, config_.tol, ids);
      } else {
        // Definition-level argmin of E[d(q, P_i)], pruned by the
        // quantification index's min-distance bounds (E[d] >= delta_i);
        // the quadrature tolerance is the value slack the kernel's guard
        // band covers. Quadrature values within Config::tol of each other
        // may tie-break either way (docs/QUERY_SEMANTICS.md).
        GetQuantTree().ArgminPointwiseBatch(
            queries,
            [&](int id, int qi) {
              return index.ExpectedDistance(id, queries[qi], config_.tol);
            },
            /*slack=*/config_.tol, ids);
      }
      for (size_t i = 0; i < queries.size(); ++i) results[i].nn = ids[i];
      break;
    }
    case QueryType::kNonzeroNn: {
      auto each = [&](const auto& index) {
        for (size_t i = 0; i < queries.size(); ++i) {
          results[i].ids = index.Query(queries[i]);
        }
      };
      switch (EffectiveNonzeroBackend()) {
        case Backend::kNonzeroVoronoi:
          if (all_disk_) {
            each(GetVoronoi());
          } else {
            each(GetVoronoiDiscrete());
          }
          break;
        case Backend::kNonzeroIndex:
          if (all_disk_) {
            each(GetNonzeroIndex());
          } else {
            auto ids = GetNonzeroDiscrete().QueryBatch(queries);
            for (size_t i = 0; i < queries.size(); ++i) {
              results[i].ids = std::move(ids[i]);
            }
          }
          break;
        case Backend::kLinfIndex:
          each(GetLinfIndex());
          break;
        default:
          for (size_t i = 0; i < queries.size(); ++i) {
            results[i].ids = baselines::NonzeroNn(points_, queries[i]);
          }
          break;
      }
      break;
    }
  }
  return results;
}

}  // namespace unn

#ifndef UNN_TESTS_SCALAR_ORACLE_H_
#define UNN_TESTS_SCALAR_ORACLE_H_

// A test-side reference for Engine::QueryMany under Backend::kAuto, built
// only from the kernels' scalar queries — the replay targets the batched
// kernels must match bit for bit: SpiralSearch::Query (discrete
// probabilities), MonteCarloPnn::Query (disk and mixed probabilities),
// ExpectedNn::QueryExpected, NnNonzeroDiscreteIndex::Query /
// NnNonzeroIndex::Query and the definition-level NN!=0 scan for mixed
// sets. It finishes probability queries through the shared
// query_contract rules, so a differential against it isolates the
// batched traversal. Not thread-safe (estimators are built lazily);
// compute the expected answers before racing anything.

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "baselines/brute_force.h"
#include "core/expected_nn.h"
#include "core/monte_carlo_pnn.h"
#include "core/nn_nonzero_discrete_index.h"
#include "core/nn_nonzero_index.h"
#include "core/spiral_search.h"
#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "engine/query_contract.h"
#include "geom/vec2.h"

namespace unn {
namespace test {

class ScalarOracle {
 public:
  ScalarOracle(std::vector<core::UncertainPoint> points,
               const Engine::Config& config = {})
      : points_(std::move(points)), config_(config), expected_(points_) {
    for (const auto& p : points_) {
      all_discrete_ = all_discrete_ && !p.is_disk();
      all_disk_ = all_disk_ && p.is_disk();
    }
  }

  /// What Engine(points, config).QueryMany(queries, spec) must return.
  std::vector<Engine::QueryResult> QueryMany(
      std::span<const geom::Vec2> queries, const Engine::QuerySpec& spec) {
    auto probs_many = [&](std::span<const geom::Vec2> pack) {
      std::vector<std::vector<std::pair<int, double>>> out;
      for (geom::Vec2 q : pack) out.push_back(Probabilities(q, 0.0));
      return out;
    };
    auto each = [&](std::span<const geom::Vec2> pack) {
      std::vector<Engine::QueryResult> out;
      for (geom::Vec2 q : pack) out.push_back(Single(q, spec));
      return out;
    };
    return query_contract::Answer(queries, spec,
                                  static_cast<int>(points_.size()),
                                  probs_many, each);
  }

 private:
  Engine::QueryResult Single(geom::Vec2 q, const Engine::QuerySpec& spec) {
    Engine::QueryResult r;
    switch (spec.type) {
      case Engine::QueryType::kExpectedDistanceNn:
        r.nn = expected_.QueryExpected(q, config_.tol);
        break;
      case Engine::QueryType::kNonzeroNn:
        if (all_discrete_) {
          if (!nonzero_discrete_) {
            nonzero_discrete_ =
                std::make_unique<core::NnNonzeroDiscreteIndex>(points_);
          }
          r.ids = nonzero_discrete_->Query(q);
        } else if (all_disk_) {
          if (!nonzero_disk_) {
            nonzero_disk_ = std::make_unique<core::NnNonzeroIndex>(points_);
          }
          r.ids = nonzero_disk_->Query(q);
        } else {
          r.ids = baselines::NonzeroNn(points_, q);
        }
        break;
      default:
        // kAuto estimates are never exact: threshold keeps its slack.
        r = query_contract::FinishProbabilityQuery(
            Probabilities(q, query_contract::EpsNeeded(spec)), spec,
            /*exact=*/false, config_.eps);
        break;
    }
    return r;
  }

  std::vector<std::pair<int, double>> Probabilities(geom::Vec2 q,
                                                    double eps_needed) {
    double eps = eps_needed > 0 ? std::min(eps_needed, config_.eps)
                                : config_.eps;
    if (all_discrete_) {
      if (!spiral_) spiral_ = std::make_unique<core::SpiralSearch>(points_);
      return spiral_->Query(q, eps);
    }
    std::unique_ptr<core::MonteCarloPnn>& mc = monte_carlo_[eps];
    if (!mc) {
      core::MonteCarloPnnOptions opts;
      opts.eps = eps;
      opts.delta = config_.delta;
      opts.seed = config_.seed;
      opts.s_override = config_.mc_samples_override;
      mc = std::make_unique<core::MonteCarloPnn>(points_, opts);
    }
    return mc->Query(q);
  }

  std::vector<core::UncertainPoint> points_;
  Engine::Config config_;
  bool all_discrete_ = true;
  bool all_disk_ = true;
  core::ExpectedNn expected_;
  std::unique_ptr<core::SpiralSearch> spiral_;
  std::unique_ptr<core::NnNonzeroDiscreteIndex> nonzero_discrete_;
  std::unique_ptr<core::NnNonzeroIndex> nonzero_disk_;
  std::map<double, std::unique_ptr<core::MonteCarloPnn>> monte_carlo_;
};

}  // namespace test
}  // namespace unn

#endif  // UNN_TESTS_SCALAR_ORACLE_H_

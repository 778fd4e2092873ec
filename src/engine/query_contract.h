#ifndef UNN_ENGINE_QUERY_CONTRACT_H_
#define UNN_ENGINE_QUERY_CONTRACT_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "geom/vec2.h"

/// \file query_contract.h
/// The batched-query contract shared by every QueryMany implementation
/// (Engine, ShardedEngine): one classification of degenerate spec
/// parameters, one definition of the definition-level answers (degenerate
/// parameters, non-finite query points), one presentation order for
/// ranking queries and one copy of the probability-query finishing rules
/// (argmax, threshold slack, top-k truncation), so the sharded path, the
/// unsharded path, the serving layer's result-cache keying and its
/// admission control cannot drift. See docs/QUERY_SEMANTICS.md for the
/// contract in prose.

namespace unn {
namespace query_contract {

/// What a QuerySpec's parameters mean for dispatch. Exactly one
/// definition of "degenerate" exists in the library; Engine::QueryMany,
/// ShardedEngine::QueryMany, the serving result cache (degenerate specs
/// are never cached) and QueryServer admission control (definition-level
/// answers are never shed or degraded) all consult it.
enum class SpecClass {
  /// Regular parameters: dispatch to a backend.
  kRegular,
  /// The answer is empty by definition, touching no backend: `kTopK` with
  /// `k <= 0`, `kThreshold` with `tau > 1` or NaN tau (no pi exceeds 1),
  /// or a QueryType value outside the defined set.
  kTrivialEmpty,
  /// `kThreshold` with `tau <= 0`: every id qualifies (every pi_i >= 0),
  /// answered from one Probabilities pass per query.
  kTrivialAll,
};

inline SpecClass Classify(const Engine::QuerySpec& spec) {
  switch (spec.type) {
    case Engine::QueryType::kMostProbableNn:
    case Engine::QueryType::kExpectedDistanceNn:
    case Engine::QueryType::kNonzeroNn:
      return SpecClass::kRegular;
    case Engine::QueryType::kTopK:
      return spec.k <= 0 ? SpecClass::kTrivialEmpty : SpecClass::kRegular;
    case Engine::QueryType::kThreshold:
      // `!(tau <= 1)` rather than `tau > 1` so a NaN tau lands in the
      // empty class instead of falling through to Threshold's CHECK.
      if (!(spec.tau <= 1)) return SpecClass::kTrivialEmpty;
      if (spec.tau <= 0) return SpecClass::kTrivialAll;
      return SpecClass::kRegular;
  }
  // A QueryType cast from an out-of-range integer: defined empty answer
  // instead of undefined dispatch.
  return SpecClass::kTrivialEmpty;
}

/// True when both coordinates are finite. A query point with a NaN or
/// infinite coordinate has no distance to anything, so the contract gives
/// it one definition-level answer for every query type and backend: `nn =
/// -1` with empty `ranked` and `ids`, computed without touching a backend
/// and never cached (docs/QUERY_SEMANTICS.md, "Non-finite queries").
inline bool IsFiniteQuery(geom::Vec2 q) {
  return std::isfinite(q.x) && std::isfinite(q.y);
}

/// The estimator accuracy a probability query asks for (the `eps_needed`
/// of Engine::ProbabilitiesMany): tau/2 for kThreshold — so a point whose
/// true pi reaches tau always survives the slack filter — and 0 (meaning
/// Config::eps) for every other type.
inline double EpsNeeded(const Engine::QuerySpec& spec) {
  return spec.type == Engine::QueryType::kThreshold ? spec.tau / 2 : 0.0;
}

/// Presentation order of every ranking query: by decreasing estimate,
/// ties toward the smaller id.
inline void SortByEstimate(std::vector<std::pair<int, double>>* v) {
  std::sort(v->begin(), v->end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
}

/// Finishes one regular probability query (kMostProbableNn, kThreshold,
/// kTopK) from its (id, estimate) list, which must be sorted by id:
///   * kMostProbableNn — the largest estimate, ties toward the smaller id;
///   * kThreshold — every id whose estimate plus the slack reaches tau,
///     where the slack is 0 when the estimates are `exact` and
///     min(eps, tau/2) otherwise (no false negatives), in presentation
///     order;
///   * kTopK — the first k in presentation order.
/// The one copy of these rules: Engine, ShardedEngine and the scalar
/// reference loops all finish through it.
inline Engine::QueryResult FinishProbabilityQuery(
    std::vector<std::pair<int, double>> estimates,
    const Engine::QuerySpec& spec, bool exact, double eps) {
  Engine::QueryResult r;
  switch (spec.type) {
    case Engine::QueryType::kMostProbableNn: {
      double best_pi = -1.0;
      for (auto [id, pi] : estimates) {
        if (pi > best_pi) {
          r.nn = id;
          best_pi = pi;
        }
      }
      break;
    }
    case Engine::QueryType::kThreshold: {
      double slack = exact ? 0.0 : std::min(eps, spec.tau / 2);
      for (auto [id, pi] : estimates) {
        if (pi + slack >= spec.tau) r.ranked.push_back({id, pi});
      }
      SortByEstimate(&r.ranked);
      break;
    }
    case Engine::QueryType::kTopK:
      SortByEstimate(&estimates);
      if (static_cast<int>(estimates.size()) > spec.k) {
        estimates.resize(spec.k);
      }
      r.ranked = std::move(estimates);
      break;
    default:
      break;
  }
  return r;
}

/// The batched-query contract every QueryMany implementation runs through.
/// Answers definition-level, touching no backend, everything that needs
/// none: an empty span, a kTrivialEmpty spec, and non-finite query points
/// (IsFiniteQuery). The remaining finite queries are compacted into one
/// pack, in order; `answer_pack(pack)` answers a kRegular spec and must
/// return one result per query of `pack`. A kTrivialAll spec instead
/// reports every id of the `n`-point dataset with its estimate, where
/// `probabilities(pack)` supplies one id-sorted (id, estimate) list per
/// query (ids it omits get estimate 0). `results[i]` always answers
/// `queries[i]`.
template <class ProbsFn, class PackFn>
std::vector<Engine::QueryResult> Answer(std::span<const geom::Vec2> queries,
                                        const Engine::QuerySpec& spec, int n,
                                        const ProbsFn& probabilities,
                                        const PackFn& answer_pack) {
  SpecClass cls = Classify(spec);
  if (queries.empty() || cls == SpecClass::kTrivialEmpty) {
    return std::vector<Engine::QueryResult>(queries.size());
  }
  // Compact the finite queries; the common all-finite span is used as is.
  std::vector<geom::Vec2> finite;
  std::vector<size_t> slot;
  std::span<const geom::Vec2> pack = queries;
  if (!std::all_of(queries.begin(), queries.end(), IsFiniteQuery)) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!IsFiniteQuery(queries[i])) continue;
      finite.push_back(queries[i]);
      slot.push_back(i);
    }
    pack = finite;
    if (pack.empty()) return std::vector<Engine::QueryResult>(queries.size());
  }
  std::vector<Engine::QueryResult> answered;
  if (cls == SpecClass::kTrivialAll) {
    // Every pi_i(q) >= 0 >= tau: report all ids with their estimates. The
    // id skeleton is built once for the whole pack; each query copies it
    // and overwrites the estimates it has in place.
    std::vector<std::pair<int, double>> skeleton(n);
    for (int id = 0; id < n; ++id) skeleton[id] = {id, 0.0};
    auto estimates = probabilities(pack);
    answered.resize(pack.size());
    for (size_t i = 0; i < pack.size(); ++i) {
      std::vector<std::pair<int, double>> full = skeleton;
      for (auto [id, pi] : estimates[i]) full[id].second = pi;
      SortByEstimate(&full);
      answered[i].ranked = std::move(full);
    }
  } else {
    answered = answer_pack(pack);
  }
  if (slot.empty()) return answered;
  std::vector<Engine::QueryResult> results(queries.size());
  for (size_t j = 0; j < slot.size(); ++j) {
    results[slot[j]] = std::move(answered[j]);
  }
  return results;
}

}  // namespace query_contract
}  // namespace unn

#endif  // UNN_ENGINE_QUERY_CONTRACT_H_

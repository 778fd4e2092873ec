#include "core/monte_carlo_pnn.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "prob/distributions.h"
#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

int MonteCarloPnn::RequiredSamples(int n, int k, double eps, double delta) {
  UNN_CHECK(eps > 0 && eps < 1 && delta > 0 && delta < 1);
  // |Q| = O(N^4) distinct query classes (Lemma 4.1), N = nk.
  double big_n = static_cast<double>(n) * std::max(k, 1);
  double log_q = 4.0 * std::log(std::max(big_n, 2.0));
  double s = (std::log(2.0 * n / delta) + log_q) / (2.0 * eps * eps);
  return static_cast<int>(std::ceil(s));
}

MonteCarloPnn::MonteCarloPnn(std::vector<UncertainPoint> points,
                             const MonteCarloPnnOptions& opts)
    : points_(std::move(points)), opts_(opts) {
  UNN_CHECK(!points_.empty());
  int n = static_cast<int>(points_.size());
  int k = 1;
  for (const auto& p : points_) {
    if (!p.is_disk()) k = std::max(k, static_cast<int>(p.sites().size()));
  }
  int s = opts_.s_override > 0
              ? opts_.s_override
              : RequiredSamples(n, k, opts_.eps, opts_.delta);
  std::mt19937_64 rng(opts_.seed);
  trees_.reserve(s);
  std::vector<Vec2> instance(n);
  for (int j = 0; j < s; ++j) {
    for (int i = 0; i < n; ++i) instance[i] = prob::SamplePoint(points_[i], rng);
    trees_.emplace_back(instance);
  }
}

std::vector<std::pair<int, double>> MonteCarloPnn::Query(Vec2 q) const {
  std::vector<int> counts(points_.size(), 0);
  for (const auto& tree : trees_) {
    int winner = tree.Nearest(q);
    if (winner >= 0) ++counts[winner];
  }
  std::vector<std::pair<int, double>> out;
  double s = static_cast<double>(trees_.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) out.push_back({static_cast<int>(i), counts[i] / s});
  }
  return out;
}

std::vector<std::vector<std::pair<int, double>>> MonteCarloPnn::QueryBatch(
    std::span<const Vec2> queries, spatial::BatchStats* stats) const {
  // One NearestBatch sweep per instantiation keeps each kd-tree hot for
  // the whole batch instead of touching all s trees per query, in
  // pack-coherent (Morton) order so every sweep's packs prune together —
  // one sort amortized over all s sweeps, scattered back per query.
  std::vector<int> order = spatial::PackCoherentOrder(queries);
  std::vector<Vec2> sorted(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) sorted[i] = queries[order[i]];
  std::vector<std::vector<int>> winners(
      trees_.size(), std::vector<int>(queries.size(), -1));
  for (size_t t = 0; t < trees_.size(); ++t) {
    trees_[t].NearestBatch(sorted, winners[t], {}, stats);
  }
  std::vector<std::vector<std::pair<int, double>>> out(queries.size());
  std::vector<int> counts;
  double s = static_cast<double>(trees_.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    counts.assign(points_.size(), 0);
    for (size_t t = 0; t < trees_.size(); ++t) {
      int winner = winners[t][i];
      if (winner >= 0) ++counts[winner];
    }
    std::vector<std::pair<int, double>>& dst = out[order[i]];
    for (size_t j = 0; j < counts.size(); ++j) {
      if (counts[j] > 0) dst.push_back({static_cast<int>(j), counts[j] / s});
    }
  }
  return out;
}

double MonteCarloPnn::PointProbability(Vec2 q, int i) const {
  for (const auto& [id, p] : Query(q)) {
    if (id == i) return p;
  }
  return 0.0;
}

}  // namespace core
}  // namespace unn

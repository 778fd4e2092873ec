#ifndef UNN_CORE_MONTE_CARLO_PNN_H_
#define UNN_CORE_MONTE_CARLO_PNN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/uncertain_point.h"
#include "range/kdtree.h"
#include "spatial/batch.h"

/// \file monte_carlo_pnn.h
/// The Monte-Carlo quantification-probability structure of Theorems 4.3
/// (discrete) and 4.5 (continuous). Preprocessing draws s independent
/// instantiations R_1..R_s of the point set and indexes each for
/// nearest-neighbor queries (kd-trees in place of Voronoi+point-location:
/// identical answers). A query finds the NN of q in every instantiation and
/// returns hat-pi_i = (times P_i won) / s, which satisfies
/// |hat-pi_i - pi_i| <= eps for all i simultaneously with probability
/// >= 1 - delta when s = (1/2eps^2) ln(2 n |Q| / delta), |Q| = O(N^4)
/// (Lemma 4.1).

namespace unn {
namespace core {

struct MonteCarloPnnOptions {
  double eps = 0.1;
  double delta = 0.05;
  uint64_t seed = 0xC0FFEE;
  /// Overrides the theorem's sample count when > 0 (benchmarks/tests).
  int s_override = 0;
};

class MonteCarloPnn {
 public:
  MonteCarloPnn(std::vector<UncertainPoint> points,
                const MonteCarloPnnOptions& opts = {});

  /// Theorem 4.3 sample count for the given parameters and input size.
  static int RequiredSamples(int n, int k, double eps, double delta);

  int num_instantiations() const { return static_cast<int>(trees_.size()); }

  /// Estimates (id, hat-pi) for all ids with a nonzero count, sorted by id.
  std::vector<std::pair<int, double>> Query(geom::Vec2 q) const;

  /// Batched Query: `out[i]` is bit-identical to `Query(queries[i])`.
  /// Every instantiation answers the whole batch through
  /// range::KdTree::NearestBatch (itself bit-identical per lane,
  /// including argmin ties), and the per-query count aggregation is the
  /// scalar arithmetic verbatim.
  std::vector<std::vector<std::pair<int, double>>> QueryBatch(
      std::span<const geom::Vec2> queries,
      spatial::BatchStats* stats = nullptr) const;

  /// Estimate for one id (0 if it never won).
  double PointProbability(geom::Vec2 q, int i) const;

 private:
  std::vector<UncertainPoint> points_;
  MonteCarloPnnOptions opts_;
  /// One kd-tree per instantiation; point ids coincide with point indices.
  std::vector<range::KdTree> trees_;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_MONTE_CARLO_PNN_H_

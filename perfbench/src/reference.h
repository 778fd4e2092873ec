#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "geom/vec2.h"

/// \file reference.h
/// The benchmark's own answers, computed from the definitions and not
/// through the library's query code, and the checks that hold the
/// library's answers against them. Every check returns "" on success and
/// a reason on failure, so the self-test can feed it a corrupted answer
/// and see it refuse.

namespace pb {

using unn::core::UncertainPoint;
using unn::geom::Vec2;
using QueryResult = unn::Engine::QueryResult;
using QuerySpec = unn::Engine::QuerySpec;
using QueryType = unn::Engine::QueryType;

/// Accuracy the workloads run at (Engine::Config defaults).
inline constexpr double kEps = 0.05;
inline constexpr double kDelta = 0.05;
inline constexpr double kTau = 0.25;
inline constexpr int kTopK = 3;

/// Everything the discrete checks need about one query point.
struct DiscreteRef {
  Vec2 q;
  /// pi_i(q) > 0, by id, from a sweep of the sites in distance order.
  std::vector<std::pair<int, double>> pi;
  /// Lemma 2.1: ids with delta_i < Delta_j for all j != i (sure members)
  /// and ids within 1e-9 of that threshold, which either answer may hold.
  std::vector<int> nonzero;
  std::vector<int> nonzero_ambiguous;
  /// min_i E[d(q, P_i)], closed form.
  double min_expected = 0;
};

DiscreteRef ReferenceDiscrete(const std::vector<UncertainPoint>& pts, Vec2 q);
/// E[d(q, P_i)] of a discrete point, closed form.
double ExpectedDistanceDiscrete(const UncertainPoint& p, Vec2 q);

/// Checks one engine answer of `spec` against the discrete reference.
/// Exact: the spiral-search guarantee (hat-pi <= pi <= hat-pi + eps) makes
/// every bound hold on every query.
std::string CheckDiscrete(const std::vector<UncertainPoint>& pts,
                          const DiscreteRef& ref, const QuerySpec& spec,
                          const QueryResult& ans);
/// The two independent reference paths agree: supp(pi) is the Lemma 2.1
/// set and pi sums to 1 over it.
std::string CheckReferenceConsistency(const DiscreteRef& ref);

/// Everything the disk checks need about one query point.
struct DiskRef {
  Vec2 q;
  std::vector<int> nonzero;            ///< Sure members of NN!=0.
  std::vector<int> nonzero_ambiguous;  ///< Within 1e-9 of the threshold.
  /// High-sample Monte Carlo estimate of pi_i (ids with a win, by id) and
  /// its standard error bound 0.5 / sqrt(samples).
  std::vector<std::pair<int, double>> pi;
  double pi_sigma = 0;
  /// Quadrature of E[d] over the candidates, with its error estimate.
  std::vector<std::pair<int, double>> expected;
  std::vector<double> expected_err;
};

/// `samples` instantiations of the points that can be nearest; `seed`
/// drives the sampling.
DiskRef ReferenceDisk(const std::vector<UncertainPoint>& pts, Vec2 q,
                      int samples, uint64_t seed);
/// E[d(q, P)] of a uniform disk by Simpson's rule over the lens-area
/// distribution of d, with `intervals` per smooth piece.
double ExpectedDistanceDisk(Vec2 c, double r, Vec2 q, int intervals);

/// Exact disk checks (NN!=0 against delta/Delta, E[d] argmin within the
/// quadrature error). "" or a reason.
std::string CheckDiskExact(const std::vector<UncertainPoint>& pts,
                           const DiskRef& ref, const QuerySpec& spec,
                           const QueryResult& ans);
/// Probability answers of the Monte-Carlo structure: true when this
/// query's answer is off by more than eps (+ 3 reference sigmas). The
/// eps/delta guarantee bounds the share of such queries, not each one.
bool DiskProbabilityOff(const DiskRef& ref, const QuerySpec& spec,
                        const QueryResult& ans);
/// Largest count of off queries out of `m` the eps/delta contract admits:
/// delta * m plus three binomial standard deviations.
int DiskOffAllowance(int m);

/// Bit-identity of two answers ("" when equal).
std::string CheckIdentical(const QueryResult& a, const QueryResult& b);

}  // namespace pb

#endif  // PERFBENCH_REFERENCE_H_

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "geom/vec2.h"
#include "reference.h"
#include "serve/query_server.h"
#include "util.h"

/// \file workloads.h
/// The three workloads (inputs, server set-up, the untraced measurement
/// that yields the end-to-end metrics) and the traced per-layer run.

namespace pb {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Where result and trace files go, relative to the working directory.
inline const std::string kOutDir = "perfbench-out";

/// One workload's fixed make-up; only the seed varies between runs.
struct Workload {
  std::string name;
  bool disk = false;  ///< Continuous (uniform-disk) model, else discrete.
  int n = 0;          ///< Uncertain points.
  int sites = 4;      ///< Sites per discrete point.
  int shards = 1;     ///< Spatial shards of the serving snapshot.
  bool cache = false; ///< Result cache on.
  int pack = 256;     ///< Queries per QueryBatch pack...
  int prob_pack = 256; ///< ...and per pack of a probability type.
  int rounds = 4;     ///< Rounds of one phase per query type.
  int replaces = 3;   ///< ReplaceDataset calls of the batch workloads.
};

/// Returns false for an unknown name.
bool FindWorkload(const std::string& name, Workload* out);

inline constexpr std::array<QueryType, 5> kTypes = {
    QueryType::kMostProbableNn, QueryType::kExpectedDistanceNn,
    QueryType::kThreshold, QueryType::kTopK, QueryType::kNonzeroNn};
const char* TypeName(QueryType type);
inline QuerySpec SpecOf(QueryType type) { return QuerySpec{type, kTau, kTopK}; }

/// The closed-loop request mix of the single-request paths, 20 requests a
/// round: MostProbableNn 40%, NonzeroNn 30%, ExpectedDistanceNn,
/// Threshold and TopK 10% each. The two cheap types (NonzeroNn and
/// ExpectedDistanceNn) make 40%, so on a cache-less server the median
/// request sits inside the probability types, clear of the boundary.
inline constexpr std::array<QueryType, 20> kMix = {
    QueryType::kMostProbableNn, QueryType::kNonzeroNn,
    QueryType::kMostProbableNn, QueryType::kExpectedDistanceNn,
    QueryType::kNonzeroNn,      QueryType::kThreshold,
    QueryType::kMostProbableNn, QueryType::kNonzeroNn,
    QueryType::kTopK,           QueryType::kMostProbableNn,
    QueryType::kNonzeroNn,      QueryType::kMostProbableNn,
    QueryType::kExpectedDistanceNn, QueryType::kNonzeroNn,
    QueryType::kThreshold,      QueryType::kMostProbableNn,
    QueryType::kNonzeroNn,      QueryType::kTopK,
    QueryType::kMostProbableNn, QueryType::kMostProbableNn};

/// The single-request probe of the batch workloads.
inline constexpr std::array<QueryType, 3> kProbeMix = {
    QueryType::kMostProbableNn, QueryType::kThreshold, QueryType::kTopK};
inline bool IsProbability(QueryType t) {
  return t == QueryType::kMostProbableNn || t == QueryType::kThreshold ||
         t == QueryType::kTopK;
}

std::vector<UncertainPoint> MakePoints(const Workload& wl, uint64_t seed);
/// Every site (discrete) or center (disk) moved by up to `amount` per
/// axis: the moving-objects update of the write path.
std::vector<UncertainPoint> Jitter(const std::vector<UncertainPoint>& pts,
                                   uint64_t seed, double amount);
/// `count` query points uniform over the bounding box of `pts`.
std::vector<Vec2> UniformQueries(const std::vector<UncertainPoint>& pts,
                                 int count, uint64_t seed);
unn::Engine::Config EngineConfig();
unn::serve::QueryServer::Options ServerOptions(const Workload& wl);

/// Outcome of one run: the last line of standard output.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  MetricList metrics;
};

/// Correctness of the answers a run sampled, against the reference.
class Checker {
 public:
  Checker(bool disk, uint64_t seed) : disk_(disk), seed_(seed) {}
  /// Checks the library's answers at `q` (one per spec) over `pts`.
  void Check(const std::vector<UncertainPoint>& pts, Vec2 q,
             const std::vector<std::pair<QuerySpec, QueryResult>>& answers);
  /// A cache hit against a fresh computation on the same snapshot.
  void CheckCacheHit(const QueryResult& cached, const QueryResult& fresh);
  /// Closes the Monte-Carlo tally (share of off queries within delta),
  /// then feeds every check one corrupted answer built from the first
  /// sampled point; each must refuse it and accept the uncorrupted one.
  void Finish();
  int checked() const { return checked_; }
  int self_tested() const { return self_tested_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void Expect(const std::string& reason);
  /// Self-test of one check: `good` must pass and `bad` must not.
  void Refuses(const char* check, const std::string& good, const std::string& bad);
  void SelfTest();

  bool disk_;
  uint64_t seed_;
  int checked_ = 0;
  int self_tested_ = 0;
  int off_ = 0, off_total_ = 0;
  std::vector<std::string> failures_;
  std::vector<UncertainPoint> st_pts_;  ///< First sample, for the self-test.
  Vec2 st_q_;
  QueryResult st_answer_;
};

RunResult RunUntraced(const Workload& wl, const Args& args, double t_start);
RunResult RunTraced(const Workload& wl, const Args& args, double t_start);

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_

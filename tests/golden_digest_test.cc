// Golden-answer digests: every public query path, hashed down to the exact
// bits of its answers (nn, each (id, pi) pair, each id) and compared against
// digests recorded from a known-good build. Inputs come from an in-test
// splitmix64 generator, so the digests depend on nothing but the library.
// A refactor that claims bit-identity must leave every digest unchanged;
// an intentional semantic change must update the table below and say why.
//
// Coverage: Engine::QueryMany at pack sizes {1, 7, 17} and the per-type
// single-query methods, for all five query types, every Backend, and the
// discrete and disk models (mixed sets under kAuto and kMonteCarlo only —
// the exact backends require a homogeneous model); ShardedEngine::QueryMany
// at K in {1, 2, 4} under both partitioners, with and without a pool;
// QueryServer::QueryBatch and Submit; and the direct queries of the five
// spatial-core structures (KdTree, DiskTree, ExpectedNn, LinfNonzeroIndex,
// QuantTree).

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/expected_nn.h"
#include "core/linf_nonzero_index.h"
#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "range/disk_tree.h"
#include "range/kdtree.h"
#include "serve/query_server.h"
#include "serve/request.h"
#include "serve/sharding.h"
#include "serve/thread_pool.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

// ---------------------------------------------------------------------------
// Deterministic inputs
// ---------------------------------------------------------------------------

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return SplitMix64(state_);
  }
  /// Uniform in [lo, hi), from the top 53 bits.
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

enum class Model { kDiscrete, kDisk, kMixed };

const char* ModelName(Model m) {
  switch (m) {
    case Model::kDiscrete:
      return "discrete";
    case Model::kDisk:
      return "disk";
    case Model::kMixed:
      return "mixed";
  }
  return "?";
}

UncertainPoint RandomDiscretePoint(Rng* rng) {
  Vec2 c{rng->Uniform(0, 10), rng->Uniform(0, 10)};
  std::vector<Vec2> sites;
  std::vector<double> weights;
  double total = 0;
  for (int j = 0; j < 3; ++j) {
    sites.push_back(
        {c.x + rng->Uniform(-0.8, 0.8), c.y + rng->Uniform(-0.8, 0.8)});
    weights.push_back(rng->Uniform(0.2, 1.0));
    total += weights.back();
  }
  for (double& w : weights) w /= total;
  return UncertainPoint::Discrete(std::move(sites), std::move(weights));
}

UncertainPoint RandomDiskPoint(Rng* rng) {
  Vec2 c{rng->Uniform(0, 10), rng->Uniform(0, 10)};
  return UncertainPoint::Disk(c, rng->Uniform(0.2, 1.2));
}

/// 24 discrete / 16 disk / 20 alternating points. Point 1 duplicates point
/// 0 so the tie-breaking rules (smaller id wins) are part of the digest.
std::vector<UncertainPoint> MakePoints(Model model) {
  Rng rng(0x5EED0000ULL + static_cast<uint64_t>(model));
  int n = model == Model::kDiscrete ? 24 : model == Model::kDisk ? 16 : 20;
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    bool disk =
        model == Model::kDisk || (model == Model::kMixed && i % 2 == 1);
    if (i == 1 && model != Model::kMixed) {
      pts.push_back(pts[0]);
      continue;
    }
    pts.push_back(disk ? RandomDiskPoint(&rng) : RandomDiscretePoint(&rng));
  }
  return pts;
}

/// 17 finite queries: three on data (a support center, the first discrete
/// site) and fourteen uniform over a box slightly larger than the data.
std::vector<Vec2> MakeQueries(const std::vector<UncertainPoint>& pts) {
  Rng rng(0xC0DE);
  std::vector<Vec2> qs;
  qs.push_back(pts[0].Bounds().Center());
  qs.push_back(pts[2].is_disk() ? pts[2].center() : pts[2].sites()[0]);
  qs.push_back(pts[3].Bounds().Center());
  while (qs.size() < 17) {
    qs.push_back({rng.Uniform(-1, 11), rng.Uniform(-1, 11)});
  }
  return qs;
}

Engine::Config GoldenConfig(Backend backend) {
  Engine::Config config;
  config.backend = backend;
  config.eps = 0.2;
  config.delta = 0.1;
  config.mc_samples_override = 24;
  return config;
}

const std::vector<Engine::QuerySpec>& Specs() {
  static const std::vector<Engine::QuerySpec> specs = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.3, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
      // tau <= 0: every id with its estimate (the one degenerate class
      // that consults a backend).
      {Engine::QueryType::kThreshold, 0.0, 1},
  };
  return specs;
}

const std::vector<std::pair<Backend, const char*>>& Backends() {
  static const std::vector<std::pair<Backend, const char*>> backends = {
      {Backend::kAuto, "auto"},
      {Backend::kBruteForce, "brute"},
      {Backend::kExpectedNn, "expected_nn"},
      {Backend::kSpiralSearch, "spiral"},
      {Backend::kMonteCarlo, "monte_carlo"},
      {Backend::kNonzeroVoronoi, "voronoi"},
      {Backend::kNonzeroIndex, "nonzero_index"},
      {Backend::kLinfIndex, "linf"},
  };
  return backends;
}

bool Covered(Model model, Backend backend) {
  return model != Model::kMixed || backend == Backend::kAuto ||
         backend == Backend::kMonteCarlo;
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

class Digest {
 public:
  void Add(uint64_t v) { h_ = SplitMix64(h_ ^ v); }
  void AddInt(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void AddDouble(double d) { Add(std::bit_cast<uint64_t>(d)); }
  void AddIds(const std::vector<int>& ids) {
    AddInt(static_cast<int64_t>(ids.size()));
    for (int id : ids) AddInt(id);
  }
  void AddRanked(const std::vector<std::pair<int, double>>& ranked) {
    AddInt(static_cast<int64_t>(ranked.size()));
    for (auto [id, pi] : ranked) {
      AddInt(id);
      AddDouble(pi);
    }
  }
  void AddResult(const Engine::QueryResult& r) {
    AddInt(r.nn);
    AddRanked(r.ranked);
    AddIds(r.ids);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x6A09E667F3BCC909ULL;
};

// Recorded from the build that introduced this test (Release, gcc 12,
// x86-64); Debug and the sanitizer builds must reproduce them exactly.
const std::map<std::string, uint64_t>& Golden() {
  static const std::map<std::string, uint64_t> golden = {
      {"engine/discrete/auto/query_many", 0xD6865C8D447E8130ULL},
      {"engine/discrete/brute/query_many", 0xC1E0B18FC1985989ULL},
      {"engine/discrete/expected_nn/query_many", 0xC1E0B18FC1985989ULL},
      {"engine/discrete/spiral/query_many", 0xD6865C8D447E8130ULL},
      {"engine/discrete/monte_carlo/query_many", 0xEF712767355C4AF3ULL},
      {"engine/discrete/voronoi/query_many", 0xC1E0B18FC1985989ULL},
      {"engine/discrete/nonzero_index/query_many", 0xC1E0B18FC1985989ULL},
      {"engine/discrete/linf/query_many", 0xC6065623CE613923ULL},
      {"engine/disk/auto/query_many", 0xE52F57085AFB81CBULL},
      {"engine/disk/brute/query_many", 0x881D511F5394112BULL},
      {"engine/disk/expected_nn/query_many", 0x881D511F5394112BULL},
      {"engine/disk/spiral/query_many", 0xD5B1CAA7224A40A8ULL},
      {"engine/disk/monte_carlo/query_many", 0xE52F57085AFB81CBULL},
      {"engine/disk/voronoi/query_many", 0x881D511F5394112BULL},
      {"engine/disk/nonzero_index/query_many", 0x881D511F5394112BULL},
      {"engine/disk/linf/query_many", 0x82953C3433495590ULL},
      {"engine/mixed/auto/query_many", 0xAC63D9AE480F0742ULL},
      {"engine/mixed/monte_carlo/query_many", 0xAC63D9AE480F0742ULL},
      {"engine/discrete/auto/per_type", 0xFFB45833A675C69FULL},
      {"engine/discrete/brute/per_type", 0x3FECA63E62811281ULL},
      {"engine/discrete/expected_nn/per_type", 0x3FECA63E62811281ULL},
      {"engine/discrete/spiral/per_type", 0xFFB45833A675C69FULL},
      {"engine/discrete/monte_carlo/per_type", 0x30AB29B29B710A4AULL},
      {"engine/discrete/voronoi/per_type", 0x3FECA63E62811281ULL},
      {"engine/discrete/nonzero_index/per_type", 0x3FECA63E62811281ULL},
      {"engine/discrete/linf/per_type", 0x77C2EC7F9CFB0C5CULL},
      {"engine/disk/auto/per_type", 0xC9DB9CBD2409FC6AULL},
      {"engine/disk/brute/per_type", 0x9EEBEE6D04713039ULL},
      {"engine/disk/expected_nn/per_type", 0x9EEBEE6D04713039ULL},
      {"engine/disk/spiral/per_type", 0xD06E237F30414357ULL},
      {"engine/disk/monte_carlo/per_type", 0xC9DB9CBD2409FC6AULL},
      {"engine/disk/voronoi/per_type", 0x9EEBEE6D04713039ULL},
      {"engine/disk/nonzero_index/per_type", 0x9EEBEE6D04713039ULL},
      {"engine/disk/linf/per_type", 0x4D6FEDD883C7FCD8ULL},
      {"engine/mixed/auto/per_type", 0xED0201FADBDC4E94ULL},
      {"engine/mixed/monte_carlo/per_type", 0xED0201FADBDC4E94ULL},
      {"sharded/discrete/auto/k1/round_robin", 0xD6865C8D447E8130ULL},
      {"sharded/discrete/auto/k1/spatial", 0xD6865C8D447E8130ULL},
      {"sharded/discrete/auto/k2/round_robin", 0x9930F67678EB1602ULL},
      {"sharded/discrete/auto/k2/spatial", 0x9930F67678EB1602ULL},
      {"sharded/discrete/auto/k4/round_robin", 0x2F6AEB5AC91321F1ULL},
      {"sharded/discrete/auto/k4/spatial", 0x9930F67678EB1602ULL},
      {"sharded/discrete/brute/k1/round_robin", 0xC1E0B18FC1985989ULL},
      {"sharded/discrete/brute/k1/spatial", 0xC1E0B18FC1985989ULL},
      {"sharded/discrete/brute/k2/round_robin", 0x9930F67678EB1602ULL},
      {"sharded/discrete/brute/k2/spatial", 0x9930F67678EB1602ULL},
      {"sharded/discrete/brute/k4/round_robin", 0x2F6AEB5AC91321F1ULL},
      {"sharded/discrete/brute/k4/spatial", 0x9930F67678EB1602ULL},
      {"sharded/disk/auto/k1/round_robin", 0xE52F57085AFB81CBULL},
      {"sharded/disk/auto/k1/spatial", 0xE52F57085AFB81CBULL},
      {"sharded/disk/auto/k2/round_robin", 0xC48F7792D30D63BAULL},
      {"sharded/disk/auto/k2/spatial", 0x2EF56275CE2EAF53ULL},
      {"sharded/disk/auto/k4/round_robin", 0xEC94015898A0836DULL},
      {"sharded/disk/auto/k4/spatial", 0xFA1C9157FC021AF0ULL},
      {"sharded/disk/brute/k1/round_robin", 0x881D511F5394112BULL},
      {"sharded/disk/brute/k1/spatial", 0x881D511F5394112BULL},
      {"sharded/disk/brute/k2/round_robin", 0x881D511F5394112BULL},
      {"sharded/disk/brute/k2/spatial", 0x881D511F5394112BULL},
      {"sharded/disk/brute/k4/round_robin", 0x881D511F5394112BULL},
      {"sharded/disk/brute/k4/spatial", 0x881D511F5394112BULL},
      {"sharded/mixed/auto/k1/round_robin", 0xAC63D9AE480F0742ULL},
      {"sharded/mixed/auto/k1/spatial", 0xAC63D9AE480F0742ULL},
      {"sharded/mixed/auto/k2/round_robin", 0xA909489F7BC2B35CULL},
      {"sharded/mixed/auto/k2/spatial", 0x2F155C19ECFF1102ULL},
      {"sharded/mixed/auto/k4/round_robin", 0xC9F65961748836C5ULL},
      {"sharded/mixed/auto/k4/spatial", 0x2C6CB02B39DB4AF3ULL},
      {"server/discrete/k1/nocache", 0x757DFB572551512EULL},
      {"server/discrete/k1/cache", 0xA1B0753300EF2B17ULL},
      {"server/discrete/k4/nocache", 0xA994E4080E9BE833ULL},
      {"server/discrete/k4/cache", 0x141D844D3AAA7234ULL},
      {"server/disk/k1/nocache", 0x946B4AEC8EA2B4D5ULL},
      {"server/disk/k1/cache", 0x09BF4782C6E616B4ULL},
      {"server/disk/k4/nocache", 0x5777357EAA60B736ULL},
      {"server/disk/k4/cache", 0xE88509404493C17AULL},
      {"structure/kdtree", 0x13B26682EA686823ULL},
      {"structure/disk_tree", 0xF6A9B34F32CAC440ULL},
      {"structure/expected_nn/discrete", 0x2E60602F477C3AB8ULL},
      {"structure/expected_nn/disk", 0x1DD06916584F80D7ULL},
      {"structure/expected_nn/mixed", 0xE59F764CF3A2BB65ULL},
      {"structure/linf_index", 0x2B1B7E6310AFE1FAULL},
      {"structure/quant_tree/discrete", 0x2139853D3A59D960ULL},
      {"structure/quant_tree/disk", 0x99FF1BBA91844A45ULL},
      {"structure/quant_tree/mixed", 0x9F31E2DCBEE7602FULL},
  };
  return golden;
}

void ExpectGolden(const std::string& name, uint64_t got) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIX64, got);
  auto it = Golden().find(name);
  if (it == Golden().end()) {
    ADD_FAILURE() << "no golden digest for " << name << "; computed {\""
                  << name << "\", " << hex << "ULL},";
    return;
  }
  EXPECT_EQ(it->second, got) << name << " computed {\"" << name << "\", "
                             << hex << "ULL},";
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(GoldenDigest, EngineQueryMany) {
  for (Model model : {Model::kDiscrete, Model::kDisk, Model::kMixed}) {
    auto pts = MakePoints(model);
    auto qs = MakeQueries(pts);
    for (auto [backend, backend_name] : Backends()) {
      if (!Covered(model, backend)) continue;
      Engine engine(pts, GoldenConfig(backend));
      Digest d;
      for (const auto& spec : Specs()) {
        for (size_t pack : {1, 7, 17}) {
          std::span<const Vec2> sub(qs.data(), pack);
          for (const auto& r : engine.QueryMany(sub, spec)) d.AddResult(r);
        }
      }
      ExpectGolden(std::string("engine/") + ModelName(model) + "/" +
                       backend_name + "/query_many",
                   d.value());
    }
  }
}

TEST(GoldenDigest, EnginePerTypeMethods) {
  for (Model model : {Model::kDiscrete, Model::kDisk, Model::kMixed}) {
    auto pts = MakePoints(model);
    auto qs = MakeQueries(pts);
    for (auto [backend, backend_name] : Backends()) {
      if (!Covered(model, backend)) continue;
      Engine engine(pts, GoldenConfig(backend));
      Digest d;
      for (Vec2 q : qs) {
        d.AddInt(engine.MostProbableNn(q));
        d.AddInt(engine.ExpectedDistanceNn(q));
        d.AddRanked(engine.Threshold(q, 0.3));
        d.AddRanked(engine.TopK(q, 3));
        d.AddIds(engine.NonzeroNn(q));
        d.AddRanked(engine.Probabilities(q));
        d.AddRanked(engine.Probabilities(q, 0.15));
      }
      for (const auto& probs : engine.ProbabilitiesMany(qs)) d.AddRanked(probs);
      ExpectGolden(std::string("engine/") + ModelName(model) + "/" +
                       backend_name + "/per_type",
                   d.value());
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------------

TEST(GoldenDigest, ShardedQueryMany) {
  serve::ThreadPool pool(3);
  const std::pair<serve::Partitioning, const char*> partitioners[] = {
      {serve::Partitioning::kRoundRobin, "round_robin"},
      {serve::Partitioning::kSpatial, "spatial"},
  };
  for (Model model : {Model::kDiscrete, Model::kDisk, Model::kMixed}) {
    auto pts = MakePoints(model);
    auto qs = MakeQueries(pts);
    for (Backend backend : {Backend::kAuto, Backend::kBruteForce}) {
      if (!Covered(model, backend)) continue;
      for (int k : {1, 2, 4}) {
        for (auto [partitioning, part_name] : partitioners) {
          serve::ShardingOptions options;
          options.num_shards = k;
          options.partitioning = partitioning;
          serve::ShardedEngine sharded(pts, GoldenConfig(backend), options);
          Digest serial;
          Digest pooled;
          for (const auto& spec : Specs()) {
            for (size_t pack : {1, 7, 17}) {
              std::span<const Vec2> sub(qs.data(), pack);
              for (const auto& r : sharded.QueryMany(sub, spec)) {
                serial.AddResult(r);
              }
              for (const auto& r : sharded.QueryMany(sub, spec, &pool)) {
                pooled.AddResult(r);
              }
            }
          }
          std::string name = std::string("sharded/") + ModelName(model) + "/" +
                             (backend == Backend::kAuto ? "auto" : "brute") +
                             "/k" + std::to_string(k) + "/" + part_name;
          // Scheduling never changes an answer.
          EXPECT_EQ(serial.value(), pooled.value()) << name;
          ExpectGolden(name, serial.value());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QueryServer
// ---------------------------------------------------------------------------

TEST(GoldenDigest, QueryServerBatchAndSubmit) {
  for (Model model : {Model::kDiscrete, Model::kDisk}) {
    auto pts = MakePoints(model);
    auto qs = MakeQueries(pts);
    std::vector<serve::Request> reqs;
    for (Vec2 q : qs) {
      for (const auto& spec : Specs()) reqs.push_back({q, spec});
    }
    for (int shards : {1, 4}) {
      for (bool cache : {false, true}) {
        serve::QueryServer::Options options;
        options.num_threads = 3;
        options.sharding.num_shards = shards;
        options.cache.max_bytes = cache ? (1u << 20) : 0;
        serve::QueryServer server(pts, GoldenConfig(Backend::kAuto), options);
        Digest d;
        // Batch first (computes, fills the cache), then every request
        // again through Submit (cache hits when the cache is on).
        for (const auto& resp : server.QueryBatch(reqs)) {
          d.AddResult(resp.result);
          d.AddInt(static_cast<int>(resp.source));
        }
        for (const auto& req : reqs) {
          serve::Response resp = server.Submit(req).get();
          d.AddResult(resp.result);
          d.AddInt(static_cast<int>(resp.source));
        }
        ExpectGolden(std::string("server/") + ModelName(model) + "/k" +
                         std::to_string(shards) +
                         (cache ? "/cache" : "/nocache"),
                     d.value());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Spatial-core structures, queried directly
// ---------------------------------------------------------------------------

std::vector<Vec2> RandomPlanePoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> out(n);
  for (Vec2& p : out) p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
  return out;
}

TEST(GoldenDigest, KdTree) {
  auto pts = RandomPlanePoints(64, 11);
  auto qs = RandomPlanePoints(17, 12);
  qs[0] = pts[5];
  range::KdTree tree(pts);
  Digest d;
  for (Vec2 q : qs) {
    double dist = 0;
    d.AddInt(tree.Nearest(q, &dist));
    d.AddDouble(dist);
    d.AddIds(tree.KNearest(q, 5));
    std::vector<int> in_range;
    tree.RangeCircle(q, 1.5, &in_range);
    d.AddIds(in_range);
  }
  ExpectGolden("structure/kdtree", d.value());
}

TEST(GoldenDigest, DiskTree) {
  auto centers = RandomPlanePoints(64, 13);
  Rng rng(14);
  std::vector<double> radii(centers.size());
  for (double& r : radii) r = rng.Uniform(0.05, 1.0);
  auto qs = RandomPlanePoints(17, 15);
  range::DiskTree tree(centers, radii);
  Digest d;
  for (Vec2 q : qs) {
    int arg = -1;
    double v = tree.MinMaxDist(q, &arg);
    d.AddDouble(v);
    d.AddInt(arg);
    std::vector<int> reported;
    tree.ReportMinDistLess(q, v * 1.1, &reported);
    d.AddIds(reported);
  }
  ExpectGolden("structure/disk_tree", d.value());
}

TEST(GoldenDigest, ExpectedNn) {
  for (Model model : {Model::kDiscrete, Model::kDisk, Model::kMixed}) {
    auto pts = MakePoints(model);
    auto qs = MakeQueries(pts);
    core::ExpectedNn index(pts);
    Digest d;
    for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
      d.AddDouble(index.mean(i).x);
      d.AddDouble(index.mean(i).y);
      d.AddDouble(index.variance(i));
    }
    for (Vec2 q : qs) {
      d.AddInt(index.QuerySquared(q));
      d.AddInt(index.QueryExpected(q, 1e-8));
      d.AddDouble(index.ExpectedDistance(0, q, 1e-8));
    }
    ExpectGolden(std::string("structure/expected_nn/") + ModelName(model),
                 d.value());
  }
}

TEST(GoldenDigest, LinfNonzeroIndex) {
  auto centers = RandomPlanePoints(48, 16);
  Rng rng(17);
  std::vector<core::SquareRegion> squares(centers.size());
  for (size_t i = 0; i < centers.size(); ++i) {
    squares[i] = {centers[i], rng.Uniform(0.05, 1.0)};
  }
  auto qs = RandomPlanePoints(17, 18);
  core::LinfNonzeroIndex index(squares);
  Digest d;
  for (Vec2 q : qs) {
    d.AddIds(index.Query(q));
    d.AddDouble(index.Delta(q));
  }
  ExpectGolden("structure/linf_index", d.value());
}

TEST(GoldenDigest, QuantTree) {
  for (Model model : {Model::kDiscrete, Model::kDisk, Model::kMixed}) {
    auto pts = MakePoints(model);
    auto qs = MakeQueries(pts);
    core::QuantTree tree(&pts);
    Digest d;
    for (Vec2 q : qs) {
      core::DeltaEnvelope env = tree.MaxDistEnvelope(q);
      d.AddDouble(env.best);
      d.AddDouble(env.second);
      d.AddInt(env.argbest);
      d.AddInt(tree.ArgminPointwise(
          q, [&](int id) { return pts[id].MaxDist(q); }));
      d.AddDouble(tree.LogSurvival(q, env.best * 0.95));
      d.AddDouble(tree.LogSurvival(q, env.best * 1.5));
    }
    ExpectGolden(std::string("structure/quant_tree/") + ModelName(model),
                 d.value());
  }
}

}  // namespace
}  // namespace unn

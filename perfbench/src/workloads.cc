#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>

#include "serve/request.h"
#include "workload/generators.h"

namespace pb {

using unn::serve::QueryServer;
using unn::serve::Request;
using unn::serve::Response;
using unn::serve::ResultSource;

bool FindWorkload(const std::string& name, Workload* out) {
  static const Workload kAll[] = {
      {.name = "batch-discrete", .n = 100000, .pack = 256, .prob_pack = 256, .rounds = 4, .replaces = 5},
      {.name = "online-sharded", .n = 100000, .shards = 4, .cache = true},
      {.name = "batch-disk", .disk = true, .n = 1000, .pack = 256, .prob_pack = 24, .rounds = 2, .replaces = 3},
  };
  for (const Workload& wl : kAll) {
    if (wl.name == name) {
      *out = wl;
      return true;
    }
  }
  return false;
}

const char* TypeName(QueryType type) {
  switch (type) {
    case QueryType::kMostProbableNn: return "mpnn";
    case QueryType::kExpectedDistanceNn: return "expd";
    case QueryType::kThreshold: return "threshold";
    case QueryType::kTopK: return "topk";
    case QueryType::kNonzeroNn: return "nonzero";
  }
  return "unknown";
}

std::vector<UncertainPoint> MakePoints(const Workload& wl, uint64_t seed) {
  return wl.disk ? unn::workload::RandomDisks(wl.n, seed)
                 : unn::workload::RandomDiscrete(wl.n, wl.sites, seed);
}

std::vector<UncertainPoint> Jitter(const std::vector<UncertainPoint>& pts,
                                   uint64_t seed, double amount) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> off(-amount, amount);
  std::vector<UncertainPoint> out;
  out.reserve(pts.size());
  for (const UncertainPoint& p : pts) {
    if (p.is_disk()) {
      Vec2 c = p.center();
      out.push_back(UncertainPoint::Disk({c.x + off(rng), c.y + off(rng)}, p.radius()));
      continue;
    }
    std::vector<Vec2> sites = p.sites();
    for (Vec2& s : sites) s = {s.x + off(rng), s.y + off(rng)};
    out.push_back(UncertainPoint::Discrete(std::move(sites), p.weights()));
  }
  return out;
}

std::vector<Vec2> UniformQueries(const std::vector<UncertainPoint>& pts,
                                 int count, uint64_t seed) {
  double x0 = 1e300, y0 = 1e300, x1 = -1e300, y1 = -1e300;
  for (const UncertainPoint& p : pts) {
    auto b = p.Bounds();
    x0 = std::min(x0, b.lo.x);
    y0 = std::min(y0, b.lo.y);
    x1 = std::max(x1, b.hi.x);
    y1 = std::max(y1, b.hi.y);
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(x0, x1), uy(y0, y1);
  std::vector<Vec2> out(count);
  for (Vec2& q : out) q = {ux(rng), uy(rng)};
  return out;
}

unn::Engine::Config EngineConfig() {
  unn::Engine::Config config;
  config.eps = kEps;
  config.delta = kDelta;
  return config;
}

QueryServer::Options ServerOptions(const Workload& wl) {
  QueryServer::Options opts;
  opts.num_threads = 2;
  opts.warm.assign(kTypes.begin(), kTypes.end());
  opts.sharding.num_shards = wl.shards;
  opts.sharding.partitioning = unn::serve::Partitioning::kSpatial;
  opts.cache.max_bytes = wl.cache ? (64u << 20) : 0;
  return opts;
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

namespace {

/// Reference Monte-Carlo samples per disk query: sigma <= 0.004.
constexpr int kDiskRefSamples = 16000;

std::vector<std::pair<int, double>> Ranked(const std::vector<std::pair<int, double>>& pi) {
  auto v = pi;
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return v;
}

/// An id of `pts` that `pi` gives probability 0.
int ZeroPiId(const std::vector<std::pair<int, double>>& pi, size_t n) {
  for (size_t id = 0; id < n; ++id) {
    bool present = false;
    for (auto [j, p] : pi) present = present || j == static_cast<int>(id);
    if (!present) return static_cast<int>(id);
  }
  return -1;
}

}  // namespace

void Checker::Expect(const std::string& reason) {
  if (reason.empty()) return;
  if (failures_.size() < 20) failures_.push_back(reason);
}

void Checker::Check(const std::vector<UncertainPoint>& pts, Vec2 q,
                    const std::vector<std::pair<QuerySpec, QueryResult>>& answers) {
  if (st_pts_.empty()) {
    st_pts_ = pts;
    st_q_ = q;
    st_answer_ = answers.front().second;
  }
  if (!disk_) {
    DiscreteRef ref = ReferenceDiscrete(pts, q);
    Expect(CheckReferenceConsistency(ref));
    for (const auto& [spec, ans] : answers) {
      Expect(CheckDiscrete(pts, ref, spec, ans));
      ++checked_;
    }
    return;
  }
  DiskRef ref = ReferenceDisk(pts, q, kDiskRefSamples, seed_ + checked_);
  for (const auto& [spec, ans] : answers) {
    ++checked_;
    if (spec.type == QueryType::kNonzeroNn ||
        spec.type == QueryType::kExpectedDistanceNn) {
      Expect(CheckDiskExact(pts, ref, spec, ans));
    } else {
      off_ += DiskProbabilityOff(ref, spec, ans) ? 1 : 0;
      ++off_total_;
    }
  }
}

void Checker::CheckCacheHit(const QueryResult& cached, const QueryResult& fresh) {
  Expect(CheckIdentical(cached, fresh));
  ++checked_;
}

void Checker::Finish() {
  if (off_ > DiskOffAllowance(off_total_)) {
    Expect("Monte-Carlo estimates: " + std::to_string(off_) + " of " +
           std::to_string(off_total_) + " queries off by more than eps");
  }
  if (st_pts_.empty()) {
    Expect("no answer was sampled for checking");
    return;
  }
  SelfTest();
}

void Checker::Refuses(const char* check, const std::string& good,
                      const std::string& bad) {
  ++self_tested_;
  if (!good.empty()) Expect(std::string("self-test: ") + check + " refuses a correct answer: " + good);
  if (bad.empty()) Expect(std::string("self-test: ") + check + " accepts a corrupted answer");
}

void Checker::SelfTest() {
  const auto& pts = st_pts_;
  const Vec2 q = st_q_;
  auto spec = [](QueryType t) { return SpecOf(t); };

  QueryResult bad_hit = st_answer_;
  if (!bad_hit.ids.empty()) {
    bad_hit.ids.pop_back();
  } else if (!bad_hit.ranked.empty()) {
    bad_hit.ranked.front().second += 1e-12;
  } else {
    bad_hit.nn += 1;
  }
  Refuses("cache-hit identity", CheckIdentical(st_answer_, st_answer_),
          CheckIdentical(bad_hit, st_answer_));

  QueryResult good, bad;
  if (!disk_) {
    DiscreteRef ref = ReferenceDiscrete(pts, q);
    const int zero = ZeroPiId(ref.pi, pts.size());
    auto ranked = Ranked(ref.pi);

    DiscreteRef bad_ref = ref;
    bad_ref.pi.erase(bad_ref.pi.begin());
    Refuses("reference consistency", CheckReferenceConsistency(ref),
            CheckReferenceConsistency(bad_ref));

    good = {}, bad = {};
    good.nn = ranked.front().first;
    bad.nn = zero;
    Refuses("MostProbableNn", CheckDiscrete(pts, ref, spec(QueryType::kMostProbableNn), good),
            CheckDiscrete(pts, ref, spec(QueryType::kMostProbableNn), bad));

    good = {}, bad = {};
    for (auto [id, p] : ranked) {
      if (p >= kTau) good.ranked.push_back({id, p});
    }
    bad = good;
    bad.ranked.push_back({zero, 0.0});
    Refuses("Threshold (reports below tau)", CheckDiscrete(pts, ref, spec(QueryType::kThreshold), good),
            CheckDiscrete(pts, ref, spec(QueryType::kThreshold), bad));
    if (!good.ranked.empty()) {
      bad = good;
      bad.ranked.erase(bad.ranked.begin());
      Refuses("Threshold (false negative)", "",
              CheckDiscrete(pts, ref, spec(QueryType::kThreshold), bad));
    }

    good = {}, bad = {};
    for (size_t i = 0; i < ranked.size() && static_cast<int>(i) < kTopK; ++i) {
      good.ranked.push_back(ranked[i]);
    }
    bad = good;
    bad.ranked.front() = {zero, 0.0};
    Refuses("TopK", CheckDiscrete(pts, ref, spec(QueryType::kTopK), good),
            CheckDiscrete(pts, ref, spec(QueryType::kTopK), bad));

    good = {}, bad = {};
    good.ids = ref.nonzero;
    bad.ids = ref.nonzero;
    bad.ids.erase(bad.ids.begin());
    Refuses("NonzeroNn", CheckDiscrete(pts, ref, spec(QueryType::kNonzeroNn), good),
            CheckDiscrete(pts, ref, spec(QueryType::kNonzeroNn), bad));

    good = {}, bad = {};
    double best = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      double e = ExpectedDistanceDiscrete(pts[i], q);
      if (e < best) {
        best = e;
        good.nn = static_cast<int>(i);
      }
    }
    bad.nn = zero;
    Refuses("ExpectedDistanceNn", CheckDiscrete(pts, ref, spec(QueryType::kExpectedDistanceNn), good),
            CheckDiscrete(pts, ref, spec(QueryType::kExpectedDistanceNn), bad));
    return;
  }

  DiskRef ref = ReferenceDisk(pts, q, kDiskRefSamples, seed_);
  const int zero = ZeroPiId(ref.pi, pts.size());
  auto ranked = Ranked(ref.pi);

  good = {}, bad = {};
  good.ids = ref.nonzero;
  bad.ids = ref.nonzero;
  bad.ids.erase(bad.ids.begin());
  Refuses("disk NonzeroNn", CheckDiskExact(pts, ref, spec(QueryType::kNonzeroNn), good),
          CheckDiskExact(pts, ref, spec(QueryType::kNonzeroNn), bad));

  good = {}, bad = {};
  size_t arg = 0;
  for (size_t c = 1; c < ref.expected.size(); ++c) {
    if (ref.expected[c].second < ref.expected[arg].second) arg = c;
  }
  good.nn = ref.expected[arg].first;
  bad.nn = zero;
  Refuses("disk ExpectedDistanceNn",
          CheckDiskExact(pts, ref, spec(QueryType::kExpectedDistanceNn), good),
          CheckDiskExact(pts, ref, spec(QueryType::kExpectedDistanceNn), bad));

  auto off = [&](QueryType t, const QueryResult& a) {
    return DiskProbabilityOff(ref, spec(t), a) ? std::string("off") : std::string();
  };
  good = {}, bad = {};
  good.nn = ranked.front().first;
  bad.nn = zero;
  Refuses("disk MostProbableNn", off(QueryType::kMostProbableNn, good),
          off(QueryType::kMostProbableNn, bad));

  good = {}, bad = {};
  for (auto [id, p] : ranked) {
    if (p >= kTau) good.ranked.push_back({id, p});
  }
  bad = good;
  bad.ranked.push_back({zero, kTau});
  Refuses("disk Threshold", off(QueryType::kThreshold, good), off(QueryType::kThreshold, bad));

  good = {}, bad = {};
  for (size_t i = 0; i < ranked.size() && static_cast<int>(i) < kTopK; ++i) {
    good.ranked.push_back(ranked[i]);
  }
  bad = good;
  for (auto& [id, est] : bad.ranked) est += 2 * kEps;
  Refuses("disk TopK", off(QueryType::kTopK, good), off(QueryType::kTopK, bad));

  Refuses("Monte-Carlo off-share tally", "",
          DiskOffAllowance(100) < 100 ? "refused" : "");
}

// ---------------------------------------------------------------------------
// Untraced runs: the end-to-end metrics
// ---------------------------------------------------------------------------

namespace {

/// Closed-loop single requests: sends one request at a time and waits
/// for its answer. Records client-side latencies in seconds, per-type
/// sums, and the steal share of every block of kBlock requests.
constexpr size_t kBlock = 1000;

struct ClosedLoop {
  std::vector<double> latency;
  std::vector<double> block_steal;
  std::array<double, 5> type_seconds{};
  std::array<int64_t, 5> type_count{};
  int64_t failed = 0;
  int64_t hits = 0;
  CpuTicks block_start = ReadCpuTicks();

  Response Send(QueryServer& server, const Request& req) {
    double t0 = NowS();
    Response resp = server.Submit(req).get();
    double dt = NowS() - t0;
    latency.push_back(dt);
    int t = static_cast<int>(req.spec.type);
    type_seconds[t] += dt;
    type_count[t] += 1;
    if (!resp.ok()) ++failed;
    if (resp.source == ResultSource::kCache) ++hits;
    if (latency.size() % kBlock == 0) {
      CpuTicks now = ReadCpuTicks();
      block_steal.push_back(StealShare(block_start, now));
      block_start = now;
    }
    return resp;
  }
};

/// A latency quantile robust to the machine's slow spells: each block of
/// kBlock consecutive requests (50 beyond a p95) gives its quantile, and
/// the result is their median over the less-stolen half of the blocks;
/// the whole sample when it holds fewer than three blocks.
double BlockQuantile(const ClosedLoop& loop, double q) {
  const std::vector<double>& latency = loop.latency;
  if (latency.size() < 3 * kBlock) return Quantile(latency, q);
  std::vector<double> per_block;
  for (size_t b = 0; b + kBlock <= latency.size(); b += kBlock) {
    per_block.push_back(Quantile({latency.begin() + b, latency.begin() + b + kBlock}, q));
  }
  return LessStolenMedian(per_block, loop.block_steal);
}

void ReportLatency(const ClosedLoop& loop, RunResult* out) {
  out->metrics.Set("p50_us", BlockQuantile(loop, 0.50) * 1e6, "us");
  out->metrics.Set("p95_us", BlockQuantile(loop, 0.95) * 1e6, "us");
}

/// The batch workloads: rounds of one phase of QueryBatch packs per query
/// type, then a closed-loop single-request probe, then the dataset
/// replacements.
void RunBatch(const Workload& wl, const Args& args, double t_start,
              RunResult* out) {
  std::vector<UncertainPoint> pts = MakePoints(wl, args.seed);
  QueryServer server(pts, EngineConfig(), ServerOptions(wl));
  out->metrics.Set("setup_s", NowS() - t_start, "s");

  const int checks = std::min(wl.prob_pack, wl.disk ? 24 : 48);
  std::vector<Vec2> check_q = UniformQueries(pts, checks, args.seed * 7919 + 1);
  std::vector<std::vector<std::pair<QuerySpec, QueryResult>>> answers(checks);

  // Rounds of one phase per type, so a slow spell of the machine falls on
  // every type alike. Each phase opens with an untimed pack that takes the
  // switch between types (the first one carries the checked points); a
  // type's rate is the median over its timed packs in the less-stolen
  // half of its phases.
  const double phase_s = 0.7 * args.seconds / (kTypes.size() * wl.rounds);
  std::array<std::vector<double>, kTypes.size()> rates, steal;
  for (int round = 0; round < wl.rounds; ++round) {
    for (size_t t = 0; t < kTypes.size(); ++t) {
      const QuerySpec spec = SpecOf(kTypes[t]);
      const int pack = IsProbability(kTypes[t]) ? wl.prob_pack : wl.pack;
      std::vector<Request> reqs(pack);
      std::vector<Vec2> qs = UniformQueries(pts, pack * 8, args.seed * 31 + t * 17 + round);
      for (int i = 0; i < pack; ++i) {
        reqs[i] = {round == 0 && i < checks ? check_q[i] : qs[i], spec};
      }
      std::vector<Response> first = server.QueryBatch(reqs);
      out->attempted += pack;
      for (const Response& r : first) out->failed += r.ok() ? 0 : 1;
      if (round == 0) {
        for (int i = 0; i < checks; ++i) answers[i].push_back({spec, first[i].result});
      }
      const double end = NowS() + phase_s;
      const CpuTicks phase_start = ReadCpuTicks();
      for (size_t p = 1; NowS() < end; ++p) {
        for (int i = 0; i < pack; ++i) {
          reqs[i] = {qs[(p * pack + i) % qs.size()], spec};
        }
        double t0 = NowS();
        std::vector<Response> resp = server.QueryBatch(reqs);
        rates[t].push_back(pack / (NowS() - t0));
        out->attempted += pack;
        for (const Response& r : resp) out->failed += r.ok() ? 0 : 1;
      }
      steal[t].resize(rates[t].size(), StealShare(phase_start, ReadCpuTicks()));
    }
  }
  for (size_t t = 0; t < kTypes.size(); ++t) {
    out->metrics.Set(std::string(TypeName(kTypes[t])) + "_qps",
                     LessStolenMedian(rates[t], steal[t]), "1/s");
  }

  // The single-request probe sends the three probability types in turn:
  // requests of one cost class, so its percentiles sit inside one
  // distribution instead of on the seam between cheap and costly types.
  ClosedLoop loop;
  std::vector<Vec2> probe = UniformQueries(pts, 8192, args.seed * 131 + 7);
  const double end = NowS() + 0.3 * args.seconds;
  for (size_t i = 0; NowS() < end;) {
    for (QueryType type : kProbeMix) loop.Send(server, {probe[i++ % probe.size()], SpecOf(type)});
  }
  out->attempted += static_cast<int64_t>(loop.latency.size());
  out->failed += loop.failed;
  ReportLatency(loop, out);

  std::vector<double> replace;
  for (int r = 0; r < wl.replaces; ++r) {
    std::vector<UncertainPoint> next = Jitter(pts, args.seed * 977 + r, 0.25);
    double t0 = NowS();
    server.ReplaceDataset(std::move(next));
    replace.push_back(NowS() - t0);
    ++out->attempted;
  }
  out->metrics.Set("replace_s", Median(replace), "s");
  out->metrics.Set("peak_rss_mb", StatusMb("VmHWM"), "MB");

  Checker checker(wl.disk, args.seed);
  for (int i = 0; i < checks; ++i) checker.Check(pts, check_q[i], answers[i]);
  checker.Finish();
  std::fprintf(stderr, "checked %d answers; self-test ran %d checks\n",
               checker.checked(), checker.self_tested());
  out->check_failures = checker.failures();
}

/// online-sharded: one closed-loop client, Zipf-skewed points from a fixed
/// pool, a fixed type mix, and a dataset replacement every
/// kRequestsPerSnapshot requests.
void RunOnline(const Workload& wl, const Args& args, double t_start,
               RunResult* out) {
  constexpr int kPool = 4096;
  constexpr double kZipf = 1.2;
  constexpr int kRequestsPerSnapshot = 6000;
  constexpr int kCheckEvery = 97, kHitCheckEvery = 61;

  std::vector<UncertainPoint> pts = MakePoints(wl, args.seed);
  QueryServer server(pts, EngineConfig(), ServerOptions(wl));
  out->metrics.Set("setup_s", NowS() - t_start, "s");

  std::vector<Vec2> pool = UniformQueries(pts, kPool, args.seed * 31 + 3);
  std::vector<int> zipf = unn::workload::ZipfIndices(1 << 18, kPool, kZipf, args.seed * 53 + 5);
  Checker checker(false, args.seed);
  ClosedLoop loop;
  // Per-type summed latency and count of each snapshot.
  std::vector<std::pair<std::array<double, 5>, std::array<int64_t, 5>>> generations;
  std::vector<double> generation_steal;
  std::vector<double> replace;
  std::vector<Request> sampled, sampled_hits;
  std::vector<QueryResult> sampled_ans, sampled_hit_ans;
  int64_t hit_seen = 0;

  // Checks the samples of the snapshot now serving (outside the timed
  // requests: the time spent here moves the deadline).
  auto flush = [&]() {
    double t0 = NowS();
    for (size_t i = 0; i < sampled.size(); ++i) {
      checker.Check(pts, sampled[i].q, {{sampled[i].spec, sampled_ans[i]}});
    }
    auto snap = server.sharded_snapshot();
    for (size_t i = 0; i < sampled_hits.size(); ++i) {
      std::span<const Vec2> one(&sampled_hits[i].q, 1);
      checker.CheckCacheHit(sampled_hit_ans[i], snap->QueryMany(one, sampled_hits[i].spec)[0]);
    }
    sampled.clear(), sampled_ans.clear(), sampled_hits.clear(), sampled_hit_ans.clear();
    return NowS() - t0;
  };

  // Whole snapshots: a run ends at the first snapshot boundary after its
  // time is up, so every run serves the same request schedule per snapshot.
  double end = NowS() + args.seconds;
  int64_t i = 0;
  CpuTicks generation_start = ReadCpuTicks();
  while (NowS() < end || i % kRequestsPerSnapshot != 0) {
    for (QueryType type : kMix) {
      Request req{pool[zipf[i % zipf.size()]], SpecOf(type)};
      Response resp = loop.Send(server, req);
      if (i % kCheckEvery == 0) {
        sampled.push_back(req);
        sampled_ans.push_back(resp.result);
      }
      if (resp.source == ResultSource::kCache && hit_seen++ % kHitCheckEvery == 0) {
        sampled_hits.push_back(req);
        sampled_hit_ans.push_back(resp.result);
      }
      ++i;
    }
    if (i % kRequestsPerSnapshot == 0) {
      CpuTicks now = ReadCpuTicks();
      generations.push_back({loop.type_seconds, loop.type_count});
      generation_steal.push_back(StealShare(generation_start, now));
      generation_start = now;
      loop.type_seconds = {};
      loop.type_count = {};
    }
    if (i % kRequestsPerSnapshot == 0 && NowS() < end) {
      end += flush();
      std::vector<UncertainPoint> next = Jitter(pts, args.seed * 977 + i, 0.25);
      double t0 = NowS();
      server.ReplaceDataset(next);
      replace.push_back(NowS() - t0);
      pts = std::move(next);
      ++out->attempted;
    }
  }
  flush();
  out->attempted += static_cast<int64_t>(loop.latency.size());
  out->failed += loop.failed;

  // A type's rate is the median, over the less-stolen half of the
  // snapshots, of its requests per second of their summed latency: every
  // snapshot serves the same schedule, from a cold cache to a warm one.
  for (size_t t = 0; t < kTypes.size(); ++t) {
    std::vector<double> rates;
    for (const auto& [seconds, count] : generations) rates.push_back(count[t] / seconds[t]);
    out->metrics.Set(std::string(TypeName(kTypes[t])) + "_qps",
                     LessStolenMedian(rates, generation_steal), "1/s");
  }
  if (replace.empty()) {
    // A run too short to reach the schedule still measures the write path.
    std::vector<UncertainPoint> next = Jitter(pts, args.seed * 977, 0.25);
    double t0 = NowS();
    server.ReplaceDataset(std::move(next));
    replace.push_back(NowS() - t0);
    ++out->attempted;
  }
  out->metrics.Set("replace_s", Median(replace), "s");
  out->metrics.Set("peak_rss_mb", StatusMb("VmHWM"), "MB");
  ReportLatency(loop, out);
  std::fprintf(stderr, "requests %zu, cache hits %lld, replaces %zu\n",
               loop.latency.size(), static_cast<long long>(loop.hits), replace.size());

  checker.Finish();
  std::fprintf(stderr, "checked %d answers; self-test ran %d checks\n",
               checker.checked(), checker.self_tested());
  out->check_failures = checker.failures();
}

}  // namespace

RunResult RunUntraced(const Workload& wl, const Args& args, double t_start) {
  RunResult out;
  if (wl.shards > 1) {
    RunOnline(wl, args, t_start, &out);
  } else {
    RunBatch(wl, args, t_start, &out);
  }
  return out;
}

}  // namespace pb

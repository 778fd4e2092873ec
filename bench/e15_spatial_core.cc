// Experiment E15 — the vectorized batch traversal (spatial/batch.h)
// through Engine::QueryMany, against the per-query scalar kernel loop it
// replaces, for all five query types. Each row times the scalar side — a
// loop over the structure's scalar query (core::ExpectedNn::QueryExpected,
// core::MonteCarloPnn::Query, core::NnNonzeroDiscreteIndex::Query),
// finished through the shared query_contract rules exactly as
// Engine::QueryMany finishes its packs — against Engine::QueryMany on the
// same queries, requires bit-identical answers (a mismatch fails the
// run), and reports the packs' SIMD lane utilization.
//
// The batched_qm row is the expected-distance workload on discrete
// points. The other four rows are MostProbableNn / Threshold / TopK on a
// disk workload (the Monte-Carlo backend, whose batched path runs
// NearestBatch across every instantiation) and NonzeroNn on a discrete
// workload (the Theorem 3.2 index's DeltaPairBatch walk). Each row
// reports batched_speedup / lane_utilization / scalar_replays plus the
// lane ISA and NUMA node count as provenance; CI's bench smoke gates
// batched_qm at >= 1.5x and the other four at >= 1.2x, all with zero
// mismatches. Bit-identity of the spatial-core structures themselves is
// pinned by tests/golden_digest_test.cc.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "bench_util.h"
#include "core/expected_nn.h"
#include "core/monte_carlo_pnn.h"
#include "core/nn_nonzero_discrete_index.h"
#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "engine/query_contract.h"
#include "geom/lanes.h"
#include "spatial/batch.h"
#include "util/numa.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

namespace {

/// One output row. The legacy_* fields are the scalar kernel loop and
/// the new_* fields Engine::QueryMany; their names are the JSON keys
/// downstream readers (CI's bench smoke, BENCH_*.json) track.
struct Row {
  const char* structure;
  double legacy_build_ms = 0, new_build_ms = 0;
  double legacy_query_us = 0, new_query_us = 0;
  size_t mismatches = 0;
};

void Print(const Row& r, int n, bench::JsonEmitter* json) {
  printf("%-18s %9d %12.2f %12.2f %12.3f %12.3f%s\n", r.structure, n,
         r.legacy_build_ms, r.new_build_ms, r.legacy_query_us,
         r.new_query_us, r.mismatches ? "  MISMATCH" : "");
  json->StartRow();
  json->Metric("n", n);
  json->Str("structure", r.structure);
  json->Metric("legacy_build_ms", r.legacy_build_ms);
  json->Metric("new_build_ms", r.new_build_ms);
  json->Metric("legacy_query_us", r.legacy_query_us);
  json->Metric("new_query_us", r.new_query_us);
  json->Metric("query_speedup_vs_legacy",
               r.legacy_query_us / std::max(r.new_query_us, 1e-9));
  json->Metric("mismatches", static_cast<double>(r.mismatches));
}

bool Same(const Engine::QueryResult& a, const Engine::QueryResult& b) {
  return a.nn == b.nn && a.ranked == b.ranked && a.ids == b.ids;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e15");
  printf("E15: batched Engine::QueryMany vs the scalar kernel loop\n");
  printf("%-18s %9s %12s %12s %12s %12s\n", "structure", "n", "scl_bld_ms",
         "bat_bld_ms", "scl_qry_us", "bat_qry_us");

  size_t total_mismatches = 0;
  auto sizes = bench::Sweep<int>(args.tiny, {2000}, {20000, 200000});
  for (int n : sizes) {
    double extent = 2.5 * std::sqrt(static_cast<double>(n));

    // --- Expected-distance NN: scalar kernel loop vs Engine::QueryMany ----
    {
      Row row{"batched_qm"};
      auto upts = workload::RandomDiscrete(n, 6, 157);
      // The scalar side is a full per-query scan, so cap the batch at
      // large n to keep the full sweep's wall clock sane.
      const int batch_queries = (args.tiny || n >= 100000) ? 512 : 2048;
      auto bqs = bench::RandomQueries(batch_queries, extent, 158);
      const Engine::QuerySpec spec{Engine::QueryType::kExpectedDistanceNn,
                                   0.5, 1};
      const double tol = Engine::Config{}.tol;

      bench::Timer tl;
      core::ExpectedNn scalar(upts);
      row.legacy_build_ms = tl.Ms();
      bench::Timer tn;
      Engine batched(upts);
      batched.Warmup(spec);
      row.new_build_ms = tn.Ms();

      // Exactness first: batching must never change an answer.
      auto batched_res = batched.QueryMany(bqs, spec);
      for (size_t i = 0; i < bqs.size(); ++i) {
        if (batched_res[i].nn != scalar.QueryExpected(bqs[i], tol)) {
          ++row.mismatches;
        }
      }

      size_t sink = 0;  // Keeps the timed scalar answers observable.
      bench::Timer ql;
      for (Vec2 q : bqs) {
        sink += static_cast<size_t>(scalar.QueryExpected(q, tol));
      }
      row.legacy_query_us = ql.Ms() * 1000.0 / batch_queries;
      bench::Timer qn;
      batched.QueryMany(bqs, spec);
      row.new_query_us = qn.Ms() * 1000.0 / batch_queries;
      if (sink == 0) printf("(degenerate answers)\n");

      // Lane utilization of the underlying kernel on the same workload.
      std::vector<int> ids(bqs.size());
      spatial::BatchStats stats;
      scalar.QueryExpectedBatch(bqs, tol, ids, &stats);

      total_mismatches += row.mismatches;
      Print(row, n, &json);
      json.Metric("batched_speedup",
                  row.legacy_query_us / std::max(row.new_query_us, 1e-9));
      json.Metric("lane_utilization", stats.LaneUtilization());
      json.Metric("scalar_replays", static_cast<double>(stats.scalar_replays));
      printf("%-18s %9d  batched_speedup %.2fx  lane_utilization %.2f\n",
             "  (batch)", n,
             row.legacy_query_us / std::max(row.new_query_us, 1e-9),
             stats.LaneUtilization());
    }

    // --- Remaining four query types: scalar kernel loop vs QueryMany ------
    {
      // Serving-representative bursts: pack coherence — and so the
      // whole point of batching — scales with query density, and 256
      // queries over the workload extent leave packs spatially sparse
      // enough to undersell every kernel. 1024 is the smallest burst
      // where the Monte-Carlo-backed kernels' utilization stabilizes.
      // The NN!=0 engine answers a query ~50x cheaper than those, so a
      // burst collected over the same serving window holds
      // proportionally more of them — its part uses the same scale-up
      // (and its shared group-tree walk only reaches its serving
      // utilization at that density).
      // Disks resolve the probability backend to Monte Carlo; the sample
      // override keeps the sweep's wall clock proportional to the
      // traversal being measured, not the theorem's constants.
      auto disk_pts = workload::RandomDisks(n, 160);
      auto disc_pts = workload::RandomDiscrete(n, 4, 161);
      Engine::Config cfg;
      cfg.mc_samples_override = 96;
      Engine batched_disk(disk_pts, cfg);
      Engine batched_disc(disc_pts, cfg);
      // The scalar kernels the batched engines answer through, built with
      // the engines' own parameters (every part below asks for accuracy
      // Config::eps: the threshold part's tau/2 is looser).
      core::MonteCarloPnnOptions mc_opts;
      mc_opts.eps = cfg.eps;
      mc_opts.delta = cfg.delta;
      mc_opts.seed = cfg.seed;
      mc_opts.s_override = cfg.mc_samples_override;
      core::MonteCarloPnn disk_mc(disk_pts, mc_opts);
      core::NnNonzeroDiscreteIndex disc_nonzero(disc_pts);

      struct Part {
        const char* structure;
        Engine::QuerySpec spec;
        bool disks;
        int burst;
      };
      const Part parts[] = {
          {"batched_mpnn",
           {Engine::QueryType::kMostProbableNn, 0.5, 1},
           true, 1024},
          {"batched_threshold",
           {Engine::QueryType::kThreshold, 0.25, 1},
           true, 1024},
          {"batched_topk", {Engine::QueryType::kTopK, 0.5, 8}, true, 1024},
          {"batched_nonzero",
           {Engine::QueryType::kNonzeroNn, 0.5, 1},
           false, 8192},
      };
      for (const Part& part : parts) {
        Row row{part.structure};
        auto bqs = bench::RandomQueries(part.burst, extent, 159);
        const Engine& batched = part.disks ? batched_disk : batched_disc;
        batched.Warmup(part.spec);
        // What QueryMany's pack dispatch does per query, one query at a
        // time: the scalar kernel plus the shared finishing rules.
        auto scalar_pass = [&](std::span<const Vec2> qs) {
          std::vector<Engine::QueryResult> out(qs.size());
          for (size_t i = 0; i < qs.size(); ++i) {
            if (part.disks) {
              out[i] = query_contract::FinishProbabilityQuery(
                  disk_mc.Query(qs[i]), part.spec, /*exact=*/false, cfg.eps);
            } else {
              out[i].ids = disc_nonzero.Query(qs[i]);
            }
          }
          return out;
        };

        // Exactness first: batching must never change an answer.
        auto want = scalar_pass(bqs);
        auto got = batched.QueryMany(bqs, part.spec);
        for (size_t i = 0; i < bqs.size(); ++i) {
          if (!Same(got[i], want[i])) ++row.mismatches;
        }

        // Best-of-3 interleaved passes: each section is only a few
        // milliseconds at the small sizes, where a single shot is at the
        // mercy of frequency and scheduler jitter; the per-side minimum
        // is the stable estimator the smoke gate compares.
        double scalar_ms = std::numeric_limits<double>::infinity();
        double batched_ms = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 3; ++rep) {
          bench::Timer ql;
          scalar_pass(bqs);
          scalar_ms = std::min(scalar_ms, ql.Ms());
          bench::Timer qn;
          batched.QueryMany(bqs, part.spec);
          batched_ms = std::min(batched_ms, qn.Ms());
        }
        row.legacy_query_us = scalar_ms * 1000.0 / part.burst;
        row.new_query_us = batched_ms * 1000.0 / part.burst;

        // Lane utilization / replay counts of the dominant kernel on the
        // same workload (QueryMany itself does not expose pack stats).
        spatial::BatchStats stats;
        if (part.disks) {
          disk_mc.QueryBatch(bqs, &stats);
        } else {
          disc_nonzero.QueryBatch(bqs, &stats);
        }

        total_mismatches += row.mismatches;
        Print(row, n, &json);
        json.Metric("batched_speedup",
                    row.legacy_query_us / std::max(row.new_query_us, 1e-9));
        json.Metric("lane_utilization", stats.LaneUtilization());
        json.Metric("scalar_replays",
                    static_cast<double>(stats.scalar_replays));
        json.Str("lane_isa", geom::LaneIsaName());
        json.Metric("numa_nodes",
                    static_cast<double>(util::DetectNumaTopology().num_nodes()));
        printf("%-18s %9d  batched_speedup %.2fx  lane_utilization %.2f\n",
               "  (batch)", n,
               row.legacy_query_us / std::max(row.new_query_us, 1e-9),
               stats.LaneUtilization());
      }
    }
  }

  printf("total mismatches vs the scalar kernels: %zu %s\n", total_mismatches,
         total_mismatches == 0 ? "(bit-identical)" : "");
  // Any disagreement with the scalar kernels is a correctness regression
  // in the batch traversal: fail the run so CI catches it.
  return (json.Write(args.json_path) && total_mismatches == 0) ? 0 : 1;
}

// Serving-layer demo: a QueryServer fans a batch across its worker pool,
// answers async single queries, and swaps the dataset atomically while
// old-snapshot holders keep serving.
//
//   cmake -B build && cmake --build build --target serve_throughput
//   ./build/serve_throughput

#include <cstdio>
#include <vector>

#include "engine/engine.h"
#include "serve/query_server.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

int main() {
  // A server over 2000 uncertain points, warmed for most-probable-NN
  // traffic so no query pays the spiral-search build.
  auto day_one = workload::RandomDiscrete(2000, 3, /*seed=*/1, /*spread=*/3.0);
  serve::QueryServer server(
      day_one, Engine::Config{},
      {.num_threads = 4, .warm = {Engine::QueryType::kMostProbableNn}});
  printf("serving %d points on %d worker threads (+ caller)\n",
         server.snapshot()->size(), server.pool().num_threads());

  // Blocking batched API: results[i] answers queries[i], sharded across
  // the pool.
  std::vector<serve::Request> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(
        {{i * 2.0 - 7.0, 1.0}, {Engine::QueryType::kMostProbableNn}});
  }
  auto responses = server.QueryBatch(batch);
  printf("batch of %zu: most probable NN =", batch.size());
  for (const auto& r : responses) printf(" P%d", r.result.nn);
  printf("\n");

  // Async API: Submit returns a future; the query runs on a worker.
  auto fut = server.Submit({{0.5, 0.5}, {Engine::QueryType::kTopK, 0.5, 3}});
  printf("top-3 at (0.5, 0.5):");
  for (auto [id, pi] : fut.get().result.ranked) printf("  P%d (%.3f)", id, pi);
  printf("\n");

  // Atomic dataset replacement: a pinned snapshot keeps answering for the
  // old dataset; new requests see the new one immediately.
  auto pinned = server.snapshot();
  auto day_two = workload::RandomDiscrete(3000, 3, /*seed=*/2, /*spread=*/3.0);
  server.ReplaceDataset(day_two);
  printf("swapped datasets: pinned snapshot still has %d points, server now "
         "serves %d\n",
         pinned->size(), server.snapshot()->size());

  auto stats = server.stats();
  printf("stats: %llu queries, %llu batches, %llu swaps\n",
         static_cast<unsigned long long>(stats.queries),
         static_cast<unsigned long long>(stats.batches),
         static_cast<unsigned long long>(stats.swaps));
  return 0;
}

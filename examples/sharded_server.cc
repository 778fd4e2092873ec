// Sharding demo: one dataset partitioned across four Engines behind a
// QueryServer, queries fanned out to every shard and merged — then the
// whole shard set is atomically swapped for a re-partitioned one
// (different shard count) while a pinned snapshot keeps serving.
//
//   cmake -B build && cmake --build build --target sharded_server
//   ./build/sharded_server

#include <cstdio>
#include <vector>

#include "engine/engine.h"
#include "serve/query_server.h"
#include "serve/sharding.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

int main() {
  // 4000 uncertain points, partitioned spatially into 4 shards; each
  // shard is an independent Engine built in parallel on the pool.
  auto pts = workload::RandomDiscrete(4000, 3, /*seed=*/11, /*spread=*/3.0);
  serve::QueryServer server(
      pts, Engine::Config{},
      {.num_threads = 4,
       .warm = {Engine::QueryType::kMostProbableNn},
       .sharding = {4, serve::Partitioning::kSpatial}});
  auto snap = server.sharded_snapshot();
  printf("serving %d points as %d shards:", snap->size(), snap->num_shards());
  for (int s = 0; s < snap->num_shards(); ++s) {
    printf(" %d", snap->shard(s).size());
  }
  printf(" points\n");

  // The query surface is the same as a single Engine's — answers carry
  // global ids and match the unsharded semantics (exactly, for the
  // NN!=0 / expected-distance merges and exact-backend probability
  // merges; see docs/QUERY_SEMANTICS.md).
  std::vector<serve::Request> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(
        {{i * 2.0 - 7.0, 1.0}, {Engine::QueryType::kMostProbableNn}});
  }
  auto responses = server.QueryBatch(batch);
  printf("batch of %zu: most probable NN =", batch.size());
  for (const auto& r : responses) printf(" P%d", r.result.nn);
  printf("\n");

  auto fut = server.Submit({{0.5, 0.5}, {Engine::QueryType::kNonzeroNn}});
  auto ids = fut.get().result.ids;
  printf("NN!=0 at (0.5, 0.5): %zu candidates (exact cross-shard merge)\n",
         ids.size());

  // Direct ShardedEngine use, fanning one query across a caller pool:
  Vec2 q{0.5, 0.5};
  auto top = snap->QueryMany({&q, 1}, {Engine::QueryType::kTopK, 0.5, 3},
                             &server.pool())[0]
                 .ranked;
  printf("top-3 at (0.5, 0.5):");
  for (auto [id, pi] : top) printf("  P%d (%.3f)", id, pi);
  printf("\n");

  // Reshard mid-flight: swap in the same dataset as 8 round-robin shards.
  // A pinned snapshot keeps answering on the old partitioning.
  auto pinned = server.sharded_snapshot();
  server.ReplaceDataset(pts, {8, serve::Partitioning::kRoundRobin});
  printf("resharded: pinned snapshot has %d shards, server now %d\n",
         pinned->num_shards(), server.sharded_snapshot()->num_shards());

  auto stats = server.stats();
  printf("stats: %llu queries, %llu batches, %llu swaps\n",
         static_cast<unsigned long long>(stats.queries),
         static_cast<unsigned long long>(stats.batches),
         static_cast<unsigned long long>(stats.swaps));
  return 0;
}

#ifndef UNN_TESTS_QUERY_HELPERS_H_
#define UNN_TESTS_QUERY_HELPERS_H_

// Shorthands the tests share: ShardedEngine and QueryServer answer only
// through their batched APIs (QueryMany, Request-based Submit/QueryBatch),
// so per-type assertions go through these packs of one and uniform
// batches to stay readable.

#include <span>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "geom/vec2.h"
#include "serve/query_server.h"
#include "serve/request.h"
#include "serve/sharding.h"
#include "serve/thread_pool.h"

namespace unn {
namespace test {

/// ShardedEngine::QueryMany over a pack of one.
inline Engine::QueryResult Single(const serve::ShardedEngine& engine,
                                  geom::Vec2 q, const Engine::QuerySpec& spec,
                                  serve::ThreadPool* pool = nullptr) {
  return std::move(engine.QueryMany({&q, 1}, spec, pool)[0]);
}

inline int MostProbableNn(const serve::ShardedEngine& engine, geom::Vec2 q,
                          serve::ThreadPool* pool = nullptr) {
  return Single(engine, q, {Engine::QueryType::kMostProbableNn}, pool).nn;
}

inline int ExpectedDistanceNn(const serve::ShardedEngine& engine,
                              geom::Vec2 q,
                              serve::ThreadPool* pool = nullptr) {
  return Single(engine, q, {Engine::QueryType::kExpectedDistanceNn}, pool).nn;
}

inline std::vector<std::pair<int, double>> Threshold(
    const serve::ShardedEngine& engine, geom::Vec2 q, double tau,
    serve::ThreadPool* pool = nullptr) {
  return Single(engine, q, {Engine::QueryType::kThreshold, tau}, pool).ranked;
}

inline std::vector<std::pair<int, double>> TopK(
    const serve::ShardedEngine& engine, geom::Vec2 q, int k,
    serve::ThreadPool* pool = nullptr) {
  return Single(engine, q, {Engine::QueryType::kTopK, 0.5, k}, pool).ranked;
}

inline std::vector<int> NonzeroNn(const serve::ShardedEngine& engine,
                                  geom::Vec2 q,
                                  serve::ThreadPool* pool = nullptr) {
  return Single(engine, q, {Engine::QueryType::kNonzeroNn}, pool).ids;
}

/// One spec for every point through QueryServer::QueryBatch, results only.
inline std::vector<Engine::QueryResult> BatchResults(
    serve::QueryServer& server, std::span<const geom::Vec2> queries,
    const Engine::QuerySpec& spec) {
  std::vector<serve::Request> requests;
  requests.reserve(queries.size());
  for (geom::Vec2 q : queries) requests.push_back({q, spec});
  std::vector<Engine::QueryResult> results;
  results.reserve(queries.size());
  for (auto& resp : server.QueryBatch(requests)) {
    results.push_back(std::move(resp.result));
  }
  return results;
}

}  // namespace test
}  // namespace unn

#endif  // UNN_TESTS_QUERY_HELPERS_H_

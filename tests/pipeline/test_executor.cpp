#include "pipeline/executor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "datasets/catalog.hpp"
#include "pipeline/workload.hpp"

namespace gt::pipeline {
namespace {

struct Env {
  Dataset data = generate("products", 11);
  sampling::ReindexFormats formats{.coo = true, .csr = true, .csc = true};
  PreprocExecutor exec{data.csr, data.embeddings, data.spec.fanout, 2, 99,
                       formats};
};

TEST(PreprocExecutor, SerialProducesConsistentLayers) {
  Env env;
  auto batch = env.exec.sampler().pick_batch(100, 0);
  PreprocResult r = env.exec.run(batch);
  ASSERT_EQ(r.layers.size(), 2u);
  EXPECT_EQ(r.embeddings.rows(), r.batch.total_vertices());
  EXPECT_EQ(r.embeddings.cols(), env.data.spec.feature_dim);
  EXPECT_EQ(r.layers[0].n_dst, r.batch.layer_dst(0));
  EXPECT_EQ(r.layers[1].n_vertices, r.layers[0].n_dst);
  EXPECT_TRUE(r.layers[0].csr.valid());
  EXPECT_TRUE(r.layers[0].csc.valid());
}

TEST(PreprocExecutor, ParallelMatchesSerialExactly) {
  // The service-wide executor's determinism contract: A chunks + ordered H
  // updates reproduce the serial result bit-for-bit, with the same hash
  // traffic — for one chunk, for more chunks than any frontier has
  // vertices, and for chunks run inline without a pool.
  Env env;
  ThreadPool pool(4);
  const std::pair<ThreadPool*, std::size_t> configs[] = {
      {&pool, 1}, {&pool, 5}, {&pool, 4096}, {nullptr, 5}};
  for (std::uint64_t b = 0; b < 3; ++b) {
    auto batch = env.exec.sampler().pick_batch(80, b);
    PreprocResult serial = env.exec.run(batch);
    ASSERT_LT(serial.batch.total_vertices(), 4096u);
    for (const auto& [p, chunks] : configs) {
      SCOPED_TRACE("batch " + std::to_string(b) + " chunks " +
                   std::to_string(chunks) + (p ? " pooled" : " inline"));
      PreprocResult parallel = env.exec.run(batch, p, chunks);
      EXPECT_EQ(serial.batch.vid_order, parallel.batch.vid_order);
      EXPECT_EQ(serial.batch.set_sizes, parallel.batch.set_sizes);
      ASSERT_EQ(serial.batch.hops.size(), parallel.batch.hops.size());
      for (std::size_t h = 0; h < serial.batch.hops.size(); ++h) {
        EXPECT_EQ(serial.batch.hops[h].src, parallel.batch.hops[h].src);
        EXPECT_EQ(serial.batch.hops[h].dst, parallel.batch.hops[h].dst);
      }
      ASSERT_EQ(serial.layers.size(), parallel.layers.size());
      for (std::size_t l = 0; l < serial.layers.size(); ++l) {
        EXPECT_EQ(serial.layers[l].csr, parallel.layers[l].csr)
            << "layer " << l;
        EXPECT_EQ(serial.layers[l].csc, parallel.layers[l].csc);
        EXPECT_EQ(serial.layers[l].coo, parallel.layers[l].coo);
      }
      EXPECT_EQ(serial.embeddings, parallel.embeddings);
      EXPECT_EQ(serial.hash_acquisitions, parallel.hash_acquisitions);
    }
  }
}

TEST(PreprocExecutor, ChunkCountDoesNotChangeResult) {
  Env env;
  ThreadPool pool(3);
  auto batch = env.exec.sampler().pick_batch(60, 1);
  PreprocResult a = env.exec.run(batch, &pool, 2);
  PreprocResult b = env.exec.run(batch, &pool, 9);
  EXPECT_EQ(a.batch.vid_order, b.batch.vid_order);
  EXPECT_EQ(a.embeddings, b.embeddings);
}

TEST(PreprocExecutor, ReportsHashTraffic) {
  Env env;
  auto batch = env.exec.sampler().pick_batch(50, 2);
  PreprocResult r = env.exec.run(batch);
  // At least one op per batch vertex, per sampled edge (insert), and two
  // lookups per reindexed edge.
  std::uint64_t reindexed = 0;
  for (const auto& l : r.layers) reindexed += l.hash_lookups;
  std::uint64_t sampled_edges = 0;
  for (const auto& hop : r.batch.hops) sampled_edges += hop.num_edges();
  EXPECT_GE(r.hash_acquisitions, batch.size() + sampled_edges + reindexed);
}

TEST(Workload, DerivedCountsMatchBatch) {
  Env env;
  auto batch_vids = env.exec.sampler().pick_batch(70, 3);
  PreprocResult r = env.exec.run(batch_vids);
  BatchWorkload w = workload_from(r.batch, env.data.spec.feature_dim);
  EXPECT_EQ(w.num_layers, 2u);
  EXPECT_EQ(w.batch_size, 70u);
  EXPECT_EQ(w.total_vertices, r.batch.total_vertices());
  EXPECT_EQ(w.hops.size(), 2u);
  EXPECT_EQ(w.hops[0].edges, r.batch.hops[0].num_edges());
  EXPECT_EQ(w.hops[0].new_vertices + w.hops[1].new_vertices + 70,
            w.total_vertices);
  EXPECT_EQ(w.layer_reindex_edges[0], r.batch.layer_edges(0));
  EXPECT_EQ(w.embedding_bytes(),
            r.batch.total_vertices() * env.data.spec.feature_dim *
                sizeof(float));
}

}  // namespace
}  // namespace gt::pipeline

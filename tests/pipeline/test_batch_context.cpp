#include "pipeline/batch_context.hpp"

#include <gtest/gtest.h>

#include "datasets/catalog.hpp"
#include "tensor/matrix.hpp"

namespace gt::pipeline {
namespace {

struct Env {
  Dataset data = generate("products", 11);
  sampling::ReindexFormats formats{.coo = true, .csr = true, .csc = true};
  PreprocExecutor exec{data.csr, data.embeddings, data.spec.fanout, 2, 99,
                       formats};
};

TEST(BatchContext, ContextBackedRunMatchesByValueRun) {
  // run_into writing into the context's reusable PreprocResult must
  // reproduce the by-value run bit for bit, batch after batch.
  Env env;
  BatchContext ctx;
  for (std::uint64_t b = 0; b < 3; ++b) {
    auto batch = env.exec.sampler().pick_batch(64, b);
    PreprocResult fresh = env.exec.run(batch);

    ctx.begin_batch();
    PreprocExecutor& cached =
        ctx.executor_for(env.data.csr, env.data.embeddings,
                         env.data.spec.fanout, 2, 99, env.formats);
    ctx.batch_vids() = cached.sampler().pick_batch(64, b);
    EXPECT_EQ(ctx.batch_vids(), batch);
    cached.run_into(ctx.batch_vids(), ctx.table(), ctx.preproc(),
                    ctx.scratch());

    const PreprocResult& reused = ctx.preproc();
    EXPECT_EQ(fresh.batch.vid_order, reused.batch.vid_order);
    EXPECT_EQ(fresh.batch.set_sizes, reused.batch.set_sizes);
    ASSERT_EQ(fresh.layers.size(), reused.layers.size());
    for (std::size_t l = 0; l < fresh.layers.size(); ++l) {
      EXPECT_EQ(fresh.layers[l].csr, reused.layers[l].csr) << "layer " << l;
      EXPECT_EQ(fresh.layers[l].csc, reused.layers[l].csc);
      EXPECT_EQ(fresh.layers[l].coo, reused.layers[l].coo);
    }
    EXPECT_EQ(fresh.embeddings, reused.embeddings);
  }
}

TEST(BatchContext, ExecutorIsCachedUntilTheKeyChanges) {
  Env env;
  BatchContext ctx;
  PreprocExecutor& a =
      ctx.executor_for(env.data.csr, env.data.embeddings, env.data.spec.fanout,
                       2, 99, env.formats);
  PreprocExecutor& b =
      ctx.executor_for(env.data.csr, env.data.embeddings, env.data.spec.fanout,
                       2, 99, env.formats);
  EXPECT_EQ(&a, &b);

  // A different seed is a different key: the rebuilt executor samples a
  // different batch stream.
  const auto batch99 = b.sampler().pick_batch(64, 0);
  PreprocExecutor& c =
      ctx.executor_for(env.data.csr, env.data.embeddings, env.data.spec.fanout,
                       2, 100, env.formats);
  EXPECT_NE(c.sampler().pick_batch(64, 0), batch99);

  // And switching back rebuilds again (the cache holds one executor) while
  // restoring the original stream.
  PreprocExecutor& d =
      ctx.executor_for(env.data.csr, env.data.embeddings, env.data.spec.fanout,
                       2, 99, env.formats);
  EXPECT_EQ(d.sampler().pick_batch(64, 0), batch99);
}

TEST(BatchContext, BeginBatchRewindsButKeepsCapacity) {
  BatchContext ctx;
  ctx.arena().alloc(16, 16);
  ctx.labels().assign(10, 1u);
  EXPECT_EQ(ctx.arena_allocations_this_batch(), 1u);

  ctx.begin_batch();
  EXPECT_EQ(ctx.batches_begun(), 1u);
  EXPECT_EQ(ctx.arena().stats().used_bytes, 0u);
  EXPECT_EQ(ctx.arena_allocations_this_batch(), 0u);
  EXPECT_EQ(ctx.arena_growths_this_batch(), 0u);
  EXPECT_GT(ctx.arena().stats().capacity_bytes, 0u);

  // Same-shaped allocation after the rewind reuses the retained block.
  const std::uint64_t growths = ctx.arena().stats().growths;
  ctx.arena().alloc(16, 16);
  EXPECT_EQ(ctx.arena().stats().growths, growths);
  EXPECT_EQ(ctx.arena_allocations_this_batch(), 1u);
}

TEST(BatchContext, SteadyStateReuseAfterWarmup) {
  // Once the context has seen a set of batches, replaying the same batches
  // must perform zero arena growth and zero new heap Matrix allocations:
  // every buffer (arena blocks, hash table, preproc result, scratch) is
  // reused at its high-water capacity.
  Env env;
  BatchContext ctx;
  auto run = [&](std::uint64_t b) {
    ctx.begin_batch();
    PreprocExecutor& exec =
        ctx.executor_for(env.data.csr, env.data.embeddings,
                         env.data.spec.fanout, 2, 99, env.formats);
    ctx.batch_vids() = exec.sampler().pick_batch(64, b);
    exec.run_into(ctx.batch_vids(), ctx.table(), ctx.preproc(),
                  ctx.scratch());
    ctx.arena().alloc(ctx.preproc().batch.total_vertices(), 8);
  };
  for (std::uint64_t b = 0; b < 4; ++b) run(b);

  const std::uint64_t growths = ctx.arena().stats().growths;
  const std::size_t capacity = ctx.arena().stats().capacity_bytes;
  const std::uint64_t heap = Matrix::heap_allocations();
  for (std::uint64_t b = 0; b < 4; ++b) {
    run(b);
    EXPECT_EQ(ctx.arena_growths_this_batch(), 0u) << "batch " << b;
  }
  EXPECT_EQ(ctx.arena().stats().growths, growths);
  EXPECT_EQ(ctx.arena().stats().capacity_bytes, capacity);
  EXPECT_EQ(Matrix::heap_allocations(), heap);
}

}  // namespace
}  // namespace gt::pipeline

// Regression lock: the obs metrics registry must report the same hash
// traffic as the legacy PreprocResult fields, so the Fig 14 contention
// numbers stay trustworthy whichever surface a consumer reads.
#include <gtest/gtest.h>

#include "datasets/catalog.hpp"
#include "obs/metrics.hpp"
#include "pipeline/executor.hpp"

namespace gt::pipeline {
namespace {

struct Env {
  Dataset data = generate("products", 11);
  sampling::ReindexFormats formats{.coo = false, .csr = true, .csc = false};
  PreprocExecutor exec{data.csr, data.embeddings, data.spec.fanout, 2, 99,
                       formats};
};

struct CounterDeltas {
  std::uint64_t batches, acquisitions, contended, sampled;

  static CounterDeltas snapshot() {
    obs::MetricsRegistry& m = obs::metrics();
    return {m.counter("preproc.batches").value(),
            m.counter("preproc.hash_acquisitions").value(),
            m.counter("preproc.hash_contended").value(),
            m.counter("preproc.sampled_vertices").value()};
  }
  CounterDeltas since(const CounterDeltas& base) const {
    return {batches - base.batches, acquisitions - base.acquisitions,
            contended - base.contended, sampled - base.sampled};
  }
};

TEST(PreprocMetrics, ParallelRegistryMatchesResultFields) {
  Env env;
  ThreadPool pool(4);
  auto batch = env.exec.sampler().pick_batch(80, 0);
  const CounterDeltas before = CounterDeltas::snapshot();
  PreprocResult r = env.exec.run(batch, &pool, 5);
  const CounterDeltas d = CounterDeltas::snapshot().since(before);
  EXPECT_EQ(d.batches, 1u);
  EXPECT_EQ(d.acquisitions, r.hash_acquisitions);
  EXPECT_EQ(d.contended, r.hash_contended);
  EXPECT_EQ(d.sampled, r.batch.total_vertices());
}

TEST(PreprocMetrics, SerialRegistryMatchesResultFields) {
  Env env;
  auto batch = env.exec.sampler().pick_batch(60, 1);
  const CounterDeltas before = CounterDeltas::snapshot();
  PreprocResult r = env.exec.run(batch);
  const CounterDeltas d = CounterDeltas::snapshot().since(before);
  EXPECT_EQ(d.batches, 1u);
  EXPECT_EQ(d.acquisitions, r.hash_acquisitions);
  EXPECT_EQ(d.contended, r.hash_contended);
  EXPECT_EQ(d.sampled, r.batch.total_vertices());
}

TEST(PreprocMetrics, CountersAccumulateAcrossBatches) {
  Env env;
  ThreadPool pool(3);
  const CounterDeltas before = CounterDeltas::snapshot();
  std::uint64_t want_acquisitions = 0;
  for (std::uint64_t b = 0; b < 3; ++b) {
    auto batch = env.exec.sampler().pick_batch(40, b);
    want_acquisitions += env.exec.run(batch, &pool, 4)
                             .hash_acquisitions;
  }
  const CounterDeltas d = CounterDeltas::snapshot().since(before);
  EXPECT_EQ(d.batches, 3u);
  EXPECT_EQ(d.acquisitions, want_acquisitions);
}

}  // namespace
}  // namespace gt::pipeline

// Table I: the DKP cost model. Fits the per-order latency models by least
// squares against measured kernel times (first-epoch procedure), reports
// the fitted coefficients, the prediction error (paper: 12.5%), and how
// often the fitted model's placement decision matches the oracle (the
// measured-faster order).
#include "bench_util.hpp"
#include "dfg/executor.hpp"
#include "pipeline/executor.hpp"
#include "frameworks/graphtensor.hpp"

int main() {
  using namespace gt;
  using dfg::KernelOrder;
  bench::header("Table I", "DKP cost model fit and decision quality");

  // The paper fits the coefficients at the start of each training run
  // (first epoch) and reuses them for that run: fit one model per dataset
  // by letting Dynamic-GT explore both placements for a few batches.
  auto fit_for = [](const Dataset& data, const models::GnnModelConfig& m) {
    auto dyn = std::make_unique<frameworks::GraphTensorFramework>(
        frameworks::GraphTensorFramework::Variant::kDynamic);
    models::ModelParams params(m, data.spec.feature_dim, 7);
    frameworks::BatchSpec spec;
    spec.order = frameworks::OrderPolicy::kDynamic;
    for (std::uint64_t b = 0;
         b < frameworks::GraphTensorFramework::kFitAfterBatches; ++b) {
      spec.batch_index = b;
      dyn->run_batch(data, m, params, spec);
    }
    return dyn;
  };
  {
    Dataset data = generate("wiki-talk", bench::kSeed);
    auto dyn = fit_for(data, bench::gcn_for(data));
    std::printf("wiki-talk/GCN run: %zu samples recorded, fitted: %s\n",
                dyn->cost_model().sample_count(),
                dyn->cost_model().fitted() ? "yes" : "no");
    bench::claim("cost-model mean relative error (per-run fit)", 0.125,
                 dyn->cost_model().mean_relative_error(), " fraction");
  }

  // Decision quality: for every dataset, measure layer 0's training step
  // (FWP + BWP) in *both* placements with the NAPA layer executor and
  // compare the oracle (measured-faster order) against the fitted model's
  // decision. A decision that deviates from the oracle only costs the
  // difference between the two measured latencies, also reported.
  Table table({"dataset", "agg us", "comb us", "oracle", "decision", "agree",
               "regret"});
  int agree = 0, total = 0;
  for (const auto& name : bench::all_datasets()) {
    Dataset data = generate(name, bench::kSeed);
    const models::GnnModelConfig model = bench::gcn_for(data);
    sampling::ReindexFormats formats{.csr = true, .csc = true};
    pipeline::PreprocExecutor exec(data.csr, data.embeddings,
                                   data.spec.fanout, 2, bench::kSeed,
                                   formats);
    auto batch = exec.sampler().pick_batch(data.spec.batch_size, 0);
    pipeline::PreprocResult pre = exec.run(batch);
    models::ModelParams params(model, data.spec.feature_dim, 7);

    auto measure = [&](KernelOrder order) {
      gpusim::Device dev;
      dfg::LayerDeviceGraph lg{
          kernels::upload_csr(dev, pre.layers[0].csr, pre.layers[0].n_dst),
          kernels::upload_csc(dev, pre.layers[0].csr, pre.layers[0].n_dst)};
      dfg::LayerParams lp{kernels::upload_matrix(dev, params.w(0), "w"),
                          kernels::upload_matrix(dev, params.b(0), "b")};
      auto x = kernels::upload_matrix(dev, pre.embeddings, "x");
      dfg::LayerExecutor lex(dev, model.f, model.g);
      dev.clear_profile();
      dfg::LayerForward fwd = lex.forward(lg, x, lp, true, order);
      auto dy = dev.alloc_f32(pre.layers[0].n_dst, params.out_dim(0), "dy");
      lex.backward(lg, x, lp, true, fwd, dy, /*want_dx=*/false);
      return dev.profile_latency_us();
    };
    const double t_agg = measure(KernelOrder::kAggregationFirst);
    const double t_comb = measure(KernelOrder::kCombinationFirst);
    const KernelOrder oracle = t_agg <= t_comb
                                   ? KernelOrder::kAggregationFirst
                                   : KernelOrder::kCombinationFirst;

    dfg::LayerDims dims{pre.batch.layer_vertices(0), pre.batch.layer_dst(0),
                        pre.batch.layer_edges(0), params.in_dim(0),
                        params.out_dim(0)};
    auto dyn = fit_for(data, model);
    const KernelOrder decision =
        dyn->cost_model().decide_training(dims, true);
    const double best = std::min(t_agg, t_comb);
    const double got =
        decision == KernelOrder::kAggregationFirst ? t_agg : t_comb;
    ++total;
    agree += decision == oracle;
    bench::row("DKP decision regret vs oracle", name, "Dynamic-GT", 0.0,
               got / best - 1.0, "fraction");
    table.add_row({name, Table::fmt(t_agg, 1), Table::fmt(t_comb, 1),
                   dfg::to_string(oracle), dfg::to_string(decision),
                   decision == oracle ? "yes" : "NO",
                   Table::fmt_pct(got / best - 1.0)});
  }
  table.print();
  std::printf("\nlayer-0 decision agreement with oracle: %d/%d\n", agree,
              total);
  bench::row("DKP decision agreement with oracle", "", "Dynamic-GT", 1.0,
             total > 0 ? static_cast<double>(agree) / total : 0.0,
             "fraction");
  return 0;
}

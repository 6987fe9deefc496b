// Fig 6: challenges in GNN extension frameworks.
//  (a) DL-approach memory footprint (densified tensors), normalized by the
//      input embedding table — paper: 5.8x on average.
//  (b) Graph-approach SDDMM cache traffic, normalized by the embedding
//      table — paper: 81.9% more data than the table itself.
#include "bench_util.hpp"
#include "kernels/dl_approach.hpp"
#include "kernels/graph_approach.hpp"
#include "pipeline/executor.hpp"

int main() {
  using namespace gt;
  bench::header("Fig 6", "memory bloat (DL-approach) and cache bloat "
                         "(Graph-approach)");

  Table table({"dataset", "mem footprint / table", "cache loads / table"});
  std::vector<double> mem_ratios, cache_ratios;
  for (const auto& name : bench::all_datasets()) {
    Dataset data = generate(name, bench::kSeed);
    sampling::ReindexFormats formats{.coo = true, .csr = true};
    pipeline::PreprocExecutor exec(data.csr, data.embeddings,
                                   data.spec.fanout, 2, bench::kSeed,
                                   formats);
    auto batch = exec.sampler().pick_batch(data.spec.batch_size, 0);
    pipeline::PreprocResult pre = exec.run(batch);
    const auto& layer = pre.layers[0];
    const std::size_t table_bytes = pre.embeddings.bytes();

    // (a) DL-approach: the densified aggregation + edge-weighting step.
    gpusim::Device dl_dev;
    {
      auto x = kernels::upload_matrix(dl_dev, pre.embeddings, "x");
      auto csr = kernels::upload_csr(dl_dev, layer.csr, layer.n_dst);
      dl_dev.reset_peak();
      gpusim::BufferId weights = gpusim::kInvalidBuffer;
      kernels::dl::forward_aggregate(dl_dev, csr, x, kernels::AggMode::kMean,
                                     kernels::EdgeWeightMode::kElemProduct,
                                     &weights);
      (void)x;
    }
    const double mem_ratio =
        static_cast<double>(dl_dev.memory_stats().peak_bytes) / table_bytes;

    // (b) Graph-approach: SDDMM cache fills across SMs.
    gpusim::Device g_dev;
    double cache_ratio = 0.0;
    {
      auto x = kernels::upload_matrix(g_dev, pre.embeddings, "x");
      auto coo = kernels::upload_coo(g_dev, layer.coo, layer.n_dst);
      g_dev.clear_profile();
      kernels::graphsim::sddmm_edgewise(g_dev, coo, x,
                                        kernels::EdgeWeightMode::kDot);
      cache_ratio = static_cast<double>(
                        accumulate(g_dev.profile()).cache_loaded_bytes) /
                    table_bytes;
    }

    mem_ratios.push_back(mem_ratio);
    cache_ratios.push_back(cache_ratio);
    bench::row("DL-approach memory footprint / table", name, "PyG", 0.0,
               mem_ratio);
    bench::row("Graph-approach cache loads / table", name, "DGL", 0.0,
               cache_ratio);
    table.add_row({name, Table::fmt_ratio(mem_ratio),
                   Table::fmt_pct(cache_ratio)});
  }
  table.print();
  std::printf("\n");
  bench::claim("Fig 6a DL-approach memory footprint", 5.8, mean(mem_ratios));
  bench::claim("Fig 6b Graph-approach cache loads / table", 1.819,
               mean(cache_ratios), "x (1.0 = table size)");
  return 0;
}

// Fig 8: degree distribution of original vs sampled (preprocessed) graphs.
// Paper: original graphs average 3.4x more edges per vertex than sampled
// subgraphs, and sampled degrees are tightly bounded — the premise of
// feature-wise (rather than edge-wise) thread scheduling.
#include "bench_util.hpp"
#include "graph/degree.hpp"
#include "pipeline/executor.hpp"

int main() {
  using namespace gt;
  bench::header("Fig 8", "degree distribution, original vs sampled graphs");

  Table table({"dataset", "orig avg", "orig stdev", "smp avg", "smp stdev",
               "orig/smp"});
  std::vector<double> ratios;
  std::vector<double> orig_products, smp_products, orig_wiki, smp_wiki;
  for (const auto& name : bench::all_datasets()) {
    Dataset data = generate(name, bench::kSeed);
    sampling::ReindexFormats formats{.csr = true};
    pipeline::PreprocExecutor exec(data.csr, data.embeddings,
                                   data.spec.fanout, 2, bench::kSeed,
                                   formats);
    auto batch = exec.sampler().pick_batch(data.spec.batch_size, 0);
    pipeline::PreprocResult pre = exec.run(batch);

    auto orig = summarize_degrees(in_degrees(data.csr));
    auto smp_deg = in_degrees(pre.layers[0].csr);
    smp_deg.resize(pre.layers[0].n_dst);  // only materialized dst rows
    auto smp = summarize_degrees(smp_deg);
    const double ratio = smp.mean > 0 ? orig.mean / smp.mean : 0.0;
    ratios.push_back(ratio);
    bench::row("original avg degree / sampled", name, "", 0.0, ratio);
    table.add_row({name, Table::fmt(orig.mean, 1), Table::fmt(orig.stdev, 1),
                   Table::fmt(smp.mean, 2), Table::fmt(smp.stdev, 2),
                   Table::fmt_ratio(ratio)});
    if (name == "products") {
      orig_products = in_degrees(data.csr);
      smp_products = smp_deg;
    }
    if (name == "wiki-talk") {
      orig_wiki = in_degrees(data.csr);
      smp_wiki = smp_deg;
    }
  }
  table.print();
  std::printf("\n");
  bench::claim("Fig 8a original avg degree / sampled", 3.4, mean(ratios));

  // CDF panels (Fig 8b/8c flavour).
  auto print_cdf = [](const char* label, const std::vector<double>& deg) {
    const std::vector<double> at{1, 2, 4, 8, 16, 64, 256};
    auto cdf = empirical_cdf(deg, at);
    std::printf("%-22s", label);
    for (std::size_t i = 0; i < at.size(); ++i)
      std::printf(" P(d<=%-3.0f)=%.2f", at[i], cdf[i]);
    std::printf("\n");
  };
  std::printf("\ndegree CDFs (original heavy-tailed, sampled bounded):\n");
  print_cdf("products original", orig_products);
  print_cdf("products sampled", smp_products);
  print_cdf("wiki-talk original", orig_wiki);
  print_cdf("wiki-talk sampled", smp_wiki);
  return 0;
}

// Table II: characteristics of the ten workloads — full graph and one
// sampled batch (300 dst vertices, 2 layers), against the paper's values.
#include "bench_util.hpp"
#include "graph/degree.hpp"
#include "pipeline/executor.hpp"

int main() {
  using namespace gt;
  bench::header("Table II", "graph and sampled-subgraph characteristics");

  Table table({"name", "vertices", "edges", "feat", "smp vert", "smp edges",
               "dst", "edges/vert", "paper e/v", "emb bytes", "out"});
  for (const auto& name : bench::all_datasets()) {
    Dataset data = generate(name, bench::kSeed);
    sampling::ReindexFormats formats{.csr = true};
    pipeline::PreprocExecutor exec(data.csr, data.embeddings,
                                   data.spec.fanout, data.spec.num_layers,
                                   bench::kSeed, formats);
    auto batch = exec.sampler().pick_batch(data.spec.batch_size, 0);
    pipeline::PreprocResult pre = exec.run(batch);

    const double edges = static_cast<double>(pre.batch.layer_edges(0));
    const double verts = static_cast<double>(pre.batch.total_vertices());
    bench::row("sampled edges per vertex", name, "",
               data.spec.paper.sampled_edges_per_vertex, edges / verts,
               "e/v");
    table.add_row(
        {name, Table::fmt_count(data.coo.num_vertices),
         Table::fmt_count(data.coo.num_edges()),
         std::to_string(data.spec.feature_dim), Table::fmt_count(verts),
         Table::fmt_count(edges),
         Table::fmt_count(pre.batch.layer_dst(data.spec.num_layers - 1)),
         Table::fmt(edges / verts, 2),
         Table::fmt(data.spec.paper.sampled_edges_per_vertex, 2),
         Table::fmt_bytes(pre.embeddings.bytes()),
         std::to_string(data.spec.output_dim)});
  }
  table.print();
  std::printf(
      "\nScaled ~1/40..1/2000 from the paper's graphs (DESIGN.md S2); the\n"
      "light/heavy feature split (paper: <4K vs 4353 dims -> here <100 vs\n"
      "544) and sampled edges-per-vertex column are the preserved shape.\n");
  return 0;
}

// Fig 20: preprocessing timeline — fraction of nodes processed per task
// type over time, Dynamic-GT (type-barriered, all cores per task) vs
// Prepro-GT (service-wide pipelined). Paper: Prepro-GT's sampling/reindex
// complete *later* (they share cores with other subtasks) but lookup and
// transfer finish 14.9% and 48.5% earlier, shortening preprocessing by
// ~48.5% on heavy-feature graphs.
#include "bench_util.hpp"
#include "pipeline/executor.hpp"

namespace {

using namespace gt;

double finish_at(const std::vector<pipeline::TimelinePoint>& tl,
                 double fraction) {
  for (const auto& p : tl)
    if (p.fraction + 1e-12 >= fraction) return p.time_us;
  return tl.empty() ? 0.0 : tl.back().time_us;
}

}  // namespace

int main() {
  using namespace gt;
  using pipeline::TaskType;
  bench::header("Fig 20", "preprocessing timeline: nodes processed vs time");

  std::vector<double> transfer_savings, lookup_savings;
  for (const auto& name :
       {std::string(kRepresentativeLight), std::string(kRepresentativeHeavy)}) {
    Dataset data = generate(name, bench::kSeed);
    sampling::ReindexFormats formats{.csr = true, .csc = true};
    pipeline::PreprocExecutor exec(data.csr, data.embeddings,
                                   data.spec.fanout, 2, bench::kSeed,
                                   formats);
    auto batch = exec.sampler().pick_batch(data.spec.batch_size, 0);
    pipeline::PreprocResult pre = exec.run(batch);
    pipeline::BatchWorkload w =
        pipeline::workload_from(pre.batch, data.spec.feature_dim);

    pipeline::PlanOptions dyn_opt;  // Dynamic-GT preprocessing
    dyn_opt.strategy = pipeline::PreprocStrategy::kParallelTasks;
    pipeline::PlanOptions pre_opt;  // Prepro-GT
    pre_opt.strategy = pipeline::PreprocStrategy::kServiceWide;
    pre_opt.pinned_memory = pre_opt.pipelined_kt = true;

    const auto dyn = plan_preprocessing(w, dyn_opt);
    const auto svc = plan_preprocessing(w, pre_opt);

    std::printf("-- %s --\n", name.c_str());
    Table table({"task", "sched", "25%", "50%", "75%", "100% (finish us)"});
    const char* task_names[] = {"sampling", "reindex", "lookup", "transfer"};
    const std::pair<const char*, const pipeline::PreprocSchedule*> scheds[] =
        {{"Dynamic-GT", &dyn}, {"Prepro-GT", &svc}};
    for (int t = 0; t < 4; ++t) {
      for (const auto& [label, sched] : scheds) {
        const auto& tl = sched->timeline[t];
        table.add_row({std::string(task_names[t]), std::string(label),
                       Table::fmt(finish_at(tl, 0.25), 0),
                       Table::fmt(finish_at(tl, 0.5), 0),
                       Table::fmt(finish_at(tl, 0.75), 0),
                       Table::fmt(finish_at(tl, 1.0), 0)});
      }
    }
    table.print();
    const double t_save =
        1.0 - svc.type_finish_us[static_cast<int>(TaskType::kTransfer)] /
                  dyn.type_finish_us[static_cast<int>(TaskType::kTransfer)];
    const double k_save =
        1.0 - svc.type_finish_us[static_cast<int>(TaskType::kLookup)] /
                  dyn.type_finish_us[static_cast<int>(TaskType::kLookup)];
    transfer_savings.push_back(t_save);
    lookup_savings.push_back(k_save);
    bench::row("transfer finish saving vs Dynamic-GT", name, "Prepro-GT",
               0.0, t_save, "fraction");
    bench::row("lookup finish saving vs Dynamic-GT", name, "Prepro-GT", 0.0,
               k_save, "fraction");
    bench::row("preproc makespan saving vs Dynamic-GT", name, "Prepro-GT",
               0.0, 1.0 - svc.makespan_us / dyn.makespan_us, "fraction");
    std::printf("makespan: Dynamic-GT %.0fus -> Prepro-GT %.0fus (%.1f%% "
                "shorter)\n\n",
                dyn.makespan_us, svc.makespan_us,
                100.0 * (1.0 - svc.makespan_us / dyn.makespan_us));
  }
  bench::claim("lookup completes earlier by (paper 14.9%)", 0.149,
               mean(lookup_savings), " fraction");
  bench::claim("transfer completes earlier by (paper 48.5%)", 0.485,
               mean(transfer_savings), " fraction");
  return 0;
}

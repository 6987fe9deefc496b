#include "frameworks/graphtensor.hpp"

#include "dfg/executor.hpp"
#include "dfg/graph.hpp"
#include "frameworks/common.hpp"
#include "frameworks/sharding.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/cache_hierarchy.hpp"
#include "sampling/transfer.hpp"

namespace gt::frameworks {

using dfg::KernelOrder;
using dfg::LayerDims;

std::string GraphTensorFramework::name() const {
  switch (variant_) {
    case Variant::kBase:    return "Base-GT";
    case Variant::kDynamic: return "Dynamic-GT";
    case Variant::kPrepro:  return "Prepro-GT";
  }
  return "?";
}

pipeline::PlanOptions GraphTensorFramework::plan_options() const {
  pipeline::PlanOptions plan;
  if (variant_ == Variant::kPrepro) {
    plan.strategy = pipeline::PreprocStrategy::kServiceWide;
    plan.pinned_memory = true;
    plan.pipelined_kt = true;
  } else {
    plan.strategy = pipeline::PreprocStrategy::kParallelTasks;
  }
  return plan;
}

namespace {
constexpr sampling::ReindexFormats kGtFormats{.coo = false, .csr = true,
                                              .csc = true};
}  // namespace

void GraphTensorFramework::prepare_batch(const Dataset& data,
                                         const models::GnnModelConfig& model,
                                         const BatchSpec& spec,
                                         pipeline::BatchContext& ctx) {
  // With the embedding cache on, execute gathers the layer-0 rows through
  // the pinned ring, so prepare skips K.
  detail::preprocess_into(data, spec, model.num_layers, kGtFormats,
                          plan_options(), ctx,
                          /*gather=*/cache_cfg_.budget_bytes == 0);
  // Sampler lookahead: the batch's vid_order is final here, so its rows
  // are warmable while the previous batch executes. The hint is a pure
  // function of the batch (not of worker overlap), keeping prefetch
  // pricing bit-identical across worker counts.
  if (cache_cfg_.prefetch && cache_cfg_.budget_bytes > 0)
    ctx.arm_cache_prefetch(spec.batch_index);
}

sampling::CacheHierarchy& GraphTensorFramework::ensure_hierarchy(
    const Dataset& data) {
  const bool hit = hierarchy_ && hier_graph_ == &data.csr &&
                   hier_table_ == &data.embeddings;
  if (!hit) {
    sampling::CacheConfig cfg = cache_cfg_;
    cfg.pcie = plan_options().pcie;
    hierarchy_ = std::make_unique<sampling::CacheHierarchy>(
        data.csr, data.embeddings, cfg);
    hier_graph_ = &data.csr;
    hier_table_ = &data.embeddings;
    obs::metrics().counter("cache.hierarchy_builds").add(1);
  }
  return *hierarchy_;
}

RunReport GraphTensorFramework::execute_prepared(
    const Dataset& data, const models::GnnModelConfig& model,
    models::ModelParams& params, const BatchSpec& spec,
    pipeline::BatchContext& ctx) {
  RunReport report;
  report.framework = name();
  report.model = model.name;
  report.dataset = data.spec.name;

  const std::uint32_t L = model.num_layers;
  const pipeline::PlanOptions plan = plan_options();

  pipeline::PreprocResult& pre = ctx.preproc();
  // From the shape: a cached run's prepare leaves pre.embeddings empty.
  report.input_table_bytes =
      pre.batch.vid_order.size() * data.embeddings.dim() * sizeof(float);
  const bool use_cache = cache_cfg_.budget_bytes > 0;
  // A cache-disabled run must not report a stale rate from an earlier
  // cache-enabled run on the same framework instance.
  if (!use_cache) last_hit_rate_ = 0.0;

  const bool dkp_active = variant_ != Variant::kBase &&
                          kernels::dkp_compatible(model.g);
  dfg::DfgGraph graph = dfg::build_gnn_dfg(L, model.edge_weighted());
  if (dkp_active) graph.rewrite_dkp();

  // Cost-model samples and SGD updates are buffered and committed only
  // when the batch reaches a reported outcome (success or OOM). An
  // exception unwinding out of this function — an injected fault the
  // service will retry — must leave the framework state AND the model
  // parameters untouched, or the retried batch would diverge from a
  // fault-free run.
  detail::SgdStage sgd(params, spec.learning_rate);

  // Multi-device execution is a modeled decomposition of the canonical
  // run (DESIGN.md §14): the plan is derived from the real preprocessed
  // layer structures up front; the post-pass attributes the layer calls
  // run_layers recorded, prices collectives, and merges the group
  // timeline. Numerics below are untouched — except the tensor-parallel
  // SGD commit, which applies the same gradient as disjoint per-device
  // row slices (bit-identical by independence).
  const bool sharded = shard_.devices > 1;
  detail::ShardPlan shard_plan;
  if (sharded) {
    shard_plan = detail::build_shard_plan(pre, params, L, shard_);
    if (shard_.strategy == ShardStrategy::kTensorParallel)
      sgd.set_device_row_slices(&shard_plan.sgd_row_boundaries);
  }

  // Every layer call of the batch (run_layers appends each as it returns,
  // so an OOM keeps the completed ones): the sharding slices and, when
  // DKP is active, the cost model's samples.
  std::vector<detail::LayerSlice> calls;
  std::vector<KernelOrder> orders(L, KernelOrder::kAggregationFirst);
  auto dims_of = [&](std::uint32_t l) {
    return LayerDims{pre.batch.layer_vertices(l), pre.batch.layer_dst(l),
                     pre.batch.layer_edges(l), params.in_dim(l),
                     params.out_dim(l)};
  };
  auto commit_samples = [&] {
#ifndef GT_OBS_DISABLE
    // Ledger join: pair each committed sample with the model's prediction
    // *for the coefficients that were live when the batch ran* (captured
    // before record() extends the sample set; fit() only runs afterwards).
    // predict() is const — arming the ledger cannot perturb training.
    const bool ledger_on = obs::attrib::KernelLedger::global().armed();
    const bool was_fitted = cost_model_.fitted();
#endif
    for (const detail::LayerSlice& c : calls) {
      if (!dkp_active) break;  // Base-GT and DKP-incompatible models
      const LayerDims dims = dims_of(c.layer);
      const dfg::PlacementCase pc{orders[c.layer], c.backward,
                                  /*first_layer=*/c.layer == 0,
                                  model.edge_weighted()};
#ifndef GT_OBS_DISABLE
      if (ledger_on) {
        std::string key = c.backward ? "bwd/" : "fwd/";
        key += dfg::to_string(pc.order);
        key += "/L";
        key += std::to_string(c.layer);
        obs::attrib::KernelLedger::global().record_prediction(
            key, cost_model_.predict(dims, pc), c.us, was_fitted);
      }
#endif
      cost_model_.record(dims, pc, c.us);
    }
    ++batches_seen_;
#ifndef GT_OBS_DISABLE
    // Live model-health surface (gauges + drift event); independent of
    // the ledger so chaos/serving runs see drift without any artifact.
    if (cost_model_.fitted()) {
      const dfg::ResidualSummary rs = cost_model_.residual_summary();
      obs::attrib::observe_costmodel_residuals(rs.samples, rs.p50_pct,
                                               rs.p95_pct);
    }
#endif
  };

  // Cache hierarchy state is transactional like the SGD/cost-model stages
  // above: lookup() classifies against the current tiers without mutating
  // them, and commit_cache (below) applies the staged admissions only
  // once the batch reaches a reported outcome.
  sampling::CacheHierarchy::Lookup cache_look;
  sampling::PinnedRingBuffer::Overlap ring_ov;
  bool cache_active = false;
  auto commit_cache = [&] {
    if (!cache_active) return;
    sampling::CacheHierarchy& hier = *hierarchy_;
    const std::uint64_t evictions_before = hier.stats().evictions;
    hier.commit(cache_look, report.fwp_us + report.bwp_us);
    last_hit_rate_ = cache_look.hit_rate();
    obs::MetricsRegistry& m = obs::metrics();
    // Legacy totals (gt_top's cache line) plus the per-tier breakdown.
    m.gauge("embedding_cache.hit_rate").set(last_hit_rate_);
    m.counter("embedding_cache.hits").add(cache_look.cached_rows());
    m.counter("embedding_cache.misses").add(cache_look.misses);
    m.counter("cache.static.hits").add(cache_look.static_rows.size());
    m.counter("cache.dynamic.hits").add(cache_look.dynamic_hits);
    m.counter("cache.prefetch.hits").add(cache_look.prefetch_hits);
    m.counter("cache.misses").add(cache_look.misses);
    m.counter("cache.evictions")
        .add(hier.stats().evictions - evictions_before);
    m.counter("cache.prefetch.rows").add(cache_look.prefetched);
    m.counter("cache.ring.chunks").add(ring_ov.chunks);
    m.counter("cache.ring.bytes").add(ring_ov.bytes);
    m.gauge("cache.ring.critical_us").set(ring_ov.critical_us);
    m.gauge("cache.ring.overlap_us").set(ring_ov.overlapped_us());
    m.gauge("cache.dynamic.occupancy")
        .set(static_cast<double>(hier.dynamic_size_rows()));
  };

  try {
    auto session = detail::open_session(pre, params, kGtFormats,
                                        /*lend_input=*/!use_cache);
    gpusim::Device& dev = session->dev;

    if (use_cache) {
      // Embedding cache hierarchy (DESIGN.md §15): the static tier is
      // device-resident for the dataset's lifetime; dynamic and prefetch
      // hits are re-priced out of the critical K/T path; only true misses
      // keep their full lookup + transfer cost in the schedule.
      sampling::CacheHierarchy& hier = ensure_hierarchy(data);
      ctx.set_cache_hierarchy(&hier);
      cache_look = hier.lookup(pre.batch.vid_order, spec.batch_index,
                               ctx.cache_prefetch_armed(spec.batch_index));
      cache_active = true;
      ctx.workload().cached_rows = cache_look.cached_rows();
      ctx.schedule() = pipeline::plan_preprocessing(ctx.workload(), plan);

      // Every non-static row (dynamic/prefetch hits included, so numerics
      // stay bit-identical to an uncached gather) streams through the
      // pinned ring buffer: chunked K gathers overlapping chunked T
      // uploads, priced through the same PCIe model as the schedule.
      MatrixView gathered = ctx.arena().alloc(cache_look.gather_vids.size(),
                                              data.spec.feature_dim);
      sampling::Transfer staging(dev, gpusim::PcieModel(plan.pcie),
                                 /*pinned=*/true);
      {
        GT_STAGE(k_span, kLookup, "K.lookup", "lookup");
        ring_ov = hier.ring().gather_through(data.embeddings,
                                             cache_look.gather_vids, gathered,
                                             staging,
                                             plan.cost.us_per_lookup_byte);
      }
      gpusim::BufferId gather_buf = gpusim::kInvalidBuffer;
      if (!cache_look.gather_vids.empty())
        gather_buf = kernels::upload_matrix(dev, gathered, "cache.gathered");
      const gpusim::BufferId static_buf = hier.bind_static(dev);
      session->input = hier.assemble(dev, static_buf, cache_look, gather_buf,
                                     pre.batch.vid_order.size());
      if (gather_buf != gpusim::kInvalidBuffer) dev.free(gather_buf);
      if (static_buf != gpusim::kInvalidBuffer) dev.free(static_buf);
      dev.clear_profile();  // staging/assembly is not FWP/BWP work
    }

    // Placement decision per layer (one decision covers FWP + BWP; the
    // backward pass reuses the forward's cached tensors).
    for (std::uint32_t l = 0; l < L; ++l) {
      if (spec.order == OrderPolicy::kCombinationFirst &&
          kernels::dkp_compatible(model.g)) {
        orders[l] = KernelOrder::kCombinationFirst;
      } else if (spec.order == OrderPolicy::kDynamic && dkp_active &&
                 graph.has_dkp(l)) {
        if (cost_model_.fitted()) {
          orders[l] = spec.inference
                          ? cost_model_.decide(dims_of(l), false, false,
                                               model.edge_weighted())
                          : cost_model_.decide_training(
                                dims_of(l), l == 0, model.edge_weighted());
        } else if (spec.inference) {
          orders[l] = cost_model_.decide(dims_of(l), false, false,
                                         model.edge_weighted());
        } else {
          // Exploration phase: alternate placements across batches so the
          // least-squares fit sees both.
          orders[l] = (spec.batch_index + l) % 2 == 0
                          ? KernelOrder::kAggregationFirst
                          : KernelOrder::kCombinationFirst;
        }
      }
      obs::metrics()
          .counter(orders[l] == KernelOrder::kCombinationFirst
                       ? "dkp.decisions.comb_first"
                       : "dkp.decisions.agg_first")
          .add(1);
    }

    dfg::LayerExecutor exec(dev, model.f, model.g);
    std::vector<dfg::LayerForward> fwds;
    auto graph_of = [&](std::uint32_t l) {
      return dfg::LayerDeviceGraph{session->csr[l], session->csc[l]};
    };
    auto params_of = [&](std::uint32_t l) {
      return dfg::LayerParams{session->w[l], session->b[l]};
    };
    const detail::LayerPasses passes{
        [&](std::uint32_t l, gpusim::BufferId x) {
          fwds.push_back(exec.forward(graph_of(l), x, params_of(l),
                                      model.relu_at(l), orders[l]));
          return fwds.back().out;
        },
        [&](std::uint32_t l, gpusim::BufferId x_in, gpusim::BufferId dy,
            bool want_dx) {
          return exec.backward(graph_of(l), x_in, params_of(l),
                               model.relu_at(l), fwds[l], dy, want_dx);
        },
        [&](std::uint32_t l) { exec.release_cache(fwds[l]); }};
    detail::run_layers(*session, model, spec, orders, passes, sgd, ctx,
                       report, calls);

    // When sharded, attribute the complete profile, price the strategy's
    // collectives, and merge the group timeline before the report is
    // finalized.
    detail::ShardedExecution sx;
    if (sharded) {
      detail::CacheBatchVolumes cache_vol;
      if (cache_active) {
        cache_vol.static_hits = cache_look.static_rows.size();
        cache_vol.dynamic_hits = cache_look.dynamic_hits;
        cache_vol.prefetch_hits = cache_look.prefetch_hits;
        cache_vol.misses = cache_look.misses;
        cache_vol.evictions = cache_look.expected_evictions;
      }
      sx = detail::shard_execution(dev.profile(), calls, shard_plan,
                                   dev.config().cost.launch_overhead_us,
                                   cache_active ? &cache_vol : nullptr);
    }
    detail::finalize_report(report, dev, /*overlap_compute=*/true, ctx,
                            sharded ? &sx : nullptr);

    if (spec.inference) {
      commit_cache();
      commit_samples();
      return report;
    }
  } catch (const gpusim::GpuOomError& e) {
    detail::record_oom(report, e, ctx);
  }

  // Reported outcome (success or OOM): commit what the batch earned. The
  // OOM commit applies exactly the layers whose backward completed before
  // the allocator gave out — the same updates an eager apply performed.
  sgd.commit();
  commit_cache();
  commit_samples();
  if (dkp_active && !cost_model_.fitted() &&
      batches_seen_ >= kFitAfterBatches) {
    cost_model_.fit();
  }
  return report;
}

}  // namespace gt::frameworks

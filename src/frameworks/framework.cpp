#include "frameworks/framework.hpp"

#include <stdexcept>

#include "frameworks/baselines.hpp"
#include "frameworks/graphtensor.hpp"
#include "obs/trace.hpp"

namespace gt::frameworks {

namespace {
void tag_phase(obs::Span& span, const Framework& f, const BatchSpec& spec) {
  if (!span.active()) return;
  span.arg("framework", f.name());
  span.arg("batch", static_cast<std::int64_t>(spec.batch_index));
}
}  // namespace

const char* to_string(ShardStrategy s) {
  switch (s) {
    case ShardStrategy::kNone:           return "none";
    case ShardStrategy::kRange:          return "range";
    case ShardStrategy::kTensorParallel: return "tp";
  }
  return "?";
}

ShardStrategy parse_shard_strategy(const std::string& name) {
  if (name == "none") return ShardStrategy::kNone;
  if (name == "range") return ShardStrategy::kRange;
  if (name == "tp") return ShardStrategy::kTensorParallel;
  throw std::invalid_argument("unknown shard strategy '" + name +
                              "' (expected range or tp)");
}

// Each phase is one always-timed obs::Span (not a GT_STAGE macro, which
// GT_OBS_DISABLE removes): the report needs its interval either way.
void Framework::prepare(const Dataset& data,
                        const models::GnnModelConfig& model,
                        const BatchSpec& spec, pipeline::BatchContext& ctx) {
  obs::Span span("frameworks.prepare_batch", "frameworks",
                 obs::live::Stage::kPrepare, /*always_timed=*/true);
  tag_phase(span, *this, spec);
  ctx.begin_batch();
  prepare_batch(data, model, spec, ctx);
  ctx.set_host_prepare_us(span.stop());
}

RunReport Framework::execute(const Dataset& data,
                             const models::GnnModelConfig& model,
                             models::ModelParams& params,
                             const BatchSpec& spec,
                             pipeline::BatchContext& ctx) {
  obs::Span span("frameworks.run_batch", "frameworks",
                 obs::live::Stage::kExecute, /*always_timed=*/true);
  tag_phase(span, *this, spec);
  RunReport report = execute_prepared(data, model, params, spec, ctx);
  report.host_prepare_us = ctx.host_prepare_us();
  report.host_execute_us = span.stop();
  return report;
}

RunReport Framework::run_batch(const Dataset& data,
                               const models::GnnModelConfig& model,
                               models::ModelParams& params,
                               const BatchSpec& spec,
                               pipeline::BatchContext& ctx) {
  prepare(data, model, spec, ctx);
  return execute(data, model, params, spec, ctx);
}

RunReport Framework::run_batch(const Dataset& data,
                               const models::GnnModelConfig& model,
                               models::ModelParams& params,
                               const BatchSpec& spec) {
  if (!scratch_ctx_)
    scratch_ctx_ = std::make_unique<pipeline::BatchContext>();
  return run_batch(data, model, params, spec, *scratch_ctx_);
}

std::unique_ptr<Framework> make_framework(const std::string& name) {
  if (name == "PyG")
    return std::make_unique<BaselineFramework>("PyG", pyg_options());
  if (name == "PyG-MT")
    return std::make_unique<BaselineFramework>("PyG-MT", pyg_mt_options());
  if (name == "DGL")
    return std::make_unique<BaselineFramework>("DGL", dgl_options());
  if (name == "GNNAdvisor")
    return std::make_unique<BaselineFramework>("GNNAdvisor",
                                               gnnadvisor_options());
  if (name == "SALIENT")
    return std::make_unique<BaselineFramework>("SALIENT", salient_options());
  if (name == "Base-GT")
    return std::make_unique<GraphTensorFramework>(
        GraphTensorFramework::Variant::kBase);
  if (name == "Dynamic-GT")
    return std::make_unique<GraphTensorFramework>(
        GraphTensorFramework::Variant::kDynamic);
  if (name == "Prepro-GT")
    return std::make_unique<GraphTensorFramework>(
        GraphTensorFramework::Variant::kPrepro);
  throw std::out_of_range("unknown framework: " + name);
}

const std::vector<std::string>& framework_names() {
  static const std::vector<std::string> names = {
      "PyG",     "PyG-MT",  "DGL",        "GNNAdvisor",
      "SALIENT", "Base-GT", "Dynamic-GT", "Prepro-GT"};
  return names;
}

}  // namespace gt::frameworks

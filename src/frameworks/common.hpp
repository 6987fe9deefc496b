// Shared machinery for framework implementations: preprocessing + schedule,
// device session setup (uploads), the training step every backend runs
// (FWP -> loss -> BWP, run_layers), SGD staging, and the report tail.
#pragma once

#include <functional>

#include "dfg/cost_model.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/sharding.hpp"
#include "gpusim/device.hpp"
#include "kernels/common.hpp"
#include "kernels/napa.hpp"
#include "pipeline/executor.hpp"

namespace gt::frameworks::detail {

/// Device configuration used for every evaluation run: the scaled-down
/// RTX 3090 (DESIGN.md §2). Capacity is scaled with the datasets so that
/// the paper's livejournal/NGCF DL-approach out-of-memory reproduces.
gpusim::DeviceConfig eval_device_config();

/// Phase-1 shared helper: pick the batch deterministically, run the
/// context-backed serial preprocessing, derive the workload, and price the
/// schedule — all into `ctx`'s reusable storage (identical output to the
/// old by-value preprocess()). `gather == false` skips K: the caller's
/// embedding cache gathers the rows at execute time.
void preprocess_into(const Dataset& data, const BatchSpec& spec,
                     std::uint32_t num_layers,
                     const sampling::ReindexFormats& formats,
                     const pipeline::PlanOptions& plan,
                     pipeline::BatchContext& ctx, bool gather = true);

/// Uploaded device state for one batch.
struct DeviceSession {
  gpusim::Device dev;
  gpusim::BufferId input = gpusim::kInvalidBuffer;  // layer-0 feature table
  std::vector<kernels::DeviceCsr> csr;              // per exec-layer
  std::vector<kernels::DeviceCsc> csc;
  std::vector<kernels::DeviceCoo> coo;
  std::vector<gpusim::BufferId> w;
  std::vector<gpusim::BufferId> b;

  explicit DeviceSession(gpusim::DeviceConfig cfg) : dev(std::move(cfg)) {}
  DeviceSession(const DeviceSession&) = delete;
  DeviceSession& operator=(const DeviceSession&) = delete;
  /// Hands a lent input table back to its owner (DESIGN.md §9 rule 4).
  ~DeviceSession();

  /// Make `table`'s storage the device's `input` buffer for the session's
  /// lifetime: no zero-fill, no copy. Throws what adopt_f32 throws, with
  /// `table` left as it was. `table` must outlive the session and nothing
  /// may read it until the session is destroyed.
  void lend_input(Matrix& table);

 private:
  Matrix* lender_ = nullptr;
};

/// Move the layer-0 feature table, structures, and parameters onto the
/// device. Throws GpuOomError if the batch does not fit. The device profile
/// is cleared afterwards so the kernel profile covers FWP/BWP only
/// (Nsight-style measurement, §VI). The table `pre.embeddings` is lent, not
/// copied: it is empty until the session is destroyed. `lend_input ==
/// false` leaves it alone (the caller assembles the input, e.g. from an
/// embedding cache).
std::unique_ptr<DeviceSession> open_session(
    pipeline::PreprocResult& pre, const models::ModelParams& params,
    const sampling::ReindexFormats& formats, bool lend_input = true);

/// Buffers a batch's per-layer SGD updates so nothing touches the model
/// parameters until the batch reaches a reported outcome (success or OOM,
/// matching the kernel work that actually ran). An exception unwinding out
/// of execute_prepared mid-backward — e.g. a transient injected fault the
/// service will retry — discards the stage, so the retried batch starts
/// from exactly the parameters a fault-free run would see (the fault.hpp
/// determinism contract); a batch that degrades past the retry budget
/// likewise contributes nothing. The downloads are arena views, valid
/// until the context's next begin_batch — well past commit().
class SgdStage {
 public:
  SgdStage(models::ModelParams& params, float lr)
      : params_(&params), lr_(lr) {}

  /// Download `layer`'s dw/db into `ctx`'s arena and hold them.
  void stage(gpusim::Device& dev, std::uint32_t layer, gpusim::BufferId dw,
             gpusim::BufferId db, pipeline::BatchContext& ctx);

  /// Tensor-parallel commit mode: each layer's dw is applied as the
  /// per-device disjoint row slices `boundaries[layer]` describes
  /// ([devices+1] ascending offsets over dw's rows), in device order,
  /// inside the same transactional commit. Element updates are
  /// independent, so the result is bit-identical to the full-matrix
  /// update. `boundaries` must outlive commit(); nullptr resets.
  void set_device_row_slices(
      const std::vector<std::vector<std::size_t>>* boundaries) {
    row_slices_ = boundaries;
  }

  /// Apply every staged update in stage order and clear the stage.
  void commit();

 private:
  struct Pending {
    std::uint32_t layer;
    ConstMatrixView dw, db;
  };
  models::ModelParams* params_;
  float lr_;
  std::vector<Pending> pending_;
  const std::vector<std::vector<std::size_t>>* row_slices_ = nullptr;
};

/// Shared tail of the frameworks' GpuOomError handling: mark the report
/// OOM, keep the priced preprocessing schedule (the host-side work really
/// happened), and bump the OOM counter. The batch is *reported*, never
/// rethrown — the service's degradation accounting builds on this.
void record_oom(RunReport& report, const gpusim::GpuOomError& e,
                const pipeline::BatchContext& ctx);

/// Fill the RunReport's GPU-side fields from the device profile and
/// combine `ctx`'s priced preprocessing schedule + compute into the
/// end-to-end latency; the report's arena counters are filled from `ctx`.
/// With `shard` (a devices > 1 run's attributed execution), the
/// multi-device report fields are filled, comm.* metrics and per-device
/// gauges are emitted, the kernel ledger records per-device rows, and the
/// end-to-end latency overlaps the *group* makespan instead of the serial
/// kernel time — everything the single-device report derives stays
/// untouched.
void finalize_report(RunReport& report, const gpusim::Device& dev,
                     bool overlap_compute, const pipeline::BatchContext& ctx,
                     const ShardedExecution* shard = nullptr);

/// A backend's per-layer kernel bodies, the only part of the training
/// step that differs between backends. Each keeps its own forward
/// artifacts, indexed by layer.
struct LayerPasses {
  /// Run layer `l` on `x`, keep what backward needs, return the output.
  std::function<gpusim::BufferId(std::uint32_t l, gpusim::BufferId x)>
      forward;
  /// Gradients of layer `l` given its input and dL/dout; `dx` is computed
  /// only when `want_dx` (every layer but the first).
  std::function<kernels::napa::DenseGrads(std::uint32_t l,
                                          gpusim::BufferId x_in,
                                          gpusim::BufferId dy, bool want_dx)>
      backward;
  /// Free what forward kept for layer `l` (not its output).
  std::function<void(std::uint32_t l)> release;
};

/// The training step every backend runs on `session`'s device: the
/// forward pass over all layers (phase kForward, span frameworks.forward),
/// report.fwp_us, then — unless spec.inference — the loss head and the
/// backward pass (phase kBackward, span frameworks.backward), which stages
/// each layer's SGD update in `sgd` and frees its gradients, dy and
/// forward artifacts in that order; then report.bwp_us. Marks
/// report.layer_comb_first_* from `orders` up front. Every layer call is
/// appended to `calls` when it returns — its profile range and
/// `us` = profile_latency_us() after minus before — so after a GpuOomError
/// `calls` holds exactly the calls that completed.
void run_layers(DeviceSession& session, const models::GnnModelConfig& model,
                const BatchSpec& spec,
                const std::vector<dfg::KernelOrder>& orders,
                const LayerPasses& passes, SgdStage& sgd,
                pipeline::BatchContext& ctx, RunReport& report,
                std::vector<LayerSlice>& calls);

}  // namespace gt::frameworks::detail

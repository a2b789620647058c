// Per-layer probes of the traced run. Each probe calls one layer's public
// functions from here and times them; none of them changes library code.
//
//   LayerProbe  — replays a solve's kernel launches on a Device with an
//                 AccessObserver: per-kernel and per-phase host time
//                 (gpukernels.*), and captured warp accesses on which the
//                 coalescer, bank model and L2 are timed alone (gpusim.*).
//   rerun_sharded / rerun_tree — one sharded or treecode solve re-run step
//                 by step through the shard and tree layers' public
//                 functions, checked byte-equal against the runner's V.
#pragma once

#include <map>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "pipelines/solver.h"

namespace hostbench {

/// One library call a workload makes: pipelines::solve(instance, params,
/// backend, options).
struct SolveCall {
  std::string label;
  ksum::workload::Instance instance;
  ksum::core::KernelParams params;
  ksum::pipelines::Backend backend = ksum::pipelines::Backend::kSimFused;
  ksum::pipelines::RunOptions options;
  /// Sampled fp64 oracle rows, computed at setup.
  std::vector<OracleRow> oracle;
};

class LayerProbe {
 public:
  LayerProbe();

  /// For each single-device, fault-free simulated call: solves it and
  /// replays its launches on a fresh Device back to back, three times
  /// (the fastest of each is kept, so overhead = solve − launches is not
  /// swamped by host noise); then replays once timestamping phase markers
  /// and once capturing warp accesses, on which the memory-model
  /// components are timed alone. Adds the pipelines.*, gpukernels.* and
  /// gpusim.* metrics. A replay whose counters differ from the solve's
  /// report is a failed check.
  void run(const std::vector<SolveCall>& calls, MetricSheet& layers,
           Checks& checks, Tracer& tracer);

 private:
  /// Replays `call`'s launches, each timed; returns the seconds spent
  /// inside them. Adds to kernels_ only when `record` is set.
  double timed_replay(const SolveCall& call,
                      const ksum::gpusim::Counters& expected, bool record,
                      Checks& checks, Tracer& tracer);
  void emit(MetricSheet& layers, const ksum::gpusim::Counters& counters,
            double simulate_seconds, Tracer& tracer);

  struct KernelStats {
    std::size_t launches = 0;
    double seconds = 0;
    std::uint64_t lane_fma = 0;
    std::map<std::string, double> phase_seconds;
  };
  struct GlobalSample {
    ksum::gpusim::GlobalWarpAccess access;
    bool store = false;
  };
  friend class PhaseClock;
  friend class AccessCapture;

  std::map<std::string, KernelStats> kernels_;
  std::vector<GlobalSample> global_;
  std::vector<ksum::gpusim::SharedWarpAccess> shared_;
  std::size_t global_seen_ = 0;
  std::size_t shared_seen_ = 0;
  std::mt19937_64 rng_{12345};
};

/// Device construction and reset at the serving layer's warm-arena size
/// (gpusim.device_ctor_ms / gpusim.device_reset_ms).
void time_device_lifecycle(MetricSheet& layers, Tracer& tracer);

/// Times workload::make_instance on `specs` (workload.make_instance_ms).
void time_make_instance(const std::vector<ksum::workload::ProblemSpec>& specs,
                        MetricSheet& layers, Tracer& tracer);

/// Re-runs the sharded `call` step by step — plan_shards, slice_instance,
/// one solve per slice, merge_tree + finalize_merge — and adds shard.*
/// metrics. The merged V must be byte-equal to `runner_v`.
void rerun_sharded(const SolveCall& call, const ksum::Vector& runner_v,
                   MetricSheet& layers, Checks& checks, Tracer& tracer);

/// Re-runs the treecode `call` step by step — partition, build_plan, the
/// near-field fused sub-solves, the far-field series — and adds tree.*
/// metrics. The combined V must be byte-equal to `runner_v`. Returns the
/// near-field sub-calls so their kernels can be replayed.
std::vector<SolveCall> rerun_tree(const SolveCall& call,
                                  const ksum::pipelines::SolveResult& runner,
                                  MetricSheet& layers, Checks& checks,
                                  Tracer& tracer);

/// True when the V vectors hold the same bits.
bool same_bits(const ksum::Vector& a, const ksum::Vector& b);

}  // namespace hostbench

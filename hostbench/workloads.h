// The three benchmark workloads (README.md in this directory explains why
// each exists and which layer metric should move which end-to-end metric).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace hostbench {

/// Everything one run measured. `end_to_end` holds the host metrics of the
/// untraced run, `layers` those of the traced run, and `info` the figures
/// printed beside them (modelled totals, sample counts, generator lag).
struct WorkloadResult {
  explicit WorkloadResult(bool trace) : tracer(trace) {}
  MetricSheet end_to_end;
  MetricSheet layers;
  MetricSheet info;
  Checks checks;
  Tracer tracer;
};

void run_serve_mixed(const RunConfig& config, WorkloadResult& out);
void run_dense_sweep(const RunConfig& config, WorkloadResult& out);
void run_tree_clustered(const RunConfig& config, WorkloadResult& out);

/// A closed sequence of pipelines::solve calls (dense_sweep,
/// tree_clustered), built by `prepare` — which also checks each first
/// result against its oracle rows through `check` — and timed pass after
/// pass until the run's seconds are spent.
struct ClosedLoop {
  std::function<std::vector<SolveCall>()> prepare;
  /// Checks one call's first result (oracle rows; treecode report).
  std::function<void(const SolveCall&, const ksum::pipelines::SolveResult&,
                     Checks&)>
      check;
  /// Traced-run probes, given the calls and their first results.
  std::function<void(const std::vector<SolveCall>&,
                     const std::vector<ksum::pipelines::SolveResult>&,
                     WorkloadResult&)>
      probe;
};

void run_closed_loop(const RunConfig& config, const ClosedLoop& loop,
                     WorkloadResult& out);

/// Device lifecycle and make_instance timings (on the calls' specs), which
/// every workload's traced run reports.
void add_common_layers(const std::vector<SolveCall>& calls,
                       WorkloadResult& out);

}  // namespace hostbench

// dense_sweep: a closed sequence of ten direct pipelines::solve calls on large
// tile-aligned shapes — all three solutions, K from 8 to 128, ABFT on two
// unfused calls, and sharded calls on each axis. Simulator hot paths
// dominate; per-request fixed costs are negligible here.
#include <cmath>

#include "workloads.h"

namespace hostbench {

using namespace ksum;
using pipelines::Backend;

namespace {

constexpr std::size_t kOracleRows = 64;

struct DenseShape {
  std::size_t m, n, k;
  Backend backend;
  bool robust;
  std::size_t shards;
  shard::ShardAxis axis;
};

// Ten calls, on one thread of a 4-core host: two short (≈ 45–60 ms), four
// of ≈ 90–100 ms (fused 1024×512×32 and the three sharded calls) and four
// long (≥ 0.13 s), so the per-call p50 — between the fifth and sixth —
// falls inside the middle group rather than at the edge of a gap between
// two groups of shapes.
const DenseShape kShapes[] = {
    {1024, 1024, 8, Backend::kSimFused, false, 1, shard::ShardAxis::kM},
    {1024, 512, 32, Backend::kSimFused, false, 1, shard::ShardAxis::kM},
    {512, 512, 128, Backend::kSimFused, false, 1, shard::ShardAxis::kM},
    {1024, 1024, 8, Backend::kSimCudaUnfused, false, 1, shard::ShardAxis::kM},
    {1024, 512, 32, Backend::kSimCudaUnfused, true, 1, shard::ShardAxis::kM},
    {1024, 1024, 32, Backend::kSimCublasUnfused, false, 1,
     shard::ShardAxis::kM},
    {512, 512, 128, Backend::kSimCublasUnfused, true, 1, shard::ShardAxis::kM},
    {2048, 512, 16, Backend::kSimFused, false, 2, shard::ShardAxis::kM},
    {512, 2048, 16, Backend::kSimFused, false, 2, shard::ShardAxis::kN},
    {1024, 512, 16, Backend::kSimCudaUnfused, false, 2, shard::ShardAxis::kM},
};

std::vector<SolveCall> make_calls(std::uint64_t seed) {
  std::vector<SolveCall> calls;
  std::uint64_t index = 0;
  for (const DenseShape& shape : kShapes) {
    SolveCall call;
    workload::ProblemSpec spec;
    spec.m = shape.m;
    spec.n = shape.n;
    spec.k = shape.k;
    // h grows with √K so kernel values stay away from 0 and 1 at every K.
    spec.bandwidth = 0.5f * static_cast<float>(std::sqrt(double(shape.k)));
    spec.seed = seed * 1000 + index++;
    call.label = "dense/" + pipelines::to_string(shape.backend) + "/" +
                 std::to_string(shape.m) + "x" + std::to_string(shape.n) +
                 "x" + std::to_string(shape.k);
    call.instance = workload::make_instance(spec);
    call.params = core::params_from_spec(spec);
    call.oracle = oracle_rows(call.instance, call.params, kOracleRows, seed);
    call.backend = shape.backend;
    if (shape.robust) {
      call.options.checks.enabled = true;
      call.options.recovery.enabled = true;
    }
    if (shape.shards > 1) {
      call.options.shards.count = shape.shards;
      call.options.shards.axis = shape.axis;
      // One worker: the slices run one after another on one thread, so a
      // host core slowed by other tenants does not stall a parallel join.
      call.options.shards.workers = 1;
      call.label += shape.axis == shard::ShardAxis::kM ? "/shard-m" : "/shard-n";
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

}  // namespace

void run_dense_sweep(const RunConfig& config, WorkloadResult& out) {
  ClosedLoop loop;
  loop.prepare = [&] { return make_calls(config.seed); };
  loop.check = [&](const SolveCall& call, const pipelines::SolveResult& result,
                   Checks& checks) {
    checks.compare_rows(call.oracle, result.v, 0.0, call.label);
    if (result.recovery.gave_up) checks.fail(call.label + ": ABFT gave up");
  };
  loop.probe = [&](const std::vector<SolveCall>& calls,
                   const std::vector<pipelines::SolveResult>& results,
                   WorkloadResult& res) {
    std::vector<SolveCall> probes;
    bool shard_done = false;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (!calls[i].options.shards.enabled()) {
        probes.push_back(calls[i]);
      } else if (calls[i].options.shards.axis == shard::ShardAxis::kN &&
                 !shard_done) {
        // The N-axis split is the one with a real merge (the staged fold).
        rerun_sharded(calls[i], results[i].v, res.layers, res.checks,
                      res.tracer);
        shard_done = true;
      }
    }
    LayerProbe probe;
    probe.run(probes, res.layers, res.checks, res.tracer);
  };
  run_closed_loop(config, loop, out);
}

}  // namespace hostbench

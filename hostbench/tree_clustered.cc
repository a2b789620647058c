// tree_clustered: the clustered geometry of bench/tree_scaling (16 blobs,
// K=2, h=0.01, ε=1e-4) at large N through RunOptions::tree, plus one
// sharded call. Host plan build and the far-field series are large shares
// here; the near field runs as many short fused launches at K=2.
#include "workloads.h"

namespace hostbench {

using namespace ksum;

namespace {

constexpr std::size_t kM = 2048, kK = 2, kBlobs = 16;
constexpr double kEps = 1e-4;
constexpr float kBandwidth = 0.01f;
constexpr std::size_t kOracleRows = 64;
constexpr std::size_t kReplayedNearBlocks = 8;

struct TreeShape {
  std::size_t n;
  std::size_t shards;
};
const TreeShape kShapes[] = {{100'000, 1}, {60'000, 2}, {30'000, 1}};

// Deterministic uniform in [0, 1) from (stream, i), splitmix-style.
float unit_hash(std::uint64_t stream, std::uint64_t i) {
  std::uint64_t x = stream * 0x9e3779b97f4a7c15ULL + i + 1;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<float>(x >> 40) / static_cast<float>(1ULL << 24);
}

// Sources and queries drawn from the same 16 blobs of width 0.02 whose
// centres sit on a 4×4 grid of pitch 0.2 (≫ h) with a seeded jitter, so
// most box pairs are far at ε=1e-4 and every seed has the same near/far
// structure; the seed moves the centres and the points within each blob.
workload::Instance make_clustered(std::size_t n, std::uint64_t seed) {
  workload::ProblemSpec spec;
  spec.m = kM;
  spec.n = n;
  spec.k = kK;
  spec.bandwidth = kBandwidth;
  spec.seed = seed;
  workload::Instance instance = workload::make_instance(spec);
  const std::uint64_t base = seed * 1000;
  float centers[kBlobs][kK];
  for (std::size_t c = 0; c < kBlobs; ++c) {
    for (std::size_t d = 0; d < kK; ++d) {
      const std::size_t cell = d == 0 ? c % 4 : c / 4;
      centers[c][d] = 0.1f + 0.8f * (static_cast<float>(cell) + 0.5f) / 4.0f +
                      0.04f * (unit_hash(base + c * kK + d, 0) - 0.5f);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t d = 0; d < kK; ++d) {
      instance.b.at(d, j) = centers[j % kBlobs][d] +
                            0.02f * (unit_hash(base + 100 + d, j) - 0.5f);
    }
  }
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t d = 0; d < kK; ++d) {
      instance.a.at(i, d) = centers[i % kBlobs][d] +
                            0.02f * (unit_hash(base + 200 + d, i) - 0.5f);
    }
  }
  return instance;
}

std::vector<SolveCall> make_calls(std::uint64_t seed) {
  std::vector<SolveCall> calls;
  std::uint64_t index = 0;
  for (const TreeShape& shape : kShapes) {
    SolveCall call;
    call.label = "tree/n" + std::to_string(shape.n);
    call.instance = make_clustered(shape.n, seed * 16 + index++);
    call.params = core::params_from_spec(call.instance.spec);
    call.oracle = oracle_rows(call.instance, call.params, kOracleRows, seed);
    call.backend = pipelines::Backend::kSimFused;
    call.options.tree.eps = kEps;
    call.options.tree.box_leaf = 256;
    call.options.tree.row_leaf = 128;
    if (shape.shards > 1) {
      call.options.shards.count = shape.shards;
      call.options.shards.workers = 1;  // as in dense_sweep
      call.label += "/shards" + std::to_string(shape.shards);
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

}  // namespace

void run_tree_clustered(const RunConfig& config, WorkloadResult& out) {
  ClosedLoop loop;
  loop.prepare = [&] { return make_calls(config.seed); };
  loop.check = [&](const SolveCall& call, const pipelines::SolveResult& result,
                   Checks& checks) {
    if (!result.tree.has_value() || !result.tree->used_tree) {
      checks.fail(call.label + ": fell back to the dense path");
    }
    // ε bounds the series truncation; float round-off rides on top within
    // the dense agreement tolerance at ‖V‖∞ (the ε contract as
    // tests/tree and bench/tree_scaling assert it). Weights of both signs
    // make single rows cancel to far below ‖V‖∞, where the expansion-form
    // distance's round-off (h = 0.01) alone exceeds a per-row tolerance —
    // the dense fused path shows the same error there.
    checks.compare_rows(call.oracle, result.v, kEps, call.label,
                        /*norm_wise=*/true);
  };
  loop.probe = [&](const std::vector<SolveCall>& calls,
                   const std::vector<pipelines::SolveResult>& results,
                   WorkloadResult& res) {
    const std::vector<SolveCall> near =
        rerun_tree(calls.front(), results.front(), res.layers, res.checks,
                   res.tracer);
    std::vector<SolveCall> sample;
    const std::size_t step =
        std::max<std::size_t>(1, near.size() / kReplayedNearBlocks);
    for (std::size_t i = 0; i < near.size(); i += step) {
      sample.push_back(near[i]);
    }
    LayerProbe probe;
    probe.run(sample, res.layers, res.checks, res.tracer);
  };
  run_closed_loop(config, loop, out);
}

}  // namespace hostbench

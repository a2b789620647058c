#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include "gpukernels/abft_check.h"
#include "gpukernels/device_workspace.h"
#include "gpukernels/fused_ksum.h"
#include "gpukernels/gemm_cublas_model.h"
#include "gpukernels/gemm_cudac.h"
#include "gpukernels/gemv_summation.h"
#include "gpukernels/kernel_eval.h"
#include "gpukernels/norms.h"
#include "gpusim/device.h"
#include "shard/merge.h"
#include "shard/plan.h"
#include "shard/runner.h"
#include "tree/partition.h"
#include "tree/plan.h"
#include "workload/padding.h"

namespace hostbench {

using namespace ksum;
using pipelines::Solution;

namespace {

constexpr std::size_t kSampleCap = 20000;  // captured accesses per kind

volatile std::uint64_t g_sink = 0;

const char* const kPhases[] = {"prologue", "mainloop", "epilogue",
                               "reduction"};

double ms(double seconds) { return seconds * 1e3; }

Solution solution_of(pipelines::Backend backend) {
  switch (backend) {
    case pipelines::Backend::kSimCudaUnfused:
      return Solution::kCudaUnfused;
    case pipelines::Backend::kSimCublasUnfused:
      return Solution::kCublasUnfused;
    default:
      return Solution::kFused;
  }
}

// The call's instance in the shape the solver pads it to (default tile
// geometry: M, N to 128, K to 8).
workload::Instance aligned_instance(const SolveCall& call) {
  if (workload::is_tile_aligned(call.instance.spec)) return call.instance;
  return workload::pad_instance(call.instance);
}

// Runs one kernel launch (or the fused kernel with its extra launches) and
// returns its counters; the hook times or simply calls it.
using Launch = std::function<gpusim::Counters()>;
using LaunchHook = std::function<void(const char* family, const Launch&)>;

gpusim::Counters run_launch(const char* family, const Launch& launch) {
  (void)family;
  return launch();
}

// The launch sequence run_pipeline runs for one fault-free attempt, with
// every launch routed through `hook`.
void replay_pipeline(gpusim::Device& device, const workload::Instance& inst,
                     const SolveCall& call, const LaunchHook& hook) {
  const pipelines::RunOptions& options = call.options;
  const Solution solution = solution_of(call.backend);
  const bool fused = solution == Solution::kFused;
  const bool checks = options.checks.enabled || options.recovery.enabled;
  const std::size_t m = inst.spec.m, n = inst.spec.n, k = inst.spec.k;
  const std::size_t block_rows =
      fused ? static_cast<std::size_t>(options.mainloop.geometry.tile_m) : 128;
  gpukernels::Workspace ws = gpukernels::allocate_workspace(
      device, m, n, k, !fused, checks, block_rows);
  gpukernels::upload_instance(device, ws, inst);
  gpukernels::ChecksumSink vsink;
  if (checks) {
    vsink.enabled = true;
    vsink.buffer = ws.vsum_check;
    vsink.blocks = m / block_rows;
  }
  if (!(fused && options.fuse_norms)) {
    hook("norms", [&] { return gpukernels::run_norms_a(device, ws).counters; });
    hook("norms", [&] { return gpukernels::run_norms_b(device, ws).counters; });
  }
  if (fused) {
    gpukernels::FusedOptions fopts;
    fopts.mainloop = options.mainloop;
    fopts.atomic_reduction = options.atomic_reduction;
    fopts.fuse_norms = options.fuse_norms;
    fopts.checksum = vsink;
    hook("fused_ksum", [&] {
      const gpukernels::FusedResult r =
          gpukernels::run_fused_ksum(device, ws, call.params, fopts);
      gpusim::Counters total = r.main.counters;
      for (const gpusim::LaunchResult& extra : r.extra) total += extra.counters;
      return total;
    });
  } else {
    if (solution == Solution::kCudaUnfused) {
      gpukernels::GemmOptions gopts;
      gopts.mainloop = options.mainloop;
      hook("gemm_cudac", [&] {
        return gpukernels::run_gemm_cudac(device, ws.a, ws.b, ws.c, m, n, k,
                                          gopts)
            .counters;
      });
    } else {
      hook("gemm_cublas_model", [&] {
        return gpukernels::run_gemm_cublas_model(device, ws.a, ws.b, ws.c, m,
                                                 n, k)
            .counters;
      });
    }
    if (checks && options.checks.gemm_colsum) {
      hook("abft_check",
           [&] { return gpukernels::run_abft_colsum(device, ws).counters; });
    }
    hook("kernel_eval", [&] {
      return gpukernels::run_kernel_eval(device, ws, call.params).counters;
    });
    hook("gemv_summation", [&] {
      return gpukernels::run_gemv_summation(device, ws, vsink).counters;
    });
  }
  device.flush_l2();
  gpukernels::download_result(device, ws);
}

// The kernel a launch belongs to, under the names the metrics use.
std::string kernel_family(const std::string& launch_name) {
  if (launch_name.rfind("norms", 0) == 0) return "norms";
  if (launch_name == "gemm_cublas") return "gemm_cublas_model";
  if (launch_name == "abft_colsum") return "abft_check";
  if (launch_name == "fused_partial_reduce") return "fused_ksum";
  return launch_name;
}

const char* const kFamilies[] = {"fused_ksum",     "gemm_cudac",
                                 "gemm_cublas_model", "kernel_eval",
                                 "gemv_summation", "norms",
                                 "abft_check"};

std::size_t arena_bytes(const workload::Instance& inst, const SolveCall& call) {
  return pipelines::required_device_bytes(
      inst.spec.m, inst.spec.n, inst.spec.k,
      solution_of(call.backend) != Solution::kFused,
      static_cast<std::size_t>(call.options.mainloop.geometry.tile_n));
}

}  // namespace

// Timestamps phase markers. Time between a launch's start and its first
// marker, and between CTAs, is booked to phase "other".
class PhaseClock : public gpusim::AccessObserver {
 public:
  explicit PhaseClock(LayerProbe& probe) : probe_(probe) {}

  void on_launch_begin(const gpusim::LaunchObservation& launch) override {
    kernel_ = kernel_family(launch.kernel_name);
    phase_ = "other";
    phase_start_ = Clock::now();
  }
  void on_phase(const gpusim::PhaseObservation& marker) override {
    switch_phase(marker.phase);
  }
  void on_cta_end() override { switch_phase("other"); }
  void on_launch_end(const gpusim::Counters& counters) override {
    (void)counters;
    switch_phase("other");
  }

 private:
  void switch_phase(const char* next) {
    const Clock::time_point now = Clock::now();
    probe_.kernels_[kernel_].phase_seconds[phase_] +=
        seconds_between(phase_start_, now);
    phase_ = next;
    phase_start_ = now;
  }

  LayerProbe& probe_;
  std::string kernel_;
  std::string phase_ = "other";
  Clock::time_point phase_start_;
};

// Reservoir-samples warp accesses (bounded memory, spread over the run).
class AccessCapture : public gpusim::AccessObserver {
 public:
  explicit AccessCapture(LayerProbe& probe) : probe_(probe) {}
  void on_global_access(const gpusim::GlobalAccessEvent& event) override {
    const std::size_t slot = pick(probe_.global_seen_++);
    LayerProbe::GlobalSample sample{event.access,
                                    event.kind != gpusim::AccessKind::kLoad};
    if (slot == probe_.global_.size()) {
      probe_.global_.push_back(sample);
    } else if (slot < probe_.global_.size()) {
      probe_.global_[slot] = sample;
    }
  }
  void on_shared_access(const gpusim::SharedAccessEvent& event) override {
    const std::size_t slot = pick(probe_.shared_seen_++);
    if (slot == probe_.shared_.size()) {
      probe_.shared_.push_back(event.access);
    } else if (slot < probe_.shared_.size()) {
      probe_.shared_[slot] = event.access;
    }
  }

 private:
  // Index in the reservoir for the seen-th event, or kSampleCap to drop it.
  std::size_t pick(std::size_t seen) {
    if (seen < kSampleCap) return seen;
    const std::size_t j = static_cast<std::size_t>(probe_.rng_() % (seen + 1));
    return j < kSampleCap ? j : kSampleCap;
  }
  LayerProbe& probe_;
};

LayerProbe::LayerProbe() {
  global_.reserve(kSampleCap);
  shared_.reserve(kSampleCap);
}

double LayerProbe::timed_replay(const SolveCall& call,
                                const gpusim::Counters& expected, bool record,
                                Checks& checks, Tracer& tracer) {
  const workload::Instance inst = aligned_instance(call);
  Tracer::Scope span(tracer, "probe.replay");
  gpusim::Device device(call.options.device, arena_bytes(inst, call));
  double kernel_seconds = 0;
  std::map<std::string, KernelStats> launches;
  replay_pipeline(device, inst, call,
                  [&](const char* family, const Launch& launch) {
                    Tracer::Scope kernel(tracer,
                                         std::string("gpukernels.") + family);
                    const Clock::time_point t0 = Clock::now();
                    const gpusim::Counters counters = launch();
                    const double seconds = seconds_between(t0, Clock::now());
                    KernelStats& stats = launches[family];
                    ++stats.launches;
                    stats.seconds += seconds;
                    stats.lane_fma += counters.fma_ops;
                    kernel_seconds += seconds;
                  });
  if (!(device.counters() == expected)) {
    checks.fail(call.label + ": kernel replay counters differ from the "
                             "solve's report");
  }
  for (const auto& [family, stats] : launches) {
    if (!record) break;
    KernelStats& total = kernels_[family];
    total.launches += stats.launches;
    total.seconds += stats.seconds;
    total.lane_fma += stats.lane_fma;
  }
  return kernel_seconds;
}

void LayerProbe::run(const std::vector<SolveCall>& calls, MetricSheet& layers,
                     Checks& checks, Tracer& tracer) {
  constexpr int kRepeats = 3;
  std::vector<double> solve_ms, overhead_ms;
  gpusim::Counters counters;
  double simulate_seconds = 0;
  for (const SolveCall& call : calls) {
    double solve_s = 1e300, kernel_s = 1e300;
    gpusim::Counters expected;
    for (int r = 0; r < kRepeats; ++r) {
      const Clock::time_point t0 = Clock::now();
      pipelines::SolveResult result;
      {
        Tracer::Scope span(tracer, "pipelines.solve");
        result = pipelines::solve(call.instance, call.params, call.backend,
                                  call.options);
      }
      solve_s = std::min(solve_s, seconds_between(t0, Clock::now()));
      expected = result.report->total;
      kernel_s = std::min(kernel_s, timed_replay(call, expected, r == 0,
                                                 checks, tracer));
    }
    solve_ms.push_back(ms(solve_s));
    overhead_ms.push_back(ms(solve_s - kernel_s));
    counters += expected;
    simulate_seconds += solve_s;

    const workload::Instance inst = aligned_instance(call);
    {
      Tracer::Scope span(tracer, "probe.phases");
      gpusim::Device device(call.options.device, arena_bytes(inst, call));
      PhaseClock clock(*this);
      device.set_access_observer(&clock);
      replay_pipeline(device, inst, call, run_launch);
      device.set_access_observer(nullptr);
    }
    Tracer::Scope span(tracer, "probe.capture");
    gpusim::Device device(call.options.device, arena_bytes(inst, call));
    AccessCapture capture(*this);
    device.set_access_observer(&capture);
    replay_pipeline(device, inst, call, run_launch);
    device.set_access_observer(nullptr);
  }
  layers.set("pipelines.solve_ms", median(solve_ms), "ms");
  layers.set("pipelines.overhead_ms", median(overhead_ms), "ms");
  emit(layers, counters, simulate_seconds, tracer);
}

void LayerProbe::emit(MetricSheet& layers, const gpusim::Counters& counters,
                      double simulate_seconds, Tracer& tracer) {
  double kernel_seconds = 0;
  std::uint64_t lane_fma = 0;
  for (const char* family : kFamilies) {
    const auto it = kernels_.find(family);
    const KernelStats stats = it == kernels_.end() ? KernelStats{} : it->second;
    if (stats.launches == 0) continue;
    const std::string base = std::string("gpukernels.") + family;
    layers.set(base + ".ms", ms(stats.seconds) / double(stats.launches), "ms");
    double phased = 0;
    for (const auto& [phase, seconds] : stats.phase_seconds) phased += seconds;
    for (const char* phase : kPhases) {
      const auto p = stats.phase_seconds.find(phase);
      if (p == stats.phase_seconds.end() || phased <= 0) continue;
      layers.set(base + "." + phase + "_share", p->second / phased, "ratio");
    }
    if (stats.lane_fma > 0) {
      layers.set(base + ".ns_per_lane_fma",
                 stats.seconds * 1e9 / double(stats.lane_fma), "ns");
    }
  }
  for (const auto& [family, stats] : kernels_) {
    kernel_seconds += stats.seconds;
    lane_fma += stats.lane_fma;
  }
  layers.set("gpusim.ns_per_lane_fma",
             lane_fma ? kernel_seconds * 1e9 / double(lane_fma) : 0, "ns");

  Tracer::Scope span(tracer, "probe.memory_model");
  const config::DeviceSpec spec = pipelines::RunOptions{}.device;
  const int repeats = 5;
  std::uint64_t sink = 0;

  gpusim::Coalescer coalescer(spec.l2_sector_bytes);
  std::vector<std::vector<gpusim::GlobalAddr>> sectors;
  sectors.reserve(global_.size());
  for (const GlobalSample& s : global_) {
    sectors.push_back(coalescer.sectors_for(s.access));
  }
  const Clock::time_point c0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const GlobalSample& s : global_) {
      sink += coalescer.sectors_for(s.access).size();
    }
  }
  const double coalescer_ns =
      global_.empty() ? 0
                      : seconds_between(c0, Clock::now()) * 1e9 /
                            double(global_.size() * repeats);

  const Clock::time_point s0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const gpusim::SharedWarpAccess& a : shared_) {
      sink += static_cast<std::uint64_t>(
          gpusim::SharedMemory::transactions_for(a));
    }
  }
  const double smem_ns = shared_.empty()
                             ? 0
                             : seconds_between(s0, Clock::now()) * 1e9 /
                                   double(shared_.size() * repeats);

  gpusim::Device device(spec, 1 << 20);
  std::uint64_t reads = 0, hits = 0, misses = 0, writes = 0, writebacks = 0;
  gpusim::SectoredCache l2(device.l2().geometry(),
                           {&reads, &hits, &misses, &writes, &writebacks});
  const Clock::time_point l0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < global_.size(); ++i) {
      for (const gpusim::GlobalAddr sector : sectors[i]) {
        if (global_[i].store) {
          l2.write_sector(sector);
        } else {
          sink += l2.read_sector(sector) ? 1u : 0u;
        }
      }
    }
  }
  const double l2_seconds = seconds_between(l0, Clock::now());
  const std::uint64_t l2_calls = reads + writes;
  const double l2_ns = l2_calls ? l2_seconds * 1e9 / double(l2_calls) : 0;
  g_sink = sink;  // keeps the timed loops from being optimised away

  const double global_accesses = double(counters.global_load_requests +
                                        counters.global_store_requests +
                                        counters.atomic_requests);
  const double shared_accesses =
      double(counters.smem_load_requests + counters.smem_store_requests);
  const double l2_accesses = double(counters.l2_total_transactions());
  const double sim_ns = simulate_seconds * 1e9;
  const auto share = [&](double ns, double calls) {
    return sim_ns > 0 ? ns * calls / sim_ns : 0.0;
  };
  layers.set("gpusim.coalescer_ns", coalescer_ns, "ns");
  layers.set("gpusim.smem_ns", smem_ns, "ns");
  layers.set("gpusim.l2_ns", l2_ns, "ns");
  layers.set("gpusim.global_accesses", global_accesses, "count");
  layers.set("gpusim.shared_accesses", shared_accesses, "count");
  layers.set("gpusim.l2_sector_accesses", l2_accesses, "count");
  layers.set("gpusim.coalescer_share", share(coalescer_ns, global_accesses),
             "ratio");
  layers.set("gpusim.smem_share", share(smem_ns, shared_accesses), "ratio");
  layers.set("gpusim.l2_share", share(l2_ns, l2_accesses), "ratio");
}

void time_device_lifecycle(MetricSheet& layers, Tracer& tracer) {
  Tracer::Scope span(tracer, "probe.device_lifecycle");
  // The serving layer sizes warm devices for its padded admission bound
  // (256×256, K ≤ 16): dimensions to 256, K to 64, intermediate included.
  const std::size_t arena =
      pipelines::required_device_bytes(256, 256, 64, true, 32);
  const config::DeviceSpec spec = pipelines::RunOptions{}.device;
  std::vector<double> ctor, reset;
  SolveCall call;
  workload::ProblemSpec ps;
  ps.m = ps.n = 256;
  ps.k = 16;
  call.instance = workload::make_instance(ps);
  call.params = core::params_from_spec(ps);
  for (int i = 0; i < 8; ++i) {
    Clock::time_point t0 = Clock::now();
    std::optional<gpusim::Device> device;
    device.emplace(spec, arena);
    ctor.push_back(seconds_between(t0, Clock::now()));
    replay_pipeline(*device, call.instance, call, run_launch);
    t0 = Clock::now();
    device->reset();
    reset.push_back(seconds_between(t0, Clock::now()));
  }
  layers.set("gpusim.device_ctor_ms", ms(median(ctor)), "ms");
  layers.set("gpusim.device_reset_ms", ms(median(reset)), "ms");
}

void time_make_instance(const std::vector<workload::ProblemSpec>& specs,
                        MetricSheet& layers, Tracer& tracer) {
  std::vector<double> times;
  for (const workload::ProblemSpec& spec : specs) {
    Tracer::Scope span(tracer, "workload.make_instance");
    const Clock::time_point t0 = Clock::now();
    const workload::Instance inst = workload::make_instance(spec);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  layers.set("workload.make_instance_ms", ms(median(times)), "ms");
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void rerun_sharded(const SolveCall& call, const Vector& runner_v,
                   MetricSheet& layers, Checks& checks, Tracer& tracer) {
  Tracer::Scope outer(tracer, "probe.shard_steps");
  const Solution solution = solution_of(call.backend);
  const workload::Instance& inst = call.instance;

  Clock::time_point t0 = Clock::now();
  shard::ShardPlan plan;
  {
    Tracer::Scope span(tracer, "shard.plan");
    plan = shard::plan_shards(inst.spec.m, inst.spec.n, inst.spec.k,
                              call.options, solution);
  }
  const double plan_s = seconds_between(t0, Clock::now());

  t0 = Clock::now();
  std::vector<workload::Instance> slices;
  {
    Tracer::Scope span(tracer, "shard.slice");
    for (const shard::ShardRange& range : plan.ranges) {
      slices.push_back(shard::slice_instance(inst, plan.axis, range));
    }
  }
  const double slice_s = seconds_between(t0, Clock::now());

  std::vector<double> solve_s;
  std::vector<shard::ShardPiece> pieces;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    pipelines::RunOptions options = call.options;
    options.shards = shard::ShardSpec{};
    shard::StagedPartials staged;
    if (plan.axis == shard::ShardAxis::kN) {
      options.atomic_reduction = false;
      options.capture_staged_partials = &staged;
      options.recovery.fallback_to_unfused = false;
    }
    t0 = Clock::now();
    pipelines::SolveResult result;
    {
      Tracer::Scope span(tracer, "pipelines.solve");
      result = pipelines::solve(slices[i], call.params, call.backend, options);
    }
    solve_s.push_back(seconds_between(t0, Clock::now()));
    shard::ShardPiece piece;
    piece.index = i;
    piece.begin = plan.ranges[i].begin;
    piece.end = plan.ranges[i].end;
    if (plan.axis == shard::ShardAxis::kM) {
      piece.rows.assign(result.v.data(), result.v.data() + result.v.size());
    } else {
      piece.staged = std::move(staged.data);
      piece.staged_rows = staged.rows;
      piece.staged_cols = staged.cols;
    }
    pieces.push_back(std::move(piece));
  }

  t0 = Clock::now();
  Vector merged;
  {
    Tracer::Scope span(tracer, "shard.merge");
    const shard::ShardPiece root =
        shard::merge_tree(plan.axis, std::move(pieces));
    merged = shard::finalize_merge(plan.axis, root, inst.spec.m);
  }
  const double merge_s = seconds_between(t0, Clock::now());
  if (!same_bits(merged, runner_v)) {
    checks.fail(call.label + ": step-by-step shard merge differs from the "
                             "shard runner's V");
  }

  double mean = 0;
  for (const double s : solve_s) mean += s;
  mean /= double(solve_s.size());
  layers.set("shard.plan_ms", ms(plan_s), "ms");
  layers.set("shard.slice_ms", ms(slice_s), "ms");
  layers.set("shard.merge_ms", ms(merge_s), "ms");
  layers.set("shard.max_over_mean",
             *std::max_element(solve_s.begin(), solve_s.end()) / mean,
             "ratio");
}

std::vector<SolveCall> rerun_tree(const SolveCall& call,
                                  const pipelines::SolveResult& runner,
                                  MetricSheet& layers, Checks& checks,
                                  Tracer& tracer) {
  Tracer::Scope outer(tracer, "probe.tree_steps");
  const workload::Instance& inst = call.instance;
  const tree::TreeSpec& spec = call.options.tree;
  const std::size_t k = inst.spec.k;

  Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "tree.partition");
    const tree::Partition cols =
        tree::partition_columns(inst.b, inst.w, spec.box_leaf, spec.max_depth);
    const tree::Partition rows =
        tree::partition_rows(inst.a, spec.row_leaf, spec.max_depth);
  }
  const double partition_s = seconds_between(t0, Clock::now());

  t0 = Clock::now();
  tree::TreePlan plan;
  {
    Tracer::Scope span(tracer, "tree.plan");
    plan = tree::build_plan(inst, call.params, spec);
  }
  const double plan_s = seconds_between(t0, Clock::now());

  // Near field: one packed fused sub-solve per row cluster, gathered the
  // way tree::evaluate gathers it (near boxes in ascending index order).
  pipelines::RunOptions sub_options = call.options;
  sub_options.tree = tree::TreeSpec{};
  sub_options.shards = shard::ShardSpec{};
  std::vector<SolveCall> subs;
  std::vector<Vector> near(plan.rows.size());
  double near_s = 0;
  for (std::size_t leaf = 0; leaf < plan.rows.size(); ++leaf) {
    const tree::RowCluster& cluster = plan.rows[leaf];
    const std::size_t rows = cluster.range.size();
    t0 = Clock::now();
    Tracer::Scope span(tracer, "tree.near");
    std::size_t near_cols = 0;
    for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
      if (plan.at(leaf, bx) == tree::PairKind::kNear) {
        near_cols += plan.boxes[bx].range.size();
      }
    }
    if (near_cols == 0) {
      near[leaf] = Vector(rows);
      near_s += seconds_between(t0, Clock::now());
      continue;
    }
    SolveCall sub;
    sub.label = call.label + "/near" + std::to_string(leaf);
    sub.params = call.params;
    sub.backend = pipelines::Backend::kSimFused;
    sub.options = sub_options;
    sub.instance.spec = inst.spec;
    sub.instance.spec.m = rows;
    sub.instance.spec.n = near_cols;
    sub.instance.a = Matrix(rows, k, Layout::kRowMajor);
    sub.instance.b = Matrix(k, near_cols, Layout::kColMajor);
    sub.instance.w = Vector(near_cols);
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t r = plan.row_part.order[cluster.range.begin + i];
      for (std::size_t d = 0; d < k; ++d) {
        sub.instance.a.at(i, d) = inst.a.at(r, d);
      }
    }
    std::size_t col = 0;
    for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
      if (plan.at(leaf, bx) != tree::PairKind::kNear) continue;
      const tree::LeafRange& range = plan.boxes[bx].range;
      for (std::size_t i = range.begin; i < range.end; ++i) {
        const std::size_t j = plan.column_part.order[i];
        for (std::size_t d = 0; d < k; ++d) {
          sub.instance.b.at(d, col) = inst.b.at(d, j);
        }
        sub.instance.w[col] = inst.w[j];
        ++col;
      }
    }
    {
      Tracer::Scope solve_span(tracer, "pipelines.solve");
      near[leaf] = pipelines::solve(sub.instance, sub.params, sub.backend,
                                    sub.options)
                       .v;
    }
    near_s += seconds_between(t0, Clock::now());
    subs.push_back(std::move(sub));
  }

  // Far field: the truncated series per row, double accumulation in
  // ascending box order, combined with the near field.
  t0 = Clock::now();
  Vector v(inst.spec.m);
  {
    Tracer::Scope span(tracer, "tree.far");
    const double h = static_cast<double>(call.params.bandwidth);
    const double h2 = h * h;
    for (std::size_t leaf = 0; leaf < plan.rows.size(); ++leaf) {
      const tree::RowCluster& cluster = plan.rows[leaf];
      for (std::size_t i = 0; i < cluster.range.size(); ++i) {
        const std::size_t r = plan.row_part.order[cluster.range.begin + i];
        double acc = 0;
        for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
          const tree::PairKind kind = plan.at(leaf, bx);
          if (kind == tree::PairKind::kNear) continue;
          const tree::BoxSummary& box = plan.boxes[bx];
          double dist2 = 0;
          for (std::size_t d = 0; d < k; ++d) {
            const double delta =
                static_cast<double>(inst.a.at(r, d)) - box.center[d];
            dist2 += delta * delta;
          }
          const double g = std::exp(-dist2 / (2 * h2));
          double term = g * box.weight_sum;
          if (kind == tree::PairKind::kFarOrder1) {
            double dot = 0;
            for (std::size_t d = 0; d < k; ++d) {
              dot += (static_cast<double>(inst.a.at(r, d)) - box.center[d]) *
                     box.moment[d];
            }
            term += g * dot / h2;
          }
          acc += term;
        }
        v[r] = static_cast<float>(static_cast<double>(near[leaf][i]) + acc);
      }
    }
  }
  const double far_s = seconds_between(t0, Clock::now());
  if (!same_bits(v, runner.v)) {
    checks.fail(call.label + ": step-by-step treecode differs from "
                             "pipelines::solve's V");
  }

  layers.set("tree.partition_ms", ms(partition_s), "ms");
  layers.set("tree.plan_ms", ms(plan_s), "ms");
  layers.set("tree.near_ms", ms(near_s), "ms");
  layers.set("tree.far_ms", ms(far_s), "ms");
  if (runner.tree.has_value()) {
    const tree::TreeReport& rep = *runner.tree;
    layers.set("tree.near_pairs", double(rep.near_pairs), "count");
    layers.set("tree.far_pairs",
               double(rep.far_pairs_order0 + rep.far_pairs_order1), "count");
    layers.set("tree.near_fraction",
               rep.near_fraction(inst.spec.m, inst.spec.n), "ratio");
  }
  return subs;
}

}  // namespace hostbench

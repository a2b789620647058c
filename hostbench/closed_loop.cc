#include <algorithm>

#include "workloads.h"

namespace hostbench {

using namespace ksum;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kMinPasses = 3;

// call_s and call_cpu_s are in seconds of the reference host: each measured
// time multiplied by the median of the host speeds (host_speed()) measured
// before the pass and after each of its calls.
struct Pass {
  std::vector<double> call_s;      // wall per call
  std::vector<double> call_cpu_s;  // process CPU per call
  std::vector<double> raw_call_s;  // wall per call, as measured
  std::vector<pipelines::SolveResult> results;
};

// Per call, its median time over `passes`.
std::vector<double> median_of(const std::vector<Pass>& passes,
                              std::vector<double> Pass::*times) {
  std::vector<double> medians;
  for (std::size_t i = 0; i < (passes.front().*times).size(); ++i) {
    std::vector<double> sample;
    for (const Pass& pass : passes) sample.push_back((pass.*times)[i]);
    medians.push_back(median(std::move(sample)));
  }
  return medians;
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

Pass run_pass(const std::vector<SolveCall>& calls, Tracer& tracer) {
  Pass pass;
  Tracer::Scope envelope(tracer, "pass", /*envelope=*/true);
  std::vector<double> speeds = {host_speed()};
  for (const SolveCall& call : calls) {
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "pipelines.solve");
      pass.results.push_back(
          pipelines::solve(call.instance, call.params, call.backend,
                           call.options));
    }
    pass.raw_call_s.push_back(seconds_between(t0, Clock::now()));
    pass.call_cpu_s.push_back(process_cpu_seconds() - cpu0);
    speeds.push_back(host_speed());
  }
  const double speed = median(speeds);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    pass.call_s.push_back(pass.raw_call_s[i] * speed);
    pass.call_cpu_s[i] *= speed;
  }
  return pass;
}

// Every pass must reproduce the first pass's bits: V and report counters.
void check_repeat(const std::vector<SolveCall>& calls, const Pass& first,
                  const Pass& pass, Checks& checks) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const pipelines::SolveResult& a = first.results[i];
    const pipelines::SolveResult& b = pass.results[i];
    if (!same_bits(a.v, b.v) || !(a.report->total == b.report->total)) {
      checks.fail(calls[i].label + ": a repeated solve changed its output");
    }
  }
}

}  // namespace

void run_closed_loop(const RunConfig& config, const ClosedLoop& loop,
                     WorkloadResult& out) {
  std::vector<double> setup_s;
  std::vector<SolveCall> calls;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    calls = loop.prepare();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.end_to_end.set("setup_s", median(setup_s), "s");

  Tracer off(false);
  std::vector<Pass> untraced, traced;
  const Clock::time_point start = Clock::now();
  Pass first = run_pass(calls, off);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    out.checks.attempt();
    const pipelines::SolveResult& result = first.results[i];
    loop.check(calls[i], result, out.checks);
    out.checks.digest().add(result.report->total);
    out.checks.modelled(result.report->seconds,
                        result.report->energy.total());
  }
  if (config.trace) {
    // Alternate untraced and traced passes so drift hits both alike.
    for (int p = 0; p < 2; ++p) {
      for (Tracer* tracer : {&off, &out.tracer}) {
        Pass pass = run_pass(calls, *tracer);
        out.checks.attempt(calls.size());
        check_repeat(calls, first, pass, out.checks);
        (tracer == &off ? untraced : traced).push_back(std::move(pass));
      }
    }
  } else {
    untraced.push_back(std::move(first));
    while (untraced.size() < kMinPasses ||
           seconds_between(start, Clock::now()) < config.seconds) {
      Pass pass = run_pass(calls, off);
      out.checks.attempt(calls.size());
      check_repeat(calls, untraced.front(), pass, out.checks);
      untraced.push_back(std::move(pass));
    }
    first = std::move(untraced.front());
    untraced.erase(untraced.begin());  // the first pass also warms caches
  }

  // wall_s and cpu_s: one pass with every call at its median; latency:
  // quantiles of the calls' medians.
  const std::vector<double> call_s = median_of(untraced, &Pass::call_s);
  std::vector<double> call_ms;
  for (const double s : call_s) call_ms.push_back(s * 1e3);
  const double wall_s = sum(call_s);
  out.end_to_end.set("wall_s", wall_s, "s");
  out.end_to_end.set("cpu_s", sum(median_of(untraced, &Pass::call_cpu_s)),
                     "s");
  out.end_to_end.set("latency_p50_ms", quantile(call_ms, 0.5), "ms");
  out.end_to_end.set("latency_p99_ms", quantile(call_ms, 0.99), "ms");
  out.end_to_end.set("max_rate_rps", double(calls.size()) / wall_s, "1/s");
  out.info.set("latency_samples", double(call_ms.size()), "count");
  out.info.set("passes", double(untraced.size()), "count");
  out.info.set("raw_wall_s", sum(median_of(untraced, &Pass::raw_call_s)),
               "s");

  if (config.trace) {
    const double traced_s = sum(median_of(traced, &Pass::call_s));
    out.layers.set("trace.overhead_share", (traced_s - wall_s) / wall_s,
                   "ratio");
    loop.probe(calls, first.results, out);
    add_common_layers(calls, out);
    // Pipeline executions per execution that was kept: every run the ABFT
    // checks flagged was wasted work (sharded and treecode solves need one
    // execution per shard or near block even when nothing is flagged).
    double attempts = 0, flagged = 0;
    for (const pipelines::SolveResult& result : first.results) {
      attempts += result.recovery.attempts;
      flagged += result.recovery.faults_detected;
    }
    out.layers.set("robust.attempts_per_solve",
                   attempts > flagged ? attempts / (attempts - flagged) : 1.0,
                   "ratio");
  }
}

void add_common_layers(const std::vector<SolveCall>& calls,
                       WorkloadResult& out) {
  time_device_lifecycle(out.layers, out.tracer);
  std::vector<workload::ProblemSpec> specs;
  for (const SolveCall& call : calls) specs.push_back(call.instance.spec);
  time_make_instance(specs, out.layers, out.tracer);
}

}  // namespace hostbench

// ksum-hostbench: runs one workload of the host-wall benchmark and prints
// a human-readable report followed by one JSON record on the last line.
//
//   ksum-hostbench --workload serve_mixed|dense_sweep|tree_clustered
//                  --seed N --seconds S --trace 0|1
//
// hostbench/run.py builds this binary, keeps the record and turns it into
// the benchmark's result line. Exit codes: 0 ok, 1 an output check failed,
// 2 bad arguments, 3 internal error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "profile/json.h"
#include "workloads.h"

namespace {

using namespace hostbench;
using ksum::profile::Json;

#ifndef KSUM_HOSTBENCH_BUILD_TYPE
#define KSUM_HOSTBENCH_BUILD_TYPE "unknown"
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "ksum-hostbench: %s\n"
               "usage: ksum-hostbench --workload serve_mixed|dense_sweep|"
               "tree_clustered --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

Json sheet_json(const MetricSheet& sheet) {
  Json j = Json::object();
  for (const MetricSheet::Entry& e : sheet.entries()) {
    Json m = Json::object();
    m.set("value", e.value);
    m.set("unit", e.unit);
    j.set(e.name, m);
  }
  return j;
}

void print_sheet(const char* title, const MetricSheet& sheet) {
  std::printf("%s\n", title);
  for (const MetricSheet::Entry& e : sheet.entries()) {
    std::printf("  %-40s %18.9g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0 && config.seconds <= 600)) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  config.nproc = cores > 0 ? static_cast<int>(cores) : 1;

  void (*run)(const RunConfig&, WorkloadResult&) = nullptr;
  if (config.workload == "serve_mixed") run = run_serve_mixed;
  if (config.workload == "dense_sweep") run = run_dense_sweep;
  if (config.workload == "tree_clustered") run = run_tree_clustered;
  if (run == nullptr) return usage("unknown workload");

  WorkloadResult result(config.trace);
  try {
    run(config, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ksum-hostbench: internal error: %s\n", e.what());
    return 3;
  }

  const Checks& checks = result.checks;
  result.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.info.set("failed_share",
                  checks.attempted()
                      ? double(checks.failed()) / double(checks.attempted())
                      : 0.0,
                  "ratio");
  result.info.set("modelled_device_s", checks.modelled_seconds(), "s");
  result.info.set("modelled_energy_j", checks.modelled_joules(), "J");
  result.info.set("max_abs_err", checks.max_abs_err(), "abs");
  result.info.set("oracle_rows", double(checks.oracle_rows_checked()),
                  "count");
  if (config.trace) {
    result.layers.set("trace.unaccounted_share",
                      result.tracer.unaccounted_share(), "ratio");
  }

  Json env = Json::object();
  env.set("build_type", KSUM_HOSTBENCH_BUILD_TYPE);
  env.set("compiler", __VERSION__);
  env.set("nproc", config.nproc);
  const char* omp = std::getenv("OMP_NUM_THREADS");
  env.set("omp_threads", omp != nullptr ? omp : "default");
  env.set("profile", "gtx970");
  env.set("workload", config.workload);
  env.set("seed", static_cast<std::uint64_t>(config.seed));
  env.set("seconds", config.seconds);
  env.set("trace", config.trace);

  std::printf("ksum-hostbench %s  seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("environment: %s\n", env.dump_compact().c_str());
  if (!config.trace) print_sheet("end-to-end (host clock):", result.end_to_end);
  print_sheet("outputs (modelled clock and checks):", result.info);
  if (config.trace) {
    print_sheet("per layer (traced run):", result.layers);
    std::printf("spans by self time (name, count, total ms, self ms):\n");
    for (const Tracer::Totals& t : result.tracer.totals()) {
      std::printf("  %-32s %8zu %12.3f %12.3f\n", t.name.c_str(), t.count,
                  t.total_s * 1e3, t.self_s * 1e3);
    }
  }
  std::printf("checks: %llu attempted, %llu failed; modelled digest %s\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()),
              checks.digest().hex().c_str());
  for (const std::string& why : checks.reasons()) {
    std::printf("  FAILED: %s\n", why.c_str());
  }

  Json record = Json::object();
  record.set("schema", "ksum-hostbench-v1");
  record.set("environment", env);
  record.set("attempted", checks.attempted());
  record.set("failed", checks.failed());
  record.set("digest", checks.digest().hex());
  record.set("end_to_end", sheet_json(result.end_to_end));
  record.set("layers", sheet_json(result.layers));
  record.set("info", sheet_json(result.info));
  std::printf("%s\n", record.dump_compact().c_str());
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

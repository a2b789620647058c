// Shared pieces of the host-wall benchmark: clocks, statistics, the metric
// sheet a workload fills, output checks with a modelled-field digest, and
// the span tracer of the traced run (README.md in this directory).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/kernels.h"
#include "gpusim/counters.h"
#include "workload/point_generators.h"

namespace hostbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end);
/// User + system CPU seconds of this process so far (all threads).
double process_cpu_seconds();
/// Host speed relative to the reference host: kReferenceLoopSeconds over
/// the time of a fixed reference loop (sorting and hashing, like the
/// simulator's host code; the fastest of three) timed now on the calling
/// thread. Below 1 when the host runs slower. The clock rate of a shared
/// host and its other tenants change from minute to minute and move every
/// timing of a run together; a time multiplied by the speed measured
/// around it is in seconds of the reference host.
double host_speed();
/// The reference loop's time on an idle 4-core Xeon (Sapphire Rapids) VM.
inline constexpr double kReferenceLoopSeconds = 1.4e-4;

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

/// What one run is asked to do (the command line of ksum-hostbench).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
};

/// Ordered name → (value, unit) list. Names are the metric names
/// BENCHMARK.json and README.md use.
class MetricSheet {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// FNV-1a 64 over the bytes of every modelled field a workload produced.
/// Host-only changes must leave it unchanged for a given workload and seed.
class Digest {
 public:
  void add(const ksum::gpusim::Counters& counters);
  void add(double value);
  void add(const std::string& text);
  std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One output row of the fp64 oracle: Σ_j exp(−d²/2h²)·w_j in double.
struct OracleRow {
  std::size_t row = 0;
  double value = 0;
};

/// The oracle at `count` evenly spread rows of `instance` (seeded offset).
std::vector<OracleRow> oracle_rows(const ksum::workload::Instance& instance,
                                   const ksum::core::KernelParams& params,
                                   std::size_t count, std::uint64_t seed);

/// Output checks of one run: every solve or request attempted, which of
/// them were wrong (with the first few reasons), the largest oracle error,
/// and the modelled totals that feed the digest.
class Checks {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);
  /// Compares `v` at each oracle row; wrong when |v − oracle| exceeds
  /// extra_abs plus the repo-wide dense agreement tolerance
  /// 5e-3·max(|oracle|, 1e-2) — taken per row, or with `norm_wise` at
  /// ‖V‖∞ over all rows (the ∞-norm form the treecode's ε contract is
  /// tested in; the result's ‖V‖∞ stands in for the unsampled oracle's).
  void compare_rows(const std::vector<OracleRow>& rows,
                    const ksum::Vector& v, double extra_abs,
                    const std::string& what, bool norm_wise = false);
  /// Accumulates modelled device seconds and energy into the totals and
  /// the digest (counters go to the digest directly).
  void modelled(double seconds, double joules);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double max_abs_err() const { return max_abs_err_; }
  std::uint64_t oracle_rows_checked() const { return oracle_rows_; }
  double modelled_seconds() const { return modelled_seconds_; }
  double modelled_joules() const { return modelled_joules_; }
  Digest& digest() { return digest_; }
  const Digest& digest() const { return digest_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t oracle_rows_ = 0;
  double max_abs_err_ = 0;
  double modelled_seconds_ = 0;
  double modelled_joules_ = 0;
  Digest digest_;
  std::vector<std::string> reasons_;
};

/// In-memory span recorder for the traced run. Spans nest by the order
/// they are opened on the calling thread; spans recorded after the fact
/// (serve requests) name their parent explicitly.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0;  // seconds since the tracer's epoch
    double end = 0;
    /// Envelope spans bound a unit of work; their self time is the part no
    /// layer span covers (the unaccounted share).
    bool envelope = false;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when tracing is off.
  int open(std::string name, bool envelope = false);
  void close(int span);
  /// Records a finished span with an explicit parent (-1 = top level).
  int record(std::string name, int parent, Clock::time_point start,
             Clock::time_point end, bool envelope = false);

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, bool envelope = false)
        : tracer_(tracer), span_(tracer.open(std::move(name), envelope)) {}
    ~Scope() { tracer_.close(span_); }
    int id() const { return span_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int span_;
  };

  struct Totals {
    std::string name;
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  /// Per-name count, total and self time (span minus the union of its
  /// children), sorted by self time, largest first.
  std::vector<Totals> totals() const;
  /// Σ self(envelope spans) / Σ duration(envelope spans); 0 without any.
  double unaccounted_share() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  /// Per span: its duration minus the union of its children's intervals.
  std::vector<double> self_times() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace hostbench

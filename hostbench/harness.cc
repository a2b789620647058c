#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace hostbench {

namespace {

// blas::max_rel_diff ≤ 5e-3 with a 1e-2 floor, as an absolute bound.
double dense_tolerance(double oracle) {
  return 5e-3 * std::max(std::abs(oracle), 1e-2);
}

}  // namespace

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

namespace {

// Sorts pseudo-random keys and probes an open-addressing table of them:
// branchy, cache-resident host work that allocates nothing, so the heap
// state the measured code leaves behind does not change its time.
double reference_loop_seconds() {
  constexpr std::size_t kKeys = 2048, kSlots = 4096;
  thread_local std::array<std::uint32_t, kKeys> keys;
  thread_local std::array<std::uint32_t, kSlots> table;
  // Fresh keys every time, so that the branch predictor cannot learn the
  // sort's branches from earlier runs.
  thread_local std::uint32_t x = 12345;
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t& key : keys) {
    x = x * 1664525u + 1013904223u;
    key = (x >> 8) | 1u;
  }
  std::sort(keys.begin(), keys.end());
  table.fill(0);
  const auto slot = [](std::uint32_t key) { return (key * 2654435761u) >> 20; };
  for (std::size_t i = 0; i < kKeys; i += 2) {
    std::uint32_t at = slot(keys[i]);
    while (table[at] != 0 && table[at] != keys[i]) at = (at + 1) % kSlots;
    table[at] = keys[i];
  }
  std::uint32_t found = 0;
  for (const std::uint32_t key : keys) {
    std::uint32_t at = slot(key);
    while (table[at] != 0 && table[at] != key) at = (at + 1) % kSlots;
    found += table[at] == key;
  }
  const double elapsed = seconds_between(t0, Clock::now());
  volatile std::uint32_t keep = found;
  (void)keep;
  return elapsed;
}

}  // namespace

double host_speed() {
  double fastest = reference_loop_seconds();
  for (int i = 0; i < 2; ++i) {
    fastest = std::min(fastest, reference_loop_seconds());
  }
  return kReferenceLoopSeconds / fastest;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

void MetricSheet::set(const std::string& name, double value,
                      const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ = (state_ ^ bytes[i]) * 0x100000001b3ULL;
  }
}

void Digest::add(const ksum::gpusim::Counters& counters) {
  // Every Counters field is a std::uint64_t, so the object is a packed
  // array of them with no padding bytes.
  static_assert(sizeof(ksum::gpusim::Counters) % sizeof(std::uint64_t) == 0);
  std::uint64_t words[sizeof(ksum::gpusim::Counters) / sizeof(std::uint64_t)];
  std::memcpy(words, &counters, sizeof(words));
  add_bytes(words, sizeof(words));
}

void Digest::add(double value) { add_bytes(&value, sizeof(value)); }

void Digest::add(const std::string& text) {
  add_bytes(text.data(), text.size());
  add_bytes("\0", 1);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

void Checks::fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

std::vector<OracleRow> oracle_rows(const ksum::workload::Instance& instance,
                                   const ksum::core::KernelParams& params,
                                   std::size_t count, std::uint64_t seed) {
  const std::size_t m = instance.spec.m;
  const std::size_t n = instance.spec.n;
  const std::size_t k = instance.spec.k;
  const double h = static_cast<double>(params.bandwidth);
  const double inv = 1.0 / (2.0 * h * h);
  count = std::min(count, m);
  const std::size_t stride = m / count;
  std::vector<OracleRow> rows;
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t row = static_cast<std::size_t>(seed % stride) + r * stride;
    double acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      double d2 = 0;
      for (std::size_t d = 0; d < k; ++d) {
        const double diff = static_cast<double>(instance.a.at(row, d)) -
                            static_cast<double>(instance.b.at(d, j));
        d2 += diff * diff;
      }
      acc += std::exp(-d2 * inv) * static_cast<double>(instance.w[j]);
    }
    rows.push_back({row, acc});
  }
  return rows;
}

void Checks::compare_rows(const std::vector<OracleRow>& rows,
                          const ksum::Vector& v, double extra_abs,
                          const std::string& what, bool norm_wise) {
  // ‖V‖∞ over every row: the oracle rows are a sample, the result is whole.
  double largest = 0;
  for (const OracleRow& oracle : rows) {
    largest = std::max(largest, std::abs(oracle.value));
  }
  for (std::size_t i = 0; norm_wise && i < v.size(); ++i) {
    largest = std::max(largest, std::abs(static_cast<double>(v[i])));
  }
  for (const OracleRow& oracle : rows) {
    const double err =
        std::abs(static_cast<double>(v[oracle.row]) - oracle.value);
    const double tolerance =
        dense_tolerance(norm_wise ? largest : oracle.value) + extra_abs;
    ++oracle_rows_;
    max_abs_err_ = std::max(max_abs_err_, err);
    if (!(err <= tolerance)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s row %zu: |V - V_fp64| = %.3e",
                    what.c_str(), oracle.row, err);
      fail(buf);
    }
  }
}

void Checks::modelled(double seconds, double joules) {
  modelled_seconds_ += seconds;
  modelled_joules_ += joules;
  digest_.add(seconds);
  digest_.add(joules);
}

int Tracer::open(std::string name, bool envelope) {
  if (!enabled_) return -1;
  const double now = seconds_between(epoch_, Clock::now());
  spans_.push_back(
      {std::move(name), open_.empty() ? -1 : open_.back(), now, now,
       envelope});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end =
      seconds_between(epoch_, Clock::now());
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::record(std::string name, int parent, Clock::time_point start,
                   Clock::time_point end, bool envelope) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), parent, seconds_between(epoch_, start),
                    seconds_between(epoch_, end), envelope});
  return static_cast<int>(spans_.size() - 1);
}

namespace {

// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0, cur_start = 0, cur_end = -1e300;
  for (const auto& [s, e] : intervals) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start, span.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start - union_length(children[i]);
  }
  return self;
}

std::vector<Tracer::Totals> Tracer::totals() const {
  const std::vector<double> self = self_times();
  std::vector<Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto it = std::find_if(out.begin(), out.end(), [&](const Totals& t) {
      return t.name == span.name;
    });
    if (it == out.end()) {
      out.push_back({span.name, 0, 0, 0});
      it = out.end() - 1;
    }
    ++it->count;
    it->total_s += span.end - span.start;
    it->self_s += self[i];
  }
  std::sort(out.begin(), out.end(), [](const Totals& a, const Totals& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

double Tracer::unaccounted_share() const {
  const std::vector<double> self = self_times();
  double unaccounted = 0, total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!spans_[i].envelope) continue;
    total += spans_[i].end - spans_[i].start;
    unaccounted += self[i];
  }
  return total > 0 ? unaccounted / total : 0.0;
}

}  // namespace hostbench

// serve_mixed: an open-loop seeded request mix into an in-process
// serve::Server — the only workload with queueing and per-request fixed
// costs (parse, admission, Device::reset, the instance cache).
//
// The mix is a pool of distinct request lines; the timed phase sends them
//   1. as bursts (the whole pool at once, drained) — wall_s and cpu_s;
//   2. open-loop at the nominal rate — latency from each request's due
//      send time to its reply, and how late the generator ran;
//      (1 and 2 alternate in cycles over the first 70 % of the run)
//   3. open-loop at fixed rates above nominal — max_rate_rps is the
//      highest at which p99 meets the limit, the backlog does not grow and
//      nothing fails.
// Replies are checked against a 1-worker replay of the pool; fault-free
// entries are also re-solved directly and compared with the fp64 oracle.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "profile/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "shard/plan.h"
#include "workloads.h"

namespace hostbench {

using namespace ksum;

namespace {

// Rates and the latency limit were fixed from measured service time on a
// 4-core host: the pool costs ≈ 3.7 ms of CPU per request, so the 2 workers
// drain ≈ 500 req/s. Nominal load is a fifth of that, low enough that
// queueing does not amplify host slowdowns into the tail; the fixed rates
// reach a third, so that a host running at half speed still keeps up at
// the top step and max_rate_rps reads the same. At nominal load p99 is ≈ 50 ms, set by the requests
// whose injected faults exhaust every attempt; the limit is four times
// that, for the same reason.
constexpr int kMaxWorkers = 2;
constexpr double kNominalRps = 100;
constexpr double kLadderRps[] = {115, 130, 145, 160};
constexpr double kLatencyLimitMs = 200;
// Shares of --seconds: bursts, the nominal phase, each fixed-rate step.
constexpr double kBurstShare = 0.15;
constexpr double kNominalShare = 0.55;
constexpr double kStepShare = 0.075;
// Bursts and the nominal phase run in this many alternating cycles, so a
// spell of load from other tenants falls on both alike.
constexpr int kCycles = 6;
constexpr double kFeasibleDeadlineMs = 5000;
constexpr std::size_t kPoolSize = 96;
constexpr std::uint64_t kPoolLayoutSeed = 0x5e7e;
constexpr std::size_t kAdmitMN = 256;
constexpr std::size_t kMaxShards = 4;
constexpr std::size_t kOracleRows = 8;
constexpr int kSetupRepeats = 5;

enum class Expect { kOk, kTimeout, kInvalid };

struct PoolEntry {
  std::string body;  // request fields after the id; whole line if malformed
  Expect expect = Expect::kOk;
  bool malformed = false;
  bool faulty = false;
  bool sharded = false;
  serve::ServeRequest request;  // parsed (not for malformed lines)
  std::vector<OracleRow> oracle;
};

std::string line_for(const PoolEntry& entry, const std::string& id) {
  if (entry.malformed) return entry.body;
  return "{\"op\":\"solve\",\"id\":\"" + id + "\"," + entry.body + "}";
}

std::string status_of(const std::string& reply) {
  const std::string key = "\"status\":\"";
  const std::size_t at = reply.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  return reply.substr(begin, reply.find('"', begin) - begin);
}

// The reply without its id (replies are a pure function of the request).
std::string payload_of(const std::string& reply) {
  const std::size_t at = reply.find("\"status\"");
  return at == std::string::npos ? reply : reply.substr(at);
}

const char* expected_status(Expect expect) {
  switch (expect) {
    case Expect::kOk:
      return "ok";
    case Expect::kTimeout:
      return "timeout";
    case Expect::kInvalid:
      return "invalid";
  }
  return "";
}

// The pool's layout — which entries are malformed, faulty (with which
// fault stream), oversized, on which backend and shape — is the same for
// every seed, so every seed asks for the same work; the seed picks the
// instance data.
std::vector<PoolEntry> make_pool(std::uint64_t seed) {
  std::mt19937_64 layout(kPoolLayoutSeed);
  const auto pick = [&layout](std::size_t n) {
    return static_cast<std::size_t>(layout() % n);
  };
  static const std::size_t kSmall[] = {128, 128, 256};
  static const char* const kSim[] = {"sim-fused", "sim-fused",
                                     "sim-cuda-unfused", "sim-cublas-unfused"};
  std::vector<PoolEntry> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    PoolEntry entry;
    std::size_t m = kSmall[pick(3)], n = kSmall[pick(3)];
    std::size_t k = pick(2) ? 16 : 8;
    std::string backend = kSim[pick(4)];
    std::string extra = ",\"deadline_ms\":" +
                        std::to_string(int(kFeasibleDeadlineMs));
    if (i % 32 == 7) {
      entry.malformed = true;
      entry.expect = Expect::kInvalid;
      entry.body = i % 64 == 7 ? "{\"op\":\"solve\",\"m\":" + std::to_string(m)
                               : "not a request #" + std::to_string(i);
      pool.push_back(std::move(entry));
      continue;
    }
    if (i % 32 == 19) {
      entry.expect = Expect::kTimeout;  // hopeless deadline
      extra = ",\"deadline_ms\":0.000001";
    } else if (i % 32 == 3 || i % 32 == 27) {
      // Rate 0.05 exhausts every attempt, so the reply degrades to the
      // host; 0.005 is mostly recovered by the solver's own ABFT retries.
      entry.faulty = true;
      m = n = 128;
      k = 8;
      backend = "sim-fused";
      extra += ",\"fault_rate\":" + std::string(i % 32 == 3 ? "0.05" : "0.005") +
               ",\"fault_seed\":" + std::to_string(1 + layout() % 1000000);
    } else if (i % 24 == 11) {
      entry.sharded = true;  // oversized on M: admission shards it
      m = pick(2) ? 512 : 768;
      backend = pick(2) ? "sim-fused" : "sim-cublas-unfused";
    } else if (i % 24 == 5) {
      backend = pick(2) ? "cpu-expansion" : "cpu-direct";
    }
    // Instance seeds repeat within a shape, so some requests hit a
    // worker's one-entry instance cache.
    entry.body = "\"m\":" + std::to_string(m) + ",\"n\":" + std::to_string(n) +
                 ",\"k\":" + std::to_string(k) +
                 ",\"seed\":" + std::to_string(seed * 10 + pick(3)) +
                 ",\"backend\":\"" + backend + "\"" + extra;
    entry.request = serve::parse_request(line_for(entry, "p"));
    pool.push_back(std::move(entry));
  }
  return pool;
}

// Receives reply lines from the server's sink; ids are the request's
// index within the current phase.
class Collector {
 public:
  struct Slot {
    Clock::time_point replied;
    std::string line;
    bool done = false;
  };

  void reset(std::size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.assign(count, Slot{});
    received_ = 0;
  }
  void on_reply(const std::string& line) {
    const Clock::time_point now = Clock::now();
    std::size_t index = 0;
    const std::string key = "{\"id\":\"";
    if (line.compare(0, key.size(), key) == 0 &&
        line.compare(key.size(), 1, "\"") != 0) {
      index = std::strtoull(line.c_str() + key.size(), nullptr, 10);
    } else {
      // Only intake replies carry no id, and intake replies are
      // synchronous: they belong to the line being sent.
      index = sync_index_.load();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (index >= slots_.size() || slots_[index].done) return;
    slots_[index] = {now, line, true};
    ++received_;
    if (received_ == slots_.size()) all_.notify_all();
  }
  bool wait_all(double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return all_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                         [this] { return received_ == slots_.size(); });
  }
  void sending(std::size_t index) { sync_index_.store(index); }
  std::vector<Slot> snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable all_;
  std::vector<Slot> slots_;
  std::size_t received_ = 0;
  std::atomic<std::size_t> sync_index_{0};
};

serve::ServerOptions server_options(int workers) {
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = 4 * kPoolSize;
  options.max_attempts = 3;
  options.max_m = kAdmitMN;
  options.max_n = kAdmitMN;
  options.max_k = 16;
  options.max_shards = kMaxShards;
  // Shards of an admitted oversized request run one after another on the
  // worker's own thread, so the load never exceeds the worker count.
  options.run.shards.workers = 1;
  return options;
}

struct Sent {
  std::size_t entry = 0;
  Clock::time_point due, sent, intake_done;
  std::size_t queue_depth = 0;
};

struct PhaseResult {
  std::vector<Sent> sent;
  std::vector<Collector::Slot> replies;
  bool complete = false;
  double wall_s = 0, cpu_s = 0;
  // Median host speed (host_speed()) over the phase: measured before and
  // after a burst, and by the generator between sends of an open loop.
  double speed = 1;
};

// Sends `order` (pool indexes) at `rate` per second (0 = all at once) and
// waits for every reply.
PhaseResult run_phase(serve::Server& server, Collector& collector,
                      const std::vector<PoolEntry>& pool,
                      const std::vector<std::size_t>& order, double rate) {
  PhaseResult out;
  out.sent.resize(order.size());
  collector.reset(order.size());
  std::vector<double> speeds = {host_speed()};
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::vector<std::string> lines;
  lines.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    lines.push_back(line_for(pool[order[i]], std::to_string(i)));
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    Sent& s = out.sent[i];
    s.entry = order[i];
    s.due = rate > 0 ? start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       double(i) / rate))
                     : start;
    std::this_thread::sleep_until(s.due);
    s.sent = Clock::now();
    s.queue_depth = server.queue_depth();
    collector.sending(i);
    server.handle_line(lines[i]);
    s.intake_done = Clock::now();
    // The gauge takes well under a millisecond; it runs only where it
    // cannot delay the next send.
    if (rate > 0 && s.intake_done - s.due < std::chrono::duration<double>(
                                                  0.5 / rate)) {
      speeds.push_back(host_speed());
    }
  }
  out.complete = collector.wait_all(120.0);
  out.wall_s = seconds_between(start, Clock::now());
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.replies = collector.snapshot();
  if (rate == 0 && out.complete) {
    Clock::time_point last = start;
    for (const Collector::Slot& r : out.replies) last = std::max(last, r.replied);
    out.wall_s = seconds_between(start, last);
  }
  speeds.push_back(host_speed());
  out.speed = median(speeds);
  return out;
}

// Every reply must match the 1-worker reference: same status (so no shed
// request and no missed feasible deadline), and for ok replies the same
// payload bytes. Returns whether all of them did.
bool check_phase(const PhaseResult& phase, const std::vector<PoolEntry>& pool,
                 const std::vector<std::string>& reference, Checks& checks) {
  const std::uint64_t failed_before = checks.failed();
  checks.attempt(phase.sent.size());
  if (!phase.complete) checks.fail("serve: replies missing after 120 s");
  for (std::size_t i = 0; i < phase.sent.size(); ++i) {
    const PoolEntry& entry = pool[phase.sent[i].entry];
    const Collector::Slot& reply = phase.replies[i];
    std::string why;
    if (!reply.done) {
      why = "no reply";
    } else if (status_of(reply.line) != expected_status(entry.expect)) {
      why = "status " + status_of(reply.line) + ", expected " +
            expected_status(entry.expect);
    } else if (entry.expect == Expect::kOk &&
               payload_of(reply.line) !=
                   payload_of(reference[phase.sent[i].entry])) {
      why = "reply differs from the 1-worker replay";
    }
    if (!why.empty()) {
      checks.fail("serve entry " + std::to_string(phase.sent[i].entry) +
                  ": " + why);
    }
  }
  return checks.failed() == failed_before;
}

// One open-loop phase judged against the latency limit.
struct Step {
  double p50_ms = 0, p99_ms = 0;
  double completed_rps = 0;  // replies per second from the first due time
  bool ok = false;
};

// Judges the segments of one rate together: latency quantiles over all of
// their replies (in reference-host milliseconds; the limit applies to the
// latency as measured), completed rate over their summed spans.
Step judge_step(const std::vector<PhaseResult>& segments, bool outputs_ok,
                int workers) {
  Step step;
  std::vector<double> latency_ms, raw_latency_ms;
  double span_s = 0;
  bool grew = false;
  for (const PhaseResult& phase : segments) {
    const std::size_t n = phase.sent.size();
    Clock::time_point last = phase.sent.front().due;
    for (std::size_t i = 0; i < n; ++i) {
      const Collector::Slot& reply = phase.replies[i];
      if (!reply.done) continue;
      const double ms =
          seconds_between(phase.sent[i].due, reply.replied) * 1e3;
      raw_latency_ms.push_back(ms);
      latency_ms.push_back(ms * phase.speed);
      last = std::max(last, reply.replied);
    }
    span_s += seconds_between(phase.sent.front().due, last);
    // The backlog grew when the last tenth of the sends found the queue
    // deeper than the first half's mean plus one request per worker.
    double early = 0, late = 0;
    for (std::size_t i = 0; i < n / 2; ++i) {
      early += double(phase.sent[i].queue_depth);
    }
    for (std::size_t i = n - n / 10; i < n; ++i) {
      late += double(phase.sent[i].queue_depth);
    }
    grew = grew || late / double(n / 10) > early / double(n / 2) + workers;
  }
  step.p50_ms = quantile(latency_ms, 0.5);
  step.p99_ms = quantile(latency_ms, 0.99);
  step.completed_rps = double(latency_ms.size()) / span_s;
  step.ok = outputs_ok && !grew &&
            quantile(raw_latency_ms, 0.99) <= kLatencyLimitMs;
  return step;
}

// Pipeline executions per kept execution over the phases' ok replies:
// every run the ABFT checks flagged was wasted work.
double attempts_per_kept_run(const std::vector<PhaseResult>& phases) {
  double runs = 0, flagged = 0;
  for (const PhaseResult& phase : phases) {
    for (const Collector::Slot& reply : phase.replies) {
      if (status_of(reply.line) != "ok") continue;
      const profile::Json doc = profile::Json::parse(reply.line);
      const double degraded = doc.at("degraded").as_bool() ? 1 : 0;
      runs += doc.at("solver_attempts").as_double() + degraded;
      flagged += doc.at("faults_detected").as_double();
    }
  }
  return runs > flagged ? runs / (runs - flagged) : 1.0;
}

std::vector<std::size_t> pool_order() {
  std::vector<std::size_t> order(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) order[i] = i;
  return order;
}

// `count` sends cycling through the pool, each cycle in a seeded order, so
// every phase carries the pool's mix whatever the seed.
std::vector<std::size_t> draw_order(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> cycle = pool_order();
  std::vector<std::size_t> order;
  while (order.size() < count) {
    std::shuffle(cycle.begin(), cycle.end(), rng);
    const std::size_t take = std::min(cycle.size(), count - order.size());
    order.insert(order.end(), cycle.begin(), cycle.begin() + long(take));
  }
  return order;
}

// The direct pipelines::solve call the server makes for a fault-free entry.
SolveCall direct_call(const PoolEntry& entry) {
  SolveCall call;
  const serve::ServeRequest& request = entry.request;
  call.label = "serve/" + pipelines::to_string(request.backend) + "/" +
               request.spec.to_string();
  call.instance = workload::make_instance(request.spec);
  call.params = core::params_from_spec(request.spec);
  call.backend = request.backend;
  if (request.robust) {
    call.options.checks.enabled = true;
    call.options.recovery.enabled = true;
  }
  if (entry.sharded) {
    call.options.shards.count =
        shard::min_shards_for_limit(request.spec.m, 128, kAdmitMN);
    call.options.shards.axis = shard::ShardAxis::kM;
    call.options.shards.workers = 1;
  }
  return call;
}

}  // namespace

void run_serve_mixed(const RunConfig& config, WorkloadResult& out) {
  // The generator and reply collection keep a core; more workers than two
  // would only add threads for other tenants' load to slow down.
  const int workers = std::clamp(config.nproc - 1, 1, kMaxWorkers);
  Collector collector;
  const auto sink = [&collector](const std::string& line) {
    collector.on_reply(line);
  };

  // Set-up: the pool, its oracle rows, a started server and one warm-up
  // burst — repeated, the median reported.
  std::vector<PoolEntry> pool;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    pool = make_pool(config.seed);
    for (PoolEntry& entry : pool) {
      if (entry.expect != Expect::kOk || entry.faulty) continue;
      const workload::Instance inst =
          workload::make_instance(entry.request.spec);
      entry.oracle = oracle_rows(inst, core::params_from_spec(inst.spec),
                                 kOracleRows, config.seed);
    }
    server = std::make_unique<serve::Server>(server_options(workers), sink);
    server->start();
    if (!run_phase(*server, collector, pool, pool_order(), 0).complete) {
      out.checks.fail("serve: warm-up burst did not drain");
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.end_to_end.set("setup_s", median(setup_s), "s");

  // Reference replies: the pool replayed once through a 1-worker server.
  // Their modelled fields (each distinct request once) make the modelled
  // totals and feed the digest.
  std::vector<std::string> reference(kPoolSize);
  {
    Collector ref_collector;
    serve::Server ref(server_options(1), [&](const std::string& line) {
      ref_collector.on_reply(line);
    });
    ref.start();
    const PhaseResult phase =
        run_phase(ref, ref_collector, pool, pool_order(), 0);
    if (!phase.complete) out.checks.fail("serve: 1-worker replay incomplete");
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      reference[i] = phase.replies[i].line;
      if (status_of(reference[i]) != "ok") continue;
      const profile::Json reply = profile::Json::parse(reference[i]);
      out.checks.modelled(reply.at("modelled_ms").as_double() * 1e-3,
                          reply.at("energy_j").as_double());
      out.checks.digest().add(payload_of(reference[i]));
    }
  }

  // 1 and 2, in kCycles cycles: bursts (traced and untraced alternate in
  // the traced run), then a segment of the open loop at the nominal rate.
  Tracer off(false);
  std::vector<double> wall, cpu, traced_wall;
  std::vector<PhaseResult> nominal;
  const std::vector<std::size_t> nominal_order =
      draw_order(static_cast<std::size_t>(kNominalShare * config.seconds *
                                          kNominalRps),
                 config.seed * 7 + 1);
  bool nominal_ok = true;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const Clock::time_point cycle_start = Clock::now();
    for (int burst = 0;
         burst < 2 ||
         (!config.trace && seconds_between(cycle_start, Clock::now()) <
                               kBurstShare * config.seconds / kCycles);
         ++burst) {
      const bool traced = config.trace && burst % 2 == 1;
      Tracer& tracer = traced ? out.tracer : off;
      const int pass = tracer.open("pass");
      const PhaseResult phase =
          run_phase(*server, collector, pool, pool_order(), 0);
      tracer.close(pass);
      for (std::size_t i = 0; traced && i < phase.sent.size(); ++i) {
        const Sent& s = phase.sent[i];
        const int request = tracer.record("serve.request", pass, s.sent,
                                          phase.replies[i].replied,
                                          /*envelope=*/true);
        tracer.record("serve.intake", request, s.sent, s.intake_done);
      }
      check_phase(phase, pool, reference, out.checks);
      (traced ? traced_wall : wall).push_back(phase.wall_s * phase.speed);
      if (!traced) cpu.push_back(phase.cpu_s * phase.speed);
    }
    const std::size_t begin = nominal_order.size() * cycle / kCycles;
    const std::size_t end = nominal_order.size() * (cycle + 1) / kCycles;
    nominal.push_back(run_phase(
        *server, collector, pool,
        std::vector<std::size_t>(nominal_order.begin() + long(begin),
                                 nominal_order.begin() + long(end)),
        kNominalRps));
    nominal_ok =
        check_phase(nominal.back(), pool, reference, out.checks) && nominal_ok;
  }
  const double wall_s = median(wall);
  out.end_to_end.set("wall_s", wall_s, "s");
  out.end_to_end.set("cpu_s", median(cpu), "s");

  const Step nominal_step = judge_step(nominal, nominal_ok, workers);
  out.end_to_end.set("latency_p50_ms", nominal_step.p50_ms, "ms");
  out.end_to_end.set("latency_p99_ms", nominal_step.p99_ms, "ms");
  std::vector<double> lag_ms;
  double depth_sum = 0;
  for (const PhaseResult& phase : nominal) {
    for (const Sent& s : phase.sent) {
      lag_ms.push_back(seconds_between(s.due, s.sent) * 1e3);
      depth_sum += double(s.queue_depth);
    }
  }
  out.info.set("latency_samples", double(lag_ms.size()), "count");
  out.info.set("workers", double(workers), "count");
  out.info.set("nominal_rps", kNominalRps, "1/s");
  out.info.set("latency_limit_ms", kLatencyLimitMs, "ms");
  out.info.set("gen_lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  out.info.set("gen_lag_max_ms", quantile(lag_ms, 1.0), "ms");

  // 3. Fixed rates above nominal, lowest first, until one misses.
  if (!config.trace) {
    double max_rate = nominal_step.completed_rps;
    bool passing = nominal_step.ok;
    if (!passing) out.info.set("nominal_missed_limit", 1, "count");
    std::uint64_t index = 0;
    for (const double rate : kLadderRps) {
      if (!passing) break;
      const PhaseResult phase = run_phase(
          *server, collector, pool,
          draw_order(static_cast<std::size_t>(kStepShare * config.seconds *
                                              rate),
                     config.seed * 7 + 2 + index++),
          rate);
      const bool outputs_ok = check_phase(phase, pool, reference, out.checks);
      const Step step = judge_step({phase}, outputs_ok, workers);
      const std::string name = "rate_" + std::to_string(int(rate));
      out.info.set(name + "_p99_ms", step.p99_ms, "ms");
      out.info.set(name + "_completed_rps", step.completed_rps, "1/s");
      passing = step.ok;
      if (passing) max_rate = step.completed_rps;
    }
    out.end_to_end.set("max_rate_rps", max_rate, "1/s");
  }
  const serve::ServeStats& stats = server->stats();
  out.info.set("serve.retries", double(stats.retries()), "count");
  out.info.set("serve.degraded", double(stats.degraded()), "count");
  out.info.set("serve.shed", double(stats.by_status(StatusCode::kOverloaded)),
               "count");

  // Fault-free entries re-solved directly: the digest must match the
  // reply's and sampled rows the fp64 oracle. Fault-injected replies are
  // held to the 1-worker replay only — a fault in the shared operands
  // before the ABFT fork is invisible to the checks (the documented
  // coverage gap, docs/ROBUSTNESS.md §2), so their V may be wrong by design.
  std::vector<SolveCall> probes;
  std::optional<std::pair<SolveCall, Vector>> sharded;
  std::vector<double> encode_s;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const PoolEntry& entry = pool[i];
    if (entry.expect != Expect::kOk || entry.faulty) continue;
    SolveCall call = direct_call(entry);
    const pipelines::SolveResult result = pipelines::solve(
        call.instance, call.params, call.backend, call.options);
    const std::string digest = serve::digest_hex(result.v.span());
    if (reference[i].find("\"digest\":\"" + digest + "\"") ==
        std::string::npos) {
      out.checks.fail("serve entry " + std::to_string(i) +
                      ": reply digest differs from the direct solve");
    }
    out.checks.compare_rows(entry.oracle, result.v, 0.0, call.label);
    if (!result.report.has_value()) continue;  // host backends
    out.checks.digest().add(result.report->total);
    if (!config.trace) continue;
    const Clock::time_point e0 = Clock::now();
    const std::string line = serve::solve_reply(
        "1", entry.request, serve::SolveReplyInfo{}, result.v.span());
    encode_s.push_back(seconds_between(e0, Clock::now()));
    if (!entry.sharded) {
      probes.push_back(std::move(call));
    } else if (!sharded) {
      sharded.emplace(std::move(call), result.v);
    }
  }

  if (config.trace) {
    out.layers.set("trace.overhead_share",
                   (median(traced_wall) - wall_s) / wall_s, "ratio");
    std::vector<double> parse_s;
    for (const PhaseResult& phase : nominal) {
      for (const Sent& s : phase.sent) {
        if (pool[s.entry].malformed) continue;
        const std::string line = line_for(pool[s.entry], "1");
        const Clock::time_point p0 = Clock::now();
        const serve::ServeRequest parsed = serve::parse_request(line);
        parse_s.push_back(seconds_between(p0, Clock::now()));
      }
    }
    out.layers.set("serve.parse_us", median(parse_s) * 1e6, "us");
    out.layers.set("serve.encode_us", median(encode_s) * 1e6, "us");
    // Little's law: mean queue wait = mean queue depth / arrival rate.
    const double depth = depth_sum / double(lag_ms.size());
    out.layers.set("serve.queue_depth_mean", depth, "count");
    out.layers.set("serve.queue_wait_ms", depth / kNominalRps * 1e3, "ms");
    out.layers.set("serve.retries", double(stats.retries()), "count");
    out.layers.set("serve.degraded", double(stats.degraded()), "count");
    out.layers.set("serve.shed",
                   double(stats.by_status(StatusCode::kOverloaded)), "count");
    if (sharded) {
      rerun_sharded(sharded->first, sharded->second, out.layers, out.checks,
                    out.tracer);
    }
    LayerProbe probe;
    probe.run(probes, out.layers, out.checks, out.tracer);
    add_common_layers(probes, out);
    out.layers.set("robust.attempts_per_solve",
                   attempts_per_kept_run(nominal), "ratio");
  }
  server->drain();
}

}  // namespace hostbench

// serve_hot and serve_cold: an in-process service::Server on a Unix
// socket, driven by two closed-loop caller threads through
// service::Client. Each caller waits for its reply before sending the
// next request, as an MPI rank waits for its plan.
#include <sched.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "core/heuristic.hpp"
#include "core/rounding.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lbs::service::Client;
using lbs::service::PlanResponse;
using lbs::service::PlanStatus;

constexpr int kCallers = 2;
// Timed serve_cold connections per run (both passes of a traced run).
constexpr long long kConnectionsPerPass = 24000;
// A reply slower than this is a Timeout, which counts as a failure.
constexpr std::uint32_t kRequestTimeoutMs = 10000;

struct Service {
  lbs::obs::Metrics metrics;  // declared first: the server reports into it
  std::unique_ptr<lbs::service::Server> server;
  std::string socket;

  // Server-side totals at one instant, for deltas over a pass.
  struct Totals {
    lbs::service::Server::Counters counters;
    lbs::obs::Histogram::Snapshot request;
    lbs::obs::Histogram::Snapshot queue;
  };
  Totals totals() {
    return {server->counters(), metrics.histogram("service.request_seconds").snapshot(),
            metrics.histogram("service.queue_seconds").snapshot()};
  }
};

// Restricts the calling thread, and every thread it starts afterwards
// (the server's and the callers'), to the last CPU the process may use.
// Each request hands off between a caller and a server thread twice; on
// a shared VM a hand-off to another vCPU waits for the host to run that
// vCPU, and that wait comes and goes with the host's other load. Across
// an interleaved stretch of such load, 10-second serve_hot runs read a
// p90 of 1.14 to 2.54 ms unpinned and 1.46 to 1.67 ms on one CPU. Returns
// the CPU, or -1 when the affinity could not be changed.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void note_pinning(RunResult& result, int cpu) {
  result.note(cpu >= 0 ? "server and callers pinned to CPU " + std::to_string(cpu)
                       : "WARNING: could not pin the server and callers to one CPU");
}

std::unique_ptr<Service> start_service(const Options& options, int instance) {
  auto service = std::make_unique<Service>();
  service->socket = options.work_dir + "/lbsd-" + std::to_string(::getpid()) + "-" +
                    std::to_string(instance) + ".sock";
  lbs::service::ServerOptions server_options;
  server_options.socket_path = service->socket;
  server_options.metrics = &service->metrics;
  service->server = std::make_unique<lbs::service::Server>(server_options);
  service->server->start();
  return service;
}

lbs::service::ClientOptions client_options(const Service& service,
                                           lbs::obs::Metrics& metrics) {
  lbs::service::ClientOptions options;
  options.socket_path = service.socket;
  options.request_timeout_ms = kRequestTimeoutMs;
  options.control_timeout_ms = kRequestTimeoutMs;
  options.metrics = &metrics;
  return options;
}

// What one caller thread gathered; merged into the run after the join.
struct CallerLog {
  explicit CallerLog(Clock::time_point start, int thread) : origin(start), spans(start, thread) {}
  // One operation from `begin` until its result was in hand at `end`.
  void record(Clock::time_point begin, Clock::time_point end) {
    latencies_s.push_back(seconds_between(begin, end));
    done_s.push_back(seconds_between(origin, end));
  }
  // Counts a failed operation, keeping the first few descriptions.
  void fail(std::string why) {
    if (failed++ < 5) failures.push_back(std::move(why));
  }
  Clock::time_point origin;
  std::vector<double> latencies_s;
  std::vector<double> done_s;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  SpanLog spans;
};

// Runs body(caller, log) on kCallers threads and merges their logs into
// `result` and a Pass timed from the first start to the last finish, cut
// into one-second windows.
template <typename Body>
Pass run_callers(RunResult& result, SpanLog* trace, Body body) {
  const auto start = Clock::now();
  std::vector<CallerLog> logs;
  for (int c = 0; c < kCallers; ++c) logs.emplace_back(start, c + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&body, &logs, c] {
      try {
        body(c, logs[static_cast<std::size_t>(c)]);
      } catch (const std::exception& error) {
        logs[static_cast<std::size_t>(c)].fail(std::string("caller aborted: ") + error.what());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Pass pass;
  pass.elapsed_s = seconds_since(start);
  for (CallerLog& log : logs) {
    for (std::size_t i = 0; i < log.latencies_s.size(); ++i) {
      pass.record(log.latencies_s[i], log.done_s[i]);
    }
    result.attempted += log.attempted;
    for (const std::string& why : log.failures) result.fail(why);
    result.failed += log.failed - static_cast<long long>(log.failures.size());
    if (trace != nullptr) trace->append(log.spans);
  }
  pass.time_windows(1.0);
  return pass;
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

std::string status_failure(const PlanResponse& reply) {
  return "reply status " + std::to_string(static_cast<int>(reply.status)) + ": " +
         reply.message;
}

// Server-side deltas over a traced pass.
void report_server(RunResult& result, const Service::Totals& before,
                   const Service::Totals& after) {
  const auto& a = after.counters;
  const auto& b = before.counters;
  const double requests = static_cast<double>(a.requests - b.requests);
  result.set("core.cache_hit_ratio",
             requests > 0 ? static_cast<double>(a.cache_hits - b.cache_hits) / requests : 0.0);
  result.set("service.solved", static_cast<double>(a.solved - b.solved));
  result.set("service.rejected", static_cast<double>(a.rejected - b.rejected));
  result.set("service.errors", static_cast<double>(a.errors - b.errors));
  const auto mean_us = [](const lbs::obs::Histogram::Snapshot& x,
                          const lbs::obs::Histogram::Snapshot& y) {
    const auto count = static_cast<double>(x.count - y.count);
    return count > 0 ? (x.sum - y.sum) / count * 1e6 : 0.0;
  };
  result.set("service.server_request_mean_us", mean_us(after.request, before.request));
  result.set("service.queue_wait_mean_us", mean_us(after.queue, before.queue));
}

}  // namespace

// ---------------------------------------------------------------- serve_hot

RunResult run_serve_hot(const Options& options) {
  RunResult result;
  note_pinning(result, pin_to_one_cpu());
  std::vector<PlanJob> keys;
  std::unique_ptr<Service> service;
  std::vector<PlanResponse> fill;
  std::vector<double> setups, fills;
  lbs::obs::Metrics client_metrics;
  // Set-up: generate the keys, start the server, and load every key's
  // plan into its cache through a client, as a warm-up job would.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    const auto begin = Clock::now();
    keys = serve_hot_keys(options.seed);
    service = start_service(options, rep);
    const auto fill_begin = Clock::now();
    Client client(client_options(*service, client_metrics));
    fill.clear();
    for (const PlanJob& key : keys) fill.push_back(client.plan(key.platform, key.items));
    fills.push_back(seconds_since(fill_begin));
    setups.push_back(seconds_since(begin));
  }

  // Reference plans, computed in process outside every timed window.
  std::vector<lbs::core::ScatterPlan> reference;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    reference.push_back(lbs::core::plan_scatter(keys[i].platform, keys[i].items));
    ++result.attempted;
    std::string why = check_plan(keys[i].platform, keys[i].items, reference.back());
    if (why.empty()) why = check_reply(reference.back(), fill[i]);
    if (!why.empty()) result.fail("serve_hot warm fill: " + why);
  }

  constexpr std::size_t kSequence = 1 << 14;
  std::vector<std::vector<std::size_t>> requests;
  for (int c = 0; c < kCallers; ++c) {
    requests.push_back(serve_hot_requests(options.seed, c, kSequence));
  }

  // Every timed reply must equal its reference plan bit for bit; the
  // comparison runs after the latency is taken and costs far less than
  // the request.
  auto pass = [&](double seconds, std::size_t max_per_caller, SpanLog* trace) {
    const auto deadline = deadline_after(seconds);
    return run_callers(result, trace, [&](int caller, CallerLog& log) {
      Client client(client_options(*service, client_metrics));
      const auto& sequence = requests[static_cast<std::size_t>(caller)];
      for (std::size_t i = 0; i < max_per_caller && Clock::now() < deadline; ++i) {
        const std::size_t k = sequence[i % sequence.size()];
        const auto begin = Clock::now();
        PlanResponse reply = client.plan(keys[k].platform, keys[k].items);
        const auto end = Clock::now();
        log.record(begin, end);
        if (trace != nullptr) log.spans.add("service.client.plan", i, begin, end);
        ++log.attempted;
        const std::string why = check_reply(reference[k], reply);
        if (!why.empty()) log.fail("serve_hot: " + why);
      }
    });
  };

  // Fixed work before any timed pass: warm-up, and the peak-memory
  // reading over equal work on every commit.
  (void)pass(1e9, 2000, nullptr);
  const double peak = memory_usage().peak_rss_mb;
  if (!options.trace) {
    const Pass timed = pass(options.seconds, SIZE_MAX, nullptr);
    report_end_to_end(result, timed, median_of(setups), peak);
    return result;
  }

  const Pass untraced = pass(options.seconds / 2, SIZE_MAX, nullptr);
  SpanLog log(Clock::now());
  const auto before = service->totals();
  const Pass traced = pass(options.seconds / 2, SIZE_MAX, &log);
  const auto after = service->totals();
  report_trace_overhead(result, untraced, traced);
  report_server(result, before, after);
  result.set("core.warm_fill_s", median_of(fills));

  // Layer probes over the first requests of caller 0, one public call
  // each: the key fingerprint, the cache probe (with its plan copy) and
  // the wire codec of the request and the reply.
  std::vector<double> plan_key, lookup, codec;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::size_t k = requests[0][i];
    const PlanJob& job = keys[k];
    auto begin = Clock::now();
    const auto key = lbs::core::make_plan_key(job.platform, job.items,
                                              lbs::core::Algorithm::Auto);
    auto end = Clock::now();
    plan_key.push_back(seconds_between(begin, end));
    log.add("core.make_plan_key", i, begin, end);

    begin = Clock::now();
    const auto cached = service->server->cache().lookup(key);
    end = Clock::now();
    lookup.push_back(seconds_between(begin, end));
    log.add("core.cache_lookup", i, begin, end);
    if (!cached || cached->distribution.counts != reference[k].distribution.counts) {
      result.fail("serve_hot probe: warm key missing from the cache");
    }

    lbs::service::PlanRequest request;
    request.id = i + 1;
    request.items = job.items;
    request.platform = job.platform;
    PlanResponse reply = fill[k];
    reply.id = request.id;
    begin = Clock::now();
    const auto request_bytes = lbs::service::encode_plan_request(request);
    const auto request_back = lbs::service::decode_message(request_bytes);
    const auto reply_bytes = lbs::service::encode_plan_response(reply);
    const auto reply_back = lbs::service::decode_message(reply_bytes);
    end = Clock::now();
    codec.push_back(seconds_between(begin, end));
    log.add("service.codec", i, begin, end);
    if (!request_back.plan_request || !reply_back.plan_response ||
        reply_back.plan_response->counts != reply.counts) {
      result.fail("serve_hot probe: codec did not round-trip");
    }
  }
  result.set("core.plan_key_us", mean_of(plan_key) * 1e6);
  result.set("core.cache_lookup_us", mean_of(lookup) * 1e6);
  result.set("service.codec_us", mean_of(codec) * 1e6);

  // Request budget (means, which add): client round trip = server time +
  // codec + what no layer accounts for.
  const double rtt_us = mean_of(log.durations("service.client.plan")) * 1e6;
  const double server_us = result.values["service.server_request_mean_us"];
  const StageSum budget = stage_sum({server_us, mean_of(codec) * 1e6}, rtt_us);
  result.set("service.unaccounted_us", budget.remainder);
  char line[200];
  std::snprintf(line, sizeof(line),
                "request budget: client %.1f us = server %.1f us + codec %.1f us + "
                "unaccounted %.1f us",
                rtt_us, server_us, mean_of(codec) * 1e6, budget.remainder);
  result.note(line);
  result.trace = std::move(log);
  return result;
}

// --------------------------------------------------------------- serve_cold

namespace {

// One timed serve_cold operation, kept for the bit-for-bit check that
// runs after the timed window.
struct ColdRecord {
  std::uint32_t platform = 0;
  long long items = 0;
  PlanResponse reply;
};

}  // namespace

RunResult run_serve_cold(const Options& options) {
  RunResult result;
  note_pinning(result, pin_to_one_cpu());
  std::vector<lbs::model::Platform> pool;
  std::unique_ptr<Service> service;
  std::vector<double> setups;
  lbs::obs::Metrics client_metrics;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    const auto begin = Clock::now();
    pool = serve_cold_pool(options.seed);
    service = start_service(options, rep);
    setups.push_back(seconds_since(begin));
  }

  // Each caller walks its own seeded pool order; item counts never
  // repeat (caller c sends kPaperItems + c, + c + 2, ...), so every
  // request is a key the server has not seen.
  std::vector<std::vector<std::uint32_t>> order(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    lbs::support::Rng rng(options.seed ^ (0x636f6c6472657173ULL + static_cast<std::uint64_t>(c)));
    order[static_cast<std::size_t>(c)].resize(4096);
    for (auto& pick : order[static_cast<std::size_t>(c)]) {
      pick = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    }
  }
  std::vector<long long> sent(kCallers, 0);
  std::vector<std::vector<ColdRecord>> records(kCallers);

  auto pass = [&](double seconds, long long max_per_caller, SpanLog* trace) {
    const auto deadline = deadline_after(seconds);
    return run_callers(result, trace, [&](int caller, CallerLog& log) {
      const auto c = static_cast<std::size_t>(caller);
      for (long long i = 0; i < max_per_caller && Clock::now() < deadline; ++i) {
        const long long serial = sent[c]++;
        const std::uint32_t k = order[c][static_cast<std::size_t>(serial) % order[c].size()];
        const long long items = kPaperItems + 2 * serial + caller;
        const auto begin = Clock::now();
        Clock::time_point connected, answered;
        PlanResponse reply;
        {
          Client client(client_options(*service, client_metrics));
          connected = Clock::now();
          reply = client.plan(pool[k], items);
          answered = Clock::now();
        }
        const auto closed = Clock::now();
        log.record(begin, answered);
        if (trace != nullptr) {
          const auto op = static_cast<std::uint64_t>(serial);
          const long long parent = log.spans.add("serve_cold.op", op, begin, closed);
          log.spans.add("service.connect", op, begin, connected, parent);
          log.spans.add("service.client.plan", op, connected, answered, parent);
          log.spans.add("service.close", op, answered, closed, parent);
        }
        ++log.attempted;
        if (reply.status != PlanStatus::Ok) {
          log.fail("serve_cold: " + status_failure(reply));
        } else {
          records[c].push_back(ColdRecord{k, items, std::move(reply)});
        }
      }
    });
  };

  const auto connection_growth = [&](const MemoryUsage& from, const MemoryUsage& to,
                                     const Pass& over, double& vm, double& rss) {
    const double kconn = static_cast<double>(over.ops) / 1000.0;
    vm = kconn > 0 ? (to.vm_mb - from.vm_mb) / kconn : 0.0;
    rss = kconn > 0 ? (to.rss_mb - from.rss_mb) / kconn : 0.0;
  };

  SpanLog log(Clock::now());
  // Fixed work before any timed pass: warm-up, and the peak-memory
  // reading over equal work on every commit.
  (void)pass(1e9, 1000, nullptr);
  const double peak = memory_usage().peak_rss_mb;
  // The server keeps a thread per connection it ever accepted and aborts
  // near 32k of them, so a timed pass also stops after
  // kConnectionsPerPass connections (ops_per_s stays ops / elapsed).
  const long long per_caller = kConnectionsPerPass / kCallers / (options.trace ? 2 : 1);
  if (!options.trace) {
    const MemoryUsage before = memory_usage();
    const Pass timed = pass(options.seconds, per_caller, nullptr);
    double vm = 0, rss = 0;
    connection_growth(before, memory_usage(), timed, vm, rss);
    report_end_to_end(result, timed, median_of(setups), peak);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "connection growth: VmSize %+.1f MB and RSS %+.2f MB per 1000 connections",
                  vm, rss);
    result.note(line);
  } else {
    const Pass untraced = pass(options.seconds / 2, per_caller, nullptr);
    const auto before = service->totals();
    const MemoryUsage memory_before = memory_usage();
    const Pass traced = pass(options.seconds / 2, per_caller, &log);
    const MemoryUsage memory_after = memory_usage();
    const auto after = service->totals();
    report_trace_overhead(result, untraced, traced);
    report_server(result, before, after);
    double vm = 0, rss = 0;
    connection_growth(memory_before, memory_after, traced, vm, rss);
    result.set("service.vm_growth_mb_per_kconn", vm);
    result.set("service.rss_growth_mb_per_kconn", rss);
    result.set("service.connect_ms", mean_of(log.durations("service.connect")) * 1e3);
  }

  // Bit-for-bit check of every reply against the in-process planner,
  // outside the timed window. In a traced run the first replies also
  // time the planner stages the server ran for them.
  std::vector<double> lp_heuristic, rounding, plan_key, lookup;
  std::size_t probed = 0;
  for (const auto& caller_records : records) {
    for (const ColdRecord& record : caller_records) {
      const auto& platform = pool[record.platform];
      const auto reference = lbs::core::plan_scatter(platform, record.items);
      std::string why = check_plan(platform, record.items, reference);
      if (why.empty()) why = check_reply(reference, record.reply);
      if (!why.empty()) result.fail("serve_cold: " + why);
      if (!options.trace || probed >= 1000) continue;

      const auto op = static_cast<std::uint64_t>(probed++);
      auto begin = Clock::now();
      auto heuristic = lbs::core::lp_heuristic(platform, record.items);
      auto end = Clock::now();
      lp_heuristic.push_back(seconds_between(begin, end));
      log.add("core.lp_heuristic", op, begin, end);
      begin = Clock::now();
      (void)lbs::core::round_distribution(heuristic.rational_shares, record.items);
      end = Clock::now();
      rounding.push_back(seconds_between(begin, end));
      log.add("core.round_distribution", op, begin, end);
      // A key the server was never sent: the probe measures a miss.
      const long long unsent = kPaperItems - 1 - static_cast<long long>(op);
      begin = Clock::now();
      const auto key = lbs::core::make_plan_key(platform, unsent, lbs::core::Algorithm::Auto);
      end = Clock::now();
      plan_key.push_back(seconds_between(begin, end));
      log.add("core.make_plan_key", op, begin, end);
      begin = Clock::now();
      const bool hit = service->server->cache().lookup(key).has_value();
      end = Clock::now();
      lookup.push_back(seconds_between(begin, end));
      log.add("core.cache_lookup", op, begin, end);
      if (hit) result.fail("serve_cold probe: an unsent key hit the cache");
    }
  }
  if (options.trace) {
    result.set("core.lp_heuristic_ms", mean_of(lp_heuristic) * 1e3);
    result.set("core.round_distribution_ms", mean_of(rounding) * 1e3);
    result.set("core.lp_self_ms", (mean_of(lp_heuristic) - mean_of(rounding)) * 1e3);
    result.set("core.plan_key_us", mean_of(plan_key) * 1e6);
    result.set("core.cache_lookup_us", mean_of(lookup) * 1e6);
    result.trace = std::move(log);
  }
  return result;
}

}  // namespace perfbench

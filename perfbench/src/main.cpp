// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --self-test
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones from a traced pass, whose spans
// are also written to <work-dir>/trace-<workload>-<seed>.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},     {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

// A layer a workload does not run reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"core.plan_ms.closed_form", "ms"},
    {"core.plan_ms.lp_heuristic", "ms"},
    {"core.plan_ms.dp", "ms"},
    {"core.route_sum_frac", "ratio"},
    {"core.solve_linear_ms", "ms"},
    {"core.lp_heuristic_ms", "ms"},
    {"core.round_distribution_ms", "ms"},
    {"core.lp_self_ms", "ms"},
    {"core.dp_cells", "count"},
    {"core.plan_key_us", "us"},
    {"core.cache_lookup_us", "us"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.warm_fill_s", "s"},
    {"service.codec_us", "us"},
    {"service.server_request_mean_us", "us"},
    {"service.unaccounted_us", "us"},
    {"service.queue_wait_mean_us", "us"},
    {"service.solved", "count"},
    {"service.rejected", "count"},
    {"service.errors", "count"},
    {"service.connect_ms", "ms"},
    {"service.vm_growth_mb_per_kconn", "MB/kconn"},
    {"service.rss_growth_mb_per_kconn", "MB/kconn"},
    {"mq.scatterv_ms", "ms"},
    {"mq.gatherv_ms", "ms"},
    {"mq.recv_wait_ms", "ms"},
    {"mq.nic_busy_ms", "ms"},
    {"mq.link_bytes", "count"},
    {"mq.excess_ms", "ms"},
    {"mq.makespan_ratio", "ratio"},
    {"seismic.catalog_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "plan_mix|serve_hot|serve_cold|scatter_testbed --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n       perfbench --self-test\n",
               why);
  return 2;
}

int run_self_test() {
  std::vector<std::string> problems;
  const bool ok = perfbench::self_test(problems);
  for (const auto& problem : problems) std::printf("%s\n", problem.c_str());
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return run_self_test();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage("bad or missing arguments");

  RunResult (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "plan_mix") run = perfbench::run_plan_mix;
  if (options.workload == "serve_hot") run = perfbench::run_serve_hot;
  if (options.workload == "serve_cold") run = perfbench::run_serve_cold;
  if (options.workload == "scatter_testbed") run = perfbench::run_scatter_testbed;
  if (run == nullptr) return usage(("unknown workload " + options.workload).c_str());

  std::vector<std::string> problems;
  const bool self_test_ok = perfbench::self_test(problems);
  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", options.workload.c_str(), error.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& note : result.notes) std::printf("  %s\n", note.c_str());
  for (const auto& problem : problems) std::printf("  %s\n", problem.c_str());
  for (const auto& failure : result.failures) std::printf("  FAILED: %s\n", failure.c_str());
  std::printf("  fail_frac %.6f (%lld of %lld operations)\n",
              result.attempted > 0
                  ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                  : 0.0,
              result.failed, result.attempted);

  bool complete = true;
  std::string metrics;
  for (const MetricSpec& spec : options.trace ? std::span<const MetricSpec>(kPerLayer)
                                              : std::span<const MetricSpec>(kEndToEnd)) {
    double value = 0.0;
    if (auto found = result.values.find(spec.name); found != result.values.end()) {
      value = found->second;
    } else if (!options.trace) {
      complete = false;  // every end-to-end metric must be measured
    }
    if (!std::isfinite(value)) {
      complete = false;
      value = 0.0;
    }
    std::printf("  %-34s %.6g %s\n", spec.name, value, spec.unit);
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += entry;
  }

  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    try {
      result.trace.write_chrome_trace(path);
      std::printf("  spans: %zu written to %s\n", result.trace.spans().size(), path.c_str());
    } catch (const std::exception& error) {
      std::printf("  spans not written: %s\n", error.what());
    }
  }

  const bool correct = self_test_ok && result.harness_ok && complete && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max(result.attempted, 1LL), result.failed,
              metrics.c_str());
  return 0;
}

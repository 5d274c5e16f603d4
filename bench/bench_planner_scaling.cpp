// Planner engine throughput: serial vs column-parallel DP, cost-table
// reuse, divide-and-conquer memory mode, and plan-cache hit latency.
//
// The paper's own experiment (n = 817,101 rays over 16 processors) is the
// scale this engine is built for. This bench sweeps n from 10^4 to 10^6
// on the Table 1 testbed and measures, for each n:
//   - optimized_dp, serial (threads = 1): the pre-PR baseline shape,
//   - optimized_dp, parallel (shared pool): the column decomposition,
//   - optimized_dp, divide-and-conquer memory mode (parallel),
//   - exact_dp serial vs parallel at the smallest n (O(p n^2) pins it),
//   - cost-table build + reuse, and plan-cache miss/hit latency (the miss
//     forces OptimizedDp so it really times a DP solve, not the Auto
//     closed-form probe),
//   - the affine fast path: an Algorithm::Auto plan on a genuinely affine
//     platform must route to the O(p) LP heuristic, carry the Eq. 4
//     optimality certificate, and finish in far under a second at n = 10^6.
// Every variant must reproduce the serial distribution *bit-identically* —
// that is a hard shape check, not a tolerance. Speedup is asserted (>= 3x
// at the largest n) only when the host actually offers >= 4 threads; the
// DP wall-time gate (< 5 s at n = 10^6) and the affine fast-path gate
// (< 1 s) apply whenever the sweep reaches 10^6.
//
// Output: the usual table plus `--json <file>` (bench_common.hpp) records
// for the BENCH_*.json trajectory and the CI perf-smoke gate. Each record
// carries the thread count it ran with so check_regression.py compares
// like with like across hosts.
//
// Flags: --json <file>, --max-n <N> (default 1,000,000; CI smoke uses
// 100,000 to stay inside the runner budget).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dp.hpp"
#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "model/cost_table.hpp"
#include "model/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace lbs;

double time_once(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

long long parse_max_n(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--max-n") return std::atoll(argv[i + 1]);
  }
  return 1'000'000;
}

struct Measurement {
  double seconds = 0.0;
  core::DpResult result;
};

Measurement run_dp(bool optimized, const model::Platform& platform, long long n,
                   const core::DpOptions& options) {
  Measurement m;
  m.seconds = time_once([&] {
    m.result = optimized ? core::optimized_dp(platform, n, options)
                         : core::exact_dp(platform, n, options);
  });
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::take_json_flag(argc, argv);
  const long long max_n = parse_max_n(argc, argv);
  const int threads = support::default_parallelism();

  bench::print_header("Planner engine scaling — parallel DP, cost tables, plan cache");
  std::cout << "host parallelism: " << threads << " thread(s), max n: " << max_n
            << "\n";

  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  const int p = platform.size();

  bench::JsonReport report("planner_scaling");
  std::vector<bench::Comparison> comparisons;
  support::Table table({"case", "n", "serial", "parallel", "speedup", "identical"});

  core::DpOptions serial_opts;
  serial_opts.threads = 1;
  core::DpOptions parallel_opts;  // defaults: shared pool, Auto memory

  double largest_speedup = 0.0;
  double largest_parallel_s = 0.0;
  long long largest_n = 0;
  for (long long n : {10'000LL, 100'000LL, 1'000'000LL}) {
    if (n > max_n) break;
    auto serial = run_dp(true, platform, n, serial_opts);
    auto parallel = run_dp(true, platform, n, parallel_opts);
    bool identical = serial.result.distribution.counts == parallel.result.distribution.counts;
    double speedup = serial.seconds / parallel.seconds;
    if (n >= largest_n) {
      largest_n = n;
      largest_speedup = speedup;
      largest_parallel_s = parallel.seconds;
    }
    table.add_row({"optimized_dp", std::to_string(n),
                   support::format_seconds(serial.seconds),
                   support::format_seconds(parallel.seconds),
                   support::format_double(speedup, 2) + "x", identical ? "yes" : "NO"});
    report.add({"optimized_dp_serial", n, p, serial.seconds,
                static_cast<double>(n) / serial.seconds, serial.result.threads_used, {}});
    report.add({"optimized_dp_parallel", n, p, parallel.seconds,
                static_cast<double>(n) / parallel.seconds, parallel.result.threads_used,
                {{"speedup", speedup}}});
    comparisons.push_back({"parallel == serial distribution (n=" + std::to_string(n) + ")",
                           "bit-identical", identical ? "bit-identical" : "DIVERGED",
                           identical});

    // Divide-and-conquer memory mode: same distribution, rolling columns.
    core::DpOptions dc_opts = parallel_opts;
    dc_opts.memory = core::DpMemory::DivideConquer;
    auto dc = run_dp(true, platform, n, dc_opts);
    bool dc_identical = dc.result.distribution.counts == serial.result.distribution.counts;
    table.add_row({"optimized_dp (divide&conquer)", std::to_string(n), "-",
                   support::format_seconds(dc.seconds),
                   support::format_double(serial.seconds / dc.seconds, 2) + "x",
                   dc_identical ? "yes" : "NO"});
    report.add({"optimized_dp_dc", n, p, dc.seconds,
                static_cast<double>(n) / dc.seconds, dc.result.threads_used, {}});
    comparisons.push_back({"divide&conquer distribution (n=" + std::to_string(n) + ")",
                           "bit-identical", dc_identical ? "bit-identical" : "DIVERGED",
                           dc_identical});
  }

  // Algorithm 1 is O(p n^2): compare serial vs parallel at a small n only.
  {
    long long n = std::min<long long>(10'000, max_n);
    auto serial = run_dp(false, platform, n, serial_opts);
    auto parallel = run_dp(false, platform, n, parallel_opts);
    bool identical = serial.result.distribution.counts == parallel.result.distribution.counts;
    table.add_row({"exact_dp", std::to_string(n),
                   support::format_seconds(serial.seconds),
                   support::format_seconds(parallel.seconds),
                   support::format_double(serial.seconds / parallel.seconds, 2) + "x",
                   identical ? "yes" : "NO"});
    report.add({"exact_dp_serial", n, p, serial.seconds,
                static_cast<double>(n) / serial.seconds, serial.result.threads_used, {}});
    report.add({"exact_dp_parallel", n, p, parallel.seconds,
                static_cast<double>(n) / parallel.seconds, parallel.result.threads_used,
                {{"speedup", serial.seconds / parallel.seconds}}});
    comparisons.push_back({"exact_dp parallel == serial (n=" + std::to_string(n) + ")",
                           "bit-identical", identical ? "bit-identical" : "DIVERGED",
                           identical});
  }

  // Cost-table reuse: amortize the Tcomm/Tcomp evaluation across plans.
  {
    long long n = std::min<long long>(100'000, max_n);
    std::optional<model::CostTable> cost_table;
    double build_s = time_once([&] { cost_table.emplace(platform, n); });
    core::DpOptions table_opts = parallel_opts;
    table_opts.cost_table = &*cost_table;
    auto with_table = run_dp(true, platform, n, table_opts);
    auto without_table = run_dp(true, platform, n, parallel_opts);
    bool identical =
        with_table.result.distribution.counts == without_table.result.distribution.counts;
    table.add_row({"optimized_dp (cost table)", std::to_string(n),
                   support::format_seconds(without_table.seconds),
                   support::format_seconds(with_table.seconds),
                   support::format_double(without_table.seconds / with_table.seconds, 2) + "x",
                   identical ? "yes" : "NO"});
    report.add({"cost_table_build", n, p, build_s,
                static_cast<double>(n) / build_s, 1, {}});
    report.add({"optimized_dp_cost_table", n, p, with_table.seconds,
                static_cast<double>(n) / with_table.seconds,
                with_table.result.threads_used, {}});
    comparisons.push_back({"cost-table distribution (n=" + std::to_string(n) + ")",
                           "bit-identical", identical ? "bit-identical" : "DIVERGED",
                           identical});
  }

  // Plan cache: cold miss vs steady-state hit. The miss explicitly
  // requests OptimizedDp — with Algorithm::Auto the paper testbed's affine
  // costs resolve to the O(p) fast path, and "cold" would time a
  // closed-form probe (~microseconds) instead of the DP solve the cache
  // exists to amortize.
  {
    long long n = std::min<long long>(100'000, max_n);
    core::PlanCache cache(16);
    core::ScatterPlan cold_plan;
    double cold_s = time_once(
        [&] { cold_plan = cache.plan(platform, n, core::Algorithm::OptimizedDp); });
    constexpr int kHits = 1000;
    double hit_total = time_once([&] {
      for (int i = 0; i < kHits; ++i) cache.plan(platform, n, core::Algorithm::OptimizedDp);
    });
    double hit_s = hit_total / kHits;
    auto stats = cache.stats();
    bool all_hits = stats.hits == kHits && stats.misses == 1;
    bool cold_was_dp = cold_plan.algorithm_used == core::Algorithm::OptimizedDp &&
                       cold_plan.dp_cells_evaluated > 0;
    table.add_row({"plan_cache (cold vs hit)", std::to_string(n),
                   support::format_seconds(cold_s), support::format_seconds(hit_s),
                   support::format_double(cold_s / hit_s, 0) + "x",
                   all_hits ? "yes" : "NO"});
    report.add({"plan_cache_cold", n, p, cold_s, static_cast<double>(n) / cold_s,
                cold_plan.dp_threads, {}});
    report.add({"plan_cache_hit", n, p, hit_s, static_cast<double>(n) / hit_s, 0, {}});
    comparisons.push_back({"plan cache cold miss", "runs the DP it claims to time",
                           cold_was_dp ? "optimized_dp solved" : "NOT A DP SOLVE",
                           cold_was_dp});
    comparisons.push_back({"plan cache steady state", "every repeat plan hits",
                           all_hits ? "1000/1000 hits" : "MISSES", all_hits});
    comparisons.push_back({"plan cache hit latency", "O(p), far below one DP",
                           support::format_seconds(hit_s),
                           hit_s * 50.0 < cold_s || cold_s < 1e-4});
  }

  // Tracing overhead: the same DP solve with and without a live tracer +
  // metrics sink. Per solve the obs layer adds a handful of ring-buffer
  // writes against ~10^5 DP cells, so the pair must stay within 5% — the
  // CI gate (check_regression.py --pair) enforces exactly that on these
  // two records. Best-of-k timing keeps scheduler noise out of the ratio.
  {
    long long n = std::min<long long>(100'000, max_n);
    constexpr int kReps = 7;
    core::PlannerOptions off_opts;
    off_opts.algorithm = core::Algorithm::OptimizedDp;
    off_opts.dp = parallel_opts;
    obs::Tracer tracer;
    obs::Metrics metrics;
    core::PlannerOptions on_opts = off_opts;
    on_opts.tracer = &tracer;
    on_opts.metrics = &metrics;

    double off_s = std::numeric_limits<double>::infinity();
    double on_s = std::numeric_limits<double>::infinity();
    core::ScatterPlan off_plan, on_plan;
    for (int rep = 0; rep < kReps; ++rep) {
      off_s = std::min(off_s, time_once([&] {
        off_plan = core::plan_scatter(platform, n, off_opts);
      }));
      on_s = std::min(on_s, time_once([&] {
        on_plan = core::plan_scatter(platform, n, on_opts);
      }));
    }
    bool identical = off_plan.distribution.counts == on_plan.distribution.counts;
    bool traced = tracer.collect().events.size() >= static_cast<std::size_t>(kReps);
    double overhead = on_s / off_s - 1.0;
    table.add_row({"optimized_dp (tracer on)", std::to_string(n),
                   support::format_seconds(off_s), support::format_seconds(on_s),
                   support::format_double(overhead * 100.0, 2) + "%",
                   identical && traced ? "yes" : "NO"});
    report.add({"plan_tracer_off", n, p, off_s, static_cast<double>(n) / off_s,
                off_plan.dp_threads, {}});
    report.add({"plan_tracer_on", n, p, on_s, static_cast<double>(n) / on_s,
                on_plan.dp_threads, {{"overhead", overhead}}});
    comparisons.push_back({"traced distribution (n=" + std::to_string(n) + ")",
                           "bit-identical", identical ? "bit-identical" : "DIVERGED",
                           identical});
    comparisons.push_back({"tracer actually recorded", ">= 1 event per solve",
                           traced ? "yes" : "NO", traced});
  }

  // Affine fast path: with nonzero per-message latencies no closed form
  // applies, but Algorithm::Auto must still route to the O(p) LP heuristic
  // — never a DP — and attach the Eq. 4 optimality certificate. At the
  // paper's scale this is the "million items in (milli)seconds" claim.
  {
    long long n = std::min<long long>(1'000'000, max_n);
    model::Platform affine;
    for (int i = 0; i < p; ++i) {
      model::Processor proc;
      proc.label = "A" + std::to_string(i);
      bool is_root = i == p - 1;
      proc.comm = is_root ? model::Cost::zero()
                          : model::Cost::affine(1e-4 + 1e-6 * i, 2e-8 * (i + 1));
      proc.comp = model::Cost::affine(5e-4, 1e-7 * (1.0 + 0.1 * i));
      affine.processors.push_back(proc);
    }
    core::PlannerOptions auto_opts;  // Algorithm::Auto
    core::ScatterPlan plan;
    double fast_s = time_once([&] { plan = core::plan_scatter(affine, n, auto_opts); });
    bool routed_fast = plan.algorithm_used == core::Algorithm::LpHeuristic;
    bool bounded = plan.has_optimality_bound && plan.optimality_gap >= 0.0;
    table.add_row({"affine fast path (Auto)", std::to_string(n), "-",
                   support::format_seconds(fast_s), "-",
                   routed_fast && bounded ? "yes" : "NO"});
    report.add({"affine_fastpath", n, p, fast_s, static_cast<double>(n) / fast_s, 1,
                {{"optimality_gap", plan.optimality_gap}}});
    comparisons.push_back({"Auto on affine costs", "LP heuristic, never DP",
                           core::to_string(plan.algorithm_used), routed_fast});
    comparisons.push_back({"Eq. 4 certificate attached",
                           "bound present, gap >= 0",
                           bounded ? "gap = " + support::format_seconds(plan.optimality_gap)
                                   : "MISSING",
                           bounded});
    if (n >= 1'000'000) {
      comparisons.push_back({"affine fast path at n=" + std::to_string(n),
                             "< 1 s", support::format_seconds(fast_s),
                             fast_s < 1.0});
    }
  }

  std::cout << '\n';
  table.print(std::cout);

  // The headline acceptance shapes at the paper's scale: the optimized DP
  // finishes a 10^6-item plan in under 5 s, and parallel speedup reaches
  // >= 3x — the latter only meaningful when the host offers >= 4 threads.
  if (largest_n >= 1'000'000) {
    comparisons.push_back({"optimized_dp wall time at n=" + std::to_string(largest_n),
                           "< 5 s", support::format_seconds(largest_parallel_s),
                           largest_parallel_s < 5.0});
  }
  if (threads >= 4 && largest_n >= 1'000'000) {
    comparisons.push_back({"parallel speedup at n=" + std::to_string(largest_n),
                           ">= 3x on >= 4 threads",
                           support::format_double(largest_speedup, 2) + "x",
                           largest_speedup >= 3.0});
  } else {
    std::cout << "(speedup gate skipped: " << threads
              << " thread(s) available, largest n = " << largest_n << ")\n";
  }

  int failures = bench::print_comparisons(comparisons);
  if (!report.write(json_path)) ++failures;
  return failures;
}

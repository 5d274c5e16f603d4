// plan_mix: one thread calls core::plan_scatter(Auto) in process, with no
// cache, over a fixed seeded pass of plans, repeated until the time is up.
// The only workload where core, lp and model do all the work.
#include <cmath>
#include <cstdio>

#include "checks.hpp"
#include "core/closed_form.hpp"
#include "core/heuristic.hpp"
#include "core/plan_cache.hpp"
#include "core/rounding.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lbs::core::Algorithm;

// Route spans must cover the traced window within this share; the rest
// is the loop's own bookkeeping (clock reads, span appends).
constexpr double kRouteSumTolerance = 0.02;

const char* route_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::LinearClosedForm: return "core.plan.closed_form";
    case Algorithm::LpHeuristic: return "core.plan.lp_heuristic";
    case Algorithm::OptimizedDp:
    case Algorithm::ExactDp: return "core.plan.dp";
    default: return "core.plan.other";
  }
}

// Whole passes over `jobs` until `seconds` have gone by (at least one), so
// every job is planned the same number of times. With a log, each
// plan_scatter call is a route span and each output check a bench.check
// span.
Pass run_passes(const std::vector<PlanJob>& jobs, double seconds, RunResult& result,
                SpanLog* log, long long* first_pass_dp_cells) {
  // One caller thread: DP solves run serially rather than on the shared
  // pool, so no helper threads compete for the host (plans are identical
  // either way).
  lbs::core::PlannerOptions planner;
  planner.dp.threads = 1;
  Pass pass;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::uint64_t op = 0;
  do {
    for (const PlanJob& job : jobs) {
      const auto begin = Clock::now();
      auto plan = lbs::core::plan_scatter(job.platform, job.items, planner);
      const auto end = Clock::now();
      pass.record(seconds_between(begin, end), seconds_between(start, end));
      if (log != nullptr) log->add(route_name(plan.algorithm_used), op, begin, end);
      if (first_pass_dp_cells != nullptr && op < jobs.size()) {
        *first_pass_dp_cells += plan.dp_cells_evaluated;
      }
      ++result.attempted;
      const std::string why = check_plan(job.platform, job.items, plan);
      if (!why.empty()) result.fail("plan_mix: " + why);
      if (log != nullptr) log->add("bench.check", op, end, Clock::now());
      ++op;
    }
  } while (Clock::now() < deadline);
  pass.elapsed_s = seconds_since(start);
  return pass;
}

bool is_linear(const lbs::model::Platform& platform) {
  for (const auto& proc : platform.processors) {
    if (proc.comm.affine()->fixed != 0.0 || proc.comp.affine()->fixed != 0.0) return false;
  }
  return true;
}

double millis(const std::vector<double>& seconds) { return median_of(seconds) * 1e3; }

// Times the planner's public stages once per job: solve_linear and
// round_distribution on linear platforms, lp_heuristic (which rounds
// internally) and round_distribution on its shares on affine ones, and
// make_plan_key on every job.
void probe_stages(const std::vector<PlanJob>& jobs, SpanLog& log, RunResult& result) {
  std::uint64_t op = 0;
  std::vector<double> solve_linear, lp_heuristic, rounding, lp_rounding, plan_key;
  for (const PlanJob& job : jobs) {
    auto begin = Clock::now();
    (void)lbs::core::make_plan_key(job.platform, job.items, Algorithm::Auto);
    auto end = Clock::now();
    plan_key.push_back(seconds_between(begin, end));
    log.add("core.make_plan_key", op, begin, end);

    if (job.platform.all_costs_affine()) {
      const bool linear = is_linear(job.platform);
      std::vector<double> shares;
      begin = Clock::now();
      if (linear) {
        shares = lbs::core::solve_linear(job.platform, job.items).share;
      } else {
        shares = lbs::core::lp_heuristic(job.platform, job.items).rational_shares;
      }
      end = Clock::now();
      (linear ? solve_linear : lp_heuristic).push_back(seconds_between(begin, end));
      log.add(linear ? "core.solve_linear" : "core.lp_heuristic", op, begin, end);

      begin = Clock::now();
      auto rounded = lbs::core::round_distribution(shares, job.items);
      end = Clock::now();
      rounding.push_back(seconds_between(begin, end));
      if (!linear) lp_rounding.push_back(rounding.back());
      log.add("core.round_distribution", op, begin, end);
      if (rounded.total() != job.items) {
        result.fail("plan_mix probe: round_distribution lost items");
      }
    }
    ++op;
  }
  result.set("core.solve_linear_ms", mean_of(solve_linear) * 1e3);
  result.set("core.lp_heuristic_ms", mean_of(lp_heuristic) * 1e3);
  result.set("core.round_distribution_ms", mean_of(rounding) * 1e3);
  // lp_heuristic rounds its shares itself; its self time is the rest.
  result.set("core.lp_self_ms", (mean_of(lp_heuristic) - mean_of(lp_rounding)) * 1e3);
  result.set("core.plan_key_us", mean_of(plan_key) * 1e6);
}

}  // namespace

RunResult run_plan_mix(const Options& options) {
  RunResult result;
  std::vector<PlanJob> jobs;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto begin = Clock::now();
    jobs = plan_mix_sequence(options.seed);
    setups.push_back(seconds_since(begin));
  }
  result.note("plan_mix: " + std::to_string(jobs.size()) + " plans per pass");

  // One pass before any timed one warms up and gives the peak-memory
  // reading over equal work, so a faster commit is not charged for
  // planning more.
  (void)run_passes(jobs, 0.0, result, nullptr, nullptr);
  const double peak = memory_usage().peak_rss_mb;
  if (!options.trace) {
    // Every pass plans the same jobs, so each job's fastest call in the run
    // sets the figures: that call saw the least of the shared host's load,
    // which drifts by ±20% over tens of seconds.
    const Pass pass = run_passes(jobs, options.seconds, result, nullptr, nullptr);
    report_best_of(result, pass, jobs.size(), median_of(setups), peak);
    return result;
  }

  const Pass untraced = run_passes(jobs, options.seconds / 2, result, nullptr, nullptr);
  SpanLog log(Clock::now());
  long long dp_cells = 0;
  const Pass traced = run_passes(jobs, options.seconds / 2, result, &log, &dp_cells);
  report_trace_overhead(result, untraced, traced);

  const auto closed_form = log.durations("core.plan.closed_form");
  const auto lp = log.durations("core.plan.lp_heuristic");
  const auto dp = log.durations("core.plan.dp");
  result.set("core.plan_ms.closed_form", millis(closed_form));
  result.set("core.plan_ms.lp_heuristic", millis(lp));
  result.set("core.plan_ms.dp", millis(dp));
  result.set("core.dp_cells", static_cast<double>(dp_cells));

  // Route times must add up to the traced window minus the checks.
  const double checks = sum_of(log.durations("bench.check"));
  const StageSum routes = stage_sum({sum_of(closed_form), sum_of(lp), sum_of(dp)},
                                    traced.elapsed_s - checks);
  result.set("core.route_sum_frac", routes.fraction);
  char line[200];
  std::snprintf(line, sizeof(line),
                "route sum: closed_form %.3f s + lp_heuristic %.3f s + dp %.3f s = %.4f of "
                "the traced window (tolerance %.2f)",
                sum_of(closed_form), sum_of(lp), sum_of(dp), routes.fraction,
                kRouteSumTolerance);
  result.note(line);
  if (std::abs(1.0 - routes.fraction) > kRouteSumTolerance) {
    result.harness_ok = false;
    result.note("ERROR: plan_mix route times do not add up to the traced window");
  }

  probe_stages(jobs, log, result);
  result.trace = std::move(log);
  return result;
}

}  // namespace perfbench

// Harness self-test: the quantile rule, stage sums, seed determinism of
// the inputs and of the counts that must repeat exactly, and that every
// output checker counts a failure when fed a wrong output.
#include <cmath>
#include <numeric>

#include "checks.hpp"
#include "core/ordering.hpp"
#include "core/plan_cache.hpp"
#include "model/testbed.hpp"
#include "mq/platform_link.hpp"
#include "mq/runtime.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Checker {
  std::vector<std::string>& problems;
  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back("self-test: " + what);
  }
};

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void test_quantiles(Checker& check) {
  const auto hundred = one_to(100);
  const Quantile p50 = exact_quantile(hundred, 0.5);
  const Quantile p90 = exact_quantile(hundred, 0.9);
  const Quantile p99 = exact_quantile(hundred, 0.99);
  check.expect(p50.value == 50 && p50.resolved && p50.samples == 100, "p50 of 1..100");
  check.expect(p90.value == 90 && p90.resolved, "p90 of 1..100 has 10 samples beyond");
  check.expect(p99.value == 99 && !p99.resolved, "p99 of 1..100 must be unresolved");
  const Quantile p99k = exact_quantile(one_to(1000), 0.99);
  check.expect(p99k.value == 990 && p99k.resolved, "p99 of 1..1000 has 10 samples beyond");
  check.expect(!exact_quantile({}, 0.5).resolved, "quantile of nothing is unresolved");
  check.expect(median_of({3, 1, 2, 4}) == 2.5 && median_of({5, 1, 3}) == 3, "median");
}

void test_stage_sums(Checker& check) {
  const StageSum sum = stage_sum({1.0, 2.0, 3.0}, 8.0);
  check.expect(sum.covered == 6.0 && sum.remainder == 2.0 && sum.fraction == 0.75,
               "stage sum 1+2+3 of 8");
  const StageSum over = stage_sum({5.0, 6.0}, 10.0);
  check.expect(over.remainder == -1.0 && over.fraction == 1.1,
               "stages exceeding the total leave a negative remainder");
  check.expect(sum_of({0.5, 0.25}) == 0.75 && mean_of({1.0, 3.0}) == 2.0, "sum and mean");
}

void test_best_of(Checker& check) {
  Pass pass;
  for (double latency : {3.0, 5.0, 4.0, 1.0, 6.0, 2.0, 2.0}) pass.record(latency, 0.0);
  check.expect(best_per_input(pass, 3) == std::vector<double>{1.0, 5.0, 2.0},
               "fastest run of each of 3 repeated inputs");
  RunResult result;
  report_best_of(result, pass, 3, 0.0, 0.0);
  check.expect(result.values["ops_per_s"] == 3.0 / 8.0 && result.values["latency_p50_ms"] == 2e3,
               "ops_per_s and p50 from the fastest runs");
}

bool same_jobs(const std::vector<PlanJob>& a, const std::vector<PlanJob>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    using lbs::core::Algorithm;
    if (a[i].items != b[i].items ||
        !(lbs::core::make_plan_key(a[i].platform, a[i].items, Algorithm::Auto) ==
          lbs::core::make_plan_key(b[i].platform, b[i].items, Algorithm::Auto))) {
      return false;
    }
  }
  return true;
}

// Total bytes mq moves for one scatterv + one-double gatherv of `items`
// events over the Table 1 testbed, from the runtime's own counters.
double testbed_link_bytes(long long items, std::vector<long long>& counts) {
  const auto grid = lbs::model::paper_testbed();
  const auto platform = lbs::core::ordered_platform(
      grid, lbs::model::paper_root(grid), lbs::core::OrderingPolicy::DescendingBandwidth);
  counts = lbs::core::plan_scatter(platform, items).distribution.counts;
  lbs::support::Rng rng(11);
  const auto catalog = lbs::seismic::generate_catalog(rng, items);
  lbs::obs::Metrics metrics;
  lbs::mq::RuntimeOptions runtime;
  runtime.ranks = platform.size();
  runtime.metrics = &metrics;
  const int root = platform.size() - 1;
  lbs::mq::Runtime::run(runtime, [&](lbs::mq::Comm& comm) {
    std::span<const lbs::seismic::SeismicEvent> send;
    if (comm.rank() == root) send = catalog;
    auto mine = comm.scatterv<lbs::seismic::SeismicEvent>(root, send, counts);
    const double count = static_cast<double>(mine.size());
    (void)comm.gatherv<double>(root, std::span<const double>(&count, 1));
  });
  double total = 0.0;
  for (const auto& counter : metrics.counters()) {
    if (counter.name.rfind("mq.link.bytes[", 0) == 0) total += static_cast<double>(counter.value);
  }
  return total;
}

void test_determinism(Checker& check) {
  const auto first = plan_mix_sequence(7);
  check.expect(same_jobs(first, plan_mix_sequence(7)), "plan_mix keys repeat for one seed");
  check.expect(!same_jobs(first, plan_mix_sequence(8)), "plan_mix keys differ across seeds");
  check.expect(serve_hot_requests(7, 0, 256) == serve_hot_requests(7, 0, 256) &&
                   serve_hot_requests(7, 0, 256) != serve_hot_requests(7, 1, 256),
               "serve_hot request order repeats per seed and differs per caller");
  check.expect(same_jobs(serve_hot_keys(7), serve_hot_keys(7)), "serve_hot keys repeat");

  // core.dp_cells must repeat exactly: plan the first two DP jobs twice.
  long long cells[2] = {0, 0};
  for (long long& total : cells) {
    int found = 0;
    for (const PlanJob& job : first) {
      if (job.platform.all_costs_affine() || found == 2) continue;
      total += lbs::core::plan_scatter(job.platform, job.items).dp_cells_evaluated;
      ++found;
    }
  }
  check.expect(cells[0] > 0 && cells[0] == cells[1], "core.dp_cells repeats exactly");

  // mq.link_bytes must repeat exactly and equal the payload it moved.
  constexpr long long kItems = 20000;
  std::vector<long long> counts;
  const double bytes = testbed_link_bytes(kItems, counts);
  const double expected =
      static_cast<double>((kItems - counts.back()) * 48) +  // scatterv, root keeps its share
      static_cast<double>((counts.size() - 1) * sizeof(double));  // gatherv of one double
  check.expect(bytes == expected, "mq.link_bytes equals the bytes scattered and gathered");
  check.expect(bytes == testbed_link_bytes(kItems, counts), "mq.link_bytes repeats exactly");
}

void test_checkers(Checker& check) {
  const auto platform = seeded_platform(3, 24, CostShape::Affine);
  const long long items = 100000;
  const auto plan = lbs::core::plan_scatter(platform, items);
  check.expect(check_plan(platform, items, plan).empty(), "a right plan passes");

  RunResult counted;
  auto count = [&](const std::string& why) {
    ++counted.attempted;
    if (!why.empty()) counted.fail(why);
  };
  auto moved = plan;  // one item moved: sums still match, Eq. 1 does not
  moved.distribution.counts[0] -= 1;
  moved.distribution.counts[1] += 1;
  moved.displacements = moved.distribution.displacements();
  count(check_plan(platform, items, moved));
  auto lost = plan;  // one item dropped
  lost.distribution.counts.back() -= 1;
  count(check_plan(platform, items, lost));
  auto unbounded = plan;  // an LP plan without its Eq. 4 bound
  unbounded.has_optimality_bound = false;
  count(check_plan(platform, items, unbounded));
  check.expect(counted.failed == 3, "every wrong plan is counted as a failure");

  lbs::service::PlanResponse reply;
  reply.counts = plan.distribution.counts;
  reply.predicted_makespan = plan.predicted_makespan;
  reply.algorithm_used = plan.algorithm_used;
  reply.has_optimality_bound = plan.has_optimality_bound;
  reply.optimality_gap = plan.optimality_gap;
  check.expect(check_reply(plan, reply).empty(), "a right reply passes");
  reply.counts[2] += 1;
  count(check_reply(plan, reply));
  check.expect(counted.failed == 4, "a reply that differs from the reference is counted");

  lbs::support::Rng rng(5);
  const auto events = lbs::seismic::generate_catalog(rng, 64);
  const std::uint64_t sum = checksum_events(events);
  check.expect(check_receive(64, sum, events).empty(), "a full receive passes");
  count(check_receive(64, sum, std::span(events).first(63)));  // short receive
  auto corrupted = events;
  corrupted[10].source_depth_km += 1.0;
  count(check_receive(64, sum, corrupted));
  check.expect(counted.failed == 6 && counted.attempted == 6,
               "a short or corrupted receive is counted as a failure");
}

}  // namespace

bool self_test(std::vector<std::string>& problems) {
  const std::size_t before = problems.size();
  Checker check{problems};
  test_quantiles(check);
  test_stage_sums(check);
  test_best_of(check);
  test_determinism(check);
  test_checkers(check);
  return problems.size() == before;
}

}  // namespace perfbench

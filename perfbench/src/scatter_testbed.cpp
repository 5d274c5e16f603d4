// scatter_testbed: the paper's Table 1 testbed (p = 16, root dinadan,
// Theorem 3 order) scattering the n = 817,101-event catalog over mq.
// Each round is one mq::Runtime::run: scatterv, emulate_compute at the
// rank's Table 1 alpha, gatherv, with link and compute pacing at
// kTimeScale. Eq. 2 predicts the round; the run measures it.
#include <algorithm>
#include <array>
#include <climits>
#include <cstdio>
#include <malloc.h>

#include "checks.hpp"
#include "core/ordering.hpp"
#include "model/testbed.hpp"
#include "mq/platform_link.hpp"
#include "mq/runtime.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 16;
constexpr int kRoot = kRanks - 1;  // paper convention: root ordered last
// Real seconds per nominal second. Eq. 2 predicts ~404 nominal seconds,
// so a round sleeps ~162 ms, while mq's own copies and wake-ups stay a
// visible share of it: 35 to 75 ms on a shared 4-core VM, as the host's
// other load comes and goes. The longer sleep keeps that swing a smaller
// share of the round, and 4 to 5 rounds a second still leave p90
// resolved in a 30-second run.
constexpr double kTimeScale = 4e-4;

using lbs::seismic::SeismicEvent;

struct Testbed {
  std::vector<SeismicEvent> catalog;
  lbs::model::Platform platform;
  lbs::core::ScatterPlan plan;
  std::vector<std::uint64_t> slice_checksums;  // per rank, of its catalog slice
};

struct RoundStats {
  std::vector<double> ratios;      // observed last finish / predicted
  std::vector<double> excess_s;    // observed last finish - predicted
  std::vector<double> root_scatter_s, root_gather_s;
};

// One round. The latency runs from the root's scatterv call until the
// gathered results are in its hands; the observed makespan runs from the
// same call to the last rank's compute end.
void run_round(const Testbed& bed, lbs::obs::Metrics* metrics, std::vector<SpanLog>* ranks,
               std::uint64_t op, Clock::time_point pass_start, Pass& pass, RoundStats& stats,
               RunResult& result) {
  lbs::mq::RuntimeOptions runtime;
  runtime.ranks = kRanks;
  runtime.time_scale = kTimeScale;
  runtime.link_cost = lbs::mq::make_link_cost(bed.platform, sizeof(SeismicEvent));
  runtime.metrics = metrics;

  const auto& counts = bed.plan.distribution.counts;
  Clock::time_point start, end;
  std::array<Clock::time_point, kRanks> finish{};
  std::array<std::string, kRanks> problems{};
  double scatter_s = 0.0, gather_s = 0.0;

  lbs::mq::Runtime::run(runtime, [&](lbs::mq::Comm& comm) {
    const int rank = comm.rank();
    const auto r = static_cast<std::size_t>(rank);
    SpanLog* log = ranks != nullptr ? &(*ranks)[r] : nullptr;
    std::span<const SeismicEvent> send;
    if (rank == kRoot) send = bed.catalog;

    const auto scatter_begin = Clock::now();
    auto mine = comm.scatterv<SeismicEvent>(kRoot, send, counts);
    const auto received = Clock::now();
    lbs::mq::emulate_compute(
        comm, bed.platform[rank].comp.per_item_slope() * static_cast<double>(mine.size()));
    finish[r] = Clock::now();
    const double count = static_cast<double>(mine.size());
    auto gathered = comm.gatherv<double>(kRoot, std::span<const double>(&count, 1));
    const auto gather_end = Clock::now();

    if (rank == kRoot) {
      start = scatter_begin;
      end = gather_end;
      scatter_s = seconds_between(scatter_begin, received);
      gather_s = seconds_between(finish[r], gather_end);
      for (int k = 0; k < kRanks; ++k) {
        if (gathered.size() != kRanks ||
            gathered[static_cast<std::size_t>(k)] !=
                static_cast<double>(counts[static_cast<std::size_t>(k)])) {
          problems[r] = "gatherv returned the wrong per-rank counts";
        }
      }
    }
    if (log != nullptr) {
      log->add("mq.scatterv", op, scatter_begin, received);
      log->add("mq.emulate_compute", op, received, finish[r]);
      log->add("mq.gatherv", op, finish[r], gather_end);
    }
    // Checked after the round's result is in hand, outside its latency.
    const std::string why = check_receive(counts[r], bed.slice_checksums[r], mine);
    if (!why.empty()) problems[r] = why;
  });

  const double observed = seconds_between(start, *std::max_element(finish.begin(), finish.end()));
  const double predicted = bed.plan.predicted_makespan * kTimeScale;
  pass.record(seconds_between(start, end), seconds_between(pass_start, end));
  stats.ratios.push_back(observed / predicted);
  stats.excess_s.push_back(observed - predicted);
  stats.root_scatter_s.push_back(scatter_s);
  stats.root_gather_s.push_back(gather_s);
  ++result.attempted;
  for (int k = 0; k < kRanks; ++k) {
    const auto& why = problems[static_cast<std::size_t>(k)];
    if (!why.empty()) {
      result.fail("scatter_testbed rank " + std::to_string(k) + ": " + why);
      break;
    }
  }
}

// Rounds until `seconds` have gone by; the pass is one window, since a
// round is too long for a window to hold enough of them.
Pass run_rounds(const Testbed& bed, double seconds, long long max_rounds,
                lbs::obs::Metrics* metrics, SpanLog* trace, RoundStats& stats,
                RunResult& result) {
  Pass pass;
  std::vector<SpanLog> ranks;
  const auto start = Clock::now();
  if (trace != nullptr) {
    for (int r = 0; r < kRanks; ++r) ranks.emplace_back(start, r + 1);
  }
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (long long round = 0; round < max_rounds && Clock::now() < deadline; ++round) {
    run_round(bed, metrics, trace != nullptr ? &ranks : nullptr,
              static_cast<std::uint64_t>(round), start, pass, stats, result);
  }
  pass.elapsed_s = seconds_since(start);
  if (trace != nullptr) {
    for (const SpanLog& log : ranks) trace->append(log);
  }
  return pass;
}

// Sum of every mq counter whose name starts with `prefix`.
double counter_total(const lbs::obs::Metrics& metrics, const std::string& prefix) {
  double total = 0.0;
  for (const auto& counter : metrics.counters()) {
    if (counter.name.rfind(prefix, 0) == 0) total += static_cast<double>(counter.value);
  }
  return total;
}

}  // namespace

RunResult run_scatter_testbed(const Options& options) {
  // A fixed mmap threshold makes every buffer of 128 KiB or more (the
  // catalog, each rank's slice, mq's message copies) its own mapping,
  // returned when freed. glibc otherwise raises the threshold as such
  // buffers are freed and keeps later ones in the 16 rank threads' arenas,
  // so resident memory between rounds wandered from 78 to 162 MB with the
  // order of frees; now it follows the live buffers, as peak_rss_mb should.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunResult result;
  Testbed bed;
  std::vector<double> setups, catalogs;
  // Set-up: generate the catalog, build the ordered testbed platform and
  // plan once.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    bed.catalog = {};  // release the previous copy before building the next
    const auto begin = Clock::now();
    lbs::support::Rng rng(options.seed);
    bed.catalog = lbs::seismic::generate_catalog(rng, kPaperItems);
    catalogs.push_back(seconds_since(begin));
    const auto grid = lbs::model::paper_testbed();
    bed.platform = lbs::core::ordered_platform(grid, lbs::model::paper_root(grid),
                                               lbs::core::OrderingPolicy::DescendingBandwidth);
    bed.plan = lbs::core::plan_scatter(bed.platform, kPaperItems);
    setups.push_back(seconds_since(begin));
  }
  ++result.attempted;
  const std::string why = check_plan(bed.platform, kPaperItems, bed.plan);
  if (!why.empty()) result.fail("scatter_testbed plan: " + why);
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    bed.slice_checksums.push_back(checksum_events(std::span<const SeismicEvent>(bed.catalog).subspan(
        static_cast<std::size_t>(bed.plan.displacements[i]),
        static_cast<std::size_t>(bed.plan.distribution.counts[i]))));
  }

  char line[200];
  RoundStats untraced_stats;
  // Rounds before any timed one: warm-up, and the peak-memory reading over
  // equal work on every commit. The peak depends on how the rank threads'
  // frees interleave, so several rounds let it reach its usual maximum.
  RoundStats warm;
  (void)run_rounds(bed, 1e9, 12, nullptr, nullptr, warm, result);
  const double peak = memory_usage().peak_rss_mb;
  if (!options.trace) {
    const Pass timed = run_rounds(bed, options.seconds, LLONG_MAX, nullptr, nullptr,
                                  untraced_stats, result);
    report_end_to_end(result, timed, median_of(setups), peak);
    std::snprintf(line, sizeof(line),
                  "makespan_ratio %.4f (median of %zu rounds; Eq. 2 predicts %.2f s nominal, "
                  "time_scale %g)",
                  median_of(untraced_stats.ratios), untraced_stats.ratios.size(),
                  bed.plan.predicted_makespan, kTimeScale);
    result.note(line);
    return result;
  }

  const Pass untraced = run_rounds(bed, options.seconds / 2, LLONG_MAX, nullptr, nullptr,
                                   untraced_stats, result);
  SpanLog log(Clock::now());
  lbs::obs::Metrics metrics;
  RoundStats stats;
  const Pass traced = run_rounds(bed, options.seconds / 2, LLONG_MAX, &metrics, &log, stats, result);
  report_trace_overhead(result, untraced, traced);
  const double rounds = static_cast<double>(traced.ops);
  result.set("mq.makespan_ratio", median_of(untraced_stats.ratios));
  result.set("mq.excess_ms", mean_of(stats.excess_s) * 1e3);
  result.set("mq.scatterv_ms", mean_of(stats.root_scatter_s) * 1e3);
  result.set("mq.gatherv_ms", mean_of(stats.root_gather_s) * 1e3);
  result.set("mq.recv_wait_ms", counter_total(metrics, "mq.rank.recv_wait_ns[") / rounds / 1e6);
  result.set("mq.nic_busy_ms", counter_total(metrics, "mq.rank.nic_busy_ns[") / rounds / 1e6);
  result.set("mq.link_bytes", counter_total(metrics, "mq.link.bytes[") / rounds);
  result.set("seismic.catalog_s", median_of(catalogs));
  result.trace = std::move(log);
  return result;
}

}  // namespace perfbench

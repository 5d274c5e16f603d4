// The four workloads, the seeded inputs they are built from, and the
// harness self-test. Every input is a pure function of the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "model/platform.hpp"

namespace perfbench {

// The paper's item count: the 1999 seismic catalog (n = 817,101 rays).
inline constexpr long long kPaperItems = 817101;

enum class CostShape { Linear, Affine, Chunked };

// A platform of `processors` with Table-1-like heterogeneity: compute
// slopes log-uniform in [1e-3, 3e-2] s/item, link slopes log-uniform in
// [1e-6, 1e-4] s/item, affine latencies uniform in [0, 20 ms], each drawn
// stratified over the processors. The root is last with a free link.
// Chunked links add a step of 0.1 to 2 ms every 64 items, which is
// increasing but not affine and so takes the DP route.
lbs::model::Platform seeded_platform(std::uint64_t seed, int processors,
                                     CostShape shape);

struct PlanJob {
  lbs::model::Platform platform;
  long long items = 0;
};

// One pass of plan_mix, in seeded order.
std::vector<PlanJob> plan_mix_sequence(std::uint64_t seed);
// serve_hot's 64 cached keys (first half p=256, second half p=1024).
std::vector<PlanJob> serve_hot_keys(std::uint64_t seed);
// Which key each request of one serve_hot caller asks for.
std::vector<std::size_t> serve_hot_requests(std::uint64_t seed, int caller,
                                            std::size_t count);
// serve_cold's pool of affine platforms, p from 16 to 64.
std::vector<lbs::model::Platform> serve_cold_pool(std::uint64_t seed);

RunResult run_plan_mix(const Options& options);
RunResult run_serve_hot(const Options& options);
RunResult run_serve_cold(const Options& options);
RunResult run_scatter_testbed(const Options& options);

// Stage accounting: `total` split into the given stage totals plus a
// remainder the stages do not cover.
struct StageSum {
  double covered = 0.0;
  double remainder = 0.0;
  double fraction = 0.0;  // covered / total
};
StageSum stage_sum(const std::vector<double>& stage_totals, double total);

// Checks the quantile rule, stage sums, seed determinism and that the
// output checkers reject a wrong plan and a short receive. Appends a
// line per failed check to `problems`; returns true when all hold.
bool self_test(std::vector<std::string>& problems);

}  // namespace perfbench

// Seeded inputs. Sizes are stratified (fixed per slot), and so are the
// cost coefficients of each platform: one draw from each of p equal
// strata of a coefficient's range, assigned to the processors in seeded
// order. Two seeds then give different platforms of the same shape and
// spread, so the run-to-run spread measures the program, not the luck of
// the draw.
#include <cmath>
#include <string>
#include <utility>

#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using lbs::model::Cost;
using lbs::support::Rng;

namespace {

template <typename T>
void seeded_shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

// `count` draws in [0, 1), one from each of `count` equal strata, in
// seeded order.
std::vector<double> stratified_unit(Rng& rng, int count) {
  std::vector<double> draws(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    draws[static_cast<std::size_t>(k)] = (k + rng.uniform()) / count;
  }
  seeded_shuffle(draws, rng);
  return draws;
}

double log_scaled(double unit, double lo, double hi) {
  return std::exp(std::log(lo) + unit * (std::log(hi) - std::log(lo)));
}

// Slot k of `slots` evenly spaced sizes in [lo, hi).
int stratum(int lo, int hi, int k, int slots) {
  return lo + ((hi - lo) * (2 * k + 1)) / (2 * slots);
}

}  // namespace

lbs::model::Platform seeded_platform(std::uint64_t seed, int processors,
                                     CostShape shape) {
  Rng rng(seed);
  const auto comp_slopes = stratified_unit(rng, processors);
  const auto comm_slopes = stratified_unit(rng, processors);
  const auto comp_fixed = stratified_unit(rng, processors);
  const auto comm_fixed = stratified_unit(rng, processors);
  lbs::model::Platform platform;
  platform.processors.reserve(static_cast<std::size_t>(processors));
  for (int i = 0; i < processors; ++i) {
    const auto k = static_cast<std::size_t>(i);
    lbs::model::Processor proc;
    proc.label = "p" + std::to_string(i);
    proc.ref = {i, 0};
    const double comp_slope = log_scaled(comp_slopes[k], 1e-3, 3e-2);
    const double comm_slope = log_scaled(comm_slopes[k], 1e-6, 1e-4);
    const bool root = i == processors - 1;
    switch (shape) {
      case CostShape::Linear:
        proc.comp = Cost::linear(comp_slope);
        proc.comm = root ? Cost::zero() : Cost::linear(comm_slope);
        break;
      case CostShape::Affine:
        proc.comp = Cost::affine(20e-3 * comp_fixed[k], comp_slope);
        proc.comm = root ? Cost::zero() : Cost::affine(20e-3 * comm_fixed[k], comm_slope);
        break;
      case CostShape::Chunked:
        proc.comp = Cost::linear(comp_slope);
        proc.comm = root ? Cost::zero()
                         : Cost::chunked(comm_slope, 64, 1e-4 + 19e-4 * comm_fixed[k]);
        break;
    }
    platform.processors.push_back(std::move(proc));
  }
  return platform;
}

std::vector<PlanJob> plan_mix_sequence(std::uint64_t seed) {
  Rng rng(seed ^ 0x706c616e5f6d6978ULL);
  std::vector<PlanJob> jobs;
  auto add = [&](int processors, CostShape shape, long long items) {
    jobs.push_back(PlanJob{seeded_platform(rng.next(), processors, shape), items});
  };
  // Paper-sized plans (p 16-64): they set the median.
  for (int k = 0; k < 80; ++k) add(stratum(16, 65, k, 80), CostShape::Linear, kPaperItems);
  for (int k = 0; k < 80; ++k) add(stratum(16, 65, k, 80), CostShape::Affine, kPaperItems);
  // Large plans: each group takes roughly a third of a pass, so the
  // closed form, the LP heuristic and the DP share the time. Several per
  // group, so no single seeded platform sets a group's time.
  for (int k = 0; k < 16; ++k) add(stratum(128, 257, k, 16), CostShape::Affine, kPaperItems);
  for (int k = 0; k < 10; ++k) {
    const double p = 1024.0 * std::pow(4.0, (k + 0.5) / 10.0);  // log-spaced in [1024, 4096]
    add(static_cast<int>(std::lround(p)), CostShape::Linear, kPaperItems);
  }
  for (int k = 0; k < 22; ++k) add(16, CostShape::Chunked, 10000);
  seeded_shuffle(jobs, rng);
  return jobs;
}

std::vector<PlanJob> serve_hot_keys(std::uint64_t seed) {
  Rng rng(seed ^ 0x686f745f6b657973ULL);
  std::vector<PlanJob> keys;
  for (int processors : {256, 1024}) {
    for (int k = 0; k < 32; ++k) {
      keys.push_back(PlanJob{seeded_platform(rng.next(), processors, CostShape::Linear),
                             kPaperItems});
    }
  }
  return keys;
}

std::vector<std::size_t> serve_hot_requests(std::uint64_t seed, int caller,
                                            std::size_t count) {
  Rng rng(seed ^ (0x7265717565737473ULL + static_cast<std::uint64_t>(caller)));
  std::vector<std::size_t> picks(count);
  // Three requests in four go to a p=1024 key, so the median and p90 sit
  // inside one mode of the latency distribution instead of on the edge
  // between the p=256 and p=1024 modes, where they would flip run to run.
  for (std::size_t& pick : picks) {
    const bool large = rng.uniform() < 0.75;
    pick = static_cast<std::size_t>(rng.uniform_int(0, 31)) + (large ? 32 : 0);
  }
  return picks;
}

std::vector<lbs::model::Platform> serve_cold_pool(std::uint64_t seed) {
  Rng rng(seed ^ 0x636f6c645f706f6fULL);
  std::vector<lbs::model::Platform> pool;
  for (int k = 0; k < 64; ++k) {
    pool.push_back(seeded_platform(rng.next(), stratum(16, 65, k, 64), CostShape::Affine));
  }
  seeded_shuffle(pool, rng);
  return pool;
}

StageSum stage_sum(const std::vector<double>& stage_totals, double total) {
  StageSum sum;
  for (double stage : stage_totals) sum.covered += stage;
  sum.remainder = total - sum.covered;
  sum.fraction = total > 0.0 ? sum.covered / total : 0.0;
  return sum;
}

}  // namespace perfbench

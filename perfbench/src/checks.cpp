#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

bool close_enough(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string at(const char* what, std::size_t i) {
  return std::string(what) + " at processor " + std::to_string(i);
}

}  // namespace

std::string check_plan(const lbs::model::Platform& platform, long long items,
                       const lbs::core::ScatterPlan& plan) {
  using lbs::core::Algorithm;
  const auto p = static_cast<std::size_t>(platform.size());
  const auto& counts = plan.distribution.counts;
  if (counts.size() != p) return "plan has the wrong number of counts";
  if (plan.displacements.size() != p) return "plan has the wrong number of displacements";
  if (plan.predicted_finish.size() != p) return "plan has the wrong number of finish times";

  long long total = 0;
  double comm_prefix = 0.0;
  double makespan = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    if (counts[i] < 0) return at("negative count", i);
    if (plan.displacements[i] != total) return at("wrong displacement", i);
    total += counts[i];
    // Eq. 1: T_i = sum_{j<=i} Tcomm(j, n_j) + Tcomp(i, n_i).
    const auto& proc = platform.processors[i];
    comm_prefix += proc.comm.at(counts[i]);
    const double finish = comm_prefix + proc.comp.at(counts[i]);
    if (!close_enough(finish, plan.predicted_finish[i])) {
      return at("predicted_finish differs from Eq. 1", i);
    }
    makespan = std::max(makespan, finish);
  }
  if (total != items) return "counts sum to " + std::to_string(total) + ", not " +
                             std::to_string(items);
  if (!close_enough(makespan, plan.predicted_makespan)) {
    return "predicted_makespan differs from Eq. 2";
  }
  const bool dp = plan.algorithm_used == Algorithm::OptimizedDp ||
                  plan.algorithm_used == Algorithm::ExactDp;
  if (!dp && !(plan.has_optimality_bound && std::isfinite(plan.optimality_gap) &&
               plan.optimality_gap >= 0.0)) {
    return "closed-form or LP plan without an Eq. 4 bound";
  }
  if (dp && plan.dp_cells_evaluated <= 0) return "DP plan reports no cells";
  return {};
}

std::string check_reply(const lbs::core::ScatterPlan& reference,
                        const lbs::service::PlanResponse& reply) {
  if (reply.status != lbs::service::PlanStatus::Ok) {
    return "reply status " + std::to_string(static_cast<int>(reply.status)) + ": " +
           reply.message;
  }
  if (reply.counts != reference.distribution.counts) return "reply counts differ";
  if (std::bit_cast<std::uint64_t>(reply.predicted_makespan) !=
      std::bit_cast<std::uint64_t>(reference.predicted_makespan)) {
    return "reply predicted_makespan differs";
  }
  if (reply.algorithm_used != reference.algorithm_used) return "reply algorithm differs";
  if (reply.has_optimality_bound != reference.has_optimality_bound ||
      std::bit_cast<std::uint64_t>(reply.optimality_gap) !=
          std::bit_cast<std::uint64_t>(reference.optimality_gap)) {
    return "reply optimality bound differs";
  }
  if (reply.dp_cells_evaluated != reference.dp_cells_evaluated) {
    return "reply dp_cells_evaluated differs";
  }
  return {};
}

std::uint64_t checksum_events(std::span<const lbs::seismic::SeismicEvent> events) {
  std::uint64_t sum = 0;
  std::uint64_t index = 0;
  const auto* bytes = reinterpret_cast<const unsigned char*>(events.data());
  const std::size_t words = events.size_bytes() / sizeof(std::uint64_t);
  for (std::size_t w = 0; w < words; ++w, ++index) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + w * sizeof(word), sizeof(word));
    sum += (word ^ index) * 0x9e3779b97f4a7c15ULL;
  }
  return sum;
}

std::string check_receive(long long expected_count, std::uint64_t expected_checksum,
                          std::span<const lbs::seismic::SeismicEvent> received) {
  if (static_cast<long long>(received.size()) != expected_count) {
    return "rank received " + std::to_string(received.size()) + " items, expected " +
           std::to_string(expected_count);
  }
  if (checksum_events(received) != expected_checksum) {
    return "rank payload checksum differs from its catalog slice";
  }
  return {};
}

}  // namespace perfbench

// Output checkers. Each returns an empty string when the output is right
// and a one-line description of the first defect otherwise; the caller
// counts a non-empty answer as one failed operation.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/planner.hpp"
#include "seismic/catalog.hpp"
#include "service/protocol.hpp"

namespace perfbench {

// A plan is right when its counts are non-negative and sum to `items`,
// its displacements are their prefix sums, predicted_finish and
// predicted_makespan match Eq. 1 / Eq. 2 recomputed here from the
// platform, and a closed-form or LP plan carries an Eq. 4 bound.
std::string check_plan(const lbs::model::Platform& platform, long long items,
                       const lbs::core::ScatterPlan& plan);

// A service reply is right when it is Ok and equals the in-process plan
// for the same key bit for bit.
std::string check_reply(const lbs::core::ScatterPlan& reference,
                        const lbs::service::PlanResponse& reply);

// Order-sensitive 64-bit digest of a run of events.
std::uint64_t checksum_events(std::span<const lbs::seismic::SeismicEvent> events);

// A rank's scatterv receive is right when it holds exactly its count and
// its digest matches its slice of the catalog.
std::string check_receive(long long expected_count, std::uint64_t expected_checksum,
                          std::span<const lbs::seismic::SeismicEvent> received);

}  // namespace perfbench

// Degradation-aware recovery planning: re-running the paper's scatter
// planner on the platform that remains after failures.
//
// The mq runtime's fault-tolerant scatter (mq::Comm::scatterv_ft) detects
// dead receivers and asks a replanner to distribute the undelivered
// remainder over the survivors. This header supplies that replanner: it
// restricts the Platform to the surviving processors (scatter order
// preserved, root last) and lets plan_scatter pick the strongest
// applicable method, exactly as for the initial distribution. No mq types
// are involved — the replanner is a plain std::function, so core stays
// independent of the runtime substrate.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "model/platform.hpp"

namespace lbs::core {

// Platform restricted to the processors at `positions`, in that order.
// Positions must be distinct and in range; the last position is the root
// of the reduced platform (callers keep the original root last).
model::Platform reduce_platform(const model::Platform& platform,
                                const std::vector<int>& positions);

// A replanner for mq::ScattervFtOptions::replan (and the gridsim mirror):
// given the surviving rank ids (platform positions, root last) and the
// undelivered item count, re-runs plan_scatter on the reduced platform and
// returns per-survivor counts, aligned with the alive list. Each replanner
// owns a core::PlanCache, so repeated recoveries of the same survivor set
// and remainder (the common case across scatters) hit without a re-solve.
std::function<std::vector<long long>(const std::vector<int>& alive,
                                     long long items)>
make_ft_replanner(model::Platform platform,
                  Algorithm algorithm = Algorithm::Auto);

// Supplies the platform a replanner re-plans over. Called once per replan,
// so a provider backed by a live cost model (core::AdaptivePlanner's
// refitted fits, a monitor daemon's instantaneous alphas) makes every
// recovery use the *current* costs instead of the construction-time ones.
// Must be callable from the replanner's thread; must always return a
// platform with the same processor positions as the original.
using PlatformProvider = std::function<model::Platform()>;

// Cost-refreshing variant: each replan fetches provider() first, so cost
// updates between scatters are picked up on the next recovery. The plan
// cache is keyed on the reduced platform's cost fingerprints, so a
// refreshed cost can never be served a stale plan — and unchanged costs
// still hit without a re-solve. Passing `cache` shares it with other
// planning paths (core::AdaptivePlanner routes its drift replans and its
// plan() calls through one cache this way); nullptr gets a private
// 64-entry cache.
std::function<std::vector<long long>(const std::vector<int>& alive,
                                     long long items)>
make_ft_replanner(PlatformProvider provider,
                  Algorithm algorithm = Algorithm::Auto,
                  std::shared_ptr<PlanCache> cache = nullptr);

}  // namespace lbs::core

// High-level planning API: the library's main entry point.
//
// plan_scatter() turns (platform, n) into the counts/displacements vector
// a parameterized scatter (MPI_Scatterv or mq::Comm::scatterv) needs,
// choosing the strongest applicable method:
//   - linear costs   -> closed form (Section 4) + rounding scheme,
//   - affine costs   -> guaranteed LP heuristic (Section 3.3),
//   - increasing     -> Algorithm 2,
//   - anything else  -> Algorithm 1.
// An explicit algorithm can be forced for studies.
#pragma once

#include <string>
#include <vector>

#include "core/distribution.hpp"
#include "core/dp.hpp"
#include "model/platform.hpp"

namespace lbs::core {

class PlanCache;

enum class Algorithm {
  Auto,
  ExactDp,          // Algorithm 1
  OptimizedDp,      // Algorithm 2
  LpHeuristic,      // Section 3.3
  LinearClosedForm, // Section 4 (+ rounding)
  Uniform,          // the original program's equal shares (baseline)
};

std::string to_string(Algorithm algorithm);

struct ScatterPlan {
  Distribution distribution;
  std::vector<long long> displacements;
  double predicted_makespan = 0.0;          // Eq. 2 on the true cost model
  std::vector<double> predicted_finish;     // Eq. 1 per processor
  Algorithm algorithm_used = Algorithm::Auto;
  // Eq. 4 optimality certificate. When has_optimality_bound is set,
  //   predicted_makespan <= optimal integral makespan + optimality_gap.
  // DP plans are exactly optimal (gap 0); the closed-form and LP fast
  // paths carry the rounding slack (sum of Tcomm(j,1) plus the worst
  // fixed and per-item compute terms — Section 4 / Eq. 4). Uniform plans
  // carry no bound.
  bool has_optimality_bound = false;
  double optimality_gap = 0.0;
  // Planner provenance (zero unless a DP algorithm ran): survives the plan
  // cache, so a cached plan still reports the work its original solve did.
  long long dp_cells_evaluated = 0;
  int dp_threads = 0;

  // MPI_Scatterv takes int counts/displs; these narrow and throw
  // lbs::Error instead of silently wrapping when a count or a prefix sum
  // exceeds INT_MAX (at paper-scale n that is one multiplication by the
  // element count away). Use these at any 32-bit scatter boundary.
  [[nodiscard]] std::vector<int> counts_as_int() const;
  [[nodiscard]] std::vector<int> displacements_as_int() const;
};

struct PlannerOptions {
  Algorithm algorithm = Algorithm::Auto;
  // Forwarded to exact_dp / optimized_dp (threads, memory mode, cost table).
  DpOptions dp;
  // When non-null, consulted before planning and filled after: repeat
  // plans for the same (costs, items, algorithm) skip the solve and cost
  // one O(p) key build plus an O(p) plan copy — see core/plan_cache.hpp.
  PlanCache* cache = nullptr;
  // Observability hooks. A null tracer falls back to obs::global_tracer();
  // when one is live, every plan_scatter call emits a scatter.plan span
  // (items, resolved algorithm, folded platform fingerprint) and forwards
  // the tracer to the DP layer. Metrics are explicit-only and also
  // forwarded to the DP layer unless options.dp already carries its own.
  obs::Tracer* tracer = nullptr;
  obs::Metrics* metrics = nullptr;
};

// Throws lbs::Error when a forced algorithm's preconditions do not hold
// (e.g. LpHeuristic on non-affine costs).
ScatterPlan plan_scatter(const model::Platform& platform, long long items,
                         Algorithm algorithm = Algorithm::Auto);
ScatterPlan plan_scatter(const model::Platform& platform, long long items,
                         const PlannerOptions& options);

}  // namespace lbs::core

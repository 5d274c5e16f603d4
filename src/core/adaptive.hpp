// Adaptive runtime: online cost refinement and mid-run replanning.
//
// The paper calibrates Table 1's α/β once, offline ("values come from a
// series of benchmarks we performed"), and plans from those constants
// forever. Real grids drift: a node picks up a competing batch job, a
// shared hub congests, the initial measurements were wrong to begin with.
// Section 3 already gestures at the fix — "a monitor daemon process ...
// could be queried just before a scatter operation" — but a separate
// monitor is redundant: the application's own scatter rounds *are* the
// benchmark series, continuously re-run.
//
// AdaptivePlanner closes that loop:
//
//   observe  — every round feeds per-rank (items, seconds) send/compute
//              timings (from a gridsim Timeline, an mq trace, or any other
//              substrate) into per-rank model::OnlineAffineFit instances —
//              recursive least squares with forgetting on top of the
//              model::calibrate seam.
//   detect   — the round's observed Eq. 1 finish times are compared with
//              the plan's predictions; the drift signal is the largest
//              relative error, checked against AdaptiveOptions::
//              drift_threshold (with a cooldown so sustained drift cannot
//              trigger a replan storm).
//   refit    — on confirmed drift, every rank whose fit is ready gets its
//              Tcomm/Tcomp replaced by the fitted cost; the platform
//              version bumps.
//   replan   — the refreshed platform flows through the same
//              make_ft_replanner path the fault-recovery machinery uses
//              (a PlatformProvider bound to this planner), so recovery
//              replans and drift replans share one engine and one cache.
//              The plan cache keys on cost fingerprints, so a refit can
//              never be served a stale plan.
//
// Timestamps are supplied by the caller, which is what makes the planner
// substrate-agnostic: gridsim passes virtual seconds, mq passes wall
// seconds, and cooldown arithmetic happens in whichever clock the caller
// lives in (AdaptiveOptions::clock labels the emitted spans accordingly).
//
// Instrumentation: adaptive.drift instants and adaptive.refit spans (plus
// a recovery.replan instant per adaptive replan) on the configured
// tracer, and adaptive.* counters/histograms on the configured Metrics.
// docs/adaptive.md covers the model, the drift signal, and the scenario
// suite that gates all of this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "core/recovery.hpp"
#include "model/online_fit.hpp"
#include "model/platform.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lbs::core {

struct AdaptiveOptions {
  // Master switch. When false, plan() is exactly plan_scatter on the
  // construction platform (bit-identical, no cache interposed) and
  // observe_round never refits — the differential tests pin this.
  bool enabled = true;

  // Replan when the largest relative error between observed and predicted
  // Eq. 1 finish times exceeds this fraction of the predicted makespan.
  double drift_threshold = 0.10;

  // A rank's fit must have this many samples (with two distinct item
  // counts) before its fitted cost replaces the current one.
  int min_samples = 3;

  // Forgetting factor for the per-rank recursive fits (see
  // model::OnlineFitOptions::forgetting).
  double forgetting = 0.95;

  // Minimum caller-clock seconds between replans. Drift seen inside the
  // cooldown still updates the fits (and is counted as suppressed); only
  // the refit+replan is held back.
  double cooldown = 0.0;

  // Pseudo-sample weight anchoring each rank's fit at its construction
  // cost: higher values demand more evidence before the model moves.
  double prior_weight = 1.0;

  // Intercept-drop seam forwarded to the fits (model::calibrate's rule).
  double intercept_tolerance = 0.01;

  Algorithm algorithm = Algorithm::Auto;

  // Clock domain of the caller's `now` values; labels the emitted spans.
  obs::Clock clock = obs::Clock::Virtual;

  // Observability: a null tracer falls back to obs::global_tracer();
  // metrics are explicit-only (planner convention).
  obs::Tracer* tracer = nullptr;
  obs::Metrics* metrics = nullptr;

  // Capacity of the internal plan cache (shared by plan() and the
  // recovery replanner).
  std::size_t cache_capacity = 64;
};

// One rank's measured timings for one scatter round. `rank` is the
// platform position; `items` the share it actually received.
struct RankObservation {
  int rank = 0;
  long long items = 0;
  double comm_seconds = 0.0;  // root-send / receive time for the share
  double comp_seconds = 0.0;  // compute time for the share
};

// What one observe_round decided, for callers that want to react (log,
// re-fetch the plan, assert in tests).
struct AdaptiveOutcome {
  double drift = 0.0;           // max relative Eq. 1 error this round
  bool drift_detected = false;  // drift > threshold
  bool suppressed = false;      // drift detected but inside the cooldown
  bool refit = false;           // at least one rank's cost was replaced
  bool replanned = false;       // a fresh plan was solved on the new model
  std::uint64_t platform_version = 0;
};

// Thread-safe: plan() / observe_round() / platform() may race (the
// concurrent refit-while-planning test runs under TSan). A plan is always
// computed against one consistent platform snapshot.
class AdaptivePlanner {
 public:
  explicit AdaptivePlanner(model::Platform initial,
                           AdaptiveOptions options = {});

  // Plans `items` over the current believed platform. Repeat plans on an
  // unchanged model are cache hits (no re-solve); the first plan after a refit
  // misses (new fingerprints) and re-solves.
  [[nodiscard]] ScatterPlan plan(long long items);

  // Feeds one round's measurements and runs the detect→refit→replan
  // pipeline. `plan` must be the plan the round executed (its
  // predicted_finish is the drift baseline); `observations` must cover
  // every platform position exactly once, in any order; `now` is the
  // caller-clock timestamp of the round's end.
  AdaptiveOutcome observe_round(const ScatterPlan& plan,
                                std::span<const RankObservation> observations,
                                double now);

  // Snapshot of the current believed platform (construction costs until
  // the first refit).
  [[nodiscard]] model::Platform platform() const;

  // Monotonic model version: 0 at construction, +1 per refit.
  [[nodiscard]] std::uint64_t platform_version() const;

  // A live-model recovery replanner (the mq::ScattervFtOptions::replan /
  // gridsim::FtSimOptions::replan contract), built on make_ft_replanner's
  // PlatformProvider hook: recoveries after a refit re-plan on the
  // refreshed costs automatically.
  [[nodiscard]] std::function<std::vector<long long>(
      const std::vector<int>& alive, long long items)>
  replanner() const;

  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t samples = 0;          // accepted (items > 0) rank samples
    std::uint64_t drift_detected = 0;
    std::uint64_t suppressed = 0;       // replans held back by the cooldown
    std::uint64_t refits = 0;
    std::uint64_t replans = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct RankFits {
    model::OnlineAffineFit comm;
    model::OnlineAffineFit comp;
  };

  [[nodiscard]] model::Platform snapshot_platform() const;
  void record_drift(double drift, bool detected, double now);

  const AdaptiveOptions options_;
  // shared_ptr so replanner() closures survive the planner if callers let
  // them (the mq runtime may outlive a scatter's planner object).
  struct State {
    mutable std::mutex mu;
    model::Platform platform;
    std::vector<RankFits> fits;
    std::uint64_t version = 0;
    double last_replan_time = 0.0;
    bool replanned_once = false;
    Stats stats;
  };
  std::shared_ptr<State> state_;
  std::shared_ptr<PlanCache> cache_;
  // The recovery replanner (make_ft_replanner over a live-platform
  // provider, sharing cache_): both the replanner() seam and the
  // drift-replan path go through it.
  std::function<std::vector<long long>(const std::vector<int>&, long long)>
      ft_replanner_;
};

}  // namespace lbs::core

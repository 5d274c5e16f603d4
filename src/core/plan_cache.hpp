// LRU caching of scatter plans.
//
// plan_scatter is a pure function of (platform costs, n, algorithm), and
// production traffic repeats it: recovery replanning re-plans the same
// survivor sets on every scatter, root-selection sweeps re-plan the same
// platform rotated p ways, and hierarchical scatter re-plans each site.
// PlanCache memoizes those calls behind an exact structural key — the
// per-processor cost fingerprints (model::Cost::fingerprint) plus the
// item count and the requested algorithm — so a repeat plan costs an O(p)
// fingerprint, a shard lock, a hash probe and an O(p) copy of the plan
// instead of a re-solve (an O(p n) or worse DP).
//
// Processor labels and machine refs are deliberately *not* part of the
// key: two platforms with identical cost structure get identical plans.
// Entries are full ScatterPlans (O(p) memory each).
//
// The key space is split over `shards` independent LRU lists, each under
// its own mutex and holding at most `capacity_per_shard` plans. Shard
// choice is a pure function of PlanKeyHash, so a key always lands on the
// same shard and two probes contend only when they collide on one.
// Library callers use one shard (one LRU of `capacity` plans); the
// planning service stripes its cache so concurrent connections and DP
// workers do not serialize on a single mutex. The shard count changes
// only eviction timing, never an answer: an evicted entry merely costs a
// re-plan of the same pure function.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "model/platform.hpp"

namespace lbs::obs {
class Counter;
class Metrics;
class Tracer;
}

namespace lbs::core {

// Structural identity of one plan request. Used by the cache and by the
// planning service's request-coalescing map and fleet routing, so "same
// key" means the same thing at every layer.
struct PlanKey {
  std::vector<std::uint64_t> costs;  // per-processor folded cost fingerprints
  long long items = 0;
  Algorithm algorithm = Algorithm::Auto;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const;
};

// Builds the key for (platform, items, algorithm): one fingerprint per
// processor folding Tcomm and Tcomp, plus the scalars. `algorithm` is the
// *requested* algorithm (Auto resolves deterministically from the costs,
// so it is a sound key component).
PlanKey make_plan_key(const model::Platform& platform, long long items,
                      Algorithm algorithm);

class PlanCache {
 public:
  // `shards` lock stripes, each an LRU of `capacity_per_shard` plans.
  explicit PlanCache(std::size_t capacity_per_shard = 128, int shards = 1);

  [[nodiscard]] std::optional<ScatterPlan> lookup(const PlanKey& key);
  void insert(const PlanKey& key, const ScatterPlan& plan);

  // Lookup-or-plan convenience: plan_scatter with this cache attached.
  ScatterPlan plan(const model::Platform& platform, long long items,
                   Algorithm algorithm = Algorithm::Auto,
                   const DpOptions& dp = {});

  // Observability hooks; call during setup, before concurrent use. A null
  // tracer falls back to obs::global_tracer(): every probe then emits a
  // cache.hit / cache.miss instant (arg0 = items probed). set_metrics
  // binds the "plan_cache.hits" / "plan_cache.misses" /
  // "plan_cache.evictions" counters in `metrics`, plus per-shard
  // "plan_cache.shard<K>.hits" / ".misses" when there is more than one
  // shard, so cross-shard balance is visible. Handles are resolved once
  // here, so probes stay a couple of atomic adds.
  void set_tracer(obs::Tracer* tracer);
  void set_metrics(obs::Metrics* metrics);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;  // summed over shards
  [[nodiscard]] std::vector<Stats> shard_stats() const;

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] std::size_t size() const;      // entries, all shards
  [[nodiscard]] std::size_t capacity() const;  // shards * per-shard
  [[nodiscard]] std::size_t capacity_per_shard() const { return capacity_per_shard_; }

  // The shard a key lands on (pure function of the key; exposed so tests
  // can craft per-shard workloads).
  [[nodiscard]] int shard_for(const PlanKey& key) const;

  void clear();

  // Persistence hooks (service/snapshot.hpp turns these into a
  // checksummed file). export_entries walks every shard least-recent
  // first, so replaying the returned sequence through restore_entries —
  // or plain insert — reproduces both the contents and the LRU recency
  // order. Each shard is locked only while it is being copied; a snapshot
  // taken under live traffic is a consistent-per-shard view, which is
  // sound because plans are pure functions of their key (a racing insert
  // merely is or isn't included).
  [[nodiscard]] std::vector<std::pair<PlanKey, ScatterPlan>> export_entries() const;
  // Inserts every entry in order (re-sharding by key, evicting beyond
  // capacity as usual). Counts neither hits nor misses.
  void restore_entries(const std::vector<std::pair<PlanKey, ScatterPlan>>& entries);

 private:
  struct Entry {
    PlanKey key;
    ScatterPlan plan;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index;
    Stats stats;
    obs::Counter* hits_counter = nullptr;
    obs::Counter* misses_counter = nullptr;
  };

  [[nodiscard]] Shard& shard_of(const PlanKey& key);
  void record_probe(bool hit, long long items);

  std::size_t capacity_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace lbs::core

#include "core/plan_cache.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace lbs::core {

std::size_t PlanKeyHash::operator()(const PlanKey& key) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (std::uint64_t c : key.costs) mix(c);
  mix(static_cast<std::uint64_t>(key.items));
  mix(static_cast<std::uint64_t>(key.algorithm));
  return static_cast<std::size_t>(h);
}

PlanKey make_plan_key(const model::Platform& platform, long long items,
                      Algorithm algorithm) {
  PlanKey key{{}, items, algorithm};
  key.costs.reserve(static_cast<std::size_t>(platform.size()));
  for (int i = 0; i < platform.size(); ++i) {
    // Rotate-and-xor keeps (comm, comp) ordered, unlike plain xor.
    std::uint64_t comm = platform[i].comm.fingerprint();
    std::uint64_t comp = platform[i].comp.fingerprint();
    key.costs.push_back(comm ^ (comp << 1 | comp >> 63));
  }
  return key;
}

PlanCache::PlanCache(std::size_t capacity_per_shard, int shards)
    : capacity_per_shard_(capacity_per_shard) {
  LBS_CHECK_MSG(shards >= 1, "plan cache needs >= 1 shard");
  LBS_CHECK_MSG(shards <= 1024, "plan cache: implausible shard count");
  LBS_CHECK_MSG(capacity_per_shard >= 1, "plan cache needs capacity >= 1");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

int PlanCache::shard_for(const PlanKey& key) const {
  // The low hash bits also pick the unordered_map bucket inside the shard;
  // fold the high half in so shard choice uses independent bits.
  std::uint64_t h = PlanKeyHash{}(key);
  h ^= h >> 32;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return static_cast<int>(h % shards_.size());
}

PlanCache::Shard& PlanCache::shard_of(const PlanKey& key) {
  // One shard needs no shard hash: the index lookup hashes the key anyway.
  if (shards_.size() == 1) return *shards_.front();
  return *shards_[static_cast<std::size_t>(shard_for(key))];
}

void PlanCache::set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

void PlanCache::set_metrics(obs::Metrics* metrics) {
  hits_counter_ = nullptr;
  misses_counter_ = nullptr;
  evictions_counter_ = nullptr;
  for (auto& shard : shards_) {
    shard->hits_counter = nullptr;
    shard->misses_counter = nullptr;
  }
  if (metrics == nullptr) return;
  hits_counter_ = &metrics->counter("plan_cache.hits");
  misses_counter_ = &metrics->counter("plan_cache.misses");
  evictions_counter_ = &metrics->counter("plan_cache.evictions");
  if (shards_.size() == 1) return;  // the totals already are the shard's
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string prefix = "plan_cache.shard" + std::to_string(i);
    shards_[i]->hits_counter = &metrics->counter(prefix + ".hits");
    shards_[i]->misses_counter = &metrics->counter(prefix + ".misses");
  }
}

void PlanCache::record_probe(bool hit, long long items) {
  obs::Tracer* tracer = tracer_ != nullptr ? tracer_ : obs::global_tracer();
  if (tracer != nullptr) {
    obs::TraceEvent event;
    event.type = hit ? obs::EventType::CacheHit : obs::EventType::CacheMiss;
    event.instant = true;
    event.start = obs::wall_now();
    event.arg0 = items;
    tracer->record(event);
  }
  obs::Counter* counter = hit ? hits_counter_ : misses_counter_;
  if (counter != nullptr) counter->add();
}

std::optional<ScatterPlan> PlanCache::lookup(const PlanKey& key) {
  Shard& shard = shard_of(key);
  std::optional<ScatterPlan> found;
  {
    std::lock_guard lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      if (shard.misses_counter != nullptr) shard.misses_counter->add();
    } else {
      ++shard.stats.hits;
      if (shard.hits_counter != nullptr) shard.hits_counter->add();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      found = it->second->plan;
    }
  }
  record_probe(found.has_value(), key.items);
  return found;
}

void PlanCache::insert(const PlanKey& key, const ScatterPlan& plan) {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->plan = plan;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, plan});
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  if (shard.lru.size() > capacity_per_shard_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
    if (evictions_counter_ != nullptr) evictions_counter_->add();
  }
}

ScatterPlan PlanCache::plan(const model::Platform& platform, long long items,
                            Algorithm algorithm, const DpOptions& dp) {
  PlannerOptions options;
  options.algorithm = algorithm;
  options.dp = dp;
  options.cache = this;
  return plan_scatter(platform, items, options);
}

PlanCache::Stats PlanCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

std::vector<PlanCache::Stats> PlanCache::shard_stats() const {
  std::vector<Stats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    out.push_back(shard->stats);
  }
  return out;
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

std::size_t PlanCache::capacity() const {
  return shards_.size() * capacity_per_shard_;
}

std::vector<std::pair<PlanKey, ScatterPlan>> PlanCache::export_entries() const {
  std::vector<std::pair<PlanKey, ScatterPlan>> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    // Least-recent first: replaying through insert() ends with the same
    // front-of-LRU ordering this shard has now.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      out.emplace_back(it->key, it->plan);
    }
  }
  return out;
}

void PlanCache::restore_entries(
    const std::vector<std::pair<PlanKey, ScatterPlan>>& entries) {
  for (const auto& [key, plan] : entries) {
    insert(key, plan);
  }
}

void PlanCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->stats = {};
  }
}

}  // namespace lbs::core

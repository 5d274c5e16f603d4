#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "model/testbed.hpp"
#include "obs/metrics.hpp"

namespace lbs::core {
namespace {

// A small linear platform whose root slope varies with `seed`, so each
// seed produces a distinct PlanKey (distinct cost fingerprints).
model::Platform platform_for(int seed) {
  model::Platform platform;
  model::Processor worker;
  worker.label = "worker";
  worker.comm = model::Cost::linear(0.5);
  worker.comp = model::Cost::linear(0.1 + 0.001 * seed);
  platform.processors.push_back(worker);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(0.2);
  platform.processors.push_back(root);
  return platform;
}

TEST(PlanCache, HitAfterInsert) {
  PlanCache cache(8, 4);
  auto platform = platform_for(0);
  auto key = make_plan_key(platform, 1000, Algorithm::Auto);
  EXPECT_FALSE(cache.lookup(key).has_value());

  auto plan = plan_scatter(platform, 1000);
  cache.insert(key, plan);

  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->distribution.counts, plan.distribution.counts);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// The load-bearing equivalence: replaying one request log through a
// single-shard cache and an eight-shard cache yields bit-identical plans
// at every step. The shard count changes eviction timing, never answers.
TEST(PlanCache, OneShardBitIdenticalToEightShardsOnReplayedLog) {
  PlanCache flat(64, 1);
  PlanCache sharded(8, 8);  // same total capacity

  // A log with repeats: 40 distinct keys, each requested three times,
  // interleaved so LRU state churns.
  std::vector<std::pair<int, long long>> log;
  for (int round = 0; round < 3; ++round) {
    for (int seed = 0; seed < 40; ++seed) {
      log.push_back({seed, 500 + 10 * seed});
    }
  }

  for (const auto& [seed, items] : log) {
    auto platform = platform_for(seed);
    auto from_flat = flat.plan(platform, items);
    auto from_sharded = sharded.plan(platform, items);
    EXPECT_EQ(from_flat.distribution.counts, from_sharded.distribution.counts);
    EXPECT_EQ(from_flat.algorithm_used, from_sharded.algorithm_used);
    EXPECT_DOUBLE_EQ(from_flat.predicted_makespan, from_sharded.predicted_makespan);
    // And both match a cache-free plan of the same request: caches never
    // change answers.
    auto fresh = plan_scatter(platform, items);
    EXPECT_EQ(from_sharded.distribution.counts, fresh.distribution.counts);
  }
}

TEST(PlanCache, ShardForIsStableAndInRange) {
  PlanCache cache(4, 8);
  for (int seed = 0; seed < 100; ++seed) {
    auto key = make_plan_key(platform_for(seed), 1000, Algorithm::Auto);
    int shard = cache.shard_for(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, cache.shards());
    EXPECT_EQ(cache.shard_for(key), shard);  // pure function of the key
  }
}

TEST(PlanCache, PerShardLruEviction) {
  PlanCache cache(2, 4);  // 2 entries per shard

  // Craft 3 keys that land on the SAME shard: the third insert must evict
  // that shard's LRU entry while every other shard stays untouched.
  std::vector<std::pair<PlanKey, ScatterPlan>> same_shard;
  int target_shard = -1;
  for (int seed = 0; same_shard.size() < 3 && seed < 10000; ++seed) {
    auto platform = platform_for(seed);
    auto key = make_plan_key(platform, 1000, Algorithm::Auto);
    int shard = cache.shard_for(key);
    if (target_shard < 0) target_shard = shard;
    if (shard == target_shard) {
      same_shard.push_back({key, plan_scatter(platform, 1000)});
    }
  }
  ASSERT_EQ(same_shard.size(), 3u);

  cache.insert(same_shard[0].first, same_shard[0].second);
  cache.insert(same_shard[1].first, same_shard[1].second);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.insert(same_shard[2].first, same_shard[2].second);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  // LRU within the shard: [0] was oldest, so [0] is gone, [1] and [2] live.
  EXPECT_FALSE(cache.lookup(same_shard[0].first).has_value());
  EXPECT_TRUE(cache.lookup(same_shard[1].first).has_value());
  EXPECT_TRUE(cache.lookup(same_shard[2].first).has_value());

  auto per_shard = cache.shard_stats();
  ASSERT_EQ(per_shard.size(), 4u);
  EXPECT_EQ(per_shard[static_cast<std::size_t>(target_shard)].evictions, 1u);
  for (int s = 0; s < 4; ++s) {
    if (s != target_shard) {
      EXPECT_EQ(per_shard[static_cast<std::size_t>(s)].evictions, 0u);
    }
  }
}

TEST(PlanCache, LookupRefreshesLruRecency) {
  PlanCache cache(2);  // single shard: global LRU order
  auto a = platform_for(1);
  auto b = platform_for(2);
  auto c = platform_for(3);
  auto key_a = make_plan_key(a, 100, Algorithm::Auto);
  auto key_b = make_plan_key(b, 100, Algorithm::Auto);
  auto key_c = make_plan_key(c, 100, Algorithm::Auto);
  cache.insert(key_a, plan_scatter(a, 100));
  cache.insert(key_b, plan_scatter(b, 100));

  // Touch `a`, making `b` the LRU victim when `c` arrives.
  EXPECT_TRUE(cache.lookup(key_a).has_value());
  cache.insert(key_c, plan_scatter(c, 100));

  EXPECT_TRUE(cache.lookup(key_a).has_value());
  EXPECT_FALSE(cache.lookup(key_b).has_value());
  EXPECT_TRUE(cache.lookup(key_c).has_value());
}

TEST(PlanCache, CrossShardMetrics) {
  obs::Metrics metrics;
  PlanCache cache(8, 2);
  cache.set_metrics(&metrics);

  auto platform = platform_for(0);
  auto key = make_plan_key(platform, 1000, Algorithm::Auto);
  int shard = cache.shard_for(key);

  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, plan_scatter(platform, 1000));
  EXPECT_TRUE(cache.lookup(key).has_value());

  auto hit_name = "plan_cache.shard" + std::to_string(shard) + ".hits";
  auto miss_name = "plan_cache.shard" + std::to_string(shard) + ".misses";
  EXPECT_EQ(metrics.counter(hit_name).value(), 1u);
  EXPECT_EQ(metrics.counter(miss_name).value(), 1u);
  EXPECT_EQ(metrics.counter("plan_cache.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("plan_cache.misses").value(), 1u);
}

TEST(PlanCache, WorksAsPlannerOptionsCache) {
  PlanCache cache(16, 4);
  auto platform = platform_for(7);

  PlannerOptions options;
  options.cache = &cache;
  auto first = plan_scatter(platform, 5000, options);
  auto second = plan_scatter(platform, 5000, options);
  EXPECT_EQ(first.distribution.counts, second.distribution.counts);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// 16 threads hammering a mix of hot keys (shared hits) and per-thread
// cold keys (inserts + evictions). Run under TSan via `ctest -L tsan`.
TEST(PlanCache, ConcurrentClientsAreRaceFree) {
  constexpr int kThreads = 16;
  constexpr int kIterations = 60;
  PlanCache cache(4, 8);  // small: forces concurrent eviction

  // Pre-plan everything serially so worker threads only exercise the
  // cache, not the planner.
  std::vector<std::pair<model::Platform, ScatterPlan>> hot;
  for (int seed = 0; seed < 4; ++seed) {
    auto platform = platform_for(seed);
    hot.push_back({platform, plan_scatter(platform, 1000)});
  }
  std::vector<std::vector<std::pair<model::Platform, ScatterPlan>>> cold(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 8; ++i) {
      auto platform = platform_for(100 + t * 8 + i);
      cold[static_cast<std::size_t>(t)].push_back(
          {platform, plan_scatter(platform, 1000)});
    }
  }

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& [hot_platform, hot_plan] = hot[static_cast<std::size_t>(i % 4)];
        const auto hot_key = make_plan_key(hot_platform, 1000, Algorithm::Auto);
        if (i == 0) cache.insert(hot_key, hot_plan);
        auto got = cache.lookup(hot_key);
        if (got && got->distribution.counts != hot_plan.distribution.counts) {
          wrong.fetch_add(1);
        }
        const auto& [cold_platform, cold_plan] =
            cold[static_cast<std::size_t>(t)][static_cast<std::size_t>(i % 8)];
        const auto cold_key = make_plan_key(cold_platform, 1000, Algorithm::Auto);
        cache.insert(cold_key, cold_plan);
        auto mine = cache.lookup(cold_key);
        if (mine && mine->distribution.counts != cold_plan.distribution.counts) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(cache.size(), cache.capacity());
  auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // capacity 32 vs 132 distinct keys
}

}  // namespace
}  // namespace lbs::core

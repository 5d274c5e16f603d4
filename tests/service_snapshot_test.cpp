// Persistence tests: snapshot codec round-trips bit-exactly, every kind
// of file damage is rejected with a typed error, and a warm-started
// server replays the previous run's cache — same bits, zero re-solves.
#include "service/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "model/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/error.hpp"

namespace lbs::service {
namespace {

std::string test_path(const char* stem) {
  static int counter = 0;
  return "/tmp/lbs_snapshot_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + "_" + stem;
}

model::Platform paper_platform() {
  auto grid = model::paper_testbed();
  return model::make_platform(grid, model::paper_root(grid));
}

// A platform whose worker slope varies with `seed`: distinct PlanKeys.
model::Platform seeded_platform(int seed) {
  model::Platform platform;
  model::Processor worker;
  worker.label = "worker";
  worker.comm = model::Cost::linear(0.5);
  worker.comp = model::Cost::tabulated(
      {{10, 1.0 + 0.01 * seed}, {100, 9.0 + 0.01 * seed}});
  platform.processors.push_back(worker);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(0.2);
  platform.processors.push_back(root);
  return platform;
}

SnapshotEntry solved_entry(const model::Platform& platform, long long items,
                           core::Algorithm algorithm = core::Algorithm::Auto) {
  core::PlannerOptions options;
  options.algorithm = algorithm;
  return {core::make_plan_key(platform, items, algorithm),
          core::plan_scatter(platform, items, options)};
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void expect_entries_bit_identical(const SnapshotEntry& a, const SnapshotEntry& b) {
  EXPECT_EQ(a.first.costs, b.first.costs);
  EXPECT_EQ(a.first.items, b.first.items);
  EXPECT_EQ(a.first.algorithm, b.first.algorithm);
  EXPECT_EQ(a.second.distribution.counts, b.second.distribution.counts);
  EXPECT_EQ(a.second.displacements, b.second.displacements);
  EXPECT_EQ(a.second.algorithm_used, b.second.algorithm_used);
  EXPECT_EQ(a.second.dp_cells_evaluated, b.second.dp_cells_evaluated);
  EXPECT_EQ(a.second.dp_threads, b.second.dp_threads);
  // Bit patterns, not EXPECT_DOUBLE_EQ: the contract is bit-exact replay.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.second.predicted_makespan),
            std::bit_cast<std::uint64_t>(b.second.predicted_makespan));
  ASSERT_EQ(a.second.predicted_finish.size(), b.second.predicted_finish.size());
  for (std::size_t i = 0; i < a.second.predicted_finish.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.second.predicted_finish[i]),
              std::bit_cast<std::uint64_t>(b.second.predicted_finish[i]));
  }
}

TEST(SnapshotCodec, RoundTripsBitExactly) {
  std::vector<SnapshotEntry> entries;
  entries.push_back(solved_entry(paper_platform(), 817101));
  entries.push_back(solved_entry(seeded_platform(1), 5000, core::Algorithm::ExactDp));
  entries.push_back(solved_entry(seeded_platform(2), 12345));

  std::string path = test_path("roundtrip.snap");
  SnapshotStats stats = write_snapshot(path, entries);
  EXPECT_EQ(stats.entries, entries.size());
  EXPECT_GT(stats.bytes, 24u);

  std::vector<SnapshotEntry> restored = read_snapshot(path);
  ASSERT_EQ(restored.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    expect_entries_bit_identical(entries[i], restored[i]);
  }
  ::unlink(path.c_str());
}

TEST(SnapshotCodec, EmptySnapshotRoundTrips) {
  std::string path = test_path("empty.snap");
  SnapshotStats stats = write_snapshot(path, {});
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_TRUE(read_snapshot(path).empty());
  ::unlink(path.c_str());
}

TEST(SnapshotCodec, MissingFileThrows) {
  EXPECT_THROW((void)read_snapshot(test_path("never_written.snap")), lbs::Error);
}

TEST(SnapshotCodec, RejectsForeignMagic) {
  std::string path = test_path("magic.snap");
  write_snapshot(path, {solved_entry(seeded_platform(3), 400)});
  auto bytes = slurp(path);
  bytes[0] ^= 0xFF;
  dump(path, bytes);
  EXPECT_THROW((void)read_snapshot(path), lbs::Error);
  ::unlink(path.c_str());
}

TEST(SnapshotCodec, RejectsStaleVersion) {
  std::string path = test_path("version.snap");
  write_snapshot(path, {solved_entry(seeded_platform(4), 400)});
  auto bytes = slurp(path);
  bytes[8] += 1;  // format_version lives right after the u64 magic
  dump(path, bytes);
  EXPECT_THROW((void)read_snapshot(path), lbs::Error);
  ::unlink(path.c_str());
}

TEST(SnapshotCodec, RejectsTruncation) {
  std::string path = test_path("truncated.snap");
  write_snapshot(path, {solved_entry(seeded_platform(5), 400)});
  auto bytes = slurp(path);
  for (std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{10},
                           std::size_t{0}}) {
    dump(path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    EXPECT_THROW((void)read_snapshot(path), lbs::Error) << "kept " << keep;
  }
  ::unlink(path.c_str());
}

TEST(SnapshotCodec, RejectsTrailingGarbage) {
  std::string path = test_path("trailing.snap");
  write_snapshot(path, {solved_entry(seeded_platform(6), 400)});
  auto bytes = slurp(path);
  bytes.push_back(0x5A);
  dump(path, bytes);
  EXPECT_THROW((void)read_snapshot(path), lbs::Error);
  ::unlink(path.c_str());
}

TEST(SnapshotCodec, RejectsEveryPayloadBitFlip) {
  std::string path = test_path("bitflip.snap");
  write_snapshot(path, {solved_entry(seeded_platform(7), 400)});
  const auto pristine = slurp(path);
  // Flip one byte at a spread of payload offsets: the CRC catches all of
  // them regardless of which field the byte lands in.
  for (std::size_t offset = 24; offset < pristine.size(); offset += 7) {
    auto bytes = pristine;
    bytes[offset] ^= 0x01;
    dump(path, bytes);
    EXPECT_THROW((void)read_snapshot(path), lbs::Error) << "offset " << offset;
  }
  ::unlink(path.c_str());
}

TEST(SnapshotCodec, AtomicallyReplacesExistingSnapshot) {
  std::string path = test_path("replace.snap");
  write_snapshot(path, {solved_entry(seeded_platform(8), 400)});
  std::vector<SnapshotEntry> second = {solved_entry(seeded_platform(9), 500),
                                       solved_entry(seeded_platform(10), 600)};
  write_snapshot(path, second);
  EXPECT_EQ(read_snapshot(path).size(), 2u);
  // No .tmp.<pid> stragglers once the rename landed.
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
  ::unlink(path.c_str());
}

TEST(ShardedCacheExport, RestorePreservesRecencyOrder) {
  core::PlanCache cache(/*capacity_per_shard=*/2, /*shards=*/1);
  SnapshotEntry a = solved_entry(seeded_platform(11), 700);
  SnapshotEntry b = solved_entry(seeded_platform(12), 800);
  cache.insert(a.first, a.second);
  cache.insert(b.first, b.second);
  (void)cache.lookup(a.first);  // a is now most recent, b least

  core::PlanCache replica(2, 1);
  replica.restore_entries(cache.export_entries());
  EXPECT_EQ(replica.size(), 2u);

  // A third insert must evict b (least recent), not a.
  SnapshotEntry c = solved_entry(seeded_platform(13), 900);
  replica.insert(c.first, c.second);
  EXPECT_TRUE(replica.lookup(a.first).has_value());
  EXPECT_FALSE(replica.lookup(b.first).has_value());
  EXPECT_TRUE(replica.lookup(c.first).has_value());
}

TEST(ServerWarmStart, ReplaysPreviousRunBitIdentically) {
  std::string socket_a = test_path("warm_a.sock");
  std::string socket_b = test_path("warm_b.sock");
  std::string snapshot = test_path("warm.snap");

  auto platform = paper_platform();
  std::vector<long long> sizes = {817101, 5000, 12345};
  std::vector<PlanResponse> first_run;

  {
    ServerOptions options;
    options.socket_path = socket_a;
    options.snapshot_path = snapshot;
    Server server(options);
    server.start();
    Client client(socket_a);
    for (long long items : sizes) {
      first_run.push_back(client.plan(platform, items));
      ASSERT_EQ(first_run.back().status, PlanStatus::Ok);
    }
    client.close();
    server.stop();  // writes the on-drain snapshot
  }
  ASSERT_EQ(::access(snapshot.c_str(), F_OK), 0);

  obs::Metrics metrics;
  ServerOptions options;
  options.socket_path = socket_b;
  options.warm_start_path = snapshot;
  options.metrics = &metrics;
  Server server(options);
  server.start();
  EXPECT_EQ(server.cache().size(), sizes.size());

  Client client(socket_b);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    PlanResponse replayed = client.plan(platform, sizes[i]);
    ASSERT_EQ(replayed.status, PlanStatus::Ok);
    EXPECT_TRUE(replayed.cache_hit) << "items=" << sizes[i];
    EXPECT_EQ(replayed.counts, first_run[i].counts);
    EXPECT_EQ(replayed.algorithm_used, first_run[i].algorithm_used);
    EXPECT_EQ(replayed.dp_cells_evaluated, first_run[i].dp_cells_evaluated);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(replayed.predicted_makespan),
              std::bit_cast<std::uint64_t>(first_run[i].predicted_makespan));
  }
  // Nothing was re-solved: the warm cache answered everything.
  EXPECT_EQ(server.counters().solved, 0u);
  EXPECT_EQ(server.counters().cache_hits, sizes.size());
  EXPECT_EQ(metrics.counter("service.snapshot.restores").value(), 1u);
  EXPECT_EQ(metrics.counter("service.snapshot.restored_entries").value(),
            sizes.size());
  client.close();
  server.stop();
  ::unlink(snapshot.c_str());
}

TEST(ServerWarmStart, CorruptSnapshotColdStartsWithoutCrashing) {
  std::string snapshot = test_path("corrupt.snap");
  write_snapshot(snapshot, {solved_entry(seeded_platform(14), 1000)});
  auto bytes = slurp(snapshot);
  bytes[bytes.size() / 2] ^= 0x40;
  dump(snapshot, bytes);

  obs::Metrics metrics;
  ServerOptions options;
  options.socket_path = test_path("corrupt.sock");
  options.warm_start_path = snapshot;
  options.metrics = &metrics;
  Server server(options);
  server.start();  // must not throw

  EXPECT_EQ(server.cache().size(), 0u);  // nothing poisoned the cache
  EXPECT_EQ(metrics.counter("service.snapshot.rejected").value(), 1u);
  EXPECT_EQ(metrics.counter("service.snapshot.restores").value(), 0u);

  // And the cold server still serves correct plans.
  Client client(options.socket_path);
  auto platform = paper_platform();
  PlanResponse response = client.plan(platform, 4321);
  ASSERT_EQ(response.status, PlanStatus::Ok);
  auto direct = core::plan_scatter(platform, 4321);
  EXPECT_EQ(response.counts, direct.distribution.counts);
  client.close();
  server.stop();
  ::unlink(snapshot.c_str());
}

TEST(ServerWarmStart, MissingSnapshotColdStarts) {
  obs::Metrics metrics;
  ServerOptions options;
  options.socket_path = test_path("missing.sock");
  options.warm_start_path = test_path("not_there.snap");
  options.metrics = &metrics;
  Server server(options);
  server.start();
  EXPECT_EQ(metrics.counter("service.snapshot.rejected").value(), 1u);
  server.stop();
}

TEST(ServerSnapshot, PeriodicWriterPersistsWhileServing) {
  obs::Metrics metrics;
  obs::Tracer tracer;
  ServerOptions options;
  options.socket_path = test_path("periodic.sock");
  options.snapshot_path = test_path("periodic.snap");
  options.snapshot_interval_ms = 20;
  options.metrics = &metrics;
  options.tracer = &tracer;
  Server server(options);
  server.start();

  Client client(options.socket_path);
  ASSERT_EQ(client.plan(seeded_platform(15), 2000).status, PlanStatus::Ok);

  // Within a few intervals the periodic writer must have landed a
  // readable snapshot containing the solved plan.
  bool persisted = false;
  for (int i = 0; i < 200 && !persisted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    try {
      persisted = read_snapshot(options.snapshot_path).size() == 1;
    } catch (const lbs::Error&) {
      // not written yet
    }
  }
  EXPECT_TRUE(persisted);
  client.close();
  server.stop();

  EXPECT_GE(metrics.counter("service.snapshot.writes").value(), 2u);  // ticks + drain
  obs::TraceLog log = tracer.collect();
  EXPECT_FALSE(log.of_type(obs::EventType::ServiceSnapshot).empty());
  ::unlink(options.snapshot_path.c_str());
}

// Satellite: server shutdown with in-flight requests must drain — every
// accepted solve is answered over its still-open connection, no reply is
// lost to an eagerly closed fd.
TEST(ServerShutdown, DrainsInFlightSolvesBeforeClosingConnections) {
  constexpr int kInFlight = 4;
  ServerOptions options;
  options.socket_path = test_path("drain.sock");
  options.solve_delay_ms = 200;  // keep the batch in flight during stop()
  Server server(options);
  server.start();

  Client client(options.socket_path);
  std::vector<std::future<PlanResponse>> futures;
  std::vector<model::Platform> platforms;
  for (int i = 0; i < kInFlight; ++i) {
    platforms.push_back(seeded_platform(20 + i));
    futures.push_back(client.plan_async(platforms.back(), 3000 + i));
  }
  // Wait until every request is accepted (queued or solving), then pull
  // the rug: stop() must answer all of them, not strand them.
  for (int i = 0; i < 500 && server.counters().requests < kInFlight; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.counters().requests, static_cast<std::uint64_t>(kInFlight));

  std::thread stopper([&] { server.stop(); });
  for (int i = 0; i < kInFlight; ++i) {
    PlanResponse response = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(response.status, PlanStatus::Ok) << response.message;
    auto direct = core::plan_scatter(platforms[static_cast<std::size_t>(i)],
                                     3000 + i);
    EXPECT_EQ(response.counts, direct.distribution.counts);
  }
  stopper.join();
  client.close();
}

}  // namespace
}  // namespace lbs::service

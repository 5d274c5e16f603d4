// lbsd — the asynchronous batched planning service.
//
// The paper's central move is that a load-balanced scatter's distribution
// n_1..n_p is computed *statically* from the cost model, which makes
// planning a cacheable, batchable function of (platform costs, n,
// algorithm) — exactly the shape of a service. Server turns the planner
// engine into one long-running daemon that many clients share:
//
//   connection threads ──┐                        ┌── DP worker pool
//     decode request     │   bounded solve queue  │   (support::ThreadPool)
//     probe shard cache ─┼──► PendingSolve ───────┼─► plan_scatter
//     coalesce in-flight │   (backpressure)       │   fill cache, fan out
//                        └────────────────────────┘   replies to waiters
//
// The request path, in order:
//   1. admission — implausible requests (too many processors, too many
//      items) get an immediate Error; nothing hostile reaches the DP.
//   2. cache probe — core::PlanCache with N lock-striped LRU shards,
//      keyed by the same PlanKey the planner uses. A hit answers without
//      touching the queue.
//   3. coalescing — an in-flight map keyed by PlanKey. If an identical
//      solve is already queued or running, the request attaches as a
//      waiter: k concurrent identical requests cost exactly one dp.solve.
//   4. backpressure — new unique solves enter a bounded queue
//      (support::BoundedQueue). When it is full the request is Rejected
//      with a retry_after_ms hint instead of growing the queue without
//      bound.
//   5. batching — one dispatcher claims up to max_batch pending solves at
//      a time and fans them across the DP worker pool; independent plans
//      compute in parallel, each filling the cache and answering every
//      waiter attached to its key.
//
// Observability (docs/observability.md): service.request spans (receipt
// to reply, outcome in arg1/arg2), service.queue spans (time a solve
// waited), service.batch spans (size in arg0), plus service.* counters
// and latency/queue-depth histograms in obs::Metrics — the server's only
// counters, with handles resolved once at construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/plan_cache.hpp"
#include "service/membership.hpp"
#include "service/protocol.hpp"
#include "service/snapshot.hpp"
#include "service/socket.hpp"
#include "support/bounded_queue.hpp"
#include "support/thread_pool.hpp"

namespace lbs::obs {
class Counter;
class Histogram;
class Metrics;
class Tracer;
}

namespace lbs::service {

struct ServerOptions {
  // Filesystem path of the Unix-domain listening socket. Legacy/simple
  // form — ignored when `endpoint` is set. One of the two is required.
  std::string socket_path;

  // Where to listen: a unix path or a TCP host:port (Endpoint::tcp with
  // port 0 lets the kernel pick; Server::endpoint() reports the bound
  // port after start()). Takes precedence over socket_path.
  Endpoint endpoint;

  // Plan cache geometry (core::PlanCache lock stripes and per-stripe LRU
  // capacity).
  int cache_shards = 8;
  std::size_t cache_capacity_per_shard = 128;

  // DP worker pool: how many solves can run concurrently. 0 means
  // support::default_parallelism() (LBS_PLANNER_THREADS / hardware).
  int dp_workers = 0;
  // Threads *inside* each DP solve. The default 1 keeps individual solves
  // serial and spends all parallelism across independent requests — the
  // right trade for throughput; raise it only for latency-critical huge
  // single plans.
  int dp_threads_per_solve = 1;

  // Backpressure: at most this many unique solves queued (in-flight
  // waiters attach for free). When full, requests are Rejected with
  // `retry_after_ms` as the client's retry hint.
  std::size_t max_queue = 256;
  std::uint32_t retry_after_ms = 50;

  // Batching: solves the dispatcher claims per queue pass.
  int max_batch = 16;

  // Admission control: requests beyond these bounds are answered with an
  // Error response before any planning work happens.
  int max_processors = 4096;
  long long max_items = 1LL << 40;

  // Fault-injection knob (tests, chaos drills): sleep this long inside
  // each solve before planning, widening the coalescing window
  // deterministically. 0 in production.
  int solve_delay_ms = 0;

  // Persistence (service/snapshot.hpp). warm_start_path: read this
  // snapshot at start() and replay it into the cache; a missing or
  // corrupt file is logged + counted (service.snapshot.rejected) and the
  // server cold-starts — never crashes. snapshot_path: where the periodic
  // writer and the final on-drain snapshot atomically persist the cache;
  // empty disables persistence. snapshot_interval_ms = 0 keeps only the
  // on-drain snapshot (no periodic thread).
  std::string warm_start_path;
  std::string snapshot_path;
  std::uint32_t snapshot_interval_ms = 0;

  // Upper bound on one reply write. A stalled or dead client can sink a
  // reply slowly, but it cannot wedge the dispatcher: past this deadline
  // the reply is abandoned and the connection is dropped.
  std::uint32_t reply_timeout_ms = 5000;

  // Elastic membership (service/membership.hpp). membership_path: a view
  // file read at start() and, when membership_poll_ms > 0, watched by
  // mtime so an operator edit propagates without a restart — the same
  // convergence path as a MembershipUpdate frame. handoff_timeout_ms
  // bounds each snapshot-range pull from a peer during a reshard; a slow
  // or dead donor costs one timeout and a counted failure, never a hang.
  std::string membership_path;
  std::uint32_t membership_poll_ms = 200;
  std::uint32_t handoff_timeout_ms = 5000;

  // Observability. Null tracer falls back to obs::global_tracer() (and
  // tracing is off when that is null too); null metrics gives the server
  // a private registry, so in-process replicas never mix their counts.
  // Server::counters() and stats_json() read whichever registry is used.
  obs::Tracer* tracer = nullptr;
  obs::Metrics* metrics = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and spawns the accept loop + dispatcher. Throws
  // lbs::Error when the socket cannot be bound.
  void start();

  // Stops accepting, drains the queue (every accepted solve is answered),
  // joins all threads, and removes the socket file. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return started_ && !stop_.load(); }

  // Cooperative shutdown signal (what a Shutdown message triggers): wakes
  // wait_until_stop_requested so the owner — lbsd's main — can call
  // stop() from outside the connection threads.
  void request_stop();
  [[nodiscard]] bool stop_requested() const;
  // Returns true when stop was requested within `timeout_ms` (poll this
  // from a main loop that also watches process signals).
  bool wait_until_stop_requested_for(int timeout_ms);

  [[nodiscard]] const ServerOptions& options() const { return options_; }
  // The resolved listening address. For a TCP endpoint requested with
  // port 0 this carries the kernel-assigned port once start() returns —
  // the address fleet peers must dial.
  [[nodiscard]] const Endpoint& endpoint() const { return options_.endpoint; }
  [[nodiscard]] core::PlanCache& cache() { return cache_; }

  // Monotonic totals read from the server's service.* counters;
  // `requests` counts plan requests only, `errors` sums service.errors and
  // service.protocol_errors. Per server unless ServerOptions::metrics is
  // shared.
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t solved = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::uint64_t connections = 0;
    std::uint64_t membership_updates = 0;  // views adopted (epoch advanced)
    std::uint64_t wrong_epoch = 0;         // plan requests redirected
    std::uint64_t handoff_entries = 0;     // warm-start entries pulled in
  };
  [[nodiscard]] Counters counters() const;

  // The membership view this replica currently routes by (epoch 0 until
  // one is installed). adopt_view applies the single convergence rule —
  // newer epoch wins — and returns whether it won. When it did and
  // `allow_pull` is set, the replica first pulls the snapshot entries it
  // now owns from the right donors (every serving peer when this replica
  // just became route-eligible; each newly-draining member otherwise),
  // warm-starting its partition BEFORE the view is published, so a
  // request routed under the new ring finds the cache already hot.
  [[nodiscard]] MembershipView membership_view() const;
  bool adopt_view(const MembershipView& update, bool allow_pull);

  // The StatsResponse body: {"service": ..., "cache": ..., "metrics": ...}.
  [[nodiscard]] std::string stats_json() const;

  // Exports the cache and atomically writes it to options().snapshot_path
  // (requires a non-empty path). Safe while serving: export holds each
  // shard lock briefly, the file write happens outside every lock. Throws
  // lbs::Error on I/O failure — the periodic writer catches and counts.
  SnapshotStats snapshot_now();

 private:
  struct Connection {
    int fd = -1;
    std::uint32_t send_timeout_ms = 0;  // 0: no deadline
    std::mutex write_mu;  // one frame writer at a time; also guards close

    bool send(const std::vector<std::uint8_t>& payload);
    void close();
  };
  struct Waiter {
    std::shared_ptr<Connection> connection;
    std::uint64_t request_id = 0;
    bool coalesced = false;
    double received_at = 0.0;  // obs::wall_now() at intake
  };
  struct PendingSolve {
    core::PlanKey key;
    model::Platform platform;
    long long items = 0;
    core::Algorithm algorithm = core::Algorithm::Auto;
    double enqueued_at = 0.0;
    std::size_t depth_at_enqueue = 0;
    std::vector<Waiter> waiters;  // guarded by Server::inflight_mu_
  };
  using PendingPtr = std::shared_ptr<PendingSolve>;

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> connection);
  void dispatch_loop();
  void snapshot_loop();
  void membership_watch_loop();
  std::size_t pull_partition(const MembershipView& view, const Endpoint& donor);
  [[nodiscard]] std::vector<SnapshotEntry> entries_owned_by(
      const MembershipView& view, const std::string& owner) const;
  void warm_start();
  void record_snapshot_span(double start, const SnapshotStats& stats,
                            bool restore) const;
  void handle_message(const std::shared_ptr<Connection>& connection,
                      Message&& message);
  void handle_plan(const std::shared_ptr<Connection>& connection,
                   PlanRequest&& request);
  void solve_one(PendingSolve& pending);
  void respond_plan(const Waiter& waiter, PlanResponse response);
  [[nodiscard]] obs::Tracer* tracer() const;

  ServerOptions options_;
  core::PlanCache cache_;
  std::unique_ptr<obs::Metrics> own_metrics_;  // set when options_.metrics is null
  obs::Metrics* metrics_;
  // Hot-path handles into *metrics_, resolved once in the constructor.
  obs::Counter& requests_;
  obs::Counter& cache_hits_;
  obs::Counter& coalesced_;
  obs::Counter& solved_;
  obs::Counter& rejected_;
  obs::Counter& errors_;
  obs::Counter& protocol_errors_;
  obs::Counter& connections_;
  obs::Counter& membership_updates_;
  obs::Counter& wrong_epoch_;
  obs::Counter& handoff_entries_;
  obs::Counter& batches_;
  obs::Histogram& request_seconds_;
  obs::Histogram& queue_depth_;
  obs::Histogram& queue_seconds_;
  obs::Histogram& batch_size_;
  support::ThreadPool pool_;
  support::BoundedQueue<PendingPtr> queue_;

  std::mutex inflight_mu_;
  std::unordered_map<core::PlanKey, PendingPtr, core::PlanKeyHash> inflight_;

  // Current view behind a shared_ptr so the per-request read is a lock +
  // pointer copy, not a member-vector copy. adopt_mu_ serializes
  // adoption (including the pre-publish handoff pulls); view_mu_ only
  // guards the pointer swap/read.
  mutable std::mutex view_mu_;
  std::shared_ptr<const MembershipView> view_ =
      std::make_shared<const MembershipView>();
  std::mutex adopt_mu_;

  int listen_fd_ = -1;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::thread snapshot_thread_;
  std::thread membership_thread_;
  std::mutex connections_mu_;
  std::vector<std::thread> connection_threads_;
  // Every accepted connection, kept open through the drain so replies to
  // in-flight solves still have a live fd; stop() closes them after the
  // dispatcher finishes. Guarded by connections_mu_.
  std::vector<std::shared_ptr<Connection>> open_connections_;
  std::mutex snapshot_write_mu_;  // one snapshot writer at a time

  mutable std::mutex stop_request_mu_;
  std::condition_variable stop_request_cv_;
  bool stop_requested_ = false;

  std::mutex snapshot_wake_mu_;
  std::condition_variable snapshot_wake_cv_;
  bool snapshot_stop_ = false;  // guarded by snapshot_wake_mu_

  std::mutex membership_wake_mu_;
  std::condition_variable membership_wake_cv_;
  bool membership_stop_ = false;  // guarded by membership_wake_mu_
};

}  // namespace lbs::service

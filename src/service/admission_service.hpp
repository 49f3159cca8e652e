// Concurrent admission service: a long-running front end to the
// core::ResourceManager for the "heavy traffic" regime — many clients
// submitting applications at once, each wanting an answer (admitted where /
// rejected why) without serialising every mapping search behind one lock.
//
// The pipeline is optimistic concurrency over the manager's stage/commit
// split (resource_manager.hpp):
//
//   submit(app) ──► request queue ──► worker pool
//                                       │  pop up to max_batch requests
//                                       │  scratch = snapshot_platform()
//                                       │  for each request:
//                                       │    staged = stage(app, scratch)
//                                       │    commit_staged(staged)  ── conflict?
//                                       │        │ ok                  │
//                                       ▼        ▼                     ▼
//                                   promise   promise        re-queue (fresh
//                                  (reject)  (admitted)      snapshot next
//                                                            time), after
//                                                            max_retries fall
//                                                            back to the
//                                                            exclusive admit()
//
// Batching is what lets mappers co-place: every request of a batch is staged
// against the *same* scratch platform, so the second application's mapping
// search sees the first one's placements (and the snapshot copy is amortised
// over the batch). A commit conflict — the live platform moved between
// snapshot and commit — costs only the staging work of that one request.
//
// The expensive phase work (the mapping search dominates, Fig. 7) runs with
// no lock held; only the cheap re-validation in commit_staged() takes the
// write lock. The design intent is throughput that scales with cores until
// commits saturate; on a 4-core host, measured closed-loop, more workers
// lowered throughput instead (ROADMAP, "Make the concurrent service earn
// its complexity").
//
// Sharded commits (PR 9): the manager classifies every staged admission by
// the shards its reservations touch, and commit_staged() takes only those
// shard locks — so commits with disjoint footprints no longer serialize.
// The service rides that: a conflicted request is requeued onto the queue
// of its *primary* shard (the lowest in its footprint) instead of the main
// queue, so retries against the same contended region batch together,
// re-stage against one fresh snapshot, and settle behind that shard's lock
// in one pass. Workers drain shard requeues before fresh submissions
// (round-robin across shards so none starves).
//
// Observability (obs::Registry::global()):
//   counter  service.admissions        applications admitted through the service
//   counter  service.rejections        applications rejected (any phase)
//   counter  service.commit_conflicts  optimistic commits that lost the race
//   counter  service.commit_conflicts.shard.<k>  same, by primary shard
//   counter  service.commits.shard.<k>   successful commits, by primary shard
//   counter  service.shard_commits       commits whose footprint was one shard
//   counter  service.cross_shard_commits commits spanning several shards
//   counter  service.fallbacks         requests settled by the exclusive path
//   counter  service.batches           batches popped by workers
//   gauge    service.queue_depth       requests waiting (not yet in a batch)
//   gauge    service.queue_depth.shard.<k>  conflicted retries parked, by shard
//   histogram service.latency_ms       submit() -> settled, per request
//
// Per-shard families are capped at kMaxShardMetricLabels exact labels; a
// platform sharded wider aggregates the tail into the single ".shard.other"
// label (see "Label policy" in obs/metrics.hpp) so metric cardinality stays
// bounded however the platform is partitioned.
//
// Request ids: submit() mints a process-unique id (monotone from 1), carried
// on the Request and stamped into the settled AdmissionReport. Workers open
// an obs::RequestScope around each request so every span and log event
// emitted while staging/committing/requeueing it is tagged with the id; the
// serve-mode line protocol echoes it back in replies. Discrete outcomes
// (reject, conflict, fallback) also land in obs::EventLog::global().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/resource_manager.hpp"
#include "graph/application.hpp"
#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace kairos::service {

struct ServiceConfig {
  /// Worker threads staging admissions concurrently. 1 degenerates to a
  /// serial (but still asynchronous) service.
  int threads = 4;
  /// Requests staged together against one platform snapshot. Larger batches
  /// amortise the snapshot copy and let the mapper co-place queued
  /// applications, at the cost of staler snapshots (more conflicts under
  /// heavy churn).
  int max_batch = 4;
  /// Optimistic re-stages after a commit conflict before the request falls
  /// back to the manager's exclusive admit() (which cannot conflict).
  int max_retries = 2;
};

/// One successful commit, in registration order (handles are assigned
/// monotonically, so sorting by handle reproduces commit order). The
/// concurrency property test replays these onto a fresh platform and
/// demands the exact live allocation state back.
struct CommitRecord {
  core::AppHandle handle = -1;
  std::vector<std::pair<platform::ElementId, platform::ResourceVector>>
      task_allocations;
  std::vector<std::pair<noc::Route, std::int64_t>> routes;
};

class AdmissionService {
 public:
  explicit AdmissionService(core::ResourceManager& manager,
                            ServiceConfig config = {});
  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;
  ~AdmissionService();

  /// Enqueues an admission request; the future settles with the full report
  /// (admitted with handle, or rejected with phase + reason) once a worker
  /// has processed it. Never blocks on the admission itself. After stop(),
  /// settles immediately with a rejection.
  ///
  /// `request_id_out`, when non-null, receives the id minted for this
  /// request immediately (callers echo it before the future settles — the
  /// serve protocol acknowledges "queued req=<id>" at submit time).
  std::future<core::AdmissionReport> submit(
      graph::Application app, std::uint64_t* request_id_out = nullptr);

  /// Synchronous removal, forwarded to the manager (removal holds the write
  /// lock only briefly — there is nothing to overlap).
  util::VoidResult remove(core::AppHandle handle);

  /// Blocks until every submitted request has settled (queue empty, no
  /// request inside a worker). The service keeps running — this is the
  /// quiesce point benches and tests use between phases.
  void drain();

  /// Drains, then joins the workers. Idempotent; the destructor calls it.
  void stop();

  /// Copy of the commit log (every successful admission through the
  /// service, including fallbacks). Sort by handle for registration order.
  std::vector<CommitRecord> commit_log() const;

  /// Requests submitted but not yet settled.
  std::size_t pending() const;

  const ServiceConfig& config() const { return config_; }

  /// Exact per-shard metric labels before the tail collapses into
  /// ".shard.other" — the registry-cardinality cap (obs/metrics.hpp).
  static constexpr std::size_t kMaxShardMetricLabels = 8;

 private:
  struct Request {
    graph::Application app;
    std::promise<core::AdmissionReport> promise;
    std::uint64_t id = 0;  ///< minted by submit(), echoed in the report
    int attempt = 0;
    /// Primary shard of the last conflicted staging (-1 until a conflict):
    /// which shard requeue the request lands on.
    int shard = -1;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  /// Settles one request: stamps the request id into the report, fulfils
  /// the promise, records latency + outcome metrics, decrements the pending
  /// count.
  void settle(Request&& request, core::AdmissionReport report);
  void requeue(Request&& request);
  void log_commit(CommitRecord record);
  /// Index into the capped per-shard metric vectors for a shard number.
  std::size_t shard_label_index(int shard) const;
  /// Recomputes the queue-depth gauge for the label covering `shard`
  /// (callers hold mutex_; the ".other" label sums its whole tail).
  void update_shard_depth_locked(int shard);

  core::ResourceManager& manager_;
  ServiceConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: work available or stopping
  std::condition_variable idle_cv_;  ///< drain(): pending count hit zero
  std::deque<Request> queue_;  ///< fresh submissions
  /// Conflicted requests, per primary shard: retries against the same
  /// contended region batch together instead of interleaving with fresh
  /// traffic. Drained before queue_, round-robin from next_shard_.
  std::vector<std::deque<Request>> shard_queues_;
  std::size_t shard_queued_ = 0;  ///< total across shard_queues_
  std::size_t next_shard_ = 0;    ///< round-robin scan start
  std::size_t unsettled_ = 0;     ///< queued + inside a worker
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  mutable std::mutex log_mutex_;
  std::vector<CommitRecord> commit_log_;

  obs::Counter admissions_;
  obs::Counter rejections_;
  obs::Counter conflicts_;
  obs::Counter fallbacks_;
  obs::Counter batches_;
  obs::Counter shard_commits_;
  obs::Counter cross_shard_commits_;
  /// Per-shard families, indexed by shard_label_index(): one cell per exact
  /// label plus (when the platform has more shards) a trailing ".other".
  std::vector<obs::Counter> shard_conflicts_;
  std::vector<obs::Counter> shard_commit_by_shard_;
  std::vector<obs::Gauge> shard_depth_gauges_;
  obs::Gauge queue_depth_;
  obs::Histogram latency_ms_;

  std::atomic<std::uint64_t> next_request_id_{0};
};

}  // namespace kairos::service

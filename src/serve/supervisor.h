// WorkerSupervisor: a crash-proof pool of forked query workers.
//
// The supervisor owns every worker subprocess the daemon runs queries in:
// it forks them (serve/worker.h), leases them to Execute() calls, detects
// death three ways (EOF mid-query, reaper waitpid while idle, undecodable
// reply), SIGKILLs workers that blow their per-query watchdog, respawns
// with exponential backoff, retries a crashed query once on a fresh
// worker, and trips a per-model-version circuit breaker when one model
// keeps killing workers.
//
// Failure semantics, per query:
//   worker crash   -> retried once on a fresh worker; a second crash
//                     answers kUnavailable (the client's retry loop takes
//                     it from there)
//   worker hang    -> SIGKILL at deadline + grace (or the default
//                     watchdog for deadline-less queries); the query
//                     answers kDeadlineExceeded; other queries on other
//                     workers are never blocked
//   garbage reply  -> the worker is killed and replaced; the query is
//                     retried like a crash (junk is never surfaced)
//
// Circuit breaker: every worker failure is charged to the model digest
// the worker was serving. More than `breaker_threshold` failures within
// `breaker_window_seconds` quarantines that digest for the life of the
// process and fires the trip callback once (the service uses it to roll
// back to the last good snapshot); reloads of a quarantined digest are
// refused at the service layer. A trip with nothing to roll back to is
// advisory — the pool keeps respawning (backoff caps the churn) because a
// crashing model beats no model.
//
// Threading: Execute() may be called from many scheduler threads; each
// call leases one worker (lowest idle index — deterministic for tests)
// and owns that worker's channel until the query resolves. Only the
// reaper thread calls waitpid (per-pid WNOHANG; never -1, so unrelated
// children of the embedding process are left alone).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/wire.h"
#include "serve/worker.h"
#include "util/hash.h"
#include "util/socket.h"
#include "util/status.h"

namespace m3::serve {

struct SupervisorOptions {
  // Respawn backoff: delay after the k-th consecutive failure of one slot
  // is min(backoff_max_ms, backoff_initial_ms * 2^(k-1)), then scaled by a
  // jitter factor in [0.5, 1.5) drawn deterministically from (a pid-derived
  // seed, slot index, failure count). Without the jitter a fleet-wide crash
  // puts every slot — and every daemon in a sharded fleet, since the
  // schedule was identical everywhere — on the same respawn tick,
  // thundering-herd style, against the model registry; the pid seed lets
  // daemons decorrelate on their own.
  int backoff_initial_ms = 25;
  int backoff_max_ms = 2000;
  // Watchdog: a query with a deadline may run to deadline + grace before
  // its worker is SIGKILLed; a deadline-less query gets the default budget.
  double grace_seconds = 2.0;
  double default_watchdog_seconds = 120.0;
  // How long Execute() waits for a leasable worker before kUnavailable.
  double lease_timeout_seconds = 10.0;
  // Circuit breaker (see file comment).
  double breaker_window_seconds = 30.0;
  int breaker_threshold = 5;
  // M3_FAULTS-syntax spec armed inside every spawned worker (tests drive
  // the chaos sites with this; production leaves it empty).
  std::string worker_faults;
};

/// A stats() snapshot; field meanings match ServerStatsWire's worker block.
struct WorkerPoolStats {
  std::uint32_t configured = 0;
  std::uint32_t alive = 0;
  std::uint64_t spawns = 0;
  std::uint64_t restarts = 0;
  std::uint64_t crashes = 0;
  std::uint64_t watchdog_kills = 0;
  std::uint64_t garbage_replies = 0;
  std::uint64_t crash_retried_queries = 0;
  std::uint64_t breaker_trips = 0;
  bool breaker_open = false;  // current provider snapshot is quarantined
  std::uint32_t quarantined_digests = 0;
};

class WorkerSupervisor {
 public:
  /// Returns the snapshot new workers should pin (nullptr = no model yet;
  /// spawning is deferred until one exists).
  using SnapshotProvider = std::function<std::shared_ptr<const ModelSnapshot>()>;
  /// Invoked (once per digest, off every supervisor lock) when the breaker
  /// trips on `digest`.
  using TripCallback = std::function<void(const Hash128& digest)>;

  /// A pool of `num_workers` (>= 1) workers, each running `worker`'s
  /// per-query thread width and path-cache size.
  WorkerSupervisor(const SupervisorOptions& opts, int num_workers, const WorkerOptions& worker,
                   SnapshotProvider provider);
  ~WorkerSupervisor();  // Stop()s if running

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  void set_trip_callback(TripCallback cb) { on_trip_ = std::move(cb); }

  /// Forks the initial pool and starts the reaper. kInvalidArgument if
  /// already running.
  Status Start();

  /// Kills and reaps every worker (EOF first, SIGKILL for stragglers),
  /// then joins the reaper. No zombies survive. Idempotent.
  void Stop();

  /// Runs one query on a leased worker, with the crash/hang/garbage
  /// semantics described in the file comment. Thread-safe.
  QueryResponse Execute(const QueryRequest& req);

  /// Rolls the pool onto the provider's current snapshot: idle workers are
  /// replaced immediately, busy ones right after their in-flight query.
  /// Used after a model reload (and by the breaker rollback).
  void RestartWorkers();

  /// True once `digest` has tripped the breaker (permanent per process).
  bool IsQuarantined(const Hash128& digest) const;

  WorkerPoolStats stats() const;

  /// Live worker pids (test/ops hook: chaos harnesses kill these).
  std::vector<pid_t> worker_pids() const;

  /// Exposed for tests: the deterministic backoff schedule.
  static int BackoffDelayMs(int consecutive_failures, int initial_ms, int max_ms);

  /// Exposed for tests: `delay_ms` scaled by the [0.5, 1.5) jitter factor
  /// for (seed, slot, failure). Pure function of its arguments.
  static int JitteredBackoffMs(int delay_ms, std::uint64_t seed, std::uint64_t slot,
                               std::uint64_t failure);

 private:
  // Slot lifecycle: kEmpty -> (spawn) -> kIdle <-> kBusy
  //   kIdle/kBusy -> kReaping (death noticed / intentional kill; pid still
  //   needs waitpid) -> kWaitRespawn -> (backoff elapses, spawn) -> kIdle.
  enum class SlotState { kEmpty, kIdle, kBusy, kReaping, kWaitRespawn };

  struct Slot {
    UnixFd fd;  // parent end of the socketpair
    pid_t pid = -1;
    SlotState state = SlotState::kEmpty;
    std::uint64_t generation = 0;      // pool generation the worker was forked in
    std::uint64_t snap_version = 0;    // snapshot the worker pinned
    Hash128 snap_digest;
    int consecutive_failures = 0;      // drives the backoff schedule
    bool kill_intentional = false;     // restart/stale kill: not a crash
    std::chrono::steady_clock::time_point respawn_at;
  };

  void ReaperLoop();
  /// Forks a worker into `slot` (mu_ held). False if no snapshot yet.
  bool SpawnLocked(Slot& slot);
  /// Marks a busy worker dead after Execute noticed (mu_ held): SIGKILL
  /// (idempotent for already-dead pids), state -> kReaping.
  void FailBusyWorkerLocked(Slot& slot, bool intentional);
  /// Charges one failure to `digest` and trips the breaker at threshold.
  /// Returns the digest to report via the trip callback, if it tripped.
  std::optional<Hash128> RecordFailureLocked(const Hash128& digest);
  /// Leases the lowest idle current-generation worker. -1 on timeout/stop.
  int LeaseWorker();

  const SupervisorOptions opts_;
  const int num_workers_;
  const WorkerOptions worker_opts_;
  const SnapshotProvider provider_;
  TripCallback on_trip_;
  const std::uint64_t jitter_seed_;

  mutable std::mutex mu_;
  std::condition_variable lease_cv_;  // signaled when a worker turns idle
  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  bool running_ = false;
  bool stopping_ = false;
  std::thread reaper_;

  // Breaker state (under mu_): recent failures and quarantined digests.
  std::deque<std::pair<std::chrono::steady_clock::time_point, Hash128>> failures_;
  std::set<Hash128> quarantined_;

  // Counters (under mu_).
  std::uint64_t spawns_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t watchdog_kills_ = 0;
  std::uint64_t garbage_replies_ = 0;
  std::uint64_t crash_retried_queries_ = 0;
  std::uint64_t breaker_trips_ = 0;
};

}  // namespace m3::serve

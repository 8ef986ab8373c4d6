// Per-controller replay engine.
//
// One ControllerEngine owns everything a single controller domain
// needs to replay its slice of the workload: the domain's arrival
// stream (global session indices into the shared trace), a departure
// queue, the pending association batch, a policy instance, an
// association-load tracker, and the AP chosen for each of its sessions.
// Controllers are fully independent domains (§V-A): candidate sets
// never cross buildings under the default radio model, so engines share
// no mutable state and can run on different threads without
// synchronization. After the walk a driver copies each engine's
// placements into the workload-wide assignment with publish().
//
// The engine steps one way: next_step() names the event it would
// process and apply_step() processes it. run() loops over the two for
// a sharded domain; the sequential driver interleaves several engines
// by their next_step(); the replication layer logs every step.
#pragma once

#include <limits>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "s3/fault/degradation.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/replica_snapshot.h"
#include "s3/fault/retry_queue.h"
#include "s3/sim/replay.h"
#include "s3/sim/selector.h"
#include "s3/trace/trace.h"
#include "s3/wlan/network.h"

namespace s3::runtime {

class ControllerEngine {
 public:
  /// Sentinel "no more events of this kind" timestamp.
  static constexpr util::SimTime kNever =
      util::SimTime(std::numeric_limits<std::int64_t>::max());

  /// `sessions` are global indices into `workload.sessions()`, in
  /// ascending (trace, connect-time) order, all belonging to controller
  /// `domain`. The engine keeps references to `net`, `workload`,
  /// `policy` and (when given) `injector`; all must outlive it.
  ///
  /// With a non-null `injector` the engine additionally realizes the
  /// fault schedule for its domain: AP outages evict stations into a
  /// capped-exponential-backoff retry queue, AP recoveries trigger a
  /// bounded rebalance sweep, model outages drive the HEALTHY →
  /// DEGRADED → RECOVERING state machine (fallback batches are served
  /// by the policy's embedded LLF), and admission faults reject
  /// individual placements. Everything is derived from (plan, seed,
  /// domain), so results stay thread-count invariant.
  ControllerEngine(const wlan::Network& net, const trace::Trace& workload,
                   ControllerId domain, std::vector<std::size_t> sessions,
                   sim::ApSelector& policy, const sim::ReplayConfig& config,
                   const fault::FaultInjector* injector = nullptr,
                   const fault::RecoveryPolicy& recovery = {});

  /// Rebind copy — the replication layer's checkpoint/install
  /// primitive. Member-wise copy of `other`'s entire mutable state
  /// (placements, tracker float sums, queue contents, unordered-container
  /// history and all) with the policy reference rewired to `policy`,
  /// which must be a clone() of `other`'s policy. The copy's future
  /// steps are bit-identical to the original's.
  ControllerEngine(const ControllerEngine& other, sim::ApSelector& policy);

  /// Processes every event of this domain, then finalizes stats.
  void run();

  /// One event-loop step kind, in the engine's priority order at equal
  /// timestamps.
  enum class StepKind : std::uint8_t {
    kNone = 0,  ///< nothing left to process
    kFault,
    kDeparture,
    kArrival,
    kRetries,
    kFlush,
  };
  struct Step {
    StepKind kind = StepKind::kNone;
    util::SimTime when = kNever;
    /// Global session index of the arrival or departure (0 otherwise).
    std::size_t session = 0;
  };

  /// The next event this engine would process: fault flips, then
  /// departures, arrivals, due retries and the batch flush. kNone once
  /// the domain is drained. Pure; calling it repeatedly without applying
  /// is free.
  Step next_step() const noexcept;

  /// Applies one step of the given kind and returns a cheap O(1) fold
  /// of the post-step engine state (queue sizes + counters). Replicas
  /// that applied the same event-log prefix observe the same digest,
  /// so the log stores it per record and backups verify on replay.
  std::uint64_t apply_step(StepKind kind);

  /// Full bit-exact state capture (fault/replica_snapshot.h). The
  /// `term`/`applied_records` fields are owned by the replication
  /// layer and left zero here.
  fault::ReplicaSnapshot snapshot() const;

  /// Copies the domain's placements into `assignment` (one slot per
  /// workload session); slots of other domains are left untouched.
  void publish(std::span<ApId> assignment) const;

  // --- Headless mode (controller down, no backup to promote) --------

  /// Discards the next arrival — nobody is listening; counted in
  /// stats().dropped_sessions.
  void drop_next_arrival();
  /// Discards the pending batch (controller crashed before the flush);
  /// every member counts as dropped.
  void drop_pending_batch();
  /// Parks all pending retries until `t` (the controller restart).
  void postpone_retries_until(util::SimTime t);

  /// Computes derived statistics (mean batch size); call once after
  /// the event walk. run() does this itself.
  void finalize();

  const sim::ReplayStats& stats() const noexcept { return stats_; }

 private:
  struct Departure {
    util::SimTime when;
    std::size_t session_index;
    ApId ap;
    UserId user;
  };
  struct DepartureLater {
    bool operator()(const Departure& a, const Departure& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.session_index > b.session_index;
    }
  };

  std::uint64_t step_digest() const noexcept;
  void process_arrival();
  void process_departure();
  void flush();
  /// Routes the staged batch through the policy at `now` and commits
  /// the placements (tracker, placement slots, policy on_associate,
  /// departure and retry bookkeeping).
  void place_batch(util::SimTime now, const sim::FaultControls& faults);
  /// Placement slot of global session `session_index` (binary search
  /// over the ascending sessions_).
  ApId& placement(std::size_t session_index);
  sim::Arrival make_arrival(std::size_t session_index,
                            util::SimTime connect) const;

  // --- fault path (active only when injector_ != nullptr) -----------

  struct ActiveInfo {
    UserId user = kInvalidUser;
    ApId ap = kInvalidAp;
    double demand_mbps = 0.0;
  };

  void process_fault();
  void process_retries();
  /// Kicks every station off `ap` into the retry queue.
  void evict_ap(ApId ap, util::SimTime when);
  /// Bounded migration sweep toward the just-recovered `ap`.
  void recover_ap(ApId ap, util::SimTime when);
  /// Books a failed association attempt: backoff-requeue, or abandon
  /// once the attempt cap is reached.
  void defer_session(std::size_t session_index, util::SimTime now);
  void abandon_session(std::size_t session_index);

  const wlan::Network* net_;
  const trace::Trace* workload_;
  ControllerId domain_;
  std::vector<std::size_t> sessions_;  // global indices, ascending
  std::vector<ApId> placements_;       // per sessions_ position
  sim::ApSelector* policy_;
  sim::ReplayConfig config_;

  sim::ApLoadTracker tracker_;
  std::priority_queue<Departure, std::vector<Departure>, DepartureLater>
      departures_;
  std::vector<sim::Arrival> batch_;
  util::SimTime batch_deadline_ = kNever;
  std::size_t next_arrival_ = 0;

  const fault::FaultInjector* injector_ = nullptr;
  fault::RecoveryPolicy recovery_;
  fault::DegradationTracker degradation_;
  std::vector<fault::ApFaultEvent> fault_events_;  // domain-local, sorted
  std::size_t next_fault_ = 0;
  fault::RetryQueue retries_;
  std::unordered_map<std::size_t, ActiveInfo> active_;
  std::unordered_map<std::size_t, std::uint32_t> attempts_;
  std::unordered_set<std::size_t> requeued_;  // awaiting re-placement

  sim::ReplayStats stats_;
};

}  // namespace s3::runtime

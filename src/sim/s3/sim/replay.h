// Trace-driven replay vocabulary: the configuration, statistics and
// result of turning an unassigned workload into an assigned trace under
// a selection policy (the paper's evaluation methodology, §V-A). The
// engine itself is runtime::ReplayDriver (s3/runtime/replay_driver.h).
//
// Replay walks the workload's arrival/departure events in time order.
// Arrivals are queued per controller and dispatched to the policy
// either immediately (dispatch_window == 0) or in batches when the
// oldest pending request has waited dispatch_window seconds —
// modelling a controller that aggregates association requests briefly
// so that co-coming users can be placed jointly. No migration ever
// happens after placement (user-friendliness requirement, §I).
#pragma once

#include <vector>

#include "s3/sim/selector.h"
#include "s3/trace/trace.h"
#include "s3/wlan/network.h"
#include "s3/wlan/radio.h"

namespace s3::sim {

struct ReplayConfig {
  /// Seconds a pending association request may wait for batching.
  /// 0 = assign each arrival immediately on its own. Two minutes keeps
  /// most of a co-coming burst in one batch (arrival jitter is a few
  /// minutes) without unreasonable association delay.
  std::int64_t dispatch_window_s = 120;
  wlan::RadioModel radio{};
};

struct ReplayStats {
  std::size_t num_sessions = 0;
  std::size_t num_batches = 0;
  std::size_t max_batch_size = 0;
  double mean_batch_size = 0.0;
  /// Placements where the chosen AP had no headroom for the arrival
  /// (every candidate violated the bandwidth constraint).
  std::size_t forced_overloads = 0;
  /// Policy contract violations: placements where the returned AP was
  /// not in the arrival's candidate set. Debug builds additionally
  /// throw; release builds count and keep the returned AP so the
  /// breach is observable instead of fatal.
  std::size_t candidate_violations = 0;

  // Fault-path accounting, all zero unless a fault::FaultInjector was
  // attached to the replay (see s3/fault and runtime::ReplayDriver).
  std::size_t degraded_batches = 0;    ///< batches served by the fallback
  std::size_t transitions_to_degraded = 0;
  std::size_t transitions_to_recovering = 0;
  std::size_t transitions_to_healthy = 0;
  std::size_t fault_evictions = 0;     ///< stations kicked by an AP outage
  std::size_t reassociations = 0;      ///< evicted/rejected sessions re-placed
  std::size_t retry_attempts = 0;      ///< retry-queue pushes (backoff waits)
  std::size_t admission_rejections = 0;
  std::size_t abandoned_sessions = 0;  ///< never (re-)placed before departure
  std::size_t recovery_migrations = 0; ///< rebalance moves on AP recovery
  /// Arrivals discarded because the domain's controller was down with no
  /// backup to promote (headless mode — see s3/repl). Zero whenever at
  /// least one replica survives every outage.
  std::size_t dropped_sessions = 0;

  bool operator==(const ReplayStats&) const noexcept = default;
};

struct ReplayResult {
  trace::Trace assigned;  ///< workload with every session's AP filled
  ReplayStats stats;
};

}  // namespace s3::sim

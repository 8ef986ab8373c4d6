// Sharded replay driver.
//
// The driver decomposes a replay into one ControllerEngine per
// controller domain and runs the engines on a thread pool. Because
// domains are independent (disjoint APs, disjoint arrivals, per-shard
// policy instances from a SelectorFactory), the merged result —
// assigned trace, statistics, instrumentation counters — is identical
// for every thread count, including 1. Each engine owns its domain's
// placements; the driver publishes them into the assigned trace after
// the join, in controller order. Wall clock scales with the number of
// cores until the largest single domain dominates.
//
// Two modes:
//   * run(factory)        — sharded, one policy instance per domain,
//                           threads from ReplayDriverConfig;
//   * run_sequential(...) — one shared policy instance observing every
//                           domain's events in global time order: each
//                           round applies the least next_step() over
//                           all engines. The original single-threaded
//                           replay loop bit-for-bit, for stateful
//                           policies that learn across domains and as
//                           the differential-testing reference.
#pragma once

#include <functional>

#include "s3/runtime/controller_engine.h"

namespace s3::runtime {

struct ReplayDriverConfig {
  sim::ReplayConfig replay{};
  /// Worker threads for sharded replay; 0 = hardware_concurrency().
  /// The result is the same for every value; only wall clock changes.
  unsigned threads = 0;
  /// Optional fault schedule (s3::fault). The injector is immutable and
  /// its queries are pure functions of (plan, seed), so sharded engines
  /// share it without synchronization and the realized schedule — and
  /// therefore every assignment and statistic — is identical for every
  /// thread count. Sharded run() only; run_sequential() rejects it.
  /// Must outlive the driver.
  const fault::FaultInjector* injector = nullptr;
  /// Retry/backoff + degradation-hysteresis knobs, used when `injector`
  /// is set.
  fault::RecoveryPolicy recovery{};
};

/// Deterministically merges per-shard statistics (shard order must be
/// controller order). Guards the mean against num_batches == 0.
sim::ReplayStats merge_stats(std::span<const sim::ReplayStats> shards);

/// Worker threads for a requested count; 0 = hardware_concurrency().
unsigned resolve_threads(unsigned requested) noexcept;

/// Runs one domain's share of a sharded replay; returns its stats.
using DomainRun = std::function<sim::ReplayStats()>;

/// The sharded pass both drivers share (ReplayDriver::run and
/// repl::ReplicatedReplayDriver::run). Checks `workload` when contracts
/// are enabled, partitions its sessions by controller domain, and calls
/// `make(domain, sessions)` once per non-empty domain in controller
/// order, so construction never depends on thread schedule. The
/// returned runs execute on min(resolve_threads(threads), domains)
/// workers; the first exception one throws is rethrown after the join.
/// Returns the per-domain stats in controller order.
std::vector<sim::ReplayStats> run_sharded(
    const wlan::Network& net, const trace::Trace& workload, unsigned threads,
    const std::function<DomainRun(ControllerId, std::vector<std::size_t>)>&
        make);

class ReplayDriver {
 public:
  /// `net` must outlive the driver.
  explicit ReplayDriver(const wlan::Network& net,
                        ReplayDriverConfig config = {});

  /// Sharded replay of `workload`: partitions sessions by controller
  /// domain, builds one policy per non-empty domain via `factory`, and
  /// runs the engines on the thread pool.
  sim::ReplayResult run(const trace::Trace& workload,
                        const sim::SelectorFactory& factory) const;

  /// Sequential replay with one shared policy instance: engines are
  /// interleaved on a global clock with the historic tie order
  /// (departures, then arrivals, each by global session index, then
  /// due batch flushes in controller order).
  sim::ReplayResult run_sequential(const trace::Trace& workload,
                                   sim::ApSelector& policy) const;

  /// Threads run() will actually use (resolves the 0 default).
  unsigned effective_threads() const noexcept;

  const ReplayDriverConfig& config() const noexcept { return config_; }

 private:
  const wlan::Network* net_;
  ReplayDriverConfig config_;
};

}  // namespace s3::runtime

#include "s3/runtime/replay_driver.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "s3/check/contract.h"
#include "s3/check/validators.h"
#include "s3/util/thread_annotations.h"

namespace s3::runtime {

namespace {

/// Boundary contract: a workload handed to the driver must be
/// structurally sound for this network. Runs only when checking is
/// enabled (off by default), so the hot path stays free.
void check_workload(const wlan::Network& net, const trace::Trace& workload) {
  if (!check::contracts_enabled()) return;
  check::validate_trace(workload, &net);
}

/// Session indices per controller domain (index = controller id).
std::vector<std::vector<std::size_t>> shard_sessions(
    const wlan::Network& net, const trace::Trace& workload) {
  std::vector<std::vector<std::size_t>> shards(net.num_controllers());
  const auto sessions = workload.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const ControllerId c = net.controller_of_building(sessions[i].building);
    shards[c].push_back(i);
  }
  return shards;
}

/// First-error capture for the worker pool: the first exception any
/// worker threw, handed back after the join.
class ErrorCollector {
 public:
  void capture(std::exception_ptr error) S3_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (!first_) first_ = std::move(error);
  }
  std::exception_ptr take() S3_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return first_;
  }

 private:
  util::Mutex mu_;
  std::exception_ptr first_ S3_GUARDED_BY(mu_);
};

}  // namespace

sim::ReplayStats merge_stats(std::span<const sim::ReplayStats> shards) {
  sim::ReplayStats merged;
  for (const sim::ReplayStats& s : shards) {
    merged.num_sessions += s.num_sessions;
    merged.num_batches += s.num_batches;
    merged.max_batch_size = std::max(merged.max_batch_size, s.max_batch_size);
    merged.forced_overloads += s.forced_overloads;
    merged.candidate_violations += s.candidate_violations;
    merged.degraded_batches += s.degraded_batches;
    merged.transitions_to_degraded += s.transitions_to_degraded;
    merged.transitions_to_recovering += s.transitions_to_recovering;
    merged.transitions_to_healthy += s.transitions_to_healthy;
    merged.fault_evictions += s.fault_evictions;
    merged.reassociations += s.reassociations;
    merged.retry_attempts += s.retry_attempts;
    merged.admission_rejections += s.admission_rejections;
    merged.abandoned_sessions += s.abandoned_sessions;
    merged.recovery_migrations += s.recovery_migrations;
    merged.dropped_sessions += s.dropped_sessions;
  }
  merged.mean_batch_size =
      merged.num_batches > 0
          ? static_cast<double>(merged.num_sessions) /
                static_cast<double>(merged.num_batches)
          : 0.0;
  return merged;
}

unsigned resolve_threads(unsigned requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::vector<sim::ReplayStats> run_sharded(
    const wlan::Network& net, const trace::Trace& workload, unsigned threads,
    const std::function<DomainRun(ControllerId, std::vector<std::size_t>)>&
        make) {
  check_workload(net, workload);
  std::vector<std::vector<std::size_t>> shards = shard_sessions(net, workload);
  std::vector<DomainRun> runs;
  for (ControllerId c = 0; c < shards.size(); ++c) {
    if (!shards[c].empty()) runs.push_back(make(c, std::move(shards[c])));
  }

  // Each run writes only its own slot, and the slots are in controller
  // order, so the merge is identical for every thread count.
  std::vector<sim::ReplayStats> stats(runs.size());
  const unsigned workers = std::min<unsigned>(
      resolve_threads(threads), static_cast<unsigned>(runs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < runs.size(); ++i) stats[i] = runs[i]();
    return stats;
  }
  std::atomic<std::size_t> next{0};
  ErrorCollector errors;
  auto work = [&]() {
    for (std::size_t i = next.fetch_add(1); i < runs.size();
         i = next.fetch_add(1)) {
      try {
        stats[i] = runs[i]();
      } catch (...) {
        errors.capture(std::current_exception());
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  if (std::exception_ptr first = errors.take()) {
    std::rethrow_exception(first);
  }
  return stats;
}

ReplayDriver::ReplayDriver(const wlan::Network& net, ReplayDriverConfig config)
    : net_(&net), config_(config) {
  S3_REQUIRE(config_.replay.dispatch_window_s >= 0,
             "ReplayDriver: negative dispatch window");
}

unsigned ReplayDriver::effective_threads() const noexcept {
  return resolve_threads(config_.threads);
}

sim::ReplayResult ReplayDriver::run(const trace::Trace& workload,
                                    const sim::SelectorFactory& factory) const {
  // Controller outages and losses need replicas (or explicit headless/
  // adoption handling) — that is repl::ReplicatedReplayDriver's job,
  // not this one's.
  S3_REQUIRE(config_.injector == nullptr ||
                 (config_.injector->plan().controller_outages.empty() &&
                  config_.injector->plan().controller_losses.empty()),
             "ReplayDriver: controller-outage/loss plans require the "
             "replicated driver (s3/repl/replicated_driver.h)");
  // One policy + engine per non-empty domain.
  std::vector<std::unique_ptr<sim::ApSelector>> policies;
  std::vector<std::unique_ptr<ControllerEngine>> engines;
  const std::vector<sim::ReplayStats> stats = run_sharded(
      *net_, workload, config_.threads,
      [&](ControllerId c, std::vector<std::size_t> sessions) -> DomainRun {
        policies.push_back(factory.create(c));
        S3_ASSERT(policies.back() != nullptr,
                  "ReplayDriver: factory returned a null policy");
        engines.push_back(std::make_unique<ControllerEngine>(
            *net_, workload, c, std::move(sessions), *policies.back(),
            config_.replay, config_.injector, config_.recovery));
        ControllerEngine* engine = engines.back().get();
        return [engine] {
          engine->run();
          return engine->stats();
        };
      });
  std::vector<ApId> assignment(workload.size(), kInvalidAp);
  for (const auto& e : engines) e->publish(assignment);
  return sim::ReplayResult{workload.with_assignments(assignment),
                           merge_stats(stats)};
}

sim::ReplayResult ReplayDriver::run_sequential(const trace::Trace& workload,
                                               sim::ApSelector& policy) const {
  // Sequential mode exists to reproduce the historic monolith
  // bit-for-bit; the fault path deliberately stays out of it.
  S3_REQUIRE(config_.injector == nullptr,
             "run_sequential: fault injection requires sharded run()");
  check_workload(*net_, workload);
  std::vector<std::vector<std::size_t>> shards =
      shard_sessions(*net_, workload);
  std::vector<std::unique_ptr<ControllerEngine>> engines;
  for (ControllerId c = 0; c < shards.size(); ++c) {
    if (shards[c].empty()) continue;
    engines.push_back(std::make_unique<ControllerEngine>(
        *net_, workload, c, std::move(shards[c]), policy, config_.replay));
  }

  // Each engine's next step is its own departure → arrival → flush
  // choice, so the least (when, kind, session) over all engines is the
  // historic single-loop order: departures and arrivals by (time,
  // global session index), equal flush deadlines in controller order
  // (the strict < keeps the first engine).
  using Step = ControllerEngine::Step;
  const auto before = [](const Step& a, const Step& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.session < b.session;
  };
  while (true) {
    ControllerEngine* due = nullptr;
    Step best;
    for (const auto& e : engines) {
      const Step step = e->next_step();
      if (step.kind == ControllerEngine::StepKind::kNone) continue;
      if (due == nullptr || before(step, best)) {
        due = e.get();
        best = step;
      }
    }
    if (due == nullptr) break;
    due->apply_step(best.kind);
  }

  std::vector<ApId> assignment(workload.size(), kInvalidAp);
  std::vector<sim::ReplayStats> shard_stats;
  shard_stats.reserve(engines.size());
  for (auto& e : engines) {
    e->finalize();
    e->publish(assignment);
    shard_stats.push_back(e->stats());
  }
  return sim::ReplayResult{workload.with_assignments(assignment),
                           merge_stats(shard_stats)};
}

}  // namespace s3::runtime

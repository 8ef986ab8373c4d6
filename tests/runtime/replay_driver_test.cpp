#include "s3/runtime/replay_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "s3/core/evaluation.h"
#include "s3/core/online_s3.h"
#include "s3/core/selector_factory.h"
#include "s3/trace/generator.h"
#include "s3/util/metrics.h"
#include "testing/mini.h"

namespace s3::runtime {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;
using s3::testing::mini_network;

/// Multi-building campus so the driver actually has several shards.
const trace::GeneratedTrace& shared_world() {
  static const trace::GeneratedTrace world = [] {
    trace::GeneratorConfig cfg;
    cfg.seed = 7;
    cfg.num_users = 150;
    cfg.num_days = 3;
    cfg.layout.num_buildings = 3;
    cfg.layout.aps_per_building = 5;
    return trace::generate_campus_trace(cfg);
  }();
  return world;
}

sim::ReplayResult run_with(const sim::SelectorFactory& factory,
                           unsigned threads) {
  const trace::GeneratedTrace& w = shared_world();
  ReplayDriverConfig rc;
  rc.threads = threads;
  return ReplayDriver(w.network, rc).run(w.workload, factory);
}

void expect_identical(const sim::ReplayResult& a, const sim::ReplayResult& b) {
  ASSERT_EQ(a.assigned.size(), b.assigned.size());
  for (std::size_t i = 0; i < a.assigned.size(); ++i) {
    ASSERT_EQ(a.assigned.session(i).ap, b.assigned.session(i).ap)
        << "session " << i;
  }
  EXPECT_EQ(a.stats.num_sessions, b.stats.num_sessions);
  EXPECT_EQ(a.stats.num_batches, b.stats.num_batches);
  EXPECT_EQ(a.stats.max_batch_size, b.stats.max_batch_size);
  EXPECT_DOUBLE_EQ(a.stats.mean_batch_size, b.stats.mean_batch_size);
  EXPECT_EQ(a.stats.forced_overloads, b.stats.forced_overloads);
  EXPECT_EQ(a.stats.candidate_violations, b.stats.candidate_violations);
}

TEST(ReplayDriver, ThreadCountInvariantForLlf) {
  const core::LlfFactory f(core::LoadMetric::kStations);
  expect_identical(run_with(f, 1), run_with(f, 4));
}

TEST(ReplayDriver, ThreadCountInvariantForRssi) {
  const core::StrongestRssiFactory f;
  expect_identical(run_with(f, 1), run_with(f, 4));
}

TEST(ReplayDriver, ThreadCountInvariantForRandom) {
  // Per-domain RNG streams are derived from (seed, domain), never from
  // thread identity — the whole point of the factory contract.
  const core::RandomFactory f(99);
  expect_identical(run_with(f, 1), run_with(f, 4));
}

TEST(ReplayDriver, ThreadCountInvariantForS3AndOnlineS3) {
  const trace::GeneratedTrace& w = shared_world();
  core::EvaluationConfig eval;
  eval.train_days = 2;
  eval.test_days = 1;
  const social::SocialIndexModel model =
      core::train_from_workload(w.network, w.workload, eval);

  const core::S3Factory s3(&w.network, &model);
  expect_identical(run_with(s3, 1), run_with(s3, 4));

  // Online-S3 learns, but each domain instance only ever sees its own
  // domain's events, so sharding is still schedule-independent.
  const core::OnlineS3Factory online(&w.network, &model);
  expect_identical(run_with(online, 1), run_with(online, 4));
}

TEST(ReplayDriver, SequentialMatchesShardedForStatelessPolicy) {
  const trace::GeneratedTrace& w = shared_world();
  const core::LlfFactory f(core::LoadMetric::kStations);
  core::LlfSelector shared(core::LoadMetric::kStations);
  const ReplayDriver driver(w.network);
  expect_identical(driver.run(w.workload, f),
                   driver.run_sequential(w.workload, shared));
}

/// FNV-1a fold of every assigned AP and the merged statistics.
std::uint64_t result_digest(const sim::ReplayResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const trace::SessionRecord& s : r.assigned.sessions()) mix(s.ap);
  mix(r.stats.num_sessions);
  mix(r.stats.num_batches);
  mix(r.stats.max_batch_size);
  mix(r.stats.forced_overloads);
  mix(r.stats.candidate_violations);
  return h;
}

/// shared_world() at twice the population: enough users roam between
/// buildings that a pair learnt in one domain later meets in another.
const trace::GeneratedTrace& roaming_world() {
  static const trace::GeneratedTrace world = [] {
    trace::GeneratorConfig cfg;
    cfg.seed = 7;
    cfg.num_users = 300;
    cfg.num_days = 3;
    cfg.layout.num_buildings = 3;
    cfg.layout.aps_per_building = 5;
    return trace::generate_campus_trace(cfg);
  }();
  return world;
}

TEST(ReplayDriver, SequentialSharedOnlineS3Golden) {
  // One learning selector observes all three domains, so an encounter
  // learnt in one building moves θ for the others: the placements
  // depend on the global event order, which this digest pins.
  const trace::GeneratedTrace& w = roaming_world();
  core::EvaluationConfig eval;
  eval.train_days = 2;
  eval.test_days = 1;
  const social::SocialIndexModel model =
      core::train_from_workload(w.network, w.workload, eval);
  core::OnlineS3Selector shared(&w.network, &model);
  const sim::ReplayResult r =
      ReplayDriver(w.network).run_sequential(w.workload, shared);
  EXPECT_EQ(r.stats.num_sessions, w.workload.size());
  EXPECT_EQ(result_digest(r), 17554063597969793744ULL);

  // Sharded, each domain learns alone — a different result.
  const core::OnlineS3Factory online(&w.network, &model);
  const sim::ReplayResult sharded =
      ReplayDriver(w.network).run(w.workload, online);
  EXPECT_NE(result_digest(sharded), result_digest(r));
}

/// Shared policy that logs every callback the sequential driver makes,
/// and always picks the first candidate.
class CallbackLog final : public sim::ApSelector {
 public:
  std::string_view name() const override { return "callback-log"; }
  ApId select_one(const sim::Arrival& a, const sim::ApLoadTracker&) override {
    return a.candidates.front();
  }
  sim::BatchResult place_batch(const sim::BatchRequest& request,
                               const sim::ApLoadTracker& loads) override {
    std::string line = "batch";
    for (const sim::Arrival& a : request.arrivals) {
      line += ' ';
      line += std::to_string(a.session_index);
    }
    calls.push_back(line);
    return sim::ApSelector::place_batch(request, loads);
  }
  void on_associate(const sim::Arrival& a, ApId) override {
    calls.push_back(std::string("assoc ") + std::to_string(a.session_index));
  }
  void on_disconnect(std::size_t session, UserId, ApId,
                     util::SimTime) override {
    calls.push_back(std::string("disc ") + std::to_string(session));
  }
  std::vector<std::string> calls;
};

/// Two buildings (controllers 0 and 1). Sessions 0, 2, 4 sit in
/// building 1 and sessions 1, 3, 5 in building 0, so every tie across
/// domains pits the lower global index against the lower controller.
trace::Trace two_domain_ties() {
  return make_trace(6, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 120,
                  .building = 1},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 120},
      SessionSpec{.user = 2, .connect_s = 60, .disconnect_s = 600,
                  .building = 1},
      SessionSpec{.user = 3, .connect_s = 60, .disconnect_s = 600},
      SessionSpec{.user = 4, .connect_s = 120, .disconnect_s = 600,
                  .building = 1},
      SessionSpec{.user = 5, .connect_s = 120, .disconnect_s = 600},
  });
}

TEST(ReplayDriver, SequentialTieOrderAcrossDomains) {
  const auto net = mini_network(2, 2);
  const trace::Trace workload = two_domain_ties();

  // 60 s window: both domains' batches fall due at t = 60 and t = 180.
  // Arrivals at a flush deadline join the batch before it flushes, equal
  // deadlines flush in controller order, and equal-time departures go
  // first, by global session index.
  ReplayDriverConfig windowed;
  windowed.replay.dispatch_window_s = 60;
  CallbackLog a;
  ReplayDriver(net, windowed).run_sequential(workload, a);
  const std::vector<std::string> expect_windowed{
      "batch 1 3", "assoc 1", "assoc 3",  // t=60, controller 0
      "batch 0 2", "assoc 0", "assoc 2",  // t=60, controller 1
      "disc 0",    "disc 1",              // t=120
      "batch 5",   "assoc 5",             // t=180, controller 0
      "batch 4",   "assoc 4",             // t=180, controller 1
      "disc 2",    "disc 3",    "disc 4", "disc 5",  // t=600
  };
  EXPECT_EQ(a.calls, expect_windowed);

  // Zero window: every arrival flushes at once, so arrivals order by
  // global session index across domains, after equal-time departures.
  ReplayDriverConfig immediate;
  immediate.replay.dispatch_window_s = 0;
  CallbackLog b;
  ReplayDriver(net, immediate).run_sequential(workload, b);
  const std::vector<std::string> expect_immediate{
      "batch 0", "assoc 0", "batch 1", "assoc 1",  // t=0
      "batch 2", "assoc 2", "batch 3", "assoc 3",  // t=60
      "disc 0",  "disc 1",                         // t=120
      "batch 4", "assoc 4", "batch 5", "assoc 5",
      "disc 2",  "disc 3",  "disc 4",  "disc 5",   // t=600
  };
  EXPECT_EQ(b.calls, expect_immediate);
}

TEST(ReplayDriver, EffectiveThreadsResolvesZeroToAtLeastOne) {
  const auto net = mini_network(2);
  ReplayDriverConfig rc;
  rc.threads = 0;
  EXPECT_GE(ReplayDriver(net, rc).effective_threads(), 1u);
  rc.threads = 3;
  EXPECT_EQ(ReplayDriver(net, rc).effective_threads(), 3u);
}

TEST(ReplayDriver, EmptyWorkload) {
  const auto net = mini_network(2);
  const trace::Trace workload(1, 1, {});
  const core::LlfFactory f;
  const sim::ReplayResult r = ReplayDriver(net).run(workload, f);
  EXPECT_EQ(r.stats.num_sessions, 0u);
  EXPECT_EQ(r.stats.num_batches, 0u);
  EXPECT_DOUBLE_EQ(r.stats.mean_batch_size, 0.0);  // no 0/0
}

TEST(MergeStats, EmptyAndZeroBatchShardsDoNotDivide) {
  EXPECT_DOUBLE_EQ(merge_stats(std::span<const sim::ReplayStats>{})
                       .mean_batch_size,
                   0.0);

  // Shards that saw sessions but never flushed a batch.
  const sim::ReplayStats idle[2]{};
  const sim::ReplayStats merged = merge_stats(idle);
  EXPECT_EQ(merged.num_batches, 0u);
  EXPECT_DOUBLE_EQ(merged.mean_batch_size, 0.0);
}

TEST(MergeStats, SumsAndMaxes) {
  sim::ReplayStats a, b;
  a.num_sessions = 6;
  a.num_batches = 2;
  a.max_batch_size = 4;
  a.forced_overloads = 1;
  a.candidate_violations = 2;
  b.num_sessions = 4;
  b.num_batches = 3;
  b.max_batch_size = 2;
  b.forced_overloads = 2;
  b.candidate_violations = 0;
  const sim::ReplayStats shards[] = {a, b};
  const sim::ReplayStats m = merge_stats(shards);
  EXPECT_EQ(m.num_sessions, 10u);
  EXPECT_EQ(m.num_batches, 5u);
  EXPECT_EQ(m.max_batch_size, 4u);
  EXPECT_EQ(m.forced_overloads, 3u);
  EXPECT_EQ(m.candidate_violations, 2u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 2.0);
}

/// Deliberately broken policy: always answers with an AP from the
/// other building, violating the candidate-set contract.
class OutOfCandidatesSelector final : public sim::ApSelector {
 public:
  std::string_view name() const override { return "broken"; }
  ApId select_one(const sim::Arrival& a, const sim::ApLoadTracker&) override {
    ApId worst = 0;
    while (std::find(a.candidates.begin(), a.candidates.end(), worst) !=
           a.candidates.end()) {
      ++worst;
    }
    return worst;
  }
};

TEST(ReplayDriver, CandidateViolationObservable) {
  const auto net = mini_network(4, 2);  // 2 buildings: 4 foreign APs
  const auto workload = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 600},
      SessionSpec{.user = 1, .connect_s = 30, .disconnect_s = 900},
  });
  OutOfCandidatesSelector broken;
  const ReplayDriver driver(net);
#ifdef NDEBUG
  // Release: the breach is kept (the association already happened) but
  // surfaces as a counted stat.
  const sim::ReplayResult r = driver.run_sequential(workload, broken);
  EXPECT_EQ(r.stats.candidate_violations, 2u);
  EXPECT_TRUE(r.assigned.fully_assigned());
#else
  // Debug: the S3_DEBUG_ASSERT trips immediately.
  EXPECT_THROW(driver.run_sequential(workload, broken), std::logic_error);
#endif
}

/// Counter/histogram values on the global bus, keyed by name. Timer
/// durations are wall clock and excluded; their call counts are kept.
std::map<std::string, std::uint64_t> deterministic_metrics() {
  std::map<std::string, std::uint64_t> out;
  for (const util::MetricSample& s : util::metrics().snapshot()) {
    if (s.name.rfind("sim.", 0) != 0) continue;
    switch (s.kind) {
      case util::MetricKind::kCounter:
        out[s.name] = s.count;
        break;
      case util::MetricKind::kHistogram:
        out[s.name + ".count"] = s.count;
        out[s.name + ".sum"] = s.total;
        out[s.name + ".max"] = s.max;
        break;
      case util::MetricKind::kTimer:
        out[s.name + ".calls"] = s.count;
        break;
    }
  }
  return out;
}

TEST(ReplayDriver, InstrumentationCountersStableAcrossRunsAndThreads) {
  const core::LlfFactory f;

  util::metrics().reset();
  (void)run_with(f, 1);
  const auto first = deterministic_metrics();
  ASSERT_GT(first.at("sim.sessions"), 0u);
  ASSERT_GT(first.at("sim.batches"), 0u);
  ASSERT_GT(first.at("sim.batch_size.count"), 0u);

  util::metrics().reset();
  (void)run_with(f, 1);
  EXPECT_EQ(deterministic_metrics(), first) << "not stable across runs";

  util::metrics().reset();
  (void)run_with(f, 4);
  EXPECT_EQ(deterministic_metrics(), first) << "not stable across threads";
}

}  // namespace
}  // namespace s3::runtime

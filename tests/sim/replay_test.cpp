#include "s3/runtime/replay_driver.h"

#include <gtest/gtest.h>

#include "s3/core/baselines.h"
#include "s3/trace/generator.h"
#include "testing/mini.h"

namespace s3::sim {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;
using s3::testing::mini_network;

/// Policy that records what it saw and always picks the first candidate.
class RecordingSelector final : public ApSelector {
 public:
  std::string_view name() const override { return "recording"; }
  ApId select_one(const Arrival& a, const ApLoadTracker&) override {
    arrivals.push_back(a);
    return a.candidates.front();
  }
  void on_disconnect(std::size_t, UserId, ApId, util::SimTime when) override {
    disconnects.push_back(when);
  }
  std::vector<Arrival> arrivals;
  std::vector<util::SimTime> disconnects;
};

TEST(Replay, AssignsEverySession) {
  const auto net = mini_network(4);
  const auto workload = make_trace(4, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 600},
      SessionSpec{.user = 1, .connect_s = 30, .disconnect_s = 900},
      SessionSpec{.user = 2, .connect_s = 60, .disconnect_s = 1200},
  });
  core::LlfSelector llf;
  const ReplayResult r =
      runtime::ReplayDriver(net).run_sequential(workload, llf);
  EXPECT_TRUE(r.assigned.fully_assigned());
  EXPECT_EQ(r.stats.num_sessions, 3u);
  EXPECT_EQ(r.assigned.size(), workload.size());
}

TEST(Replay, ChosenApAlwaysInCandidates) {
  trace::GeneratorConfig cfg;
  cfg.num_users = 100;
  cfg.num_days = 2;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = 6;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  core::LlfSelector llf;
  runtime::ReplayDriverConfig rc;
  const ReplayResult r =
      runtime::ReplayDriver(g.network, rc).run_sequential(g.workload, llf);
  for (const trace::SessionRecord& s : r.assigned.sessions()) {
    const auto cands =
        wlan::candidate_aps(g.network, rc.replay.radio, s.building, s.pos);
    EXPECT_NE(std::find(cands.begin(), cands.end(), s.ap), cands.end());
  }
}

TEST(Replay, DeterministicAcrossRuns) {
  trace::GeneratorConfig cfg;
  cfg.num_users = 80;
  cfg.num_days = 2;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  core::LlfSelector llf1, llf2;
  const ReplayResult a =
      runtime::ReplayDriver(g.network).run_sequential(g.workload, llf1);
  const ReplayResult b =
      runtime::ReplayDriver(g.network).run_sequential(g.workload, llf2);
  for (std::size_t i = 0; i < a.assigned.size(); ++i) {
    EXPECT_EQ(a.assigned.session(i).ap, b.assigned.session(i).ap);
  }
}

TEST(Replay, ImmediateDispatchWithZeroWindow) {
  const auto net = mini_network(3);
  const auto workload = make_trace(3, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 600},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 600},
      SessionSpec{.user = 2, .connect_s = 1, .disconnect_s = 600},
  });
  RecordingSelector rec;
  runtime::ReplayDriverConfig rc;
  rc.replay.dispatch_window_s = 0;
  const ReplayResult r =
      runtime::ReplayDriver(net, rc).run_sequential(workload, rec);
  EXPECT_EQ(r.stats.num_batches, 3u);  // one batch per arrival
  EXPECT_EQ(r.stats.max_batch_size, 1u);
}

TEST(Replay, WindowBatchesCoArrivals) {
  const auto net = mini_network(3);
  const auto workload = make_trace(4, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 900},
      SessionSpec{.user = 1, .connect_s = 20, .disconnect_s = 900},
      SessionSpec{.user = 2, .connect_s = 40, .disconnect_s = 900},
      SessionSpec{.user = 3, .connect_s = 500, .disconnect_s = 1200},
  });
  RecordingSelector rec;
  runtime::ReplayDriverConfig rc;
  rc.replay.dispatch_window_s = 60;
  const ReplayResult r =
      runtime::ReplayDriver(net, rc).run_sequential(workload, rec);
  // First three arrive within one window; the fourth after the flush.
  EXPECT_EQ(r.stats.num_batches, 2u);
  EXPECT_EQ(r.stats.max_batch_size, 3u);
  EXPECT_DOUBLE_EQ(r.stats.mean_batch_size, 2.0);
}

TEST(Replay, DepartureFreesCapacityBeforeArrivalAtSameInstant) {
  // Single AP, capacity 20; first user takes 18. Second user (demand
  // 18) arrives exactly when the first leaves: departures must be
  // processed first at equal timestamps, so no overload is recorded.
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 1;
  const auto net = wlan::make_campus(layout);
  const auto workload = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 600,
                  .demand_mbps = 18.0},
      SessionSpec{.user = 1, .connect_s = 600, .disconnect_s = 1200,
                  .demand_mbps = 18.0},
  });
  core::LlfSelector llf;
  runtime::ReplayDriverConfig rc;
  rc.replay.dispatch_window_s = 0;
  const ReplayResult r =
      runtime::ReplayDriver(net, rc).run_sequential(workload, llf);
  EXPECT_EQ(r.stats.forced_overloads, 0u);
}

TEST(Replay, ForcedOverloadCounted) {
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 1;
  layout.ap_capacity_mbps = 5.0;
  const auto net = wlan::make_campus(layout);
  const auto workload = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 600,
                  .demand_mbps = 4.0},
      SessionSpec{.user = 1, .connect_s = 10, .disconnect_s = 600,
                  .demand_mbps = 4.0},
  });
  core::LlfSelector llf;
  runtime::ReplayDriverConfig rc;
  rc.replay.dispatch_window_s = 0;
  const ReplayResult r =
      runtime::ReplayDriver(net, rc).run_sequential(workload, llf);
  EXPECT_EQ(r.stats.forced_overloads, 1u);
}

TEST(Replay, ArrivalContextFields) {
  const auto net = mini_network(4);
  const auto workload = make_trace(2, {
      SessionSpec{.user = 1, .connect_s = 120, .disconnect_s = 900,
                  .demand_mbps = 2.5},
  });
  RecordingSelector rec;
  runtime::ReplayDriverConfig rc;
  rc.replay.dispatch_window_s = 0;
  runtime::ReplayDriver(net, rc).run_sequential(workload, rec);
  ASSERT_EQ(rec.arrivals.size(), 1u);
  const Arrival& a = rec.arrivals[0];
  EXPECT_EQ(a.user, 1u);
  EXPECT_EQ(a.controller, 0u);
  EXPECT_EQ(a.connect.seconds(), 120);
  EXPECT_DOUBLE_EQ(a.demand_mbps, 2.5);
  EXPECT_FALSE(a.candidates.empty());
}

TEST(Replay, DisconnectNotificationsDelivered) {
  const auto net = mini_network(2);
  const auto workload = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 600},
      SessionSpec{.user = 1, .connect_s = 10, .disconnect_s = 800},
  });
  RecordingSelector rec;
  runtime::ReplayDriver(net).run_sequential(workload, rec);
  ASSERT_EQ(rec.disconnects.size(), 2u);
  EXPECT_EQ(rec.disconnects[0].seconds(), 600);
  EXPECT_EQ(rec.disconnects[1].seconds(), 800);
}

TEST(Replay, LlfSpreadsSimultaneousBurst) {
  // 4 identical users arriving together on a 4-AP domain must not all
  // land on one AP (the default batch loop applies scratch updates).
  const auto net = mini_network(4);
  std::vector<SessionSpec> specs;
  for (UserId u = 0; u < 4; ++u) {
    specs.push_back(SessionSpec{.user = u, .connect_s = 0,
                                .disconnect_s = 600, .demand_mbps = 1.0});
  }
  const auto workload = make_trace(4, specs);
  core::LlfSelector llf;
  runtime::ReplayDriverConfig rc;
  // Whole building audible.
  rc.replay.radio.association_threshold_dbm = -75.0;
  const ReplayResult r =
      runtime::ReplayDriver(net, rc).run_sequential(workload, llf);
  std::set<ApId> used;
  for (const trace::SessionRecord& s : r.assigned.sessions()) {
    used.insert(s.ap);
  }
  EXPECT_EQ(used.size(), 4u);  // equal demands spread one per AP
}

TEST(Replay, EmptyWorkload) {
  const auto net = mini_network(2);
  const trace::Trace workload(1, 1, {});
  core::LlfSelector llf;
  const ReplayResult r =
      runtime::ReplayDriver(net).run_sequential(workload, llf);
  EXPECT_EQ(r.stats.num_sessions, 0u);
  EXPECT_EQ(r.stats.num_batches, 0u);
  EXPECT_DOUBLE_EQ(r.stats.mean_batch_size, 0.0);
}

TEST(Replay, RejectsNegativeWindow) {
  const auto net = mini_network(2);
  const trace::Trace workload(1, 1, {});
  core::LlfSelector llf;
  runtime::ReplayDriverConfig rc;
  rc.replay.dispatch_window_s = -1;
  EXPECT_THROW(runtime::ReplayDriver(net, rc).run_sequential(workload, llf),
               std::invalid_argument);
}

}  // namespace
}  // namespace s3::sim

#include "s3/analysis/churn.h"

#include <gtest/gtest.h>

#include "s3/core/baselines.h"
#include "s3/runtime/replay_driver.h"
#include "s3/util/stats.h"
#include "s3/trace/generator.h"
#include "testing/mini.h"

namespace s3::analysis {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;
using s3::testing::mini_network;

TEST(AppDynamicsVariation, ValidatesConfig) {
  const auto net = mini_network(2);
  const auto t = make_trace(1, {SessionSpec{.ap = 0}});
  AppDynamicsConfig cfg;
  cfg.begin = util::SimTime(0);
  cfg.end = util::SimTime(3600);
  cfg.sub_period_s = 700;  // does not divide 3600
  EXPECT_THROW(app_dynamics_variation(net, t, cfg), std::invalid_argument);
  cfg = AppDynamicsConfig{};
  cfg.begin = util::SimTime(3600);
  cfg.end = util::SimTime(0);
  EXPECT_THROW(app_dynamics_variation(net, t, cfg), std::invalid_argument);
}

TEST(AppDynamicsVariation, RequiresAssignedTrace) {
  const auto net = mini_network(2);
  const auto t = make_trace(1, {SessionSpec{}});
  AppDynamicsConfig cfg;
  cfg.begin = util::SimTime(0);
  cfg.end = util::SimTime(3600);
  EXPECT_THROW(app_dynamics_variation(net, t, cfg), std::invalid_argument);
}

TEST(AppDynamicsVariation, SkipsChurningSessions) {
  const auto net = mini_network(2);
  // One session covers the whole hour, one joins mid-hour: only the
  // first contributes, so the per-sub-period balance comes from a
  // single (modulated) session and is 0-normalized but defined.
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 7200, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 1800, .disconnect_s = 3000, .ap = 1},
  });
  AppDynamicsConfig cfg;
  cfg.begin = util::SimTime(0);
  cfg.end = util::SimTime(3600);
  cfg.period_s = 3600;
  cfg.sub_period_s = 600;
  const auto samples = app_dynamics_variation(net, t, cfg);
  EXPECT_EQ(samples.size(), 5u);  // 6 sub-periods -> 5 steps
}

TEST(AppDynamicsVariation, FixedUsersSmallVariation) {
  // The Fig. 3 claim: with churn removed, the balance index barely
  // moves (most |S| below a few percent).
  trace::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.num_users = 300;
  cfg.num_days = 2;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = 6;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  core::LlfSelector llf;
  const sim::ReplayResult r =
      runtime::ReplayDriver(g.network).run_sequential(g.workload, llf);

  AppDynamicsConfig ac;
  ac.begin = util::SimTime::from_days(1) + util::SimTime::from_hours(8);
  ac.end = util::SimTime::from_days(1) + util::SimTime::from_hours(20);
  ac.sub_period_s = 600;
  const auto samples = app_dynamics_variation(g.network, r.assigned, ac);
  ASSERT_GT(samples.size(), 20u);
  // Median |S| should be small (paper: >80 % below 0.02 at 10 min).
  EXPECT_LT(util::quantile(samples, 0.5), 0.1);
}

TEST(UserChurnTimeline, ShapesAndRange) {
  const auto net = mini_network(3);
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 1800, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3600, .ap = 1},
  });
  const UserChurnTimeline tl =
      user_churn_timeline(net, t, 0, util::SimTime(0), util::SimTime(3600),
                          600);
  EXPECT_EQ(tl.traffic_balance.size(), 6u);
  EXPECT_EQ(tl.user_balance.size(), 6u);
  EXPECT_EQ(tl.slot_s, 600);
  for (double b : tl.traffic_balance) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
}

TEST(UserChurnTimeline, TrafficTracksUsersOnGeneratedTrace) {
  // Fig. 4's observation: the user-count balance and the traffic
  // balance move together. Correlation over a busy day should be
  // clearly positive.
  trace::GeneratorConfig cfg;
  cfg.seed = 3;
  cfg.num_users = 400;
  cfg.num_days = 2;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 8;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  core::LlfSelector llf;
  const sim::ReplayResult r =
      runtime::ReplayDriver(g.network).run_sequential(g.workload, llf);
  const UserChurnTimeline tl = user_churn_timeline(
      g.network, r.assigned, 0,
      util::SimTime::from_days(1) + util::SimTime::from_hours(8),
      util::SimTime::from_days(2), 600);
  // Positive co-movement; the full-scale bench (bench_fig4) shows ~0.5.
  const double corr = util::pearson(tl.user_balance, tl.traffic_balance);
  EXPECT_GT(corr, 0.15);
}

TEST(UserChurnTimeline, RejectsBadController) {
  const auto net = mini_network(2);
  const auto t = make_trace(1, {SessionSpec{.ap = 0}});
  EXPECT_THROW(user_churn_timeline(net, t, 5, util::SimTime(0),
                                   util::SimTime(600)),
               std::invalid_argument);
}

}  // namespace
}  // namespace s3::analysis

#include "s3/core/online_s3.h"

#include <gtest/gtest.h>

#include "s3/core/evaluation.h"
#include "s3/trace/generator.h"
#include "testing/mini.h"

namespace s3::core {
namespace {

using s3::testing::mini_network;

social::SocialIndexModel empty_model(std::size_t n, double alpha = 0.3) {
  social::SocialModelConfig cfg;
  cfg.alpha = alpha;
  social::UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(n, 0);
  typing.centroids.assign(apps::kNumCategories, 0.0);
  return social::SocialIndexModel::from_parts(cfg, social::PairStore{},
                                              std::move(typing),
                                              social::TypeCoLeaveMatrix(1));
}

TEST(OnlineS3Selector, BehavesLikeS3WithoutEvents) {
  const auto net = mini_network(3);
  const auto base = empty_model(4);
  OnlineS3Selector online(&net, &base);
  S3Selector frozen(&net, &base);
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 3, 2.0);
  sim::Arrival a;
  a.session_index = 0;
  a.user = 0;
  a.controller = 0;
  a.demand_mbps = 1.0;
  a.candidates = {0, 1, 2};
  EXPECT_EQ(online.select_one(a, loads), frozen.select_one(a, loads));
  EXPECT_EQ(online.name(), "S3-online");
}

TEST(OnlineS3Selector, CloneCopiesLiveStateAndLearnsIndependently) {
  const auto net = mini_network(3);
  const auto base = empty_model(4);
  auto source = std::make_unique<OnlineS3Selector>(&net, &base);
  sim::Arrival a;
  a.controller = 0;
  a.demand_mbps = 1.0;
  a.candidates = {0, 1, 2};
  for (UserId u = 0; u < 4; ++u) {
    a.session_index = u;
    a.user = u;
    source->on_associate(a, 0);
  }
  // Users 0 and 1 leave together; 2 and 3 are still on the AP, so the
  // snapshot carries presence state as well as learnt pairs.
  source->on_disconnect(0, 0, 0, util::SimTime(3600));
  source->on_disconnect(1, 1, 0, util::SimTime(3630));

  const std::unique_ptr<sim::ApSelector> copy_ptr = source->clone();
  const auto& copy = dynamic_cast<const OnlineS3Selector&>(*copy_ptr);
  EXPECT_EQ(copy.state_digest(), source->state_digest());
  EXPECT_EQ(copy.model().updated_pairs(), source->model().updated_pairs());
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = 0; v < 4; ++v) {
      EXPECT_EQ(copy.model().theta(u, v), source->model().theta(u, v));
    }
  }

  // Users 2 and 3 co-leave on the copy only: the source is untouched.
  const std::uint64_t source_digest = source->state_digest();
  const double source_theta = source->model().theta(2, 3);
  copy_ptr->on_disconnect(2, 2, 0, util::SimTime(7200));
  copy_ptr->on_disconnect(3, 3, 0, util::SimTime(7260));
  EXPECT_EQ(source->state_digest(), source_digest);
  EXPECT_EQ(source->model().theta(2, 3), source_theta);
  EXPECT_NE(copy.state_digest(), source_digest);
  EXPECT_DOUBLE_EQ(copy.model().theta(2, 3), 1.0);

  // The same events on the source bring the two back in step.
  source->on_disconnect(2, 2, 0, util::SimTime(7200));
  source->on_disconnect(3, 3, 0, util::SimTime(7260));
  EXPECT_EQ(source->state_digest(), copy.state_digest());
  EXPECT_EQ(source->model().theta(2, 3), copy.model().theta(2, 3));

  // The copy's placements consult its own model, not the source's.
  source.reset();
  sim::ApLoadTracker loads(net);
  a.session_index = 9;
  a.user = 2;
  EXPECT_LT(copy_ptr->select_one(a, loads), net.num_aps());
}

TEST(OnlineS3Selector, EndToEndReplayLearns) {
  trace::GeneratorConfig cfg;
  cfg.seed = 31;
  cfg.num_users = 250;
  cfg.num_days = 10;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = 6;
  const trace::GeneratedTrace world = trace::generate_campus_trace(cfg);

  // Train on a *single* day only, then let online learning absorb the
  // rest during replay of days 1..10.
  EvaluationConfig eval;
  eval.train_days = 1;
  eval.test_days = 9;
  const social::SocialIndexModel base =
      train_from_workload(world.network, world.workload, eval);

  OnlineS3Selector online(&world.network, &base);
  const trace::Trace rest = world.workload.slice(
      util::SimTime::from_days(1), util::SimTime::from_days(10));
  const sim::ReplayResult r =
      runtime::ReplayDriver(world.network, {.replay = eval.replay})
          .run_sequential(rest, online);
  EXPECT_TRUE(r.assigned.fully_assigned());
  // The live model accumulated relationships the 1-day base missed.
  EXPECT_GT(online.model().updated_pairs(), base.pair_stats().size());
}

}  // namespace
}  // namespace s3::core

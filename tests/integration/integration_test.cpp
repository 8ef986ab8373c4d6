// End-to-end pipeline tests on a small campus: generate -> persist ->
// replay -> learn -> compare, plus whole-pipeline determinism.

#include <gtest/gtest.h>

#include <sstream>

#include "s3/analysis/events.h"
#include "s3/analysis/profiles.h"
#include "s3/core/evaluation.h"
#include "s3/social/social_index.h"
#include "s3/trace/io.h"

namespace s3 {
namespace {

trace::GeneratedTrace make_world(std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 250;
  cfg.num_days = 10;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = 6;
  return trace::generate_campus_trace(cfg);
}

TEST(Integration, FullPipelineRuns) {
  const auto world = make_world(3);

  core::EvaluationConfig eval;
  eval.train_days = 8;
  eval.test_days = 2;

  const core::ComparisonResult r =
      core::compare_s3_vs_llf(world.network, world.workload, eval);
  EXPECT_GT(r.llf.slots_scored, 50u);
  EXPECT_GT(r.s3.mean, 0.2);
  EXPECT_LT(r.s3.mean, 1.0);
}

TEST(Integration, PipelineSurvivesCsvRoundTrip) {
  const auto world = make_world(4);

  std::stringstream ss;
  ASSERT_TRUE(trace::write_csv(ss, world.workload));
  const trace::ReadResult rr = trace::read_csv(ss);
  ASSERT_TRUE(rr.trace.has_value()) << rr.error;

  core::EvaluationConfig eval;
  eval.train_days = 8;
  eval.test_days = 2;
  core::LlfSelector a_llf(eval.baseline_metric), b_llf(eval.baseline_metric);
  const core::PolicyScore a =
      core::score_policy(world.network, world.workload, a_llf, eval);
  const core::PolicyScore b =
      core::score_policy(world.network, *rr.trace, b_llf, eval);
  EXPECT_NEAR(a.mean, b.mean, 1e-9);  // CSV round trip changed nothing
}

TEST(Integration, TrainedModelReflectsGroundTruthGroups) {
  const auto world = make_world(5);
  core::EvaluationConfig eval;
  eval.train_days = 8;
  eval.test_days = 2;
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);

  // At least half of same-group pairs cross the theta threshold.
  std::size_t strong = 0, total = 0;
  for (const auto& grp : world.truth.groups) {
    for (std::size_t i = 0; i < grp.members.size(); ++i) {
      for (std::size_t j = i + 1; j < grp.members.size(); ++j) {
        ++total;
        if (model.theta(grp.members[i], grp.members[j]) > 0.3) ++strong;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(strong) / static_cast<double>(total), 0.5);
}

TEST(Integration, AnalysisChainOnAssignedTrace) {
  const auto world = make_world(6);
  core::LlfSelector llf;
  const sim::ReplayResult r =
      runtime::ReplayDriver(world.network).run_sequential(world.workload, llf);
  ASSERT_TRUE(r.assigned.fully_assigned());

  // Event extraction and profile building run cleanly on the result.
  const auto stats = social::extract_pair_stats(r.assigned, {});
  EXPECT_GT(stats.size(), 10u);
  const auto leave = analysis::per_user_leave_stats(
      r.assigned, util::SimTime::from_minutes(5));
  EXPECT_EQ(leave.size(), r.assigned.num_users());
  const apps::ProfileStore profiles = analysis::build_profiles(r.assigned);
  EXPECT_EQ(profiles.num_users(), r.assigned.num_users());

  // Most users show some co-leaving (Fig. 5's qualitative claim).
  std::size_t social_users = 0, active_users = 0;
  for (const auto& s : leave) {
    if (s.leavings == 0) continue;
    ++active_users;
    if (s.co_leavings > 0) ++social_users;
  }
  ASSERT_GT(active_users, 100u);
  EXPECT_GT(static_cast<double>(social_users) /
                static_cast<double>(active_users),
            0.5);
}

TEST(Integration, WholePipelineDeterministic) {
  const auto w1 = make_world(9);
  const auto w2 = make_world(9);
  core::EvaluationConfig eval;
  eval.train_days = 8;
  eval.test_days = 2;
  const core::ComparisonResult a =
      core::compare_s3_vs_llf(w1.network, w1.workload, eval);
  const core::ComparisonResult b =
      core::compare_s3_vs_llf(w2.network, w2.workload, eval);
  EXPECT_DOUBLE_EQ(a.s3.mean, b.s3.mean);
  EXPECT_DOUBLE_EQ(a.llf.mean, b.llf.mean);
  EXPECT_DOUBLE_EQ(a.balance_gain, b.balance_gain);
}

TEST(Integration, S3NeverViolatesCandidates) {
  const auto world = make_world(10);
  core::EvaluationConfig eval;
  eval.train_days = 8;
  eval.test_days = 2;
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);
  core::S3Selector s3(&world.network, &model, eval.s3);
  const trace::Trace test = world.workload.slice(
      util::SimTime::from_days(8), util::SimTime::from_days(10));
  const sim::ReplayResult r =
      runtime::ReplayDriver(world.network, {.replay = eval.replay})
          .run_sequential(test, s3);
  for (const trace::SessionRecord& s : r.assigned.sessions()) {
    const auto cands = wlan::candidate_aps(world.network, eval.replay.radio,
                                           s.building, s.pos);
    EXPECT_NE(std::find(cands.begin(), cands.end(), s.ap), cands.end());
  }
}

}  // namespace
}  // namespace s3

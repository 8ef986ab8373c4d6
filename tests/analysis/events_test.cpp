#include "s3/analysis/events.h"

#include <gtest/gtest.h>

#include "s3/social/social_index.h"
#include "testing/mini.h"

namespace s3::analysis {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;
using social::extract_pair_stats;

EventExtractionConfig windows(std::int64_t co_leave_s = 300,
                              std::int64_t encounter_s = 600) {
  EventExtractionConfig cfg;
  cfg.co_leave_window = util::SimTime(co_leave_s);
  cfg.min_encounter_overlap = util::SimTime(encounter_s);
  cfg.co_coming_window = util::SimTime(co_leave_s);
  return cfg;
}

TEST(ExtractPairStats, RequiresAssignedTrace) {
  const auto t = make_trace(2, {SessionSpec{}});
  EXPECT_THROW(extract_pair_stats(t, windows()), std::invalid_argument);
}

TEST(ExtractPairStats, EncounterNeedsMinOverlap) {
  // Overlap 400 s < 600 s threshold: no encounter.
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 1000, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 600, .disconnect_s = 2000, .ap = 0},
  });
  const auto stats = extract_pair_stats(t, windows());
  const PairEventStats* ps = stats.find(UserPair(0, 1));
  EXPECT_TRUE(ps == nullptr || ps->encounters == 0);
}

TEST(ExtractPairStats, EncounterAndCoLeave) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 100, .disconnect_s = 3700, .ap = 0},
  });
  const auto stats = extract_pair_stats(t, windows());
  const PairEventStats* ps = stats.find(UserPair(0, 1));
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->encounters, 1u);
  EXPECT_EQ(ps->co_leaves, 1u);  // left 100 s apart <= 300 s
  EXPECT_EQ(ps->co_comings, 1u);
  EXPECT_DOUBLE_EQ(ps->co_leave_probability(), 1.0);
}

TEST(ExtractPairStats, EncounterWithoutCoLeave) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 7200, .ap = 0},
  });
  const auto stats = extract_pair_stats(t, windows());
  const PairEventStats* ps = stats.find(UserPair(0, 1));
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->encounters, 1u);
  EXPECT_EQ(ps->co_leaves, 0u);  // left 3600 s apart
  EXPECT_DOUBLE_EQ(ps->co_leave_probability(), 0.0);
}

TEST(ExtractPairStats, DifferentApNoEvent) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3650, .ap = 1},
  });
  const auto stats = extract_pair_stats(t, windows());
  EXPECT_TRUE(stats.empty());
}

TEST(ExtractPairStats, SameUserIgnored) {
  const auto t = make_trace(1, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 0, .connect_s = 100, .disconnect_s = 3700, .ap = 0},
  });
  EXPECT_TRUE(extract_pair_stats(t, windows()).empty());
}

TEST(ExtractPairStats, MultipleMeetingsAccumulate) {
  std::vector<SessionSpec> specs;
  for (int day = 0; day < 3; ++day) {
    const std::int64_t base = day * 86400;
    specs.push_back(SessionSpec{.user = 0, .connect_s = base,
                                .disconnect_s = base + 3600, .ap = 0});
    specs.push_back(SessionSpec{.user = 1, .connect_s = base + 50,
                                .disconnect_s = base + 3600 + (day == 2 ? 4000 : 60),
                                .ap = 0});
  }
  const auto stats = extract_pair_stats(make_trace(2, specs, 3), windows());
  const PairEventStats* ps = stats.find(UserPair(0, 1));
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->encounters, 3u);
  EXPECT_EQ(ps->co_leaves, 2u);  // third meeting: user 1 stayed on
  EXPECT_NEAR(ps->co_leave_probability(), 2.0 / 3.0, 1e-12);
}

TEST(ExtractPairStats, WindowWidthChangesCoLeaves) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 4000, .ap = 0},
  });
  // Left 400 s apart: co-leave under a 600 s window, not under 300 s.
  const auto wide = extract_pair_stats(t, windows(600));
  const auto narrow = extract_pair_stats(t, windows(300));
  ASSERT_NE(wide.find(UserPair(0, 1)), nullptr);
  ASSERT_NE(narrow.find(UserPair(0, 1)), nullptr);
  EXPECT_EQ(wide.find(UserPair(0, 1))->co_leaves, 1u);
  EXPECT_EQ(narrow.find(UserPair(0, 1))->co_leaves, 0u);
}

TEST(ExtractPairStats, RejectsBadWindows) {
  const auto t = make_trace(1, {SessionSpec{.ap = 0}});
  EventExtractionConfig bad;
  bad.co_leave_window = util::SimTime(0);
  EXPECT_THROW(extract_pair_stats(t, bad), std::invalid_argument);
}

TEST(PerUserLeaveStats, CountsCoLeavings) {
  const auto t = make_trace(3, {
      // Users 0 and 1 leave AP 0 together; user 2 leaves AP 0 much later.
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3700, .ap = 0},
      SessionSpec{.user = 2, .connect_s = 0, .disconnect_s = 9000, .ap = 0},
  });
  const auto stats = per_user_leave_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].leavings, 1u);
  EXPECT_EQ(stats[0].co_leavings, 1u);
  EXPECT_EQ(stats[1].co_leavings, 1u);
  EXPECT_EQ(stats[2].leavings, 1u);
  EXPECT_EQ(stats[2].co_leavings, 0u);
  EXPECT_DOUBLE_EQ(stats[0].co_leave_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats[2].co_leave_fraction(), 0.0);
}

TEST(PerUserLeaveStats, DifferentApsDoNotCoLeave) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3600, .ap = 1},
  });
  const auto stats = per_user_leave_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].co_leavings, 0u);
  EXPECT_EQ(stats[1].co_leavings, 0u);
}

TEST(PerUserLeaveStats, OwnSessionsDoNotCount) {
  const auto t = make_trace(1, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 0, .connect_s = 100, .disconnect_s = 3650, .ap = 0},
  });
  const auto stats = per_user_leave_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].leavings, 2u);
  EXPECT_EQ(stats[0].co_leavings, 0u);
}

TEST(PerUserLeaveStats, ZeroLeavingsFractionIsZero) {
  const UserLeaveStats empty;
  EXPECT_DOUBLE_EQ(empty.co_leave_fraction(), 0.0);
}

TEST(PerUserArrivalStats, CountsCoComings) {
  const auto t = make_trace(3, {
      // Users 0 and 1 arrive at AP 0 within a minute; user 2 arrives
      // much later.
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 60, .disconnect_s = 5000, .ap = 0},
      SessionSpec{.user = 2, .connect_s = 7200, .disconnect_s = 9000, .ap = 0},
  });
  const auto stats = per_user_arrival_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].arrivals, 1u);
  EXPECT_EQ(stats[0].co_comings, 1u);
  EXPECT_EQ(stats[1].co_comings, 1u);
  EXPECT_EQ(stats[2].co_comings, 0u);
  EXPECT_DOUBLE_EQ(stats[0].co_coming_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats[2].co_coming_fraction(), 0.0);
}

TEST(PerUserArrivalStats, DifferentApNoCoComing) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 10, .disconnect_s = 3600, .ap = 1},
  });
  const auto stats = per_user_arrival_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].co_comings, 0u);
  EXPECT_EQ(stats[1].co_comings, 0u);
}

TEST(PerUserArrivalStats, OwnSessionsDoNotCount) {
  const auto t = make_trace(1, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 0, .connect_s = 30, .disconnect_s = 3700, .ap = 0},
  });
  const auto stats = per_user_arrival_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].arrivals, 2u);
  EXPECT_EQ(stats[0].co_comings, 0u);
}

}  // namespace
}  // namespace s3::analysis

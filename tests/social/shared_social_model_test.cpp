// The live social model (SharedSocialModel) and its event detector
// (PresenceTable), driven single-owner the way core::OnlineS3Selector
// drives them. The concurrent serve-plane use is covered in
// tests/serve/serve_test.cpp.

#include "s3/social/shared_social_model.h"

#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

#include "s3/core/baselines.h"
#include "s3/runtime/replay_driver.h"
#include "s3/trace/generator.h"

namespace s3::social {
namespace {

SocialIndexModel empty_model(std::size_t n, double alpha = 0.3) {
  SocialModelConfig cfg;
  cfg.alpha = alpha;
  UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(n, 0);
  typing.centroids.assign(apps::kNumCategories, 0.0);
  return SocialIndexModel::from_parts(cfg, PairStore{}, std::move(typing),
                                      TypeCoLeaveMatrix(1));
}

/// The single-owner learning loop: one presence table detects the
/// events, one live model records them.
struct Learner {
  SharedSocialModel model;
  PresenceTable presence;

  explicit Learner(
      const SocialIndexModel* base,
      util::SimTime co_leave_window = util::SimTime::from_minutes(5),
      util::SimTime min_encounter_overlap = util::SimTime::from_minutes(10))
      : model(base), presence(co_leave_window, min_encounter_overlap) {}

  void arrive(std::size_t session, UserId user, ApId ap, std::int64_t t) {
    presence.arrive(ap, session, user, util::SimTime(t));
  }
  void depart(std::size_t session, ApId ap, std::int64_t t) {
    model.record_departure(presence.depart(ap, session, util::SimTime(t)));
  }
};

TEST(SharedSocialModel, StartsAtBaseTheta) {
  const auto base = empty_model(4);
  const SharedSocialModel model(&base);
  EXPECT_DOUBLE_EQ(model.theta(0, 1), base.theta(0, 1));
  EXPECT_DOUBLE_EQ(model.theta(2, 2), 0.0);
  EXPECT_EQ(model.updated_pairs(), 0u);
  EXPECT_EQ(model.num_users(), 4u);
}

TEST(SharedSocialModel, LearnsCoLeavingPair) {
  const auto base = empty_model(4);
  Learner live(&base);
  // Users 0 and 1 share AP 3 for an hour and leave a minute apart.
  live.arrive(100, 0, 3, 0);
  live.arrive(101, 1, 3, 60);
  live.depart(100, 3, 3600);
  live.depart(101, 3, 3660);
  EXPECT_GT(live.model.updated_pairs(), 0u);
  // One encounter, one co-leave -> P(L|E) = 1.
  EXPECT_DOUBLE_EQ(live.model.theta(0, 1), 1.0);
  // Untouched pairs still answer through the base.
  EXPECT_DOUBLE_EQ(live.model.theta(2, 3), 0.0);
  // The store epoch moved once per event, and the one live pair is the
  // learnt one.
  EXPECT_EQ(live.model.read_epoch(), 2u);
  const std::vector<ConcurrentPairStore::Entry> entries =
      live.model.live().sorted_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.front().pair, UserPair(0, 1));
  EXPECT_EQ(entries.front().stats.co_leave_probability(),
            live.model.theta(0, 1));
}

TEST(PresenceTable, EncounterWithoutCoLeave) {
  const auto base = empty_model(3);
  Learner live(&base);
  live.arrive(1, 0, 0, 0);
  live.arrive(2, 1, 0, 0);
  const PresenceTable::DepartureEvents first =
      live.presence.depart(0, 1, util::SimTime(3600));
  EXPECT_EQ(first.user, 0u);
  EXPECT_EQ(first.encountered, std::vector<UserId>{1});
  EXPECT_TRUE(first.co_left.empty());
  live.model.record_departure(first);
  // User 1 leaves an hour later: no co-leave.
  const PresenceTable::DepartureEvents second =
      live.presence.depart(0, 2, util::SimTime(7200));
  EXPECT_TRUE(second.encountered.empty());
  EXPECT_TRUE(second.co_left.empty());
  live.model.record_departure(second);
  EXPECT_DOUBLE_EQ(live.model.theta(0, 1), 0.0);  // 1 encounter, 0 co-leaves
  EXPECT_EQ(live.model.updated_pairs(), 1u);
}

TEST(PresenceTable, ShortOverlapIsNoEncounter) {
  const auto base = empty_model(3);
  Learner live(&base);
  live.arrive(1, 0, 0, 0);
  live.arrive(2, 1, 0, 0);
  // Only five minutes together (< 10-minute encounter threshold).
  live.depart(1, 0, 300);
  live.depart(2, 0, 320);
  EXPECT_EQ(live.model.updated_pairs(), 0u);
}

TEST(PresenceTable, DifferentApsDoNotInteract) {
  const auto base = empty_model(3);
  Learner live(&base);
  live.arrive(1, 0, 0, 0);
  live.arrive(2, 1, 1, 0);
  live.depart(1, 0, 3600);
  live.depart(2, 1, 3610);
  EXPECT_EQ(live.model.updated_pairs(), 0u);
}

TEST(PresenceTable, UntrackedSessionReportsNothing) {
  PresenceTable presence(util::SimTime::from_minutes(5),
                         util::SimTime::from_minutes(10));
  const PresenceTable::DepartureEvents events =
      presence.depart(0, 7, util::SimTime(100));
  EXPECT_EQ(events.user, kInvalidUser);
  EXPECT_TRUE(events.encountered.empty());
  EXPECT_TRUE(events.co_left.empty());
}

TEST(PresenceTable, RejectsNonPositiveWindows) {
  const util::SimTime five = util::SimTime::from_minutes(5);
  EXPECT_THROW(PresenceTable(util::SimTime(0), five), std::invalid_argument);
  EXPECT_THROW(PresenceTable(five, util::SimTime(0)), std::invalid_argument);
}

TEST(SharedSocialModel, RepeatedEpisodesConverge) {
  const auto base = empty_model(2);
  Learner live(&base);
  // Three meetings; the pair co-leaves in two of them.
  for (int episode = 0; episode < 3; ++episode) {
    const std::int64_t t0 = episode * 86400;
    live.arrive(episode * 2 + 0, 0, 0, t0);
    live.arrive(episode * 2 + 1, 1, 0, t0);
    live.depart(episode * 2 + 0, 0, t0 + 3600);
    const std::int64_t gap = episode == 2 ? 7200 : 60;
    live.depart(episode * 2 + 1, 0, t0 + 3600 + gap);
  }
  EXPECT_NEAR(live.model.theta(0, 1), 2.0 / 3.0, 1e-12);
}

TEST(SharedSocialModel, SeedsFromTrainedCounts) {
  // Base has 3 encounters / 3 co-leaves for the pair; one more
  // encounter without a co-leave should give 3/4.
  SocialModelConfig cfg;
  cfg.alpha = 0.0;
  PairStore stats;
  stats.assign(UserPair(0, 1), {3, 3, 0});
  UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(2, 0);
  const auto base = SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), TypeCoLeaveMatrix(1));

  Learner live(&base);
  live.arrive(1, 0, 0, 0);
  live.arrive(2, 1, 0, 0);
  live.depart(1, 0, 3600);
  live.depart(2, 0, 20000);  // no co-leave
  EXPECT_NEAR(live.model.theta(0, 1), 3.0 / 4.0, 1e-12);
}

TEST(SharedSocialModel, CheckpointPersistsLiveLearning) {
  const auto base = empty_model(3, /*alpha=*/0.0);
  Learner live(&base);
  live.arrive(1, 0, 0, 0);
  live.arrive(2, 1, 0, 0);
  live.depart(1, 0, 3600);
  live.depart(2, 0, 3650);

  const SocialIndexModel frozen = live.model.checkpoint();
  EXPECT_DOUBLE_EQ(frozen.theta(0, 1), live.model.theta(0, 1));
  EXPECT_DOUBLE_EQ(frozen.theta(0, 1), 1.0);
  EXPECT_EQ(frozen.pair_stats().size(), 1u);
  // Typing carried over.
  EXPECT_EQ(frozen.typing().num_types, base.typing().num_types);
}

TEST(SharedSocialModel, CopyKeepsTheta) {
  const auto base = empty_model(4);
  Learner live(&base);
  live.arrive(1, 0, 0, 0);
  live.arrive(2, 1, 0, 0);
  live.arrive(3, 2, 0, 0);
  live.depart(1, 0, 3600);
  live.depart(2, 0, 3620);

  const SharedSocialModel copy(live.model);
  EXPECT_EQ(copy.updated_pairs(), live.model.updated_pairs());
  EXPECT_EQ(copy.state_digest(), live.model.state_digest());
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = 0; v < 4; ++v) {
      EXPECT_EQ(copy.theta(u, v), live.model.theta(u, v));
    }
  }
  // The copy learns on its own: the source's θ and epoch stay put.
  const double before = live.model.theta(0, 2);
  const std::uint64_t source_epoch = live.model.read_epoch();
  SharedSocialModel learner(copy);
  learner.record_co_leave(0, 2);
  EXPECT_NE(learner.theta(0, 2), before);
  EXPECT_EQ(live.model.theta(0, 2), before);
  EXPECT_EQ(live.model.read_epoch(), source_epoch);
  EXPECT_GT(learner.read_epoch(), 0u);
}

TEST(PresenceTable, AgreesWithOfflineExtractorExactly) {
  // The incremental detector and extract_pair_stats implement
  // the same §III-D definitions; on the same assigned trace their
  // encounter/co-leave counts must match pair for pair.
  trace::GeneratorConfig cfg;
  cfg.seed = 77;
  cfg.num_users = 120;
  cfg.num_days = 4;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);

  core::LlfSelector llf;
  const sim::ReplayResult run =
      runtime::ReplayDriver(g.network).run_sequential(g.workload, llf);

  // Offline.
  analysis::EventExtractionConfig windows;
  const PairStore offline = extract_pair_stats(run.assigned, windows);

  // Online: feed the assigned trace's association timeline.
  const auto base = empty_model(120);
  Learner live(&base, windows.co_leave_window, windows.min_encounter_overlap);
  struct Ev {
    util::SimTime when;
    bool arrive;
    std::size_t idx;
  };
  std::vector<Ev> events;
  const auto sessions = run.assigned.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    events.push_back({sessions[i].connect, true, i});
    events.push_back({sessions[i].disconnect, false, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) { return a.when < b.when; });
  for (const Ev& e : events) {
    const trace::SessionRecord& s = sessions[e.idx];
    if (e.arrive) {
      live.arrive(e.idx, s.user, s.ap, e.when.seconds());
    } else {
      live.depart(e.idx, s.ap, e.when.seconds());
    }
  }

  // Compare the encounter/co-leave ledgers (co-comings are offline-only
  // bookkeeping the online detector does not need).
  const SocialIndexModel check = live.model.checkpoint();
  std::size_t offline_encounter_pairs = 0;
  for (const auto& [pair, off] : offline) {
    if (off.encounters == 0) continue;
    ++offline_encounter_pairs;
    const PairStore::Stats* found = check.pair_stats().find(pair);
    ASSERT_NE(found, nullptr)
        << "pair " << pair.a << "," << pair.b << " missing online";
    EXPECT_EQ(found->encounters, off.encounters)
        << "pair " << pair.a << "," << pair.b;
    EXPECT_EQ(found->co_leaves, off.co_leaves)
        << "pair " << pair.a << "," << pair.b;
  }
  std::size_t online_encounter_pairs = 0;
  for (const auto& [pair, stats] : check.pair_stats()) {
    if (stats.encounters > 0) ++online_encounter_pairs;
  }
  EXPECT_EQ(online_encounter_pairs, offline_encounter_pairs);
}

}  // namespace
}  // namespace s3::social

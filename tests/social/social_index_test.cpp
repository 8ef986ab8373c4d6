#include "s3/social/social_index.h"

#include <gtest/gtest.h>

#include <numeric>

#include "s3/trace/generator.h"
#include "s3/util/stats.h"
#include "s3/wlan/radio.h"
#include "testing/mini.h"

namespace s3::social {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;

SocialIndexModel toy_model(double alpha = 0.3) {
  // Two users of type 0, one of type 1; pair (0,1) encountered 4 times
  // and co-left 2 times.
  SocialModelConfig cfg;
  cfg.alpha = alpha;
  PairStore stats;
  stats.assign(UserPair(0, 1), {4, 2, 0});
  UserTyping typing;
  typing.num_types = 2;
  typing.type_of_user = {0, 0, 1};
  typing.centroids.assign(2 * apps::kNumCategories, 0.0);
  TypeCoLeaveMatrix matrix(2);
  matrix.set(0, 0, 0.6);
  matrix.set(1, 1, 0.5);
  matrix.set(0, 1, 0.1);
  return SocialIndexModel::from_parts(cfg, std::move(stats), std::move(typing),
                                      std::move(matrix));
}

TEST(SocialIndexModel, ThetaCombinesHistoryAndTypePrior) {
  const SocialIndexModel m = toy_model(0.3);
  // theta(0,1) = P(L|E) + alpha * T(0,0) = 0.5 + 0.3*0.6.
  EXPECT_NEAR(m.theta(0, 1), 0.5 + 0.18, 1e-12);
  // Pair (0,2) never met: type prior only.
  EXPECT_NEAR(m.theta(0, 2), 0.3 * 0.1, 1e-12);
  // Symmetry and self.
  EXPECT_DOUBLE_EQ(m.theta(0, 1), m.theta(1, 0));
  EXPECT_DOUBLE_EQ(m.theta(1, 1), 0.0);
}

TEST(SocialIndexModel, AlphaScalesTypeTerm) {
  const SocialIndexModel a = toy_model(0.1);
  const SocialIndexModel b = toy_model(0.5);
  EXPECT_NEAR(b.theta(0, 2) - a.theta(0, 2), 0.4 * 0.1, 1e-12);
}

TEST(SocialIndexModel, CoLeaveProbability) {
  const SocialIndexModel m = toy_model();
  EXPECT_DOUBLE_EQ(m.co_leave_probability(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.co_leave_probability(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.co_leave_probability(1, 1), 0.0);
}

TEST(SocialIndexModel, MinEncountersSuppressesThinPairs) {
  // The (0,1) pair has 4 encounters; with min_encounters = 5 its
  // history term vanishes and only the type prior remains.
  SocialModelConfig cfg;
  cfg.alpha = 0.3;
  cfg.min_encounters = 5;
  PairStore stats;
  stats.assign(UserPair(0, 1), {4, 2, 0});
  UserTyping typing;
  typing.num_types = 2;
  typing.type_of_user = {0, 0, 1};
  TypeCoLeaveMatrix matrix(2);
  matrix.set(0, 0, 0.6);
  const SocialIndexModel m = SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), std::move(matrix));
  EXPECT_DOUBLE_EQ(m.co_leave_probability(0, 1), 0.0);
  EXPECT_NEAR(m.theta(0, 1), 0.3 * 0.6, 1e-12);
}

TEST(SocialIndexModel, ThetaValidatesUsers) {
  const SocialIndexModel m = toy_model();
  EXPECT_THROW(m.theta(0, 99), std::invalid_argument);
}

TEST(SocialIndexModel, TrainRequiresAssignedTrace) {
  const auto unassigned = make_trace(2, {SessionSpec{}});
  EXPECT_THROW(SocialIndexModel::train(unassigned, {}),
               std::invalid_argument);
}

TEST(SocialIndexModel, TrainValidatesConfig) {
  const auto t = make_trace(2, {SessionSpec{.ap = 0}});
  SocialModelConfig bad;
  bad.alpha = -0.1;
  EXPECT_THROW(SocialIndexModel::train(t, bad), std::invalid_argument);
  bad = SocialModelConfig{};
  bad.history_days = -1;
  EXPECT_THROW(SocialIndexModel::train(t, bad), std::invalid_argument);
}

TEST(SocialIndexModel, TrainOnToyTrace) {
  // Users 0 and 1 repeatedly meet and co-leave on AP 0; user 2 is a
  // loner with a very different app profile.
  std::vector<SessionSpec> specs;
  for (int d = 0; d < 5; ++d) {
    const std::int64_t base = d * 86400 + 8 * 3600;
    specs.push_back(SessionSpec{.user = 0, .connect_s = base,
                                .disconnect_s = base + 3600, .ap = 0,
                                .web_bytes = 1000.0});
    specs.push_back(SessionSpec{.user = 1, .connect_s = base + 60,
                                .disconnect_s = base + 3660, .ap = 0,
                                .web_bytes = 900.0});
    specs.push_back(SessionSpec{.user = 2, .connect_s = base,
                                .disconnect_s = base + 7200, .ap = 1,
                                .web_bytes = 10.0});
  }
  const auto t = make_trace(3, specs, 5);
  SocialModelConfig cfg;
  cfg.typing.k = 2;
  const SocialIndexModel m = SocialIndexModel::train(t, cfg);
  EXPECT_EQ(m.num_users(), 3u);
  // The bonded pair has high theta; the loner never met anyone.
  EXPECT_GT(m.theta(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.co_leave_probability(0, 2), 0.0);
  EXPECT_GE(m.theta(0, 2), 0.0);
}

TEST(SocialIndexModel, HistoryDaysRestrictsLearning) {
  // Pair co-leaves only on day 0; with a 1-day look-back from the end
  // of a 5-day trace, that evidence is forgotten.
  std::vector<SessionSpec> specs;
  specs.push_back(SessionSpec{.user = 0, .connect_s = 8 * 3600,
                              .disconnect_s = 9 * 3600, .ap = 0});
  specs.push_back(SessionSpec{.user = 1, .connect_s = 8 * 3600 + 30,
                              .disconnect_s = 9 * 3600 + 30, .ap = 0});
  // Keep both users alive on later days (solo sessions, different APs).
  for (int d = 1; d < 5; ++d) {
    specs.push_back(SessionSpec{.user = 0,
                                .connect_s = d * 86400 + 8 * 3600,
                                .disconnect_s = d * 86400 + 9 * 3600,
                                .ap = 0});
    specs.push_back(SessionSpec{.user = 1,
                                .connect_s = d * 86400 + 10 * 3600,
                                .disconnect_s = d * 86400 + 11 * 3600,
                                .ap = 1});
  }
  const auto t = make_trace(2, specs, 5);
  SocialModelConfig full;
  full.typing.k = 1;
  const SocialIndexModel with_history = SocialIndexModel::train(t, full);
  EXPECT_GT(with_history.co_leave_probability(0, 1), 0.9);

  SocialModelConfig limited = full;
  limited.history_days = 1;
  const SocialIndexModel without = SocialIndexModel::train(t, limited);
  EXPECT_DOUBLE_EQ(without.co_leave_probability(0, 1), 0.0);
}

TEST(SocialIndexModel, ThetaRowMatchesScalarBitwise) {
  // The batched kernel is a perf path, not a semantics path: over a
  // *trained* model (real pair table, real type matrix) every row
  // entry must equal the scalar theta() bit for bit — replay
  // byte-identity depends on it.
  trace::GeneratorConfig cfg;
  cfg.seed = 5;
  cfg.num_users = 120;
  cfg.num_days = 5;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  const SocialIndexModel m =
      SocialIndexModel::train(g.workload.with_assignments(aps), {});

  std::vector<UserId> vs(m.num_users());
  std::iota(vs.begin(), vs.end(), UserId{0});
  std::vector<double> out(vs.size());
  std::vector<double> base_out(vs.size());
  for (UserId u = 0; u < m.num_users(); ++u) {
    m.theta_row(u, vs, out);
    for (std::size_t i = 0; i < vs.size(); ++i) {
      // operator== — bit identity, not EXPECT_NEAR.
      ASSERT_TRUE(out[i] == m.theta(u, vs[i]))
          << "u=" << u << " v=" << vs[i];
    }
    // The unoverridden ThetaProvider default (a theta() loop) must
    // agree with the flat-probe override exactly.
    m.ThetaProvider::theta_row(u, vs, base_out);
    ASSERT_TRUE(base_out == out) << "u=" << u;
  }
}

TEST(SocialIndexModel, ThetaRowSupportsPartialAndEmptyRows) {
  const SocialIndexModel m = toy_model(0.3);
  const std::vector<UserId> vs = {2, 0, 1};
  std::vector<double> out(vs.size());
  m.theta_row(1, vs, out);
  EXPECT_DOUBLE_EQ(out[0], m.theta(1, 2));
  EXPECT_DOUBLE_EQ(out[1], m.theta(1, 0));
  EXPECT_DOUBLE_EQ(out[2], 0.0);  // self
  m.theta_row(0, std::span<const UserId>{}, std::span<double>{});
}

TEST(SocialIndexModel, MaxTypeTermBoundsThePrior) {
  const SocialIndexModel m = toy_model(0.3);
  EXPECT_NEAR(m.max_type_term(), 0.3 * 0.6, 1e-12);
  for (UserId u = 0; u < 3; ++u) {
    for (UserId v = 0; v < 3; ++v) {
      if (u == v) continue;
      EXPECT_LE(m.theta(u, v) - m.co_leave_probability(u, v),
                m.max_type_term() + 1e-12);
    }
  }
}

TEST(SocialIndexModel, EndToEndOnGeneratedTrace) {
  trace::GeneratorConfig cfg;
  cfg.seed = 21;
  cfg.num_users = 200;
  cfg.num_days = 8;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 6;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);

  // "Collected" trace: strongest-RSSI assignment is enough here.
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  const trace::Trace assigned = g.workload.with_assignments(aps);
  const SocialIndexModel m = SocialIndexModel::train(assigned, {});

  // Same-group pairs should carry a much stronger mean theta than
  // random pairs.
  util::RunningStats same, random_pairs;
  util::Rng rng(1);
  for (const auto& grp : g.truth.groups) {
    for (std::size_t i = 0; i < grp.members.size(); ++i) {
      for (std::size_t j = i + 1; j < grp.members.size(); ++j) {
        same.add(m.theta(grp.members[i], grp.members[j]));
      }
    }
  }
  for (int k = 0; k < 2000; ++k) {
    const UserId u = static_cast<UserId>(rng.index(200));
    const UserId v = static_cast<UserId>(rng.index(200));
    if (u != v) random_pairs.add(m.theta(u, v));
  }
  EXPECT_GT(same.mean(), 3.0 * random_pairs.mean());
}

}  // namespace
}  // namespace s3::social

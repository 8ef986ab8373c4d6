#include "s3/social/typing.h"

#include <gtest/gtest.h>

#include "s3/util/rng.h"

namespace s3::social {
namespace {

/// Users drawn from `k` sharply different app-mix archetypes.
std::vector<apps::AppMix> typed_profiles(std::size_t per_type,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  const std::array<apps::AppMix, 3> archetypes = {{
      {0.8, 0.05, 0.05, 0.02, 0.03, 0.05},
      {0.05, 0.8, 0.05, 0.02, 0.03, 0.05},
      {0.05, 0.05, 0.05, 0.02, 0.03, 0.8},
  }};
  std::vector<apps::AppMix> out;
  for (const apps::AppMix& a : archetypes) {
    for (std::size_t i = 0; i < per_type; ++i) {
      apps::AppMix m{};
      for (std::size_t c = 0; c < apps::kNumCategories; ++c) {
        m[c] = std::max(0.0, a[c] + rng.normal(0.0, 0.02)) * 1000.0;
      }
      out.push_back(m);
    }
  }
  return out;
}

TEST(ClusterUsers, RecoversTypes) {
  const auto profiles = typed_profiles(40, 1);
  UserTypingConfig cfg;
  cfg.k = 3;
  const UserTyping typing = cluster_users(profiles, cfg);
  EXPECT_EQ(typing.num_types, 3u);
  ASSERT_EQ(typing.type_of_user.size(), 120u);
  // Users of the same archetype share a type.
  for (std::size_t t = 0; t < 3; ++t) {
    const std::size_t first = typing.type_of_user[t * 40];
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(typing.type_of_user[t * 40 + i], first);
    }
  }
  // And the three archetypes get distinct types.
  EXPECT_NE(typing.type_of_user[0], typing.type_of_user[40]);
  EXPECT_NE(typing.type_of_user[40], typing.type_of_user[80]);
}

TEST(ClusterUsers, AutoKViaGapStatistic) {
  const auto profiles = typed_profiles(50, 2);
  UserTypingConfig cfg;
  cfg.k = 0;  // auto
  cfg.max_k_for_gap = 6;
  const UserTyping typing = cluster_users(profiles, cfg);
  EXPECT_EQ(typing.num_types, 3u);
}

TEST(ClusterUsers, InactiveUsersGetStableType) {
  auto profiles = typed_profiles(20, 3);
  profiles.push_back(apps::AppMix{});  // silent user
  UserTypingConfig cfg;
  cfg.k = 3;
  const UserTyping typing = cluster_users(profiles, cfg);
  EXPECT_LT(typing.type_of_user.back(), 3u);
}

TEST(ClusterUsers, Validation) {
  EXPECT_THROW(cluster_users({}, {}), std::invalid_argument);
  std::vector<apps::AppMix> all_zero(5);
  EXPECT_THROW(cluster_users(all_zero, {}), std::invalid_argument);
}

TEST(ClusterUsers, CentroidAccessors) {
  const auto profiles = typed_profiles(30, 4);
  UserTypingConfig cfg;
  cfg.k = 3;
  const UserTyping typing = cluster_users(profiles, cfg);
  for (std::size_t t = 0; t < 3; ++t) {
    const auto c = typing.centroid(t);
    EXPECT_EQ(c.size(), apps::kNumCategories);
    double sum = 0.0;
    for (double v : c) sum += v;
    EXPECT_NEAR(sum, 1.0, 0.05);  // centroids of normalized profiles
  }
  EXPECT_THROW(typing.centroid(3), std::invalid_argument);
  EXPECT_THROW(typing.type(9999), std::invalid_argument);
}

TEST(TypeCoLeaveMatrix, SymmetricSetGet) {
  TypeCoLeaveMatrix m(3);
  m.set(0, 1, 0.4);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.4);
  EXPECT_THROW(m.at(3, 0), std::invalid_argument);
  EXPECT_THROW(m.set(0, 3, 0.1), std::invalid_argument);
}

TEST(TypeCoLeaveMatrix, DiagonalDominance) {
  TypeCoLeaveMatrix m(2);
  m.set(0, 0, 0.6);
  m.set(1, 1, 0.5);
  m.set(0, 1, 0.2);
  EXPECT_NEAR(m.diagonal_dominance(), 0.55 - 0.2, 1e-12);
  const TypeCoLeaveMatrix tiny(1);
  EXPECT_DOUBLE_EQ(tiny.diagonal_dominance(), 0.0);
}

TEST(EstimateTypeMatrix, RatiosFromPairStats) {
  UserTyping typing;
  typing.num_types = 2;
  typing.type_of_user = {0, 0, 1, 1};
  PairStore stats;
  // {encounters, co_leaves, co_comings}
  stats.assign(UserPair(0, 1), {4, 3, 0});  // type 0-0
  stats.assign(UserPair(2, 3), {2, 1, 0});  // type 1-1
  stats.assign(UserPair(0, 2), {5, 1, 0});  // type 0-1
  stats.assign(UserPair(1, 3), {5, 0, 0});  // type 0-1
  const TypeCoLeaveMatrix m = estimate_type_matrix(typing, stats);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.1);  // (1+0)/(5+5)
  EXPECT_GT(m.diagonal_dominance(), 0.0);
}

TEST(EstimateTypeMatrix, NoEncountersGivesZero) {
  UserTyping typing;
  typing.num_types = 2;
  typing.type_of_user = {0, 1};
  const TypeCoLeaveMatrix m =
      estimate_type_matrix(typing, PairStore{});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

}  // namespace
}  // namespace s3::social

#include "s3/core/s3_selector.h"

#include <gtest/gtest.h>

#include <set>

#include "testing/mini.h"

namespace s3::core {
namespace {

using s3::testing::mini_network;

/// Model over `n` users where theta(u,v) is given by an explicit map
/// (type term zero everywhere).
social::SocialIndexModel explicit_model(
    std::size_t n,
    const std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>>&
        pair_events,
    double alpha = 0.3) {
  social::SocialModelConfig cfg;
  cfg.alpha = alpha;
  social::PairStore stats;
  for (const auto& [u, v, enc, col] : pair_events) {
    stats.assign(UserPair(u, v), {enc, col, 0});
  }
  social::UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(n, 0);
  typing.centroids.assign(apps::kNumCategories, 0.0);
  social::TypeCoLeaveMatrix matrix(1);  // T = 0
  return social::SocialIndexModel::from_parts(cfg, std::move(stats),
                                              std::move(typing),
                                              std::move(matrix));
}

sim::Arrival arrival(std::size_t session, UserId user,
                     std::vector<ApId> candidates, double demand = 1.0) {
  sim::Arrival a;
  a.session_index = session;
  a.user = user;
  a.controller = 0;
  a.demand_mbps = demand;
  a.candidates = std::move(candidates);
  return a;
}

TEST(S3Selector, ValidatesConstruction) {
  const auto net = mini_network(2);
  const auto model = explicit_model(2, {});
  EXPECT_THROW(S3Selector(nullptr, &model), std::invalid_argument);
  EXPECT_THROW(S3Selector(&net, nullptr), std::invalid_argument);
  S3Config bad;
  bad.top_fraction = 0.0;
  EXPECT_THROW(S3Selector(&net, &model, bad), std::invalid_argument);
}

TEST(S3Selector, SingleUserAvoidsStrongRelation) {
  const auto net = mini_network(3);
  // User 1 (already on AP 0) is strongly tied to arriving user 0.
  const auto model = explicit_model(2, {{0, 1, 4, 4}});  // P(L|E)=1
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 1.0);
  S3Selector s3(&net, &model);
  const ApId chosen = s3.select_one(arrival(0, 0, {0, 1, 2}), loads);
  EXPECT_NE(chosen, 0u);
}

TEST(S3Selector, NoRelationsFallsBackToLlf) {
  const auto net = mini_network(3);
  const auto model = explicit_model(4, {});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 5.0);
  loads.associate(101, 1, 2, 1.0);  // AP 2 is completely idle
  S3Selector s3(&net, &model);
  EXPECT_EQ(s3.select_one(arrival(0, 0, {0, 1, 2}), loads), 2u);
}

TEST(S3Selector, BandwidthConstraintSkipsFullAp) {
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 2;
  layout.ap_capacity_mbps = 10.0;
  const auto net = wlan::make_campus(layout);
  const auto model = explicit_model(3, {{0, 2, 4, 4}});  // tie to user 2
  sim::ApLoadTracker loads(net);
  // AP 1 holds the strongly-tied user; AP 0 is nearly full.
  loads.associate(100, 0, 1, 9.5);
  loads.associate(101, 1, 2, 1.0);
  S3Selector s3(&net, &model);
  // Social cost prefers AP 0 (no ties there), but 1 Mbps does not fit:
  // infinite cost -> AP 1 despite the relation.
  EXPECT_EQ(s3.select_one(arrival(0, 0, {0, 1}, 1.0), loads), 1u);
}

TEST(S3Selector, AllFullDegradesToLlf) {
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 2;
  layout.ap_capacity_mbps = 5.0;
  const auto net = wlan::make_campus(layout);
  const auto model = explicit_model(3, {});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 4.9);
  loads.associate(101, 1, 2, 4.5);
  S3Selector s3(&net, &model);
  // Demand 2 fits nowhere; LLF picks the lighter AP 1.
  EXPECT_EQ(s3.select_one(arrival(0, 0, {0, 1}, 2.0), loads), 1u);
}

TEST(S3Selector, BatchDispersesClique) {
  const auto net = mini_network(4);
  // Users 0..3 form a clique (all pairs strongly tied).
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = u + 1; v < 4; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(4, pairs);
  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 4; ++u) {
    batch.push_back(arrival(u, u, {0, 1, 2, 3}));
  }
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  // Four candidates, four clique members: one per AP.
  const std::set<ApId> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(S3Selector, CliqueBiggerThanCandidateSetMinimizesOverlap) {
  const auto net = mini_network(2);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = u + 1; v < 4; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(4, pairs);
  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 4; ++u) batch.push_back(arrival(u, u, {0, 1}));
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  // Best dispersion over two APs is 2 + 2.
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 0u), 2);
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 1u), 2);
}

TEST(S3Selector, BatchAvoidsExistingAssociates) {
  const auto net = mini_network(3);
  // Arriving users 0,1 strongly tied to resident users 2,3.
  const auto model =
      explicit_model(4, {{0, 1, 4, 4}, {0, 2, 4, 4}, {1, 3, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 2, 1.0);  // resident 2 on AP 0
  loads.associate(101, 1, 3, 1.0);  // resident 3 on AP 1
  std::vector<sim::Arrival> batch = {arrival(0, 0, {0, 1, 2}),
                                     arrival(1, 1, {0, 1, 2})};
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  // User 0 must avoid AP 0 (resident friend) and user 1 must avoid
  // AP 1; they also avoid each other.
  EXPECT_NE(chosen[0], 0u);
  EXPECT_NE(chosen[1], 1u);
  EXPECT_NE(chosen[0], chosen[1]);
}

TEST(S3Selector, MixedBatchSingletonsGetLlf) {
  const auto net = mini_network(2);
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 3.0);  // AP 0 loaded (resident user 1)
  // User 2 is a singleton in the batch: plain LLF -> AP 1.
  std::vector<sim::Arrival> batch = {arrival(0, 2, {0, 1})};
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  EXPECT_EQ(chosen[0], 1u);
}

TEST(S3Selector, EmptyBatch) {
  const auto net = mini_network(2);
  const auto model = explicit_model(1, {});
  sim::ApLoadTracker loads(net);
  S3Selector s3(&net, &model);
  EXPECT_TRUE(s3.place_batch({}, loads).placements.empty());
}

TEST(S3Selector, BeamPathHandlesLargeClique) {
  // 12 members x 6 candidates = 6^12 >> enumeration_limit: the beam
  // path must still produce a near-even dispersion.
  const auto net = mini_network(6);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 12; ++u) {
    for (UserId v = u + 1; v < 12; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(12, pairs);
  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 12; ++u) {
    batch.push_back(arrival(u, u, {0, 1, 2, 3, 4, 5}));
  }
  S3Config cfg;
  cfg.enumeration_limit = 1000;
  cfg.beam_width = 64;
  S3Selector s3(&net, &model, cfg);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  std::array<int, 6> counts{};
  for (ApId a : chosen) counts[a]++;
  for (int c : counts) EXPECT_EQ(c, 2);  // perfectly even
}

TEST(S3Selector, BalanceTieBreakPrefersLighterAps) {
  // Two tied users, three candidate APs with unequal background load.
  // All zero-overlap distributions have equal social cost; the balance
  // tie-break must put them on the two *lightest* APs.
  const auto net = mini_network(3);
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 2, 2, 10.0);  // AP 2 heavily loaded (resident 2)
  std::vector<sim::Arrival> batch = {arrival(0, 0, {0, 1, 2}, 1.0),
                                     arrival(1, 1, {0, 1, 2}, 1.0)};
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  EXPECT_NE(chosen[0], chosen[1]);
  EXPECT_NE(chosen[0], 2u);
  EXPECT_NE(chosen[1], 2u);
}

TEST(S3Selector, BatchDeterministic) {
  const auto net = mini_network(4);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 6; ++u) {
    for (UserId v = u + 1; v < 6; ++v) {
      if ((u + v) % 2 == 0) pairs.push_back({u, v, 4, 3});
    }
  }
  const auto model = explicit_model(6, pairs);
  sim::ApLoadTracker loads(net);
  loads.associate(100, 1, 5, 2.5);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 5; ++u) {
    batch.push_back(arrival(u, u, {0, 1, 2, 3}, 0.5 + 0.3 * u));
  }
  S3Selector a(&net, &model), b(&net, &model);
  EXPECT_EQ(a.place_batch({batch}, loads).placements,
            b.place_batch({batch}, loads).placements);
  // Repeated invocation on the same selector is also stable (no hidden
  // state accumulates).
  EXPECT_EQ(a.place_batch({batch}, loads).placements,
            b.place_batch({batch}, loads).placements);
}

TEST(S3Selector, TopFractionBoundaryTiesIncluded) {
  // Two tied users, three candidates, one candidate pre-loaded: every
  // zero-overlap distribution costs the same, so even with a tiny
  // top_fraction the balance tie-break must still see all of them and
  // avoid the loaded AP.
  const auto net = mini_network(3);
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 2, 2, 15.0);
  std::vector<sim::Arrival> batch = {arrival(0, 0, {0, 1, 2}, 1.0),
                                     arrival(1, 1, {0, 1, 2}, 1.0)};
  S3Config cfg;
  cfg.top_fraction = 0.01;  // would keep a single distribution pre-ties
  S3Selector s3(&net, &model, cfg);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  EXPECT_NE(chosen[0], 2u);
  EXPECT_NE(chosen[1], 2u);
  EXPECT_NE(chosen[0], chosen[1]);
}

TEST(S3Selector, Name) {
  const auto net = mini_network(1);
  const auto model = explicit_model(1, {});
  S3Selector s3(&net, &model);
  EXPECT_EQ(s3.name(), "S3");
}

TEST(S3Selector, StatsCountPaths) {
  const auto net = mini_network(4);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 3; ++u) {
    for (UserId v = u + 1; v < 3; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(5, pairs);
  sim::ApLoadTracker loads(net);
  // Batch: a 3-clique plus two unrelated singles.
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 5; ++u) batch.push_back(arrival(u, u, {0, 1, 2, 3}));
  S3Selector s3(&net, &model);
  EXPECT_EQ(s3.stats().batches, 0u);
  (void)s3.place_batch({batch}, loads);
  const S3Stats& st = s3.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.cliques, 1u);
  EXPECT_EQ(st.clique_members, 3u);
  EXPECT_EQ(st.largest_clique, 3u);
  EXPECT_EQ(st.singles, 2u);
  EXPECT_EQ(st.exact_enumerations, 1u);
  EXPECT_EQ(st.beam_searches, 0u);
  EXPECT_EQ(st.bandwidth_fallbacks, 0u);
  EXPECT_EQ(st.empty_candidate_fallbacks, 0u);
  EXPECT_EQ(st.degraded_batches, 0u);
  EXPECT_EQ(st.inexact_covers, 0u);
}

TEST(S3Selector, FallbackCountersSplitFullFromEmpty) {
  // "every candidate is over capacity" and "no candidate at all" are
  // different failures: the first is a capacity event the operator can
  // provision for, the second a radio/outage event. The stats must not
  // conflate them.
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 2;
  layout.ap_capacity_mbps = 5.0;
  const auto net = wlan::make_campus(layout);
  const auto model = explicit_model(3, {});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 4.9);
  loads.associate(101, 1, 2, 4.5);
  S3Selector s3(&net, &model);

  // Candidates present, none fits: bandwidth_fallbacks only.
  (void)s3.select_one(arrival(0, 0, {0, 1}, 2.0), loads);
  EXPECT_EQ(s3.stats().bandwidth_fallbacks, 1u);
  EXPECT_EQ(s3.stats().empty_candidate_fallbacks, 0u);

  // No candidates at all: counted, then rejected as a caller error.
  EXPECT_THROW((void)s3.select_one(arrival(1, 0, {}, 1.0), loads),
               std::invalid_argument);
  EXPECT_EQ(s3.stats().bandwidth_fallbacks, 1u);
  EXPECT_EQ(s3.stats().empty_candidate_fallbacks, 1u);
}

TEST(S3Selector, FaultControlsForceLlfFallback) {
  const auto net = mini_network(3);
  // Strong tie would normally push user 0 away from user 1's AP 0...
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 1.0);
  loads.associate(101, 2, 2, 1.0);  // AP 1 idle, AP 0/2 loaded
  S3Selector s3(&net, &model);
  EXPECT_TRUE(s3.uses_social_model());

  // ...but with the model out the embedded LLF just takes the idle AP.
  std::vector<sim::Arrival> batch{arrival(0, 0, {0, 1, 2})};
  sim::BatchRequest request;
  request.arrivals = batch;
  request.faults.model_available = false;
  const sim::BatchResult degraded = s3.place_batch(request, loads);
  ASSERT_EQ(degraded.placements.size(), 1u);
  EXPECT_EQ(degraded.placements[0], 1u);
  EXPECT_EQ(s3.stats().degraded_batches, 1u);
  EXPECT_FALSE(degraded.full_fidelity);

  // Restoring the model restores full fidelity.
  request.faults = sim::FaultControls{};
  const sim::BatchResult healthy = s3.place_batch(request, loads);
  EXPECT_TRUE(healthy.full_fidelity);
  EXPECT_EQ(s3.stats().degraded_batches, 1u);
}

TEST(S3Selector, StateDigestTracksCommittedAssociations) {
  // Two instances fed the same associate/disconnect sequence agree; a
  // third that saw different history does not.
  const auto net = mini_network(3);
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  S3Selector a(&net, &model);
  S3Selector b(&net, &model);
  S3Selector c(&net, &model);
  EXPECT_EQ(a.state_digest(), b.state_digest());

  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch{arrival(0, 0, {0, 1, 2})};
  sim::BatchRequest request;
  request.arrivals = batch;
  (void)a.place_batch(request, loads);
  (void)b.place_batch(request, loads);
  EXPECT_EQ(a.state_digest(), b.state_digest());

  request.faults.model_available = false;  // degraded batch mutates stats
  (void)c.place_batch(request, loads);
  EXPECT_NE(a.state_digest(), c.state_digest());
}

}  // namespace
}  // namespace s3::core

// s3::serve — live pipeline and shared social model.
//
// The anchor test proves per-domain detection changes nothing
// semantically: a ServePipeline's per-domain presence tables drive its
// SharedSocialModel to bit-identical θ values with one single-owner
// PresenceTable fed the same association events.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "s3/core/evaluation.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/serve/line_protocol.h"
#include "s3/serve/serve_pipeline.h"
#include "s3/social/clique.h"
#include "s3/trace/generator.h"
#include "s3/util/metrics.h"

namespace s3::serve {
namespace {

/// Small trained world shared by every test in this file.
struct World {
  trace::GeneratedTrace gen;
  social::SocialIndexModel model;

  World()
      : gen(trace::generate_campus_trace(config())),
        model(core::train_from_workload(gen.network, gen.workload, eval())) {}

  static trace::GeneratorConfig config() {
    trace::GeneratorConfig cfg;
    cfg.seed = 7;
    cfg.num_users = 200;
    cfg.num_days = 5;
    cfg.layout.num_buildings = 2;
    cfg.layout.aps_per_building = 4;
    return cfg;
  }
  static core::EvaluationConfig eval() {
    core::EvaluationConfig e;
    e.train_days = 4;
    e.test_days = 1;
    return e;
  }
};

const World& world() {
  static const World w;
  return w;
}

PlaceRequest request(std::uint64_t id, UserId user, BuildingId b,
                     std::int64_t t_s, double demand = 1.0) {
  PlaceRequest req;
  req.id = id;
  req.user = user;
  req.building = b;
  const wlan::BuildingConfig& bc = world().gen.network.building(b);
  req.pos = {bc.origin.x + 5.0 + static_cast<double>(user % 7),
             bc.origin.y + 5.0 + static_cast<double>(user % 5)};
  req.when = util::SimTime::from_seconds(t_s);
  req.demand_mbps = demand;
  return req;
}

/// Independent reference for ServePipeline::social_snapshot(): scalar
/// θ over every pair under the strict rule, union-find components in
/// ascending-minimum order, clique_cover per component on its induced
/// subgraph (members ascending), cohesion from `ap_of`.
SocialSnapshot reference_snapshot(const social::ThetaProvider& model,
                                  const core::S3Config& s3,
                                  const std::vector<ApId>& ap_of) {
  struct Edge {
    UserId u;
    UserId v;
    double theta;
  };
  const std::size_t n = model.num_users();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto root = [&parent](std::size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::vector<Edge> edges;
  for (UserId u = 0; u < n; ++u) {
    for (UserId v = static_cast<UserId>(u + 1); v < n; ++v) {
      const double th = model.theta(u, v);
      if (!std::isfinite(th) || th <= s3.theta_threshold) continue;
      edges.push_back({u, v, th});
      parent[root(u)] = root(v);
    }
  }
  // Scanning users upward meets each component first at its minimum.
  std::vector<std::size_t> group_of_root(n, n);
  std::vector<std::vector<UserId>> groups;
  for (UserId v = 0; v < n; ++v) {
    std::size_t& g = group_of_root[root(v)];
    if (g == n) {
      g = groups.size();
      groups.emplace_back();
    }
    groups[g].push_back(v);
  }

  SocialSnapshot want;
  want.users = n;
  want.edges = edges.size();
  want.components = groups.size();
  std::vector<std::size_t> local(n);
  for (const std::vector<UserId>& members : groups) {
    for (std::size_t i = 0; i < members.size(); ++i) local[members[i]] = i;
    social::WeightedGraph g(members.size());
    const std::size_t id = group_of_root[root(members.front())];
    for (const Edge& e : edges) {
      if (group_of_root[root(e.u)] == id) {
        g.add_edge(local[e.u], local[e.v], e.theta);
      }
    }
    const social::CliqueCoverResult cover = social::clique_cover(g, s3.clique);
    want.exact = want.exact && cover.exact;
    for (const std::vector<std::size_t>& clique : cover.cliques) {
      want.largest = std::max(want.largest, clique.size());
      if (clique.size() < 2) {
        ++want.singletons;
        continue;
      }
      ++want.cliques;
      double sum = 0.0;
      for (std::size_t a = 0; a < clique.size(); ++a) {
        for (std::size_t b = a + 1; b < clique.size(); ++b) {
          const ApId ap = ap_of[members[clique[a]]];
          if (ap == kInvalidAp || ap != ap_of[members[clique[b]]]) continue;
          sum += g.weight(clique[a], clique[b]);
        }
      }
      want.cohesion += sum;
    }
  }
  return want;
}

void expect_same_snapshot(const SocialSnapshot& got,
                          const SocialSnapshot& want) {
  EXPECT_EQ(got.users, want.users);
  EXPECT_EQ(got.cliques, want.cliques);
  EXPECT_EQ(got.singletons, want.singletons);
  EXPECT_EQ(got.largest, want.largest);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(got.cohesion, want.cohesion);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.components, want.components);
}

TEST(ServePipeline, PlacesAndDeparts) {
  ServeConfig cfg;
  ServePipeline p(&world().gen.network, &world().model, cfg);
  const PlaceResult r = p.place(request(1, 0, 0, 0));
  ASSERT_TRUE(r.placed);
  EXPECT_LT(r.ap, world().gen.network.num_aps());
  EXPECT_EQ(p.active_sessions(), 1U);
  EXPECT_TRUE(p.depart(1, util::SimTime::from_seconds(100)));
  EXPECT_EQ(p.active_sessions(), 0U);
  EXPECT_EQ(p.stats().placements, 1U);
  EXPECT_EQ(p.stats().departures, 1U);
}

TEST(ServePipeline, RejectsDuplicateIdAndUnknownDeparture) {
  ServePipeline p(&world().gen.network, &world().model, {});
  ASSERT_TRUE(p.place(request(7, 0, 0, 0)).placed);
  EXPECT_FALSE(p.place(request(7, 1, 0, 10)).placed);
  EXPECT_EQ(p.stats().rejected_duplicate_id, 1U);
  EXPECT_FALSE(p.depart(999, util::SimTime::from_seconds(1)));
  EXPECT_EQ(p.stats().unknown_departures, 1U);
  // The duplicate rejection must not have clobbered the live session.
  EXPECT_TRUE(p.depart(7, util::SimTime::from_seconds(20)));
}

TEST(ServePipeline, RejectsUnknownUserUnderSocialPolicy) {
  ServePipeline p(&world().gen.network, &world().model, {});
  const UserId unknown =
      static_cast<UserId>(world().model.num_users() + 5);
  EXPECT_FALSE(p.place(request(1, unknown, 0, 0)).placed);
  EXPECT_EQ(p.stats().rejected_unknown_user, 1U);
  // Baselines have no model to miss: the same user places fine.
  ServeConfig llf;
  llf.policy = "llf";
  ServePipeline q(&world().gen.network, &world().model, llf);
  EXPECT_TRUE(q.place(request(1, unknown, 0, 0)).placed);
}

// Pipeline-detected encounters/co-leavings, split across per-domain
// presence tables, must update the shared model to the exact θ that
// one single-owner PresenceTable (the core::OnlineS3Selector setup)
// computes from the same events. The pipeline runs the "rssi" policy
// so AP choice is deterministic and model-independent; every committed
// (session, user, ap, t) event is mirrored into the single table and a
// second SharedSocialModel, then θ is compared bit for bit.
TEST(SharedSocialModel, PipelineDetectionMatchesSingleOwnerTable) {
  const World& w = world();
  ServeConfig cfg;
  cfg.policy = "rssi";
  ServePipeline pipeline(&w.gen.network, &w.model, cfg);
  social::PresenceTable presence(cfg.co_leave_window,
                                 cfg.min_encounter_overlap);
  social::SharedSocialModel single(&w.model);

  struct Live {
    UserId user;
    ApId ap;
  };
  std::unordered_map<std::uint64_t, Live> active;
  std::uint64_t rng = 99;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  // Random arrive/depart schedule: long stays on few APs so plenty of
  // encounter-grade overlaps and co-leavings fire.
  std::int64_t now = 0;
  std::uint64_t next_id = 1;
  for (int step = 0; step < 4000; ++step) {
    now += 30 + static_cast<std::int64_t>(next() % 90);
    const util::SimTime t = util::SimTime::from_seconds(now);
    if (active.size() > 25 || (!active.empty() && next() % 3 == 0)) {
      const auto victim =
          std::next(active.begin(),
                    static_cast<std::ptrdiff_t>(next() % active.size()));
      single.record_departure(
          presence.depart(victim->second.ap, victim->first, t));
      ASSERT_TRUE(pipeline.depart(victim->first, t));
      active.erase(victim);
    } else {
      const std::uint64_t id = next_id++;
      const UserId user = static_cast<UserId>(next() % w.model.num_users());
      const BuildingId b = static_cast<BuildingId>(next() % 2);
      const PlaceResult r = pipeline.place(request(id, user, b, now));
      ASSERT_TRUE(r.placed);
      presence.arrive(r.ap, id, user, t);
      active.emplace(id, Live{user, r.ap});
    }
  }

  EXPECT_GT(pipeline.model().updated_pairs(), 0U)
      << "schedule produced no social events — test is vacuous";
  EXPECT_EQ(pipeline.model().updated_pairs(), single.updated_pairs());

  const social::SharedSocialModel& shared = pipeline.model();
  EXPECT_EQ(shared.state_digest(), single.state_digest());
  const std::size_t n = w.model.num_users();
  for (UserId u = 0; u < n; ++u) {
    for (UserId v = static_cast<UserId>(u + 1); v < n; ++v) {
      ASSERT_EQ(shared.theta(u, v), single.theta(u, v))
          << "theta mismatch at (" << u << ", " << v << ")";
    }
  }
  // Row kernel agrees with the scalar path across the two models too.
  std::vector<UserId> vs(n);
  for (UserId v = 0; v < n; ++v) vs[v] = v;
  std::vector<double> shared_row(n);
  std::vector<double> single_row(n);
  for (UserId u = 0; u < n; u += 17) {
    shared.theta_row(u, vs, shared_row);
    single.theta_row(u, vs, single_row);
    EXPECT_EQ(shared_row, single_row) << "theta_row mismatch at u=" << u;
  }
  // Each recorded event bumps the store epoch once — the model's only
  // change stamp — so equal event streams leave equal epochs.
  EXPECT_GT(shared.read_epoch(), 0U);
  EXPECT_EQ(shared.read_epoch(), single.read_epoch());
}

// Placements and departures from 4 threads run alongside a monitor
// that keeps querying the social snapshot; the snapshot after they
// finish must serve exactly what the brute-force reference computes
// over the final live model and over its frozen checkpoint, with
// cohesion summed directly from the callers' own placement books.
TEST(ServePipeline, SocialSnapshotMatchesFreshReseed) {
  const World& w = world();
  ServeConfig cfg;
  cfg.policy = "rssi";  // deterministic, model-independent placements
  ServePipeline p(&w.gen.network, &w.model, cfg);
  const std::size_t n = w.model.num_users();
  expect_same_snapshot(
      p.social_snapshot(),
      reference_snapshot(w.model, cfg.s3, std::vector<ApId>(n, kInvalidAp)));

  // Users are split by thread, so each user's latest AP is set by one
  // thread in program order: the same rule ServePipeline keeps.
  constexpr unsigned kThreads = 4;
  std::vector<std::map<UserId, ApId>> user_ap(kThreads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      std::map<UserId, ApId>& books = user_ap[t];
      std::uint64_t rng = 11 + t;
      const auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      std::vector<std::pair<std::uint64_t, UserId>> active;
      std::int64_t now = 0;
      const std::uint64_t base = (static_cast<std::uint64_t>(t) + 1) << 32;
      for (std::uint64_t step = 0; step < 600; ++step) {
        now += 30 + static_cast<std::int64_t>(next() % 90);
        if (active.size() > 12 || (!active.empty() && next() % 3 == 0)) {
          const std::size_t i = next() % active.size();
          ASSERT_TRUE(
              p.depart(active[i].first, util::SimTime::from_seconds(now)));
          books[active[i].second] = kInvalidAp;
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          const UserId user = static_cast<UserId>(
              (next() % (n / kThreads)) * kThreads + t);
          const PlaceResult r = p.place(request(base + step, user, 0, now));
          ASSERT_TRUE(r.placed);
          books[user] = r.ap;
          active.emplace_back(base + step, user);
        }
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread monitor([&]() {
    while (!done.load()) EXPECT_EQ(p.social_snapshot().users, n);
  });
  for (std::thread& worker : workers) worker.join();
  done.store(true);
  monitor.join();
  ASSERT_GT(p.model().updated_pairs(), 0U)
      << "schedule produced no social events — test is vacuous";

  std::vector<ApId> ap_of(n, kInvalidAp);
  for (const std::map<UserId, ApId>& books : user_ap) {
    for (const auto& [user, ap] : books) ap_of[user] = ap;
  }
  const SocialSnapshot snap = p.social_snapshot();
  expect_same_snapshot(snap, reference_snapshot(p.model(), cfg.s3, ap_of));
  expect_same_snapshot(
      snap, reference_snapshot(p.model().checkpoint(), cfg.s3, ap_of));
  EXPECT_GT(snap.cohesion, 0.0) << "no co-located clique — test is vacuous";
}

// Live events move the cover, the cover always partitions the
// population, and a repeat query with no new events serves the same
// snapshot.
TEST(ServePipeline, SocialSnapshotFollowsLiveEvents) {
  const World& w = world();
  ServeConfig cfg;
  cfg.policy = "rssi";  // deterministic, model-independent placements
  ServePipeline p(&w.gen.network, &w.model, cfg);

  const SocialSnapshot first = p.social_snapshot();
  EXPECT_EQ(first.users, w.model.num_users());
  // Every user sits in exactly one cover entry.
  EXPECT_LE(first.singletons + 2 * first.cliques, first.users);
  if (first.cliques > 0) {
    EXPECT_GE(first.largest, 2U);
  }
  EXPECT_LE(first.components, first.users);

  // Long co-located stays then a joint departure: encounters and
  // co-leavings land in the shared store.
  std::uint64_t id = 1;
  for (UserId u = 0; u < 24; ++u) {
    ASSERT_TRUE(p.place(request(id++, u, 0, 0)).placed);
  }
  for (std::uint64_t d = 1; d < id; ++d) {
    ASSERT_TRUE(p.depart(d, util::SimTime::from_seconds(3600)));
  }
  EXPECT_GT(p.model().updated_pairs(), 0U);

  const SocialSnapshot second = p.social_snapshot();
  EXPECT_GE(second.cohesion, 0.0);
  EXPECT_NE(second.edges, first.edges) << "the joint departure moved no edge";

  const SocialSnapshot third = p.social_snapshot();
  EXPECT_EQ(third.cliques, second.cliques);
  EXPECT_EQ(third.singletons, second.singletons);
  EXPECT_EQ(third.largest, second.largest);
  EXPECT_EQ(third.exact, second.exact);
  EXPECT_EQ(third.edges, second.edges);
  EXPECT_EQ(third.components, second.components);
  EXPECT_EQ(third.cohesion, second.cohesion);
}

// Cohesion counts exactly the θ mass of clique pairs sharing an AP:
// co-locating users whose pairs the cover keeps together must move it.
TEST(ServePipeline, SocialSnapshotCohesionReflectsCoLocatedCliques) {
  const World& w = world();
  ServeConfig cfg;
  cfg.policy = "rssi";
  ServePipeline p(&w.gen.network, &w.model, cfg);
  // Everyone in the population parks at one spot in building 0: every
  // multi-member clique whose members share the chosen AP contributes
  // its full internal θ mass.
  std::uint64_t id = 1;
  for (UserId u = 0; u < w.model.num_users(); ++u) {
    PlaceRequest req = request(id++, u, 0, 0);
    req.pos = {w.gen.network.building(0).origin.x + 5.0,
               w.gen.network.building(0).origin.y + 5.0};
    ASSERT_TRUE(p.place(req).placed);
  }
  const SocialSnapshot snap = p.social_snapshot();
  if (snap.cliques > 0) {
    EXPECT_GT(snap.cohesion, 0.0)
        << "multi-member cliques exist but no co-located pair scored";
  }
}

// Golden for what the `social` verb serves: cover shape, exactness and
// the cohesion bits, before any event, after a joint departure of 24
// users, and after further churn. The rssi policy keeps placements
// model-independent, and one thread with a fixed schedule keeps the
// live store deterministic, so every value is a literal.
TEST(ServePipeline, SocialSnapshotGolden) {
  const World& w = world();
  ServeConfig cfg;
  cfg.policy = "rssi";
  ServePipeline p(&w.gen.network, &w.model, cfg);
  const auto parked = [&](std::uint64_t id, UserId user, BuildingId b,
                          std::int64_t t_s) {
    PlaceRequest req = request(id, user, b, t_s);
    req.pos = {w.gen.network.building(b).origin.x + 5.0,
               w.gen.network.building(b).origin.y + 5.0};
    return req;
  };
  const auto expect_snapshot = [](const SocialSnapshot& s,
                                  std::size_t cliques,
                                  std::size_t singletons, std::size_t largest,
                                  bool exact, std::uint64_t cohesion_bits) {
    EXPECT_EQ(s.users, 200U);
    EXPECT_EQ(s.cliques, cliques);
    EXPECT_EQ(s.singletons, singletons);
    EXPECT_EQ(s.largest, largest);
    EXPECT_EQ(s.exact, exact);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.cohesion), cohesion_bits)
        << "cohesion " << s.cohesion;
  };

  expect_snapshot(p.social_snapshot(), 29, 28, 17, true, 0);

  // Co-located stays: users 0..23 and 100..159 park at one spot of
  // building 0; the first group then leaves together, the second stays.
  std::uint64_t id = 1;
  std::vector<std::uint64_t> joint;
  for (UserId u = 0; u < 24; ++u) {
    joint.push_back(id);
    ASSERT_TRUE(p.place(parked(id++, u, 0, u * 10)).placed);
  }
  for (UserId u = 100; u < 160; ++u) {
    ASSERT_TRUE(p.place(parked(id++, u, 0, 300 + u)).placed);
  }
  for (std::size_t i = 0; i < joint.size(); ++i) {
    ASSERT_TRUE(p.depart(joint[i], util::SimTime::from_seconds(
                                       3600 + static_cast<std::int64_t>(i))));
  }
  ASSERT_GT(p.model().updated_pairs(), 0U);
  expect_snapshot(p.social_snapshot(), 30, 21, 22, true,
                  0x4047152f3265bdd6ULL);

  // Further churn over both buildings.
  std::vector<std::uint64_t> active;
  for (std::uint64_t s = id - 60; s < id; ++s) active.push_back(s);
  std::uint64_t rng = 23;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::int64_t now = 4000;
  for (int step = 0; step < 400; ++step) {
    now += 30 + static_cast<std::int64_t>(next() % 90);
    if (active.size() > 40 || (!active.empty() && next() % 3 == 0)) {
      const std::size_t i = next() % active.size();
      ASSERT_TRUE(p.depart(active[i], util::SimTime::from_seconds(now)));
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const UserId user = static_cast<UserId>(next() % 200);
      const BuildingId b = static_cast<BuildingId>(next() % 2);
      const PlaceResult r = p.place(parked(id, user, b, now));
      if (r.placed) active.push_back(id);
      ++id;
    }
  }
  expect_snapshot(p.social_snapshot(), 30, 21, 22, true,
                  0x402bcd862cd54bd5ULL);
}

TEST(ServePipeline, ModelOutageServesFallbackAndRecovers) {
  fault::FaultPlan plan;
  plan.model_outages.push_back(
      {util::SimTime::from_seconds(100), util::SimTime::from_seconds(200)});
  const fault::FaultInjector injector(plan, 1);
  ServeConfig cfg;
  cfg.injector = &injector;
  ServePipeline p(&world().gen.network, &world().model, cfg);

  ASSERT_TRUE(p.place(request(1, 0, 0, 10)).placed);
  EXPECT_EQ(p.stats().fallback_placements, 0U);

  const PlaceResult during = p.place(request(2, 1, 0, 150));
  ASSERT_TRUE(during.placed);
  EXPECT_TRUE(during.fallback);
  EXPECT_EQ(p.stats().fallback_placements, 1U);
  EXPECT_EQ(p.domain_health(0), fault::HealthState::kDegraded);

  // After the outage the degradation hysteresis walks back to healthy.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        p.place(request(100 + static_cast<std::uint64_t>(i),
                        static_cast<UserId>(3 + i), 0, 300 + i * 10))
            .placed);
  }
  EXPECT_EQ(p.domain_health(0), fault::HealthState::kHealthy);
}

TEST(ServePipeline, DeadApsArePrunedFromCandidates) {
  // Kill every AP of building 0's controller for the whole run: an
  // arrival there has no live candidate and must be rejected.
  const wlan::Network& net = world().gen.network;
  const ControllerId dom = net.controller_of_building(0);
  fault::FaultPlan plan;
  for (const ApId ap : net.aps_of_controller(dom)) {
    plan.ap_outages.push_back(
        {ap, util::SimTime::from_seconds(0), util::SimTime::from_days(10)});
  }
  const fault::FaultInjector injector(plan, 1);
  ServeConfig cfg;
  cfg.injector = &injector;
  ServePipeline p(&net, &world().model, cfg);
  EXPECT_FALSE(p.place(request(1, 0, 0, 50)).placed);
  EXPECT_EQ(p.stats().rejected_no_candidate, 1U);
  // The other building's domain is untouched.
  EXPECT_TRUE(p.place(request(2, 0, 1, 50)).placed);
}

TEST(ServePipeline, ConcurrentPlaceDepartKeepsBooksBalanced) {
  ServePipeline p(&world().gen.network, &world().model, {});
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kOps = 300;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&p, t]() {
      const std::uint64_t base = (static_cast<std::uint64_t>(t) + 1) << 32;
      for (std::size_t i = 0; i < kOps; ++i) {
        const std::uint64_t id = base + i;
        const UserId user = static_cast<UserId>((t * 31 + i) %
                                                world().model.num_users());
        const BuildingId b = static_cast<BuildingId>(i % 2);
        const std::int64_t now = static_cast<std::int64_t>(i) * 60;
        if (p.place(request(id, user, b, now)).placed && i % 2 == 0) {
          EXPECT_TRUE(p.depart(id, util::SimTime::from_seconds(now + 30)));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const ServeStats s = p.stats();
  EXPECT_EQ(s.placements, kThreads * kOps);
  EXPECT_EQ(s.departures + p.active_sessions(), s.placements);
  EXPECT_EQ(s.rejected_duplicate_id, 0U);
  EXPECT_EQ(s.unknown_departures, 0U);
}

TEST(LineProtocol, EndToEndScript) {
  ServePipeline p(&world().gen.network, &world().model, {});
  std::istringstream in(
      "# comment\n"
      "\n"
      "arrive 1 0 0 5 5 0 1.0\n"
      "arrive 1 2 0 5 5 10 1.0\n"
      "depart 1 100\n"
      "depart 1 110\n"
      "stats\n"
      "social\n");
  std::ostringstream out;
  EXPECT_TRUE(run_line_protocol(p, in, out));
  const std::string text = out.str();
  EXPECT_NE(text.find("place 1 "), std::string::npos);
  EXPECT_NE(text.find("place 1 reject duplicate-id"), std::string::npos);
  EXPECT_NE(text.find("gone 1\n"), std::string::npos);
  EXPECT_NE(text.find("gone 1 unknown"), std::string::npos);
  EXPECT_NE(text.find("stats placements=1 departures=1 active=0"),
            std::string::npos);
  // The social verb serves the cover in one line, ending with the size
  // of the graph it solved.
  EXPECT_NE(text.find("social users=200 "), std::string::npos);
  EXPECT_NE(text.find(" cohesion=0.000000 "), std::string::npos);
  const SocialSnapshot s = p.social_snapshot();
  EXPECT_GT(s.edges, 0U);
  EXPECT_NE(text.find(" exact=1 edges=" + std::to_string(s.edges) +
                      " components=" + std::to_string(s.components) + "\n"),
            std::string::npos);
}

TEST(LineProtocol, MalformedLinesReportErrorsButContinue) {
  // Every malformed class gets its own structured `err <class>` reply
  // (class always the second token, so clients can branch on it), each
  // one lands on the metrics bus, and processing continues: the valid
  // line after the garbage is still served.
  ServePipeline p(&world().gen.network, &world().model, {});
  const std::uint64_t before =
      util::metrics().counter("serve.malformed_lines")->value();
  std::istringstream in(
      "arrive nope\n"
      "arrive 7 0 0 5 5 0\n"
      "depart xyz\n"
      "depart 7\n"
      "frobnicate 1\n"
      "arrive 5 0 0 5 5 0 1.0 stray\n"
      "depart 5 100 stray\n"
      "stats stray\n"
      "social stray\n"
      "arrive 6 0 9 5 5 0 1.0\n"
      "arrive 6 4294967295 0 5 5 0 1.0\n"
      "arrive 6 0 0 5 5 0 -5\n"
      "arrive 5 0 0 5 5 0 1.0\n");
  std::ostringstream out;
  EXPECT_FALSE(run_line_protocol(p, in, out));
  const std::string text = out.str();
  EXPECT_NE(text.find("err malformed-arrive arrive nope"), std::string::npos);
  EXPECT_NE(text.find("err malformed-arrive arrive 7 0 0 5 5 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("err malformed-depart depart xyz"), std::string::npos);
  EXPECT_NE(text.find("err malformed-depart depart 7\n"), std::string::npos);
  EXPECT_NE(text.find("err unknown-verb frobnicate"), std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage arrive 5 0 0 5 5 0 1.0 stray"),
            std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage depart 5 100 stray"),
            std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage stats stray"),
            std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage social stray"),
            std::string::npos);
  // Parsed but outside what place() accepts: no such building, the
  // invalid user id, negative demand.
  EXPECT_NE(text.find("err out-of-range arrive 6 0 9 5 5 0 1.0"),
            std::string::npos);
  EXPECT_NE(text.find("err out-of-range arrive 6 4294967295 0 5 5 0 1.0"),
            std::string::npos);
  EXPECT_NE(text.find("err out-of-range arrive 6 0 0 5 5 0 -5"),
            std::string::npos);
  EXPECT_EQ(p.stats().placements, 1U);
  EXPECT_NE(text.find("place 5 "), std::string::npos);

  // One err line per malformed input, mirrored on the metrics bus.
  EXPECT_EQ(util::metrics().counter("serve.malformed_lines")->value() - before,
            12u);

  // A clean script leaves the counter alone and returns true.
  std::istringstream clean_in("depart 5 100\n");
  std::ostringstream clean_out;
  EXPECT_TRUE(run_line_protocol(p, clean_in, clean_out));
  EXPECT_EQ(util::metrics().counter("serve.malformed_lines")->value() - before,
            12u);
}

}  // namespace
}  // namespace s3::serve

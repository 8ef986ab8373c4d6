#include "s3/social/clique.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "s3/util/metrics.h"
#include "s3/util/rng.h"

namespace s3::social {
namespace {

/// Exhaustive maximum-clique for cross-checking (n <= ~20).
std::size_t brute_force_max_clique_size(const WeightedGraph& g) {
  const std::size_t n = g.size();
  std::size_t best = 0;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<std::size_t> vs;
    for (std::size_t v = 0; v < n; ++v) {
      if (mask & (1u << v)) vs.push_back(v);
    }
    if (vs.size() > best && g.is_clique(vs)) best = vs.size();
  }
  return best;
}

WeightedGraph random_graph(std::size_t n, double p, util::Rng& rng) {
  WeightedGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) g.add_edge(i, j, rng.uniform(0.1, 1.0));
    }
  }
  return g;
}

TEST(MaxClique, EmptyGraph) {
  const CliqueResult r = max_clique(WeightedGraph(0));
  EXPECT_TRUE(r.vertices.empty());
  EXPECT_TRUE(r.exact);
}

TEST(MaxClique, SingleVertex) {
  const CliqueResult r = max_clique(WeightedGraph(1));
  EXPECT_EQ(r.vertices, (std::vector<std::size_t>{0}));
}

TEST(MaxClique, NoEdgesGivesSingleton) {
  const CliqueResult r = max_clique(WeightedGraph(5));
  EXPECT_EQ(r.vertices.size(), 1u);
}

TEST(MaxClique, Triangle) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const CliqueResult r = max_clique(g);
  EXPECT_EQ(r.vertices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(r.internal_weight, 3.0);
}

TEST(MaxClique, CompleteGraph) {
  WeightedGraph g(8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) g.add_edge(i, j, 0.5);
  }
  const CliqueResult r = max_clique(g);
  EXPECT_EQ(r.vertices.size(), 8u);
  EXPECT_TRUE(r.exact);
}

TEST(MaxClique, StarGraphGivesPair) {
  WeightedGraph g(6);
  for (std::size_t leaf = 1; leaf < 6; ++leaf) g.add_edge(0, leaf, 1.0);
  const CliqueResult r = max_clique(g);
  EXPECT_EQ(r.vertices.size(), 2u);
}

TEST(MaxClique, WeightTieBreakPicksHeavier) {
  // Two disjoint triangles; the second is heavier.
  WeightedGraph g(6);
  g.add_edge(0, 1, 0.1);
  g.add_edge(1, 2, 0.1);
  g.add_edge(0, 2, 0.1);
  g.add_edge(3, 4, 0.9);
  g.add_edge(4, 5, 0.9);
  g.add_edge(3, 5, 0.9);
  CliqueConfig cfg;
  cfg.weight_tie_break = true;
  const CliqueResult r = max_clique(g, cfg);
  EXPECT_EQ(r.vertices, (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_NEAR(r.internal_weight, 2.7, 1e-12);
}

TEST(MaxClique, MatchesBruteForceOnRandomGraphs) {
  util::Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 4 + rng.index(12);
    const double p = rng.uniform(0.2, 0.8);
    const WeightedGraph g = random_graph(n, p, rng);
    const CliqueResult r = max_clique(g);
    ASSERT_TRUE(r.exact);
    EXPECT_TRUE(g.is_clique(r.vertices));
    EXPECT_EQ(r.vertices.size(), brute_force_max_clique_size(g))
        << "n=" << n << " p=" << p << " trial=" << trial;
  }
}

TEST(MaxClique, ResultIsAlwaysAClique) {
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const WeightedGraph g = random_graph(30, 0.5, rng);
    const CliqueResult r = max_clique(g);
    EXPECT_TRUE(g.is_clique(r.vertices));
    EXPECT_NEAR(r.internal_weight, g.internal_weight(r.vertices), 1e-9);
  }
}

TEST(MaxClique, NodeBudgetFallsBackGracefully) {
  util::Rng rng(9);
  const WeightedGraph g = random_graph(40, 0.7, rng);
  CliqueConfig cfg;
  cfg.node_budget = 50;  // absurdly small
  const CliqueResult r = max_clique(g, cfg);
  EXPECT_FALSE(r.exact);
  EXPECT_FALSE(r.vertices.empty());
  EXPECT_TRUE(g.is_clique(r.vertices));
}

TEST(MaxClique, BudgetExhaustionBumpsTheMetricsCounter) {
  util::Rng rng(9);
  const WeightedGraph g = random_graph(40, 0.7, rng);
  CliqueConfig cfg;
  cfg.node_budget = 50;
  util::metrics().reset();
  (void)max_clique(g, cfg);
  std::uint64_t exhausted = 0;
  for (const util::MetricSample& s : util::metrics().snapshot()) {
    if (s.name == "social.clique_budget_exhausted") exhausted = s.count;
  }
  EXPECT_EQ(exhausted, 1u);
}

TEST(GreedyColoring, ProperColoring) {
  util::Rng rng(5);
  const WeightedGraph g = random_graph(25, 0.4, rng);
  const auto color = greedy_coloring(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (std::size_t j = i + 1; j < g.size(); ++j) {
      if (g.adjacent(i, j)) {
        EXPECT_NE(color[i], color[j]);
      }
    }
  }
}

TEST(GreedyColoring, CompleteGraphUsesNColors) {
  WeightedGraph g(5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) g.add_edge(i, j, 1.0);
  }
  const auto color = greedy_coloring(g);
  std::set<std::size_t> used(color.begin(), color.end());
  EXPECT_EQ(used.size(), 5u);
}

TEST(CliqueCover, PartitionsAllVertices) {
  util::Rng rng(11);
  const WeightedGraph g = random_graph(20, 0.4, rng);
  const auto cover = clique_cover(g).cliques;
  std::vector<bool> seen(20, false);
  for (const auto& clique : cover) {
    EXPECT_TRUE(g.is_clique(clique));
    for (std::size_t v : clique) {
      EXPECT_FALSE(seen[v]) << "vertex covered twice";
      seen[v] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(CliqueCover, ExtractionOrderIsNonIncreasingSize) {
  util::Rng rng(13);
  const WeightedGraph g = random_graph(24, 0.5, rng);
  const auto cover = clique_cover(g).cliques;
  for (std::size_t i = 1; i < cover.size(); ++i) {
    EXPECT_LE(cover[i].size(), cover[i - 1].size());
  }
}

TEST(CliqueCover, TwoTrianglesAndIsolated) {
  WeightedGraph g(7);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(3, 4, 2.0);
  g.add_edge(4, 5, 2.0);
  g.add_edge(3, 5, 2.0);
  const auto cover = clique_cover(g).cliques;
  ASSERT_EQ(cover.size(), 3u);
  EXPECT_EQ(cover[0], (std::vector<std::size_t>{3, 4, 5}));  // heavier first
  EXPECT_EQ(cover[1], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(cover[2], (std::vector<std::size_t>{6}));
}

TEST(CliqueCover, EmptyGraph) {
  EXPECT_TRUE(clique_cover(WeightedGraph(0)).cliques.empty());
}

TEST(CliqueCover, AllIsolatedVertices) {
  const auto cover = clique_cover(WeightedGraph(4)).cliques;
  EXPECT_EQ(cover.size(), 4u);
  for (const auto& c : cover) EXPECT_EQ(c.size(), 1u);
}

/// True iff two vertices of cliques[from..] are adjacent in `g`: the
/// extraction that produced cliques[from] ran while edges remained.
bool edges_remain(const WeightedGraph& g,
                  const std::vector<std::vector<std::size_t>>& cliques,
                  std::size_t from) {
  std::vector<std::size_t> live;
  for (std::size_t k = from; k < cliques.size(); ++k) {
    live.insert(live.end(), cliques[k].begin(), cliques[k].end());
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      if (g.adjacent(live[i], live[j])) return true;
    }
  }
  return false;
}

TEST(CliqueCover, SeededDigestGolden) {
  // Pins every output of the solver — each cover in extraction order
  // with its exactness and exploration count, max_clique's vertices and
  // weight bits, and the greedy colouring — over seeded random graphs
  // under generous, tight and starved node budgets, with and without
  // the weight tie-break. A refactor that moves this digest changed
  // behaviour.
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_vertices = [&mix](const std::vector<std::size_t>& vs) {
    mix(vs.size());
    for (std::size_t v : vs) mix(v);
  };
  bool starved_singleton_with_edges = false;
  util::Rng rng(2013);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.index(90);
    const double p = rng.uniform(0.02, 0.9);
    const WeightedGraph g = random_graph(n, p, rng);
    mix_vertices(greedy_coloring(g));
    for (const std::uint64_t budget :
         {CliqueConfig{}.node_budget, std::uint64_t{50}, std::uint64_t{7}}) {
      for (const bool tie_break : {true, false}) {
        CliqueConfig cfg;
        cfg.node_budget = budget;
        cfg.weight_tie_break = tie_break;
        const CliqueResult r = max_clique(g, cfg);
        mix_vertices(r.vertices);
        mix(std::bit_cast<std::uint64_t>(r.internal_weight));
        mix(r.nodes_explored);
        mix(r.exact);
        const CliqueCoverResult cover = clique_cover(g, cfg);
        mix(cover.cliques.size());
        for (const auto& clique : cover.cliques) mix_vertices(clique);
        mix(cover.exact);
        mix(cover.nodes_explored);
        for (std::size_t k = 0; !cover.exact && k < cover.cliques.size();
             ++k) {
          if (cover.cliques[k].size() == 1 &&
              edges_remain(g, cover.cliques, k)) {
            starved_singleton_with_edges = true;
          }
        }
      }
    }
  }
  // The set must reach the "only isolated vertices remain" guard with a
  // budget-starved singleton while edges are still live.
  EXPECT_TRUE(starved_singleton_with_edges);
  EXPECT_EQ(h, 4810869772368780911ULL);
}

// Property sweep across densities: solver exactness and cover sanity.
class CliquePropertyTest
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(CliquePropertyTest, ExactAndConsistent) {
  const auto [n, p] = GetParam();
  util::Rng rng(n * 1000 + static_cast<std::uint64_t>(p * 100));
  const WeightedGraph g = random_graph(n, p, rng);
  const CliqueResult r = max_clique(g);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(g.is_clique(r.vertices));
  if (n <= 16) {
    EXPECT_EQ(r.vertices.size(), brute_force_max_clique_size(g));
  }
  const auto cover = clique_cover(g).cliques;
  std::size_t covered = 0;
  for (const auto& c : cover) covered += c.size();
  EXPECT_EQ(covered, n);
  EXPECT_EQ(cover.front().size(), r.vertices.size());
}

INSTANTIATE_TEST_SUITE_P(
    Densities, CliquePropertyTest,
    ::testing::Values(std::pair<std::size_t, double>{8, 0.2},
                      std::pair<std::size_t, double>{12, 0.5},
                      std::pair<std::size_t, double>{16, 0.8},
                      std::pair<std::size_t, double>{32, 0.3},
                      std::pair<std::size_t, double>{48, 0.15}));

}  // namespace
}  // namespace s3::social

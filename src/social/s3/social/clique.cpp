#include "s3/social/clique.h"

#include <algorithm>
#include <numeric>

#include "s3/util/metrics.h"

namespace s3::social {

namespace {

/// The vertices still in play while a cover extracts cliques from the
/// caller's graph: ascending ids, and the same set as a bitset.
struct LiveVertices {
  std::vector<std::size_t> ids;
  Bitset mask;
};

LiveVertices all_vertices(const WeightedGraph& g) {
  LiveVertices live{std::vector<std::size_t>(g.size()), Bitset(g.size())};
  std::iota(live.ids.begin(), live.ids.end(), std::size_t{0});
  for (std::size_t v : live.ids) live.mask.set(v);
  return live;
}

/// Degree of each live vertex within the live subgraph, indexed by
/// graph vertex.
std::vector<std::size_t> live_degrees(const WeightedGraph& g,
                                      const LiveVertices& live) {
  std::vector<std::size_t> degree(g.size(), 0);
  for (std::size_t v : live.ids) {
    degree[v] = (g.neighbors(v) & live.mask).count();
  }
  return degree;
}

bool has_live_edge(const WeightedGraph& g, const LiveVertices& live) {
  return std::any_of(live.ids.begin(), live.ids.end(), [&](std::size_t v) {
    return (g.neighbors(v) & live.mask).any();
  });
}

/// Greedy colouring of the live subgraph, indexed by graph vertex.
std::vector<std::size_t> color_live(const WeightedGraph& g,
                                    const LiveVertices& live,
                                    const std::vector<std::size_t>& degree) {
  const std::size_t n = live.ids.size();
  std::vector<std::size_t> order = live.ids;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (degree[a] != degree[b]) return degree[a] > degree[b];  // largest first
    return a < b;
  });

  std::vector<std::size_t> color(g.size(), 0);
  std::vector<bool> used;
  for (std::size_t v : order) {
    used.assign(n, false);
    for (std::size_t u : live.ids) {
      if (u != v && g.adjacent(u, v)) used[color[u]] = true;
    }
    // Vertices not yet coloured have colour 0 marked used spuriously
    // only if adjacent; the first free colour is still correct because
    // an uncoloured neighbour's slot-0 mark merely biases upward.
    std::size_t c = 0;
    while (c < n && used[c]) ++c;
    color[v] = c;
  }
  return color;
}

/// Östergård search over the live subgraph, with its vertices placed in
/// colour order.
class OstergardSearch {
 public:
  OstergardSearch(const WeightedGraph& g, const LiveVertices& live,
                  const CliqueConfig& cfg)
      : g_(g), cfg_(cfg), n_(live.ids.size()), vertex_(live.ids), c_(n_, 0) {
    // Order: colour ascending, then degree descending — small-colour
    // (sparse) vertices end up late, matching Östergård's suffix walk.
    const std::vector<std::size_t> degree = live_degrees(g, live);
    const std::vector<std::size_t> color = color_live(g, live, degree);
    std::sort(vertex_.begin(), vertex_.end(),
              [&](std::size_t a, std::size_t b) {
                if (color[a] != color[b]) return color[a] < color[b];
                if (degree[a] != degree[b]) return degree[a] > degree[b];
                return a < b;
              });

    // Adjacency over search positions.
    adj_.assign(n_, Bitset(n_));
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j < n_; ++j) {
        if (g.adjacent(vertex_[i], vertex_[j])) {
          adj_[i].set(j);
          adj_[j].set(i);
        }
      }
    }
  }

  CliqueResult run() {
    if (n_ == 0) return {};
    for (std::size_t idx = n_; idx-- > 0;) {
      found_ = false;
      stack_.assign(1, idx);
      Bitset u = adj_[idx];
      u.reset_below(idx);  // neighbours within suffix {idx..n-1}
      expand(u, 1, 0.0);
      c_[idx] = best_size_;
      if (aborted_) break;
    }
    CliqueResult result;
    result.vertices.reserve(best_.size());
    for (std::size_t i : best_) result.vertices.push_back(vertex_[i]);
    std::sort(result.vertices.begin(), result.vertices.end());
    result.internal_weight = best_weight_;
    result.nodes_explored = nodes_;
    result.exact = !aborted_;
    return result;
  }

 private:
  double edge_weight(std::size_t i, std::size_t j) const {
    return g_.weight(vertex_[i], vertex_[j]);
  }

  void record_leaf(std::size_t size, double weight) {
    if (size > best_size_ ||
        (cfg_.weight_tie_break && size == best_size_ &&
         weight > best_weight_)) {
      if (size > best_size_) found_ = true;
      best_size_ = size;
      best_weight_ = weight;
      best_ = stack_;
    }
  }

  /// Prune when even the optimistic bound cannot beat the incumbent
  /// (cannot *tie* it either, when weight ties matter).
  bool hopeless(std::size_t optimistic) const {
    if (optimistic < best_size_) return true;
    return optimistic == best_size_ && !cfg_.weight_tie_break;
  }

  void expand(Bitset u, std::size_t size, double weight) {
    if (aborted_) return;
    if (++nodes_ > cfg_.node_budget) {
      aborted_ = true;
      return;
    }
    if (!u.any()) {
      record_leaf(size, weight);
      return;
    }
    while (u.any()) {
      if (hopeless(size + u.count())) return;
      const std::size_t i = u.first();
      if (hopeless(size + c_[i])) return;
      u.reset(i);

      double w2 = weight;
      for (std::size_t v : stack_) w2 += edge_weight(i, v);
      stack_.push_back(i);
      expand(u & adj_[i], size + 1, w2);
      stack_.pop_back();

      if (aborted_) return;
      // Strict-improvement early exit (Östergård): within suffix i the
      // best possible is c_[i+1] + 1, already achieved.
      if (found_ && !cfg_.weight_tie_break) return;
    }
    // All extensions pruned/explored: this node is itself maximal
    // within the remaining candidate order only if u started empty,
    // handled above.
  }

  const WeightedGraph& g_;
  const CliqueConfig cfg_;
  std::size_t n_;
  std::vector<std::size_t> vertex_;  ///< search position -> graph vertex
  std::vector<Bitset> adj_;
  std::vector<std::size_t> c_;

  std::vector<std::size_t> stack_;
  std::vector<std::size_t> best_;
  std::size_t best_size_ = 0;
  double best_weight_ = -1.0;
  bool found_ = false;
  bool aborted_ = false;
  std::uint64_t nodes_ = 0;
};

/// One extraction: the maximum clique of the live subgraph, counted on
/// the metrics bus.
CliqueResult search(const WeightedGraph& g, const LiveVertices& live,
                    const CliqueConfig& config) {
  static util::Counter* const extractions =
      util::metrics().counter("social.clique_extractions");
  static util::Counter* const nodes =
      util::metrics().counter("social.clique_nodes_explored");
  static util::Counter* const budget_exhausted =
      util::metrics().counter("social.clique_budget_exhausted");
  CliqueResult result = OstergardSearch(g, live, config).run();
  extractions->add();
  nodes->add(result.nodes_explored);
  if (!result.exact) budget_exhausted->add();
  return result;
}

}  // namespace

std::vector<std::size_t> greedy_coloring(const WeightedGraph& g) {
  const LiveVertices live = all_vertices(g);
  return color_live(g, live, live_degrees(g, live));
}

CliqueResult max_clique(const WeightedGraph& g, const CliqueConfig& config) {
  return search(g, all_vertices(g), config);
}

CliqueCoverResult clique_cover(const WeightedGraph& g,
                               const CliqueConfig& config) {
  CliqueCoverResult cover;
  LiveVertices live = all_vertices(g);
  while (!live.ids.empty()) {
    CliqueResult r = search(g, live, config);
    S3_ASSERT(!r.vertices.empty(), "clique_cover: empty clique on non-empty graph");
    cover.exact = cover.exact && r.exact;
    cover.nodes_explored += r.nodes_explored;

    if (r.vertices.size() == 1 && !has_live_edge(g, live)) {
      // Only isolated vertices remain: emit them all as singletons.
      for (std::size_t v : live.ids) cover.cliques.push_back({v});
      break;
    }

    for (std::size_t v : r.vertices) live.mask.reset(v);
    std::erase_if(live.ids, [&](std::size_t v) { return !live.mask.test(v); });
    cover.cliques.push_back(std::move(r.vertices));
  }
  return cover;
}

}  // namespace s3::social

#include "s3/core/s3_selector.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <unordered_map>

#include "s3/analysis/balance.h"
#include "s3/util/metrics.h"

namespace s3::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kCostEps = 1e-12;

struct S3Metrics {
  util::Timer* clique_cover;
  util::Counter* distributions;
  util::Counter* exact_enumerations;
  util::Counter* beam_searches;
  util::Histogram* clique_size;
};

const S3Metrics& s3_metrics() {
  static const S3Metrics m{
      util::metrics().timer("core.s3.clique_cover_ns"),
      util::metrics().counter("core.s3.distributions_enumerated"),
      util::metrics().counter("core.s3.exact_enumerations"),
      util::metrics().counter("core.s3.beam_searches"),
      util::metrics().histogram("core.s3.clique_size"),
  };
  return m;
}

/// One candidate distribution of a clique over APs.
struct Distribution {
  std::vector<std::size_t> choice;  ///< per member: index into its candidates
  double cost = 0.0;
  bool feasible = true;
};

}  // namespace

S3Selector::S3Selector(const wlan::Network* net,
                       const social::ThetaProvider* model, S3Config config)
    : net_(net), model_(model), config_(config), llf_(config.llf_metric) {
  S3_REQUIRE(net_ != nullptr, "S3Selector: null network");
  S3_REQUIRE(model_ != nullptr, "S3Selector: null model");
  S3_REQUIRE(config_.theta_threshold >= 0.0, "S3Selector: bad threshold");
  S3_REQUIRE(config_.top_fraction > 0.0 && config_.top_fraction <= 1.0,
             "S3Selector: top_fraction outside (0,1]");
  S3_REQUIRE(config_.beam_width >= 1, "S3Selector: beam_width must be >= 1");
}

std::uint64_t S3Selector::state_digest() const {
  std::uint64_t h = 0x53335f646967ULL;  // "S3_dig"
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  };
  mix(stats_.batches);
  mix(stats_.singles);
  mix(stats_.cliques);
  mix(stats_.clique_members);
  mix(stats_.largest_clique);
  mix(stats_.exact_enumerations);
  mix(stats_.beam_searches);
  mix(stats_.bandwidth_fallbacks);
  mix(stats_.empty_candidate_fallbacks);
  mix(stats_.degraded_batches);
  mix(stats_.inexact_covers);
  mix(last_full_fidelity_ ? 1 : 0);
  return h;
}

// C(AP) counts only *close* relations (θ above the graph's edge
// threshold) unless threshold < 0. The type prior alone gives every
// pair a small positive θ; summing those would turn C into a
// station-count proxy and make S3 fight LLF's traffic balancing for
// users with no real ties — exactly the case the pseudocode routes to
// LLF ("if there are multiple candidate APs to choose, apply LLF").
// The station users are gathered once and scored with a single
// theta_row call: one batched probe sweep instead of |S(AP)| virtual
// scalar lookups. Summation order matches the station iteration order,
// so the total is bit-identical to the old per-station loop.
double S3Selector::social_cost(const sim::ApLoadTracker& loads, UserId user,
                               ApId ap, double threshold) {
  row_users_.clear();
  loads.for_each_station(ap, [&](const sim::ActiveStation& st) {
    row_users_.push_back(st.user);
  });
  if (row_users_.empty()) return 0.0;
  if (row_theta_.size() < row_users_.size()) {
    row_theta_.resize(row_users_.size());
  }
  const std::span<double> out =
      std::span<double>(row_theta_).first(row_users_.size());
  model_->theta_row(user, row_users_, out);
  double cost = 0.0;
  for (const double th : out) {
    if (threshold < 0.0 || th > threshold) cost += th;
  }
  return cost;
}

ApId S3Selector::select_one(const sim::Arrival& arrival,
                            const sim::ApLoadTracker& loads) {
  if (arrival.candidates.empty()) {
    // Caller contract breach; count it before the precondition throws
    // so the two fallback flavours stay distinguishable in stats.
    ++stats_.empty_candidate_fallbacks;
  }
  S3_REQUIRE(!arrival.candidates.empty(), "S3: no candidates");
  if (degraded()) {
    return least_loaded(arrival, loads, config_.llf_metric);
  }

  double best = kInf;
  std::vector<ApId> ties;
  for (ApId ap : arrival.candidates) {
    if (config_.respect_bandwidth &&
        loads.headroom_mbps(ap) < arrival.demand_mbps) {
      continue;  // infinite cost (line 8–9 of Algorithm 1)
    }
    const double cost =
        social_cost(loads, arrival.user, ap,
                    config_.count_weak_ties_in_cost ? -1.0
                                                    : config_.theta_threshold);
    if (cost < best - kCostEps) {
      best = cost;
      ties.assign(1, ap);
    } else if (cost <= best + kCostEps) {
      ties.push_back(ap);
    }
  }
  if (ties.empty()) {
    // Every candidate violates the bandwidth constraint: the request
    // cannot be refused, degrade to LLF over all candidates.
    ++stats_.bandwidth_fallbacks;
    return least_loaded(arrival, loads, config_.llf_metric);
  }
  if (ties.size() == 1) return ties.front();
  // Pure tie (typically all-zero social cost): LLF, per the pseudocode.
  return least_loaded_of(ties, loads, config_.llf_metric);
}

sim::BatchResult S3Selector::place_batch(const sim::BatchRequest& request,
                                         const sim::ApLoadTracker& loads) {
  const std::span<const sim::Arrival> batch = request.arrivals;
  controls_ = request.faults;
  if (batch.empty()) return {};
  ++stats_.batches;
  if (degraded()) {
    // Fault directive: the social model is out (or the engine's state
    // machine ordered a fallback batch) — serve with the embedded LLF,
    // the same deployed-controller policy the pseudocode falls back to.
    ++stats_.degraded_batches;
    last_full_fidelity_ = controls_.model_available;
    sim::BatchResult fallback = llf_.place_batch(request, loads);
    fallback.full_fidelity = last_full_fidelity_;
    return fallback;
  }
  last_full_fidelity_ = true;
  std::vector<ApId> result(batch.size(), kInvalidAp);
  sim::ApLoadTracker scratch = loads;

  auto commit = [&](std::size_t batch_index, ApId ap) {
    const sim::Arrival& a = batch[batch_index];
    scratch.associate(a.session_index, ap, a.user, a.demand_mbps);
    result[batch_index] = ap;
  };

  // ---- Social graph over the batch (vertices = batch indices) -------
  // One theta_row per vertex against the suffix of the batch: θ is
  // symmetric, so the upper triangle covers every pair.
  social::WeightedGraph graph(batch.size());
  std::vector<UserId> users(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) users[i] = batch[i].user;
  std::vector<double> row(batch.size(), 0.0);
  for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
    const std::span<const UserId> vs =
        std::span<const UserId>(users).subspan(i + 1);
    const std::span<double> out = std::span<double>(row).first(vs.size());
    model_->theta_row(users[i], vs, out);
    for (std::size_t j = 0; j < vs.size(); ++j) {
      if (out[j] > config_.theta_threshold) {
        graph.add_edge(i, i + 1 + j, out[j]);
      }
    }
  }

  // ---- Iterative clique extraction + placement ----------------------
  social::CliqueConfig clique_config = config_.clique;
  if (controls_.clique_node_budget > 0) {
    clique_config.node_budget =
        std::min(clique_config.node_budget, controls_.clique_node_budget);
  }
  social::CliqueCoverResult cover_result;
  {
    util::ScopedTimer timing(s3_metrics().clique_cover);
    cover_result = social::clique_cover(graph, clique_config);
  }
  if (!cover_result.exact) {
    ++stats_.inexact_covers;
    last_full_fidelity_ = false;
    if (!warned_inexact_) {
      warned_inexact_ = true;
      std::cerr << "s3: clique node budget exhausted on a batch graph; "
                   "covers may be suboptimal (reported once per replay; see "
                   "counter social.clique_budget_exhausted)\n";
    }
  }

  for (const std::vector<std::size_t>& clique : cover_result.cliques) {
    if (clique.size() == 1) {
      ++stats_.singles;
      const sim::Arrival& a = batch[clique.front()];
      commit(clique.front(), select_one(a, scratch));
      continue;
    }
    ++stats_.cliques;
    stats_.clique_members += clique.size();
    stats_.largest_clique = std::max(stats_.largest_clique, clique.size());
    s3_metrics().clique_size->record(clique.size());
    place_clique_members(batch, graph, clique, scratch, commit);
  }
  return {std::move(result), last_full_fidelity_};
}

void S3Selector::place_clique_members(
    std::span<const sim::Arrival> batch, const social::WeightedGraph& graph,
    const std::vector<std::size_t>& clique, const sim::ApLoadTracker& scratch,
    const std::function<void(std::size_t, ApId)>& commit) {
  const std::size_t m = clique.size();

  // Precompute, per member, the per-candidate base social cost against
  // the committed state, and the intra-clique θ matrix. Every member
  // pair is a batch-graph edge, weighted with the θ its lower-index
  // member's theta_row read, so the matrix is read off the graph.
  std::vector<std::vector<double>> member_base(m);
  for (std::size_t k = 0; k < m; ++k) {
    const sim::Arrival& a = batch[clique[k]];
    member_base[k].reserve(a.candidates.size());
    for (ApId ap : a.candidates) {
      member_base[k].push_back(social_cost(
          scratch, a.user, ap,
          config_.count_weak_ties_in_cost ? -1.0 : config_.theta_threshold));
    }
  }
  std::vector<double> theta(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      theta[i * m + j] = theta[j * m + i] = graph.weight(clique[i], clique[j]);
    }
  }

  // Cost/feasibility of extending a partial distribution with member k
  // on candidate index c: the earlier members of the distribution that
  // chose the same AP add their θ to the cost and their demand to the
  // AP's load.
  auto extend_cost = [&](const Distribution& d, std::size_t k,
                         std::size_t c) -> double {
    const sim::Arrival& a = batch[clique[k]];
    const ApId ap = a.candidates[c];
    double cost = member_base[k][c];
    double added = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      const sim::Arrival& earlier = batch[clique[p]];
      if (earlier.candidates[d.choice[p]] == ap) {
        cost += theta[k * m + p];
        added += earlier.demand_mbps;
      }
    }
    if (config_.respect_bandwidth &&
        scratch.headroom_mbps(ap) - added < a.demand_mbps) {
      return kInf;
    }
    return cost;
  };

  // ---- Enumerate (exact or beam) -------------------------------------
  double space = 1.0;
  for (std::size_t k = 0; k < m; ++k) {
    space *= static_cast<double>(batch[clique[k]].candidates.size());
    if (space > 1e18) break;
  }

  std::vector<Distribution> frontier{Distribution{}};
  const bool exact = space <= static_cast<double>(config_.enumeration_limit);
  if (exact) {
    ++stats_.exact_enumerations;
    s3_metrics().exact_enumerations->add();
  } else {
    ++stats_.beam_searches;
    s3_metrics().beam_searches->add();
  }
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t n_cand = batch[clique[k]].candidates.size();
    std::vector<Distribution> next;
    next.reserve(frontier.size() * n_cand);
    for (const Distribution& d : frontier) {
      for (std::size_t c = 0; c < n_cand; ++c) {
        const double step = extend_cost(d, k, c);
        Distribution e = d;
        e.choice.push_back(c);
        if (step == kInf) {
          e.feasible = false;
          e.cost = kInf;
        } else if (e.feasible) {
          e.cost += step;
        }
        next.push_back(std::move(e));
      }
    }
    s3_metrics().distributions->add(next.size());
    if (!exact && next.size() > config_.beam_width) {
      std::nth_element(next.begin(),
                       next.begin() + static_cast<std::ptrdiff_t>(
                                          config_.beam_width),
                       next.end(),
                       [](const Distribution& a, const Distribution& b) {
                         return a.cost < b.cost;
                       });
      next.resize(config_.beam_width);
    }
    frontier = std::move(next);
  }

  // Keep feasible distributions only; if none, place members one by one
  // via the single-user path (which itself degrades to LLF).
  std::vector<Distribution> feasible;
  for (Distribution& d : frontier) {
    if (d.feasible) feasible.push_back(std::move(d));
  }
  if (feasible.empty()) {
    sim::ApLoadTracker local = scratch;
    for (std::size_t k = 0; k < m; ++k) {
      const sim::Arrival& a = batch[clique[k]];
      const ApId ap = select_one(a, local);
      local.associate(a.session_index, ap, a.user, a.demand_mbps);
      commit(clique[k], ap);
    }
    return;
  }

  // Sort by total social cost; keep the cheapest top_fraction (line 6
  // of Algorithm 1), then pick the best balance index among them.
  std::sort(feasible.begin(), feasible.end(),
            [](const Distribution& a, const Distribution& b) {
              return a.cost < b.cost;
            });
  std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(static_cast<double>(feasible.size()) *
                       config_.top_fraction)));
  // Extend across cost ties at the boundary so the balance tie-break
  // sees every distribution as cheap as the last kept one.
  while (keep < feasible.size() &&
         feasible[keep].cost <= feasible[keep - 1].cost + kCostEps) {
    ++keep;
  }

  const auto domain = net_->aps_of_controller(batch[clique[0]].controller);
  std::vector<double> loads_base(domain.size());
  std::unordered_map<ApId, std::size_t> domain_index;
  for (std::size_t i = 0; i < domain.size(); ++i) {
    loads_base[i] = scratch.demand_mbps(domain[i]);
    domain_index.emplace(domain[i], i);
  }

  const Distribution* best = &feasible.front();
  double best_beta = -1.0;
  std::vector<double> loads_tmp;
  for (std::size_t i = 0; i < keep; ++i) {
    loads_tmp = loads_base;
    for (std::size_t k = 0; k < m; ++k) {
      const sim::Arrival& a = batch[clique[k]];
      const ApId ap = a.candidates[feasible[i].choice[k]];
      const auto it = domain_index.find(ap);
      if (it != domain_index.end()) {
        loads_tmp[it->second] += a.demand_mbps;
      }
    }
    const double beta = analysis::normalized_balance_index(loads_tmp);
    if (beta > best_beta) {
      best_beta = beta;
      best = &feasible[i];
    }
  }

  for (std::size_t k = 0; k < m; ++k) {
    commit(clique[k], batch[clique[k]].candidates[best->choice[k]]);
  }
}

}  // namespace s3::core

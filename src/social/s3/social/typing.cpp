#include "s3/social/typing.h"

#include <algorithm>
#include <limits>

namespace s3::social {

UserTyping cluster_users(const std::vector<apps::AppMix>& profiles,
                         const UserTypingConfig& config) {
  S3_REQUIRE(!profiles.empty(), "cluster_users: no users");

  // Active users (nonzero profile) form the clustering input.
  std::vector<std::size_t> active;
  active.reserve(profiles.size());
  for (std::size_t u = 0; u < profiles.size(); ++u) {
    if (apps::total(profiles[u]) > 0.0) active.push_back(u);
  }
  S3_REQUIRE(!active.empty(), "cluster_users: all profiles are empty");

  cluster::Dataset data;
  data.num_points = active.size();
  data.dim = apps::kNumCategories;
  data.values.reserve(active.size() * apps::kNumCategories);
  for (std::size_t u : active) {
    const apps::AppMix norm = apps::normalized(profiles[u]);
    data.values.insert(data.values.end(), norm.begin(), norm.end());
  }

  std::size_t k = config.k;
  if (k == 0) {
    cluster::GapStatisticConfig gc;
    gc.max_k = std::min(config.max_k_for_gap, active.size());
    gc.num_references = config.gap_references;
    gc.kmeans_restarts = config.kmeans_restarts;
    gc.seed = config.seed;
    k = cluster::gap_statistic(data, gc).optimal_k;
  }
  k = std::min(k, active.size());

  cluster::KMeansConfig kc;
  kc.k = k;
  kc.restarts = config.kmeans_restarts;
  kc.seed = config.seed;
  const cluster::KMeansResult km = cluster::kmeans(data, kc);

  UserTyping typing;
  typing.num_types = k;
  typing.centroids = km.centroids;
  typing.type_of_user.assign(profiles.size(), 0);
  for (std::size_t i = 0; i < active.size(); ++i) {
    typing.type_of_user[active[i]] = km.assignment[i];
  }

  // Inactive users: nearest centroid to the zero vector (they carry no
  // signal; any deterministic rule works, this one is stable).
  std::size_t zero_type = 0;
  double best = std::numeric_limits<double>::infinity();
  const apps::AppMix zero{};
  for (std::size_t c = 0; c < k; ++c) {
    const double d = cluster::squared_distance(
        typing.centroid(c), std::span<const double>(zero.data(), zero.size()));
    if (d < best) {
      best = d;
      zero_type = c;
    }
  }
  for (std::size_t u = 0; u < profiles.size(); ++u) {
    if (apps::total(profiles[u]) <= 0.0) typing.type_of_user[u] = zero_type;
  }
  return typing;
}

double TypeCoLeaveMatrix::diagonal_dominance() const {
  if (num_types_ < 2) return 0.0;
  double diag = 0.0, off = 0.0;
  std::size_t off_n = 0;
  for (std::size_t i = 0; i < num_types_; ++i) {
    diag += at(i, i);
    for (std::size_t j = 0; j < num_types_; ++j) {
      if (i != j) {
        off += at(i, j);
        ++off_n;
      }
    }
  }
  return diag / static_cast<double>(num_types_) -
         off / static_cast<double>(off_n);
}

TypeCoLeaveMatrix estimate_type_matrix(const UserTyping& typing,
                                       const PairStore& stats) {
  S3_REQUIRE(typing.num_types > 0, "estimate_type_matrix: no types");
  const std::size_t k = typing.num_types;
  std::vector<double> co_leaves(k * k, 0.0);
  std::vector<double> encounters(k * k, 0.0);

  for (const auto& [pair, ps] : stats) {
    if (ps.encounters == 0) continue;
    const std::size_t ti = typing.type(pair.a);
    const std::size_t tj = typing.type(pair.b);
    co_leaves[ti * k + tj] += ps.co_leaves;
    encounters[ti * k + tj] += ps.encounters;
    if (ti != tj) {
      co_leaves[tj * k + ti] += ps.co_leaves;
      encounters[tj * k + ti] += ps.encounters;
    }
  }

  TypeCoLeaveMatrix matrix(k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < k; ++j) {
      const double e = encounters[i * k + j];
      matrix.set(i, j, e > 0.0 ? co_leaves[i * k + j] / e : 0.0);
    }
  }
  return matrix;
}

}  // namespace s3::social

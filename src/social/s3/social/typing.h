// User typing (§III-D-2): cluster users by their normalized application
// profiles into k usage types, and estimate the type-pair co-leaving
// matrix T of Table I.
#pragma once

#include <cstdint>
#include <vector>

#include "s3/apps/app_category.h"
#include "s3/cluster/gap_statistic.h"
#include "s3/cluster/kmeans.h"
#include "s3/social/pair_store.h"
#include "s3/util/ids.h"

namespace s3::social {

struct UserTypingConfig {
  /// Number of types; 0 selects k automatically via the gap statistic
  /// (the paper's procedure, which yields 4 on its trace).
  std::size_t k = 4;
  std::size_t max_k_for_gap = 10;
  std::size_t gap_references = 10;
  std::size_t kmeans_restarts = 4;
  std::uint64_t seed = 7;
};

struct UserTyping {
  /// Type id per user (aligned with UserId).
  std::vector<std::size_t> type_of_user;
  std::size_t num_types = 0;
  /// Row-major num_types x 6 centroid matrix (Fig. 8's content).
  std::vector<double> centroids;

  std::size_t type(UserId u) const {
    S3_REQUIRE(u < type_of_user.size(), "UserTyping: user out of range");
    return type_of_user[u];
  }
  std::span<const double> centroid(std::size_t t) const {
    S3_REQUIRE(t < num_types, "UserTyping: type out of range");
    return std::span<const double>(centroids)
        .subspan(t * apps::kNumCategories, apps::kNumCategories);
  }
};

/// Clusters users' normalized profiles (rows aligned with UserId).
/// Users with an all-zero profile are assigned to the nearest centroid
/// of the zero vector after clustering the active users.
UserTyping cluster_users(const std::vector<apps::AppMix>& profiles,
                         const UserTypingConfig& config);

/// Table I: T(type_i, type_j) — empirical probability that an
/// encounter between a type-i and a type-j user ends in a co-leaving.
class TypeCoLeaveMatrix {
 public:
  TypeCoLeaveMatrix() = default;
  explicit TypeCoLeaveMatrix(std::size_t num_types)
      : num_types_(num_types), values_(num_types * num_types, 0.0) {}

  std::size_t num_types() const noexcept { return num_types_; }

  double at(std::size_t i, std::size_t j) const {
    S3_REQUIRE(i < num_types_ && j < num_types_,
               "TypeCoLeaveMatrix: index out of range");
    return values_[i * num_types_ + j];
  }
  void set(std::size_t i, std::size_t j, double v) {
    S3_REQUIRE(i < num_types_ && j < num_types_,
               "TypeCoLeaveMatrix: index out of range");
    values_[i * num_types_ + j] = v;
    values_[j * num_types_ + i] = v;
  }

  /// Mean of the diagonal minus mean of the off-diagonal — positive
  /// when same-type pairs co-leave more (the paper's key observation).
  double diagonal_dominance() const;

 private:
  std::size_t num_types_ = 0;
  std::vector<double> values_;
};

/// Estimates T from typed users and per-pair event statistics:
/// T[i][j] = Σ co_leaves / Σ encounters over pairs with types {i, j}.
TypeCoLeaveMatrix estimate_type_matrix(const UserTyping& typing,
                                       const PairStore& stats);

}  // namespace s3::social

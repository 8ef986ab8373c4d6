// Weighted undirected graph over a working set of users, with dynamic
// bitset adjacency — the representation the clique machinery runs on —
// plus the ThetaDelta change-feed record of the ThetaProvider
// interface.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "s3/util/error.h"
#include "s3/util/ids.h"

namespace s3::social {

class ThetaProvider;

/// One record of a ThetaProvider's structured change feed: pair
/// (u, v)'s social relation index moved to `theta`.
///
/// The feed stays on the interface for forwarding wrappers outside the
/// library; no provider in it emits one. Its contract, for a provider
/// that does (`ThetaProvider::emits_theta_deltas`):
///
///   * One ThetaDelta per mutation that changes any θ(u, v), carrying
///     θ(u, v) *after* the mutation, so applying a feed suffix in order
///     converges on the provider's current θ for every touched pair.
///   * When a poll reports `complete == false`, records the consumer
///     had not seen were discarded, and derived state must be rebuilt
///     from the provider's current state.
///   * `epoch` stamps the provider's read_epoch() at the mutation.
///
/// No consumer in the library reads a feed: the serve `social` verb
/// (ServePipeline::social_snapshot) re-reads θ of every pair per query.
struct ThetaDelta {
  UserPair pair{0, 1};
  double theta = 0.0;    ///< θ(pair) after the mutation
  std::uint64_t epoch = 0;
};

/// Result of one ThetaProvider::poll_theta_deltas call. `cursor` is the
/// position to pass to the next poll; `complete` is false when records
/// after the caller's previous cursor were discarded before they could
/// be read (see the ThetaDelta invalidation contract above).
struct ThetaDeltaPoll {
  std::uint64_t cursor = 0;
  bool complete = true;
};

/// Fixed-capacity bitset sized at construction; supports the set
/// operations the Östergård search needs.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t capacity() const noexcept { return bits_; }

  void set(std::size_t i) {
    S3_REQUIRE(i < bits_, "Bitset::set out of range");
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }
  void reset(std::size_t i) {
    S3_REQUIRE(i < bits_, "Bitset::reset out of range");
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  bool test(std::size_t i) const {
    S3_REQUIRE(i < bits_, "Bitset::test out of range");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Clears bits [0, i); i may equal capacity().
  void reset_below(std::size_t i) {
    S3_REQUIRE(i <= bits_, "Bitset::reset_below out of range");
    const std::size_t w = i >> 6;
    std::fill(words_.begin(), words_.begin() + static_cast<std::ptrdiff_t>(w),
              std::uint64_t{0});
    if (w < words_.size()) words_[w] &= ~std::uint64_t{0} << (i & 63);
  }

  bool any() const noexcept {
    for (std::uint64_t w : words_) {
      if (w) return true;
    }
    return false;
  }

  std::size_t count() const noexcept {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  /// Lowest set bit, or capacity() if none.
  std::size_t first() const noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w]) {
        return (w << 6) +
               static_cast<std::size_t>(__builtin_ctzll(words_[w]));
      }
    }
    return bits_;
  }

  Bitset& operator&=(const Bitset& o) {
    S3_REQUIRE(bits_ == o.bits_, "Bitset: size mismatch");
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
    return *this;
  }

  friend Bitset operator&(Bitset a, const Bitset& b) {
    a &= b;
    return a;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Undirected weighted graph on vertices 0..n-1 (the caller maps
/// vertices to UserIds).
class WeightedGraph {
 public:
  explicit WeightedGraph(std::size_t n)
      : n_(n), adj_(n, Bitset(n)), weights_(n * n, 0.0) {}

  std::size_t size() const noexcept { return n_; }

  void add_edge(std::size_t u, std::size_t v, double weight) {
    S3_REQUIRE(u < n_ && v < n_, "add_edge: vertex out of range");
    S3_REQUIRE(u != v, "add_edge: self loop");
    adj_[u].set(v);
    adj_[v].set(u);
    weights_[u * n_ + v] = weight;
    weights_[v * n_ + u] = weight;
  }

  bool adjacent(std::size_t u, std::size_t v) const {
    S3_REQUIRE(u < n_ && v < n_, "adjacent: vertex out of range");
    return adj_[u].test(v);
  }

  double weight(std::size_t u, std::size_t v) const {
    S3_REQUIRE(u < n_ && v < n_, "weight: vertex out of range");
    return weights_[u * n_ + v];
  }

  const Bitset& neighbors(std::size_t u) const {
    S3_REQUIRE(u < n_, "neighbors: vertex out of range");
    return adj_[u];
  }

  std::size_t degree(std::size_t u) const { return neighbors(u).count(); }

  std::size_t num_edges() const noexcept {
    std::size_t twice = 0;
    for (const Bitset& b : adj_) twice += b.count();
    return twice / 2;
  }

  /// Sum of edge weights inside a vertex subset.
  double internal_weight(const std::vector<std::size_t>& vertices) const;

  /// True iff every pair in `vertices` is adjacent.
  bool is_clique(const std::vector<std::size_t>& vertices) const;

 private:
  std::size_t n_ = 0;
  std::vector<Bitset> adj_;
  std::vector<double> weights_;
};

/// The full social graph of a model: vertices are all user ids, with an
/// edge (u, v, θ(u,v)) wherever θ(u,v) >= threshold (the validators'
/// edge rule). When the provider is a SocialIndexModel whose pair store
/// has a neighbor index and whose type prior alone cannot reach the
/// threshold (max_type_term() < threshold), only pairs with recorded
/// history are enumerated — O(recorded pairs) instead of O(users²).
/// Otherwise every pair is scored through the batched theta_row kernel.
WeightedGraph build_theta_graph(const ThetaProvider& model, double threshold);

/// Enumerates every pair (u, v), u < v, whose θ clears `threshold` —
/// strictly (`strict`, the batch-graph and serve `social` edge rule) or
/// inclusively (build_theta_graph's rule) — calling
/// fn(u, v, θ(u, v)) once per qualifying pair in ascending (u, v)
/// order. Uses the same recorded-pairs CSR pruning as
/// build_theta_graph when the provider allows it, otherwise batched
/// theta_row sweeps.
void for_each_theta_edge(
    const ThetaProvider& model, double threshold, bool strict,
    const std::function<void(UserId, UserId, double)>& fn);

}  // namespace s3::social

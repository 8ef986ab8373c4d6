// The live social model: a trained SocialIndexModel plus pair counters
// updated by every encounter and co-leaving observed since training
// (the paper's §VI future work — the controller keeps learning P(L|E)
// while it operates).
//
// θ(u,v) = P_live(L|E) + α·T(type_u, type_v), where P_live merges the
// trained counts with everything observed since: a pair's live
// counters are seeded from its trained statistics the first time it is
// touched (copy-on-first-touch), so the live ratio continues the
// history instead of restarting. The typing stage (k-means + Table-I
// matrix) stays fixed; the pair-history term is where freshness pays.
//
// The overlay lives in a ConcurrentPairStore, so the same class serves
// a single-owner controller (core::OnlineS3Selector, whose store locks
// are never contended) and the concurrent serve plane:
//
//   * theta()/theta_row() never take a lock (per-bucket seqlock
//     snapshot reads);
//   * record_encounter()/record_co_leave() serialize only on the
//     touched pair's hash bucket, so per-domain serve controllers
//     update disjoint social neighborhoods in parallel;
//   * read_epoch() exposes the store's mutation stamp, implementing
//     the ThetaProvider read-snapshot contract for the live regime;
//   * no entry is ever erased, so every pair whose θ moved since
//     training is a key of live().
//
// Which pairs met and co-left is detected by a PresenceTable
// (presence_table.h); record_departure() writes one departure's events.
#pragma once

#include <cstdint>
#include <utility>

#include "s3/social/concurrent_pair_store.h"
#include "s3/social/presence_table.h"
#include "s3/social/social_index.h"

namespace s3::social {

class SharedSocialModel : public ThetaProvider {
 public:
  /// `base` must outlive this object; its pair stats seed the live
  /// counters lazily (copy-on-first-touch, at first write).
  explicit SharedSocialModel(const SocialIndexModel* base,
                             std::size_t expected_live_pairs = 0);

  /// Snapshot copy for single-owner checkpoints (a replicated
  /// controller's clone): same base, bit-identical θ for every pair.
  /// The source must be quiescent.
  SharedSocialModel(const SharedSocialModel& other);
  SharedSocialModel& operator=(const SharedSocialModel&) = delete;

  double theta(UserId u, UserId v) const override;
  void theta_row(UserId u, std::span<const UserId> vs,
                 std::span<double> out) const override;
  std::size_t num_users() const override { return base_->num_users(); }
  /// The store's mutation stamp: the only change signal this model
  /// gives (ThetaProvider::read_epoch).
  std::uint64_t read_epoch() const noexcept override {
    return store_.epoch();
  }

  /// Live-event writers (any thread). Counters are seeded from the
  /// base model's trained statistics the first time a pair is touched.
  void record_encounter(UserId u, UserId v);
  void record_co_leave(UserId u, UserId v);
  void record_co_coming(UserId u, UserId v);

  /// Records every encounter, then every co-leaving, that one
  /// departure implies (PresenceTable::depart's result).
  void record_departure(const PresenceTable::DepartureEvents& events);

  /// Pairs whose statistics changed since training.
  std::size_t updated_pairs() const noexcept { return store_.size(); }

  /// Canonical-order fold of the live pair counters: equal for two
  /// models with equal counters, whatever the insertion order.
  std::uint64_t state_digest() const;

  /// Checkpoint: a frozen SocialIndexModel combining the base model's
  /// typing/matrix with the live pair statistics (trained counts merged
  /// with everything observed since). Persist it with
  /// write_model_file and reload on the next controller start.
  SocialIndexModel checkpoint() const;

  const SocialIndexModel& base() const noexcept { return *base_; }
  const ConcurrentPairStore& live() const noexcept { return store_; }

 private:
  template <typename Fn>
  void bump(UserId u, UserId v, Fn&& fn) {
    const UserPair key(u, v);
    ConcurrentPairStore::Stats seed{};
    const PairStore::Stats* trained = base_->pair_stats().find(key);
    if (trained != nullptr) seed = *trained;
    store_.update(key, std::forward<Fn>(fn), &seed);
  }

  const SocialIndexModel* base_;
  ConcurrentPairStore store_;
};

}  // namespace s3::social

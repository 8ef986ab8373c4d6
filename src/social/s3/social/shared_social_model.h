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
//     the ThetaProvider read-snapshot contract for the live regime.
//
// Which pairs met and co-left is detected by a PresenceTable
// (presence_table.h); record_departure() writes one departure's events.
#pragma once

#include <cstdint>
#include <vector>

#include "s3/social/concurrent_pair_store.h"
#include "s3/social/presence_table.h"
#include "s3/social/social_index.h"
#include "s3/util/thread_annotations.h"

namespace s3::social {

class SharedSocialModel : public ThetaProvider {
 public:
  /// `base` must outlive this object; its pair stats seed the live
  /// counters lazily (copy-on-first-touch, at first write).
  explicit SharedSocialModel(const SocialIndexModel* base,
                             std::size_t expected_live_pairs = 0);

  /// Snapshot copy for single-owner checkpoints (a replicated
  /// controller's clone): same base, bit-identical θ for every pair.
  /// The copy's delta feed starts empty at the source's cursor, so a
  /// consumer that followed the source gets an incomplete poll from
  /// the copy and reseeds (graph.h). The source must be quiescent.
  SharedSocialModel(const SharedSocialModel& other);
  SharedSocialModel& operator=(const SharedSocialModel&) = delete;

  double theta(UserId u, UserId v) const override;
  void theta_row(UserId u, std::span<const UserId> vs,
                 std::span<double> out) const override;
  std::size_t num_users() const override { return base_->num_users(); }
  /// Deprecated direct polling: the raw epoch only says *something*
  /// changed. Consumers tracking derived state should drain
  /// poll_theta_deltas(), which says *which* pairs moved and when a
  /// reseed is unavoidable. (Base-interface calls through
  /// ThetaProvider::read_epoch keep working, undeprecated — the epoch
  /// remains the coarse signal the feed refines.)
  [[deprecated(
      "poll raw epochs via the ThetaProvider interface, or better, drain "
      "poll_theta_deltas()")]]
  std::uint64_t read_epoch() const noexcept override {
    return store_.epoch();
  }

  /// Structured change feed per the ThetaDelta contract (graph.h).
  /// Every record_* call appends one record whose θ is computed after
  /// the store update, inside the feed lock — so the last-appended
  /// record for a pair reflects every earlier-appended writer's
  /// update, and in-order application converges on the store's state.
  bool emits_theta_deltas() const noexcept override { return true; }
  ThetaDeltaPoll poll_theta_deltas(std::uint64_t cursor,
                                   std::vector<ThetaDelta>& out) const override
      S3_EXCLUDES(feed_.mu);

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
  /// The bounded delta log and its cursor, behind their own lock (the
  /// store itself stays lock-free).
  struct Feed {
    mutable util::Mutex mu;
    std::vector<ThetaDelta> records S3_GUARDED_BY(mu);
    /// Cursor of records[0]; earlier entries were truncated away.
    std::uint64_t base S3_GUARDED_BY(mu) = 0;
  };

  template <typename Fn>
  void bump(UserId u, UserId v, Fn&& fn) S3_EXCLUDES(feed_.mu) {
    const UserPair key(u, v);
    ConcurrentPairStore::Stats seed{};
    const PairStore::Stats* trained = base_->pair_stats().find(key);
    if (trained != nullptr) seed = *trained;
    store_.update(key, std::forward<Fn>(fn), &seed);
    push_delta(u, v);
  }

  /// Appends the pair's post-update θ to the bounded feed. Must run
  /// after the store update; see emits_theta_deltas() for why θ is
  /// read inside the lock.
  void push_delta(UserId u, UserId v) S3_EXCLUDES(feed_.mu);

  const SocialIndexModel* base_;
  ConcurrentPairStore store_;
  Feed feed_;
};

}  // namespace s3::social

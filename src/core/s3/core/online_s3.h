// Online S3 — the paper's future-work direction (§VI): instead of a
// frozen model trained once on historical logs, the controller keeps
// learning while it operates. Every association/disassociation it
// processes updates the pairwise encounter/co-leaving statistics, so
// social relationships formed *after* training (a new semester's
// classes) start influencing placement within days.
//
// The typing stage (k-means + Table-I matrix) stays fixed — re-running
// clustering online is cheap but would make θ non-monotonic under the
// reader's feet; the pair-history term P(L|E) is where freshness pays.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "s3/core/s3_selector.h"

namespace s3::core {

struct OnlineS3Config {
  S3Config s3{};
  /// Co-leaving window for online event detection (paper optimum: 5 min).
  util::SimTime co_leave_window = util::SimTime::from_minutes(5);
  /// Minimum same-AP overlap before a pair counts as encountered.
  util::SimTime min_encounter_overlap = util::SimTime::from_minutes(10);
};

/// Wraps a trained SocialIndexModel with live-updated pair statistics.
/// θ(u,v) = P_live(L|E) + α·T(type_u, type_v), where P_live merges the
/// trained counts with everything observed since.
class OnlineSocialModel : public social::ThetaProvider {
 public:
  /// `base` must outlive this object; its pair stats seed the live
  /// counters lazily (copy-on-first-touch).
  OnlineSocialModel(const social::SocialIndexModel* base,
                    OnlineS3Config config);

  double theta(UserId u, UserId v) const override;

  /// Batched kernel: one flat pass over the base model's row, then the
  /// live deltas patched on top. Bit-identical to the scalar path.
  void theta_row(UserId u, std::span<const UserId> vs,
                 std::span<double> out) const override;

  std::size_t num_users() const override { return base_->num_users(); }

  /// Advances whenever an event mutates the live statistics or the
  /// presence state behind them. Single-owner provider: reads never
  /// race mutations, so the stamp is exact, not momentary. The model
  /// keeps no ThetaDelta feed, so the inherited poll_theta_deltas()
  /// reports every mutation as an incomplete poll (graph.h).
  std::uint64_t read_epoch() const noexcept override { return epoch_; }

  /// Feed an association: the station joined `ap` at `when`.
  void on_associate(std::size_t session_index, UserId user, ApId ap,
                    util::SimTime when);

  /// Feed a disassociation; detects encounters (overlap with co-present
  /// stations) and co-leavings (departures within the window).
  void on_disconnect(std::size_t session_index, UserId user, ApId ap,
                     util::SimTime when);

  /// Pairs whose statistics changed since training.
  std::size_t updated_pairs() const noexcept { return live_.size(); }

  /// Canonical-order fold of the live pair counters, presence maps, and
  /// recent-departure ring — the state a replicated controller must
  /// carry across failover bit-for-bit. Insertion-order independent
  /// (entries are sorted before hashing).
  std::uint64_t state_digest() const;

  /// Checkpoint: a frozen SocialIndexModel combining the base model's
  /// typing/matrix with the live pair statistics (trained counts merged
  /// with everything observed since). Persist it with
  /// social::write_model_file and reload on the next controller start.
  social::SocialIndexModel checkpoint() const;

 private:
  struct Presence {
    std::size_t session_index;
    UserId user;
    util::SimTime since;
  };
  struct Departure {
    UserId user;
    util::SimTime since;  ///< association start (for the overlap check)
    util::SimTime when;
  };

  social::PairStore::Stats& live_stats(UserId u, UserId v);

  const social::SocialIndexModel* base_;
  OnlineS3Config config_;
  /// Live pair counters, same flat layout as the trained store so the
  /// hot θ patch loop probes contiguous memory.
  social::PairStore live_;
  /// Stations currently associated, per AP.
  std::unordered_map<ApId, std::vector<Presence>> present_;
  /// Recent departures per AP (pruned past the co-leave window).
  std::unordered_map<ApId, std::vector<Departure>> recent_departures_;
  std::uint64_t epoch_ = 0;  ///< see read_epoch()
};

/// S3 with continuous learning: identical placement machinery, but the
/// social index it consults is updated by every event the replay engine
/// delivers.
class OnlineS3Selector final : public sim::ApSelector {
 public:
  OnlineS3Selector(const wlan::Network* net,
                   const social::SocialIndexModel* base,
                   OnlineS3Config config = {});

  std::string_view name() const override { return "S3-online"; }

  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override;

  /// Forwards to the inner S3 machinery, fault directives included (the
  /// online wrapper degrades exactly like frozen S3: model outage ->
  /// embedded LLF).
  sim::BatchResult place_batch(const sim::BatchRequest& request,
                               const sim::ApLoadTracker& loads) override;

  void on_associate(const sim::Arrival& arrival, ApId ap) override;
  void on_disconnect(std::size_t session_index, UserId user, ApId ap,
                     util::SimTime when) override;

  bool uses_social_model() const override { return true; }

  /// Live social counters plus the inner S3 machinery's digest.
  std::uint64_t state_digest() const override;

  /// Deep copy for replication checkpoints: the live social model is
  /// copied mid-stream and the inner S3 machinery is rebound to consult
  /// the copy, so the clone keeps learning independently while its
  /// future placements match the original's bit for bit.
  std::unique_ptr<sim::ApSelector> clone() const override {
    return std::unique_ptr<sim::ApSelector>(new OnlineS3Selector(*this));
  }

  const OnlineSocialModel& model() const noexcept { return online_; }

 private:
  /// Copy used by clone(): `inner_` must point at the copy's own live
  /// model, never the source's.
  OnlineS3Selector(const OnlineS3Selector& other)
      : online_(other.online_),
        inner_(std::make_unique<S3Selector>(*other.inner_, &online_)) {}

  OnlineSocialModel online_;
  std::unique_ptr<S3Selector> inner_;
};

}  // namespace s3::core

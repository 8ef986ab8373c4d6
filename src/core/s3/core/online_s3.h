// Online S3 — the paper's future-work direction (§VI): instead of a
// frozen model trained once on historical logs, the controller keeps
// learning while it operates. Every association/disassociation it
// processes updates the pairwise encounter/co-leaving statistics, so
// social relationships formed *after* training (a new semester's
// classes) start influencing placement within days.
//
// The learning itself is the serve plane's: a social::PresenceTable
// detects encounters and co-leavings, and a social::SharedSocialModel
// overlays the live counts on the trained model. The typing stage
// (k-means + Table-I matrix) stays fixed — re-running clustering
// online would make θ non-monotonic under the reader's feet; the
// pair-history term P(L|E) is where freshness pays.
#pragma once

#include "s3/core/s3_selector.h"
#include "s3/social/presence_table.h"
#include "s3/social/shared_social_model.h"

namespace s3::core {

struct OnlineS3Config {
  S3Config s3{};
  /// Co-leaving window for online event detection (paper optimum: 5 min).
  util::SimTime co_leave_window = util::SimTime::from_minutes(5);
  /// Minimum same-AP overlap before a pair counts as encountered.
  util::SimTime min_encounter_overlap = util::SimTime::from_minutes(10);
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

  /// Live social counters, presence state and the inner S3
  /// machinery's digest.
  std::uint64_t state_digest() const override;

  /// Deep copy for replication checkpoints: the live social model is
  /// copied mid-stream and the inner S3 machinery is rebound to consult
  /// the copy, so the clone keeps learning independently while its
  /// future placements match the original's bit for bit.
  std::unique_ptr<sim::ApSelector> clone() const override {
    return std::unique_ptr<sim::ApSelector>(new OnlineS3Selector(*this));
  }

  const social::SharedSocialModel& model() const noexcept { return model_; }

 private:
  /// Copy used by clone(): `inner_` must point at the copy's own live
  /// model, never the source's.
  OnlineS3Selector(const OnlineS3Selector& other)
      : model_(other.model_),
        presence_(other.presence_),
        inner_(std::make_unique<S3Selector>(*other.inner_, &model_)) {}

  social::SharedSocialModel model_;
  social::PresenceTable presence_;
  std::unique_ptr<S3Selector> inner_;
};

}  // namespace s3::core

#include "s3/core/online_s3.h"

namespace s3::core {

OnlineS3Selector::OnlineS3Selector(const wlan::Network* net,
                                   const social::SocialIndexModel* base,
                                   OnlineS3Config config)
    : model_(base),
      presence_(config.co_leave_window, config.min_encounter_overlap),
      inner_(std::make_unique<S3Selector>(net, &model_, config.s3)) {}

ApId OnlineS3Selector::select_one(const sim::Arrival& arrival,
                                  const sim::ApLoadTracker& loads) {
  return inner_->select_one(arrival, loads);
}

sim::BatchResult OnlineS3Selector::place_batch(
    const sim::BatchRequest& request, const sim::ApLoadTracker& loads) {
  return inner_->place_batch(request, loads);
}

void OnlineS3Selector::on_associate(const sim::Arrival& arrival, ApId ap) {
  presence_.arrive(ap, arrival.session_index, arrival.user, arrival.connect);
}

void OnlineS3Selector::on_disconnect(std::size_t session_index,
                                     UserId /*user*/, ApId ap,
                                     util::SimTime when) {
  model_.record_departure(presence_.depart(ap, session_index, when));
}

std::uint64_t OnlineS3Selector::state_digest() const {
  std::uint64_t h = model_.state_digest();
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  };
  mix(presence_.state_digest());
  mix(inner_->state_digest());
  return h;
}

}  // namespace s3::core

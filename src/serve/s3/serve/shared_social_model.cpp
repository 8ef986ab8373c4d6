#include "s3/serve/shared_social_model.h"

#include "s3/util/error.h"

namespace s3::serve {

SharedSocialModel::SharedSocialModel(const social::SocialIndexModel* base,
                                     std::size_t expected_live_pairs)
    : base_(base), store_(expected_live_pairs) {
  S3_REQUIRE(base_ != nullptr, "SharedSocialModel: null base model");
}

double SharedSocialModel::theta(UserId u, UserId v) const {
  if (u == v) return 0.0;
  // Expression shapes mirror core::OnlineSocialModel::theta exactly so
  // the two providers agree bit for bit on identical event histories.
  const auto live = store_.find(UserPair(u, v));
  if (!live.has_value()) return base_->theta(u, v);
  const double type_term =
      base_->type_matrix().num_types() > 0
          ? base_->type_matrix().at(base_->typing().type(u),
                                    base_->typing().type(v))
          : 0.0;
  return live->co_leave_probability() + base_->alpha() * type_term;
}

void SharedSocialModel::theta_row(UserId u, std::span<const UserId> vs,
                                  std::span<double> out) const {
  // One flat pass over the frozen model's row, then overwrite the few
  // entries whose pair has live history — same shape as the online
  // model's row kernel.
  base_->theta_row(u, vs, out);
  if (store_.empty()) return;
  const bool typed = base_->type_matrix().num_types() > 0;
  const std::size_t type_u = typed ? base_->typing().type(u) : 0;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const UserId v = vs[i];
    if (v == u) continue;
    const auto live = store_.find(UserPair(u, v));
    if (live.has_value()) {
      const double type_term =
          typed ? base_->type_matrix().at(type_u, base_->typing().type(v))
                : 0.0;
      out[i] = live->co_leave_probability() + base_->alpha() * type_term;
    }
  }
}

namespace {
/// Feed retention: overflow drops the older half, and a consumer that
/// skipped past the retained window gets an incomplete poll and
/// reseeds.
constexpr std::size_t kFeedCapacity = 1 << 16;
}  // namespace

void SharedSocialModel::push_delta(UserId u, UserId v) {
  util::MutexLock hold(feed_.mu);
  // θ is computed here, after this writer's store update and inside
  // the feed lock: every record appended before this one came from a
  // writer whose store update happens-before ours was read (its
  // unlock ordered before our lock), so the *last* record for any
  // pair carries a θ that already folds in every earlier-appended
  // update. Applying a drained suffix in order therefore converges on
  // the store's current θ for every touched pair.
  if (feed_.records.size() >= kFeedCapacity) {
    const std::size_t drop = feed_.records.size() / 2;
    feed_.records.erase(
        feed_.records.begin(),
        feed_.records.begin() + static_cast<std::ptrdiff_t>(drop));
    feed_.base += drop;
  }
  feed_.records.push_back(
      social::ThetaDelta{UserPair(u, v), theta(u, v), store_.epoch()});
}

social::ThetaDeltaPoll SharedSocialModel::poll_theta_deltas(
    std::uint64_t cursor, std::vector<social::ThetaDelta>& out) const {
  util::MutexLock hold(feed_.mu);
  const std::uint64_t end = feed_.base + feed_.records.size();
  if (cursor < feed_.base || cursor > end) {
    return social::ThetaDeltaPoll{end, false};
  }
  out.insert(
      out.end(),
      feed_.records.begin() + static_cast<std::ptrdiff_t>(cursor - feed_.base),
      feed_.records.end());
  return social::ThetaDeltaPoll{end, true};
}

void SharedSocialModel::record_encounter(UserId u, UserId v) {
  bump(u, v,
       [](social::ConcurrentPairStore::Stats& s) { ++s.encounters; });
}

void SharedSocialModel::record_co_leave(UserId u, UserId v) {
  bump(u, v, [](social::ConcurrentPairStore::Stats& s) { ++s.co_leaves; });
}

void SharedSocialModel::record_co_coming(UserId u, UserId v) {
  bump(u, v, [](social::ConcurrentPairStore::Stats& s) { ++s.co_comings; });
}

}  // namespace s3::serve

#include "s3/social/shared_social_model.h"

#include "s3/util/error.h"

namespace s3::social {

SharedSocialModel::SharedSocialModel(const SocialIndexModel* base,
                                     std::size_t expected_live_pairs)
    : base_(base), store_(expected_live_pairs) {
  S3_REQUIRE(base_ != nullptr, "SharedSocialModel: null base model");
}

SharedSocialModel::SharedSocialModel(const SharedSocialModel& other)
    : base_(other.base_), store_(other.store_.size()) {
  for (const ConcurrentPairStore::Entry& e : other.store_.sorted_entries()) {
    store_.assign(e.pair, e.stats);
  }
}

double SharedSocialModel::theta(UserId u, UserId v) const {
  if (u == v) return 0.0;
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
  // entries whose pair has live history. Expression shapes match the
  // scalar theta() exactly, so batched and scalar agree bit for bit.
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

void SharedSocialModel::record_encounter(UserId u, UserId v) {
  bump(u, v, [](ConcurrentPairStore::Stats& s) { ++s.encounters; });
}

void SharedSocialModel::record_co_leave(UserId u, UserId v) {
  bump(u, v, [](ConcurrentPairStore::Stats& s) { ++s.co_leaves; });
}

void SharedSocialModel::record_co_coming(UserId u, UserId v) {
  bump(u, v, [](ConcurrentPairStore::Stats& s) { ++s.co_comings; });
}

void SharedSocialModel::record_departure(
    const PresenceTable::DepartureEvents& events) {
  for (const UserId peer : events.encountered) {
    record_encounter(events.user, peer);
  }
  for (const UserId peer : events.co_left) {
    record_co_leave(events.user, peer);
  }
}

std::uint64_t SharedSocialModel::state_digest() const {
  std::uint64_t h = 0x6f6e6c696e65ULL;  // "online"
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  };
  for (const ConcurrentPairStore::Entry& e : store_.sorted_entries()) {
    mix(ConcurrentPairStore::pack(e.pair));
    mix(e.stats.encounters);
    mix(e.stats.co_leaves);
    mix(e.stats.co_comings);
  }
  return h;
}

SocialIndexModel SharedSocialModel::checkpoint() const {
  PairStore merged = base_->pair_stats();
  for (const ConcurrentPairStore::Entry& e : store_.sorted_entries()) {
    merged.assign(e.pair, e.stats);  // live entries were seeded from the base
  }
  return SocialIndexModel::from_parts(base_->config(), std::move(merged),
                                      base_->typing(), base_->type_matrix());
}

}  // namespace s3::social

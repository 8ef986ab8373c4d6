#include "s3/core/online_s3.h"

#include <algorithm>

namespace s3::core {

OnlineSocialModel::OnlineSocialModel(const social::SocialIndexModel* base,
                                     OnlineS3Config config)
    : base_(base), config_(config) {
  S3_REQUIRE(base_ != nullptr, "OnlineSocialModel: null base model");
  S3_REQUIRE(config_.co_leave_window.seconds() > 0 &&
                 config_.min_encounter_overlap.seconds() > 0,
             "OnlineSocialModel: windows must be positive");
}

social::PairStore::Stats& OnlineSocialModel::live_stats(UserId u, UserId v) {
  const UserPair key(u, v);
  if (social::PairStore::Stats* hit = live_.find(key)) return *hit;
  // Copy-on-first-touch: seed with the trained counts so the live
  // ratio continues the history instead of restarting from scratch.
  social::PairStore::Stats seed;
  if (const social::PairStore::Stats* trained = base_->pair_stats().find(key)) {
    seed = *trained;
  }
  social::PairStore::Stats& slot = live_.upsert(key);
  slot = seed;
  return slot;
}

double OnlineSocialModel::theta(UserId u, UserId v) const {
  if (u == v) return 0.0;
  const social::PairStore::Stats* live = live_.find(UserPair(u, v));
  if (live == nullptr) return base_->theta(u, v);
  const double type_term =
      base_->type_matrix().num_types() > 0
          ? base_->type_matrix().at(base_->typing().type(u),
                                    base_->typing().type(v))
          : 0.0;
  return live->co_leave_probability() + base_->alpha() * type_term;
}

void OnlineSocialModel::theta_row(UserId u, std::span<const UserId> vs,
                                  std::span<double> out) const {
  // One flat pass over the frozen model's row, then overwrite the few
  // entries whose pair has live history. Expression shapes match the
  // scalar theta() exactly, so batched and scalar agree bit for bit.
  base_->theta_row(u, vs, out);
  if (live_.empty()) return;
  const bool typed = base_->type_matrix().num_types() > 0;
  const std::size_t type_u = typed ? base_->typing().type(u) : 0;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const UserId v = vs[i];
    if (v == u) continue;
    if (const social::PairStore::Stats* live = live_.find(UserPair(u, v))) {
      const double type_term =
          typed ? base_->type_matrix().at(type_u, base_->typing().type(v))
                : 0.0;
      out[i] = live->co_leave_probability() + base_->alpha() * type_term;
    }
  }
}

void OnlineSocialModel::on_associate(std::size_t session_index, UserId user,
                                     ApId ap, util::SimTime when) {
  present_[ap].push_back({session_index, user, when});
  ++epoch_;
}

void OnlineSocialModel::on_disconnect(std::size_t session_index,
                                      UserId /*user*/, ApId ap,
                                      util::SimTime when) {
  auto& present = present_[ap];
  const auto self = std::find_if(
      present.begin(), present.end(),
      [&](const Presence& p) { return p.session_index == session_index; });
  if (self == present.end()) return;  // session predates tracking
  const Presence leaving = *self;
  present.erase(self);

  auto& recent = recent_departures_[ap];
  // Prune departures older than the co-leave window.
  recent.erase(std::remove_if(recent.begin(), recent.end(),
                              [&](const Departure& d) {
                                return when - d.when > config_.co_leave_window;
                              }),
               recent.end());

  // Encounters: overlap with everyone still present (their stay covers
  // ours since `leaving.since`), and with recent leavers whose overlap
  // already counted when *they* left — so count only the still-present
  // side here to avoid double counting.
  for (const Presence& other : present) {
    if (other.user == leaving.user) continue;
    const util::SimTime overlap =
        when - std::max(other.since, leaving.since);
    if (overlap >= config_.min_encounter_overlap) {
      ++live_stats(leaving.user, other.user).encounters;
    }
  }
  // Co-leavings: recent departures within the window whose shared stay
  // with us was encounter-grade (so that P(L|E) stays <= 1: the
  // matching encounter was counted when the other side left).
  for (const Departure& d : recent) {
    if (d.user == leaving.user) continue;
    const util::SimTime overlap = d.when - std::max(d.since, leaving.since);
    if (overlap >= config_.min_encounter_overlap) {
      ++live_stats(leaving.user, d.user).co_leaves;
    }
  }
  recent.push_back({leaving.user, leaving.since, when});
  ++epoch_;
}

social::SocialIndexModel OnlineSocialModel::checkpoint() const {
  social::PairStore merged = base_->pair_stats();
  live_.for_each([&](UserPair pair, const social::PairStore::Stats& stats) {
    merged.assign(pair, stats);  // live entries were seeded from the base
  });
  return social::SocialIndexModel::from_parts(
      base_->config(), std::move(merged), base_->typing(),
      base_->type_matrix());
}

std::uint64_t OnlineSocialModel::state_digest() const {
  std::uint64_t h = 0x6f6e6c696e65ULL;  // "online"
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  };
  for (const social::PairStore::Entry& e : live_.sorted_entries()) {
    mix((static_cast<std::uint64_t>(e.pair.a) << 32) | e.pair.b);
    mix(e.stats.encounters);
    mix(e.stats.co_leaves);
    mix(e.stats.co_comings);
  }
  // The unordered maps hash in canonical (ap, content) order so table
  // capacity and insertion order cannot leak into the digest.
  std::vector<ApId> aps;
  aps.reserve(present_.size());
  // s3lint: allow(det-unordered-iter): keys are collected then sorted.
  for (const auto& [ap, stations] : present_) {
    if (!stations.empty()) aps.push_back(ap);
  }
  std::sort(aps.begin(), aps.end());
  for (const ApId ap : aps) {
    std::vector<Presence> stations = present_.at(ap);
    std::sort(stations.begin(), stations.end(),
              [](const Presence& a, const Presence& b) {
                return a.session_index < b.session_index;
              });
    mix(ap);
    for (const Presence& p : stations) {
      mix(p.session_index);
      mix(p.user);
      mix(static_cast<std::uint64_t>(p.since.seconds()));
    }
  }
  aps.clear();
  // s3lint: allow(det-unordered-iter): keys are collected then sorted.
  for (const auto& [ap, departures] : recent_departures_) {
    if (!departures.empty()) aps.push_back(ap);
  }
  std::sort(aps.begin(), aps.end());
  for (const ApId ap : aps) {
    mix(ap);
    // The departure ring is append-ordered by `when` already (pruning
    // pops the front), so its stored order is canonical.
    for (const Departure& d : recent_departures_.at(ap)) {
      mix(d.user);
      mix(static_cast<std::uint64_t>(d.since.seconds()));
      mix(static_cast<std::uint64_t>(d.when.seconds()));
    }
  }
  return h;
}

// ---------------------------------------------------------------------

OnlineS3Selector::OnlineS3Selector(const wlan::Network* net,
                                   const social::SocialIndexModel* base,
                                   OnlineS3Config config)
    : online_(base, config) {
  inner_ = std::make_unique<S3Selector>(net, &online_, config.s3);
}

ApId OnlineS3Selector::select_one(const sim::Arrival& arrival,
                                  const sim::ApLoadTracker& loads) {
  return inner_->select_one(arrival, loads);
}

sim::BatchResult OnlineS3Selector::place_batch(
    const sim::BatchRequest& request, const sim::ApLoadTracker& loads) {
  return inner_->place_batch(request, loads);
}

void OnlineS3Selector::on_associate(const sim::Arrival& arrival, ApId ap) {
  online_.on_associate(arrival.session_index, arrival.user, ap,
                       arrival.connect);
}

void OnlineS3Selector::on_disconnect(std::size_t session_index, UserId user,
                                     ApId ap, util::SimTime when) {
  online_.on_disconnect(session_index, user, ap, when);
}

std::uint64_t OnlineS3Selector::state_digest() const {
  std::uint64_t h = online_.state_digest();
  h ^= inner_->state_digest() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
}

}  // namespace s3::core

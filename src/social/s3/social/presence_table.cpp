#include "s3/social/presence_table.h"

#include <algorithm>

#include "s3/util/error.h"

namespace s3::social {

PresenceTable::PresenceTable(util::SimTime co_leave_window,
                             util::SimTime min_encounter_overlap)
    : co_leave_window_(co_leave_window),
      min_encounter_overlap_(min_encounter_overlap) {
  S3_REQUIRE(co_leave_window_.seconds() > 0 &&
                 min_encounter_overlap_.seconds() > 0,
             "PresenceTable: windows must be positive");
}

PresenceTable::PresenceTable(const PresenceTable& other)
    : co_leave_window_(other.co_leave_window_),
      min_encounter_overlap_(other.min_encounter_overlap_) {
  util::MutexLock theirs(other.mu_);
  util::MutexLock ours(mu_);
  present_ = other.present_;
  recent_ = other.recent_;
}

void PresenceTable::arrive(ApId ap, std::size_t session_index, UserId user,
                           util::SimTime when) {
  util::MutexLock lock(mu_);
  present_[ap].push_back({session_index, user, when});
}

PresenceTable::DepartureEvents PresenceTable::depart(ApId ap,
                                                     std::size_t session_index,
                                                     util::SimTime when) {
  DepartureEvents out;
  util::MutexLock lock(mu_);

  auto& here = present_[ap];
  const auto self = std::find_if(
      here.begin(), here.end(),
      [&](const Presence& p) { return p.session_index == session_index; });
  if (self == here.end()) return out;  // session predates tracking
  const Presence leaving = *self;
  here.erase(self);
  out.user = leaving.user;

  auto& departures = recent_[ap];
  departures.erase(
      std::remove_if(departures.begin(), departures.end(),
                     [&](const DepartureRec& r) {
                       return when - r.when > co_leave_window_;
                     }),
      departures.end());

  // Encounters: overlap with everyone still present (their stay covers
  // ours since `leaving.since`). Recent leavers' overlap already
  // counted when *they* left, so only the still-present side counts
  // here, to avoid double counting.
  for (const Presence& other : here) {
    if (other.user == leaving.user) continue;
    const util::SimTime overlap = when - std::max(other.since, leaving.since);
    if (overlap >= min_encounter_overlap_) {
      out.encountered.push_back(other.user);
    }
  }
  // Co-leavings: recent departures within the window whose shared stay
  // with us was encounter-grade (so that P(L|E) stays <= 1: the
  // matching encounter was counted when the other side left).
  for (const DepartureRec& r : departures) {
    if (r.user == leaving.user) continue;
    const util::SimTime overlap = r.when - std::max(r.since, leaving.since);
    if (overlap >= min_encounter_overlap_) {
      out.co_left.push_back(r.user);
    }
  }
  departures.push_back({leaving.user, leaving.since, when});
  return out;
}

std::uint64_t PresenceTable::state_digest() const {
  std::uint64_t h = 0x70726573656e6365ULL;  // "presence"
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  };
  util::MutexLock lock(mu_);
  // The maps hash in canonical (ap, content) order so table capacity
  // and insertion order cannot leak into the digest.
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
  for (const auto& [ap, departures] : recent_) {
    if (!departures.empty()) aps.push_back(ap);
  }
  std::sort(aps.begin(), aps.end());
  for (const ApId ap : aps) {
    mix(ap);
    // The departure ring is append-ordered by `when` already (pruning
    // drops the front), so its stored order is canonical.
    for (const DepartureRec& r : recent_.at(ap)) {
      mix(r.user);
      mix(static_cast<std::uint64_t>(r.since.seconds()));
      mix(static_cast<std::uint64_t>(r.when.seconds()));
    }
  }
  return h;
}

}  // namespace s3::social

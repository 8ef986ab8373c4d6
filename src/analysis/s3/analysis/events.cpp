#include "s3/analysis/events.h"

#include <algorithm>

#include "s3/util/error.h"

namespace s3::analysis {

std::unordered_map<ApId, std::vector<std::size_t>> sessions_by_ap(
    const trace::Trace& trace) {
  std::unordered_map<ApId, std::vector<std::size_t>> by_ap;
  const auto sessions = trace.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    by_ap[sessions[i].ap].push_back(i);  // trace is connect-ordered
  }
  return by_ap;
}

namespace {

/// Shared sweep: for each per-AP event timeline, counts per-user events
/// and how many had a different-user companion within `window`.
/// `Select` extracts (time, user) from a session.
template <typename Select, typename Total, typename Joint>
void count_companioned_events(const trace::Trace& trace, util::SimTime window,
                              Select&& select, Total&& total,
                              Joint&& joint) {
  const auto sessions = trace.sessions();
  struct Ev {
    util::SimTime when;
    UserId user;
  };
  // s3lint: allow(det-unordered-iter): each AP's event timeline is
  // sorted before scanning, and the per-user tallies are integer
  // counters, so AP visit order cannot change the result.
  for (const auto& [ap, idx] : sessions_by_ap(trace)) {
    std::vector<Ev> events;
    events.reserve(idx.size());
    for (std::size_t i : idx) {
      const auto [when, user] = select(sessions[i]);
      events.push_back({when, user});
    }
    std::sort(events.begin(), events.end(),
              [](const Ev& a, const Ev& b) { return a.when < b.when; });

    for (std::size_t i = 0; i < events.size(); ++i) {
      total(events[i].user);
      bool companioned = false;
      for (std::size_t j = i + 1; j < events.size() && !companioned; ++j) {
        if ((events[j].when - events[i].when) > window) break;
        companioned = events[j].user != events[i].user;
      }
      for (std::size_t j = i; j-- > 0 && !companioned;) {
        if ((events[i].when - events[j].when) > window) break;
        companioned = events[j].user != events[i].user;
      }
      if (companioned) joint(events[i].user);
    }
  }
}

}  // namespace

std::vector<UserLeaveStats> per_user_leave_stats(const trace::Trace& trace,
                                                 util::SimTime window) {
  S3_REQUIRE(trace.fully_assigned(),
             "per_user_leave_stats: trace must be assigned");
  S3_REQUIRE(window.seconds() > 0, "per_user_leave_stats: bad window");
  std::vector<UserLeaveStats> out(trace.num_users());
  count_companioned_events(
      trace, window,
      [](const trace::SessionRecord& s) {
        return std::pair{s.disconnect, s.user};
      },
      [&](UserId u) { ++out[u].leavings; },
      [&](UserId u) { ++out[u].co_leavings; });
  return out;
}

std::vector<UserArrivalStats> per_user_arrival_stats(const trace::Trace& trace,
                                                     util::SimTime window) {
  S3_REQUIRE(trace.fully_assigned(),
             "per_user_arrival_stats: trace must be assigned");
  S3_REQUIRE(window.seconds() > 0, "per_user_arrival_stats: bad window");
  std::vector<UserArrivalStats> out(trace.num_users());
  count_companioned_events(
      trace, window,
      [](const trace::SessionRecord& s) {
        return std::pair{s.connect, s.user};
      },
      [&](UserId u) { ++out[u].arrivals; },
      [&](UserId u) { ++out[u].co_comings; });
  return out;
}

}  // namespace s3::analysis

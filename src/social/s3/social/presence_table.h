// Presence state for online social-event detection: who is on each AP
// right now, and who left recently enough to still count for
// co-leaving. A departure is checked against both to find the §III-D
// encounters (same-AP overlap of at least `min_encounter_overlap`) and
// co-leavings (an encounter-grade peer that left within
// `co_leave_window` before).
//
// core::OnlineS3Selector keeps one table for its domain. ServePipeline
// keeps one per domain (an AP belongs to exactly one domain, so
// presence never crosses tables), and each table carries its own mutex
// — event detection serializes only with arrivals/departures of the
// *same* domain, and never extends the domain placement lock's
// critical section.
//
// depart() only reports which peers were met; the caller writes the
// encounter/co-leave counters into its SharedSocialModel outside this
// table's lock, so the lock order is always domain placement lock ->
// presence lock -> (lock-free) store, never anything cyclic.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "s3/util/ids.h"
#include "s3/util/sim_time.h"
#include "s3/util/thread_annotations.h"

namespace s3::social {

class PresenceTable {
 public:
  /// The social events one departure implies, against the departing
  /// session's stay on its AP.
  struct DepartureEvents {
    UserId user = kInvalidUser;  ///< kInvalidUser if never recorded
    std::vector<UserId> encountered;  ///< peers still present long enough
    std::vector<UserId> co_left;      ///< peers that left shortly before
  };

  /// Both windows must be positive.
  PresenceTable(util::SimTime co_leave_window,
                util::SimTime min_encounter_overlap);

  /// Snapshot copy (a replicated controller's clone); locks `other`.
  PresenceTable(const PresenceTable& other) S3_EXCLUDES(other.mu_);
  PresenceTable& operator=(const PresenceTable&) = delete;

  /// Records that `user`'s session is now present on `ap`.
  void arrive(ApId ap, std::size_t session_index, UserId user,
              util::SimTime when) S3_EXCLUDES(mu_);

  /// Removes the session from `ap`'s presence list and returns the
  /// encounter/co-leave peers its departure implies. The departing
  /// session itself joins the recent-departure ring for later
  /// co-leave matches.
  DepartureEvents depart(ApId ap, std::size_t session_index,
                         util::SimTime when) S3_EXCLUDES(mu_);

  /// Canonical-order fold of the presence lists and departure rings —
  /// the state a replicated controller must carry across failover bit
  /// for bit. Table capacity and insertion order do not leak in.
  std::uint64_t state_digest() const S3_EXCLUDES(mu_);

 private:
  struct Presence {
    std::size_t session_index;
    UserId user;
    util::SimTime since;
  };
  struct DepartureRec {
    UserId user;
    util::SimTime since;  ///< association start (for the overlap check)
    util::SimTime when;
  };

  const util::SimTime co_leave_window_;
  const util::SimTime min_encounter_overlap_;

  mutable util::Mutex mu_;
  std::unordered_map<ApId, std::vector<Presence>> present_
      S3_GUARDED_BY(mu_);
  /// Recent departures per AP, pruned past the co-leave window.
  std::unordered_map<ApId, std::vector<DepartureRec>> recent_
      S3_GUARDED_BY(mu_);
};

}  // namespace s3::social

#include "s3/core/oracle.h"

#include <algorithm>
#include <numeric>

#include "s3/core/baselines.h"
#include "s3/runtime/replay_driver.h"
#include "s3/util/rng.h"

namespace s3::core {

namespace {

/// A session's load contribution per slot: (slot index, Mbit/s added).
struct SlotContribution {
  std::size_t slot;
  double mbps;
};

}  // namespace

OracleResult offline_upper_bound(const wlan::Network& net,
                                 const trace::Trace& workload,
                                 const OracleConfig& config) {
  S3_REQUIRE(config.slot_s > 0, "oracle: bad slot width");
  S3_REQUIRE(config.max_passes >= 1, "oracle: need at least one pass");

  // Warm start: the deployed policy's assignment.
  LlfSelector llf(LoadMetric::kStations);
  runtime::ReplayDriverConfig rc;
  rc.replay.radio = config.radio;
  const sim::ReplayResult warm =
      runtime::ReplayDriver(net, rc).run_sequential(workload, llf);

  const auto sessions = warm.assigned.sessions();
  const std::int64_t begin = 0;
  const std::int64_t end = warm.assigned.end_time().seconds();
  const std::size_t num_slots =
      static_cast<std::size_t>((std::max<std::int64_t>(end - begin, 1) +
                                config.slot_s - 1) /
                               config.slot_s);

  // Precompute per-session slot contributions and candidate sets.
  std::vector<std::vector<SlotContribution>> contrib(sessions.size());
  std::vector<std::vector<ApId>> candidates(sessions.size());
  std::vector<ApId> current(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const trace::SessionRecord& s = sessions[i];
    current[i] = s.ap;
    candidates[i] =
        wlan::candidate_aps(net, config.radio, s.building, s.pos);
    std::int64_t t = s.connect.seconds();
    const std::int64_t stop = s.disconnect.seconds();
    while (t < stop) {
      const std::int64_t slot = (t - begin) / config.slot_s;
      const std::int64_t seg_end =
          std::min(stop, begin + (slot + 1) * config.slot_s);
      contrib[i].push_back(
          {static_cast<std::size_t>(slot),
           s.demand_mbps * static_cast<double>(seg_end - t) /
               static_cast<double>(config.slot_s)});
      t = seg_end;
    }
  }

  // load[ap * num_slots + slot]
  std::vector<double> load(net.num_aps() * num_slots, 0.0);
  auto apply = [&](std::size_t i, ApId ap, double sign) {
    for (const SlotContribution& c : contrib[i]) {
      load[static_cast<std::size_t>(ap) * num_slots + c.slot] +=
          sign * c.mbps;
    }
  };
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    apply(i, current[i], +1.0);
  }

  auto objective = [&]() {
    double s = 0.0;
    for (double v : load) s += v * v;
    return s;
  };

  // Moving session i from AP a to AP b changes the objective by
  //   Σ_slots [ (L_b + r)² - L_b² + (L_a - r)² - L_a² ]
  // = Σ_slots [ 2 r (L_b - L_a) + 2 r² ].
  auto move_delta = [&](std::size_t i, ApId from, ApId to) {
    double delta = 0.0;
    const double* la = &load[static_cast<std::size_t>(from) * num_slots];
    const double* lb = &load[static_cast<std::size_t>(to) * num_slots];
    for (const SlotContribution& c : contrib[i]) {
      const double r = c.mbps;
      delta += 2.0 * r * (lb[c.slot] - la[c.slot]) + 2.0 * r * r;
    }
    return delta;
  };

  OracleResult result;
  result.initial_objective = objective();

  util::Rng rng(config.seed);
  std::vector<std::size_t> order(sessions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double prev_objective = result.initial_objective;
  for (std::size_t pass = 0; pass < config.max_passes; ++pass) {
    ++result.passes;
    rng.shuffle(order);
    for (std::size_t i : order) {
      ApId best = current[i];
      double best_delta = -1e-9;  // only accept strict improvements
      for (ApId cand : candidates[i]) {
        if (cand == current[i]) continue;
        const double d = move_delta(i, current[i], cand);
        if (d < best_delta) {
          best_delta = d;
          best = cand;
        }
      }
      if (best != current[i]) {
        apply(i, current[i], -1.0);
        apply(i, best, +1.0);
        current[i] = best;
        ++result.moves;
      }
    }
    const double now = objective();
    if (prev_objective - now <
        config.convergence_epsilon * std::max(prev_objective, 1.0)) {
      prev_objective = now;
      break;
    }
    prev_objective = now;
  }

  result.final_objective = prev_objective;
  result.assigned = warm.assigned.with_assignments(current);
  return result;
}

}  // namespace s3::core

// Structural validators for the domain invariants the paper's
// pipeline rests on (§III–§V):
//
//   validate_trace        — session logs: monotonic timestamps,
//                           positive durations, known user/AP/building
//                           ids, APs inside the session's controller
//                           domain;
//   validate_social_graph — the social relation index and its graph:
//                           θ(u,v) finite, non-negative, symmetric,
//                           θ(u,u) = 0; graph edges at/above the θ
//                           threshold, no self-edges, weights matching
//                           the provider;
//   validate_clique_cover — a clique cover must partition the vertex
//                           set exactly (every vertex in exactly one
//                           clique, every clique fully connected), and
//                           must not be stale (no multi-member clique
//                           holding a vertex whose every θ-edge has
//                           since been deleted);
//   validate_load_state   — association load: per-AP conservation
//                           (cached totals equal the sum over active
//                           stations), finite non-negative loads, and
//                           the Chiu–Jain balancing index β ∈ [1/n, 1].
//
// Validators always *return* their findings; in addition every finding
// is dispatched through the contract layer (contract.h), so the active
// mode decides whether it is also counted on the metrics bus, logged,
// or thrown. A trace-analysis pipeline that feeds on silently
// malformed inputs corrupts every downstream conclusion — these are
// the machine-checked gates at the boundaries.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "s3/check/contract.h"
#include "s3/fault/fault_plan.h"
#include "s3/fault/replica_snapshot.h"
#include "s3/sim/load_state.h"
#include "s3/social/graph.h"
#include "s3/social/social_index.h"
#include "s3/trace/trace.h"
#include "s3/util/sim_time.h"
#include "s3/wlan/network.h"

namespace s3::check {

struct CheckIssue {
  std::string validator;  ///< e.g. "validate_trace"
  std::string message;
};

/// Findings of one validator run. Issues past `max_issues` are only
/// counted (`dropped`), so a wholly corrupt input cannot balloon the
/// report.
class CheckReport {
 public:
  explicit CheckReport(std::size_t max_issues = 64)
      : max_issues_(max_issues) {}

  bool ok() const noexcept { return issues_.empty() && dropped_ == 0; }
  std::span<const CheckIssue> issues() const noexcept { return issues_; }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Records a finding and dispatches it through the contract layer
  /// (count / log / abort under the active mode).
  void add(std::string_view validator, std::string message);

  /// Appends another report's findings (for composite checks).
  void merge(CheckReport other);

 private:
  std::size_t max_issues_;
  std::vector<CheckIssue> issues_;
  std::size_t dropped_ = 0;
};

struct TraceCheckOptions {
  std::size_t max_issues = 64;
};

/// Validates raw session records as a reader produced them, before
/// trace::Trace sorts/normalizes (so timestamp regressions are still
/// visible). `net`, when given, bounds AP/building ids and requires
/// assigned APs to live in the session's controller domain.
CheckReport validate_trace(std::span<const trace::SessionRecord> sessions,
                           std::size_t num_users,
                           const wlan::Network* net = nullptr,
                           const TraceCheckOptions& options = {});

/// Convenience overload over a constructed (sorted) trace.
CheckReport validate_trace(const trace::Trace& trace,
                           const wlan::Network* net = nullptr,
                           const TraceCheckOptions& options = {});

struct SocialGraphCheckOptions {
  /// Edge threshold the graph was built with (S3Config's default).
  double theta_threshold = 0.3;
  double epsilon = 1e-9;
  /// Pair-loop budget for large user populations; pairs beyond it are
  /// not inspected (deterministic prefix).
  std::size_t max_pairs = 2'000'000;
  std::size_t max_issues = 64;
};

/// Validates a θ provider alone: finite, non-negative, symmetric,
/// θ(u,u) = 0.
CheckReport validate_social_graph(const social::ThetaProvider& theta,
                                  const SocialGraphCheckOptions& options = {});

/// Validates a social graph, optionally against the θ provider it was
/// built from: no self-edges, symmetric adjacency and weights, every
/// edge at/above the threshold, edge weights equal to θ, and no
/// missing edge whose θ clears the threshold.
CheckReport validate_social_graph(const social::WeightedGraph& graph,
                                  const social::ThetaProvider* theta,
                                  const SocialGraphCheckOptions& options = {});

/// Builds the all-users social graph of a θ provider (edges where
/// θ ≥ threshold) — the model-level analogue of the per-batch graph
/// S3Selector builds, shared by `s3lb check model` and tests.
social::WeightedGraph build_social_graph(const social::ThetaProvider& theta,
                                         double theta_threshold);

struct CliqueCoverCheckOptions {
  std::size_t max_issues = 64;
};

/// Validates that `cover` partitions the graph's vertices into
/// cliques: every vertex covered exactly once, every group a clique.
/// Covers computed against an older edge set — such as a `--cover`
/// file checked against a newer model — are flagged as stale: a vertex
/// with zero remaining θ-edges inside a multi-member clique gets its
/// own "is stale" finding (on top of the generic non-clique one), so
/// an outdated cover is named, not inferred.
CheckReport validate_clique_cover(
    const social::WeightedGraph& graph,
    std::span<const std::vector<std::size_t>> cover,
    const CliqueCoverCheckOptions& options = {});

struct LoadCheckOptions {
  /// Relative tolerance for conservation / β range checks.
  double epsilon = 1e-6;
  std::size_t max_issues = 64;
};

/// Validates a per-AP offered-load vector: finite, non-negative, and
/// Chiu–Jain β = (ΣT)²/(n·ΣT²) within [1/n, 1].
CheckReport validate_load_state(std::span<const double> per_ap_demand,
                                const LoadCheckOptions& options = {});

/// Validates a live association tracker: the above plus per-AP load
/// conservation (cached aggregate equals the sum over its stations).
CheckReport validate_load_state(const sim::ApLoadTracker& tracker,
                                const LoadCheckOptions& options = {});

/// Validates the static load of an assigned trace on a network
/// (per-AP sums of session demands).
CheckReport validate_load_state(const wlan::Network& net,
                                const trace::Trace& assigned,
                                const LoadCheckOptions& options = {});

struct ModelFreshnessOptions {
  std::size_t max_issues = 64;
};

/// Validates that a trained social model is fresh enough to steer
/// placement: its recorded training horizon (`trained_end_s`) must be
/// known and no older than `max_age` before `now` (both in trace
/// time). The paper's Fig. 11 shows the model saturates with ~15 days
/// of history but the flip side is drift — a model trained a semester
/// ago encodes last semester's cliques. Serving stale θ is a silent
/// degradation, which is exactly what this gate (and `s3lb check model
/// --stale-days`) makes loud.
CheckReport validate_model_freshness(const social::SocialIndexModel& model,
                                     util::SimTime now, util::SimTime max_age,
                                     const ModelFreshnessOptions& options = {});

struct FaultPlanCheckOptions {
  std::size_t max_issues = 64;
};

/// Lints a parsed fault plan: empty/inverted windows, probabilities
/// outside [0, 1], overlapping outage windows of the same AP or
/// controller, and — when `net` is given — AP/controller ids outside
/// the topology. Stricter than fault::validate_plan (which tolerates
/// overlapping AP windows); backs `s3lb check fault-plan`.
CheckReport validate_fault_plan(const fault::FaultPlan& plan,
                                const wlan::Network* net = nullptr,
                                const FaultPlanCheckOptions& options = {});

struct ReplicaConvergenceOptions {
  /// Require equal terms/applied-record counts too. Off by default: a
  /// promoted backup's term is one past the crashed primary's even
  /// when its domain state is bit-identical.
  bool require_equal_terms = false;
  std::size_t max_issues = 64;
};

/// Validates that two replica snapshots are bit-identical: placements,
/// retry queues, attempt counters, degradation state machine, policy
/// state digest, and stats must all match. This is the replication
/// layer's acceptance gate — a promoted backup that diverges anywhere
/// from the primary it replaced produces findings here.
CheckReport validate_replica_convergence(
    const fault::ReplicaSnapshot& a, const fault::ReplicaSnapshot& b,
    const ReplicaConvergenceOptions& options = {});

/// Log position of one replica, fed to validate_log_truncation. Plain
/// numbers rather than repl types: check sits below repl in the build
/// graph, like it does for ReplicaSnapshot.
struct ReplicaLogPosition {
  std::size_t replica = 0;    ///< replica index, for the finding message
  bool alive = true;          ///< dead replicas re-seed from a snapshot
  std::uint64_t applied = 0;  ///< log records applied ([0, log end])
};

struct LogTruncationCheckOptions {
  std::size_t max_issues = 64;
};

/// Validates the replication layer's truncation invariant before a log
/// prefix is dropped: the proposed new `base` must stay within the log,
/// must not pass the latest snapshot (a replica behind the base
/// re-seeds from a snapshot, so one must exist at or after it), and
/// must not pass any alive replica's applied position — i.e. no
/// replica can ever need a truncated record. `end` is one past the
/// last appended index; `snapshot_index` is the latest snapshot's
/// anchor, meaningful only when `has_snapshot`.
CheckReport validate_log_truncation(
    std::uint64_t base, std::uint64_t end, bool has_snapshot,
    std::uint64_t snapshot_index,
    std::span<const ReplicaLogPosition> replicas,
    const LogTruncationCheckOptions& options = {});

}  // namespace s3::check

// Deep-frozen controller state for snapshot-based catch-up.
//
// A checkpoint is a *clone*, not a serialization: the engine's future
// behavior depends on state that logical fields cannot reproduce —
// float accumulation order in the load tracker, unordered-container
// iteration history in the policy — so the only way to restart a
// replica bit-identically is a member-wise copy. The checkpoint owns
// its own policy clone and an engine copy (with the domain's
// placements) rebound onto it, so it stays valid however the source
// replica evolves (or dies) afterwards.
//
// Installing a checkpoint clones it *again* (clone_policy +
// ControllerEngine rebind copy), so one checkpoint in the event log
// can seed any number of rejoining replicas.
//
// Deliberately lock-free: checkpoints are created and installed by the
// single thread walking their ReplicationGroup, like the EventLog that
// stores them.
#pragma once

#include <memory>

#include "s3/fault/replica_snapshot.h"
#include "s3/runtime/controller_engine.h"
#include "s3/sim/selector.h"
#include "s3/util/error.h"

namespace s3::repl {

class EngineCheckpoint {
 public:
  /// Captures `engine`, whose policy is `policy`. Requires the policy
  /// to support clone(); callers gate snapshotting on that.
  EngineCheckpoint(const runtime::ControllerEngine& engine,
                   const sim::ApSelector& policy)
      : policy_(policy.clone()), state_(engine.snapshot()) {
    S3_REQUIRE(policy_ != nullptr,
               "EngineCheckpoint: policy does not support clone() — "
               "snapshot-based catch-up is unavailable for it");
    engine_ = std::make_unique<runtime::ControllerEngine>(engine, *policy_);
  }

  /// Logical state at capture (term/applied_records left to the
  /// replication layer); digest() of this is what the kSnapshot log
  /// record carries.
  const fault::ReplicaSnapshot& state() const noexcept { return state_; }

  /// Fresh policy for a replica install; the caller rebind-copies
  /// engine() onto it and must keep the policy alive as long as that
  /// engine.
  std::unique_ptr<sim::ApSelector> clone_policy() const {
    std::unique_ptr<sim::ApSelector> p = policy_->clone();
    S3_ASSERT(p != nullptr, "EngineCheckpoint: checkpointed policy lost clone");
    return p;
  }
  const runtime::ControllerEngine& engine() const noexcept { return *engine_; }

 private:
  std::unique_ptr<sim::ApSelector> policy_;
  std::unique_ptr<runtime::ControllerEngine> engine_;
  fault::ReplicaSnapshot state_;
};

}  // namespace s3::repl

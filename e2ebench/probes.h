// Forwarding wrappers that time the benchmark's calls into the s3lb
// libraries from outside: a SelectorFactory whose selectors time every
// place_batch, and a ThetaProvider that times every θ read. Both
// forward every virtual unchanged, so the wrapped code takes the same
// path and makes the same placements; the benchmark checks that by
// comparing assigned-trace digests with and without them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "harness.h"
#include "s3/sim/selector.h"
#include "s3/social/social_index.h"

namespace e2e {

/// θ time and call count accumulated on one thread since the last
/// take(); the enclosing place_batch folds it into one child span.
struct ThetaTally {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  static ThetaTally& local() {
    thread_local ThetaTally t;
    return t;
  }
  ThetaTally take() {
    const ThetaTally out = *this;
    *this = {};
    return out;
  }
};

/// Forwards to a θ provider, timing theta()/theta_row() while spans are
/// being recorded.
class ThetaProbe final : public s3::social::ThetaProvider {
 public:
  explicit ThetaProbe(const s3::social::ThetaProvider* inner) : inner_(inner) {}

  double theta(s3::UserId u, s3::UserId v) const override {
    if (!SpanRecorder::instance().enabled()) return inner_->theta(u, v);
    const std::int64_t t0 = now_ns();
    const double th = inner_->theta(u, v);
    tally(t0);
    return th;
  }
  void theta_row(s3::UserId u, std::span<const s3::UserId> vs,
                 std::span<double> out) const override {
    if (!SpanRecorder::instance().enabled()) {
      inner_->theta_row(u, vs, out);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->theta_row(u, vs, out);
    tally(t0);
  }
  std::uint64_t read_epoch() const noexcept override {
    return inner_->read_epoch();
  }
  bool emits_theta_deltas() const noexcept override {
    return inner_->emits_theta_deltas();
  }
  s3::social::ThetaDeltaPoll poll_theta_deltas(
      std::uint64_t cursor,
      std::vector<s3::social::ThetaDelta>& out) const override {
    return inner_->poll_theta_deltas(cursor, out);
  }
  std::size_t num_users() const override { return inner_->num_users(); }

 private:
  static void tally(std::int64_t t0) {
    ThetaTally& t = ThetaTally::local();
    t.ns += now_ns() - t0;
    ++t.calls;
  }

  const s3::social::ThetaProvider* inner_;
};

/// place_batch timings of every selector one BatchProbeFactory made,
/// per controller domain. Each selector appends only to its own slot,
/// from the one thread that runs its engine.
class BatchLog {
 public:
  struct Slot {
    s3::ControllerId domain = 0;
    std::vector<double> batch_ns;
  };

  Slot* open(s3::ControllerId domain) {
    std::lock_guard<std::mutex> hold(mu_);
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->domain = domain;
    return slots_.back().get();
  }

  /// Every batch time, ascending.
  std::vector<double> sorted_ns() const {
    std::lock_guard<std::mutex> hold(mu_);
    std::vector<double> all;
    for (const auto& s : slots_) {
      all.insert(all.end(), s->batch_ns.begin(), s->batch_ns.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  /// Largest per-domain busy time over the mean of the busy domains.
  double shard_imbalance() const {
    std::lock_guard<std::mutex> hold(mu_);
    std::vector<double> busy;
    for (const auto& s : slots_) {
      if (s->domain >= busy.size()) busy.resize(s->domain + 1, 0.0);
      for (const double ns : s->batch_ns) busy[s->domain] += ns;
    }
    double sum = 0.0;
    double max = 0.0;
    std::size_t n = 0;
    for (const double b : busy) {
      if (b <= 0.0) continue;
      sum += b;
      max = std::max(max, b);
      ++n;
    }
    return n > 0 && sum > 0.0 ? max / (sum / static_cast<double>(n)) : 0.0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Forwards to a selector, timing each place_batch. While spans are
/// recorded, the batch becomes a "core.place_batch" span and the θ
/// reads inside it one folded "social.theta" child.
class BatchProbe final : public s3::sim::ApSelector {
 public:
  BatchProbe(std::unique_ptr<s3::sim::ApSelector> inner, BatchLog* log,
             s3::ControllerId domain)
      : inner_(std::move(inner)), log_(log), domain_(domain),
        slot_(log->open(domain)) {}

  std::string_view name() const override { return inner_->name(); }
  s3::ApId select_one(const s3::sim::Arrival& arrival,
                      const s3::sim::ApLoadTracker& loads) override {
    return inner_->select_one(arrival, loads);
  }
  s3::sim::BatchResult place_batch(
      const s3::sim::BatchRequest& request,
      const s3::sim::ApLoadTracker& loads) override {
    ThetaTally::local().take();
    const std::int64_t t0 = now_ns();
    s3::sim::BatchResult result;
    std::uint64_t span_id = 0;
    {
      SpanScope span("core.place_batch");
      span_id = span.id();
      result = inner_->place_batch(request, loads);
    }
    const std::int64_t t1 = now_ns();
    slot_->batch_ns.push_back(static_cast<double>(t1 - t0));
    const ThetaTally theta = ThetaTally::local().take();
    if (span_id != 0 && theta.calls > 0) {
      SpanRecorder& r = SpanRecorder::instance();
      Span child;
      child.id = r.next_id();
      child.parent = span_id;
      child.name = "social.theta";
      child.start_ns = t0;
      child.end_ns = t0 + theta.ns;
      child.calls = theta.calls;
      r.record(child);
    }
    return result;
  }
  void on_associate(const s3::sim::Arrival& arrival, s3::ApId ap) override {
    inner_->on_associate(arrival, ap);
  }
  void on_disconnect(std::size_t session_index, s3::UserId user, s3::ApId ap,
                     s3::util::SimTime when) override {
    inner_->on_disconnect(session_index, user, ap, when);
  }
  bool uses_social_model() const override {
    return inner_->uses_social_model();
  }
  std::uint64_t state_digest() const override { return inner_->state_digest(); }
  std::unique_ptr<s3::sim::ApSelector> clone() const override {
    std::unique_ptr<s3::sim::ApSelector> copy = inner_->clone();
    if (copy == nullptr) return nullptr;
    return std::make_unique<BatchProbe>(std::move(copy), log_, domain_);
  }

 private:
  std::unique_ptr<s3::sim::ApSelector> inner_;
  BatchLog* log_;
  s3::ControllerId domain_;
  BatchLog::Slot* slot_;
};

/// Wraps every selector `inner` creates in a BatchProbe logging to
/// `log`. Both must outlive the factory and what it creates.
class BatchProbeFactory final : public s3::sim::SelectorFactory {
 public:
  BatchProbeFactory(const s3::sim::SelectorFactory* inner, BatchLog* log)
      : inner_(inner), log_(log) {}

  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<s3::sim::ApSelector> create(
      s3::ControllerId domain) const override {
    return std::make_unique<BatchProbe>(inner_->create(domain), log_, domain);
  }

 private:
  const s3::sim::SelectorFactory* inner_;
  BatchLog* log_;
};

}  // namespace e2e

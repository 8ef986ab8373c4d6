#include "s3/serve/serve_pipeline.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "s3/social/clique.h"
#include "s3/social/graph.h"
#include "s3/util/error.h"
#include "s3/util/metrics.h"

namespace s3::serve {

namespace {

struct Neighbor {
  UserId id = kInvalidUser;
  double weight = 0.0;  ///< θ(u, id), strictly above the threshold
};

/// The strict θ > threshold graph of `model` as adjacency lists, each
/// ascending: for_each_theta_edge yields pairs in ascending (u, v)
/// order, so every neighbour below u lands in u's list before any
/// above it.
struct ThetaGraph {
  std::vector<std::vector<Neighbor>> adj;
  std::size_t edges = 0;

  ThetaGraph(const social::ThetaProvider& model, double threshold)
      : adj(model.num_users()) {
    social::for_each_theta_edge(model, threshold, /*strict=*/true,
                                [this](UserId u, UserId v, double th) {
                                  adj[u].push_back({v, th});
                                  adj[v].push_back({u, th});
                                  ++edges;
                                });
  }

  /// Connected components in ascending-minimum-vertex order, each
  /// listed ascending.
  std::vector<std::vector<UserId>> components() const {
    std::vector<std::vector<UserId>> out;
    std::vector<bool> seen(adj.size(), false);
    for (UserId root = 0; root < adj.size(); ++root) {
      if (seen[root]) continue;
      seen[root] = true;
      std::vector<UserId> members{root};
      for (std::size_t head = 0; head < members.size(); ++head) {
        for (const Neighbor& nb : adj[members[head]]) {
          if (!seen[nb.id]) {
            seen[nb.id] = true;
            members.push_back(nb.id);
          }
        }
      }
      std::sort(members.begin(), members.end());
      out.push_back(std::move(members));
    }
    return out;
  }
};

}  // namespace

ServePipeline::ServePipeline(const wlan::Network* net,
                             const social::SocialIndexModel* base,
                             ServeConfig config)
    : net_(net),
      config_(std::move(config)),
      shared_(base, config_.expected_live_pairs) {
  S3_REQUIRE(net_ != nullptr, "ServePipeline: null network");
  health_ = std::make_unique<fault::HealthBoard>(net_->num_controllers());
  core::SelectorSpec spec;
  spec.llf_metric = config_.llf_metric;
  spec.random_seed = config_.random_seed;
  spec.net = net_;
  spec.model = &shared_;
  spec.base_model = base;
  spec.s3 = config_.s3;
  spec.online.s3 = config_.s3;
  spec.online.co_leave_window = config_.co_leave_window;
  spec.online.min_encounter_overlap = config_.min_encounter_overlap;
  const auto factory = core::make_selector_factory(config_.policy, spec);
  user_ap_ = std::vector<std::atomic<ApId>>(shared_.num_users());
  for (std::atomic<ApId>& slot : user_ap_) {
    slot.store(kInvalidAp, std::memory_order_relaxed);
  }
  domains_.reserve(net_->num_controllers());
  presence_.reserve(net_->num_controllers());
  for (ControllerId c = 0; c < net_->num_controllers(); ++c) {
    auto d = std::make_unique<Domain>();
    d->selector = factory->create(c);
    d->tracker = std::make_unique<sim::ApLoadTracker>(*net_);
    domains_.push_back(std::move(d));
    presence_.push_back(std::make_unique<social::PresenceTable>(
        config_.co_leave_window, config_.min_encounter_overlap));
  }
}

ServePipeline::~ServePipeline() = default;

PlaceResult ServePipeline::place(const PlaceRequest& req) {
  S3_REQUIRE(req.building < net_->num_buildings(),
             "serve: building id out of range");
  S3_REQUIRE(req.user != kInvalidUser, "serve: invalid user id");
  const auto t0 = std::chrono::steady_clock::now();
  const ControllerId domain_id = net_->controller_of_building(req.building);

  // Reserve the session id first so a concurrent duplicate place() is
  // rejected instead of double-associated. The placeholder (ap ==
  // kInvalidAp) also makes a racing depart() for this id a no-op.
  if (!registry_.reserve(req.id, req.user)) {
    rejected_duplicate_id_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }

  sim::Arrival arrival;
  arrival.session_index = next_session_.fetch_add(1, std::memory_order_relaxed);
  arrival.user = req.user;
  arrival.controller = domain_id;
  arrival.connect = req.when;
  arrival.demand_mbps = req.demand_mbps;
  arrival.candidates =
      wlan::candidate_aps(*net_, config_.radio, req.building, req.pos);
  // Domain invariant: every AP this pipeline touches for the session
  // belongs to `domain_id` (presence maps and trackers are per-domain).
  // Dead APs are pruned exactly like ControllerEngine::flush does.
  std::erase_if(arrival.candidates, [&](ApId ap) {
    if (net_->controller_of_ap(ap) != domain_id) return true;
    return config_.injector != nullptr &&
           config_.injector->ap_down(ap, req.when);
  });
  if (arrival.candidates.empty()) {
    rejected_no_candidate_.fetch_add(1, std::memory_order_relaxed);
    registry_.cancel(req.id);
    return {};
  }

  PlaceResult result;
  Domain& d = *domains_[domain_id];
  {
    util::MutexLock hold(d.mu);
    if (d.selector->uses_social_model() &&
        req.user >= shared_.num_users()) {
      rejected_unknown_user_.fetch_add(1, std::memory_order_relaxed);
      registry_.cancel(req.id);
      return {};
    }
    sim::BatchRequest request;
    request.arrivals = {&arrival, 1};
    if (config_.injector != nullptr) {
      const bool model_out = !config_.injector->model_available(req.when);
      request.faults.model_available = !model_out;
      request.faults.clique_node_budget =
          config_.injector->clique_budget(req.when);
      request.faults.force_fallback = d.degradation.on_batch_start(
          model_out && d.selector->uses_social_model());
    }
    sim::BatchResult dispatched =
        d.selector->place_batch(request, *d.tracker);
    S3_ASSERT(dispatched.placements.size() == 1,
              "serve: policy returned wrong batch arity");
    if (config_.injector != nullptr && !request.faults.force_fallback) {
      d.degradation.on_batch_end(dispatched.full_fidelity);
    }
    const ApId ap = dispatched.placements[0];
    S3_ASSERT(std::find(arrival.candidates.begin(), arrival.candidates.end(),
                        ap) != arrival.candidates.end(),
              "serve: policy picked an AP outside the candidate set");
    result.placed = true;
    result.ap = ap;
    result.fallback = request.faults.force_fallback || !dispatched.full_fidelity;
    result.overloaded = d.tracker->headroom_mbps(ap) < req.demand_mbps;
    d.tracker->associate(arrival.session_index, ap, req.user,
                         req.demand_mbps);
    d.selector->on_associate(arrival, ap);
    if (config_.injector != nullptr) {
      health_->publish(domain_id, d.degradation.state());
    }
  }

  // Presence must be visible before the session id is committed: a
  // depart() can only race us after the commit, and it expects the
  // presence entry to exist.
  presence_[domain_id]->arrive(result.ap, arrival.session_index, req.user,
                               req.when);
  LiveSession session;
  session.session_index = arrival.session_index;
  session.user = req.user;
  session.ap = result.ap;
  session.domain = domain_id;
  session.demand_mbps = req.demand_mbps;
  session.since = req.when;
  registry_.commit(req.id, session);
  if (req.user < user_ap_.size()) {
    user_ap_[req.user].store(result.ap, std::memory_order_relaxed);
  }
  active_.fetch_add(1, std::memory_order_relaxed);
  placements_.fetch_add(1, std::memory_order_relaxed);
  if (result.fallback) {
    fallback_placements_.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.overloaded) {
    forced_overloads_.fetch_add(1, std::memory_order_relaxed);
  }
  // Resolved once: the registry lookup takes its mutex, and instruments
  // are pointer-stable (reset() zeroes them, never frees them).
  static util::Histogram* const place_ns =
      util::metrics().histogram("serve.place_ns");
  place_ns->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return result;
}

bool ServePipeline::depart(std::uint64_t id, util::SimTime when) {
  const std::optional<LiveSession> s = registry_.take(id);
  if (!s.has_value()) {
    // Unknown id, or a placement still in flight on another thread
    // (the placeholder). Either way nothing was committed yet.
    unknown_departures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  Domain& d = *domains_[s->domain];
  {
    util::MutexLock hold(d.mu);
    d.tracker->disconnect(s->session_index, s->ap);
    d.selector->on_disconnect(s->session_index, s->user, s->ap, when);
  }

  // The presence table reports who was met, and the detected events go
  // to the shared store here, outside both the domain and the presence
  // lock.
  shared_.record_departure(
      presence_[s->domain]->depart(s->ap, s->session_index, when));

  if (s->user < user_ap_.size()) {
    user_ap_[s->user].store(kInvalidAp, std::memory_order_relaxed);
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  departures_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SocialSnapshot ServePipeline::social_snapshot() const {
  // Under a baseline policy, live pairs may name users the model does
  // not know; the cover spans the model's population only.
  const ThetaGraph graph(shared_, config_.s3.theta_threshold);
  SocialSnapshot out;
  out.users = shared_.num_users();
  out.edges = graph.edges;
  // Component-local index of each member, for the induced subgraph.
  std::vector<std::size_t> local(graph.adj.size());
  for (const std::vector<UserId>& members : graph.components()) {
    ++out.components;
    for (std::size_t i = 0; i < members.size(); ++i) local[members[i]] = i;
    social::WeightedGraph g(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (const Neighbor& nb : graph.adj[members[i]]) {
        if (nb.id > members[i]) g.add_edge(i, local[nb.id], nb.weight);
      }
    }
    const social::CliqueCoverResult cover =
        social::clique_cover(g, config_.s3.clique);
    out.exact = out.exact && cover.exact;
    for (const std::vector<std::size_t>& clique : cover.cliques) {
      out.largest = std::max(out.largest, clique.size());
      if (clique.size() < 2) {
        ++out.singletons;
        continue;
      }
      ++out.cliques;
      // ΣC(AP) over this clique: θ mass of member pairs currently
      // placed on the same AP.
      double sum = 0.0;
      for (std::size_t a = 0; a < clique.size(); ++a) {
        const ApId ap_a =
            user_ap_[members[clique[a]]].load(std::memory_order_relaxed);
        if (ap_a == kInvalidAp) continue;
        for (std::size_t b = a + 1; b < clique.size(); ++b) {
          if (user_ap_[members[clique[b]]].load(std::memory_order_relaxed) !=
              ap_a) {
            continue;
          }
          sum += g.weight(clique[a], clique[b]);
        }
      }
      out.cohesion += sum;
    }
  }
  return out;
}

ServeStats ServePipeline::stats() const noexcept {
  ServeStats out;
  out.placements = placements_.load(std::memory_order_relaxed);
  out.departures = departures_.load(std::memory_order_relaxed);
  out.fallback_placements =
      fallback_placements_.load(std::memory_order_relaxed);
  out.forced_overloads = forced_overloads_.load(std::memory_order_relaxed);
  out.rejected_no_candidate =
      rejected_no_candidate_.load(std::memory_order_relaxed);
  out.rejected_unknown_user =
      rejected_unknown_user_.load(std::memory_order_relaxed);
  out.rejected_duplicate_id =
      rejected_duplicate_id_.load(std::memory_order_relaxed);
  out.unknown_departures =
      unknown_departures_.load(std::memory_order_relaxed);
  return out;
}

fault::HealthState ServePipeline::domain_health(ControllerId domain) const {
  S3_REQUIRE(domain < domains_.size(), "serve: domain out of range");
  // Reads the published snapshot — monitoring never touches the
  // domain placement lock.
  return health_->state(domain);
}

}  // namespace s3::serve

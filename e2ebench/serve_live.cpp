// The serve-live pass of replay-s3: an in-process ServePipeline (policy
// s3) driven by the small campus's sessions, a `place` request at each
// connect and a `depart` at each disconnect, in trace-time order. Every
// generator thread owns a disjoint set of controller domains. Live
// co-leave writes into the shared pair store race S3's θ reads here,
// and the threads meet only at the pipeline-wide locks.
//
// Every run places the whole campus once, closed loop, and checks the
// result. A traced run also drives the reference rate open loop: each
// thread sends on a fixed schedule whether or not earlier requests are
// done, so a stall shows as latency instead of as a lower offered load,
// once untraced and once with spans.

#include <exception>
#include <functional>
#include <thread>

#include "common.h"
#include "s3/serve/serve_pipeline.h"

namespace e2e {

using namespace s3;

namespace {

/// The open-loop rate serve_p50/p99 are reported at, low enough that
/// the pipeline's multi-millisecond global stalls delay well under 1 %
/// of requests, so p99 is the requests' own tail.
constexpr double kRefRate = 5000.0;

/// Generator threads: half the cores, at least one. The generators are
/// also the callers and spin until each due time; leaving half the
/// cores free keeps other runnable threads from preempting a generator
/// in the middle of its schedule.
unsigned generator_threads() { return std::max(1u, worker_threads() / 2); }

struct Event {
  std::uint32_t session = 0;
  bool depart = false;
};

/// One generator thread's requests: its domains' connects and
/// disconnects in trace-time order.
struct Stream {
  std::vector<Event> events;
  std::vector<std::uint8_t> placed;  ///< by session
  std::uint64_t cursor = 0;
  std::uint64_t places_ok = 0;
  std::uint64_t departs_ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t malformed = 0;
};

std::vector<Stream> make_streams(const wlan::Network& net,
                                 const trace::Trace& workload,
                                 unsigned threads) {
  struct Timed {
    std::int64_t when;
    Event ev;
  };
  std::vector<std::vector<Timed>> timed(threads);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const trace::SessionRecord& s = workload.session(i);
    const unsigned t = static_cast<unsigned>(
        net.controller_of_building(s.building) % threads);
    const auto idx = static_cast<std::uint32_t>(i);
    timed[t].push_back({s.connect.seconds(), {idx, false}});
    timed[t].push_back({s.disconnect.seconds(), {idx, true}});
  }
  std::vector<Stream> streams(threads);
  for (unsigned t = 0; t < threads; ++t) {
    // Departures before arrivals at equal times, like the replay
    // engine; then by session for a total order.
    std::sort(timed[t].begin(), timed[t].end(),
              [](const Timed& a, const Timed& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.ev.depart != b.ev.depart) return a.ev.depart;
                return a.ev.session < b.ev.session;
              });
    for (const Timed& x : timed[t]) streams[t].events.push_back(x.ev);
    streams[t].placed.assign(workload.size(), 0);
  }
  return streams;
}

struct Rung {
  std::uint64_t requests = 0;
  std::vector<double> latency_us;  ///< sorted
  std::vector<double> lag_us;      ///< sorted
};

serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.policy = "s3";
  cfg.llf_metric = core::LoadMetric::kStations;
  return cfg;
}

/// A fresh pipeline and the generators' streams at the campus's first
/// request; what every rung starts from.
struct Fresh {
  const World& world;
  serve::ServePipeline pipeline;
  std::vector<Stream> streams;

  Fresh(const World& w, const std::vector<Stream>& start)
      : world(w),
        pipeline(&w.gen.network, &w.model, serve_config()),
        streams(start) {}
  Fresh(const Fresh&) = delete;
  Fresh& operator=(const Fresh&) = delete;

  /// Accounting must close: what the generators saw placed and departed
  /// is what the pipeline counted, and the difference is still active.
  /// Counts every request in `report`; false on a mismatch or a
  /// malformed reply.
  bool settle(Report& report) const {
    std::uint64_t places = 0, departs = 0, rejected = 0, malformed = 0;
    for (const Stream& st : streams) {
      places += st.places_ok;
      departs += st.departs_ok;
      rejected += st.rejected;
      malformed += st.malformed;
    }
    const serve::ServeStats stats = pipeline.stats();
    report.work(places + departs + rejected + malformed, rejected + malformed);
    return malformed == 0 && stats.placements == places &&
           stats.departures == departs &&
           pipeline.active_sessions() == places - departs &&
           stats.unknown_departures == 0;
  }
};

/// What one slot of a generator's schedule did.
struct Sent {
  bool sent = false;  ///< false: the depart of a rejected session
  const char* name = "";
  std::uint64_t request = 0;
  std::uint32_t session = 0;
  ApId ap = kInvalidAp;  ///< set by a successful place
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Sends the next request of `st`; the caller keeps the cursor in range.
Sent send(Fresh& f, Stream& st) {
  const Event ev = st.events[st.cursor++];
  const trace::SessionRecord& s = f.world.gen.workload.session(ev.session);
  Sent out;
  out.session = ev.session;
  out.request = std::uint64_t{ev.session} + 1;
  if (ev.depart) {
    if (st.placed[ev.session] == 0) return out;
    st.placed[ev.session] = 0;
    out.sent = true;
    out.name = "serve.depart";
    out.start_ns = now_ns();
    const bool ok = f.pipeline.depart(out.request, s.disconnect);
    out.end_ns = now_ns();
    ++(ok ? st.departs_ok : st.malformed);
    return out;
  }
  serve::PlaceRequest req;
  req.id = out.request;
  req.user = s.user;
  req.building = s.building;
  req.pos = s.pos;
  req.when = s.connect;
  req.demand_mbps = s.demand_mbps;
  out.sent = true;
  out.name = "serve.place";
  out.start_ns = now_ns();
  const serve::PlaceResult r = f.pipeline.place(req);
  out.end_ns = now_ns();
  if (!r.placed) {
    ++st.rejected;
  } else if (const wlan::Network& net = f.world.gen.network;
             r.ap >= net.num_aps() ||
             net.controller_of_ap(r.ap) !=
                 net.controller_of_building(s.building)) {
    ++st.malformed;
  } else {
    st.placed[ev.session] = 1;
    ++st.places_ok;
    out.ap = r.ap;
  }
  return out;
}

/// Runs body(t) for t in [0, threads) on that many threads, joins them
/// all, then rethrows the first exception any of them raised.
void run_workers(unsigned threads, const std::function<void(unsigned)>& body) {
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Spins until `due`. Sleeping would add the wake-up latency of an idle
/// core (tens of microseconds to milliseconds in a VM) to every request;
/// the generators leave half the cores free for everything else.
void wait_until(std::int64_t due) {
  while (now_ns() < due) std::this_thread::yield();
}

/// Offers `count` requests at `rate` per second in total, split evenly
/// over the generator threads (each at most its whole stream), each
/// request timed from when it was due.
Rung run_rung(Fresh& f, double rate, std::uint64_t count, bool traced) {
  const auto threads = static_cast<unsigned>(f.streams.size());
  const double interval_ns = 1e9 * threads / rate;
  std::vector<std::vector<double>> lat(threads), lag(threads);
  const std::int64_t t0 = now_ns() + 2'000'000;
  run_workers(threads, [&](unsigned t) {
    Stream& st = f.streams[t];
    const std::uint64_t per_thread =
        std::min<std::uint64_t>(count / threads, st.events.size());
    const OpenLoopSchedule schedule{t0, interval_ns};
    lat[t].reserve(per_thread);
    lag[t].reserve(per_thread);
    SpanRecorder& rec = SpanRecorder::instance();
    std::int64_t previous_end = 0;
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      const std::int64_t due = schedule.due(i);
      wait_until(due);
      const Sent x = send(f, st);
      if (!x.sent) continue;
      const OpenLoopTimes times =
          account_open_loop(due, previous_end, x.start_ns, x.end_ns);
      previous_end = x.end_ns;
      lat[t].push_back(static_cast<double>(times.latency) / 1e3);
      lag[t].push_back(static_cast<double>(times.gen_lag) / 1e3);
      if (traced) {
        Span outer;
        outer.id = rec.next_id();
        outer.request = x.request;
        outer.name = "serve.request";
        outer.start_ns = due;
        outer.end_ns = x.end_ns;
        Span inner;
        inner.id = rec.next_id();
        inner.parent = outer.id;
        inner.request = x.request;
        inner.name = x.name;
        inner.start_ns = x.start_ns;
        inner.end_ns = x.end_ns;
        rec.record(outer);
        rec.record(inner);
      }
    }
  });

  Rung r;
  for (unsigned t = 0; t < threads; ++t) {
    r.latency_us.insert(r.latency_us.end(), lat[t].begin(), lat[t].end());
    r.lag_us.insert(r.lag_us.end(), lag[t].begin(), lag[t].end());
  }
  std::sort(r.latency_us.begin(), r.latency_us.end());
  std::sort(r.lag_us.begin(), r.lag_us.end());
  r.requests = r.latency_us.size();
  return r;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

void run_serve_live(const Options& opt, const World& world, Report& report,
                    std::vector<Span>& spans) {
  const unsigned threads = generator_threads();
  const wlan::Network& net = world.gen.network;
  const trace::Trace& workload = world.gen.workload;
  const std::vector<Stream> start = make_streams(net, workload, threads);
  bool settled = true;

  if (opt.trace) {
    const auto count =
        static_cast<std::uint64_t>(kRefRate * 0.1 * opt.seconds);
    Rung reference;
    {
      Fresh f(world, start);
      reference = run_rung(f, kRefRate, count, false);
      settled = f.settle(report) && settled;
    }
    Fresh f(world, start);
    SpanRecorder::instance().begin();
    const Rung traced = run_rung(f, kRefRate, count, true);
    std::vector<Span> serve_spans = SpanRecorder::instance().end();
    settled = f.settle(report) && settled;

    const auto totals = layer_totals(serve_spans);
    const auto sorted_ns = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? std::vector<double>{} : it->second.sorted_ns;
    };
    std::vector<double> queue_ns;
    const std::vector<std::int64_t> self = self_times(serve_spans);
    for (std::size_t i = 0; i < serve_spans.size(); ++i) {
      if (std::string_view(serve_spans[i].name) == "serve.request") {
        queue_ns.push_back(static_cast<double>(self[i]));
      }
    }
    std::sort(queue_ns.begin(), queue_ns.end());
    const serve::ServeStats stats = f.pipeline.stats();
    report.set("serve.place_ns.p50",
               percentile_sorted(sorted_ns("serve.place"), 50));
    report.set("serve.place_ns.p99",
               percentile_sorted(sorted_ns("serve.place"), 99));
    report.set("serve.depart_ns.p50",
               percentile_sorted(sorted_ns("serve.depart"), 50));
    report.set("serve.depart_ns.p99",
               percentile_sorted(sorted_ns("serve.depart"), 99));
    report.set("serve.queue_wait_us.p99",
               percentile_sorted(queue_ns, 99) / 1e3);
    report.set("serve.gen_lag_us.p99", percentile_sorted(traced.lag_us, 99));
    report.set("serve.fallback_placements",
               static_cast<double>(stats.fallback_placements));
    report.set("serve.rejected",
               static_cast<double>(stats.rejected_no_candidate +
                                   stats.rejected_unknown_user +
                                   stats.rejected_duplicate_id));
    report.set("serve.live_pairs",
               static_cast<double>(f.pipeline.model().updated_pairs()));
    report.detail("serve_p50_us", percentile_sorted(reference.latency_us, 50),
                  "us");
    report.detail("serve_p99_us", percentile_sorted(reference.latency_us, 99),
                  "us");
    report.detail("serve_requests", static_cast<double>(reference.requests),
                  "count");
    report.detail("serve_threads", threads, "count");
    if (mean(reference.latency_us) > 0) {
      report.detail("serve_trace_overhead_pct",
                    100.0 * (mean(traced.latency_us) /
                                 mean(reference.latency_us) -
                             1.0),
                    "%");
    }
    const TailPick tail = tail_percentile(reference.latency_us);
    report.note("serve reference-rate tail: p" + std::to_string(tail.pct) +
                " = " + std::to_string(tail.value) + " us over " +
                std::to_string(reference.requests) + " requests");
    spans.insert(spans.end(), serve_spans.begin(), serve_spans.end());
  }

  // The whole campus once, closed loop, then the output checks of a
  // replay on what was placed.
  std::vector<ApId> aps(workload.size(), kInvalidAp);
  {
    Fresh f(world, start);
    run_workers(threads, [&](unsigned t) {
      Stream& st = f.streams[t];
      while (st.cursor < st.events.size()) {
        const Sent x = send(f, st);
        if (x.ap != kInvalidAp) aps[x.session] = x.ap;
      }
    });
    settled = f.settle(report) && settled && f.pipeline.active_sessions() == 0;
  }
  report.check("serve.accounting_closes", settled);
  const auto unplaced = static_cast<std::uint64_t>(
      std::count(aps.begin(), aps.end(), kInvalidAp));
  const trace::Trace assigned = workload.with_assignments(aps);
  report.check("serve.campus_valid",
               unplaced == 0 && trace_valid(net, assigned));
  const util::SimTime end = util::SimTime::from_days(
      static_cast<std::int64_t>(workload.num_days()));
  const double beta = scored_balance(net, assigned, util::SimTime{}, end);
  const double beta_llf =
      scored_balance(net, world.llf.assigned, util::SimTime{}, end);
  report.detail("serve_balance_pct", 100.0 * beta, "%");
  report.detail("serve_balance_gain_pct", 100.0 * (beta - beta_llf) / beta_llf,
                "%");
}

}  // namespace e2e

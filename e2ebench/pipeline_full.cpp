// pipeline-full: the whole offline pipeline at SJTU size (12,374 users,
// 22 x 15 APs, 24 days) with S3 left out: generate, replay under LLF,
// train, store and reload the model, score the balance, and replay
// under LLF again through the replicated driver while half the
// controllers crash. Trace, runtime, training, model I/O, analysis,
// repl and fault do the work; S3's enumeration does none, so a change
// aimed at it should leave this workload's numbers where they are.

#include <array>
#include <filesystem>
#include <optional>

#include "common.h"
#include "probes.h"
#include "s3/check/validators.h"
#include "s3/core/selector_factory.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/repl/replicated_driver.h"
#include "s3/runtime/replay_driver.h"
#include "s3/social/model_io.h"
#include "s3/util/metrics.h"
#include "s3/util/rng.h"

namespace e2e {

using namespace s3;

namespace {

constexpr std::array<const char*, 6> kSteps = {
    "generate_s", "replay_llf_s", "train_s",
    "model_io_s", "evaluate_s",   "replay_failover_s"};

/// Records every log-snapshot interval of the failover replay.
constexpr std::uint64_t kSnapshotEvery = 512;

/// The fixed inputs of a pass at one campus scale: topology, churn
/// plan and injector.
struct Setup {
  trace::GeneratorConfig cfg;
  wlan::Network net;
  bool plan_valid = false;
  std::optional<fault::FaultInjector> injector;
};

Setup make_setup(const std::string& scale, std::uint64_t seed) {
  const trace::GeneratorConfig cfg = campus_config(scale, seed);
  Setup s{cfg, wlan::make_campus(cfg.layout), false, std::nullopt};
  fault::FaultPlan plan = fault::canned_controller_churn_plan(
      s.net, util::SimTime{},
      util::SimTime::from_days(static_cast<std::int64_t>(s.cfg.num_days)));
  s.plan_valid = check::validate_fault_plan(plan, &s.net).ok();
  s.injector.emplace(std::move(plan), seed);
  return s;
}

/// Bitwise θ agreement on a seeded sample of pairs, plus equal sizes.
bool same_model(const social::SocialIndexModel& a,
                const social::SocialIndexModel& b, std::uint64_t seed) {
  if (a.num_users() != b.num_users() ||
      a.pair_stats().size() != b.pair_stats().size()) {
    return false;
  }
  util::SplitMix64 rng(seed);
  const auto n = static_cast<std::uint64_t>(a.num_users());
  for (int i = 0; i < 4096; ++i) {
    const auto u = static_cast<UserId>(rng.next() % n);
    const auto v = static_cast<UserId>(rng.next() % n);
    if (a.theta(u, v) != b.theta(u, v)) return false;
  }
  return true;
}

struct PassResult {
  std::array<double, kSteps.size()> step_s{};
  std::uint64_t llf_digest = 0;
  std::uint64_t failover_digest = 0;
  double balance = 0.0;
  std::size_t sessions = 0;
  std::size_t pairs = 0;
  std::uintmax_t model_bytes = 0;
  repl::ReplStats repl;
  bool ok_topology = false;
  bool ok_llf = false;
  bool ok_model = false;
  bool ok_failover = false;
  std::vector<double> batch_ns;
  double imbalance = 0.0;
};

PassResult run_pass(const Options& opt, const Setup& setup, Report& report) {
  PassResult out;
  SpanRecorder& rec = SpanRecorder::instance();
  const auto step = [&](std::size_t i, Clock::time_point t0) {
    out.step_s[i] = since(t0);
  };

  Clock::time_point t0 = Clock::now();
  std::optional<trace::GeneratedTrace> gen;
  {
    SpanScope span("trace.generate");
    gen = trace::generate_campus_trace(setup.cfg);
  }
  step(0, t0);
  const wlan::Network& net = gen->network;
  out.sessions = gen->workload.size();
  out.ok_topology = net.num_aps() == setup.net.num_aps() &&
                    net.num_controllers() == setup.net.num_controllers();

  core::SelectorSpec spec;
  spec.llf_metric = core::LoadMetric::kStations;
  spec.net = &net;
  const std::unique_ptr<sim::SelectorFactory> llf =
      core::make_selector_factory("llf", spec);
  BatchLog llf_log;
  const BatchProbeFactory llf_probe(llf.get(), &llf_log);
  BatchLog failover_log;
  const BatchProbeFactory failover_probe(llf.get(), &failover_log);
  runtime::ReplayDriverConfig rc;
  rc.threads = worker_threads();
  t0 = Clock::now();
  std::optional<sim::ReplayResult> collected;
  {
    SpanScope span("runtime.run");
    rec.set_root(span.id());
    collected = runtime::ReplayDriver(net, rc).run(gen->workload, llf_probe);
    rec.set_root(0);
  }
  step(1, t0);
  out.llf_digest = assignment_digest(collected->assigned);
  out.ok_llf = trace_valid(net, collected->assigned) &&
               collected->stats.candidate_violations == 0;
  report.work(collected->stats.num_sessions, unassigned(collected->assigned));

  t0 = Clock::now();
  social::SocialModelConfig cfg;
  std::optional<social::SocialIndexModel> model;
  {
    SpanScope span("social.train");
    model = social::SocialIndexModel::train(collected->assigned, cfg);
  }
  step(2, t0);
  out.pairs = model->pair_stats().size();

  const std::string path = opt.out_dir + "/pipeline-full-seed" +
                           std::to_string(opt.seed) + "-model.bin";
  t0 = Clock::now();
  bool saved = false;
  {
    SpanScope span("social.model_save");
    saved = social::save_model(path, *model, social::ModelFormat::kBinaryV1);
  }
  social::ModelReadResult loaded;
  {
    SpanScope span("social.model_load");
    loaded = social::load_model(path, social::ModelFormat::kBinaryV1);
  }
  step(3, t0);
  std::error_code ec;
  out.model_bytes = std::filesystem::file_size(path, ec);
  std::filesystem::remove(path, ec);
  out.ok_model =
      saved && loaded.model && same_model(*model, *loaded.model, opt.seed);
  model.reset();
  loaded.model.reset();

  t0 = Clock::now();
  const util::SimTime end = util::SimTime::from_days(
      static_cast<std::int64_t>(gen->workload.num_days()));
  out.balance = scored_balance(net, collected->assigned, util::SimTime{}, end);
  step(4, t0);

  repl::ReplicatedDriverConfig frc;
  frc.threads = worker_threads();
  frc.injector = &*setup.injector;
  frc.repl.backups = 1;
  frc.repl.snapshot_every = kSnapshotEvery;
  frc.repl.truncate = true;
  t0 = Clock::now();
  std::optional<repl::ReplicatedReplayResult> failover;
  {
    SpanScope span("repl.run");
    rec.set_root(span.id());
    failover = repl::ReplicatedReplayDriver(net, frc)
                   .run(gen->workload, failover_probe);
    rec.set_root(0);
  }
  step(5, t0);
  const sim::ReplayStats& fs = failover->result.stats;
  out.failover_digest = assignment_digest(failover->result.assigned);
  out.repl = failover->repl;
  const bool converged = std::all_of(
      failover->failovers.begin(), failover->failovers.end(),
      [](const repl::FailoverEvent& ev) { return ev.converged; });
  out.ok_failover = converged && !failover->failovers.empty() &&
                    fs.dropped_sessions == 0 && fs.abandoned_sessions == 0 &&
                    fs.candidate_violations == 0 &&
                    trace_valid(net, failover->result.assigned) &&
                    out.failover_digest == out.llf_digest;
  report.work(fs.num_sessions, unassigned(failover->result.assigned) +
                                   fs.dropped_sessions + fs.abandoned_sessions);
  out.batch_ns = llf_log.sorted_ns();
  const std::vector<double> failover_ns = failover_log.sorted_ns();
  out.batch_ns.insert(out.batch_ns.end(), failover_ns.begin(),
                      failover_ns.end());
  out.imbalance = llf_log.shard_imbalance();
  return out;
}

}  // namespace

void run_pipeline_full(const Options& opt, Report& report) {
  // Set-up builds the SJTU-size topology, churn plan and injector, then
  // warms every step of the pipeline with one pass at the small scale,
  // so lazy initialisation and allocator growth are paid before timing.
  std::vector<double> setup_walls;
  std::optional<Setup> setup;
  std::vector<PassResult> warmups;
  bool plans_valid = true;
  for (int i = 0; i < (opt.trace ? 1 : 3); ++i) {
    const Clock::time_point t0 = Clock::now();
    setup.emplace(make_setup("full", opt.seed));
    const Setup small = make_setup("small", opt.seed);
    warmups.push_back(run_pass(opt, small, report));
    setup_walls.push_back(since(t0));
    plans_valid = plans_valid && setup->plan_valid && small.plan_valid;
  }
  report.check("fault_plan.valid", plans_valid);

  std::vector<PassResult> passes;
  const std::vector<double> walls = repeat_for(
      opt.trace ? 0.0 : opt.seconds, 1,
      [&] { passes.push_back(run_pass(opt, *setup, report)); });

  bool ok_topology = true, ok_llf = true, ok_model = true, ok_failover = true;
  bool identical = true;
  const auto fold = [&](const PassResult& p, const PassResult& reference) {
    ok_topology = ok_topology && p.ok_topology;
    ok_llf = ok_llf && p.ok_llf;
    ok_model = ok_model && p.ok_model;
    ok_failover = ok_failover && p.ok_failover;
    identical = identical && p.llf_digest == reference.llf_digest;
  };
  for (const PassResult& p : warmups) fold(p, warmups.front());
  std::vector<double> batch_ns;
  for (const PassResult& p : passes) {
    fold(p, passes.front());
    batch_ns.insert(batch_ns.end(), p.batch_ns.begin(), p.batch_ns.end());
  }
  std::sort(batch_ns.begin(), batch_ns.end());
  report.check("topology.matches_plan", ok_topology);
  report.check("llf.valid", ok_llf);
  report.check("model_io.roundtrip", ok_model);
  report.check("failover.lossless_converged", ok_failover);
  report.check("passes_identical", identical);

  const PassResult& first = passes.front();
  const double pass_s = median(walls);
  report.set("setup_s", median(setup_walls));
  report.set("throughput_per_s", static_cast<double>(first.sessions) / pass_s);
  report.set("p50_us", percentile_sorted(batch_ns, 50.0) / 1e3);
  report.set("p99_us", percentile_sorted(batch_ns, 99.0) / 1e3);
  report.set("balance_pct", 100.0 * first.balance);
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    std::vector<double> s;
    for (const PassResult& p : passes) s.push_back(p.step_s[i]);
    report.detail(kSteps[i], median(s), "s");
  }
  report.detail("pass_s", pass_s, "s");
  report.note("pass walls (s): " + list(walls));
  report.detail("threads", worker_threads(), "count");
  report.detail("passes", static_cast<double>(passes.size()), "count");
  report.detail("sessions", static_cast<double>(first.sessions), "count");
  report.detail("failovers", static_cast<double>(first.repl.failovers),
                "count");

  if (!opt.trace) return;

  util::metrics().reset();
  SpanRecorder& rec = SpanRecorder::instance();
  rec.begin();
  const Clock::time_point t0 = Clock::now();
  const PassResult traced = run_pass(opt, *setup, report);
  const double traced_s = since(t0);
  const std::vector<Span> spans = rec.end();
  write_spans(opt, spans);
  report.check("traced_matches_untraced",
               traced.llf_digest == first.llf_digest &&
                   traced.failover_digest == first.failover_digest);

  const auto totals = layer_totals(spans);
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const auto place_it = totals.find("core.place_batch");
  const LayerTotals place =
      place_it == totals.end() ? LayerTotals{} : place_it->second;
  const double dispatch = bus("sim.dispatch_ns");
  report.set("core.place_batch_ns.sum", static_cast<double>(place.total_ns));
  report.set("core.place_batch_ns.p50", percentile_sorted(place.sorted_ns, 50));
  report.set("core.place_batch_ns.p99", percentile_sorted(place.sorted_ns, 99));
  report.set("core.batches", static_cast<double>(place.spans));
  report.set("sim.dispatch_ns", dispatch);
  const double agreement =
      dispatch > 0 ? 100.0 * static_cast<double>(place.total_ns) / dispatch : 0;
  report.set("core.place_vs_dispatch_pct", agreement);
  report.check("trace.agrees_with_bus", agreement_ok(agreement));
  report.set("runtime.run_ns", total("runtime.run"));
  report.set("runtime.shard_imbalance", traced.imbalance);
  report.set("trace.generate_ns", total("trace.generate"));
  report.set("trace.sessions", static_cast<double>(traced.sessions));
  report.set("social.train_ns", total("social.train"));
  report.set("social.pairs", static_cast<double>(traced.pairs));
  report.set("social.model_save_ns", total("social.model_save"));
  report.set("social.model_load_ns", total("social.model_load"));
  report.set("social.model_bytes", static_cast<double>(traced.model_bytes));
  report.set("analysis.throughput_series_ns",
             total("analysis.throughput_series"));
  report.set("repl.run_ns", total("repl.run"));
  report.set("repl.log_records", static_cast<double>(traced.repl.log_records));
  report.set("repl.catchup_records",
             static_cast<double>(traced.repl.catchup_records));
  report.set("repl.snapshots", static_cast<double>(traced.repl.snapshots));
  report.set("repl.truncated_records",
             static_cast<double>(traced.repl.truncated_records));
  report.set("trace.spans", static_cast<double>(spans.size()));
  report.set("trace.overhead_pct", 100.0 * (traced_s / pass_s - 1.0));
}

}  // namespace e2e

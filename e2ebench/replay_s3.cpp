// replay-s3: the small campus replayed under S3 exactly as
// `s3lb replay --policy s3` does it. Set-up generates the campus,
// replays it under LLF and trains the model; the measured phase is the
// full S3 replay, repeated for the run's seconds. Almost all of its
// time is S3's distribution enumeration and its θ reads.

#include <filesystem>
#include <optional>

#include "common.h"
#include "probes.h"
#include "s3/core/selector_factory.h"
#include "s3/runtime/replay_driver.h"
#include "s3/social/model_io.h"
#include "s3/trace/binary_io.h"
#include "s3/util/metrics.h"

namespace e2e {

using namespace s3;

namespace {

/// The CLI's answer for the same workload and model, as a digest.
std::optional<std::uint64_t> cli_digest(const Options& opt,
                                        const trace::Trace& workload,
                                        const social::SocialIndexModel& model) {
  const std::string stem = opt.out_dir + "/replay-s3-seed" +
                           std::to_string(opt.seed);
  const std::string in = stem + "-workload.bin";
  const std::string model_path = stem + "-model.bin";
  const std::string out = stem + "-s3.bin";
  std::optional<std::uint64_t> digest;
  if (trace::write_binary_file(in, workload) &&
      social::save_model(model_path, model, social::ModelFormat::kBinaryV1) &&
      run_cli(opt,
              {"replay", "--in", in, "--out", out, "--policy", "s3", "--model",
               model_path, "--threads", std::to_string(worker_threads())},
              stem + "-cli.log") == 0) {
    const trace::BinaryReadResult r = trace::read_binary_file(out);
    if (r.trace) digest = assignment_digest(*r.trace);
  }
  for (const std::string& p : {in, model_path, out}) {
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
  return digest;
}

}  // namespace

void run_replay_s3(const Options& opt, Report& report) {
  std::vector<double> setup_walls;
  std::vector<std::uint64_t> setup_digests;
  std::optional<World> built;
  for (int i = 0; i < (opt.trace ? 1 : 3); ++i) {
    const Clock::time_point t0 = Clock::now();
    built.emplace(build_world("small", opt.seed));
    setup_walls.push_back(since(t0));
    setup_digests.push_back(assignment_digest(built->llf.assigned));
  }
  const World& world = *built;
  const wlan::Network& net = world.gen.network;
  const trace::Trace& workload = world.gen.workload;
  report.check("setup.deterministic",
               std::equal(setup_digests.begin() + 1, setup_digests.end(),
                          setup_digests.begin()));
  report.check("llf.valid", trace_valid(net, world.llf.assigned) &&
                                world.llf.stats.candidate_violations == 0);

  core::SelectorSpec spec;
  spec.llf_metric = core::LoadMetric::kStations;
  spec.net = &net;
  spec.model = &world.model;
  const std::unique_ptr<sim::SelectorFactory> s3 =
      core::make_selector_factory("s3", spec);
  runtime::ReplayDriverConfig rc;
  rc.threads = worker_threads();
  const runtime::ReplayDriver driver(net, rc);

  std::optional<sim::ReplayResult> first;
  std::vector<std::uint64_t> digests;
  std::vector<double> batch_ns;
  const std::vector<double> walls = repeat_for(
      opt.trace ? opt.seconds / 2 : opt.seconds, opt.trace ? 1 : 3, [&] {
        BatchLog log;
        const BatchProbeFactory probe(s3.get(), &log);
        sim::ReplayResult r = driver.run(workload, probe);
        const std::vector<double> ns = log.sorted_ns();
        batch_ns.insert(batch_ns.end(), ns.begin(), ns.end());
        digests.push_back(assignment_digest(r.assigned));
        report.work(r.stats.num_sessions, unassigned(r.assigned));
        if (!first) first = std::move(r);
      });
  std::sort(batch_ns.begin(), batch_ns.end());

  const sim::ReplayResult& result = *first;
  report.check("s3.valid", trace_valid(net, result.assigned) &&
                               result.stats.candidate_violations == 0);
  report.check("s3.passes_identical",
               std::equal(digests.begin() + 1, digests.end(), digests.begin()));
  report.check("s3.matches_cli",
               cli_digest(opt, workload, world.model) == digests.front());

  const util::SimTime end = util::SimTime::from_days(
      static_cast<std::int64_t>(workload.num_days()));
  const double beta_s3 =
      scored_balance(net, result.assigned, util::SimTime{}, end);
  const double beta_llf =
      scored_balance(net, world.llf.assigned, util::SimTime{}, end);
  const double replay_s = median(walls);

  report.set("setup_s", median(setup_walls));
  report.set("throughput_per_s",
             static_cast<double>(workload.size()) / replay_s);
  report.set("p50_us", percentile_sorted(batch_ns, 50.0) / 1e3);
  report.set("p99_us", percentile_sorted(batch_ns, 99.0) / 1e3);
  report.set("balance_pct", 100.0 * beta_s3);
  report.detail("replay_s3_s", replay_s, "s");
  report.detail("balance_gain_pct", 100.0 * (beta_s3 - beta_llf) / beta_llf,
                "%");
  report.detail("threads", worker_threads(), "count");
  report.detail("passes", static_cast<double>(walls.size()), "count");
  report.detail("batches_timed", static_cast<double>(batch_ns.size()), "count");
  report.note("pass walls (s): " + list(walls));
  const TailPick tail = tail_percentile(batch_ns);
  report.note("place_batch tail: p" + std::to_string(tail.pct) + " = " +
              std::to_string(tail.value / 1e3) + " us over " +
              std::to_string(batch_ns.size()) + " batches");

  std::vector<Span> spans;
  if (!opt.trace) {
    run_serve_live(opt, world, report, spans);
    return;
  }

  // Traced pass: the same replay with θ reads timed and spans kept.
  const ThetaProbe theta(&world.model);
  core::SelectorSpec traced_spec = spec;
  traced_spec.model = &theta;
  const std::unique_ptr<sim::SelectorFactory> traced_s3 =
      core::make_selector_factory("s3", traced_spec);
  BatchLog log;
  const BatchProbeFactory probe(traced_s3.get(), &log);
  util::metrics().reset();
  SpanRecorder& rec = SpanRecorder::instance();
  rec.begin();
  const Clock::time_point t0 = Clock::now();
  std::optional<sim::ReplayResult> traced;
  {
    SpanScope run("runtime.run");
    rec.set_root(run.id());
    traced = driver.run(workload, probe);
    rec.set_root(0);
  }
  const double traced_s = since(t0);
  spans = rec.end();
  report.check("traced_matches_untraced",
               assignment_digest(traced->assigned) == digests.front());

  const auto totals = layer_totals(spans);
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals place = get("core.place_batch");
  const LayerTotals th = get("social.theta");
  const double clique = bus("core.s3.clique_cover_ns");
  const double dispatch = bus("sim.dispatch_ns");
  report.set("core.place_batch_ns.sum", static_cast<double>(place.total_ns));
  report.set("core.place_batch_ns.p50", percentile_sorted(place.sorted_ns, 50));
  report.set("core.place_batch_ns.p99", percentile_sorted(place.sorted_ns, 99));
  report.set("core.batches", static_cast<double>(place.spans));
  report.set("core.s3.self_ns", static_cast<double>(place.self_ns) - clique);
  report.set("core.s3.distributions_enumerated",
             bus("core.s3.distributions_enumerated"));
  report.set("core.s3.beam_searches", bus("core.s3.beam_searches"));
  report.set("social.theta_ns", static_cast<double>(th.total_ns));
  report.set("social.theta_row_calls", bus("social.theta_row_calls"));
  report.set("social.theta_evals", bus("social.theta_evals"));
  report.set("social.clique_cover_ns", clique);
  report.set("social.clique_nodes_explored",
             bus("social.clique_nodes_explored"));
  report.set("sim.dispatch_ns", dispatch);
  const double agreement =
      dispatch > 0 ? 100.0 * static_cast<double>(place.total_ns) / dispatch : 0;
  report.set("social.clique_cover_share_pct",
             dispatch > 0 ? 100.0 * clique / dispatch : 0.0);
  report.set("core.place_vs_dispatch_pct", agreement);
  report.check("trace.agrees_with_bus", agreement_ok(agreement));
  report.set("runtime.run_ns",
             static_cast<double>(get("runtime.run").total_ns));
  report.set("runtime.shard_imbalance", log.shard_imbalance());
  report.set("trace.overhead_pct", 100.0 * (traced_s / replay_s - 1.0));
  report.note("theta calls seen by the probe: " + std::to_string(th.calls));
  const double share = dispatch > 0 ? 100.0 * clique / dispatch : 0.0;
  report.note("clique cover is " + std::to_string(share) +
              " % of dispatch; the ROADMAP's ~1.6 % finding " +
              (share >= 0.8 && share <= 3.2 ? "holds" : "does not hold") +
              " (accepted band 0.8-3.2 %)");

  run_serve_live(opt, world, report, spans);
  report.set("trace.spans", static_cast<double>(spans.size()));
  write_spans(opt, spans);
}

}  // namespace e2e

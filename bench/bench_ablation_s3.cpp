// Ablations over S3's design choices (DESIGN.md §5) plus extra
// baselines. Not a paper figure; quantifies what each moving part of
// Algorithm 1 contributes on the same workload:
//
//   * top-30 % filter (vs pure greedy min-cost, vs balance-only)
//   * theta edge threshold
//   * maximum-clique weight tie-break
//   * controller dispatch window (batching)
//   * strongest-RSSI / random / demand-LLF baselines

#include "bench_common.h"
#include "s3/core/online_s3.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

core::PolicyScore run_s3(const trace::GeneratedTrace& world,
                         core::EvaluationConfig eval) {
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);
  core::S3Selector s3(&world.network, &model, eval.s3);
  return core::score_policy(world.network, world.workload, s3, eval);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const trace::GeneratedTrace world = bench::make_world(args);
  const core::EvaluationConfig base_eval = bench::evaluation_config(args);

  util::TextTable table({"variant", "mean_beta", "leave_peak", "ci95"});
  auto add = [&](const std::string& name, const core::PolicyScore& s) {
    table.add_row({name, util::fmt(s.mean), util::fmt(s.leave_peak_mean),
                   util::fmt(s.ci95)});
    std::cerr << name << " -> " << s.mean << "\n";
  };

  // Baselines.
  {
    core::EvaluationConfig eval = base_eval;
    core::LlfSelector count_llf(core::LoadMetric::kStations);
    add("LLF(count) [deployed]",
        core::score_policy(world.network, world.workload, count_llf, eval));
    core::LlfSelector demand_llf(core::LoadMetric::kDemand);
    add("LLF(demand oracle)",
        core::score_policy(world.network, world.workload, demand_llf, eval));
    core::StrongestRssiSelector rssi;
    add("strongest-RSSI",
        core::score_policy(world.network, world.workload, rssi, eval));
    core::RandomSelector rnd(args.seed);
    add("random",
        core::score_policy(world.network, world.workload, rnd, eval));
  }

  // S3 default.
  add("S3 (default)", run_s3(world, base_eval));

  // Top-fraction filter.
  for (double f : {0.1, 1.0}) {
    core::EvaluationConfig eval = base_eval;
    eval.s3.top_fraction = f;
    add("S3 top_fraction=" + util::fmt(f, 1), run_s3(world, eval));
  }

  // Theta threshold.
  for (double th : {0.1, 0.5}) {
    core::EvaluationConfig eval = base_eval;
    eval.s3.theta_threshold = th;
    add("S3 theta_threshold=" + util::fmt(th, 1), run_s3(world, eval));
  }

  // Literal §IV-B cost: C sums theta over all co-located users (the
  // type prior becomes a type-diversity force).
  {
    core::EvaluationConfig eval = base_eval;
    eval.s3.count_weak_ties_in_cost = true;
    add("S3 literal-C (weak ties counted)", run_s3(world, eval));
  }

  // Demand-aware fallback: singletons use demand-LLF instead of the
  // deployed count-LLF. Bigger absolute gains, but they come from
  // demand estimation rather than sociality (see EXPERIMENTS.md).
  {
    core::EvaluationConfig eval = base_eval;
    eval.s3.llf_metric = core::LoadMetric::kDemand;
    add("S3 demand-aware fallback", run_s3(world, eval));
  }

  // Clique weight tie-break off.
  {
    core::EvaluationConfig eval = base_eval;
    eval.s3.clique.weight_tie_break = false;
    add("S3 no-weight-tie-break", run_s3(world, eval));
  }

  // Bandwidth constraint off.
  {
    core::EvaluationConfig eval = base_eval;
    eval.s3.respect_bandwidth = false;
    add("S3 no-bandwidth-constraint", run_s3(world, eval));
  }

  // Online continuous learning (paper §VI future work): trained on
  // only the first week, the live model absorbs the remaining weeks'
  // events during replay.
  {
    core::EvaluationConfig eval = base_eval;
    eval.train_days = 7;  // deliberately starved
    const social::SocialIndexModel starved =
        core::train_from_workload(world.network, world.workload, eval);
    core::EvaluationConfig full = base_eval;  // test days unchanged
    {
      core::S3Selector frozen(&world.network, &starved, full.s3);
      add("S3 frozen, 7d training",
          core::score_policy(world.network, world.workload, frozen, full));
    }
    {
      core::OnlineS3Config ocfg;
      ocfg.s3 = full.s3;
      core::OnlineS3Selector online(&world.network, &starved, ocfg);
      // Replay days 7..21 first so the online model catches up, then
      // score the standard test window.
      const trace::Trace warmup = world.workload.slice(
          util::SimTime::from_days(7), util::SimTime::from_days(21));
      (void)runtime::ReplayDriver(world.network, {.replay = full.replay})
          .run_sequential(warmup, online);
      add("S3 online, 7d training + live",
          core::score_policy(world.network, world.workload, online, full));
    }
  }

  // Dispatch window.
  for (std::int64_t w : {0L, 60L, 300L}) {
    core::EvaluationConfig eval = base_eval;
    eval.replay.dispatch_window_s = w;
    add("S3 window=" + std::to_string(w) + "s", run_s3(world, eval));
  }

  std::cout << "# S3 design-choice ablations (same workload, same split)\n";
  std::cout << table.to_csv();
  bench::maybe_dump_metrics(args);
  return 0;
}

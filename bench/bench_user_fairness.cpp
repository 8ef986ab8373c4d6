// §I's first complaint, quantified: "load imbalance results in
// sub-optimal network throughput and unfair bandwidth allocation among
// users". For each policy we compute, over the test days, the fraction
// of each user's offered traffic that an overloaded AP actually served
// (proportional sharing at capacity) and Jain's fairness index across
// users.
//
// Expected shape: better balance -> fewer overloaded APs -> higher
// served fraction and higher fairness. S3 >= LLF(count) on both.

#include "bench_common.h"
#include "s3/analysis/fairness.h"
#include "s3/util/table.h"

using namespace s3;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const trace::GeneratedTrace world = bench::make_world(args);
  const core::EvaluationConfig eval = bench::evaluation_config(args);

  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);

  const trace::Trace test = world.workload.slice(
      util::SimTime::from_days(eval.train_days),
      util::SimTime::from_days(eval.train_days + eval.test_days));
  const util::SimTime begin = util::SimTime::from_days(eval.train_days);
  const util::SimTime end =
      util::SimTime::from_days(eval.train_days + eval.test_days);

  util::TextTable table({"policy", "served_fraction", "jain_index",
                         "throttled_pct", "served_w_contention"});
  auto run = [&](sim::ApSelector& policy) {
    const sim::ReplayResult r =
        runtime::ReplayDriver(world.network, {.replay = eval.replay})
            .run_sequential(test, policy);
    const analysis::FairnessReport f =
        analysis::evaluate_fairness(world.network, r.assigned, begin, end);
    analysis::FairnessOptions contended;
    contended.contention = wlan::ContentionModel{};
    const analysis::FairnessReport fc = analysis::evaluate_fairness(
        world.network, r.assigned, begin, end, contended);
    table.add_row({std::string(policy.name()),
                   util::fmt(f.mean_served_fraction),
                   util::fmt(f.jain_index),
                   util::fmt(100.0 * f.throttled_slot_fraction, 2),
                   util::fmt(fc.mean_served_fraction)});
  };

  core::LlfSelector count_llf(core::LoadMetric::kStations);
  run(count_llf);
  core::StrongestRssiSelector rssi;
  run(rssi);
  core::S3Selector s3(&world.network, &model, eval.s3);
  run(s3);

  std::cout << "# User service quality over the test days (SI's "
               "throughput/fairness complaint)\n";
  std::cout << "# expected shape: better balance -> higher served fraction "
               "and Jain index; S3 >= LLF >> RSSI\n";
  std::cout << table.to_csv();
  return 0;
}

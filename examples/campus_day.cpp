// A day in the life of one controller domain.
//
// Generates the campus workload, trains the social model on the first
// three weeks, replays a test day under a chosen policy, and prints the
// hour-by-hour story: offered load, stations, balance index, and the
// co-leaving waves the policy had to survive.
//
// Usage: campus_day [policy] [controller] [day]
//   policy      llf | llf-demand | rssi | random | s3   (default s3)
//   controller  domain index                            (default 0)
//   day         test-day index, 0-2                     (default 1)

#include <cstdlib>
#include <iostream>
#include <memory>

#include "s3/analysis/balance.h"
#include "s3/analysis/events.h"
#include "s3/core/evaluation.h"
#include "s3/trace/generator.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

std::unique_ptr<sim::ApSelector> make_policy(
    const std::string& name, const wlan::Network& net,
    const social::SocialIndexModel* model, const core::S3Config& s3cfg) {
  if (name == "llf") {
    return std::make_unique<core::LlfSelector>(core::LoadMetric::kStations);
  }
  if (name == "llf-demand") {
    return std::make_unique<core::LlfSelector>(core::LoadMetric::kDemand);
  }
  if (name == "rssi") return std::make_unique<core::StrongestRssiSelector>();
  if (name == "random") return std::make_unique<core::RandomSelector>(1);
  if (name == "s3") return std::make_unique<core::S3Selector>(&net, model, s3cfg);
  std::cerr << "unknown policy '" << name
            << "' (llf | llf-demand | rssi | random | s3)\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string policy_name = argc > 1 ? argv[1] : "s3";
  const ControllerId controller =
      argc > 2 ? static_cast<ControllerId>(std::atoi(argv[2])) : 0;
  const int test_day = argc > 3 ? std::atoi(argv[3]) : 1;

  trace::GeneratorConfig gen;
  gen.num_users = 2400;
  gen.num_days = 24;
  const trace::GeneratedTrace world = trace::generate_campus_trace(gen);
  S3_REQUIRE(controller < world.network.num_controllers(),
             "controller index out of range");
  S3_REQUIRE(test_day >= 0 && test_day < 3, "test day must be 0..2");

  core::EvaluationConfig eval;
  eval.train_days = 21;
  eval.test_days = 3;
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);

  const auto policy =
      make_policy(policy_name, world.network, &model, eval.s3);
  const trace::Trace test = world.workload.slice(
      util::SimTime::from_days(21), util::SimTime::from_days(24));
  const sim::ReplayResult run =
      runtime::ReplayDriver(world.network, {.replay = eval.replay})
          .run_sequential(test, *policy);

  const std::int64_t day = 21 + test_day;
  const util::SimTime begin = util::SimTime::from_days(day);
  const util::SimTime end = util::SimTime::from_days(day + 1);
  analysis::ThroughputOptions opts;
  opts.slot_s = 3600;
  const analysis::ThroughputSeries series(world.network, run.assigned, begin,
                                          end, opts);

  // Co-leaving waves on this domain, from the assigned trace.
  std::vector<int> leavers_per_hour(24, 0);
  for (const trace::SessionRecord& s : run.assigned.sessions()) {
    if (world.network.controller_of_ap(s.ap) != controller) continue;
    if (s.disconnect < begin || s.disconnect >= end) continue;
    ++leavers_per_hour[s.disconnect.hour_of_day()];
  }

  std::cout << "policy " << policy->name() << ", controller " << controller
            << ", test day " << test_day << " (trace day " << day << ")\n\n";
  util::TextTable table(
      {"hour", "load_mbps", "stations", "leavers", "beta_norm"});
  for (std::size_t h = 0; h < series.num_slots(); ++h) {
    double stations = 0.0;
    for (double u : series.slot_users(controller, h)) stations += u;
    table.add_row({std::to_string(h),
                   util::fmt(series.total_load(controller, h), 1),
                   util::fmt(stations, 1),
                   std::to_string(leavers_per_hour[h]),
                   util::fmt(analysis::normalized_balance_index(
                                 series.slot_load(controller, h)),
                             3)});
  }
  std::cout << table;

  util::RunningStats day_beta;
  for (std::size_t h = 8; h < series.num_slots(); ++h) {
    if (series.total_load(controller, h) < 1.0) continue;
    day_beta.add(analysis::normalized_balance_index(
        series.slot_load(controller, h)));
  }
  std::cout << "\nmean daytime balance index: " << util::fmt(day_beta.mean())
            << "\n";
  std::cout << "batches: " << run.stats.num_batches
            << " (mean size " << util::fmt(run.stats.mean_batch_size, 2)
            << "), forced overloads: " << run.stats.forced_overloads << "\n";
  return 0;
}

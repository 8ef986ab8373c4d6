// Pipeline diagnostics: inspects the synthetic workload, the trained
// social model, and where S3 wins or loses against LLF hour by hour.
// Useful when re-calibrating the generator.

#include <iostream>
#include <map>

#include "s3/analysis/events.h"
#include "s3/core/evaluation.h"
#include "s3/trace/generator.h"
#include "s3/util/cdf.h"
#include "s3/util/table.h"
#include "s3/wlan/radio.h"

using namespace s3;

int main() {
  trace::GeneratorConfig gen;
  gen.seed = 42;
  gen.num_users = 2400;
  gen.num_days = 24;
  const trace::GeneratedTrace data = trace::generate_campus_trace(gen);
  const wlan::Network& net = data.network;

  core::EvaluationConfig eval;
  eval.train_days = 21;
  eval.test_days = 3;

  // --- candidate set sizes ---
  {
    util::RunningStats cs;
    wlan::RadioModel radio;
    std::size_t i = 0;
    for (const trace::SessionRecord& s : data.workload.sessions()) {
      if (++i % 37 != 0) continue;  // sample
      cs.add(static_cast<double>(
          wlan::candidate_aps(net, radio, s.building, s.pos).size()));
    }
    std::cout << "candidate APs per session: mean " << cs.mean() << " min "
              << cs.min() << " max " << cs.max() << "\n";
  }

  // --- train model, inspect theta quality ---
  const social::SocialIndexModel model =
      core::train_from_workload(net, data.workload, eval);

  {
    // Same-group vs cross-group theta.
    util::RunningStats same, cross;
    std::size_t same_strong = 0, same_n = 0, cross_strong = 0, cross_n = 0;
    util::Rng rng(1);
    const std::size_t n_users = data.workload.num_users();
    // same-group pairs from ground truth
    for (const auto& g : data.truth.groups) {
      for (std::size_t a = 0; a < g.members.size(); ++a) {
        for (std::size_t b = a + 1; b < g.members.size(); ++b) {
          const double th = model.theta(g.members[a], g.members[b]);
          same.add(th);
          ++same_n;
          if (th > 0.3) ++same_strong;
        }
      }
    }
    for (std::size_t k = 0; k < 20000; ++k) {
      const UserId u = static_cast<UserId>(rng.index(n_users));
      const UserId v = static_cast<UserId>(rng.index(n_users));
      if (u == v) continue;
      const double th = model.theta(u, v);
      cross.add(th);
      ++cross_n;
      if (th > 0.3) ++cross_strong;
    }
    std::cout << "theta same-group: mean " << same.mean() << ", strong "
              << 100.0 * same_strong / same_n << "% of " << same_n << "\n";
    std::cout << "theta random-pair: mean " << cross.mean() << ", strong "
              << 100.0 * cross_strong / cross_n << "% of " << cross_n << "\n";
    std::cout << "type matrix diag dominance: "
              << model.type_matrix().diagonal_dominance() << "\n";
    for (std::size_t i2 = 0; i2 < model.type_matrix().num_types(); ++i2) {
      for (std::size_t j2 = 0; j2 < model.type_matrix().num_types(); ++j2) {
        std::cout << util::fmt(model.type_matrix().at(i2, j2), 2) << " ";
      }
      std::cout << "\n";
    }
  }

  // --- replay test under both policies, hourly beta ---
  const trace::Trace test = data.workload.slice(
      util::SimTime::from_days(21), util::SimTime::from_days(24));
  core::LlfSelector llf(eval.baseline_metric);
  core::S3Selector s3sel(&net, &model, eval.s3);
  const runtime::ReplayDriver driver(net, {.replay = eval.replay});
  const sim::ReplayResult rl = driver.run_sequential(test, llf);
  const sim::ReplayResult rs = driver.run_sequential(test, s3sel);
  std::cout << "S3 batches: " << rs.stats.num_batches
            << " mean size " << rs.stats.mean_batch_size
            << " max " << rs.stats.max_batch_size
            << " forced overloads " << rs.stats.forced_overloads << "\n";
  const core::S3Stats& st = s3sel.stats();
  std::cout << "S3 paths: " << st.cliques << " cliques ("
            << st.clique_members << " members, largest " << st.largest_clique
            << "), " << st.singles << " singles, " << st.exact_enumerations
            << " exact enumerations, " << st.beam_searches << " beam, "
            << st.bandwidth_fallbacks << " bandwidth fallbacks\n";

  analysis::ThroughputOptions topts;
  topts.slot_s = 3600;
  const util::SimTime b = util::SimTime::from_days(22),
                      e = util::SimTime::from_days(23);
  const analysis::ThroughputSeries sl(net, rl.assigned, b, e, topts);
  const analysis::ThroughputSeries ss(net, rs.assigned, b, e, topts);
  std::cout << "\nhour  load(Mbps)  beta_LLF  beta_S3  (controller 0, test day 2)\n";
  for (std::size_t slot = 0; slot < sl.num_slots(); ++slot) {
    std::cout << slot << "  " << util::fmt(sl.total_load(0, slot), 1) << "  "
              << util::fmt(analysis::normalized_balance_index(
                     sl.slot_load(0, slot)), 3)
              << "  "
              << util::fmt(analysis::normalized_balance_index(
                     ss.slot_load(0, slot)), 3)
              << "\n";
  }

  // --- scored-slot beta distribution per policy ---
  {
    analysis::ThroughputOptions to2;
    to2.slot_s = 600;
    const util::SimTime tb = util::SimTime::from_days(21),
                        te = util::SimTime::from_days(24);
    for (const auto* rr : {&rl, &rs}) {
      const analysis::ThroughputSeries ser(net, rr->assigned, tb, te, to2);
      util::EmpiricalCdf cdf;
      for (ControllerId c = 0; c < net.num_controllers(); ++c) {
        for (std::size_t slot = 0; slot < ser.num_slots(); ++slot) {
          const double hour =
              static_cast<double>(ser.slot_begin(slot).second_of_day()) / 3600.0;
          if (hour < 8.0) continue;
          if (ser.total_load(c, slot) < 5.0) continue;
          cdf.add(analysis::normalized_balance_index(ser.slot_load(c, slot)));
        }
      }
      std::cout << (rr == &rl ? "LLF" : "S3 ") << " slots=" << cdf.size()
                << " q10=" << util::fmt(cdf.quantile(0.1), 2)
                << " q25=" << util::fmt(cdf.quantile(0.25), 2)
                << " q50=" << util::fmt(cdf.quantile(0.5), 2)
                << " q75=" << util::fmt(cdf.quantile(0.75), 2)
                << " q90=" << util::fmt(cdf.quantile(0.9), 2) << "\n";
    }
  }

  // --- group dispersion during meetings ---
  // For each ground-truth group session cluster in the test window,
  // count distinct APs used by members (higher = more dispersed).
  auto dispersion = [&](const trace::Trace& assigned) {
    std::map<std::pair<GroupId, std::int64_t>, std::map<ApId, int>> spread;
    for (const trace::SessionRecord& s : assigned.sessions()) {
      if (s.group == kInvalidGroup) continue;
      spread[{s.group, s.connect.seconds() / 7200}][s.ap]++;
    }
    util::RunningStats disp;
    for (const auto& [key, aps] : spread) {
      int total = 0;
      std::vector<double> counts;
      for (const auto& [ap, n] : aps) {
        total += n;
        counts.push_back(n);
      }
      if (total < 4) continue;
      disp.add(analysis::normalized_balance_index(counts));
    }
    return disp.mean();
  };
  std::cout << "\ngroup-member AP dispersion (balance of member counts):\n";
  std::cout << "  LLF: " << dispersion(rl.assigned)
            << "  S3: " << dispersion(rs.assigned) << "\n";
  return 0;
}

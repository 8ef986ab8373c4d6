// Table I — probability of leaving together between usage types.
//
// Paper shape: diagonal dominance — a user is more likely to co-leave
// with a same-type user (diagonal 0.51-0.66) than with another type
// (off-diagonal 0.17-0.31).

#include "bench_common.h"
#include "s3/analysis/profiles.h"
#include "s3/social/social_index.h"
#include "s3/social/typing.h"
#include "s3/util/table.h"

using namespace s3;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const trace::GeneratedTrace world = bench::make_world(args);
  const core::EvaluationConfig eval = bench::evaluation_config(args);
  const trace::Trace assigned =
      bench::collected_trace(world.network, world.workload, eval);

  const social::PairStore stats = social::extract_pair_stats(assigned, {});
  const apps::ProfileStore profiles = analysis::build_profiles(assigned);
  social::UserTypingConfig tc;
  tc.k = 4;
  tc.seed = args.seed;
  const social::UserTyping typing =
      social::cluster_users(profiles.normalized_profiles(), tc);
  const social::TypeCoLeaveMatrix matrix =
      social::estimate_type_matrix(typing, stats);

  std::cout << "# Table I: P(leave together | encounter) between usage "
               "types\n";
  std::cout << "# paper shape: diagonal dominant (same-type pairs co-leave "
               "more)\n";
  std::vector<std::string> header = {"T"};
  for (std::size_t t = 0; t < matrix.num_types(); ++t) {
    header.push_back("type" + std::to_string(t + 1));
  }
  util::TextTable table(header);
  for (std::size_t i = 0; i < matrix.num_types(); ++i) {
    std::vector<std::string> row = {"type" + std::to_string(i + 1)};
    for (std::size_t j = 0; j < matrix.num_types(); ++j) {
      row.push_back(util::fmt(matrix.at(i, j), 2));
    }
    table.add_row(row);
  }
  std::cout << table.to_csv();
  std::cout << "# measured: diagonal dominance = "
            << util::fmt(matrix.diagonal_dominance(), 3)
            << " (positive reproduces the paper's pattern)\n";
  return 0;
}

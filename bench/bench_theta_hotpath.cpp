// θ hot-path microbench — the PairStore speedup claim, measured.
//
// Trains a model on a generated campus trace, then times the pair-stats
// lookup paths that dominate S3 selection:
//
//   * map_lookup        std::unordered_map<UserPair, Stats> (the old
//                       storage backend, rebuilt here for comparison)
//   * pairstore_lookup  social::PairStore::find (the flat table)
//   * theta_scalar      N separate theta(u, v) virtual calls per row
//   * theta_row         one batched theta_row(u, vs, out) per row
//
// Results go to BENCH_theta.json (ns/lookup, lookups/s, build seconds,
// structure bytes, VmRSS) so CI can archive the numbers and fail the
// build if the flat store ever loses to the map (--min-speedup, default
// 1.0 — the acceptance bar for this repo is 2.0).
//
// Extra flags on top of the common bench set:
//   --quick           small workload + short timing loops (CI smoke)
//   --out FILE        JSON destination (default BENCH_theta.json)
//   --min-speedup X   exit 1 if pairstore lookups/s < X * map lookups/s

#include <algorithm>
#include <chrono>
#include <fstream>
#include <random>
#include <unordered_map>

#include "bench_common.h"
#include "s3/social/social_index.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

/// Keeps `value` observable so timed loops are not dead-code-eliminated.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Resident set size in bytes (VmRSS from /proc/self/status; 0 when
/// the platform does not expose it).
std::size_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmRSS:") {
      std::size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

struct LookupTiming {
  double ns_per_lookup = 0.0;
  double lookups_per_s = 0.0;
};

template <typename Fn>
LookupTiming time_lookups(std::size_t rounds, std::size_t per_round,
                          Fn&& round) {
  // One untimed warm-up round faults the structure into cache.
  round();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) round();
  const double elapsed = seconds_since(t0);
  const double total = static_cast<double>(rounds * per_round);
  LookupTiming t;
  t.ns_per_lookup = elapsed / total * 1e9;
  t.lookups_per_s = total / elapsed;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr util::ArgSpec kExtra[] = {
      {"quick", util::ArgKind::kFlag, "small workload, short loops"},
      {"out", util::ArgKind::kString, "JSON output (BENCH_theta.json)"},
      {"min-speedup", util::ArgKind::kReal,
       "fail if pairstore/map lookup ratio drops below this"},
  };
  const util::ParsedArgs raw = bench::parse_raw_args(argc, argv, kExtra);
  bench::BenchArgs args;
  args.scale = raw.get("scale", "small");
  args.seed = static_cast<std::uint64_t>(raw.num("seed", 42));
  args.threads = static_cast<unsigned>(raw.num("threads", 0));
  args.metrics = raw.has("metrics");
  const bool quick = raw.has("quick");
  const std::string out_path = raw.get("out", "BENCH_theta.json");
  const double min_speedup = raw.real("min-speedup", 0.0);

  trace::GeneratorConfig cfg = bench::generator_config(args);
  core::EvaluationConfig eval = bench::evaluation_config(args);
  if (quick) {
    cfg.num_users = 1200;
    cfg.num_days = 8;
    cfg.layout.num_buildings = 4;
    eval.train_days = 7;
    eval.test_days = 1;
  }
  std::cerr << "generating workload: " << cfg.num_users << " users, "
            << cfg.layout.num_buildings << " buildings, " << cfg.num_days
            << " days (seed " << cfg.seed << ")\n";
  const trace::GeneratedTrace world = trace::generate_campus_trace(cfg);
  const trace::Trace collected =
      bench::collected_trace(world.network, world.workload, eval);
  const auto t_train = std::chrono::steady_clock::now();
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);
  const double train_s = seconds_since(t_train);
  const std::size_t num_pairs = model.pair_stats().size();
  std::cerr << "trained: " << num_pairs << " pairs, "
            << model.typing().num_types << " types ("
            << util::fmt(train_s, 2) << " s)\n";

  // ---- Build-time comparison -----------------------------------------
  const std::vector<social::PairStore::Entry> entries =
      model.pair_stats().sorted_entries();

  const auto t_map = std::chrono::steady_clock::now();
  std::unordered_map<UserPair, social::PairStore::Stats, UserPairHash> map;
  map.reserve(entries.size());
  for (const social::PairStore::Entry& e : entries) map[e.pair] = e.stats;
  const double map_build_s = seconds_since(t_map);

  const auto t_flat = std::chrono::steady_clock::now();
  social::PairStore flat(entries.size());
  for (const social::PairStore::Entry& e : entries) {
    flat.assign(e.pair, e.stats);
  }
  const double flat_build_s = seconds_since(t_flat);

  // ---- Lookup workload: every recorded pair + as many absent pairs ---
  std::mt19937_64 rng(args.seed);
  std::vector<UserPair> queries;
  queries.reserve(entries.size() * 2);
  for (const social::PairStore::Entry& e : entries) queries.push_back(e.pair);
  std::uniform_int_distribution<UserId> pick(
      0, static_cast<UserId>(cfg.num_users - 1));
  while (queries.size() < entries.size() * 2) {
    const UserId a = pick(rng);
    const UserId b = pick(rng);
    if (a == b) continue;
    const UserPair p(a, b);
    if (map.find(p) == map.end()) queries.push_back(p);
  }
  std::shuffle(queries.begin(), queries.end(), rng);

  const std::size_t target_lookups = quick ? 2'000'000 : 20'000'000;
  const std::size_t rounds =
      std::max<std::size_t>(1, target_lookups / queries.size());

  const LookupTiming map_t =
      time_lookups(rounds, queries.size(), [&]() {
        std::uint64_t sum = 0;
        for (const UserPair& p : queries) {
          const auto it = map.find(p);
          if (it != map.end()) sum += it->second.encounters;
        }
        do_not_optimize(sum);
      });
  const LookupTiming flat_t =
      time_lookups(rounds, queries.size(), [&]() {
        std::uint64_t sum = 0;
        for (const UserPair& p : queries) {
          if (const social::PairStore::Stats* s = flat.find(p)) {
            sum += s->encounters;
          }
        }
        do_not_optimize(sum);
      });

  // ---- θ row kernel: N scalar virtual calls vs one batched call ------
  const std::size_t row_len = std::min<std::size_t>(256, cfg.num_users - 1);
  const std::size_t num_rows = quick ? 2000 : 20000;
  std::vector<UserId> row_users(row_len);
  std::vector<double> row_out(row_len);
  std::vector<UserId> row_sources(num_rows);
  for (UserId& u : row_sources) u = pick(rng);
  for (UserId& v : row_users) v = pick(rng);
  const social::ThetaProvider& provider = model;

  const LookupTiming scalar_t =
      time_lookups(1, num_rows * row_len, [&]() {
        double sum = 0.0;
        for (const UserId u : row_sources) {
          for (std::size_t i = 0; i < row_len; ++i) {
            sum += provider.theta(u, row_users[i]);
          }
        }
        do_not_optimize(sum);
      });
  const LookupTiming row_t =
      time_lookups(1, num_rows * row_len, [&]() {
        double sum = 0.0;
        for (const UserId u : row_sources) {
          provider.theta_row(u, row_users, row_out);
          for (const double th : row_out) sum += th;
        }
        do_not_optimize(sum);
      });

  // Bit-identity spot check: the batched kernel must agree exactly.
  for (const UserId u : row_sources) {
    provider.theta_row(u, row_users, row_out);
    for (std::size_t i = 0; i < row_len; ++i) {
      if (row_out[i] != provider.theta(u, row_users[i])) {
        std::cerr << "theta_row mismatch at u=" << u << " v=" << row_users[i]
                  << "\n";
        return 1;
      }
    }
  }

  const double lookup_speedup =
      map_t.lookups_per_s > 0 ? flat_t.lookups_per_s / map_t.lookups_per_s
                              : 0.0;
  const double row_speedup =
      row_t.lookups_per_s > 0 && scalar_t.lookups_per_s > 0
          ? row_t.lookups_per_s / scalar_t.lookups_per_s
          : 0.0;
  const std::size_t flat_bytes = flat.capacity() * 24;  // 8B key + 12B
                                                        // stats, padded
  // Node-based estimate: bucket array + one heap node per entry
  // (key + stats + next pointer + allocator overhead).
  const std::size_t map_bytes_estimate =
      map.bucket_count() * sizeof(void*) + map.size() * 48;

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"theta_hotpath\",\n";
  bench::write_provenance(json);
  json << "  \"scale\": \"" << args.scale << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"num_users\": " << cfg.num_users << ",\n"
       << "  \"num_pairs\": " << num_pairs << ",\n"
       << "  \"num_queries\": " << queries.size() << ",\n"
       << "  \"train_seconds\": " << util::fmt(train_s, 4) << ",\n"
       << "  \"map_build_seconds\": " << util::fmt(map_build_s, 6) << ",\n"
       << "  \"pairstore_build_seconds\": " << util::fmt(flat_build_s, 6)
       << ",\n"
       << "  \"map_ns_per_lookup\": " << util::fmt(map_t.ns_per_lookup, 2)
       << ",\n"
       << "  \"map_lookups_per_s\": " << util::fmt(map_t.lookups_per_s, 0)
       << ",\n"
       << "  \"pairstore_ns_per_lookup\": "
       << util::fmt(flat_t.ns_per_lookup, 2) << ",\n"
       << "  \"pairstore_lookups_per_s\": "
       << util::fmt(flat_t.lookups_per_s, 0) << ",\n"
       << "  \"lookup_speedup\": " << util::fmt(lookup_speedup, 3) << ",\n"
       << "  \"theta_scalar_ns\": " << util::fmt(scalar_t.ns_per_lookup, 2)
       << ",\n"
       << "  \"theta_row_ns\": " << util::fmt(row_t.ns_per_lookup, 2) << ",\n"
       << "  \"theta_row_speedup\": " << util::fmt(row_speedup, 3) << ",\n"
       << "  \"pairstore_bytes\": " << flat_bytes << ",\n"
       << "  \"map_bytes_estimate\": " << map_bytes_estimate << ",\n"
       << "  \"rss_bytes\": " << resident_bytes() << "\n"
       << "}\n";
  std::cout << "map:       " << util::fmt(map_t.ns_per_lookup, 2)
            << " ns/lookup (" << util::fmt(map_t.lookups_per_s / 1e6, 1)
            << " M/s)\n"
            << "pairstore: " << util::fmt(flat_t.ns_per_lookup, 2)
            << " ns/lookup (" << util::fmt(flat_t.lookups_per_s / 1e6, 1)
            << " M/s)  speedup " << util::fmt(lookup_speedup, 2) << "x\n"
            << "theta:     scalar " << util::fmt(scalar_t.ns_per_lookup, 2)
            << " ns  row " << util::fmt(row_t.ns_per_lookup, 2)
            << " ns  speedup " << util::fmt(row_speedup, 2) << "x\n"
            << "wrote " << out_path << "\n";
  bench::maybe_dump_metrics(args);

  if (min_speedup > 0.0 && lookup_speedup < min_speedup) {
    std::cerr << "FAIL: pairstore speedup " << util::fmt(lookup_speedup, 3)
              << " < required " << util::fmt(min_speedup, 3) << "\n";
    return 1;
  }
  return 0;
}

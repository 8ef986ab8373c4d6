// Shared scaffolding for the figure/table benches.
//
// Every bench binary accepts:
//   --scale=small|medium|full   workload size (default small: 8 buildings,
//                               2400 users; full: the SJTU deployment's
//                               22 buildings / ~12.4k users)
//   --seed=N                    generator seed (default 42)
//   --threads=N                 replay worker threads (default 0 = all
//                               cores; results are identical for every
//                               value, only wall clock changes)
//   --metrics                   dump the instrumentation bus to stderr
//                               before exit (via bench::maybe_dump_metrics)
//
// Unknown flags are an error (usage + exit 2) — a typoed "--thread=4"
// silently running single-threaded would invalidate a measurement.
//
// Benches print labelled CSV-ish series to stdout — the artifact a
// plotting script consumes — with '#' comment lines describing the
// paper-shape the series should reproduce.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "s3/core/evaluation.h"
#include "s3/trace/generator.h"
#include "s3/util/argspec.h"
#include "s3/util/metrics.h"

// Set per target by bench/CMakeLists.txt.
#ifndef S3LB_BUILD_TYPE
#define S3LB_BUILD_TYPE "unknown"
#endif

namespace s3::bench {

struct BenchArgs {
  std::string scale = "small";
  std::uint64_t seed = 42;
  unsigned threads = 0;  ///< replay workers; 0 = hardware_concurrency
  bool metrics = false;  ///< dump instrumentation counters on exit
};

inline void print_usage(std::ostream& out) {
  out << "usage: bench [--scale=small|medium|full] [--seed=N] "
         "[--threads=N] [--metrics]\n";
}

/// Flag table shared by every bench binary; extend with `extra` specs
/// for bench-specific flags (the caller reads them off the returned
/// ParsedArgs).
inline util::ParsedArgs parse_raw_args(
    int argc, char** argv, std::span<const util::ArgSpec> extra = {}) {
  static constexpr util::ArgSpec kCommon[] = {
      {"scale", util::ArgKind::kString, "small|medium|full"},
      {"seed", util::ArgKind::kInt, "generator seed"},
      {"threads", util::ArgKind::kInt, "replay workers (0 = all cores)"},
      {"metrics", util::ArgKind::kFlag, "dump instrumentation bus"},
  };
  std::vector<util::ArgSpec> specs(std::begin(kCommon), std::end(kCommon));
  specs.insert(specs.end(), extra.begin(), extra.end());
  const util::ArgParseResult parsed =
      util::parse_args(specs, argc, argv, 1);
  if (parsed.want_help) {
    print_usage(std::cout);
    std::exit(0);
  }
  if (!parsed.ok()) {
    std::cerr << parsed.error << "\n";
    print_usage(std::cerr);
    std::exit(2);
  }
  return parsed.args;
}

inline BenchArgs parse_args(int argc, char** argv) {
  const util::ParsedArgs raw = parse_raw_args(argc, argv);
  BenchArgs args;
  args.scale = raw.get("scale", args.scale);
  if (args.scale != "small" && args.scale != "medium" &&
      args.scale != "full") {
    std::cerr << "unknown scale: " << args.scale << "\n";
    print_usage(std::cerr);
    std::exit(2);
  }
  args.seed = static_cast<std::uint64_t>(
      raw.num("seed", static_cast<long>(args.seed)));
  args.threads = static_cast<unsigned>(
      raw.num("threads", static_cast<long>(args.threads)));
  args.metrics = raw.has("metrics");
  return args;
}

/// Generator configuration per scale. Training span (21 d) + test span
/// (3 d) mirror the paper's Jul 4-24 / Jul 25-27 split.
inline trace::GeneratorConfig generator_config(const BenchArgs& args) {
  trace::GeneratorConfig cfg;
  cfg.seed = args.seed;
  cfg.num_days = 24;
  if (args.scale == "full") {
    cfg.num_users = 12374;
    cfg.layout.num_buildings = 22;
    cfg.layout.aps_per_building = 15;
    cfg.rate_scale = 0.35;  // constant offered load per AP vs small scale
  } else if (args.scale == "medium") {
    cfg.num_users = 4800;
    cfg.layout.num_buildings = 10;
    cfg.layout.aps_per_building = 12;
    cfg.rate_scale = 0.6;
  } else {
    cfg.num_users = 2400;
    cfg.layout.num_buildings = 8;
    cfg.layout.aps_per_building = 12;
  }
  return cfg;
}

inline core::EvaluationConfig evaluation_config(const BenchArgs& args) {
  core::EvaluationConfig eval;
  eval.train_days = 21;
  eval.test_days = 3;
  eval.threads = args.threads;
  return eval;
}

inline trace::GeneratedTrace make_world(const BenchArgs& args) {
  const trace::GeneratorConfig cfg = generator_config(args);
  std::cerr << "generating workload: " << cfg.num_users << " users, "
            << cfg.layout.num_buildings << " buildings, " << cfg.num_days
            << " days (seed " << cfg.seed << ")\n";
  return trace::generate_campus_trace(cfg);
}

/// The "collected trace": the operator's LLF-controller logs, replayed
/// by the sharded driver (eval.threads workers).
inline trace::Trace collected_trace(const wlan::Network& net,
                                    const trace::Trace& workload,
                                    const core::EvaluationConfig& eval) {
  const core::LlfFactory llf(eval.baseline_metric);
  runtime::ReplayDriverConfig rc;
  rc.replay = eval.replay;
  rc.threads = eval.threads;
  return runtime::ReplayDriver(net, rc).run(workload, llf).assigned;
}

/// Writes the `compiler`, `build_type` and `hardware_concurrency`
/// members of a BENCH_*.json object (two-space indent, trailing comma),
/// so a committed result says which toolchain and host produced it.
inline void write_provenance(std::ostream& json) {
  json << "  \"compiler\": \"" << __VERSION__ << "\",\n"
       << "  \"build_type\": \"" << S3LB_BUILD_TYPE << "\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n";
}

/// Call at the end of main: dumps the instrumentation bus to stderr
/// when --metrics was given.
inline void maybe_dump_metrics(const BenchArgs& args) {
  if (!args.metrics) return;
  std::cerr << "# instrumentation bus\n";
  util::metrics().dump(std::cerr);
}

}  // namespace s3::bench

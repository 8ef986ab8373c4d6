// End-to-end benchmark of s3lb. One run measures one workload and
// prints, as its last stdout line, a JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ones with --trace 1. A human-readable table
// goes to stderr and the full record (environment, every metric, the
// output checks) to <out-dir>/result-*.json.
//
// usage: e2ebench --workload replay-s3|pipeline-full
//                 --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--cli PATH] [--commit SHA]

#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

namespace {

int usage(const std::string& error) {
  std::cerr << "e2ebench: " << error
            << "\nusage: e2ebench --workload replay-s3|pipeline-full"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR] [--cli PATH]"
               " [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace must be 0 or 1");
        }
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else if (flag == "--cli") {
        opt.cli = value;
      } else if (flag == "--commit") {
        opt.commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  const std::string refusal = e2e::build_refusal();
  if (!refusal.empty()) {
    std::cerr << "e2ebench: refusing to report numbers: " << refusal << "\n";
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::cerr << "e2ebench: cannot create " << opt.out_dir << "\n";
    return 1;
  }

  e2e::Report report;
  try {
    if (opt.workload == "replay-s3") {
      if (opt.cli.empty()) return usage("replay-s3 needs --cli");
      e2e::run_replay_s3(opt, report);
    } else if (opt.workload == "pipeline-full") {
      e2e::run_pipeline_full(opt, report);
    } else {
      return usage("unknown workload \"" + opt.workload + "\"");
    }
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  report.set("peak_rss_mb", e2e::peak_rss_mb());
  report.set("ok_pct", report.ok_pct());

  const std::vector<e2e::MetricDef>& defs =
      opt.trace ? e2e::kPerLayer : e2e::kEndToEnd;
  std::string metrics;
  std::string error;
  if (!report.metrics_json(defs, !opt.trace, metrics, error)) {
    std::cerr << "e2ebench: " << error << "\n";
    return 1;
  }
  report.print(opt, defs);
  const std::string path = opt.out_dir + "/result-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) +
                           (opt.trace ? "-traced" : "") + ".json";
  if (!report.write_file(path, opt, defs)) {
    std::cerr << "e2ebench: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted()
            << ", \"failed\": " << report.failed()
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return report.correct() ? 0 : 1;
}

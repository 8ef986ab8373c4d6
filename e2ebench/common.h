// Shared pieces of the three workloads: options, the report they fill,
// the metric tables BENCHMARK.json mirrors, and the helpers every
// workload uses (campus set-up, digests, balance scoring, the CLI
// cross-check, bus reads and span totals).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "s3/social/social_index.h"
#include "s3/sim/replay.h"
#include "s3/trace/generator.h"
#include "s3/util/sim_time.h"
#include "s3/wlan/network.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string cli;  ///< s3lb binary for the CLI cross-check
  std::string commit = "unknown";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off.
/// BENCHMARK.json lists the same names in the same order.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, reported by every workload with tracing on; a
/// layer the workload does not exercise reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// What one run measured and checked.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// A metric named as in the benchmark's doc, printed and written to
  /// the results file but not part of the JSON summary line.
  void detail(const std::string& name, double value, const std::string& unit) {
    details_.push_back({name, value, unit});
  }
  /// Records an output check; a failed one counts as one failed
  /// operation of the run.
  void check(const std::string& name, bool ok) {
    checks_.emplace_back(name, ok);
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records `attempted` operations of the workload of which `failed`
  /// failed (unassigned, dropped, abandoned or rejected).
  void work(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const;
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double ok_pct() const;

  /// The summary line's metrics object for `defs`; false (with the
  /// missing name in `error`) when the workload left one unset and
  /// `required`.
  bool metrics_json(const std::vector<MetricDef>& defs, bool required,
                    std::string& json, std::string& error) const;
  /// Human-readable table on stderr.
  void print(const Options& opt, const std::vector<MetricDef>& defs) const;
  /// Full record: environment, every metric, details and checks.
  bool write_file(const std::string& path, const Options& opt,
                  const std::vector<MetricDef>& defs) const;

 private:
  struct Detail {
    std::string name;
    double value;
    std::string unit;
  };
  std::map<std::string, double> values_;
  std::vector<Detail> details_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ----------------------------------------------------------- environment

unsigned nproc();
/// Load-generator and replay-worker threads: min(4, nproc).
unsigned worker_threads();
double peak_rss_mb();
/// Empty when this build may report numbers, else why it may not.
std::string build_refusal();
std::string environment_json(const Options& opt);

// ---------------------------------------------------------------- campus

/// The small campus of `s3lb replay --policy s3`'s documented pipeline
/// (2,400 users, 8 x 12 APs, 24 days) or the SJTU-size one ("full").
s3::trace::GeneratorConfig campus_config(const std::string& scale,
                                         std::uint64_t seed);

/// A generated campus, its LLF-collected trace and the model trained on
/// it, built exactly as `s3lb generate | replay --policy llf | train`.
struct World {
  s3::trace::GeneratedTrace gen;
  s3::sim::ReplayResult llf;
  s3::social::SocialIndexModel model;
};
World build_world(const std::string& scale, std::uint64_t seed);

/// Order-independent digest of which AP serves each session.
std::uint64_t assignment_digest(const s3::trace::Trace& t);

/// Mean normalized Chiu–Jain index β′ over the daytime slots of
/// [begin, end) whose domain load is at least 5 Mbit/s; unassigned
/// sessions serve no traffic and are left out.
double scored_balance(const s3::wlan::Network& net,
                      const s3::trace::Trace& assigned, s3::util::SimTime begin,
                      s3::util::SimTime end);

/// Sessions a replay left without an AP.
std::uint64_t unassigned(const s3::trace::Trace& t);

/// validate_trace + validate_load_state on an assigned trace.
bool trace_valid(const s3::wlan::Network& net, const s3::trace::Trace& t);

/// Runs the s3lb CLI with `args`, its output going to `log_path`;
/// returns its exit status (-1 when it could not be started).
int run_cli(const Options& opt, const std::vector<std::string>& args,
            const std::string& log_path);

/// Value of a bus instrument: a counter's count, a timer's or a
/// histogram's total; 0 when absent.
double bus(const std::string& name);

/// Whether Σ place_batch timed from outside, as a percentage of the
/// bus's sim.dispatch_ns (which encloses every place_batch), agrees
/// within a few percent.
inline bool agreement_ok(double place_vs_dispatch_pct) {
  return place_vs_dispatch_pct >= 95.0 && place_vs_dispatch_pct <= 101.0;
}

/// Span totals by name.
struct LayerTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
  std::vector<double> sorted_ns;
};
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

/// Writes spans to `<out_dir>/spans-<workload>.csv` (the latest traced
/// run of each workload is kept).
void write_spans(const Options& opt, const std::vector<Span>& spans);

/// "a b c" with each value to 4 significant digits.
std::string list(const std::vector<double>& values);

/// Seconds since `t0`.
double since(Clock::time_point t0);

/// Runs `pass` until `seconds` have passed and at least `min_passes`
/// ran; returns each pass's wall seconds.
template <class F>
std::vector<double> repeat_for(double seconds, int min_passes, F&& pass) {
  std::vector<double> walls;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(walls.size()) < min_passes || since(t0) < seconds) {
    const Clock::time_point p0 = Clock::now();
    pass();
    walls.push_back(since(p0));
  }
  return walls;
}

// --------------------------------------------------------------- workloads

void run_replay_s3(const Options& opt, Report& report);
void run_pipeline_full(const Options& opt, Report& report);
/// The serve-live pass of replay-s3 over `world`: checks every run, and
/// in a traced run the serve.* layer metrics, appending its spans.
void run_serve_live(const Options& opt, const World& world, Report& report,
                    std::vector<Span>& spans);

}  // namespace e2e

#include "common.h"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench_common.h"
#include "s3/analysis/balance.h"
#include "s3/check/validators.h"
#include "s3/core/selector_factory.h"
#include "s3/runtime/replay_driver.h"

extern char** environ;

namespace e2e {

using namespace s3;

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"balance_pct", "%"},
    {"peak_rss_mb", "MB"},
    {"ok_pct", "%"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.place_batch_ns.sum", "ns"},
    {"core.place_batch_ns.p50", "ns"},
    {"core.place_batch_ns.p99", "ns"},
    {"core.batches", "count"},
    {"core.s3.self_ns", "ns"},
    {"core.s3.distributions_enumerated", "count"},
    {"core.s3.beam_searches", "count"},
    {"social.theta_ns", "ns"},
    {"social.theta_row_calls", "count"},
    {"social.theta_evals", "count"},
    {"social.clique_cover_ns", "ns"},
    {"social.clique_nodes_explored", "count"},
    {"social.clique_cover_share_pct", "%"},
    {"sim.dispatch_ns", "ns"},
    {"core.place_vs_dispatch_pct", "%"},
    {"runtime.run_ns", "ns"},
    {"runtime.shard_imbalance", "ratio"},
    {"trace.generate_ns", "ns"},
    {"trace.sessions", "count"},
    {"social.train_ns", "ns"},
    {"social.pairs", "count"},
    {"social.model_save_ns", "ns"},
    {"social.model_load_ns", "ns"},
    {"social.model_bytes", "bytes"},
    {"analysis.throughput_series_ns", "ns"},
    {"repl.run_ns", "ns"},
    {"repl.log_records", "count"},
    {"repl.catchup_records", "count"},
    {"repl.snapshots", "count"},
    {"repl.truncated_records", "count"},
    {"serve.place_ns.p50", "ns"},
    {"serve.place_ns.p99", "ns"},
    {"serve.depart_ns.p50", "ns"},
    {"serve.depart_ns.p99", "ns"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.gen_lag_us.p99", "us"},
    {"serve.fallback_placements", "count"},
    {"serve.rejected", "count"},
    {"serve.live_pairs", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

const char* build_type() {
#ifdef E2E_BUILD_TYPE
  return E2E_BUILD_TYPE;
#else
  return "unknown";
#endif
}

}  // namespace

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

double Report::ok_pct() const {
  return attempted_ > 0 ? 100.0 * static_cast<double>(attempted_ - failed_) /
                              static_cast<double>(attempted_)
                        : 0.0;
}

bool Report::metrics_json(const std::vector<MetricDef>& defs, bool required,
                          std::string& json, std::string& error) const {
  json = "{";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end() && required) {
      error = std::string("metric not measured: ") + d.name;
      return false;
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    if (!first) json += ", ";
    first = false;
    json += quoted(d.name) + ": {\"value\": " + number(v) +
            ", \"unit\": " + quoted(d.unit) + "}";
  }
  json += "}";
  return true;
}

void Report::print(const Options& opt,
                   const std::vector<MetricDef>& defs) const {
  std::ostream& out = std::cerr;
  out << "== " << opt.workload << " seed " << opt.seed
      << (opt.trace ? " (traced)" : "") << " ==\n"
      << "  environment: " << environment_json(opt) << '\n';
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    out << "  " << d.name << " = "
        << (it == values_.end() ? std::string("-") : number(it->second)) << ' '
        << d.unit << '\n';
  }
  for (const Detail& d : details_) {
    out << "  " << d.name << " = " << number(d.value) << ' ' << d.unit << '\n';
  }
  const double failed_share =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0;
  out << "  failed_share = " << number(failed_share) << " (" << failed_
      << " of " << attempted_ << ")\n";
  for (const auto& [name, ok] : checks_) {
    out << "  check " << name << ": " << (ok ? "pass" : "FAIL") << '\n';
  }
  for (const std::string& n : notes_) out << "  " << n << '\n';
}

bool Report::write_file(const std::string& path, const Options& opt,
                        const std::vector<MetricDef>& defs) const {
  std::ofstream out(path);
  if (!out) return false;
  std::string metrics;
  std::string error;
  metrics_json(defs, false, metrics, error);
  out << "{\n  \"environment\": " << environment_json(opt)
      << ",\n  \"metrics\": " << metrics << ",\n  \"details\": {";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    out << (i ? ", " : "") << quoted(details_[i].name)
        << ": {\"value\": " << number(details_[i].value)
        << ", \"unit\": " << quoted(details_[i].unit) << "}";
  }
  out << "},\n  \"checks\": {";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    out << (i ? ", " : "") << quoted(checks_[i].first) << ": "
        << (checks_[i].second ? "true" : "false");
  }
  out << "},\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
      << ",\n  \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ", " : "") << quoted(notes_[i]);
  }
  out << "]\n}\n";
  return static_cast<bool>(out);
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

unsigned worker_threads() { return std::min(4u, nproc()); }

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string build_refusal() {
#if !defined(NDEBUG)
  return "assertions are enabled (Debug build)";
#elif !defined(__OPTIMIZE__)
  return "the build is not optimized";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(E2E_SANITIZED)
  return "the build is instrumented by a sanitizer";
#else
  const std::string type = build_type();
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type " + type + " is neither Release nor RelWithDebInfo";
  }
  return "";
#endif
}

std::string environment_json(const Options& opt) {
  std::ostringstream o;
  o << "{\"workload\": " << quoted(opt.workload) << ", \"seed\": " << opt.seed
    << ", \"seconds\": " << number(opt.seconds)
    << ", \"trace\": " << (opt.trace ? "true" : "false")
    << ", \"compiler\": " << quoted(std::string("g++ ") + __VERSION__)
    << ", \"build_type\": " << quoted(build_type())
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"nproc\": " << nproc() << ", \"max_threads\": " << worker_threads()
    << ", \"commit\": " << quoted(opt.commit) << "}";
  return o.str();
}

trace::GeneratorConfig campus_config(const std::string& scale,
                                     std::uint64_t seed) {
  bench::BenchArgs args;
  args.scale = scale;
  args.seed = seed;
  return bench::generator_config(args);
}

World build_world(const std::string& scale, std::uint64_t seed) {
  trace::GeneratedTrace gen =
      trace::generate_campus_trace(campus_config(scale, seed));
  core::SelectorSpec spec;
  spec.llf_metric = core::LoadMetric::kStations;
  spec.net = &gen.network;
  const std::unique_ptr<sim::SelectorFactory> llf =
      core::make_selector_factory("llf", spec);
  runtime::ReplayDriverConfig rc;
  rc.threads = worker_threads();
  sim::ReplayResult collected =
      runtime::ReplayDriver(gen.network, rc).run(gen.workload, *llf);
  social::SocialModelConfig cfg;
  cfg.alpha = 0.3;
  cfg.events.co_leave_window = util::SimTime::from_minutes(5);
  cfg.history_days = 0;
  social::SocialIndexModel model =
      social::SocialIndexModel::train(collected.assigned, cfg);
  return World{std::move(gen), std::move(collected), std::move(model)};
}

std::uint64_t assignment_digest(const trace::Trace& t) {
  std::vector<std::tuple<std::int64_t, std::int64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t>>
      rows;
  rows.reserve(t.size());
  for (const trace::SessionRecord& s : t.sessions()) {
    rows.emplace_back(s.connect.seconds(), s.disconnect.seconds(), s.user,
                      s.building, s.ap);
  }
  std::sort(rows.begin(), rows.end());
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [c, d, u, b, ap] : rows) {
    mix(static_cast<std::uint64_t>(c));
    mix(static_cast<std::uint64_t>(d));
    mix(u);
    mix(b);
    mix(ap);
  }
  return h;
}

double scored_balance(const wlan::Network& net, const trace::Trace& assigned,
                      util::SimTime begin, util::SimTime end) {
  std::vector<trace::SessionRecord> served;
  served.reserve(assigned.size());
  for (const trace::SessionRecord& s : assigned.sessions()) {
    if (s.assigned()) served.push_back(s);
  }
  const trace::Trace survivors(assigned.num_users(), assigned.num_days(),
                               std::move(served));
  SpanScope span("analysis.throughput_series");
  const analysis::ThroughputSeries series(net, survivors, begin, end);
  double sum = 0.0;
  std::size_t count = 0;
  for (ControllerId c = 0; c < net.num_controllers(); ++c) {
    for (std::size_t slot = 0; slot < series.num_slots(); ++slot) {
      const double hour =
          static_cast<double>(series.slot_begin(slot).second_of_day()) / 3600.0;
      if (hour < 8.0) continue;
      if (series.total_load(c, slot) < 5.0) continue;
      sum += analysis::normalized_balance_index(series.slot_load(c, slot));
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

std::uint64_t unassigned(const trace::Trace& t) {
  return static_cast<std::uint64_t>(std::count_if(
      t.sessions().begin(), t.sessions().end(),
      [](const trace::SessionRecord& s) { return !s.assigned(); }));
}

bool trace_valid(const wlan::Network& net, const trace::Trace& t) {
  return check::validate_trace(t, &net).ok() &&
         check::validate_load_state(net, t).ok();
}

int run_cli(const Options& opt, const std::vector<std::string>& args,
            const std::string& log_path) {
  std::vector<std::string> argv_s;
  argv_s.push_back(opt.cli);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, opt.cli.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double bus(const std::string& name) {
  for (const util::MetricSample& s : util::metrics().snapshot()) {
    if (s.name != name) continue;
    return static_cast<double>(s.kind == util::MetricKind::kCounter ? s.count
                                                                    : s.total);
  }
  return 0.0;
}

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
    ++t.spans;
    t.calls += spans[i].calls;
    t.sorted_ns.push_back(static_cast<double>(spans[i].duration_ns()));
  }
  for (auto& [name, t] : out) std::sort(t.sorted_ns.begin(), t.sorted_ns.end());
  return out;
}

void write_spans(const Options& opt, const std::vector<Span>& spans) {
  std::ofstream out(opt.out_dir + "/spans-" + opt.workload + ".csv");
  write_spans_csv(out, spans);
}

std::string list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace e2e

// Measurement helpers of the end-to-end benchmark: sample statistics,
// the in-memory span recorder and its self-time reduction, and the
// open-loop due-time accounting of serve-live. Header-only so the
// self-test links nothing but this file.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2e {

// ---------------------------------------------------------------- stats

/// Nearest rank of the p-th percentile (0 < p <= 100) of n samples,
/// ceil(p/100 * n); the epsilon keeps 99.9 % of 1000 at 999 despite
/// binary rounding.
inline std::size_t percentile_rank(std::size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::min(n, static_cast<std::size_t>(std::max(r, 0.0)));
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
/// Every reported value is an observed one.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = percentile_rank(sorted.size(), p);
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// Samples strictly past the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - percentile_rank(n, p);
}

struct TailPick {
  double pct = 50.0;     ///< the chosen percentile
  double value = 0.0;    ///< its value
  std::size_t beyond = 0;
  bool resolved = false; ///< false when even the median lacks 10 beyond
};

/// The highest percentile of {99.99, 99.9, 99, 95, 90, 50} that has at
/// least `min_beyond` samples past it, so a reported tail is never one
/// or two unlucky samples.
inline TailPick tail_percentile(const std::vector<double>& sorted,
                                std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  TailPick pick;
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(sorted.size(), p);
    if (beyond >= min_beyond) {
      pick.pct = p;
      pick.value = percentile_sorted(sorted, p);
      pick.beyond = beyond;
      pick.resolved = true;
      return pick;
    }
  }
  pick.value = percentile_sorted(sorted, 50.0);
  pick.beyond = samples_beyond(sorted.size(), 50.0);
  return pick;
}

/// Median of an unsorted sample (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------- spans

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary. `parent` is the span that
/// caused it (0 = none); spans of one serve request share `request`.
/// `calls` > 1 marks a folded span: that many disjoint calls of the
/// same layer inside one parent, packed back to back from `start_ns`
/// so their summed duration is the span's length.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 1;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count
/// once, parts outside the parent not at all). Aligned with `spans`.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t b = std::max(s.start_ns, p.start_ns);
    const std::int64_t e = std::min(s.end_ns, p.end_ns);
    if (b < e) kids[it->second].emplace_back(b, e);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0;
    std::int64_t cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) covered += cur_e - cur_b;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

/// Process-wide span store. Each thread appends to its own buffer
/// without locking; buffers are registered once per thread and
/// generation, so begin() invalidates every thread's cached buffer.
/// Disabled (the default), every call is a load and a branch.
class SpanRecorder {
 public:
  static SpanRecorder& instance() {
    static SpanRecorder r;
    return r;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded spans and starts recording. Call only while no
  /// other thread records.
  void begin() {
    std::lock_guard<std::mutex> hold(mu_);
    buffers_.clear();
    generation_.fetch_add(1, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
  }

  /// Stops recording and returns every span, ordered by start time.
  /// Call only after every recording thread has been joined or is idle.
  std::vector<Span> end() {
    enabled_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> hold(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    buffers_.clear();
    generation_.fetch_add(1, std::memory_order_relaxed);
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
    });
    return all;
  }

  /// Reserves an id for a span the caller is about to time (so its
  /// children can name it as parent before it is recorded).
  std::uint64_t next_id() {
    Buffer& b = local();
    return (static_cast<std::uint64_t>(b.index) << 40) | ++b.counter;
  }

  void record(const Span& s) { local().spans.push_back(s); }

  /// Parent for spans opened on threads that have no open span of
  /// their own (a driver's worker threads): the span of the call that
  /// spawned them.
  void set_root(std::uint64_t id) {
    root_.store(id, std::memory_order_relaxed);
  }
  std::uint64_t root() const { return root_.load(std::memory_order_relaxed); }

 private:
  struct Buffer {
    std::size_t index = 0;
    std::uint64_t counter = 0;
    std::vector<Span> spans;
  };

  Buffer& local() {
    thread_local Buffer* cached = nullptr;
    thread_local std::uint64_t cached_gen = ~std::uint64_t{0};
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (cached == nullptr || cached_gen != gen) {
      std::lock_guard<std::mutex> hold(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->index = buffers_.size();
      cached = buffers_.back().get();
      cached_gen = gen;
    }
    return *cached;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> root_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one call as a span when recording is on. The innermost open
/// scope on a thread is the parent of the next one opened there.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t request = 0) {
    SpanRecorder& r = SpanRecorder::instance();
    if (!r.enabled()) return;
    active_ = true;
    span_.name = name;
    span_.request = request;
    span_.id = r.next_id();
    span_.parent = current() != 0 ? current() : r.root();
    outer_ = current();
    current() = span_.id;
    span_.start_ns = now_ns();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (!active_) return;
    span_.end_ns = now_ns();
    current() = outer_;
    SpanRecorder::instance().record(span_);
  }

  std::uint64_t id() const { return span_.id; }
  std::int64_t start_ns() const { return span_.start_ns; }

  /// Id of the innermost open scope on this thread (0 = none).
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }

 private:
  bool active_ = false;
  std::uint64_t outer_ = 0;
  Span span_;
};

/// Writes spans as CSV: id,parent,request,name,start_ns,end_ns,calls,
/// self_ns (times relative to the first span's start).
inline void write_spans_csv(std::ostream& out, const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "id,parent,request,name,start_ns,end_ns,calls,self_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns - t0 << ',' << s.end_ns - t0 << ',' << s.calls << ','
        << self[i] << '\n';
  }
}

// ------------------------------------------------------------ open loop

/// When request i of an open-loop generator is due: the schedule is
/// fixed before the run and never waits for replies.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  double interval_ns = 0.0;

  std::int64_t due(std::uint64_t i) const {
    return start_ns +
           static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  }
};

/// Accounting of one open-loop request, all in ns. The generator thread
/// is also the caller, so a request cannot start before the previous
/// one on its thread ended: that wait is backlog. Whatever lateness is
/// left after backlog is the generator's own (a late wake-up or a
/// descheduled thread).
struct OpenLoopTimes {
  std::int64_t latency = 0;     ///< end − due: what the station waits
  std::int64_t service = 0;     ///< end − start: the call itself
  std::int64_t queue_wait = 0;  ///< latency − service = start − due
  std::int64_t gen_lag = 0;     ///< start − max(due, previous end)
};

inline OpenLoopTimes account_open_loop(std::int64_t due,
                                       std::int64_t previous_end,
                                       std::int64_t start, std::int64_t end) {
  OpenLoopTimes t;
  t.latency = end - due;
  t.service = end - start;
  t.queue_wait = t.latency - t.service;
  t.gen_lag = start - std::max(due, previous_end);
  return t;
}

}  // namespace e2e

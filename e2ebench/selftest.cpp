// Self-tests of the benchmark's own helpers (harness.h): the tail
// percentile choice, span self time, and open-loop due-time
// accounting. Exits non-zero on the first failed expectation; run.py
// runs it before every benchmark run.

#include <cstdlib>
#include <iostream>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << "\n";
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_tail_percentile() {
  using e2e::tail_percentile;
  // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
  const e2e::TailPick k1 = tail_percentile(ramp(1000));
  expect(k1.resolved && k1.pct == 99.0, "1000 samples pick p99");
  expect(k1.beyond == 10 && k1.value == 990.0, "p99 of 1..1000 is 990");
  // 999 samples: p99 leaves 9, so p95 (49 beyond) is the tail.
  const e2e::TailPick k2 = tail_percentile(ramp(999));
  expect(k2.pct == 95.0 && k2.beyond >= 10, "999 samples fall back to p95");
  // 100000 samples reach p99.99 (10 beyond).
  const e2e::TailPick k3 = tail_percentile(ramp(100000));
  expect(k3.pct == 99.99 && k3.beyond == 10, "100000 samples pick p99.99");
  // Too few for any tail: median, flagged unresolved.
  const e2e::TailPick k4 = tail_percentile(ramp(12));
  expect(!k4.resolved && k4.value == 6.0, "12 samples: unresolved median");
  expect(e2e::percentile_sorted({}, 99.0) == 0.0, "empty sample reads 0");
  expect(e2e::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

e2e::Span span(std::uint64_t id, std::uint64_t parent, std::int64_t b,
               std::int64_t e) {
  e2e::Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = b;
  s.end_ns = e;
  return s;
}

void test_self_times() {
  // Parent [0,100) with children [10,30), [20,50) (overlapping: cover
  // [10,50) once) and [90,120) (clipped to [90,100)): self = 100-40-10.
  const std::vector<e2e::Span> spans = {
      span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
      span(4, 1, 90, 120), span(5, 2, 12, 18), span(6, 99, 0, 5)};
  const std::vector<std::int64_t> self = e2e::self_times(spans);
  expect(self[0] == 50, "parent self time subtracts the union of children");
  expect(self[1] == 14, "child self time subtracts its own child");
  expect(self[2] == 30 && self[3] == 30, "leaves keep their duration");
  expect(self[5] == 5, "a span whose parent is unknown keeps its duration");

  // Recorder: nesting on one thread sets parents; end() returns all.
  e2e::SpanRecorder& rec = e2e::SpanRecorder::instance();
  rec.begin();
  std::uint64_t outer_id = 0;
  {
    e2e::SpanScope outer("outer");
    outer_id = outer.id();
    e2e::SpanScope inner("inner");
  }
  const std::vector<e2e::Span> got = rec.end();
  expect(got.size() == 2, "two spans recorded");
  bool linked = false;
  for (const e2e::Span& s : got) {
    if (std::string(s.name) == "inner") linked = s.parent == outer_id;
  }
  expect(linked, "inner span's parent is the outer span");
  {
    e2e::SpanScope off("off");
    expect(off.id() == 0, "no span is opened while recording is off");
  }
}

void test_open_loop() {
  // 10 us interval; the second request is due at 10 us but the first
  // ran until 35 us, so it waits 25 us of backlog, and the generator
  // woke 2 us later still.
  const e2e::OpenLoopSchedule schedule{1000, 10'000.0};
  expect(schedule.due(0) == 1000 && schedule.due(3) == 31'000,
         "due times follow the fixed schedule");
  const e2e::OpenLoopTimes first =
      e2e::account_open_loop(schedule.due(0), 0, 1000, 35'000);
  expect(first.latency == 34'000 && first.queue_wait == 0 && first.gen_lag == 0,
         "an on-time request waits only for its own service");
  const e2e::OpenLoopTimes second =
      e2e::account_open_loop(schedule.due(1), 35'000, 37'000, 40'000);
  expect(second.latency == 29'000, "latency counts from the due time");
  expect(second.service == 3'000, "service is the call alone");
  expect(second.queue_wait == 26'000, "queue wait = latency - service");
  expect(second.gen_lag == 2'000, "lag beyond the backlog is the generator's");
  // A request issued late with no backlog: all of the wait is lag.
  const e2e::OpenLoopTimes late =
      e2e::account_open_loop(schedule.due(2), 15'000, 26'000, 27'000);
  expect(late.gen_lag == 5'000 && late.queue_wait == 5'000,
         "a late wake-up with no backlog is generator lag");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_self_times();
  test_open_loop();
  if (failures > 0) return 1;
  std::cerr << "selftest: all helper checks passed\n";
  return 0;
}

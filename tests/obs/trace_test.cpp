#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/generator.h"
#include "legal/flow.h"
#include "service/session.h"

namespace mch::obs {
namespace {

/// Every test runs with tracing force-enabled and an empty ring, and
/// restores the process-wide enablement flag afterwards so the suite is
/// order-independent (and well-behaved under the `.trace` ctest variant,
/// where the flag starts out true).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = tracing_enabled();
    old_capacity_ = trace_ring_capacity();
    set_tracing_enabled(true);
    clear_trace();
  }
  void TearDown() override {
    set_trace_ring_capacity(old_capacity_);
    clear_trace();
    set_tracing_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
  std::size_t old_capacity_ = 0;
};

TEST_F(TraceTest, NestedSpansRecordChildFirstAndStayContained) {
  {
    TraceSpan parent("test.parent");
    {
      TraceSpan child("test.child");
      child.arg("depth", 1);
    }
    parent.arg("depth", 0);
  }

  const std::vector<CollectedEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Spans are pushed at destruction, so the child lands before the parent.
  EXPECT_STREQ(events[0].name, "test.child");
  EXPECT_STREQ(events[1].name, "test.parent");

  const CollectedEvent& child = events[0];
  const CollectedEvent& parent = events[1];
  EXPECT_GE(child.start_ns, parent.start_ns);
  EXPECT_LE(child.start_ns + child.dur_ns, parent.start_ns + parent.dur_ns);
  EXPECT_EQ(child.tid, parent.tid);
}

TEST_F(TraceTest, ArgsRoundTripThroughTheRing) {
  {
    TraceSpan span("test.args");
    span.arg("count", 42)
        .arg("ratio", 0.5)
        .arg("mode", "tiered")
        .arg("design", intern(std::string("adaptec") + "1"));
  }
  const std::vector<CollectedEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 1u);
  const CollectedEvent& e = events[0];
  ASSERT_EQ(e.args.size(), 4u);

  EXPECT_STREQ(e.args[0].key, "count");
  ASSERT_EQ(e.args[0].kind, TraceArg::Kind::kInt);
  EXPECT_EQ(e.args[0].value.i, 42);

  EXPECT_STREQ(e.args[1].key, "ratio");
  ASSERT_EQ(e.args[1].kind, TraceArg::Kind::kDouble);
  EXPECT_DOUBLE_EQ(e.args[1].value.d, 0.5);

  EXPECT_STREQ(e.args[2].key, "mode");
  ASSERT_EQ(e.args[2].kind, TraceArg::Kind::kString);
  EXPECT_STREQ(e.args[2].value.s, "tiered");

  ASSERT_EQ(e.args[3].kind, TraceArg::Kind::kString);
  EXPECT_STREQ(e.args[3].value.s, "adaptec1");
}

TEST_F(TraceTest, ArgsBeyondMaxAreDroppedSilently) {
  {
    TraceSpan span("test.overflow_args");
    for (std::size_t i = 0; i < TraceSpan::kMaxArgs + 5; ++i)
      span.arg("k", i);
  }
  const std::vector<CollectedEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].args.size(), TraceSpan::kMaxArgs);
}

TEST_F(TraceTest, InternReturnsStablePointerForEqualText) {
  const std::string dynamic = std::string("bench_") + "x";
  const char* a = intern(dynamic);
  const char* b = intern("bench_x");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "bench_x");
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  set_tracing_enabled(false);
  {
    TraceSpan span("test.invisible");
    span.arg("ignored", 1);
  }
  set_tracing_enabled(true);
  EXPECT_TRUE(collect_trace_events().empty());
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCountsThem) {
  set_trace_ring_capacity(8);
  clear_trace();  // re-caps this thread's existing buffer

  for (int i = 0; i < 20; ++i) {
    TraceSpan span("test.wrap");
    span.arg("i", i);
  }

  const TraceStats stats = trace_stats();
  EXPECT_EQ(stats.recorded, 20u);
  EXPECT_EQ(stats.dropped, 12u);
  EXPECT_EQ(stats.buffered, 8u);

  // The survivors are the 8 newest, oldest-first.
  const std::vector<CollectedEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    ASSERT_EQ(events[k].args.size(), 1u);
    EXPECT_EQ(events[k].args[0].value.i,
              static_cast<std::int64_t>(12 + k));
  }
}

TEST_F(TraceTest, ThreadsInterleaveIntoSeparateBuffers) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      set_trace_thread_name("interleave-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("test.mt");
        span.arg("thread", t).arg("i", i);
      }
    });
  }
  // The main thread traces concurrently with the workers.
  for (int i = 0; i < kSpansPerThread; ++i) TraceSpan span("test.mt.main");
  for (std::thread& t : threads) t.join();

  const std::vector<CollectedEvent> events = collect_trace_events();
  std::set<int> tids;
  int mt_events = 0;
  for (const CollectedEvent& e : events) {
    tids.insert(e.tid);
    if (std::strcmp(e.name, "test.mt") == 0) ++mt_events;
  }
  EXPECT_EQ(mt_events, kThreads * kSpansPerThread);
  // Main thread + one buffer per traced thread.
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads) + 1);

  // Per-thread streams stay oldest-first after the merge.
  for (int t = 0; t < kThreads; ++t) {
    std::int64_t last = -1;
    for (const CollectedEvent& e : events) {
      if (std::strcmp(e.name, "test.mt") != 0) continue;
      if (e.args[0].value.i != t) continue;
      EXPECT_GT(e.args[1].value.i, last);
      last = e.args[1].value.i;
    }
    EXPECT_EQ(last, kSpansPerThread - 1);
  }
}

TEST_F(TraceTest, ChromeJsonIsWellFormedAndCarriesSchema) {
  {
    TraceSpan span("test.json");
    span.arg("quote", "needs \"escaping\"\n");
  }
  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"schema\": \"mch-trace/1\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("test.json"), std::string::npos);
  EXPECT_NE(json.find("\\\"escaping\\\"\\n"), std::string::npos);
  // Balanced braces/brackets — a cheap structural check that survives
  // refactors without parsing JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(TraceTest, ClearTraceEmptiesBuffersAndResetsStats) {
  { TraceSpan span("test.clear"); }
  EXPECT_EQ(trace_stats().recorded, 1u);
  clear_trace();
  const TraceStats stats = trace_stats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.buffered, 0u);
  EXPECT_TRUE(collect_trace_events().empty());
}

/// Every solve.component event in the rings carries the span's full key
/// set; returns how many there were.
std::size_t expect_full_component_spans() {
  static const char* const kKeys[] = {
      "component", "vars",   "rows", "iterations", "checks", "polish",
      "polished",  "active", "warm", "rung"};
  std::size_t spans = 0;
  for (const CollectedEvent& event : collect_trace_events()) {
    if (std::strcmp(event.name, "solve.component") != 0) continue;
    ++spans;
    std::set<std::string> keys;
    for (const TraceArg& arg : event.args) keys.insert(arg.key);
    for (const char* key : kKeys)
      EXPECT_EQ(keys.count(key), 1u) << "solve.component lacks " << key;
  }
  return spans;
}

// The one-shot legalizer and the session's ECO path share one component
// driver and so one solve.component span: both must record every key, with
// none lost to the per-span argument cap.
TEST_F(TraceTest, SolveComponentSpanCarriesEveryKey) {
  gen::GeneratorOptions options;
  options.seed = 5;
  const db::Design design =
      gen::generate_random_design(540, 60, 0.7, options);

  db::Design one_shot = design;
  legal::legalize(one_shot);
  EXPECT_GT(expect_full_component_spans(), 0u);

  service::LegalizationSession session(design);
  ASSERT_TRUE(session.full_legalize().legal);
  clear_trace();
  std::size_t id = 0;
  while (session.design().cells()[id].fixed) ++id;
  const db::Cell& cell = session.design().cells()[id];
  const service::SessionResult served = session.eco({service::EcoOp::move(
      id, cell.gp_x + 3.0 * session.design().chip().site_width, cell.gp_y)});
  ASSERT_TRUE(served.session.incremental);
  EXPECT_GT(expect_full_component_spans(), 0u);
}

}  // namespace
}  // namespace mch::obs

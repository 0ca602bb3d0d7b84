// Tests for the metrics layer: registry (BT/RT/IT series), timeline,
// table/CSV reporting and the sliding-window quantile accumulator.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>

#include "ripple/common/error.hpp"
#include "ripple/common/json.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/metrics/chrome_trace.hpp"
#include "ripple/metrics/counters.hpp"
#include "ripple/metrics/critical_path.hpp"
#include "ripple/metrics/registry.hpp"
#include "ripple/metrics/report.hpp"
#include "ripple/metrics/timeline.hpp"
#include "ripple/metrics/tracer.hpp"
#include "ripple/metrics/window_quantile.hpp"

namespace {

using namespace ripple;
using namespace ripple::metrics;

msg::RequestTiming timing(double comm, double service, double inference) {
  msg::RequestTiming t;
  t.communication = comm;
  t.service = service;
  t.inference = inference;
  t.total = comm + service + inference;
  return t;
}

TEST(Registry, BootstrapComponents) {
  Registry registry;
  registry.add_bootstrap({"svc.0", 2.0, 30.0, 0.2, 4});
  registry.add_bootstrap({"svc.1", 2.4, 34.0, 0.3, 4});
  EXPECT_EQ(registry.bootstraps().size(), 2u);
  EXPECT_NEAR(registry.bootstrap_component("launch").mean(), 2.2, 1e-12);
  EXPECT_NEAR(registry.bootstrap_component("init").mean(), 32.0, 1e-12);
  EXPECT_NEAR(registry.bootstrap_component("publish").mean(), 0.25, 1e-12);
  EXPECT_NEAR(registry.bootstrap_component("total").mean(), 34.45, 1e-12);
  EXPECT_THROW((void)registry.bootstrap_component("warp"), Error);
}

TEST(Registry, RequestSeriesAggregation) {
  Registry registry;
  registry.add_request("exp2", timing(1e-4, 2e-5, 1e-6));
  registry.add_request("exp2", timing(1.2e-4, 2.2e-5, 1e-6));
  registry.add_request("exp3", timing(1e-3, 1e-2, 4.5));
  EXPECT_TRUE(registry.has_series("exp2"));
  EXPECT_FALSE(registry.has_series("exp9"));
  EXPECT_EQ(registry.series("exp2").count(), 2u);
  EXPECT_EQ(registry.series("exp3").count(), 1u);
  EXPECT_NEAR(registry.series("exp2").communication.mean(), 1.1e-4, 1e-12);
  EXPECT_EQ(registry.series_names(),
            (std::vector<std::string>{"exp2", "exp3"}));
  EXPECT_THROW((void)registry.series("exp9"), Error);
}

TEST(Registry, ClearDropsBootstrapsAndRequestSeries) {
  Registry registry;
  registry.add_bootstrap({"svc.0", 2.0, 30.0, 0.2, 1});
  registry.add_request("rt", timing(1, 2, 3));
  registry.clear();
  EXPECT_TRUE(registry.bootstraps().empty());
  EXPECT_FALSE(registry.has_series("rt"));
}

TEST(Registry, JsonExportShape) {
  Registry registry;
  registry.add_bootstrap({"svc.0", 2.0, 30.0, 0.2, 1});
  registry.add_request("rt", timing(1, 2, 3));
  const auto j = registry.to_json();
  EXPECT_EQ(j.at("bootstrap").at("count").as_int(), 1);
  EXPECT_TRUE(j.at("requests").contains("rt"));
  EXPECT_DOUBLE_EQ(
      j.at("requests").at("rt").at("total").at("mean").as_double(), 6.0);
}

TEST(Timeline, RecordsAndQueries) {
  Timeline timeline;
  const auto task0 = timeline.add("task.0", "task");
  const auto task1 = timeline.add("task.1", "task");
  timeline.record(task0, "RUNNING", 5.0);
  timeline.record(task0, "DONE", 8.0);
  timeline.record(task1, "RUNNING", 6.0);
  EXPECT_EQ(timeline.uid(task1), "task.1");
  EXPECT_EQ(timeline.kind(task1), "task");
  EXPECT_DOUBLE_EQ(timeline.state_time("task.0", "RUNNING"), 5.0);
  EXPECT_DOUBLE_EQ(timeline.duration("task.0", "RUNNING", "DONE"), 3.0);
  EXPECT_DOUBLE_EQ(timeline.state_time("task.9", "RUNNING"), -1.0);
  EXPECT_THROW((void)timeline.duration("task.1", "RUNNING", "DONE"), Error);
  EXPECT_EQ(timeline.count("task", "RUNNING"), 2u);
  EXPECT_EQ(timeline.entities_in("task", "RUNNING"),
            (std::vector<std::string>{"task.0", "task.1"}));
  timeline.clear();
  EXPECT_TRUE(timeline.records().empty());
  EXPECT_DOUBLE_EQ(timeline.state_time("task.0", "RUNNING"), -1.0);
  // Registered entities keep their ids across a clear.
  timeline.record(task1, "DONE", 9.0);
  EXPECT_DOUBLE_EQ(timeline.state_time("task.1", "DONE"), 9.0);
  EXPECT_EQ(timeline.entities_in("task", "DONE"),
            (std::vector<std::string>{"task.1"}));
}

TEST(Timeline, FirstEntryWins) {
  Timeline timeline;
  const auto svc = timeline.add("svc.0", "service");
  timeline.record(svc, "SCHEDULING", 1.0);
  timeline.record(svc, "SCHEDULING", 9.0);  // restart
  EXPECT_DOUBLE_EQ(timeline.state_time("svc.0", "SCHEDULING"), 1.0);
  EXPECT_EQ(timeline.records().size(), 2u);  // both kept in the log
}

TEST(Timeline, QueriesSeeEntitiesAddedAfterTheFirstQuery) {
  // The uid and entry-time indexes are built by the first query and
  // extended by later ones.
  Timeline timeline;
  const auto pilot = timeline.add("pilot.0", "pilot");
  timeline.record(pilot, "ACTIVE", 1.0);
  EXPECT_DOUBLE_EQ(timeline.state_time("pilot.0", "ACTIVE"), 1.0);
  const auto task = timeline.add("task.0", "task");
  EXPECT_EQ(timeline.entry_count("task.0", "RUNNING"), 0u);
  timeline.record(task, "RUNNING", 2.0);
  timeline.record(pilot, "DONE", 3.0);
  EXPECT_DOUBLE_EQ(timeline.state_time("task.0", "RUNNING"), 2.0);
  EXPECT_DOUBLE_EQ(timeline.duration("pilot.0", "ACTIVE", "DONE"), 2.0);
  EXPECT_EQ(timeline.count("pilot", "RUNNING"), 0u);
  EXPECT_EQ(timeline.count("task", "RUNNING"), 1u);
  const auto records = timeline.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].entity, "task.0");
  EXPECT_EQ(records[1].kind, "task");
  EXPECT_EQ(records[2].kind, "pilot");
}

TEST(Timeline, ReentryHistoryIsKept) {
  // Regression: restarted tasks enter RUNNING more than once; the
  // first-entry index used to be the only record queryable.
  Timeline timeline;
  const auto task = timeline.add("task.0", "task");
  timeline.record(task, "RUNNING", 5.0);
  timeline.record(task, "RUNNING", 9.0);  // after a crash
  EXPECT_DOUBLE_EQ(timeline.state_time("task.0", "RUNNING"), 5.0);
  EXPECT_DOUBLE_EQ(timeline.last_state_time("task.0", "RUNNING"), 9.0);
  EXPECT_EQ(timeline.entry_count("task.0", "RUNNING"), 2u);
  EXPECT_EQ(timeline.state_times("task.0", "RUNNING"),
            (std::vector<double>{5.0, 9.0}));
  EXPECT_TRUE(timeline.state_times("task.0", "DONE").empty());
  EXPECT_DOUBLE_EQ(timeline.last_state_time("task.0", "DONE"), -1.0);
  EXPECT_EQ(timeline.entry_count("task.9", "RUNNING"), 0u);
}

TEST(Table, AlignmentAndCsv) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);

  const std::string csv = table.to_csv();
  EXPECT_EQ(csv, "name,value\nalpha,1\nb,22222\n");
  EXPECT_THROW(table.add_row({"only-one-cell"}), Error);
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, CsvEscaping) {
  Table table({"a"});
  table.add_row({"with,comma"});
  table.add_row({"with\"quote"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, WriteCsvToDisk) {
  Table table({"x", "y"});
  table.add_row_values({1.5, 2.5}, 1);
  const std::string path = "/tmp/ripple_test_table.csv";
  table.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::remove(path.c_str());
  EXPECT_THROW(table.write_csv("/nonexistent-dir/x.csv"), Error);
}

// ---------------------------------------------------------------------------
// WindowQuantile: the SLO autoscaler's latency window
// ---------------------------------------------------------------------------

TEST(WindowQuantile, ExactQuantilesOnSmallWindows) {
  // Quantiles over a small window must match common::Summary exactly
  // (same linear-interpolation convention), including the interpolated
  // positions between samples.
  WindowQuantile window(100.0);
  common::Summary reference;
  const std::vector<double> values = {5.0, 1.0, 9.0, 3.0, 7.0};
  double t = 0.0;
  for (const double v : values) {
    window.add(t, v);
    reference.add(v);
    t += 1.0;
  }
  EXPECT_EQ(window.count(t), values.size());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(window.quantile(t, q), reference.quantile(q)) << q;
  }
  // A single live sample is every quantile.
  WindowQuantile single(10.0);
  single.add(0.0, 42.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.0, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.0, 0.95), 42.0);
}

TEST(WindowQuantile, EvictsExpiredSamples) {
  WindowQuantile window(10.0);
  window.add(0.0, 100.0);
  window.add(5.0, 1.0);
  // Both alive: the old outlier dominates the p95.
  EXPECT_EQ(window.count(9.0), 2u);
  EXPECT_GT(window.quantile(9.0, 0.95), 90.0);
  // A sample stamped at t stays live through now == t + window
  // (inclusive boundary) and is gone just after.
  EXPECT_EQ(window.count(10.0), 2u);
  EXPECT_EQ(window.count(10.5), 1u);
  EXPECT_DOUBLE_EQ(window.quantile(10.5, 0.95), 1.0);
  // Everything expires eventually; an empty window throws (callers use
  // count() for the no-signal sentinel).
  EXPECT_EQ(window.count(20.0), 0u);
  EXPECT_THROW((void)window.quantile(20.0, 0.5), Error);
  // collect() appends only live values.
  window.add(21.0, 2.0);
  window.add(22.0, 3.0);
  std::vector<double> live;
  window.collect(31.5, live);
  EXPECT_EQ(live, (std::vector<double>{3.0}));
}

TEST(WindowQuantile, MonotoneClockEnforced) {
  // Event-loop time never goes backwards; the deque eviction depends on
  // it, so a regressing timestamp is a caller bug worth throwing at.
  WindowQuantile window(10.0);
  window.add(5.0, 1.0);
  window.add(5.0, 2.0);  // equal timestamps are fine (same-time events)
  EXPECT_THROW(window.add(4.999, 3.0), Error);
  // clear() resets the monotonicity guard along with the samples.
  window.clear();
  EXPECT_EQ(window.count(100.0), 0u);
  window.add(0.0, 7.0);
  EXPECT_DOUBLE_EQ(window.quantile(0.0, 0.5), 7.0);
  // Invalid construction and queries.
  EXPECT_THROW(WindowQuantile(0.0), Error);
  EXPECT_THROW((void)window.quantile(0.0, 1.5), Error);
}

// ---------------------------------------------------------------------------
// Tracer: deterministic sim-time spans
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.begin("run", "compute", "task.0", 1.0), 0u);
  tracer.end(0, 2.0);
  tracer.arg(0, "k", "v");
  tracer.instant("mark", "task", "task.0", 1.0);
  (void)tracer.complete("run", "compute", "task.0", 1.0, 2.0);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(Tracer, NestedSpansCarryParentAndArgs) {
  Tracer tracer;
  tracer.set_enabled(true);
  const SpanId root = tracer.begin("task", "task", "task.0", 1.0);
  ASSERT_NE(root, 0u);
  const SpanId child =
      tracer.begin("run", "compute", "task.0", 2.0, root, {{"node", "n0"}});
  tracer.arg(child, "attempt", "1");
  EXPECT_EQ(tracer.open_spans(), 2u);
  tracer.end(child, 5.0);
  tracer.end(root, 6.0);
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  const Span& r = tracer.spans()[0];
  const Span& c = tracer.spans()[1];
  EXPECT_EQ(r.parent, 0u);
  EXPECT_DOUBLE_EQ(r.end, 6.0);
  EXPECT_EQ(c.parent, root);
  EXPECT_DOUBLE_EQ(c.begin, 2.0);
  EXPECT_DOUBLE_EQ(c.end, 5.0);
  ASSERT_EQ(c.args.size(), 2u);
  EXPECT_EQ(c.args[0], (std::pair<std::string, std::string>{"node", "n0"}));
  EXPECT_EQ(c.args[1],
            (std::pair<std::string, std::string>{"attempt", "1"}));
  // Unknown ids are tolerated (span may predate enabling).
  tracer.end(0xdeadbeef, 7.0);
  tracer.arg(0xdeadbeef, "k", "v");
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(Tracer, HashFingerprintsContent) {
  const auto build = [](const char* arg_value) {
    auto tracer = std::make_unique<Tracer>();
    tracer->set_enabled(true);
    const SpanId id =
        tracer->begin("run", "compute", "task.0", 1.0, 0, {{"k", arg_value}});
    tracer->end(id, 2.0);
    tracer->instant("mark", "task", "task.0", 1.5);
    return tracer;
  };
  const auto a = build("x");
  const auto b = build("x");
  const auto c = build("y");
  EXPECT_EQ(a->span_log_hash(), b->span_log_hash());
  EXPECT_NE(a->span_log_hash(), c->span_log_hash());
  const std::uint64_t before = a->span_log_hash();
  a->clear();
  EXPECT_TRUE(a->spans().empty());
  EXPECT_NE(a->span_log_hash(), before);
}

// ---------------------------------------------------------------------------
// Counters: monotonic counters, gauges, sampling tick
// ---------------------------------------------------------------------------

TEST(Counters, DisabledIsInert) {
  Counters counters;
  counters.add("task.done");
  counters.set_value("ml.batch_fill", 8.0);
  counters.sample(1.0);
  EXPECT_EQ(counters.value("task.done"), 0.0);
  EXPECT_TRUE(counters.samples().empty());
}

TEST(Counters, AddSetAndSample) {
  Counters counters;
  counters.set_enabled(true);
  counters.add("task.done");
  counters.add("task.done", 2.0);
  counters.set_value("ml.batch_fill", 8.0);
  double depth = 3.0;
  counters.register_gauge("loop.pending", [&depth] { return depth; });
  counters.sample(1.0);
  depth = 5.0;
  counters.sample(2.0);
  EXPECT_DOUBLE_EQ(counters.value("task.done"), 3.0);
  EXPECT_DOUBLE_EQ(counters.value("ml.batch_fill"), 8.0);
  EXPECT_DOUBLE_EQ(counters.value("never.touched"), 0.0);
  // Each sample snapshots two values plus the gauge.
  ASSERT_EQ(counters.samples().size(), 6u);
  const std::uint64_t hash = counters.sample_log_hash();
  counters.sample(3.0);
  EXPECT_NE(counters.sample_log_hash(), hash);
}

TEST(Counters, SamplingTickDrainsWithTheLoop) {
  // The tick re-arms only while the loop has other pending events, so
  // an enabled session drains instead of spinning on its telemetry.
  sim::EventLoop loop;
  Counters counters;
  counters.set_enabled(true);
  counters.register_gauge("loop.pending",
                          [&loop] { return static_cast<double>(loop.pending()); });
  loop.call_after(2.5, [] {});
  counters.arm_sampling(loop, 1.0);
  loop.run();
  EXPECT_FALSE(counters.samples().empty());
  // The loop drained: at most one interval past the last workload event.
  EXPECT_LE(loop.now(), 3.5 + 1e-9);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, ShapeAndJsonRoundTrip) {
  Tracer tracer;
  tracer.set_enabled(true);
  const SpanId root = tracer.begin("task", "task", "task.0", 0.0);
  const SpanId run = tracer.begin("run", "compute", "task.0", 1.0, root,
                                  {{"node", "n0"}});
  tracer.end(run, 3.0);
  tracer.end(root, 4.0);
  const SpanId open = tracer.begin("queue-wait", "queue", "task.1", 2.0);
  (void)open;  // deliberately left open: export clamps it

  Counters counters;
  counters.set_enabled(true);
  counters.add("task.done");
  counters.sample(4.0);

  const json::Value doc = chrome_trace_json(tracer, &counters);
  const auto& events = doc.at("traceEvents");
  // 3 thread-name metadata events (task:task.0, compute:task.0,
  // queue:task.1), 3 span events, 1 counter sample.
  ASSERT_EQ(events.size(), 7u);
  std::size_t spans = 0;
  std::size_t meta = 0;
  std::size_t samples = 0;
  bool saw_clamped_open = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events.at(i);
    const std::string ph = event.at("ph").as_string();
    if (ph == "X") {
      ++spans;
      EXPECT_GE(event.at("dur").as_double(), 0.0);
      if (event.at("args").contains("open")) saw_clamped_open = true;
    } else if (ph == "M") {
      ++meta;
    } else if (ph == "C") {
      ++samples;
    }
  }
  EXPECT_EQ(spans, 3u);
  EXPECT_EQ(meta, 3u);
  EXPECT_EQ(samples, 1u);
  EXPECT_TRUE(saw_clamped_open);

  // The artifact contract: dump() text parses back to the same value.
  EXPECT_EQ(json::Value::parse(doc.dump()), doc);
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

TEST(CriticalPath, BucketsPartitionTheWindowExactly) {
  // Two tasks chained back-to-back; phase spans overlap inside task A
  // (stage-in overlapping queue-wait) so the priority sweep is
  // exercised, and the buckets must still partition [0, 20] exactly.
  Tracer tracer;
  tracer.set_enabled(true);
  const SpanId a = tracer.begin("t", "task", "task.a", 0.0);
  tracer.end(tracer.begin("queue-wait", "queue", "task.a", 0.0, a), 4.0);
  tracer.end(tracer.begin("stage-in", "data", "task.a", 3.0, a), 6.0);
  tracer.end(tracer.begin("run", "compute", "task.a", 6.0, a), 10.0);
  tracer.end(a, 10.0);
  const SpanId b = tracer.begin("t", "task", "task.b", 8.0);
  tracer.end(tracer.begin("queue-wait", "queue", "task.b", 8.0, b), 12.0);
  tracer.end(tracer.begin("run", "compute", "task.b", 12.0, b), 20.0);
  tracer.end(b, 20.0);

  const Breakdown breakdown = critical_path(tracer, 0.0, 20.0);
  // Backward walk: task.b owns [8, 20] (queue 4 s, compute 8 s);
  // task.a owns [0, 8] (queue 3 s, data 3 s — data outranks the
  // overlapped queue tail — compute 2 s).
  EXPECT_EQ(breakdown.path,
            (std::vector<std::string>{"task.a", "task.b"}));
  EXPECT_NEAR(breakdown.queue_wait, 7.0, 1e-9);
  EXPECT_NEAR(breakdown.data_wait, 3.0, 1e-9);
  EXPECT_NEAR(breakdown.compute, 10.0, 1e-9);
  EXPECT_NEAR(breakdown.recovery, 0.0, 1e-9);
  EXPECT_NEAR(breakdown.other, 0.0, 1e-9);
  EXPECT_NEAR(breakdown.total(), 20.0, 1e-9);

  const Table table = breakdown.table();
  EXPECT_EQ(table.rows(), 6u);  // four buckets + other + total
}

TEST(CriticalPath, UncoveredTimeLandsInOther) {
  Tracer tracer;
  tracer.set_enabled(true);
  const SpanId a = tracer.begin("t", "task", "task.a", 2.0);
  tracer.end(tracer.begin("run", "compute", "task.a", 2.0, a), 5.0);
  tracer.end(a, 5.0);
  // Window [0, 8]: [0,2) has no task (idle before), (5,8] idle after.
  const Breakdown breakdown = critical_path(tracer, 0.0, 8.0);
  EXPECT_NEAR(breakdown.compute, 3.0, 1e-9);
  EXPECT_NEAR(breakdown.other, 5.0, 1e-9);
  EXPECT_NEAR(breakdown.total(), 8.0, 1e-9);
  // An empty log is all "other".
  Tracer empty;
  const Breakdown none = critical_path(empty, 0.0, 4.0);
  EXPECT_NEAR(none.other, 4.0, 1e-9);
  EXPECT_TRUE(none.path.empty());
}

TEST(Report, MeanPmStdAndBanner) {
  common::Summary summary;
  EXPECT_EQ(mean_pm_std(summary), "n/a");
  summary.add(1.0);
  summary.add(3.0);
  const std::string text = mean_pm_std(summary);
  EXPECT_NE(text.find("2.00 s"), std::string::npos);
  EXPECT_NE(text.find("+/-"), std::string::npos);
  EXPECT_EQ(banner("T"), "\n== T ==\n");
}

}  // namespace

// Tests for the unified observability layer: JSON escaping/parsing, the
// Chrome trace exporter (structural validation), the metrics registry on
// both substrates, the bench report round-trip, and the cross-substrate
// consistency contract — the same schedule executed on the simulator and
// on the threaded runtime must agree on the discrete schedule-shape
// invariants (peak live slices, message counts) even though their clocks
// (cost model vs wall time) can never match.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/slimpipe.hpp"
#include "src/model/transformer.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/sched/schedule.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"
#include "src/sim/topology.hpp"
#include "src/sim/trace.hpp"
#include "src/util/table.hpp"

namespace slim::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonEscapeTest, EscapesEverythingJsonRequires) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  // Non-ASCII bytes pass through untouched (JSON strings are UTF-8).
  EXPECT_EQ(json_escape("µs"), "µs");
  EXPECT_EQ(json_quote("x"), "\"x\"");
}

TEST(JsonNumberTest, NonFiniteClampsToZero) {
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonParseTest, RoundTripsBuilderOutput) {
  JsonValue doc = JsonValue::make_object();
  doc.set("name", JsonValue::make_string("tricky \"name\"\n"));
  doc.set("count", JsonValue::make_number(3.0));
  doc.set("ok", JsonValue::make_bool(true));
  JsonValue list = JsonValue::make_array();
  list.push_back(JsonValue::make_number(1.5));
  list.push_back(JsonValue::make_string("two"));
  doc.set("list", std::move(list));

  for (int indent : {0, 2}) {
    JsonValue back;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(doc.dump(indent), &back, &error)) << error;
    const JsonValue* name = back.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->str(), "tricky \"name\"\n");
    const JsonValue* count = back.find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_DOUBLE_EQ(count->number(), 3.0);
    const JsonValue* ok = back.find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->boolean());
    const JsonValue* parsed = back.find("list");
    ASSERT_NE(parsed, nullptr);
    ASSERT_EQ(parsed->array().size(), 2u);
    EXPECT_DOUBLE_EQ(parsed->array()[0].number(), 1.5);
    EXPECT_EQ(parsed->array()[1].str(), "two");
  }
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "\"unterminated",
                          "{\"a\":1} trailing", "nul", "1e999", "-1e999",
                          "[1e999]", "+1", "1e"}) {
    JsonValue out;
    std::string error;
    EXPECT_FALSE(JsonValue::parse(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

// ------------------------------------------------------------ sim trace

// Two devices, one forward each, linked by a transfer; the minimal graph
// exercising device tracks, a channel track and one flow arrow.
sim::OpGraph two_device_graph() {
  sim::OpGraph g(sim::make_cluster(2));
  const sim::OpId f0 =
      g.add_compute(0, 1.0, sim::OpClass::Forward, {});
  g.set_tag(f0, 0, 0, 0);
  const sim::OpId send =
      g.add_transfer(0, 1, 1 << 20, sim::OpClass::Send, {f0});
  const sim::OpId f1 =
      g.add_compute(1, 2.0, sim::OpClass::Forward, {send});
  g.set_tag(f1, 0, 0, 1);
  return g;
}

TEST(ChromeTraceTest, StructurallyValidWithFlows) {
  const sim::OpGraph g = two_device_graph();
  const sim::ExecResult r = sim::execute(g);
  const Trace trace = trace_from_sim(g, r);
  EXPECT_FALSE(trace.spans.empty());
  EXPECT_FALSE(trace.flows.empty());

  const std::string json = chrome_trace_json(trace);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(json, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_array());

  std::map<double, int> flow_begins, flow_ends;
  for (const JsonValue& event : doc.array()) {
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string kind = ph->str();
    if (kind == "X") {
      EXPECT_NE(event.find("ts"), nullptr);
      EXPECT_NE(event.find("dur"), nullptr);
      EXPECT_NE(event.find("name"), nullptr);
    } else if (kind == "s" || kind == "f") {
      const JsonValue* id = event.find("id");
      ASSERT_NE(id, nullptr);
      (kind == "s" ? flow_begins : flow_ends)[id->number()]++;
    }
  }
  // Every flow id opens exactly once and closes at least once.
  EXPECT_FALSE(flow_begins.empty());
  for (const auto& [id, count] : flow_begins) EXPECT_EQ(count, 1) << id;
  for (const auto& [id, count] : flow_ends) {
    EXPECT_TRUE(flow_begins.count(id)) << id;
    EXPECT_GE(count, 1) << id;
  }
}

TEST(ChromeTraceTest, EscapesFaultDetailStrings) {
  Trace trace;
  std::vector<fault::FaultEvent> events(1);
  events[0].device = 0;
  events[0].time = 0.5;
  events[0].detail = "injected \"quote\"\nnewline";
  append_fault_events(trace, events);
  ASSERT_EQ(trace.instants.size(), 1u);

  const std::string json = chrome_trace_json(trace);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(json, &doc, &error)) << error;
}

TEST(MetricsFromSimTest, BreakdownOnHandBuiltGraph) {
  const sim::OpGraph g = two_device_graph();
  const sim::ExecResult r = sim::execute(g);
  const RunMetrics m = metrics_from_sim(g, r, 2);
  ASSERT_EQ(m.stages.size(), 2u);
  EXPECT_DOUBLE_EQ(m.stages[0].compute_seconds, 1.0);
  EXPECT_DOUBLE_EQ(m.stages[1].compute_seconds, 2.0);
  EXPECT_EQ(m.stages[0].p2p_messages, 1);
  EXPECT_EQ(m.stages[1].p2p_messages, 0);
  EXPECT_DOUBLE_EQ(m.stages[0].p2p_bytes, 1 << 20);
  EXPECT_GT(m.makespan, 0.0);
  for (const StageMetrics& stage : m.stages) {
    EXPECT_GE(stage.bubble_fraction, 0.0);
    EXPECT_LE(stage.bubble_fraction, 1.0);
    EXPECT_NEAR(stage.compute_seconds + stage.idle_seconds, m.makespan, 1e-9);
  }
}

TEST(MetricsJsonTest, RoundTrip) {
  RunMetrics m;
  m.substrate = "sim";
  m.scheme = "slimpipe";
  m.makespan = 1.25;
  StageMetrics s;
  s.device = 3;
  s.compute_seconds = 0.75;
  s.peak_live_slices = 4;
  s.p2p_messages = 7;
  m.stages.push_back(s);

  RunMetrics back;
  ASSERT_TRUE(run_metrics_from_json(run_metrics_to_json(m), &back));
  EXPECT_EQ(back.substrate, "sim");
  EXPECT_EQ(back.scheme, "slimpipe");
  EXPECT_DOUBLE_EQ(back.makespan, 1.25);
  ASSERT_EQ(back.stages.size(), 1u);
  EXPECT_EQ(back.stages[0].device, 3);
  EXPECT_DOUBLE_EQ(back.stages[0].compute_seconds, 0.75);
  EXPECT_EQ(back.stages[0].peak_live_slices, 4);
  EXPECT_EQ(back.stages[0].p2p_messages, 7);
}

// A number lands in an integer member only when it is an integer within the
// member's type; casting 1e30 to an int is undefined.
TEST(MetricsJsonTest, IntegerMembersTakeOnlyIntegersInRange) {
  auto decodes = [](const std::string& stage) {
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse("{\"stages\":[" + stage + "]}", &doc, &error))
        << error;
    RunMetrics out;
    return run_metrics_from_json(doc, &out);
  };
  EXPECT_TRUE(decodes("{\"device\":3,\"p2p_messages\":9007199254740992}"));
  EXPECT_FALSE(decodes("{\"device\":2.5}"));
  EXPECT_FALSE(decodes("{\"device\":1e30}"));
  EXPECT_FALSE(decodes("{\"peak_live_slices\":-7e20}"));
  EXPECT_FALSE(decodes("{\"p2p_messages\":1e300}"));
  EXPECT_FALSE(decodes("{\"frames_sent\":-0.5}"));
}

// --------------------------------------------------------- ascii golden

TEST(AsciiTimelineTest, GoldenTwoDevicePipeline) {
  // Fixed 1F1B fragment: F(1s) on dev 0, F(1s) then B(1s) on dev 1, B(1s)
  // back on dev 0; transfers take zero width at this resolution.
  sim::OpGraph g(sim::make_cluster(2));
  const sim::OpId f0 = g.add_compute(0, 1.0, sim::OpClass::Forward, {});
  const sim::OpId f1 = g.add_compute(1, 1.0, sim::OpClass::Forward, {f0});
  const sim::OpId b1 = g.add_compute(1, 1.0, sim::OpClass::Backward, {f1});
  g.add_compute(0, 1.0, sim::OpClass::Backward, {b1});
  const sim::ExecResult r = sim::execute(g);

  sim::AsciiTraceOptions opts;
  opts.width = 8;
  opts.num_devices = 2;
  opts.show_legend = false;
  const std::string golden =
      "dev 0 |FFF....BBB|\n"
      "dev 1 |..FFFBBB..|\n";
  EXPECT_EQ(sim::ascii_timeline(g, r, opts), golden);
}

// -------------------------------------------------------------- reports

TEST(ReportTest, WriteLoadValidateRoundTrip) {
  BenchReport report;
  report.name = "unit";
  report.artifact = "unit artifact";
  report.setup = "setup with \"quotes\"";
  report.expectation = "shape";
  Table table({"col a", "col b"});
  table.add_row({"1.0", "x"});
  table.add_row({"2.0", "y"});
  report.add_series("numbers", table);
  RunRecord run;
  run.label = "base";
  run.iteration_time = 2.0;
  run.bubble_fraction = 0.25;
  run.mfu = 0.5;
  run.peak_memory = 1e9;
  run.metrics.substrate = "sim";
  run.metrics.stages.resize(2);
  report.runs.push_back(run);

  EXPECT_TRUE(validate_report(report_to_json(report)).empty());

  const std::string path = ::testing::TempDir() + "slim_obs_report.json";
  ASSERT_TRUE(write_report(report, path));
  BenchReport back;
  std::string error;
  ASSERT_TRUE(load_report(path, &back, &error)) << error;
  EXPECT_EQ(back.name, "unit");
  EXPECT_EQ(back.setup, "setup with \"quotes\"");
  ASSERT_EQ(back.series.size(), 1u);
  EXPECT_EQ(back.series[0].title, "numbers");
  ASSERT_EQ(back.series[0].rows.size(), 2u);
  EXPECT_EQ(back.series[0].rows[1][1], "y");
  ASSERT_EQ(back.runs.size(), 1u);
  EXPECT_DOUBLE_EQ(back.runs[0].iteration_time, 2.0);
  ASSERT_EQ(back.runs[0].metrics.stages.size(), 2u);
}

TEST(ReportTest, ValidateFlagsBrokenDocuments) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(
      R"({"schema":"wrong","version":1,"name":"x","series":[
           {"title":"t","columns":["a","b"],"rows":[["only-one"]]}],
         "runs":[]})",
      &doc, &error))
      << error;
  const auto issues = validate_report(doc);
  EXPECT_GE(issues.size(), 2u);  // bad schema + row width mismatch
}

TEST(ReportTest, DiffShowsNumericDeltas) {
  BenchReport a, b;
  a.name = b.name = "unit";
  Table ta({"config", "MFU"});
  ta.add_row({"base", "50.0%"});
  Table tb({"config", "MFU"});
  tb.add_row({"base", "55.0%"});
  a.add_series("mfu", ta);
  b.add_series("mfu", tb);
  const std::string diff = render_diff(a, b);
  EXPECT_NE(diff.find("50.0% -> 55.0%"), std::string::npos) << diff;
  EXPECT_NE(diff.find("+10.0%"), std::string::npos) << diff;
}

// ---------------------------------------------------------- recorder

TEST(RecorderTest, ThreadSafeAcrossWriters) {
  Recorder rec;
  constexpr int kThreads = 4, kEvents = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kEvents; ++i) {
        const double now = rec.now();
        rec.span(t, "work", kCatCompute, now, now + 1e-6, i, 0, t);
        rec.instant(t, "mark", kCatCommit);
        const std::int64_t id = t * kEvents + i;
        rec.flow_point(id, t, rec.now(), /*begin=*/true, "msg");
        rec.flow_point(id, (t + 1) % kThreads, rec.now(), /*begin=*/false,
                       "msg");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const Trace trace = rec.snapshot();
  const std::size_t expected =
      static_cast<std::size_t>(kThreads) * kEvents;
  EXPECT_EQ(trace.spans.size(), expected);
  EXPECT_EQ(trace.instants.size(), expected);
  EXPECT_EQ(trace.flows.size(), 2 * expected);
  std::set<std::int64_t> ids;
  for (const TraceFlowPoint& point : trace.flows) {
    if (point.begin) {
      EXPECT_TRUE(ids.insert(point.id).second);
    }
  }
  EXPECT_EQ(ids.size(), expected);
}

// ------------------------------------------- sim vs runtime consistency

// Both substrates execute the same schedule shape: SlimPipe, p=2 stages,
// v=1, n=2 slices, m=2 microbatches, no vocab parallelism, no context
// exchange. The discrete schedule invariants — each stage's executed
// order, peak simultaneously-live slices per stage and cross-stage message
// counts — must agree exactly.
// Timing CANNOT agree (the simulator runs a cost model over H100-scale
// shapes; the runtime measures wall time of a toy model on test hardware),
// so for timing we only assert each substrate's internal consistency.
TEST(ConsistencyTest, SimAndRuntimeAgreeOnScheduleShape) {
  // Simulator side.
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 2;
  spec.v = 1;
  spec.n = 2;
  spec.m = 2;
  spec.seq = 2 * 8192;
  spec.vocab_parallel = false;
  spec.context_exchange = false;
  const sched::ScheduleResult sim_result =
      core::run_scheme(core::Scheme::SlimPipe, spec);
  const RunMetrics& sim_metrics = sim_result.metrics;
  EXPECT_EQ(sim_metrics.substrate, "sim");
  ASSERT_EQ(sim_metrics.stages.size(), 2u);

  // Runtime side: same p/v/n/m on the miniature model, with tracing on.
  Rng rng(42);
  const num::BlockDims dims{16, 2, 2, 24};
  rt::ThreadedPipeline pipe(dims, /*vocab=*/16, /*layers_total=*/4,
                            /*stages=*/2, rng);
  Rng data_rng(43);
  std::vector<std::vector<std::int64_t>> tokens(2), targets(2);
  for (int mb = 0; mb < 2; ++mb) {
    for (int i = 0; i < 8; ++i) {
      tokens[mb].push_back(static_cast<std::int64_t>(data_rng.next_below(16)));
      targets[mb].push_back(static_cast<std::int64_t>(data_rng.next_below(16)));
    }
  }
  Recorder recorder;
  rt::RunOptions options;
  options.n_slices = 2;
  options.recorder = &recorder;
  const auto rt_result = pipe.run_iteration(tokens, targets, options);
  const RunMetrics& rt_metrics = rt_result.stats.metrics;
  EXPECT_EQ(rt_metrics.substrate, "runtime");
  ASSERT_EQ(rt_metrics.stages.size(), 2u);

  // Discrete schedule-shape invariants: exact agreement.
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(rt_metrics.stages[s].peak_live_slices,
              sim_metrics.stages[s].peak_live_slices)
        << "stage " << s;
    EXPECT_EQ(rt_metrics.stages[s].p2p_messages,
              sim_metrics.stages[s].p2p_messages)
        << "stage " << s;
    // Eq. 1: the table peaks at n*v + 2(p-1-r) live slices.
    EXPECT_EQ(rt_metrics.stages[s].peak_live_slices, 2 + 2 * (1 - s));
  }

  // Timing: internally consistent on both substrates.
  for (const RunMetrics* m : {&sim_metrics, &rt_metrics}) {
    EXPECT_GT(m->makespan, 0.0);
    for (const StageMetrics& stage : m->stages) {
      EXPECT_GE(stage.bubble_fraction, 0.0);
      EXPECT_LE(stage.bubble_fraction, 1.0);
      EXPECT_LE(stage.compute_seconds, m->makespan + 1e-9);
    }
  }

  // The runtime's recorded trace is a valid Chrome export with paired flow
  // arrows.
  const Trace trace = recorder.take();
  EXPECT_FALSE(trace.spans.empty());
  EXPECT_FALSE(trace.flows.empty());

  // Schedule order: each runtime stage executed exactly its device's rows
  // of the simulator's table, in table order — (kind, microbatch, slice,
  // stage) read off the recorder's compute spans.
  const std::vector<sched::DeviceProgram> table = core::slimpipe_programs(spec);
  for (int s = 0; s < 2; ++s) {
    std::vector<std::string> want, ran;
    for (const sched::Pass& pass : table[static_cast<std::size_t>(s)]) {
      want.push_back(
          std::string(pass.type == sched::PassType::Forward ? "fwd" : "bwd") +
          " " + std::to_string(pass.microbatch) + "." +
          std::to_string(pass.slice) + "@" +
          std::to_string(pass.chunk * 2 + s));
    }
    for (const TraceSpan& span : trace.spans) {
      if (span.track != s || span.cat != kCatCompute) continue;
      ran.push_back(span.name.substr(0, span.name.find(' ')) + " " +
                    std::to_string(span.microbatch) + "." +
                    std::to_string(span.slice) + "@" +
                    std::to_string(span.stage));
    }
    EXPECT_EQ(ran, want) << "stage " << s;
  }

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(chrome_trace_json(trace), &doc, &error))
      << error;
  std::set<std::int64_t> begins;
  std::set<std::int64_t> ends;
  for (const TraceFlowPoint& point : trace.flows) {
    (point.begin ? begins : ends).insert(point.id);
  }
  EXPECT_EQ(begins, ends);
}

}  // namespace
}  // namespace slim::obs

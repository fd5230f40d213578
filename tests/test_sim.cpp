// Unit tests for the discrete-event simulator: topology arithmetic, the
// dependency executor (chains, parallelism, FIFO resources, deadlock
// detection) and transfer timing.

#include <gtest/gtest.h>

#include "src/obs/json.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"
#include "src/sim/topology.hpp"
#include "src/sim/trace.hpp"

namespace slim::sim {
namespace {

Topology two_nodes() {
  Topology topo;
  topo.num_nodes = 2;
  topo.gpus_per_node = 8;
  return topo;
}

TEST(TopologyTest, NodeMembership) {
  const Topology topo = two_nodes();
  EXPECT_EQ(topo.world_size(), 16);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(7), 0);
  EXPECT_EQ(topo.node_of(8), 1);
  EXPECT_TRUE(topo.same_node(0, 7));
  EXPECT_FALSE(topo.same_node(7, 8));
}

TEST(TopologyTest, BandwidthSelection) {
  const Topology topo = two_nodes();
  EXPECT_DOUBLE_EQ(topo.bandwidth(0, 1), topo.nvlink_bandwidth);
  EXPECT_DOUBLE_EQ(topo.bandwidth(0, 8), topo.nic_bandwidth);
}

TEST(TopologyTest, P2PTime) {
  const Topology topo = two_nodes();
  EXPECT_DOUBLE_EQ(topo.p2p_time(0, 0, 1e9), 0.0);
  EXPECT_NEAR(topo.p2p_time(0, 1, 400e9), topo.nvlink_latency + 1.0, 1e-9);
  EXPECT_NEAR(topo.p2p_time(0, 8, 50e9), topo.nic_latency + 1.0, 1e-9);
}

TEST(TopologyTest, RingCollective) {
  const Topology topo = two_nodes();
  EXPECT_DOUBLE_EQ(topo.ring_collective_time(1, 1e9, false), 0.0);
  // 4 ranks: 3 steps of bytes/4 each.
  const double t = topo.ring_collective_time(4, 4e9, false);
  EXPECT_NEAR(t, 3 * (topo.nvlink_latency + 1e9 / 400e9), 1e-9);
}

TEST(TopologyTest, AllToAll) {
  const Topology topo = two_nodes();
  EXPECT_DOUBLE_EQ(topo.all_to_all_time(1, 1e9, true), 0.0);
  const double t = topo.all_to_all_time(4, 4e9, true);
  EXPECT_NEAR(t, 3 * topo.nic_latency + 3e9 / 50e9, 1e-9);
}

TEST(TopologyTest, MakeCluster) {
  EXPECT_EQ(make_cluster(4).world_size(), 4);
  EXPECT_EQ(make_cluster(256).num_nodes, 32);
  EXPECT_THROW(make_cluster(12), std::logic_error);
}

TEST(ExecutorTest, SerialChainOnOneDevice) {
  OpGraph g(make_cluster(1));
  g.add_compute(0, 1.0, OpClass::Forward, {});
  g.add_compute(0, 2.0, OpClass::Forward, {});
  g.add_compute(0, 3.0, OpClass::Backward, {});
  const ExecResult r = execute(g);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.timings[1].start, 1.0);
  EXPECT_DOUBLE_EQ(r.timings[2].start, 3.0);
  EXPECT_DOUBLE_EQ(r.bubble_fraction(0), 0.0);
}

TEST(ExecutorTest, IndependentDevicesRunInParallel) {
  OpGraph g(make_cluster(2));
  g.add_compute(0, 5.0, OpClass::Forward, {});
  g.add_compute(1, 3.0, OpClass::Forward, {});
  const ExecResult r = execute(g);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.timings[1].start, 0.0);
  EXPECT_NEAR(r.bubble_fraction(1), 0.4, 1e-12);
}

TEST(ExecutorTest, CrossDeviceDependencyDelays) {
  OpGraph g(make_cluster(2));
  const OpId a = g.add_compute(0, 2.0, OpClass::Forward, {});
  g.add_compute(1, 1.0, OpClass::Forward, {a});
  const ExecResult r = execute(g);
  EXPECT_DOUBLE_EQ(r.timings[1].start, 2.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(ExecutorTest, TransferOccupiesChannel) {
  OpGraph g(make_cluster(2));
  const OpId a = g.add_compute(0, 1.0, OpClass::Forward, {});
  // 400e9 bytes over NVLink 400 GB/s = 1s + latency.
  const OpId x = g.add_transfer(0, 1, 400e9, OpClass::Send, {a});
  g.add_compute(1, 1.0, OpClass::Forward, {x});
  const ExecResult r = execute(g);
  EXPECT_NEAR(r.timings[2].start, 2.0 + g.topology().nvlink_latency, 1e-9);
}

TEST(ExecutorTest, ChannelFifoSerializes) {
  OpGraph g(make_cluster(2));
  const OpId a = g.add_compute(0, 0.0, OpClass::Forward, {});
  const OpId x1 = g.add_transfer(0, 1, 400e9, OpClass::Send, {a});
  const OpId x2 = g.add_transfer(0, 1, 400e9, OpClass::Send, {a});
  const ExecResult r = execute(g);
  EXPECT_GE(r.timings[x2].start, r.timings[x1].end);
}

TEST(ExecutorTest, LanesAreIndependent) {
  OpGraph g(make_cluster(2));
  const OpId a = g.add_compute(0, 0.0, OpClass::Forward, {});
  const OpId x1 = g.add_transfer(0, 1, 400e9, OpClass::Send, {a}, /*lane=*/0);
  const OpId x2 = g.add_transfer(0, 1, 400e9, OpClass::Send, {a}, /*lane=*/1);
  const ExecResult r = execute(g);
  EXPECT_DOUBLE_EQ(r.timings[x1].start, r.timings[x2].start);
}

TEST(ExecutorTest, DeadlockDetected) {
  OpGraph g(make_cluster(2));
  // Device 0 program: A then B. Device 1 program: C then D.
  // A depends on D, D depends on... make a cross cycle via program order:
  // A <- D and C <- B: A blocks B (program), B -> C dep, C blocks D
  // (program), D -> A dep: cycle.
  const OpId a = g.add_compute(0, 1.0, OpClass::Forward, {});
  const OpId b = g.add_compute(0, 1.0, OpClass::Forward, {});
  const OpId c = g.add_compute(1, 1.0, OpClass::Forward, {b});
  const OpId d = g.add_compute(1, 1.0, OpClass::Forward, {});
  g.op(a).deps.push_back(d);
  (void)c;
  EXPECT_THROW(execute(g), std::logic_error);
}

TEST(ExecutorTest, CommOpsDoNotCountAsComputeBusy) {
  OpGraph g(make_cluster(2));
  const OpId a = g.add_compute(0, 1.0, OpClass::Forward, {});
  g.add_transfer(0, 1, 400e9, OpClass::Send, {a});
  const ExecResult r = execute(g);
  EXPECT_DOUBLE_EQ(r.compute_busy[0], 1.0);
}

TEST(ExecutorTest, MeanBubble) {
  OpGraph g(make_cluster(2));
  g.add_compute(0, 4.0, OpClass::Forward, {});
  g.add_compute(1, 2.0, OpClass::Forward, {});
  const ExecResult r = execute(g);
  EXPECT_NEAR(r.mean_bubble_fraction(2), 0.25, 1e-12);
}

TEST(TraceTest, AsciiTimelineShape) {
  OpGraph g(make_cluster(2));
  const OpId a = g.add_compute(0, 1.0, OpClass::Forward, {});
  g.add_compute(1, 1.0, OpClass::Backward, {a});
  const ExecResult r = execute(g);
  AsciiTraceOptions opts;
  opts.width = 20;
  const std::string s = ascii_timeline(g, r, opts);
  EXPECT_NE(s.find("dev 0"), std::string::npos);
  EXPECT_NE(s.find("dev 1"), std::string::npos);
  EXPECT_NE(s.find('F'), std::string::npos);
  EXPECT_NE(s.find('B'), std::string::npos);
}

TEST(TraceTest, ChromeTraceIsJsonArray) {
  OpGraph g(make_cluster(1));
  g.add_compute(0, 1.0, OpClass::Forward, {});
  const ExecResult r = execute(g);
  const std::string json = obs::chrome_trace_json(obs::trace_from_sim(g, r));
  // The exporter's output must parse as a JSON array of event objects with
  // at least one complete ("X") event.
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(json, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_array());
  bool saw_complete = false;
  for (const auto& event : doc.array()) {
    const obs::JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->is_string() && ph->str() == "X") saw_complete = true;
  }
  EXPECT_TRUE(saw_complete);
}

TEST(GraphTest, MemDeltaAttached) {
  OpGraph g(make_cluster(1));
  const OpId a = g.add_compute(0, 1.0, OpClass::Forward, {});
  g.add_mem(a, {0, 1, 100.0, false});
  EXPECT_EQ(g.op(a).mem.size(), 1u);
  EXPECT_DOUBLE_EQ(g.op(a).mem[0].bytes, 100.0);
}

TEST(GraphTest, OpIdRangeChecked) {
  OpGraph g(make_cluster(1));
  EXPECT_THROW(g.op(0), std::logic_error);
  EXPECT_THROW(g.op(-1), std::logic_error);
}

}  // namespace
}  // namespace slim::sim

#include "graph/processing_graph.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "common/check.h"

namespace aces::graph {
namespace {

/// ingress -> middle -> egress on two nodes.
ProcessingGraph small_chain() {
  ProcessingGraph g;
  const NodeId n0 = g.add_node({1.0, "n0"});
  const NodeId n1 = g.add_node({1.0, "n1"});
  const StreamId s = g.add_stream({100.0, 0.0, "s"});
  PeDescriptor ingress;
  ingress.kind = PeKind::kIngress;
  ingress.node = n0;
  ingress.input_stream = s;
  PeDescriptor middle;
  middle.kind = PeKind::kIntermediate;
  middle.node = n1;
  PeDescriptor egress;
  egress.kind = PeKind::kEgress;
  egress.node = n1;
  const PeId a = g.add_pe(ingress);
  const PeId b = g.add_pe(middle);
  const PeId c = g.add_pe(egress);
  g.add_edge(a, b);
  g.add_edge(b, c);
  return g;
}

TEST(ProcessingGraphTest, CountsAndAccessors) {
  const ProcessingGraph g = small_chain();
  EXPECT_EQ(g.pe_count(), 3u);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.stream_count(), 1u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.pe(PeId(0)).kind, PeKind::kIngress);
  EXPECT_EQ(g.node(NodeId(1)).name, "n1");
  EXPECT_DOUBLE_EQ(g.stream(StreamId(0)).mean_rate, 100.0);
  EXPECT_EQ(g.edge(EdgeId(0)).from, PeId(0));
}

TEST(ProcessingGraphTest, UpstreamDownstreamAdjacency) {
  const ProcessingGraph g = small_chain();
  EXPECT_TRUE(g.upstream(PeId(0)).empty());
  ASSERT_EQ(g.downstream(PeId(0)).size(), 1u);
  EXPECT_EQ(g.downstream(PeId(0))[0], PeId(1));
  ASSERT_EQ(g.upstream(PeId(2)).size(), 1u);
  EXPECT_EQ(g.upstream(PeId(2))[0], PeId(1));
  EXPECT_TRUE(g.downstream(PeId(2)).empty());
}

TEST(ProcessingGraphTest, PesOnNodeTracksPlacement) {
  const ProcessingGraph g = small_chain();
  EXPECT_EQ(g.pes_on_node(NodeId(0)).size(), 1u);
  EXPECT_EQ(g.pes_on_node(NodeId(1)).size(), 2u);
}

TEST(ProcessingGraphTest, TopologicalOrderRespectsEdges) {
  const ProcessingGraph g = small_chain();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 3u);
  const auto pos = [&](PeId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(PeId(0)), pos(PeId(1)));
  EXPECT_LT(pos(PeId(1)), pos(PeId(2)));
}

TEST(ProcessingGraphTest, CycleDetected) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  const StreamId s = g.add_stream();
  PeDescriptor ingress;
  ingress.kind = PeKind::kIngress;
  ingress.node = n;
  ingress.input_stream = s;
  PeDescriptor mid;
  mid.kind = PeKind::kIntermediate;
  mid.node = n;
  const PeId a = g.add_pe(ingress);
  const PeId b = g.add_pe(mid);
  const PeId c = g.add_pe(mid);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, b);  // cycle b -> c -> b
  EXPECT_THROW(g.topological_order(), CheckFailure);
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(ProcessingGraphTest, ValidateAcceptsWellFormedGraph) {
  EXPECT_NO_THROW(small_chain().validate());
}

TEST(ProcessingGraphTest, ValidateRejectsIngressWithUpstream) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  const StreamId s = g.add_stream();
  PeDescriptor ing;
  ing.kind = PeKind::kIngress;
  ing.node = n;
  ing.input_stream = s;
  PeDescriptor ing2 = ing;
  ing2.input_stream = g.add_stream();
  PeDescriptor egress;
  egress.kind = PeKind::kEgress;
  egress.node = n;
  const PeId a = g.add_pe(ing);
  const PeId b = g.add_pe(ing2);
  const PeId c = g.add_pe(egress);
  g.add_edge(a, b);  // ingress feeding ingress
  g.add_edge(b, c);
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(ProcessingGraphTest, ValidateRejectsDanglingIntermediate) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  const StreamId s = g.add_stream();
  PeDescriptor ing;
  ing.kind = PeKind::kIngress;
  ing.node = n;
  ing.input_stream = s;
  PeDescriptor mid;
  mid.kind = PeKind::kIntermediate;
  mid.node = n;
  const PeId a = g.add_pe(ing);
  const PeId b = g.add_pe(mid);
  g.add_edge(a, b);  // b has no downstream
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(ProcessingGraphTest, ValidateRejectsEgressWithDownstream) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  const StreamId s = g.add_stream();
  PeDescriptor ing;
  ing.kind = PeKind::kIngress;
  ing.node = n;
  ing.input_stream = s;
  PeDescriptor egress;
  egress.kind = PeKind::kEgress;
  egress.node = n;
  const PeId a = g.add_pe(ing);
  const PeId b = g.add_pe(egress);
  const PeId c = g.add_pe(egress);
  g.add_edge(a, b);
  g.add_edge(b, c);  // egress feeding egress
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(ProcessingGraphTest, AddPeValidatesDescriptor) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  PeDescriptor d;
  d.kind = PeKind::kIntermediate;
  d.node = NodeId(5);  // unknown node
  EXPECT_THROW(g.add_pe(d), CheckFailure);
  d.node = n;
  d.buffer_capacity = 0;
  EXPECT_THROW(g.add_pe(d), CheckFailure);
  d.buffer_capacity = 10;
  d.service_time[0] = 0.0;
  EXPECT_THROW(g.add_pe(d), CheckFailure);
}

TEST(ProcessingGraphTest, AddPeBoundsSelectivity) {
  // The PE kernel casts the selectivity credit to int and ⌊selectivity⌋ to
  // size_t, and a Lock-Step PE pre-sizes its hold from it, so a value past
  // kMaxSelectivity, or not finite, is refused where the graph is built.
  ProcessingGraph g;
  const NodeId n = g.add_node();
  PeDescriptor d;
  d.kind = PeKind::kIntermediate;
  d.node = n;
  for (const double bad : {1e30, 2 * kMaxSelectivity,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    d.selectivity = bad;
    EXPECT_THROW(g.add_pe(d), CheckFailure) << bad;
  }
  EXPECT_EQ(g.pe_count(), 0u);
  d.selectivity = kMaxSelectivity;
  EXPECT_NO_THROW(g.add_pe(d));
  d.selectivity = 0.0;
  EXPECT_NO_THROW(g.add_pe(d));
}

TEST(ProcessingGraphTest, IngressRequiresStream) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  PeDescriptor d;
  d.kind = PeKind::kIngress;
  d.node = n;
  EXPECT_THROW(g.add_pe(d), CheckFailure);  // no stream
  d.kind = PeKind::kIntermediate;
  d.input_stream = StreamId(0);
  EXPECT_THROW(g.add_pe(d), CheckFailure);  // stream on non-ingress
}

TEST(ProcessingGraphTest, EdgeValidation) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  PeDescriptor mid;
  mid.kind = PeKind::kIntermediate;
  mid.node = n;
  const PeId a = g.add_pe(mid);
  const PeId b = g.add_pe(mid);
  EXPECT_THROW(g.add_edge(a, a), CheckFailure);       // self loop
  EXPECT_THROW(g.add_edge(a, PeId(9)), CheckFailure);  // unknown target
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), CheckFailure);  // duplicate
}

TEST(ProcessingGraphTest, FanMetrics) {
  ProcessingGraph g;
  const NodeId n = g.add_node();
  PeDescriptor mid;
  mid.kind = PeKind::kIntermediate;
  mid.node = n;
  const PeId a = g.add_pe(mid);
  const PeId b = g.add_pe(mid);
  const PeId c = g.add_pe(mid);
  const PeId d = g.add_pe(mid);
  g.add_edge(a, d);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.add_edge(a, b);
  EXPECT_EQ(g.max_fan_in(), 3u);
  EXPECT_EQ(g.max_fan_out(), 2u);
}

TEST(PeDescriptorTest, ServiceTimeAverages) {
  PeDescriptor d;
  d.service_time[0] = 0.002;
  d.service_time[1] = 0.020;
  d.sojourn_mean[0] = 10.0;
  d.sojourn_mean[1] = 1.0;
  const double p1 = 1.0 / 11.0;
  EXPECT_NEAR(d.state1_fraction(), p1, 1e-12);
  EXPECT_NEAR(d.mean_service_time(),
              (1 - p1) * 0.002 + p1 * 0.020, 1e-12);
  EXPECT_NEAR(d.effective_service_time(),
              1.0 / ((1 - p1) / 0.002 + p1 / 0.020), 1e-12);
  // Jensen: harmonic (rate) mean below arithmetic mean.
  EXPECT_LT(d.effective_service_time(), d.mean_service_time());
}

TEST(PeDescriptorTest, RateMapRoundTrip) {
  PeDescriptor d;
  const double rate = d.input_rate_at_cpu(0.5);
  EXPECT_GT(rate, 0.0);
  EXPECT_NEAR(d.cpu_for_input_rate(rate), 0.5, 1e-9);
}

TEST(PeDescriptorTest, RateMapClampsAtZero) {
  PeDescriptor d;
  d.cpu_overhead = 0.01;
  EXPECT_EQ(d.input_rate_at_cpu(0.0), 0.0);
  EXPECT_EQ(d.input_rate_at_cpu(0.005), 0.0);  // below overhead
  EXPECT_GT(d.input_rate_at_cpu(0.02), 0.0);
}

}  // namespace
}  // namespace aces::graph

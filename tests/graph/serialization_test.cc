#include "graph/serialization.h"

#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "graph/dot_export.h"
#include "graph/topology_generator.h"

namespace aces::graph {
namespace {

TEST(SerializationTest, RoundTripPreservesStructure) {
  const ProcessingGraph original =
      generate_topology(TopologyParams{}, /*seed=*/5);
  const ProcessingGraph copy = topology_from_string(to_string(original));
  ASSERT_EQ(copy.pe_count(), original.pe_count());
  ASSERT_EQ(copy.node_count(), original.node_count());
  ASSERT_EQ(copy.stream_count(), original.stream_count());
  ASSERT_EQ(copy.edge_count(), original.edge_count());
  // Structural equality via the DOT rendering...
  EXPECT_EQ(to_dot(copy), to_dot(original));
  // ...and field-exact equality for every descriptor.
  for (PeId id : original.all_pes()) {
    const auto& a = original.pe(id);
    const auto& b = copy.pe(id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.node, b.node);
    EXPECT_DOUBLE_EQ(a.service_time[0], b.service_time[0]);
    EXPECT_DOUBLE_EQ(a.service_time[1], b.service_time[1]);
    EXPECT_DOUBLE_EQ(a.sojourn_mean[0], b.sojourn_mean[0]);
    EXPECT_DOUBLE_EQ(a.sojourn_mean[1], b.sojourn_mean[1]);
    EXPECT_DOUBLE_EQ(a.selectivity, b.selectivity);
    EXPECT_DOUBLE_EQ(a.bytes_per_sdo, b.bytes_per_sdo);
    EXPECT_DOUBLE_EQ(a.weight, b.weight);
    EXPECT_EQ(a.buffer_capacity, b.buffer_capacity);
    EXPECT_DOUBLE_EQ(a.cpu_overhead, b.cpu_overhead);
    EXPECT_EQ(a.input_stream, b.input_stream);
  }
  for (std::size_t s = 0; s < original.stream_count(); ++s) {
    const StreamId id(static_cast<StreamId::value_type>(s));
    EXPECT_DOUBLE_EQ(original.stream(id).mean_rate, copy.stream(id).mean_rate);
    EXPECT_DOUBLE_EQ(original.stream(id).burstiness,
                     copy.stream(id).burstiness);
  }
}

TEST(SerializationTest, RoundTripIsIdempotent) {
  const ProcessingGraph g = generate_topology(TopologyParams{}, 9);
  const std::string once = to_string(g);
  const std::string twice = to_string(topology_from_string(once));
  EXPECT_EQ(once, twice);
}

TEST(SerializationTest, RoundTrippedGraphValidates) {
  const ProcessingGraph g = generate_topology(TopologyParams{}, 13);
  EXPECT_NO_THROW(topology_from_string(to_string(g)).validate());
}

TEST(SerializationTest, EmptyNamesUseDashPlaceholder) {
  ProcessingGraph g;
  g.add_node(NodeDescriptor{1.0, ""});
  const std::string text = to_string(g);
  EXPECT_NE(text.find("node 1 -"), std::string::npos);
  const ProcessingGraph copy = topology_from_string(text);
  EXPECT_TRUE(copy.node(NodeId(0)).name.empty());
}

TEST(SerializationTest, RejectsWhitespaceInNames) {
  ProcessingGraph g;
  g.add_node(NodeDescriptor{1.0, "has space"});
  EXPECT_THROW(to_string(g), CheckFailure);
}

TEST(SerializationTest, RejectsBadHeader) {
  EXPECT_THROW(topology_from_string("not-a-topology 1\n"), CheckFailure);
  EXPECT_THROW(topology_from_string("aces-topology 2\n"), CheckFailure);
}

TEST(SerializationTest, RejectsUnknownRecord) {
  EXPECT_THROW(topology_from_string("aces-topology 1\nbogus 1 2\n"),
               CheckFailure);
}

TEST(SerializationTest, RejectsStructurallyInvalidReferences) {
  // PE on a node that does not exist.
  EXPECT_THROW(
      topology_from_string(
          "aces-topology 1\n"
          "pe intermediate 0 0.002 0.02 10 1 1 1024 1 50 0.002 -\n"),
      CheckFailure);
}

TEST(SerializationTest, RejectsStreamRatesThatFreezeVirtualTime) {
  try {
    (void)topology_from_string("aces-topology 1\nstream 1e17 0 feed\n");
    FAIL() << "a 1e17 SDO/s stream line was accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("stream rate 1e+17 outside [0, "
                                         "1e+09] SDO/s"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(
      (void)topology_from_string("aces-topology 1\nstream 1e9 0 feed\n"));
}

TEST(SerializationTest, DoublesSurviveExactly) {
  // 17 significant digits round-trip doubles exactly.
  ProcessingGraph g;
  const NodeId n = g.add_node();
  PeDescriptor d;
  d.kind = PeKind::kIntermediate;
  d.node = n;
  d.selectivity = 1.0 / 3.0;
  d.weight = 0.1 + 0.2;  // famously not 0.3
  g.add_pe(d);
  const ProcessingGraph copy = topology_from_string(to_string(g));
  EXPECT_EQ(copy.pe(PeId(0)).selectivity, d.selectivity);
  EXPECT_EQ(copy.pe(PeId(0)).weight, d.weight);
}

}  // namespace
}  // namespace aces::graph

#include "graph/processing_graph.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace aces::graph {

namespace {

void check_stream_rate(const StreamDescriptor& desc) {
  ACES_CHECK_MSG(desc.mean_rate >= 0.0 && desc.mean_rate <= kMaxStreamRate,
                 "stream rate " << desc.mean_rate << " outside [0, "
                                << kMaxStreamRate << "] SDO/s");
}

}  // namespace

const char* to_string(PeKind kind) {
  switch (kind) {
    case PeKind::kIngress: return "ingress";
    case PeKind::kIntermediate: return "intermediate";
    case PeKind::kEgress: return "egress";
  }
  return "?";
}

NodeId ProcessingGraph::add_node(NodeDescriptor desc) {
  ACES_CHECK_MSG(desc.cpu_capacity > 0.0, "node capacity must be positive");
  nodes_.push_back(std::move(desc));
  on_node_.emplace_back();
  return NodeId(static_cast<NodeId::value_type>(nodes_.size() - 1));
}

StreamId ProcessingGraph::add_stream(StreamDescriptor desc) {
  check_stream_rate(desc);
  streams_.push_back(std::move(desc));
  return StreamId(static_cast<StreamId::value_type>(streams_.size() - 1));
}

PeId ProcessingGraph::add_pe(PeDescriptor desc) {
  ACES_CHECK_MSG(desc.node.valid() && desc.node.value() < nodes_.size(),
                 "PE placed on unknown node");
  ACES_CHECK_MSG(desc.service_time[0] > 0.0 && desc.service_time[1] > 0.0,
                 "service times must be positive");
  ACES_CHECK_MSG(desc.sojourn_mean[0] > 0.0 && desc.sojourn_mean[1] > 0.0,
                 "sojourn means must be positive");
  ACES_CHECK_MSG(desc.selectivity >= 0.0 &&
                     desc.selectivity <= kMaxSelectivity,
                 "selectivity " << desc.selectivity << " outside [0, "
                                << kMaxSelectivity << "]");
  ACES_CHECK_MSG(desc.buffer_capacity > 0, "buffer capacity must be positive");
  ACES_CHECK_MSG(desc.weight >= 0.0, "weight must be non-negative");
  if (desc.kind == PeKind::kIngress) {
    ACES_CHECK_MSG(
        desc.input_stream.valid() && desc.input_stream.value() < streams_.size(),
        "ingress PE must reference an existing stream");
  } else {
    ACES_CHECK_MSG(!desc.input_stream.valid(),
                   "only ingress PEs may reference a stream");
  }
  const PeId id(static_cast<PeId::value_type>(pes_.size()));
  pes_.push_back(desc);
  upstream_.emplace_back();
  downstream_.emplace_back();
  on_node_[desc.node.value()].push_back(id);
  return id;
}

EdgeId ProcessingGraph::add_edge(PeId from, PeId to) {
  ACES_CHECK_MSG(from.valid() && from.value() < pes_.size(), "bad edge source");
  ACES_CHECK_MSG(to.valid() && to.value() < pes_.size(), "bad edge target");
  ACES_CHECK_MSG(from != to, "self-loop edge");
  const auto& existing = downstream_[from.value()];
  ACES_CHECK_MSG(std::find(existing.begin(), existing.end(), to) ==
                     existing.end(),
                 "duplicate edge " << from << " -> " << to);
  edges_.push_back(Edge{from, to});
  downstream_[from.value()].push_back(to);
  upstream_[to.value()].push_back(from);
  return EdgeId(static_cast<EdgeId::value_type>(edges_.size() - 1));
}

const PeDescriptor& ProcessingGraph::pe(PeId id) const {
  ACES_CHECK(id.valid() && id.value() < pes_.size());
  return pes_[id.value()];
}

PeDescriptor& ProcessingGraph::pe(PeId id) {
  ACES_CHECK(id.valid() && id.value() < pes_.size());
  return pes_[id.value()];
}

const NodeDescriptor& ProcessingGraph::node(NodeId id) const {
  ACES_CHECK(id.valid() && id.value() < nodes_.size());
  return nodes_[id.value()];
}

NodeDescriptor& ProcessingGraph::node(NodeId id) {
  ACES_CHECK(id.valid() && id.value() < nodes_.size());
  return nodes_[id.value()];
}

const StreamDescriptor& ProcessingGraph::stream(StreamId id) const {
  ACES_CHECK(id.valid() && id.value() < streams_.size());
  return streams_[id.value()];
}

StreamDescriptor& ProcessingGraph::stream(StreamId id) {
  ACES_CHECK(id.valid() && id.value() < streams_.size());
  return streams_[id.value()];
}

const Edge& ProcessingGraph::edge(EdgeId id) const {
  ACES_CHECK(id.valid() && id.value() < edges_.size());
  return edges_[id.value()];
}

const std::vector<PeId>& ProcessingGraph::upstream(PeId id) const {
  ACES_CHECK(id.valid() && id.value() < pes_.size());
  return upstream_[id.value()];
}

const std::vector<PeId>& ProcessingGraph::downstream(PeId id) const {
  ACES_CHECK(id.valid() && id.value() < pes_.size());
  return downstream_[id.value()];
}

const std::vector<PeId>& ProcessingGraph::pes_on_node(NodeId id) const {
  ACES_CHECK(id.valid() && id.value() < nodes_.size());
  return on_node_[id.value()];
}

std::vector<PeId> ProcessingGraph::all_pes() const {
  std::vector<PeId> out;
  out.reserve(pes_.size());
  for (std::size_t i = 0; i < pes_.size(); ++i)
    out.emplace_back(static_cast<PeId::value_type>(i));
  return out;
}

std::vector<NodeId> ProcessingGraph::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    out.emplace_back(static_cast<NodeId::value_type>(i));
  return out;
}

std::vector<PeId> ProcessingGraph::topological_order() const {
  std::vector<std::size_t> in_degree(pes_.size(), 0);
  for (const auto& e : edges_) ++in_degree[e.to.value()];
  std::deque<PeId> ready;
  for (std::size_t i = 0; i < pes_.size(); ++i)
    if (in_degree[i] == 0) ready.emplace_back(static_cast<PeId::value_type>(i));
  std::vector<PeId> order;
  order.reserve(pes_.size());
  while (!ready.empty()) {
    const PeId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (PeId next : downstream_[id.value()]) {
      if (--in_degree[next.value()] == 0) ready.push_back(next);
    }
  }
  ACES_CHECK_MSG(order.size() == pes_.size(), "processing graph has a cycle");
  return order;
}

void ProcessingGraph::validate() const {
  (void)topological_order();  // throws on cycle
  // Rates can change after add_stream (the generator scales them).
  for (const StreamDescriptor& stream : streams_) check_stream_rate(stream);
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    const PeId id(static_cast<PeId::value_type>(i));
    const PeDescriptor& d = pes_[i];
    switch (d.kind) {
      case PeKind::kIngress:
        ACES_CHECK_MSG(upstream_[i].empty(),
                       id << " is ingress but has upstream PEs");
        ACES_CHECK_MSG(!downstream_[i].empty(),
                       id << " is ingress but feeds nothing");
        break;
      case PeKind::kIntermediate:
        ACES_CHECK_MSG(!upstream_[i].empty(),
                       id << " is intermediate but has no upstream PEs");
        ACES_CHECK_MSG(!downstream_[i].empty(),
                       id << " is intermediate but feeds nothing");
        break;
      case PeKind::kEgress:
        ACES_CHECK_MSG(!upstream_[i].empty(),
                       id << " is egress but has no upstream PEs");
        ACES_CHECK_MSG(downstream_[i].empty(),
                       id << " is egress but has downstream PEs");
        break;
    }
  }
}

std::size_t ProcessingGraph::max_fan_in() const {
  std::size_t worst = 0;
  for (const auto& ups : upstream_) worst = std::max(worst, ups.size());
  return worst;
}

std::size_t ProcessingGraph::max_fan_out() const {
  std::size_t worst = 0;
  for (const auto& downs : downstream_) worst = std::max(worst, downs.size());
  return worst;
}

}  // namespace aces::graph

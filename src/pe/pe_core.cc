#include "pe/pe_core.h"

#include "common/check.h"
#include "fault/fault_injector.h"

namespace aces::pe {

bool delivery_lost(fault::FaultInjector* injector,
                   const graph::ProcessingGraph& g, PeId pe, Seconds t) {
  return injector != nullptr && (injector->node_down(g.pe(pe).node, t) ||
                                 injector->drop_delivery(pe, t));
}

std::size_t egress_count(const graph::ProcessingGraph& g) {
  std::size_t count = 0;
  for (PeId id : g.all_pes()) count += g.pe(id).kind == graph::PeKind::kEgress;
  return count;
}

std::unique_ptr<workload::ArrivalProcess> make_process(
    const ArrivalFactory& factory, StreamId stream,
    const graph::StreamDescriptor& desc, Rng rng) {
  auto process = factory ? factory(stream, desc, std::move(rng))
                         : workload::make_arrival_process(desc, std::move(rng));
  ACES_CHECK_MSG(process != nullptr,
                 "arrival factory returned null for stream " << stream);
  return process;
}

std::vector<Source> make_sources(const graph::ProcessingGraph& g, Rng& master,
                                 const ArrivalFactory& factory,
                                 const std::function<bool(NodeId)>& hosted) {
  std::vector<Source> sources;
  for (PeId id : g.all_pes()) {
    const graph::PeDescriptor& d = g.pe(id);
    if (d.kind != graph::PeKind::kIngress) continue;
    Rng stream_rng = master.fork(0xA11 + id.value());
    if (hosted && !hosted(d.node)) continue;
    sources.push_back(Source{id,
                             make_process(factory, d.input_stream,
                                          g.stream(d.input_stream),
                                          std::move(stream_rng)),
                             0.0});
  }
  return sources;
}

const std::vector<control::PeTickOutput>& tick(
    control::NodeController& controller, Seconds dt,
    const std::vector<control::PeTickInput>& inputs, obs::Timer timer) {
  const obs::ScopedTimer scope(timer);
  return controller.tick(dt, inputs);
}

obs::TickRecord tick_record(const control::NodeController& controller,
                            std::size_t i, Seconds now, Seconds staleness,
                            const control::PeTickInput& in,
                            const control::PeTickOutput& out,
                            double cpu_share, std::uint64_t dropped_total,
                            const fault::FaultInjector* injector) {
  const PeId pe = controller.local_pes()[i];
  obs::TickRecord rec;
  rec.time = now;
  rec.node = controller.node().value();
  rec.pe = pe.value();
  rec.buffer_occupancy = in.buffer_occupancy;
  rec.arrived_sdos = in.arrived_sdos;
  rec.processed_sdos = in.processed_sdos;
  rec.cpu_share = cpu_share;
  rec.cpu_seconds_used = in.cpu_seconds_used;
  rec.advertised_rmax = out.advertised_rmax;
  rec.downstream_rmax = in.downstream_rmax;
  rec.token_fill = controller.tokens(i);
  rec.output_blocked = in.output_blocked;
  rec.dropped_total = dropped_total;
  if (injector != nullptr && injector->pe_stalled(pe, now)) {
    rec.fault_flags |= obs::kFaultPeStalled;
  }
  // An egress PE's age is 0, so only a PE with consumers can read stale.
  if (staleness > 0.0 && in.downstream_advert_age > staleness) {
    rec.fault_flags |= obs::kFaultAdvertStale;
  }
  return rec;
}

}  // namespace aces::pe

// Layer unit costs, measured by replaying each layer's public entry point
// in isolation (the traced rep multiplies them by the run's exact counts).
//
// Each replay subtracts the work of the layers below it that it cannot
// avoid — scheduler events at sim_ns_per_event, link frames at
// phys_ns_per_frame — so the unit costs do not overlap and the estimates
// can be summed. Every figure is the median of several repetitions.
#pragma once

namespace netclone::benchmark {

struct UnitCosts {
  /// sim::Simulator schedule_at + fire, on a wheel holding a few hundred
  /// pending events.
  double sim_ns_per_event = 0.0;
  /// phys::Link::transmit through delivery into a node, minus the event.
  double phys_ns_per_frame = 0.0;
  /// wire::Packet::parse_backed of a NetClone request frame.
  double wire_ns_per_parse = 0.0;
  /// pisa::SwitchDevice::handle_frame running NetCloneProgram (parse,
  /// pass, deparse), minus events and link frames.
  double pisa_ns_per_pass = 0.0;
  /// host::Server::handle_frame through the response leaving the server
  /// (zero-cost service), minus events and link frames.
  double host_server_ns_per_request = 0.0;
};

[[nodiscard]] UnitCosts measure_unit_costs();

/// KvService::execute per op on a 1M-object Zipf-0.99 store, plus the
/// time to populate that store — for runs that issue no KV operations.
struct KvCosts {
  double get_ns = 0.0;
  double scan_ns = 0.0;
  double set_ns = 0.0;
  double populate_s = 0.0;
};

[[nodiscard]] KvCosts measure_kv_costs();

}  // namespace netclone::benchmark

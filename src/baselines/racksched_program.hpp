// RackSched (OSDI'20): in-switch Join-the-Shortest-Queue scheduling with
// the power of two choices, reimplemented on our PISA model as the paper's
// integration partner (§3.7) and Fig. 10 comparison point.
//
// The switch samples two random servers per request, compares their tracked
// queue lengths, and forwards to the shorter queue. Queue lengths are
// learned from the STATE field servers piggyback on responses (the same
// signal NetClone uses). Because one register array cannot be read twice in
// a pass, the second sample reads a shadow copy — the identical trick
// NetClone needs for its state table.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "pisa/program.hpp"
#include "pisa/resources.hpp"
#include "wire/ipv4.hpp"

namespace netclone::baselines {

struct RackSchedStats {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t second_choice_wins = 0;  // the shadow sample had less load
  std::uint64_t missing_route_drops = 0;
};

class RackSchedProgram final : public pisa::SwitchProgram {
 public:
  RackSchedProgram(pisa::Pipeline& pipeline, std::size_t max_servers,
                   std::uint64_t rng_seed);

  /// Registers a schedulable worker.
  void add_server(ServerId sid, wire::Ipv4Address ip, std::size_t port);
  /// Plain route for clients.
  void add_route(wire::Ipv4Address ip, std::size_t port);

  void on_ingress(wire::PacketView& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override { return "RackSched"; }
  [[nodiscard]] const RackSchedStats& stats() const { return stats_; }

 private:
  void handle_request(wire::PacketView& pkt, pisa::PacketMetadata& md,
                      pisa::PipelinePass& pass);

  std::size_t num_servers_ = 0;
  pisa::RandomUnit random_;
  pisa::RegisterArray<std::uint16_t> load_table_;
  pisa::RegisterArray<std::uint16_t> shadow_load_table_;
  pisa::ExactMatchTable<wire::Ipv4Address> addr_table_;
  pisa::ExactMatchTable<std::size_t> fwd_table_;
  RackSchedStats stats_;
};

}  // namespace netclone::baselines

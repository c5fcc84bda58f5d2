// Plain L2/L3 routing program: what the rack switch runs for the paper's
// baseline (random server choice at the client), C-Clone, and LÆDGE — no
// in-network request logic at all.
#pragma once

#include <cstdint>

#include "pisa/program.hpp"
#include "pisa/resources.hpp"
#include "wire/ipv4.hpp"

namespace netclone::baselines {

struct L3Stats {
  std::uint64_t forwarded = 0;
  std::uint64_t missing_route_drops = 0;
};

class L3ForwardProgram final : public pisa::SwitchProgram {
 public:
  explicit L3ForwardProgram(pisa::Pipeline& pipeline);

  void add_route(wire::Ipv4Address ip, std::size_t port);

  void on_ingress(wire::PacketView& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override { return "L3Forward"; }
  [[nodiscard]] const L3Stats& stats() const { return stats_; }

 private:
  pisa::ExactMatchTable<std::size_t> fwd_table_;
  L3Stats stats_;
};

}  // namespace netclone::baselines

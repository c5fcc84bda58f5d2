// Plain L3 router: the one program that routes without NetClone logic.
//
// It serves three places: the rack ToR under the schemes that steer at
// the hosts (the Baseline's random server choice, C-Clone, LÆDGE), with
// a /32 route per host; the replicated pod's client ToR; and the
// oblivious pod's aggregation switches. The last are the paper's point
// about multi-rack deployments (§3.7): aggregation switches do not need
// to be NetClone-aware at all — they run plain LPM routing and pass
// NetClone packets through untouched. The program has no parser branch
// for the NetClone header.
//
// The route capacity and port count are sized by the harness from the
// topology (a misconfigured prefix or port fails loudly at install time,
// not via a silent table miss), and a prefix may carry several next hops
// — flow-hashed ECMP over the parallel agg trunks.
#pragma once

#include <cstdint>
#include <vector>

#include "pisa/lpm_table.hpp"
#include "pisa/program.hpp"

namespace netclone::baselines {

struct RouterStats {
  std::uint64_t routed = 0;
  std::uint64_t no_route_drops = 0;
};

class RouterProgram final : public pisa::SwitchProgram {
 public:
  /// `num_ports` bounds the egress ports routes may name; `route_capacity`
  /// bounds the LPM table. Both are meant to be derived from the topology
  /// being built (ports wired, prefixes to install).
  RouterProgram(pisa::Pipeline& pipeline, std::size_t num_ports,
                std::size_t route_capacity = 4096);

  /// Installs `prefix/len -> egress port`. Throws via NETCLONE_CHECK when
  /// the port is not one of the switch's `num_ports` or the table is full.
  void add_prefix(wire::Ipv4Address prefix, std::uint8_t len,
                  std::size_t port);

  /// Installs an ECMP route: packets matching `prefix/len` are spread
  /// over `ports` by a hash of the source address (flow affinity — one
  /// sender's packets stay ordered on one path).
  void add_ecmp_prefix(wire::Ipv4Address prefix, std::uint8_t len,
                       std::vector<std::size_t> ports);

  void on_ingress(wire::PacketView& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override { return "Router"; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }

 private:
  struct NextHops {
    std::vector<std::size_t> ports;
  };

  void check_ports(const std::vector<std::size_t>& ports) const;

  std::size_t num_ports_;
  pisa::LpmTable<NextHops> routes_;
  RouterStats stats_;
};

}  // namespace netclone::baselines

// NetClone × RackSched integration (paper §3.7, Figure 10).
//
// The binary state table becomes a *load* table holding full queue lengths.
// If both candidates have empty queues the request is cloned exactly as in
// plain NetClone; otherwise the program falls back to RackSched's JSQ and
// forwards to the candidate with the shorter tracked queue. Because the
// destination now depends on the comparison, AddrT must sit *after* the
// load tables — a different compile-time stage layout than Algorithm 1,
// which is precisely the kind of constraint-juggling §3.7 alludes to.
//
// Stage layout: SEQ(0) GrpT(1) LoadT(2) ShadowLoadT(3) AddrT(4)
//               Hash+FilterT(5) FwdT(6)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/groups.hpp"
#include "core/netclone_program.hpp"
#include "pisa/program.hpp"
#include "pisa/resources.hpp"
#include "wire/ipv4.hpp"

namespace netclone::baselines {

struct NetCloneRackSchedStats {
  std::uint64_t requests = 0;
  std::uint64_t cloned_requests = 0;
  std::uint64_t jsq_fallbacks = 0;       // forwarded by queue comparison
  std::uint64_t recirculated_clones = 0;
  std::uint64_t responses = 0;
  std::uint64_t filtered_responses = 0;
  std::uint64_t missing_route_drops = 0;
};

class NetCloneRackSchedProgram final : public pisa::SwitchProgram {
 public:
  NetCloneRackSchedProgram(pisa::Pipeline& pipeline,
                           core::NetCloneConfig config);

  void add_server(ServerId sid, wire::Ipv4Address ip, std::size_t port,
                  std::uint16_t clone_mcast_group);
  void install_groups(const std::vector<core::GroupPair>& groups);
  void add_route(wire::Ipv4Address ip, std::size_t port);

  void on_ingress(wire::PacketView& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override {
    return "NetClone+RackSched";
  }
  [[nodiscard]] const NetCloneRackSchedStats& stats() const {
    return stats_;
  }

 private:
  struct AddrEntry {
    wire::Ipv4Address ip{};
    std::uint16_t mcast_group = 0;
  };

  void handle_request(wire::PacketView& pkt, pisa::PacketMetadata& md,
                      pisa::PipelinePass& pass);
  void handle_response(wire::PacketView& pkt, pisa::PacketMetadata& md,
                       pisa::PipelinePass& pass);
  void forward_to(wire::Ipv4Address ip, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass);

  core::NetCloneConfig config_;

  pisa::RegisterScalar<std::uint32_t> seq_;
  pisa::ExactMatchTable<core::GroupPair> grp_table_;
  pisa::RegisterArray<std::uint16_t> load_table_;
  pisa::RegisterArray<std::uint16_t> shadow_load_table_;
  pisa::ExactMatchTable<AddrEntry> addr_table_;
  pisa::HashUnit hash_unit_;
  std::vector<std::unique_ptr<pisa::RegisterArray<std::uint32_t>>>
      filter_tables_;
  pisa::ExactMatchTable<std::size_t> fwd_table_;

  NetCloneRackSchedStats stats_;
};

}  // namespace netclone::baselines

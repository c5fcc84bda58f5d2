#include "pisa/switch_device.hpp"

#include <utility>

#include "common/logging.hpp"

namespace netclone::pisa {

namespace {

/// The loopback port's turnaround: a copy re-enters ingress this long
/// after its egress instant.
constexpr SimTime kRecirculationLatency = SimTime::nanoseconds(450);

}  // namespace

SwitchDevice::SwitchDevice(sim::Simulator& sim, std::string name)
    : phys::Node(std::move(name)), sim::Stream(sim), sim_(sim) {}

void SwitchDevice::load_program(std::shared_ptr<SwitchProgram> program) {
  program_ = std::move(program);
}

std::size_t SwitchDevice::add_internal_port() {
  ++internal_ports_;
  return attach_egress(nullptr);
}

void SwitchDevice::set_loopback_port(std::size_t port) {
  if (port >= loopback_ports_.size()) {
    loopback_ports_.resize(port + 1, false);
  }
  loopback_ports_[port] = true;
}

void SwitchDevice::configure_multicast_group(std::uint16_t group,
                                             std::vector<std::size_t> ports) {
  mcast_groups_.insert_or_assign(group, std::move(ports));
}

void SwitchDevice::fail() {
  if (failed_) {
    return;
  }
  failed_ = true;
  fail_times_.push_back(sim_.now());
  // Copies still inside the pipeline never leave, even if the switch
  // recovers before they would have: take back the ones already handed
  // to an egress link (their ready time has not come). A loopback copy
  // finds this fail's time when it re-enters.
  const std::size_t lost = retract_not_ready();
  stats_.tx_frames -= lost;
  stats_.flushed_in_pipeline += lost;
  // A reboot wipes all stateful (register) memory: server states, the SEQ
  // counter, and filter-table fingerprints — the soft state of §3.6.
  pipeline_.reset_soft_state();
  log_info("switch '" + name() + "' failed at " + to_string(sim_.now()));
}

void SwitchDevice::recover() {
  if (!failed_) {
    return;
  }
  failed_ = false;
  log_info("switch '" + name() + "' recovered at " + to_string(sim_.now()));
}

void SwitchDevice::wipe_soft_state() {
  ++stats_.soft_state_wipes;
  pipeline_.reset_soft_state();
  log_info("switch '" + name() + "' soft state wiped at " +
           to_string(sim_.now()));
}

void SwitchDevice::handle_frame(std::size_t port, wire::FrameHandle frame) {
  process(port, std::move(frame), /*recirculated=*/false);
}

void SwitchDevice::process(std::size_t port, wire::FrameHandle frame,
                           bool recirculated) {
  ++stats_.rx_frames;
  if (failed_ || program_ == nullptr) {
    ++stats_.dropped_while_failed;
    return;
  }

  wire::PacketView pkt;
  try {
    pkt = wire::PacketView{std::move(frame)};
  } catch (const wire::CodecError&) {
    ++stats_.parse_errors;
    return;
  }

  PacketMetadata md;
  md.ingress_port = port;
  md.is_recirculated = recirculated;

  PipelinePass pass{pipeline_};
  program_->on_ingress(pkt, md, pass);

  if (md.drop) {
    ++stats_.dropped_by_program;
    return;
  }

  // Resolve the output port set; each copy is handed to its port ready one
  // pipeline latency out, as a PSA deparser hands the packet to the
  // buffering/queueing engine at the end of the pass. The program wrote
  // its fields into the frame in place, so there is nothing to deparse: a
  // multicast set shares the one frame across all output ports by
  // reference count.
  // Fixed ingress-to-egress latency of one pipeline traversal. Tofino's
  // port-to-port latency is a few hundred nanoseconds.
  static constexpr SimTime kPipelineLatency = SimTime::nanoseconds(400);
  const SimTime ready = sim_.now() + kPipelineLatency;
  if (md.multicast_group) {
    const std::vector<std::size_t>* ports =
        mcast_groups_.find(*md.multicast_group);
    if (ports == nullptr) {
      ++stats_.dropped_by_program;
      return;
    }
    if (ports->size() > 1) {
      stats_.multicast_copies += ports->size() - 1;
    }
    ++stats_.egress_scheduled;
    const wire::FrameHandle bytes = pkt.take_frame();
    for (const std::size_t p : *ports) {
      emit(p, ready, bytes);
    }
  } else if (md.egress_port) {
    ++stats_.egress_scheduled;
    emit(*md.egress_port, ready, pkt.take_frame());
  } else {
    ++stats_.dropped_by_program;  // program made no forwarding decision
  }
}

void SwitchDevice::emit(std::size_t port, SimTime ready,
                        wire::FrameHandle bytes) {
  if (is_loopback(port)) {
    // A loopback copy has no link to wait in: it re-enters ingress the
    // recirculation latency after its egress instant, in one event.
    LoopbackCopy& copy = loopback_.emplace_back();
    copy.reenter_at = ready + kRecirculationLatency;
    copy.seq = sim_.draw_seq();
    copy.port = static_cast<std::uint32_t>(port);
    copy.fails = static_cast<std::uint32_t>(fail_times_.size());
    copy.bytes = std::move(bytes);
    if (loopback_.size() == 1) {
      arm(copy.reenter_at, copy.seq);
    }
    return;
  }
  ++stats_.tx_frames;
  send_at(port, ready, std::move(bytes));
}

void SwitchDevice::fire() {
  LoopbackCopy copy = std::move(loopback_.front());
  loopback_.pop_front();
  if (!loopback_.empty()) {
    arm(loopback_.front().reenter_at, loopback_.front().seq);
  }
  // A fail at or before the copy's egress instant caught it inside the
  // pipeline; after that it was in the loop and meets the ingress as it
  // stands at re-entry.
  if (copy.fails < fail_times_.size() &&
      fail_times_[copy.fails] <= copy.reenter_at - kRecirculationLatency) {
    ++stats_.flushed_in_pipeline;
    return;
  }
  ++stats_.recirculated;
  process(copy.port, std::move(copy.bytes), /*recirculated=*/true);
}

}  // namespace netclone::pisa

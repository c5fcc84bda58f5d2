// Open-loop measurement client (paper §4.2).
//
// A sender thread generates requests with exponentially distributed
// inter-arrival times at a target rate; a receiver thread matches responses
// to outstanding requests and records end-to-end latency. Both threads are
// modeled as serial CPU resources, so redundant responses (unfiltered
// duplicates) and duplicate sends (C-Clone) consume real client capacity —
// the effect Figures 15 and 7 quantify. Neither costs an event of its own:
// the sender hands each frame to its link ready when the thread has paid
// for it, and the ingress link delivers each frame when the receiver
// thread has picked it up (Node::receive_cost). The next arrival is the
// one entry of the client's event stream (sim/stream.hpp).
//
// Each request is stamped into one frame of the client's pool (the one its
// topology handed it, phys::Node::pool) from a header template: the
// Ethernet, IPv4 and UDP headers of this client's requests to one
// destination, written once at construction. Per frame only the NetClone
// header, the RPC body and the UDP checksum are written; a C-Clone cancel
// is a header-only frame of the same pool. Responses are
// read through a wire::PacketView. A TCP-mode retransmission writes its
// frames again from the request table entry, so every attempt carries the
// same bytes (kDirectRandom re-draws its worker each attempt).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "host/addressing.hpp"
#include "host/workload.hpp"
#include "phys/node.hpp"
#include "sim/simulator.hpp"
#include "wire/packet_view.hpp"
#include "wire/rpc.hpp"
#include "wire/udp_frame.hpp"

namespace netclone::host {

/// How the client addresses requests.
enum class SendMode {
  /// One packet to the service VIP; the switch picks the destination
  /// (NetClone, RackSched and their combination).
  kViaSwitch,
  /// One packet to a uniformly random worker server (the paper's baseline).
  kDirectRandom,
  /// Two packets to two distinct random workers (C-Clone).
  kCClone,
  /// One packet to the LÆDGE coordinator.
  kToCoordinator,
};

/// Shape of the request arrival process.
enum class ArrivalProcess {
  /// Exponential inter-arrival times (the paper's open-loop client).
  kPoisson,
  /// Markov-modulated ON/OFF bursts: Poisson at an elevated rate during
  /// exponentially-distributed ON windows, silent in between. The ON
  /// windows take a quarter of the time, so bursts run at four times
  /// rate_rps and the mean rate still equals it.
  kBursty,
};

/// One step of a piecewise-constant rate profile: from `from` onward the
/// offered rate is rate_rps * multiplier, until the next segment starts.
/// Before the first segment the multiplier is 1.0.
struct RateSegment {
  SimTime from = SimTime::zero();
  double multiplier = 1.0;
};

/// What a caller chooses about a client's traffic and transport. The
/// harness templates hold only these; it fills in the rest of
/// ClientParams (identity, send mode, rate share, groups, window).
struct ClientOptions {
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// Production traffic shapes (flash crowds, diurnal curves — see
  /// harness/traffic_shapes): a piecewise-constant multiplier on rate_rps
  /// over absolute simulation time. Segments must be sorted by `from`
  /// with positive multipliers. Empty = flat rate (the draw sequence is
  /// then bit-identical to builds without this feature). Poisson
  /// arrivals only.
  std::vector<RateSegment> rate_profile{};
  /// Skewed group popularity (Zipf sweeps, rack hotspots): when
  /// non-empty, the request's candidate-group id is drawn from this
  /// weight vector (size must equal num_groups) instead of uniformly.
  /// Weights are relative, non-negative, with a positive sum.
  std::vector<double> group_weights{};
  /// Receiver-thread CPU time per received frame (a corrupted or foreign
  /// one included).
  SimTime rx_cost = SimTime::nanoseconds(300);
  /// Multi-packet requests (§3.7): each request is sent as this many
  /// fragments (at most 64) sharing one CLIENT_SEQ and group id. The
  /// switch needs enable_multipacket + client-tuple request ids for > 1.
  std::uint8_t request_fragments = 1;
  /// TCP-mode reliability (§3.7): when non-zero, an uncompleted request is
  /// re-sent after this timeout (same CLIENT_SEQ, so the switch derives
  /// the same REQ_ID in client-tuple mode), up to max_retransmits times.
  /// Retry k waits min(timeout * 2^k, 100 ms) * (1 + 0.1 * u) with
  /// u ~ U[0,1) from a per-client stream independent of the workload RNG.
  /// The growth plus jitter keeps a dead server from seeing synchronized
  /// retry storms.
  SimTime retransmit_timeout = SimTime::zero();
  std::uint32_t max_retransmits = 3;
  /// C-Clone's optional cancellation (§2.2): after the first response
  /// arrives, tell the server that has not answered to drop the queued
  /// duplicate. The paper cites evidence this buys little —
  /// bench_ablation_cancel measures it.
  bool cclone_cancel = false;
};

struct ClientParams : ClientOptions {
  std::uint16_t client_id = 0;
  SendMode mode = SendMode::kViaSwitch;
  /// Offered load in requests per second (long-run mean for kBursty).
  double rate_rps = 100000.0;
  /// Number of candidate-server groups installed in GrpT (2·C(n,2)).
  std::uint16_t num_groups = 1;
  /// Number of filter tables in the switch (the IDX field range).
  std::uint8_t num_filter_tables = 2;
  /// Worker addresses, needed by kDirectRandom / kCClone.
  std::vector<wire::Ipv4Address> server_ips{};
  /// Destination for kViaSwitch / kToCoordinator.
  wire::Ipv4Address target{};
  /// End of the sending window, which opens when start() is called.
  SimTime stop_at = SimTime::max();
  /// Samples sent before this instant are excluded from the histogram.
  SimTime warmup_until = SimTime::zero();
};

struct ClientStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t completed = 0;
  /// Completions whose response arrived inside [warmup_until, stop_at].
  std::uint64_t completed_in_window = 0;
  /// Responses for requests already completed (slipped past filtering).
  std::uint64_t redundant_responses = 0;
  /// Responses that matched no outstanding request.
  std::uint64_t unmatched_responses = 0;
  /// Frames dropped because the IPv4 or UDP checksum failed on receive.
  std::uint64_t checksum_drops = 0;
  /// Timeout-triggered re-sends (TCP mode).
  std::uint64_t retransmissions = 0;
  /// Instants of the first few retransmissions (capped recording), for
  /// backoff regression tests — gaps must grow and stay deterministic.
  std::vector<SimTime> retransmit_times;
  /// Cancel messages sent (C-Clone cancellation).
  std::uint64_t cancels_sent = 0;
  LatencyHistogram latency;
  /// Server-reported decomposition of the accepted responses: time in the
  /// FCFS queue and execution time. latency − wait − service ≈ network +
  /// host processing. Populated from the same samples as `latency`.
  LatencyHistogram server_queue_wait;
  LatencyHistogram server_service;
};

class Client : public phys::Node, private sim::Stream {
 public:
  Client(sim::Simulator& sim, ClientParams params,
         std::shared_ptr<RequestFactory> factory, Rng rng);

  /// Arms the first arrival; call once after topology wiring.
  void start();

  void handle_frame(std::size_t port, wire::FrameHandle frame) override;
  [[nodiscard]] SimTime receive_cost() const override {
    return params_.rx_cost;
  }

  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  /// Requests issued and not yet completed: an entry is erased the moment
  /// its request completes, so the table stays as small as the window of
  /// requests in flight.
  [[nodiscard]] std::size_t outstanding() const {
    return outstanding_.size();
  }

  /// Accounting for the invariant auditor: every issued request is either
  /// completed (one bit in the completion bitmap) or still in the request
  /// table. Both are counted from the client's own records, independently
  /// of the stats counters they are checked against.
  struct Audit {
    std::uint64_t completed_entries = 0;
    std::uint64_t incomplete_entries = 0;
  };
  [[nodiscard]] Audit audit() const;

  /// Control-plane reconfiguration after a server add/remove (§3.6): the
  /// operator tells clients the new group count.
  void set_num_groups(std::uint16_t num_groups) {
    params_.num_groups = num_groups;
    if (!params_.group_weights.empty()) {
      params_.group_weights.resize(num_groups, 0.0);
      group_cdf_ = weight_cdf(params_.group_weights);
    }
  }

  /// The rate multiplier a profile applies at `t` (1.0 before the first
  /// segment, and for an empty profile). Static so the traffic-shape
  /// tests exercise exactly the client's lookup.
  [[nodiscard]] static double profile_multiplier(
      const std::vector<RateSegment>& profile, SimTime t);
  /// Cumulative weights for pick_weighted; validates the vector (throws
  /// via NETCLONE_CHECK on negatives or a zero sum).
  [[nodiscard]] static std::vector<double> weight_cdf(
      const std::vector<double>& weights);
  /// Index drawn by a uniform u in [0,1) against `cdf` — the client's
  /// group draw, exposed for statistical tests.
  [[nodiscard]] static std::size_t pick_weighted(
      const std::vector<double>& cdf, double u);

 private:
  struct Pending {
    SimTime sent_at;
    std::uint64_t frag_mask = 0;  // response fragments received so far
    std::uint32_t retries = 0;
    wire::RpcRequest request{};   // kept for retransmission
    std::uint16_t grp = 0;
    std::uint8_t idx = 0;
    /// Decomposition reported by the (winning) server, from the response
    /// fragment that carried the payload.
    std::uint32_t server_wait_ns = 0;
    std::uint32_t server_service_ns = 0;
    /// C-Clone: the two chosen workers (indexes into server_ips), for
    /// targeted cancellation.
    std::array<std::uint32_t, 2> cclone_servers{};
    /// Pending retransmit timeout (TCP mode); cancelled on completion, so
    /// a completed request leaves nothing in the engine's queue.
    sim::EventId retransmit_event{};
  };

  void issue_request();
  /// The arrival the client's stream held: issues a request and arms the
  /// next arrival, unless the sending window is over.
  void fire() override;
  [[nodiscard]] std::size_t pending_events() const override {
    return armed() ? 1 : 0;
  }
  void schedule_next_arrival();
  [[nodiscard]] SimTime next_arrival_time();
  void send_cancel(const Pending& pending, std::uint32_t client_seq,
                   wire::Ipv4Address responder);
  void send_all_packets(const Pending& pending, std::uint32_t client_seq);
  /// Stamps one request frame from `headers`, writes its NetClone header,
  /// body and UDP checksum, and paces it.
  void emit_request(const wire::RpcRequest& req,
                    const wire::HeaderTemplate& headers, std::uint16_t grp,
                    std::uint8_t idx, std::uint32_t client_seq,
                    std::uint8_t frag_idx);
  /// Paces one already-serialized frame through the sender thread.
  void emit_frame(wire::FrameHandle bytes);
  void arm_retransmit_timer(std::uint32_t client_seq);
  /// Backoff delay before retry number `retries` (0-based), jittered
  /// from the dedicated retry stream.
  [[nodiscard]] SimTime retransmit_delay(std::uint32_t retries);
  /// Matches a response the receiver thread picked up against the
  /// request table and completes its request.
  void on_response_processed(const wire::PacketView& resp);
  void mark_completed(std::uint32_t client_seq);
  [[nodiscard]] bool was_completed(std::uint32_t client_seq) const;

  sim::Simulator& sim_;
  ClientParams params_;
  /// Cumulative group weights (empty = uniform draws).
  std::vector<double> group_cdf_;
  std::shared_ptr<RequestFactory> factory_;
  Rng rng_;
  /// Jitter stream for retransmit backoff — separate from the workload
  /// stream so enabling TCP-mode timeouts cannot shift arrival draws.
  Rng retry_rng_;
  wire::Ipv4Address my_ip_;
  wire::MacAddress my_mac_;
  /// Request header templates: one per entry of server_ips in the direct
  /// modes (kDirectRandom, kCClone), else one for `target`.
  std::vector<wire::HeaderTemplate> request_headers_;

  SimTime tx_busy_until_ = SimTime::zero();
  /// End of the current ON window; the first one opens lazily.
  SimTime burst_on_until_ = SimTime::zero();
  std::uint32_t next_seq_ = 1;
  /// Requests in flight, keyed by CLIENT_SEQ; erased on completion. An
  /// insert may move entries, so no Pending& survives issue_request().
  FlatMap64<Pending> outstanding_;
  /// One bit per CLIENT_SEQ, set when that request completed: a response
  /// for a seq missing from outstanding_ is a late duplicate (bit set) or
  /// one that matches nothing this client issued (bit clear).
  std::vector<std::uint64_t> completed_bits_;
  ClientStats stats_;
};

}  // namespace netclone::host

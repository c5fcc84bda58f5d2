// Worker server model (paper §4.2).
//
// One dispatcher thread drains the NIC and enqueues requests into a global
// FCFS queue; `workers` worker threads dequeue and execute in parallel.
// The dispatcher is a serial stage with a fixed cost per frame
// (`dispatch_cost`), so the server's ingress link models it: it delivers
// each frame when the dispatcher has picked it up (Node::receive_cost),
// and handle_frame dispatches it in that same event. The NetClone
// server-side mechanisms (§3.4) live here:
//   * a cloned request (CLO=2) arriving while the queue is non-empty is
//     dropped — the tracked switch state was stale;
//   * every response piggybacks the current queue length in STATE, which is
//     how the switch learns server idleness.
//
// Received frames are read through a wire::PacketView. The request's
// frame itself rides through the reassembly table and the FCFS queue
// (never copied), and the worker parses the RPC body from it. The
// response is written over that very frame when the server holds it
// alone and the response fits its buffer — the server answers in the
// buffer it received on — and into a fresh frame otherwise (a KV GET
// response outgrows an 80-byte request's 128-byte buffer); header-only
// fragment markers take fresh frames. Fresh frames come from the pool the
// server's topology handed it (phys::Node::pool). Packet::serialize() is
// the byte oracle these writes are tested against.
#pragma once

#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "host/addressing.hpp"
#include "host/service.hpp"
#include "phys/node.hpp"
#include "sim/simulator.hpp"
#include "wire/packet_view.hpp"

namespace netclone::host {

/// When a switch-cloned copy (CLO=2) may be accepted instead of dropped.
enum class CloneAdmission {
  /// Paper-literal §3.4: accept iff the FCFS queue is empty (a copy may
  /// still wait if every worker is busy).
  kQueueEmpty,
  /// Stricter: accept iff a worker can run it immediately. Sheds the
  /// harmful clones that would queue behind a full worker pool at high
  /// load; bench_ablation_admission quantifies the difference.
  kWorkerFree,
};

/// What a caller chooses about a server's NetClone behaviour. The harness
/// templates hold only these; it fills in the rest of ServerParams
/// (identity and worker count).
struct ServerOptions {
  /// NetClone server-side mechanism: which busy state makes the server
  /// drop a CLO=2 request (only switch-cloned copies are ever dropped).
  CloneAdmission clone_admission = CloneAdmission::kQueueEmpty;
  /// Multi-packet responses (§3.7): each response is sent as this many
  /// fragments (at most 64); the switch filters them through ordered
  /// filter tables, so a filtering switch needs multi-packet support and
  /// at least this many tables (the harnesses check).
  std::uint8_t response_fragments = 1;
};

struct ServerParams : ServerOptions {
  ServerId sid{};
  /// Parallel worker threads (paper: 16 per server for synthetic runs,
  /// 8 for the KV experiments, 15 vs 8 in the heterogeneous Fig. 10 setup).
  std::uint32_t workers = 16;
  /// Dispatcher CPU time per received packet (VMA userspace path). Every
  /// frame the ingress link hands over pays it, a corrupted or foreign
  /// one included.
  SimTime dispatch_cost = SimTime::nanoseconds(300);
};

struct ServerStats {
  std::uint64_t rx_requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped_stale_clones = 0;
  /// Responses sent while the queue was empty (Fig. 13a's state signal).
  std::uint64_t responses_with_empty_queue = 0;
  std::uint64_t responses_total = 0;
  /// Peak of the FCFS queue, for sanity reporting.
  std::size_t max_queue_depth = 0;
  /// Multi-packet requests fully reassembled and executed.
  std::uint64_t reassembled_requests = 0;
  /// Fragments whose ordinal had already arrived for the same request
  /// (a duplicate that slipped past filtering, or a retransmit overlap).
  std::uint64_t duplicate_fragments = 0;
  /// Partial reassemblies expired because a fragment never arrived.
  std::uint64_t expired_partials = 0;
  /// Queued requests removed by a client cancellation (C-Clone cancel).
  std::uint64_t cancelled_requests = 0;
  /// In-progress partial reassemblies removed by a client cancellation.
  std::uint64_t cancelled_partials = 0;
  /// Cancels that matched nothing (request in service or already done).
  std::uint64_t cancel_misses = 0;
  /// Frames dropped because the IPv4 or UDP checksum failed on receive.
  std::uint64_t checksum_drops = 0;
  /// Fault-hook accounting: crash() invocations, frames picked up while
  /// crashed (discarded), frames picked up while paused (buffered), and
  /// worker completions voided because their epoch died with a crash.
  std::uint64_t crashes = 0;
  std::uint64_t dropped_while_crashed = 0;
  std::uint64_t paused_frames = 0;
  std::uint64_t abandoned_in_flight = 0;
  /// Time requests spent waiting in the FCFS queue before a worker took
  /// them — the variability source JSQ/cloning mask.
  LatencyHistogram queue_wait;
};

class Server : public phys::Node {
 public:
  Server(sim::Simulator& sim, ServerParams params,
         std::shared_ptr<ServiceModel> service, Rng rng);

  void handle_frame(std::size_t port, wire::FrameHandle frame) override;
  [[nodiscard]] SimTime receive_cost() const override {
    return params_.dispatch_cost;
  }

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] ServerId sid() const { return params_.sid; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::uint32_t busy_workers() const { return busy_workers_; }

  // Fault hooks (the deterministic chaos layer). Crash models a process
  // kill: all soft state (queue, partials, in-service work) is lost and
  // frames picked up are discarded until restart(); worker completions
  // from before the crash are voided by an epoch guard. Pause models a
  // stalled dispatcher: frames picked up are buffered, and resume()
  // dispatches them in arrival order without pacing them again (each
  // paid its dispatch cost at pickup); workers already executing keep
  // running (no preemption).
  void crash();
  void restart();
  void pause();
  void resume();
  /// Degraded-worker fault: multiplies execution time for requests that
  /// start from now on (1.0 = healthy, 2.0 = half speed).
  void set_slowdown(double factor);
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] double slowdown() const { return slowdown_; }

 private:
  /// Where the response must go, captured when the request arrives so
  /// the frame's headers need not ride the queue.
  struct ResponseRoute {
    wire::MacAddress mac{};
    wire::Ipv4Address ip{};
    std::uint16_t udp_port = 0;
  };
  /// A request in flight through reassembly and the FCFS queue: the
  /// NetClone header, the return route, and the received frame, which
  /// carries the RPC body and takes the response.
  struct PendingRequest {
    wire::NetCloneHeader nc{};
    ResponseRoute from{};
    wire::FrameHandle frame{};
  };
  struct PartialRequest {
    /// Fragment 0 — the fragment carrying the RPC payload and the CLO
    /// marking of the cloning decision — regardless of arrival order.
    PendingRequest root{};
    bool have_root = false;
    std::uint64_t frag_mask = 0;
    SimTime last_update;
  };
  struct QueueEntry {
    PendingRequest req;
    SimTime enqueued_at;
  };
  /// A request a worker is executing, parked until its completion event
  /// (which captures only the slot index).
  struct InService {
    PendingRequest req{};
    wire::RpcRequest rpc{};
    SimTime queue_wait{};
    SimTime service{};
  };

  /// Checksum and parse checks, then on_dispatch: the dispatcher's work
  /// on one picked-up frame.
  void dispatch(wire::FrameHandle frame);
  void on_dispatch(PendingRequest& req);
  void on_cancel(const wire::NetCloneHeader& nc);
  /// Returns true when all fragments arrived; `req` then holds the
  /// reassembled request (fragment 0's payload and CLO marking).
  bool reassemble(PendingRequest& req);
  void sweep_stale_partials();
  void try_start_worker();
  /// `rpc` is the body parsed once in try_start_worker().
  void on_complete(PendingRequest& req, const wire::RpcRequest& rpc,
                   SimTime queue_wait, SimTime service);

  sim::Simulator& sim_;
  ServerParams params_;
  std::shared_ptr<ServiceModel> service_;
  Rng rng_;
  wire::Ipv4Address my_ip_;
  wire::MacAddress my_mac_;

  Ring<QueueEntry> queue_;
  /// Requests in execution, indexed by the slot their completion event
  /// captured; free_slots_ lists the reusable ones.
  std::vector<InService> in_service_;
  std::vector<std::uint32_t> free_slots_;
  /// Reassembly table, slab-allocated: partials live inline in the flat
  /// map's contiguous slot array (no per-entry heap node), keyed by the
  /// client tuple. Presized at construction so the dispatch path never
  /// rehashes at steady state.
  FlatMap64<PartialRequest> partials_;
  /// Scratch for the TTL sweep (keys collected first — the flat map's
  /// backward-shift erase must not run under its own iteration).
  std::vector<std::uint64_t> expired_keys_;
  std::uint64_t dispatch_counter_ = 0;
  std::uint32_t busy_workers_ = 0;
  /// Bumped by crash(); scheduled completion events carry the epoch they
  /// were created in and no-op when it is stale, before they touch
  /// in_service_ (crash() clears it).
  std::uint64_t epoch_ = 0;
  bool crashed_ = false;
  bool paused_ = false;
  double slowdown_ = 1.0;
  /// Frames picked up while paused, dispatched in order on resume().
  std::vector<wire::FrameHandle> paused_rx_;
  ServerStats stats_;
};

}  // namespace netclone::host

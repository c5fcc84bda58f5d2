// Application-level RPC payload carried after the NetClone header.
//
// Two request kinds exist: synthetic RPCs whose intrinsic duration is chosen
// by the workload generator (paper §5.1.2), and key-value operations for the
// Redis/Memcached experiments (§5.5). Responses stay single-packet: GET
// returns the 64-byte value, SCAN returns an 8-byte digest of the 100 values
// read (matching the paper's one-packet-response setup).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "wire/bytes.hpp"

namespace netclone::wire {

enum class RpcOp : std::uint8_t {
  kSynthetic = 0,
  kGet = 1,
  kScan = 2,
  kSet = 3,
};

struct RpcRequest {
  static constexpr std::size_t kSize = 17;

  RpcOp op = RpcOp::kSynthetic;
  /// Intrinsic service duration in ns for kSynthetic (the shared component
  /// of a request's cost — both clones of a request run the same job).
  std::uint32_t intrinsic_ns = 0;
  /// Key index for KV operations.
  std::uint64_t key = 0;
  /// Number of objects a kScan reads (paper uses 100).
  std::uint16_t scan_count = 0;
  /// Value size for kSet.
  std::uint16_t value_size = 0;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static RpcRequest parse(ByteReader& r);
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static RpcRequest from_frame(std::span<const std::byte> f);
};

enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
};

/// A response value, held inline: at most kCapacity bytes — a GET's
/// 64-byte object, a SCAN's 8-byte digest — so a response carries its
/// value without a heap allocation.
class RpcValue {
 public:
  static constexpr std::size_t kCapacity = 64;

  /// Copies `bytes` in as the value. Throws CodecError beyond kCapacity.
  void assign(std::span<const std::byte> bytes);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::byte operator[](std::size_t i) const {
    return bytes_[i];
  }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {bytes_.data(), size_};
  }

  friend bool operator==(const RpcValue& a, const RpcValue& b) {
    return std::ranges::equal(a.bytes(), b.bytes());
  }

 private:
  std::array<std::byte, kCapacity> bytes_{};
  std::size_t size_ = 0;
};

struct RpcResponse {
  RpcStatus status = RpcStatus::kOk;
  /// Server-side latency decomposition, stamped by the worker: time the
  /// request waited in the FCFS queue and time it executed. Lets clients
  /// attribute end-to-end latency to queueing vs service vs network —
  /// which is how one sees *what* cloning masked.
  std::uint32_t queue_wait_ns = 0;
  std::uint32_t service_ns = 0;
  /// GET: the object value; SCAN: an 8-byte digest; SYNTHETIC/SET: empty.
  RpcValue value{};

  /// Serialized size: a fixed 11 bytes plus the value.
  [[nodiscard]] std::size_t wire_size() const { return 11 + value.size(); }
  void serialize(ByteWriter& w) const;
  [[nodiscard]] static RpcResponse parse(ByteReader& r);
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static RpcResponse from_frame(std::span<const std::byte> f);
  /// from_frame() without copying the value out: status and the latency
  /// decomposition only, `value` left empty. Rejects the same malformed
  /// bodies from_frame() does: a truncated one, and one whose value is
  /// longer than RpcValue::kCapacity.
  [[nodiscard]] static RpcResponse peek(std::span<const std::byte> f);
};

}  // namespace netclone::wire

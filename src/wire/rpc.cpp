#include "wire/rpc.hpp"

namespace netclone::wire {

void RpcRequest::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(op));
  w.u32(intrinsic_ns);
  w.u64(key);
  w.u16(scan_count);
  w.u16(value_size);
}

RpcRequest RpcRequest::parse(ByteReader& r) {
  RpcRequest req;
  const std::uint8_t op = r.u8();
  if (op > static_cast<std::uint8_t>(RpcOp::kSet)) {
    throw CodecError{"bad RPC op"};
  }
  req.op = static_cast<RpcOp>(op);
  req.intrinsic_ns = r.u32();
  req.key = r.u64();
  req.scan_count = r.u16();
  req.value_size = r.u16();
  return req;
}

Frame RpcRequest::to_frame() const {
  Frame f;
  f.reserve(kSize);
  ByteWriter w{f};
  serialize(w);
  return f;
}

RpcRequest RpcRequest::from_frame(std::span<const std::byte> f) {
  ByteReader r{f};
  return parse(r);
}

namespace {

/// A response's value length field, checked against RpcValue's capacity.
std::size_t value_length(ByteReader& r) {
  const std::size_t len = r.u16();
  if (len > RpcValue::kCapacity) {
    throw CodecError{"RPC response value too long"};
  }
  return len;
}

}  // namespace

void RpcValue::assign(std::span<const std::byte> bytes) {
  if (bytes.size() > kCapacity) {
    throw CodecError{"RPC response value too long"};
  }
  std::copy(bytes.begin(), bytes.end(), bytes_.begin());
  size_ = bytes.size();
}

void RpcResponse::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(status));
  w.u32(queue_wait_ns);
  w.u32(service_ns);
  w.u16(static_cast<std::uint16_t>(value.size()));
  w.bytes(value.bytes());
}

RpcResponse RpcResponse::parse(ByteReader& r) {
  RpcResponse resp;
  resp.status = static_cast<RpcStatus>(r.u8());
  resp.queue_wait_ns = r.u32();
  resp.service_ns = r.u32();
  const std::size_t len = value_length(r);
  resp.value.assign({r.raw(len), len});
  return resp;
}

Frame RpcResponse::to_frame() const {
  Frame f;
  f.reserve(wire_size());
  ByteWriter w{f};
  serialize(w);
  return f;
}

RpcResponse RpcResponse::from_frame(std::span<const std::byte> f) {
  ByteReader r{f};
  return parse(r);
}

RpcResponse RpcResponse::peek(std::span<const std::byte> f) {
  ByteReader r{f};
  RpcResponse resp;
  resp.status = static_cast<RpcStatus>(r.u8());
  resp.queue_wait_ns = r.u32();
  resp.service_ns = r.u32();
  r.skip(value_length(r));
  return resp;
}

}  // namespace netclone::wire

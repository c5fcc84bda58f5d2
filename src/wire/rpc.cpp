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

void RpcResponse::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(status));
  w.u32(queue_wait_ns);
  w.u32(service_ns);
  w.u16(static_cast<std::uint16_t>(value.size()));
  w.bytes(value);
}

RpcResponse RpcResponse::parse(ByteReader& r) {
  RpcResponse resp;
  resp.status = static_cast<RpcStatus>(r.u8());
  resp.queue_wait_ns = r.u32();
  resp.service_ns = r.u32();
  const std::uint16_t len = r.u16();
  resp.value.resize(len);
  r.bytes(resp.value);
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
  r.skip(r.u16());
  return resp;
}

}  // namespace netclone::wire

#include "wire/rpc.hpp"

#include <gtest/gtest.h>

namespace netclone::wire {
namespace {

TEST(RpcRequest, RoundTrip) {
  RpcRequest req;
  req.op = RpcOp::kScan;
  req.intrinsic_ns = 25000;
  req.key = 0xABCDEF0123456789ULL;
  req.scan_count = 100;
  req.value_size = 64;
  const Frame f = req.to_frame();
  EXPECT_EQ(f.size(), RpcRequest::kSize);
  const RpcRequest parsed = RpcRequest::from_frame(f);
  EXPECT_EQ(parsed.op, RpcOp::kScan);
  EXPECT_EQ(parsed.intrinsic_ns, 25000U);
  EXPECT_EQ(parsed.key, 0xABCDEF0123456789ULL);
  EXPECT_EQ(parsed.scan_count, 100);
  EXPECT_EQ(parsed.value_size, 64);
}

TEST(RpcRequest, RejectsBadOp) {
  Frame f(RpcRequest::kSize, std::byte{0});
  f[0] = std::byte{9};
  EXPECT_THROW((void)RpcRequest::from_frame(f), CodecError);
}

TEST(RpcRequest, TruncatedThrows) {
  Frame f(RpcRequest::kSize - 1, std::byte{0});
  EXPECT_THROW((void)RpcRequest::from_frame(f), CodecError);
}

TEST(RpcResponse, RoundTripWithValue) {
  RpcResponse resp;
  resp.status = RpcStatus::kOk;
  resp.queue_wait_ns = 12345;
  resp.service_ns = 25000;
  Frame value;
  for (int i = 0; i < 64; ++i) {
    value.push_back(static_cast<std::byte>(i));
  }
  resp.value.assign(value);
  const Frame f = resp.to_frame();
  const RpcResponse parsed = RpcResponse::from_frame(f);
  EXPECT_EQ(parsed.status, RpcStatus::kOk);
  EXPECT_EQ(parsed.queue_wait_ns, 12345U);
  EXPECT_EQ(parsed.service_ns, 25000U);
  EXPECT_EQ(parsed.value, resp.value);
  // peek reads the same fixed fields and skips the value.
  const RpcResponse peeked = RpcResponse::peek(f);
  EXPECT_EQ(peeked.status, RpcStatus::kOk);
  EXPECT_EQ(peeked.queue_wait_ns, 12345U);
  EXPECT_EQ(peeked.service_ns, 25000U);
  EXPECT_TRUE(peeked.value.empty());
}

TEST(RpcResponse, EmptyValue) {
  RpcResponse resp;
  resp.status = RpcStatus::kNotFound;
  const RpcResponse parsed = RpcResponse::from_frame(resp.to_frame());
  EXPECT_EQ(parsed.status, RpcStatus::kNotFound);
  EXPECT_TRUE(parsed.value.empty());
}

TEST(RpcResponse, LengthFieldGuardsParse) {
  RpcResponse resp;
  resp.value.assign(Frame(10, std::byte{7}));
  const Frame whole = resp.to_frame();
  const Frame f{whole.begin(), whole.end() - 5};  // truncate the value
  EXPECT_THROW((void)RpcResponse::from_frame(f), CodecError);
  EXPECT_THROW((void)RpcResponse::peek(f), CodecError);
}

// A value is held inline, so one longer than its capacity is rejected
// when assigned, and a body whose length field claims one fails to parse
// and to peek alike.
TEST(RpcResponse, ValueBeyondCapacityIsRejected) {
  RpcResponse resp;
  EXPECT_THROW(resp.value.assign(Frame(RpcValue::kCapacity + 1)),
               CodecError);
  resp.value.assign(Frame(RpcValue::kCapacity, std::byte{1}));
  Frame f = resp.to_frame();
  EXPECT_EQ(RpcResponse::from_frame(f).value, resp.value);
  // Claim one byte more and supply it.
  poke_u16(f, 9, static_cast<std::uint16_t>(RpcValue::kCapacity + 1));
  f.push_back(std::byte{1});
  EXPECT_THROW((void)RpcResponse::from_frame(f), CodecError);
  EXPECT_THROW((void)RpcResponse::peek(f), CodecError);
}

// All op codes survive a round trip.
class OpSweep : public ::testing::TestWithParam<RpcOp> {};

TEST_P(OpSweep, RoundTrips) {
  RpcRequest req;
  req.op = GetParam();
  const RpcRequest parsed = RpcRequest::from_frame(req.to_frame());
  EXPECT_EQ(parsed.op, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpSweep,
                         ::testing::Values(RpcOp::kSynthetic, RpcOp::kGet,
                                           RpcOp::kScan, RpcOp::kSet));

}  // namespace
}  // namespace netclone::wire

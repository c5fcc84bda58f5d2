#include "kv/kv_workload.hpp"

#include <gtest/gtest.h>

namespace netclone::kv {
namespace {

std::shared_ptr<const KvStore> small_store() {
  auto store = std::make_shared<KvStore>(1000);
  populate(*store, 1000);
  return store;
}

TEST(KvRequestFactory, MixFractionsRespected) {
  KvMix mix;
  mix.get_fraction = 0.9;
  mix.num_keys = 1000;
  KvRequestFactory factory{mix, redis_profile()};
  Rng rng{1};
  int gets = 0;
  int scans = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const wire::RpcRequest req = factory.make(rng);
    if (req.op == wire::RpcOp::kGet) {
      ++gets;
    } else {
      ASSERT_EQ(req.op, wire::RpcOp::kScan);
      EXPECT_EQ(req.scan_count, 100);
      ++scans;
    }
    EXPECT_LT(req.key, 1000U);
  }
  EXPECT_NEAR(static_cast<double>(gets) / kN, 0.9, 0.01);
  EXPECT_GT(scans, 0);
}

TEST(KvRequestFactory, MeanIntrinsicMatchesMix) {
  KvMix mix;
  mix.get_fraction = 0.99;
  mix.num_keys = 100;
  const KvCostProfile profile = redis_profile();
  KvRequestFactory factory{mix, profile};
  const double scan_us = profile.get_base_us + 100.0 * profile.per_object_us;
  EXPECT_DOUBLE_EQ(factory.mean_intrinsic_us(),
                   0.99 * profile.get_base_us + 0.01 * scan_us);
}

TEST(KvRequestFactory, LabelNamesApplicationAndMix) {
  KvMix mix;
  mix.get_fraction = 0.99;
  mix.num_keys = 100;
  EXPECT_EQ(KvRequestFactory(mix, redis_profile()).label(),
            "Redis 99%-GET,1%-SCAN");
  EXPECT_EQ(KvRequestFactory(mix, memcached_profile()).label(),
            "Memcached 99%-GET,1%-SCAN");
}

TEST(KvRequestFactory, KeysAreZipfSkewed) {
  KvMix mix;
  mix.num_keys = 100000;
  mix.zipf_theta = 0.99;
  KvRequestFactory factory{mix, redis_profile()};
  Rng rng{7};
  int head = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    head += factory.make(rng).key < 10 ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(head) / kN, 0.1);
}

TEST(KvService, GetReturnsStoredValue) {
  KvService service{small_store(), redis_profile(),
                    host::JitterModel{0.0, 15.0}};
  wire::RpcRequest req;
  req.op = wire::RpcOp::kGet;
  req.key = 123;
  const wire::RpcResponse resp = service.execute(req);
  EXPECT_EQ(resp.status, wire::RpcStatus::kOk);
  const std::string expected = value_for_index(123);
  ASSERT_EQ(resp.value.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<char>(resp.value[i]), expected[i]);
  }
}

TEST(KvService, MissingKeyIsNotFound) {
  KvService service{small_store(), redis_profile(),
                    host::JitterModel{0.0, 15.0}};
  wire::RpcRequest req;
  req.op = wire::RpcOp::kGet;
  req.key = 999999;  // not populated
  EXPECT_EQ(service.execute(req).status, wire::RpcStatus::kNotFound);
}

TEST(KvService, IndexWithoutKeyIsNotFound) {
  KvService service{small_store(), redis_profile(),
                    host::JitterModel{0.0, 15.0}};
  wire::RpcRequest req;
  req.key = kMaxKeyIndex + 1;
  for (const wire::RpcOp op : {wire::RpcOp::kGet, wire::RpcOp::kScan}) {
    req.op = op;
    const wire::RpcResponse resp = service.execute(req);
    EXPECT_EQ(resp.status, wire::RpcStatus::kNotFound);
    EXPECT_TRUE(resp.value.empty());
  }
}

TEST(KvService, ScanReturnsEightByteDigest) {
  KvService service{small_store(), redis_profile(),
                    host::JitterModel{0.0, 15.0}};
  wire::RpcRequest req;
  req.op = wire::RpcOp::kScan;
  req.key = 5;
  req.scan_count = 100;
  const wire::RpcResponse resp = service.execute(req);
  EXPECT_EQ(resp.status, wire::RpcStatus::kOk);
  EXPECT_EQ(resp.value.size(), 8U);
  // Deterministic across calls.
  EXPECT_EQ(service.execute(req).value, resp.value);
}

TEST(KvService, ExecutionTimesFollowProfile) {
  const KvCostProfile profile = redis_profile();
  KvService service{small_store(), profile, host::JitterModel{0.0, 15.0}};
  Rng rng{1};
  wire::RpcRequest get;
  get.op = wire::RpcOp::kGet;
  EXPECT_EQ(service.execution_time(get, rng),
            SimTime::microseconds(profile.get_base_us));
  wire::RpcRequest scan;
  scan.op = wire::RpcOp::kScan;
  scan.scan_count = 100;
  EXPECT_EQ(service.execution_time(scan, rng),
            SimTime::microseconds(profile.get_base_us +
                                  100.0 * profile.per_object_us));
  wire::RpcRequest set;
  set.op = wire::RpcOp::kSet;
  EXPECT_EQ(service.execution_time(set, rng),
            SimTime::microseconds(profile.set_base_us));
}

TEST(KvService, ScanIsBimodallySlowerThanGet) {
  // The GET/SCAN cost gap is what produces Fig. 11/12's tail structure.
  const KvCostProfile profile = memcached_profile();
  KvService service{small_store(), profile, host::JitterModel{0.0, 15.0}};
  Rng rng{1};
  wire::RpcRequest get;
  get.op = wire::RpcOp::kGet;
  wire::RpcRequest scan;
  scan.op = wire::RpcOp::kScan;
  scan.scan_count = 100;
  EXPECT_GT(service.execution_time(scan, rng).ns(),
            15 * service.execution_time(get, rng).ns());
}

TEST(KvService, JitterAppliesToKvOps) {
  KvService service{small_store(), redis_profile(),
                    host::JitterModel{1.0, 15.0}};
  Rng rng{1};
  wire::RpcRequest get;
  get.op = wire::RpcOp::kGet;
  EXPECT_EQ(service.execution_time(get, rng),
            SimTime::microseconds(redis_profile().get_base_us * 15.0));
}

TEST(KvService, SyntheticPassthrough) {
  KvService service{small_store(), redis_profile(),
                    host::JitterModel{0.0, 15.0}};
  Rng rng{1};
  wire::RpcRequest req;
  req.op = wire::RpcOp::kSynthetic;
  req.intrinsic_ns = 7000;
  EXPECT_EQ(service.execution_time(req, rng).ns(), 7000);
}

TEST(KvProfiles, RelativeCosts) {
  EXPECT_LT(memcached_profile().get_base_us, redis_profile().get_base_us);
  EXPECT_GT(redis_profile().per_object_us, 0.0);
}

}  // namespace
}  // namespace netclone::kv

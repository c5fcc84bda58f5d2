#include "kv/kv_workload.hpp"

#include <array>
#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "common/check.hpp"

namespace netclone::kv {

KvCostProfile redis_profile() {
  // Redis over VMA kernel bypass: single-threaded command execution with
  // hash lookup; SCAN walks objects one by one.
  return KvCostProfile{"Redis", /*get_base_us=*/5.0, /*per_object_us=*/1.0,
                       /*set_base_us=*/6.0};
}

KvCostProfile memcached_profile() {
  // Memcached's slab-allocated GET path is slightly cheaper per object.
  return KvCostProfile{"Memcached", /*get_base_us=*/4.0,
                       /*per_object_us=*/0.85, /*set_base_us=*/5.0};
}

KvService::KvService(std::shared_ptr<const KvStore> store,
                     KvCostProfile profile, host::JitterModel jitter)
    : store_(std::move(store)), profile_(std::move(profile)),
      jitter_(jitter) {
  NETCLONE_CHECK(store_ != nullptr, "KvService needs a store");
}

SimTime KvService::execution_time(const wire::RpcRequest& req, Rng& rng) {
  double base_us = 0.0;
  switch (req.op) {
    case wire::RpcOp::kGet:
      base_us = profile_.get_base_us;
      break;
    case wire::RpcOp::kScan:
      base_us = profile_.get_base_us +
                profile_.per_object_us * static_cast<double>(req.scan_count);
      break;
    case wire::RpcOp::kSet:
      base_us = profile_.set_base_us;
      break;
    case wire::RpcOp::kSynthetic:
      base_us = static_cast<double>(req.intrinsic_ns) / 1000.0;
      break;
  }
  return jitter_.apply(SimTime::microseconds(base_us), rng);
}

// A GET response carries the whole object value.
static_assert(kMaxValueBytes <= wire::RpcValue::kCapacity);

namespace {

/// Formats object `index`'s key into `buf`; nullopt when no 16-byte key
/// names that index (write_key would reject it), so nothing is stored.
std::optional<std::string_view> key_of(std::uint64_t index,
                                       char (&buf)[kMaxKeyBytes]) {
  if (index > kMaxKeyIndex) {
    return std::nullopt;
  }
  write_key(index, buf);
  return std::string_view{buf, kMaxKeyBytes};
}

}  // namespace

wire::RpcResponse KvService::execute(const wire::RpcRequest& req) {
  wire::RpcResponse resp;
  char buf[kMaxKeyBytes];
  switch (req.op) {
    case wire::RpcOp::kGet: {
      const auto key = key_of(req.key, buf);
      const auto value = key ? store_->get(*key) : std::nullopt;
      if (!value) {
        resp.status = wire::RpcStatus::kNotFound;
        break;
      }
      resp.value.assign(
          {reinterpret_cast<const std::byte*>(value->data()), value->size()});
      break;
    }
    case wire::RpcOp::kScan: {
      const auto key = key_of(req.key, buf);
      if (!key) {
        resp.status = wire::RpcStatus::kNotFound;
        break;
      }
      const std::uint64_t digest = store_->scan_digest(*key, req.scan_count);
      std::array<std::byte, 8> bytes{};
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<std::byte>((digest >> (8 * (7 - i))) & 0xFFU);
      }
      resp.value.assign(bytes);
      break;
    }
    case wire::RpcOp::kSet:
      // SETs are costed by execution_time() and travel as WREQ, which the
      // switch never clones (§5.5); the shared store is read-only here, so
      // a SET only acknowledges.
      resp.status = wire::RpcStatus::kOk;
      break;
    case wire::RpcOp::kSynthetic:
      break;
  }
  return resp;
}

KvRequestFactory::KvRequestFactory(KvMix mix, KvCostProfile profile)
    : mix_(mix),
      profile_(std::move(profile)),
      zipf_(mix.num_keys, mix.zipf_theta) {
  NETCLONE_CHECK(mix_.get_fraction >= 0.0 && mix_.set_fraction >= 0.0 &&
                     mix_.get_fraction + mix_.set_fraction <= 1.0,
                 "GET/SET fractions must form a valid mix");
}

wire::RpcRequest KvRequestFactory::make(Rng& rng) {
  wire::RpcRequest req;
  req.key = zipf_.sample(rng);
  const double u = rng.next_double();
  if (u < mix_.get_fraction) {
    req.op = wire::RpcOp::kGet;
  } else if (u < mix_.get_fraction + mix_.set_fraction) {
    req.op = wire::RpcOp::kSet;
    req.value_size = kMaxValueBytes;
  } else {
    req.op = wire::RpcOp::kScan;
    req.scan_count = mix_.scan_count;
  }
  return req;
}

double KvRequestFactory::mean_intrinsic_us() const {
  const double scan_us =
      profile_.get_base_us +
      profile_.per_object_us * static_cast<double>(mix_.scan_count);
  const double scan_fraction =
      1.0 - mix_.get_fraction - mix_.set_fraction;
  return mix_.get_fraction * profile_.get_base_us +
         mix_.set_fraction * profile_.set_base_us +
         scan_fraction * scan_us;
}

std::string KvRequestFactory::label() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %.0f%%-GET,%.0f%%-SCAN",
                profile_.name.c_str(), mix_.get_fraction * 100.0,
                (1.0 - mix_.get_fraction) * 100.0);
  return buf;
}

}  // namespace netclone::kv

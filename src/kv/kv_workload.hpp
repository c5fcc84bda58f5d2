// KV service + workload: the Redis / Memcached experiments (§5.5).
//
// Clients draw keys from a Zipf-0.99 distribution over 1M objects and mix
// GET (one object) with SCAN (100 objects). Worker servers execute the
// operations against a shared read-replicated KvStore; operation cost is
// converted to simulated time by a per-application cost profile, with the
// usual independent per-execution jitter on top.
#pragma once

#include <memory>
#include <string>

#include "host/service.hpp"
#include "host/workload.hpp"
#include "kv/store.hpp"
#include "kv/zipf.hpp"

namespace netclone::kv {

/// Service-time coefficients of one KV application.
struct KvCostProfile {
  std::string name;
  /// Fixed cost of any read request (parse + lookup + respond).
  double get_base_us = 5.0;
  /// Additional per-object cost of a SCAN.
  double per_object_us = 1.0;
  /// Fixed cost of a SET.
  double set_base_us = 6.0;
};

/// Profiles roughly matching the relative costs of the two systems the
/// paper deploys; absolute values are calibration constants, the shapes in
/// Figs. 11-12 come from the GET/SCAN bimodality they induce.
[[nodiscard]] KvCostProfile redis_profile();
[[nodiscard]] KvCostProfile memcached_profile();

/// Worker-side execution of KV requests.
class KvService final : public host::ServiceModel {
 public:
  KvService(std::shared_ptr<const KvStore> store, KvCostProfile profile,
            host::JitterModel jitter);

  [[nodiscard]] SimTime execution_time(const wire::RpcRequest& req,
                                       Rng& rng) override;
  [[nodiscard]] wire::RpcResponse execute(
      const wire::RpcRequest& req) override;

 private:
  std::shared_ptr<const KvStore> store_;
  KvCostProfile profile_;
  host::JitterModel jitter_;
};

struct KvMix {
  /// Fraction of GET requests; SETs take set_fraction; the remainder are
  /// SCANs (paper: 0.99/0.01 and 0.90/0.10 GET/SCAN, reads only).
  double get_fraction = 0.99;
  /// Fraction of SET (write) requests. Writes travel as WREQ and are
  /// never cloned by the switch (§5.5).
  double set_fraction = 0.0;
  std::uint16_t scan_count = 100;
  std::uint64_t num_keys = 1000000;
  double zipf_theta = 0.99;
};

/// Client-side request generator for a KV mix.
class KvRequestFactory final : public host::RequestFactory {
 public:
  KvRequestFactory(KvMix mix, KvCostProfile profile);

  [[nodiscard]] wire::RpcRequest make(Rng& rng) override;
  [[nodiscard]] double mean_intrinsic_us() const override;
  /// The mean intrinsic service time of `mix` under `profile`, without
  /// building a factory (whose Zipf generator sums over every key).
  [[nodiscard]] static double mean_intrinsic_us(const KvMix& mix,
                                                const KvCostProfile& profile);
  /// "<application> G%-GET,S%-SCAN", with the SET share between them
  /// when the mix has writes.
  [[nodiscard]] std::string label() const override;

 private:
  KvMix mix_;
  KvCostProfile profile_;
  ZipfGenerator zipf_;
};

}  // namespace netclone::kv

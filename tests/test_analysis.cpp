// Queueing-theory reference models, and the validation that the simulated
// server stack reproduces M/M/c behavior — the strongest evidence that the
// latency numbers the figure benches report are trustworthy.
#include "harness/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "harness/experiment.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

TEST(Mmc, UtilizationAndLimits) {
  MmcModel m{4, 100000.0, 25e-6};  // a = 2.5 over 4 servers
  EXPECT_NEAR(m.utilization(), 0.625, 1e-12);
  MmcModel overloaded{2, 100000.0, 25e-6};
  EXPECT_DOUBLE_EQ(overloaded.probability_of_wait(), 1.0);
  EXPECT_TRUE(std::isinf(overloaded.mean_wait_s()));
}

TEST(Mmc, MM1ClosedForm) {
  // For c=1, P(wait) = rho and Wq = rho/(mu - lambda).
  const double lambda = 30000.0;
  const double s = 25e-6;
  MmcModel m{1, lambda, s};
  const double rho = lambda * s;
  EXPECT_NEAR(m.probability_of_wait(), rho, 1e-9);
  EXPECT_NEAR(m.mean_wait_s(), rho * s / (1.0 - rho), 1e-12);
}

TEST(Mmc, ErlangCKnownValue) {
  // Classic table value: c=5, a=4 Erlangs -> C(5,4) ~ 0.5541.
  MmcModel m{5, 4.0, 1.0};
  EXPECT_NEAR(m.probability_of_wait(), 0.5541, 0.0005);
}

TEST(Mmc, QueueEmptyProbabilityBounds) {
  MmcModel light{16, 100000.0, 25e-6};  // rho ~ 0.156
  EXPECT_GT(light.probability_queue_empty(), 0.999);
  MmcModel heavy{16, 575000.0, 25e-6};  // rho ~ 0.9
  EXPECT_LT(heavy.probability_queue_empty(), 0.7);
  EXPECT_GT(heavy.probability_queue_empty(), 0.1);
}

TEST(Quantiles, ExponentialClosedForm) {
  EXPECT_NEAR(exponential_quantile(25.0, 0.99), 25.0 * std::log(100.0),
              1e-9);
  EXPECT_DOUBLE_EQ(exponential_quantile(25.0, 0.0), 0.0);
}

TEST(Quantiles, MixtureReducesToExponential) {
  // p = 0 mixture is a plain exponential.
  EXPECT_NEAR(jitter_mixture_quantile(25.0, 0.0, 15.0, 0.99),
              exponential_quantile(25.0, 0.99), 0.01);
  // With 1% jitter at 15x, the p99 must exceed the plain exponential p99.
  EXPECT_GT(jitter_mixture_quantile(25.0, 0.01, 15.0, 0.99),
            exponential_quantile(25.0, 0.99));
}

// The flagship validation: a baseline cluster with no jitter is a set of
// independent M/M/c queues (Poisson arrivals split uniformly across
// servers). The simulated mean latency must match Erlang-C plus the fixed
// network/processing path.
class MmcValidation : public ::testing::TestWithParam<double> {};

TEST_P(MmcValidation, SimulatorMatchesErlangC) {
  const double rho = GetParam();
  constexpr std::uint32_t kWorkers = 8;
  constexpr double kServiceUs = 25.0;
  constexpr std::size_t kServers = 2;

  ClusterConfig cfg;
  cfg.scheme = Scheme::kBaseline;
  cfg.server_workers.assign(kServers, kWorkers);
  cfg.factory = std::make_shared<host::ExponentialWorkload>(kServiceUs);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.0, 1.0});
  cfg.warmup = SimTime::milliseconds(10);
  cfg.measure = SimTime::milliseconds(60);
  const double capacity =
      cluster_capacity_rps(cfg.server_workers, kServiceUs);
  cfg.offered_rps = rho * capacity;

  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();

  // Each server sees a Poisson stream at rate offered/kServers.
  MmcModel model{kWorkers, cfg.offered_rps / kServers, kServiceUs * 1e-6};
  const double theory_us = model.mean_sojourn_s() * 1e6;

  // Fixed path: client tx + 2 links + switch + dispatcher on the way in,
  // response tx + 2 links + switch + client rx on the way back (~5 us).
  const double overhead_us = 5.3;
  EXPECT_NEAR(result.mean_us, theory_us + overhead_us,
              (theory_us + overhead_us) * 0.06)
      << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Loads, MmcValidation,
                         ::testing::Values(0.3, 0.5, 0.7, 0.85),
                         [](const ::testing::TestParamInfo<double>& p) {
                           return "rho" + std::to_string(static_cast<int>(
                                              p.param * 100));
                         });

}  // namespace
}  // namespace netclone::harness
